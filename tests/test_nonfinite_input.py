"""Non-finite input fails with InvalidInputError (CLI exit 2), never silently.

A NaN shift or a NaN field of a direction jet must be refused where it
enters the library, before any lattice sum, and the CLI must report it on
the error channel as INVALID_INPUT.  So must a non-finite exponent
coefficient of the Baker-Akhiezer function and a non-finite or complex
tolerance, which sweeps and Weil checks refuse before any lattice sum.
"""

import json

import numpy as np
import pytest

from conftest import GENERIC_G2_TAU
from thetalab import (
    DirectionJet,
    InvalidInputError,
    SearchProblem,
    engine,
    fit,
    flex_scan,
    flex_test,
    half_points,
)
from thetalab.bilinear import baker_akhiezer, p_residual, sweep_residual
from thetalab.cli import main
from thetalab.divisor import (
    DivisorKind,
    DivisorPoint,
    SamplePlan,
    sample_theta_intersection,
    weil_check,
)
from thetalab.engine import AbelianPoint, BatchThetaEvaluator, RiemannMatrix

NAN_A = np.array([np.nan, 0.0])
JET = DirectionJet(U=[1.0, 0.0], V=[0.2 - 0.1j, 0.3j], c=0.4, A=0.1, B=0.2)
Z = [0.1 + 0.05j, -0.2 + 0.1j]


def _points(kind):
    return [DivisorPoint(z=AbelianPoint(np.array(Z)), constraints_met=[], kind=kind)]


NAN_SHIFT_CALLS = {
    "p_residual": lambda rm: p_residual(Z, rm, JET, NAN_A),
    "sweep-one-point": lambda rm: sweep_residual("one-point", rm, JET, [Z], 1e-6, a=NAN_A),
    "sweep-dressed": lambda rm: sweep_residual("dressed", rm, JET, [Z], 1e-6, a=NAN_A),
    "flex_scan": lambda rm: flex_scan(NAN_A, JET.U, -JET.V, rm),
    "half_points": lambda rm: half_points(NAN_A, rm),
    "sample_theta_intersection": lambda rm: sample_theta_intersection(
        rm, JET, NAN_A, SamplePlan(count=2, starts=8)),
    "weil1": lambda rm: weil_check(_points(DivisorKind.THETA_CAP_THETA_A), rm, JET,
                                   a=NAN_A, which="weil1"),
    "weil2": lambda rm: weil_check(_points(DivisorKind.D1_THETA), rm, JET,
                                   a=NAN_A, which="weil2"),
    "fit-one-point": lambda rm: fit(SearchProblem(
        tau=rm, target="one_point", jet=JET, free_vars=("V", "c"), sample_count=80,
        restarts=1, iterations=1, a=NAN_A)),
}


@pytest.mark.parametrize("call", NAN_SHIFT_CALLS.values(), ids=NAN_SHIFT_CALLS.keys())
def test_nan_shift_is_invalid_input(rm_g2, call):
    with pytest.raises(InvalidInputError, match="a has non-finite"):
        call(rm_g2)


@pytest.mark.parametrize("field, value", [
    ("U", [np.nan, 1.0]), ("c", np.nan), ("d", complex(0.0, np.inf)), ("A", np.nan),
    ("B", np.nan), ("d_coeffs", [0.5, np.nan]),
])
def test_nan_direction_jet_field_is_invalid_input(field, value):
    fields = {"U": [1.0, 0.0], field: value}
    with pytest.raises(InvalidInputError, match="non-finite"):
        DirectionJet(**fields)


@pytest.mark.parametrize("command", ["one-point-residual", "flex", "one-point-search"])
def test_cli_nan_shift_exits_with_invalid_input(tmp_path, capsys, command):
    tau = tmp_path / "tau.json"
    tau.write_text(json.dumps(
        {"tau": [[[z.real, z.imag] for z in row] for row in GENERIC_G2_TAU]}))
    jet = tmp_path / "jet.json"
    # Python's json writes and reads the NaN literal
    jet.write_text(json.dumps({"U": [1.0, 0.0], "V": [0.2, 0.3], "c": 0.4,
                               "a": [float("nan"), 0.0]}))
    code = main([command, "--tau", str(tau), "--jet", str(jet)])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err["error"] == "INVALID_INPUT"


@pytest.mark.parametrize("A, B, name", [(np.nan, 0.0, "A"), (0.1, complex(np.inf, 0.0), "B")])
def test_nonfinite_baker_akhiezer_coefficient_is_invalid_input(A, B, name):
    jet = DirectionJet(U=[1.0], V=[0.2])
    with pytest.raises(InvalidInputError, match=f"{name} has non-finite"):
        baker_akhiezer(0.1, 0.2, [0.1], RiemannMatrix([[0.3 + 1.1j]]), jet, [0.3], A, B)


TOLERANCE_CALLS = {
    "sweep": lambda rm, tol: sweep_residual("one-point", rm, JET, [Z], tol, a=[0.1, 0.2]),
    "weil": lambda rm, tol: weil_check([], rm, JET, tolerance=tol),
    "fit": lambda rm, tol: fit(SearchProblem(
        tau=rm, target="one_point", jet=JET, free_vars=("V", "c"), sample_count=80,
        restarts=1, iterations=1, a=[0.1, 0.2], tolerance=tol)),
    "fit-hierarchy": lambda rm, tol: fit(SearchProblem(
        tau=rm, target="hierarchy", jet=JET, free_vars=(), sample_count=80,
        restarts=1, iterations=1, jet_order=2, tolerance=tol)),
    "flex_test": lambda rm, tol: flex_test(Z, JET.U, JET.V, rm, tolerance=tol),
    "flex_scan": lambda rm, tol: flex_scan([0.1, 0.2], JET.U, JET.V, rm, tolerance=tol),
}


@pytest.mark.parametrize("call", TOLERANCE_CALLS.values(), ids=TOLERANCE_CALLS.keys())
def test_nonfinite_tolerance_is_invalid_input(rm_g2, call):
    for tolerance in (np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="tolerance has non-finite"):
            call(rm_g2, tolerance)


@pytest.mark.parametrize("call", TOLERANCE_CALLS.values(), ids=TOLERANCE_CALLS.keys())
def test_complex_tolerance_is_invalid_input(rm_g2, call):
    with pytest.raises(InvalidInputError, match="tolerance must be a real number"):
        call(rm_g2, 1e-6 + 1j)


KP_JET = DirectionJet(U=[1.0, 0.0], V=[0.2 - 0.1j, 0.3j], W=[0.1, 0.2], d=0.3,
                      zeta_coeffs=[[1.0, 0.0]])
SUM_CALLS = {
    "kp": lambda rm, tol: sweep_residual("kp", rm, KP_JET, [Z] * 4, tol),
    "hierarchy": lambda rm, tol: sweep_residual("hierarchy", rm, KP_JET, [Z] * 4, tol,
                                                epsilon=0.01),
    "weil": lambda rm, tol: weil_check(_points(DivisorKind.D1_THETA), rm, JET, tolerance=tol),
    "weil1": lambda rm, tol: weil_check(_points(DivisorKind.THETA_CAP_THETA_A), rm, JET,
                                        a=[0.1, 0.2], which="weil1", tolerance=tol),
}


@pytest.mark.parametrize("call", SUM_CALLS.values(), ids=SUM_CALLS.keys())
def test_bad_tolerance_makes_no_lattice_sum(rm_g2, monkeypatch, call):
    # sweeps and Weil checks refuse their tolerance before any jet is summed
    sums = []

    def spy(real):
        return lambda *args: sums.append(args) or real(*args)

    # every sweep and Weil check sizes its evaluator in the one pointwise reader
    monkeypatch.setattr(engine, "_evaluator_for", spy(engine._evaluator_for))
    call(rm_g2, 1e-6)
    assert sums, "the spies see a valid call's lattice sums"
    sums.clear()
    for tolerance in (np.nan, 1e-6 + 1j):
        with pytest.raises(InvalidInputError, match="tolerance"):
            call(rm_g2, tolerance)
    assert not sums


@pytest.mark.parametrize("norm", [np.nan, np.inf, -1.0])
def test_nonfinite_or_negative_direction_norm_is_invalid_input(rm_g2, norm):
    # a NaN norm would size the lattice as order 0, far short of order 4
    with pytest.raises(InvalidInputError, match="direction norms"):
        BatchThetaEvaluator(rm_g2, 4, norm)
    with pytest.raises(InvalidInputError, match="direction norms"):
        BatchThetaEvaluator(rm_g2, profiles=[(1.0, 1.0), (0.5, norm, 1.0)])
