"""Tests of the benchmark's oracles and of its checks.

Run with ``python3 -m pytest bench/test_checks.py``.  The oracles are
tested against each other and against a theorem (the second-order addition
formula); every check used by a workload is shown to accept the program's
output and to reject a deliberately corrupted copy of it.
"""

import math
import os
import sys

import mpmath
import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import oracle  # noqa: E402
from thetalab import cli, serialize  # noqa: E402
from thetalab.bilinear import DirectionJet, hirota_residual  # noqa: E402
from thetalab.divisor import SamplePlan, sample_theta_divisor  # noqa: E402
from thetalab.engine import RiemannMatrix, theta_eval  # noqa: E402
from thetalab.kummer import kummer_map  # noqa: E402
from thetalab.search import SearchProblem, fit  # noqa: E402
from workloads import G2_TAU, box_points, cvec, random_tau  # noqa: E402

G1_TAU = np.array([[0.3 + 1.1j]])


@pytest.fixture(scope="module")
def g3_tau():
    return random_tau(3, np.random.default_rng(7))


@pytest.fixture(scope="module")
def g1_kp():
    problem = SearchProblem(tau=G1_TAU, target="hirota", jet=DirectionJet(U=[1.0]),
                            free_vars=("V", "W", "d"), sample_count=80, seed=42,
                            restarts=1, iterations=150, tolerance=1e-9)
    result = fit(problem)
    assert result.converged
    return result.best_jet


@pytest.fixture(scope="module")
def g1_one_point():
    problem = SearchProblem(tau=G1_TAU, target="one_point", jet=DirectionJet(U=[1.0]),
                            free_vars=("V", "a", "c"), sample_count=60, seed=3,
                            restarts=2, iterations=100, tolerance=1e-9)
    result = fit(problem)
    assert result.converged
    return result


@pytest.mark.parametrize("g", [1, 2, 3])
def test_numpy_sum_agrees_with_mpmath(g, g3_tau):
    tau = {1: G1_TAU, 2: G2_TAU, 3: g3_tau}[g]
    rng = np.random.default_rng(10 + g)
    for z in box_points(tau, rng, 2):
        h1, h2 = cvec(rng, g), cvec(rng, g)
        reqs = [(), (h1,), (h1, h2), (h1, h1, h2, h2)]
        vals, norms, scale = oracle.theta_jet(z, tau, reqs)
        truth = oracle.theta_mp(z, tau, reqs)
        for got, norm, ref in zip(vals, norms, truth):
            err = abs(complex(ref) * math.exp(-scale) - got)
            assert err <= 1e-14 * norm


def test_mpmath_sum_at_50_digits_matches_jacobi_product():
    # theta(0, i) = pi^(1/4) / Gamma(3/4), a classical closed form
    with mpmath.workdps(60):
        ref = mpmath.pi ** 0.25 / mpmath.gamma(0.75)
        (got,) = oracle.theta_mp([0.0], np.array([[1j]]), [()])
        assert abs(got - ref) < mpmath.mpf(10) ** -45


@pytest.mark.parametrize("tau", [G1_TAU, G2_TAU])
def test_kummer_oracle_satisfies_the_addition_formula(tau):
    # theta(z, tau)^2 = sum_sigma K_sigma(z) K_sigma(0)
    rng = np.random.default_rng(3)
    g = tau.shape[0]
    for z in box_points(tau, rng, 3):
        (t,), _, s = oracle.theta_jet(z, tau, [()])
        k_z, sz = oracle.kummer_coords(z, tau)
        k_0, s0 = oracle.kummer_coords(np.zeros(g), tau)
        lhs = t * t
        rhs = complex(np.sum(k_z[0] * k_0[0])) * math.exp(sz + s0 - 2 * s)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_verdicts_collect_every_failure():
    v = checks.Verdicts()
    v.require("a", True, 1.0)
    v.require("b", False, 2.0)
    v.require("c", False, 3.0)
    assert not v.ok and len(v.failures) == 2 and v.figures["a"] == 1.0


# --- each check accepts the program's output and rejects a corrupted copy ---

def test_one_point_identity_rejects_a_perturbed_jet(g1_one_point):
    # g2-jacobian-chain: the fitted (a, U, V, c) at fresh points
    res, jet = g1_one_point, g1_one_point.best_jet
    fresh = box_points(G1_TAU, np.random.default_rng(1), 5)
    assert checks.one_point_identity(G1_TAU, jet.U, jet.V, jet.c, res.a, fresh) <= 1e-7
    bad_v = jet.V * (1 + 1e-4)
    assert checks.one_point_identity(G1_TAU, jet.U, bad_v, jet.c, res.a, fresh) > 1e-7
    assert checks.one_point_identity(G1_TAU, jet.U, jet.V, jet.c, res.a + 1e-4, fresh) > 1e-7


def test_hirota_identity_rejects_a_perturbed_jet(g1_kp):
    # g2-jacobian-chain: the CLI's fitted four-term jet at fresh points
    jet = g1_kp
    fresh = box_points(G1_TAU, np.random.default_rng(2), 5)
    assert max(checks.hirota_identity(G1_TAU, jet.U, jet.V, jet.W, jet.d, fresh)) <= 1e-7
    assert max(checks.hirota_identity(G1_TAU, jet.U, jet.V, jet.W, jet.d * 1.001, fresh)) > 1e-7


def test_oracle_residual_matches_program_and_catches_a_misreported_one():
    # g4-search-control: oracle residual vs hirota_residual, far from zero
    rng = np.random.default_rng(4)
    tau = random_tau(4, rng)
    jet = DirectionJet(U=cvec(rng, 4), V=cvec(rng, 4), W=cvec(rng, 4), d=0.3 + 0.2j)
    fresh = box_points(tau, rng, 2)
    ref = checks.hirota_identity(tau, jet.U, jet.V, jet.W, jet.d, fresh)
    got = [hirota_residual(z, RiemannMatrix(tau), jet) for z in fresh]
    assert max(ref) >= 1e-5
    assert max(abs(x - y) for x, y in zip(ref, got)) <= 1e-8
    corrupted = [r * (1 + 1e-6) for r in got]
    assert max(abs(x - y) for x, y in zip(ref, corrupted)) > 1e-8


def test_divisor_magnitudes_reject_a_moved_point():
    # g2-jacobian-chain: sampled theta-divisor points
    points = [p.z.z for p in sample_theta_divisor(G2_TAU, None, SamplePlan(count=3, seed=5))]
    assert checks.divisor_magnitudes(G2_TAU, points) <= 1e-10
    moved = [points[0] + 1e-7] + points[1:]
    assert checks.divisor_magnitudes(G2_TAU, moved) > 1e-10


def test_kummer_agreement_rejects_a_perturbed_coordinate():
    # pointwise-sweeps: program Kummer coordinates at half-points
    rng = np.random.default_rng(6)
    tau = random_tau(3, rng)
    b = box_points(tau, rng, 1)[0]
    coords = kummer_map(b, tau).coords
    assert checks.kummer_agreement(tau, b, coords) <= 1e-10
    bad = coords.copy()
    bad[3] *= 1 + 1e-8
    assert checks.kummer_agreement(tau, b, bad) > 1e-10


def test_theta_vs_mp_rejects_a_value_outside_its_bound(g3_tau):
    # pointwise-sweeps: theta values at sweep points within error_bound
    rng = np.random.default_rng(8)
    z = box_points(g3_tau, rng, 1)[0]
    requests = [(cvec(rng, 3),) * 2]
    jet = theta_eval(z, RiemannMatrix(g3_tau), requests)
    assert checks.theta_vs_mp(z, g3_tau, requests, jet) <= 1.0
    jet.value += 3.0 * jet.error_bound
    assert checks.theta_vs_mp(z, g3_tau, requests, jet) > 1.0


def test_residual_range():
    # pointwise-sweeps: every residual is a number in [0, 1]
    assert checks.residual_range([0.0, 0.5, 1.0])
    assert not checks.residual_range([0.2, 1.2])
    assert not checks.residual_range([0.2, float("nan")])


def test_pde_residual_rejects_a_perturbed_grid_value(g1_kp, tmp_path):
    # pointwise-sweeps: the CLI u-grid solves the dispersive equation
    tau_path, jet_path, grid_path = (str(tmp_path / n) for n in ("t.json", "j.json", "g.csv"))
    with open(tau_path, "w") as fh:
        fh.write('{"tau": [[[0.3, 1.1]]]}')
    with open(jet_path, "w") as fh:
        fh.write(serialize.dump_json(serialize.jet_to_dict(g1_kp)))
    shape = (10, 8, 7)
    code = cli.main(["grid", "--tau", tau_path, "--jet", jet_path, "--shape", "10,8,7",
                     "--step", "0.01,0.01,0.01", "--standard-time", "--balance",
                     "--out", grid_path])
    assert code == 0
    u = checks.read_grid(grid_path, shape)
    assert checks.pde_residual(u, 0.01) <= 1e-4
    u[5, 4, 3] *= 1 + 1e-3
    assert checks.pde_residual(u, 0.01) > 1e-4
