"""The forms' symmetries: the Galilean rule and the balanced hierarchy fold.

The KP form, the on-divisor identity, the Weil relations and the flex
property are unchanged by (V, W) -> (V + nu U, W + 2 nu V + nu^2 U).  Every
verdict they give reads the representative with V orthogonal to U, so it
must not move with nu.  The hierarchy form is folded in the gauge
lam = sqrt(eps), so its lattices must not grow as eps -> 0.
"""

import numpy as np
import pytest

from thetalab import engine
from thetalab.bilinear import DirectionJet, _galilean, hierarchy_scan, sweep_residual
from thetalab.divisor import SamplePlan, sample_D1_theta, sample_theta_divisor, weil_check
from thetalab.engine import RiemannMatrix, box_points
from thetalab.kummer import flex_scan, flex_test
from thetalab.search import SearchProblem, _HirotaModel, fit

from conftest import random_tau

NUS = (3.0, -7.5 + 2j, 30.0, 300.0)
TOL = 1e-9


def _cvec(rng, g):
    return rng.standard_normal(g) + 1j * rng.standard_normal(g)


def _moved(U, V, W, nu):
    return V + nu * U, None if W is None else W + 2.0 * nu * V + nu * nu * U


def _gap(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


@pytest.fixture(scope="module")
def g2_jet(rm_g2):
    rng = np.random.default_rng(510)
    return DirectionJet(U=_cvec(rng, 2), V=_cvec(rng, 2), W=_cvec(rng, 2), d=0.4 - 0.7j)


def _moved_jet(jet, nu):
    V, W = _moved(jet.U, jet.V, jet.W, nu)
    return DirectionJet(U=jet.U, V=V, W=W, d=jet.d)


def test_galilean_representative_is_orthogonal_and_fixes_zero_u():
    rng = np.random.default_rng(500)
    U, V, W = (_cvec(rng, 3) for _ in range(3))
    V0, W0 = _galilean(U, V, W)
    assert abs(np.vdot(U, V0)) <= 1e-14 * np.linalg.norm(U) * np.linalg.norm(V)
    for nu in NUS:  # every point of the orbit has the same representative
        V1, W1 = _galilean(U, *_moved(U, V, W, nu))
        assert _gap(V1, V0) <= 1e-12 * abs(nu) and _gap(W1, W0) <= 1e-12 * abs(nu) ** 2
    zero = np.zeros(3, dtype=complex)
    V1, W1 = _galilean(zero, V, W)
    assert np.array_equal(V1, V) and np.array_equal(W1, W)
    assert _galilean(U, V)[1] is None


def test_kp_sweep_is_galilean_invariant(rm_g2, g2_jet):
    pts = list(box_points(rm_g2, np.random.default_rng(511), 6))
    base = sweep_residual("kp", rm_g2, g2_jet, pts, 1e-6).residuals
    assert min(base) >= 1e-3  # a generic jet, far from the tolerance
    for nu in NUS:
        moved = sweep_residual("kp", rm_g2, _moved_jet(g2_jet, nu), pts, 1e-6).residuals
        assert _gap(moved, base) <= TOL, nu


def test_longeq_sweep_is_galilean_invariant(rm_g2, g2_jet):
    pts = [p.z for p in sample_theta_divisor(rm_g2, None, SamplePlan(count=4, seed=512))]
    base = sweep_residual("longeq", rm_g2, g2_jet, pts, 1e-6).residuals
    assert len(base) == 4 and min(base) >= 1e-3
    for nu in NUS:
        moved = sweep_residual("longeq", rm_g2, _moved_jet(g2_jet, nu), pts, 1e-6).residuals
        assert _gap(moved, base) <= TOL, nu


@pytest.mark.parametrize("which", ["weil", "weil2"])
def test_weil_relations_are_galilean_invariant(rm_g2, g2_jet, which):
    points = sample_D1_theta(rm_g2, g2_jet, SamplePlan(count=2, seed=0, starts=250))
    a = np.array([0.27 - 0.11j, -0.13 + 0.21j])
    base = weil_check(points, rm_g2, g2_jet, a=a, which=which).residuals
    assert len(base) == 2 and min(base) >= 1e-3
    for nu in NUS:
        moved = weil_check(points, rm_g2, _moved_jet(g2_jet, nu), a=a, which=which).residuals
        assert _gap(moved, base) <= TOL, (which, nu)


@pytest.fixture(scope="module")
def g3_germ():
    rm = RiemannMatrix(random_tau(3, seed=513))
    rng = np.random.default_rng(513)
    return rm, box_points(rm, rng, 1)[0], _cvec(rng, 3), _cvec(rng, 3), _cvec(rng, 3)


@pytest.mark.parametrize("order", [2, 3])
def test_flex_test_is_galilean_invariant(g3_germ, order):
    rm, b, U, V, W = g3_germ
    base = flex_test(b, U, V, rm, order=order, W=W)
    assert not base.passed and base.rank_ratio >= 1e-3
    for nu in NUS:
        V1, W1 = _moved(U, V, W, nu)
        moved = flex_test(b, U, V1, rm, order=order, W=W1)
        assert _gap(moved.sigma_ratios, base.sigma_ratios) <= TOL, (order, nu)
        assert moved.passed == base.passed


def test_flex_scan_is_galilean_invariant(g3_germ):
    rm, b, U, V, _ = g3_germ
    base = flex_scan(2.0 * b, U, V, rm)
    for nu in NUS:
        moved = flex_scan(2.0 * b, U, V + nu * U, rm)
        assert _gap([h.sigma_ratios for h in moved.tested_halves],
                    [h.sigma_ratios for h in base.tested_halves]) <= TOL, nu
        assert [h.passed for h in moved.tested_halves] == [h.passed for h in base.tested_halves]


def test_kp_search_moves_only_a_free_v_and_w(rm_g2, g2_jet):
    # the search's representative is the same move, and it leaves a held field alone
    model = _HirotaModel(rm_g2, box_points(rm_g2, np.random.default_rng(515), 2))
    p = {"U": g2_jet.U, "V": g2_jet.V, "W": g2_jet.W, "d": g2_jet.d}
    V0, W0 = _galilean(g2_jet.U, g2_jet.V, g2_jet.W)
    out = model.canonical(p, ("V", "W", "d"))
    assert np.array_equal(out["V"], V0) and np.array_equal(out["W"], W0)
    assert np.array_equal(model.canonical({k: p[k] for k in "UVd"}, ("V", "W"))["V"], V0)
    assert model.canonical(p, ("W", "d")) is p


def test_kp_fit_with_v_held_keeps_v_as_given(rm_g1):
    V = np.array([0.37 - 0.21j])
    problem = SearchProblem(tau=rm_g1, target="hirota", jet=DirectionJet(U=[1.0], V=V),
                            free_vars=("W", "d"), sample_count=40, seed=3, restarts=1,
                            iterations=20)
    result = fit(problem)
    assert np.array_equal(result.best_jet.V, V)  # V = 0 would be the representative


def test_hierarchy_lattice_does_not_grow_as_epsilon_shrinks(monkeypatch):
    rm = RiemannMatrix(random_tau(3, seed=514))
    rng = np.random.default_rng(514)
    jet = DirectionJet(U=_cvec(rng, 3), V=_cvec(rng, 3), zeta_coeffs=[_cvec(rng, 3)],
                       d_coeffs=[0.2 + 0.1j])
    sizes = []
    evaluator_for = engine._evaluator_for

    def recording(*args, **kwargs):
        ev = evaluator_for(*args, **kwargs)
        sizes.append(len(ev.lattice))
        return ev

    monkeypatch.setattr(engine, "_evaluator_for", recording)
    hierarchy_scan(rm, jet, [1e-1, 1e-3], list(box_points(rm, rng, 4)))
    assert len(sizes) == 2 and sizes[1] <= sizes[0], sizes
