import time

import numpy as np
import pytest

from thetalab.bilinear import (
    DirectionJet,
    gauge_rescale,
    hierarchy_scan,
    hirota_residual,
    p_residual,
)
from thetalab.engine import (
    BatchThetaEvaluator,
    RiemannMatrix,
    box_points,
    reduce_point,
    theta_eval,
)
from thetalab.errors import DegenerateJetError, InvalidInputError
from thetalab.search import (
    SearchProblem,
    SearchResult,
    _BasisJets,
    _HirotaModel,
    _OnePointModel,
    fit,
    fit_hierarchy,
)

from conftest import GENERIC_G2_TAU, random_tau

TAU1 = np.array([[1j]])
U1 = np.array([1.0 + 0.0j])


def g1_problem(**kw):
    base = dict(
        tau=TAU1, target="hirota", jet=DirectionJet(U=U1),
        free_vars=("V", "W", "d"), sample_count=80, seed=42,
        restarts=4, iterations=300, tolerance=1e-9)
    base.update(kw)
    return SearchProblem(**base)


@pytest.fixture(scope="module")
def g1_fit():
    return fit(g1_problem())


@pytest.fixture(scope="module")
def g2_hirota_fit():
    return fit(SearchProblem(
        tau=GENERIC_G2_TAU, target="hirota",
        jet=DirectionJet(U=np.array([1.0 + 0.0j, 0.0 + 0.0j])),
        free_vars=("V", "W", "d"), sample_count=140, seed=11,
        restarts=4, iterations=400, tolerance=1e-7))


@pytest.fixture(scope="module")
def g2_one_point_fit():
    return fit(SearchProblem(
        tau=GENERIC_G2_TAU, target="one_point",
        jet=DirectionJet(U=np.array([1.0 + 0.0j, 0.0 + 0.0j])),
        free_vars=("V", "a", "c"), sample_count=120, seed=5,
        restarts=3, iterations=400, tolerance=1e-7))


class TestBasisComposition:
    """The precomputed symmetric tensors must reproduce direct jets."""

    def test_matches_direct_jets(self, rm_g2):
        rng = np.random.default_rng(3)
        pts = box_points(rm_g2, rng, 5)
        ev = BatchThetaEvaluator(rm_g2, max_order=4, max_direction_norm=1.0)
        basis = _BasisJets(ev, pts, orders=(1, 2, 3, 4))
        U = np.array([0.3 - 0.2j, 0.8 + 0.1j])
        V = np.array([-0.5 + 0.4j, 0.2 - 0.7j])
        W = np.array([0.1 + 0.9j, -0.3 - 0.2j])
        for i, z in enumerate(pts):
            j = theta_eval(z, rm_g2, [(U, U, U, U), (U, U, V), (V, W), (U,), (W,)])
            for key, got in [
                ((U, U, U, U), basis.deriv(U, U, U, U)[i]),
                ((U, U, V), basis.deriv(U, U, V)[i]),
                ((V, W), basis.deriv(V, W)[i]),
                ((U,), basis.deriv(U)[i]),
                ((W,), basis.deriv(W)[i]),
            ]:
                ref = j.d(key)
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_hirota_model_matches_reference(self, rm_g2):
        pts = box_points(rm_g2, np.random.default_rng(8), 6)
        model = _HirotaModel(rm_g2, pts)
        U = np.array([0.9 + 0.1j, -0.2 + 0.3j])
        V = np.array([0.4 - 0.6j, 0.1 + 0.2j])
        W = np.array([-0.7 + 0.2j, 0.5 - 0.1j])
        d = 0.3 - 0.8j
        jet = DirectionJet(U=U, V=V, W=W, d=d)
        mine = np.abs(model.ratios(U, V, W, d))
        ref = np.array([hirota_residual(z, rm_g2, jet) for z in pts])
        assert np.abs(mine - ref).max() <= 1e-12

    def test_one_point_model_matches_reference(self, rm_g2):
        pts = box_points(rm_g2, np.random.default_rng(9), 6)
        model = _OnePointModel(rm_g2, pts)
        U = np.array([0.9 + 0.1j, -0.2 + 0.3j])
        V = np.array([0.4 - 0.6j, 0.1 + 0.2j])
        a = np.array([0.21 - 0.34j, -0.17 + 0.25j])
        c = 0.4 + 0.2j
        jet = DirectionJet(U=U, V=V, c=c)
        mine = np.abs(model.ratios(model.basis_at(a), U, V, c))
        ref = np.array([p_residual(z, rm_g2, jet, a) for z in pts])
        assert np.abs(mine - ref).max() <= 1e-12


    def test_one_point_model_keeps_the_last_shift(self, rm_g2):
        model = _OnePointModel(rm_g2, box_points(rm_g2, np.random.default_rng(10), 4))
        a = np.array([0.21 - 0.34j, -0.17 + 0.25j])
        first = model.basis_at(a)
        assert model.basis_at(a.copy()) is first
        other = model.basis_at(a + 0.1)
        assert other is not first
        again = model.basis_at(a)
        assert np.array_equal(again.value, first.value)
        assert np.array_equal(again.tensor[2], first.tensor[2])


class TestFitHirota:
    def test_g1_converges(self, g1_fit):
        assert g1_fit.converged
        assert g1_fit.best_residual <= 1e-9
        # U was pinned to the gauge point (1) for genus 1
        assert np.array_equal(g1_fit.best_jet.U, U1)
        assert g1_fit.gauge_degenerate_restarts == 0

    def test_g1_runtime(self):
        start = time.time()
        res = fit(g1_problem(seed=43, restarts=3))
        assert res.converged
        assert time.time() - start < 60.0

    def test_solution_checks_out_independently(self, g1_fit, rm_g1):
        pts = box_points(rm_g1, np.random.default_rng(99), 20)
        worst = max(hirota_residual(z, rm_g1, g1_fit.best_jet) for z in pts)
        assert worst <= 1e-9

    def test_gauge_rescale_preserves_residual(self, g1_fit, rm_g1):
        pts = box_points(rm_g1, np.random.default_rng(100), 20)
        base = max(hirota_residual(z, rm_g1, g1_fit.best_jet) for z in pts)
        for lam in (1.3 - 0.4j, 0.6 + 1.1j):
            scaled = gauge_rescale(g1_fit.best_jet, lam)
            worst = max(hirota_residual(z, rm_g1, scaled) for z in pts)
            assert abs(worst - base) <= 1e-9

    def test_g2_converges_on_gauge_slice(self, g2_hirota_fit, rm_g2):
        res = g2_hirota_fit
        assert res.converged
        assert res.best_residual <= 1e-7
        U = res.best_jet.U
        assert abs(np.linalg.norm(U) - 1.0) <= 1e-12
        lead = U[np.flatnonzero(np.abs(U) > 1e-12)[0]]
        assert abs(lead.imag) <= 1e-12 and lead.real > 0
        pts = box_points(rm_g2, np.random.default_rng(123), 15)
        worst = max(hirota_residual(z, rm_g2, res.best_jet) for z in pts)
        assert worst <= 1e-7

    def test_history_shape(self, g2_hirota_fit):
        assert len(g2_hirota_fit.history) == 4
        assert len(g2_hirota_fit.evaluations) == 4
        assert all(n > 0 for n in g2_hirota_fit.evaluations)
        assert min(g2_hirota_fit.history) <= g2_hirota_fit.best_residual**2 + 1e-20


class TestFitOnePoint:
    def test_g2_converges(self, g2_one_point_fit, rm_g2):
        res = g2_one_point_fit
        assert res.converged
        assert res.best_residual <= 1e-7
        assert res.a is not None
        assert "irreducib" in res.note
        pts = box_points(rm_g2, np.random.default_rng(31), 15)
        worst = max(p_residual(z, rm_g2, res.best_jet, res.a) for z in pts)
        assert worst <= 1e-7

    def test_shift_is_not_a_lattice_point(self, g2_one_point_fit):
        reduced, _, _ = reduce_point(g2_one_point_fit.a, RiemannMatrix(GENERIC_G2_TAU))
        assert np.abs(reduced.z).max() > 1e-2

    def test_fixed_shift_requires_value(self):
        with pytest.raises(InvalidInputError):
            fit(SearchProblem(
                tau=GENERIC_G2_TAU, target="one_point",
                jet=DirectionJet(U=np.array([1.0 + 0.0j, 0.0 + 0.0j])),
                free_vars=("V", "c"), sample_count=80, seed=0))

    def test_budget_exhausted_is_reported_not_faked(self):
        # a generic genus-4 period matrix is (almost surely) not a Jacobian,
        # so a tiny budget must come back unconverged with the best-so-far
        tau4 = random_tau(4, seed=2026)
        res = fit(SearchProblem(
            tau=tau4, target="one_point",
            jet=DirectionJet(U=np.array([1.0, 0, 0, 0], dtype=complex)),
            a=np.array([0.21, -0.13 + 0.2j, 0.05j, 0.3], dtype=complex),
            free_vars=("V", "c"), sample_count=160, seed=6,
            restarts=2, iterations=40, tolerance=1e-7))
        assert not res.converged
        assert res.best_residual > 1e-3
        assert "within budget" in res.note
        # the holdout score must not be the training optimum
        assert res.best_residual**2 > min(res.history)


class TestProblemValidation:
    def test_unknown_target(self):
        with pytest.raises(InvalidInputError):
            fit(g1_problem(target="trisecant"))

    def test_free_var_not_in_target(self):
        with pytest.raises(InvalidInputError):
            fit(g1_problem(target="one_point", free_vars=("V", "W")))

    def test_duplicate_free_vars(self):
        with pytest.raises(InvalidInputError):
            fit(g1_problem(free_vars=("V", "V", "d")))

    def test_sample_count_floor(self):
        # (V, W, d) at genus 1 is six real parameters -> at least 60 samples
        with pytest.raises(InvalidInputError):
            fit(g1_problem(sample_count=59))

    def test_empty_budget(self):
        with pytest.raises(InvalidInputError):
            fit(g1_problem(restarts=0))

    def test_nothing_to_fit(self):
        with pytest.raises(InvalidInputError):
            fit(g1_problem(free_vars=()))


# ---------------------------------------------------------------------------
# genus-1 germ oracle: for any shift a the matched pair (v(a), c(a)) of the
# one-point form is the solution of a 2x2 linear system (collocation at two
# generic points), and the germ a(eps) follows by Newton inversion of
# v(a) = V + 1/eps.  This gives reference germ coefficients without using
# any of the fitting machinery.
# ---------------------------------------------------------------------------

_Z1 = np.array([0.123 - 0.271j])
_Z2 = np.array([-0.317 + 0.142j])


def matched_pair(rm, a):
    rows, rhs = [], []
    for z in (_Z1, _Z2):
        jz = theta_eval(z, rm, [(U1, U1), (U1,)])
        ja = theta_eval(z + a, rm, [(U1, U1), (U1,)])
        f, fa = jz.d((U1,)) / jz.value, ja.d((U1,)) / ja.value
        s, sa = jz.d((U1, U1)) / jz.value, ja.d((U1, U1)) / ja.value
        rows.append([f - fa, 1.0])
        rhs.append(-(s + sa - 2.0 * f * fa))
    v, c = np.linalg.solve(np.array(rows), np.array(rhs))
    return v, c


def germ_shift(rm, V, eps):
    a = 2.0 * eps
    for _ in range(60):
        v, _ = matched_pair(rm, np.array([a]))
        h = 1e-7 * max(abs(a), 1e-3)
        v2, _ = matched_pair(rm, np.array([a + h]))
        step = (V[0] + 1.0 / eps - v) / ((v2 - v) / h)
        a = a + step
        if abs(step) < 1e-15 * max(1.0, abs(a)):
            break
    return a


@pytest.fixture(scope="module")
def g1_chain(rm_g1):
    stage1 = fit(g1_problem(restarts=2))
    problem = SearchProblem(
        tau=TAU1, target="hierarchy", jet=stage1.best_jet, free_vars=(),
        sample_count=80, seed=7, restarts=2, iterations=400,
        tolerance=1e-6, jet_order=3)
    return stage1, fit_hierarchy(problem)


class TestFitHierarchy:
    def test_matched_pair_solves_one_point_form(self, rm_g1):
        a = np.array([0.21 - 0.13j])
        v, c = matched_pair(rm_g1, a)
        jet = DirectionJet(U=U1, V=np.array([v]), c=c)
        pts = box_points(rm_g1, np.random.default_rng(5), 12)
        assert max(p_residual(z, rm_g1, jet, a) for z in pts) <= 1e-12

    def test_order3_exponent(self, g1_chain, rm_g1):
        _, res = g1_chain
        assert res.scaling_exponent >= 3.5
        hold = box_points(rm_g1, np.random.default_rng(321), 20)
        _, slope = hierarchy_scan(TAU1, res.best_jet, [1e-3, 1e-2], list(hold))
        assert slope >= 3.5

    def test_fitted_germ_matches_collocation_oracle(self, g1_chain, rm_g1):
        stage1, res = g1_chain
        V = stage1.best_jet.V
        fitted_z2 = res.best_jet.zeta_coeffs[1][0]
        assert abs(fitted_z2 - (-V[0])) <= 2e-3
        # oracle d3 from d(eps) = eps * c(a(eps))
        eps_small = np.array([4e-4, 8e-4, 1.6e-3])
        d_over = []
        for eps in eps_small:
            a = germ_shift(rm_g1, V, eps)
            _, c = matched_pair(rm_g1, np.array([a]))
            d_over.append(eps * c / eps**3)
        oracle_d3 = complex(np.mean(d_over))
        assert abs(res.best_jet.d_coeffs[0] - oracle_d3) <= 1.0

    def test_order1_exponent_without_fitting(self, g1_chain):
        stage1, _ = g1_chain
        res = fit_hierarchy(SearchProblem(
            tau=TAU1, target="hierarchy", jet=stage1.best_jet, free_vars=(),
            sample_count=80, seed=7, restarts=2, iterations=100,
            tolerance=1e-6, jet_order=1))
        assert res.scaling_exponent >= 1.5
        assert res.history == []

    def test_zero_germ_rejected(self, g1_chain):
        stage1, _ = g1_chain
        with pytest.raises(DegenerateJetError):
            fit_hierarchy(SearchProblem(
                tau=TAU1, target="hierarchy",
                jet=DirectionJet(U=np.array([0.0j]), V=stage1.best_jet.V),
                free_vars=(), sample_count=80, seed=7, restarts=2,
                iterations=100, tolerance=1e-6, jet_order=2))

    def test_jet_order_bounds(self, g1_chain):
        stage1, _ = g1_chain
        for bad in (0, 5):
            with pytest.raises(InvalidInputError):
                fit_hierarchy(SearchProblem(
                    tau=TAU1, target="hierarchy", jet=stage1.best_jet,
                    free_vars=(), sample_count=80, seed=7, restarts=2,
                    iterations=100, tolerance=1e-6, jet_order=bad))

    def test_hierarchy_sample_floor(self, g1_chain):
        stage1, _ = g1_chain
        # K=3 at genus 1: two zeta vectors and two d scalars = 8 real params
        with pytest.raises(InvalidInputError):
            fit_hierarchy(SearchProblem(
                tau=TAU1, target="hierarchy", jet=stage1.best_jet,
                free_vars=(), sample_count=79, seed=7, restarts=2,
                iterations=100, tolerance=1e-6, jet_order=3))

    def test_result_type(self, g1_chain):
        _, res = g1_chain
        assert isinstance(res, SearchResult)
        assert res.best_jet.zeta_coeffs is not None
        assert len(res.best_jet.zeta_coeffs) == 3
        assert len(res.best_jet.d_coeffs) == 2
        assert "order 3" in res.note
