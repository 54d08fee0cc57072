import time

import numpy as np
import pytest

from thetalab.bilinear import (
    DirectionJet,
    _Dual,
    _hirota_terms,
    _one_point_terms,
    gauge_rescale,
    hierarchy_scan,
    hirota_residual,
    p_residual,
)
from thetalab.engine import (
    BatchThetaEvaluator,
    BoundBatch,
    RiemannMatrix,
    box_points,
    canonical_request,
    reduce_point,
    theta_eval,
)
from thetalab.errors import DegenerateJetError, InvalidInputError
from thetalab import search, serialize
from thetalab.search import (
    EPSILON_GRID,
    SearchProblem,
    SearchResult,
    _BasisJets,
    _Contractions,
    _HierarchyModel,
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
        p = dict(U=U, V=V, W=W, d=d)
        mine = np.abs(model.ratios(model.sources(p), p))
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
        p = dict(U=U, V=V, c=c, a=a)
        mine = np.abs(model.ratios(model.sources(p), p))
        ref = np.array([p_residual(z, rm_g2, jet, a) for z in pts])
        assert np.abs(mine - ref).max() <= 1e-12

    def test_matches_evaluator_jets_g3(self):
        # non-unit complex directions at genus 3, orders 1 to 4, mixed keys
        # included; the memoizing source must give the same numbers on a
        # second pass, when every prefix comes from its memory
        rm = RiemannMatrix(random_tau(3, seed=33))
        rng = np.random.default_rng(12)
        pts = box_points(rm, rng, 6)
        U, V, W = (rng.uniform(0.6, 1.4) * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
                   for _ in range(3))
        norm = max(np.linalg.norm(h) for h in (U, V, W))
        ev = BatchThetaEvaluator(rm, max_order=4, max_direction_norm=norm)
        basis = _BasisJets(ev, pts, orders=(1, 2, 3, 4))
        requests = [(U,), (W,), (U, U), (V, W), (U, U, V), (V, U, W), (U, U, U),
                    (U, U, U, U), (U, U, V, W)]
        direct = ev.jets(pts, [canonical_request(r) for r in requests])
        D = _Contractions(basis)
        for _ in range(2):
            for r in requests:
                ref = direct[canonical_request(r)]
                bound = 1e-12 * max(1.0, np.abs(ref).max())
                assert np.abs(basis.deriv(*r) - ref).max() <= bound, len(r)
                assert np.abs(D(*r) - ref).max() <= bound, len(r)

    def test_source_follows_a_direction_changed_in_place(self, rm_g2):
        model = _HirotaModel(rm_g2, box_points(rm_g2, np.random.default_rng(11), 5))
        U = np.array([0.9 + 0.1j, -0.2 + 0.3j])
        (first,) = model.sources({})
        before = first(U, U)
        U[:] = [0.3 - 0.5j, 0.7 + 0.2j]
        (second,) = model.sources({})
        want = model.basis.deriv(U.copy(), U.copy())
        assert np.abs(want - before).max() > 1e-3
        for D in (second, first):
            assert np.array_equal(D(U, U), want)

    def test_one_point_model_keeps_the_last_shift(self, rm_g2):
        # the cache is keyed on the whole stack of shifts: one shift for the
        # one-point search, the epsilon grid's for the hierarchy fit
        model = _OnePointModel(rm_g2, box_points(rm_g2, np.random.default_rng(10), 4))
        a = np.array([0.21 - 0.34j, -0.17 + 0.25j])
        for stack in ([a], [a, a + 0.2, a - 0.3j]):
            first = model.basis_at(stack)
            assert len(first) == len(stack)
            assert model.basis_at([s.copy() for s in stack]) is first
            other = model.basis_at([s + 0.1 for s in stack])
            assert other is not first
            again = model.basis_at(stack)
            assert again is not first
            for b, want in zip(again, first):
                assert np.array_equal(b.value, want.value)
                assert np.array_equal(b.tensor[2], want.tensor[2])
        # a stack that differs in one shift only is a miss
        grid = model.basis_at([a, a + 0.2])
        assert model.basis_at([a, a + 0.25]) is not grid


class TestSharedSolve:
    """The one IRLS solve recovers every subset of a form's linear fields."""

    @staticmethod
    def check(model, p, subsets):
        sources = model.sources(p)
        for free in subsets:
            solved = model.solve_linear(
                sources, {n: v for n, v in p.items() if n not in free}, free)
            assert np.abs(model.ratios(sources, solved)).max() <= 1e-9, free
            for name in free:
                want = np.asarray(p[name])
                assert np.abs(solved[name] - want).max() <= 1e-8 * max(1.0, np.abs(want).max())

    def test_kp_fields(self, g1_fit, rm_g1):
        jet = g1_fit.best_jet
        model = _HirotaModel(rm_g1, box_points(rm_g1, np.random.default_rng(7), 40))
        self.check(model, dict(U=jet.U, V=jet.V, W=jet.W, d=jet.d),
                   [("W",), ("d",), ("W", "d")])

    def test_one_point_fields(self, g2_one_point_fit, rm_g2):
        jet = g2_one_point_fit.best_jet
        model = _OnePointModel(rm_g2, box_points(rm_g2, np.random.default_rng(7), 40))
        self.check(model, dict(U=jet.U, V=jet.V, c=jet.c, a=g2_one_point_fit.a),
                   [("V",), ("c",), ("V", "c")])


def lm_runs(problem, monkeypatch):
    """Run the search; return the residual vector, its start and its Jacobian per LM run."""
    seen, solver = [], search._levenberg_marquardt

    def capture(resvec, jac, x, max_nfev):
        seen.append((resvec, np.array(x), jac))
        return solver(resvec, jac, x, max_nfev)

    monkeypatch.setattr(search, "_levenberg_marquardt", capture)
    fit(problem)
    return seen


def central_differences(fun, x, step=1e-6):
    columns = []
    for k in range(len(x)):
        h = step * max(1.0, abs(x[k]))
        up, down = x.copy(), x.copy()
        up[k] += h
        down[k] -= h
        columns.append((fun(up) - fun(down)) / (2.0 * h))
    return np.column_stack(columns)


class TestExactJacobian:
    """The search's Jacobian is the derivative of its residual vector, at every target."""

    G2_U = np.array([1.0 + 0.0j, 0.3 - 0.2j])

    @pytest.mark.parametrize("problem, n_real", [
        # V, W and d free: the Jacobian goes through the Galilean representative
        (dict(tau=GENERIC_G2_TAU, target="hirota", jet=DirectionJet(U=G2_U),
              free_vars=("V", "W", "d"), sample_count=140, seed=11), 2 + 10),
        # V held: W and d are read as given
        (dict(tau=GENERIC_G2_TAU, target="hirota",
              jet=DirectionJet(U=G2_U, V=np.array([0.4 - 0.6j, 0.1 + 0.2j])),
              free_vars=("W", "d"), sample_count=80, seed=11), 2 + 6),
        # a fixed shift, with c held at 0: its monomial is exactly 0, where |t| has a kink
        (dict(tau=GENERIC_G2_TAU, target="one_point", jet=DirectionJet(U=G2_U),
              a=np.array([0.21 - 0.34j, -0.17 + 0.25j]), free_vars=("V",),
              sample_count=60, seed=5), 2 + 4),
        # a free shift: the shifted side one order up
        (dict(tau=GENERIC_G2_TAU, target="one_point", jet=DirectionJet(U=G2_U),
              free_vars=("V", "a", "c"), sample_count=120, seed=5), 2 + 10),
        # genus 1: U has no columns
        (dict(tau=TAU1, target="hirota", jet=DirectionJet(U=np.array([0.5j])),
              free_vars=("V", "W", "d"), sample_count=80, seed=42), 6),
    ], ids=["kp-galilean", "kp-v-held", "one-point-fixed-shift", "one-point-free-shift",
            "kp-genus-1"])
    def test_matches_central_differences(self, monkeypatch, problem, n_real):
        (fun, x0, jac), = lm_runs(SearchProblem(**problem, restarts=1, iterations=8),
                                   monkeypatch)
        rng = np.random.default_rng(4)
        for x in (x0, x0 + 0.05 * rng.standard_normal(len(x0))):
            want = central_differences(fun, x)
            got = jac(x)
            assert got.shape == want.shape == (2 * problem["sample_count"], n_real)
            assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    @pytest.mark.parametrize("order", [2, 3])
    def test_hierarchy_matches_central_differences(self, monkeypatch, g1_fit, order):
        # the zeta columns move the grid's shifts, the d columns its constants;
        # the rows weighted by up to 1e-3^-(order+1) want a wider difference step
        (fun, x0, jac), = lm_runs(SearchProblem(
            tau=TAU1, target="hierarchy", jet=g1_fit.best_jet, free_vars=(), sample_count=80,
            seed=7, restarts=1, iterations=4, jet_order=order), monkeypatch)
        rng = np.random.default_rng(5)
        for x in (x0, x0 + 0.05 * rng.standard_normal(len(x0))):
            want = central_differences(fun, x, step=1e-4)
            assert jac(x).shape == (2 * 80 * len(EPSILON_GRID), 4 * (order - 1))
            assert np.abs(jac(x) - want).max() <= 1e-6 * np.abs(want).max()

    def test_irls_columns_are_the_affine_blocks_differences(self, rm_g2):
        # the IRLS columns are the tangents of the stack on dual fields; they are the
        # differences terms(e_j) - terms(0) of the stack, which is affine in the
        # linear fields, and 0 in the rows free of them: all but the last three of
        # the KP and one-point stacks, all but each grid block's c.theta.theta_a row
        # (the last row of the joined stack) for the hierarchy germ's d-coefficients
        U, V = np.array([0.9 + 0.1j, -0.2 + 0.3j]), np.array([0.4 - 0.6j, 0.1 + 0.2j])
        W, a = np.array([-0.7 + 0.2j, 0.5 - 0.1j]), np.array([0.21 - 0.34j, -0.17 + 0.25j])
        pts = box_points(rm_g2, np.random.default_rng(13), 7)
        germ = dict(zeta2=-V, zeta3=0.3 * W, d3=0.2 - 0.1j, d4=-0.4 + 0.3j)
        cases = [
            (_HirotaModel(rm_g2, pts), dict(U=U, V=V, W=W, d=0.3 - 0.8j), ("W", "d"), 3),
            (_OnePointModel(rm_g2, pts), dict(U=U, V=V, c=0.4 + 0.2j, a=a), ("V", "c"), 3),
            (_HierarchyModel(rm_g2, pts, U, V, 3), germ, ("d3", "d4"), 1),
        ]
        for model, p, free, rows in cases:
            sources = model.sources(p)
            sizes = [search._field_size(n, 2) for n in free]
            zero = {**p, **{n: 0j if size == 1 else np.zeros(2, dtype=complex)
                            for n, size in zip(free, sizes)}}
            dx = search._tangents(free, 2, (1.0,))
            stack = model.terms(sources, {**zero, **{n: _Dual(zero[n], dx[n]) for n in free}})
            columns = np.moveaxis(stack.tangent, 0, -1)

            def at(e):
                """The fields with the free ones set from the complex vector e, in order."""
                ends = np.cumsum(sizes)
                return {**zero, **{n: e[end - 1] if size == 1 else e[end - size:end]
                                   for n, size, end in zip(free, sizes, ends)}}

            want = np.stack([model.terms(sources, at(e)) - model.terms(sources, zero)
                             for e in np.eye(sum(sizes), dtype=complex)], axis=-1)
            assert columns.shape == want.shape
            assert not columns[:-rows].any() and not want[:-rows].any()
            assert np.abs(columns - want).max() <= 1e-13 * np.abs(want).max()


class TestForwardMode:
    """A term stack on ``_Dual`` fields, with a moving shifted source, is the
    plain stack with its derivatives beside it."""

    @staticmethod
    def stack(rm, pts, p, dx=None):
        """The KP stack (no ``a`` in p) or the one-point stack at p on basis sources;
        with tangents dx {name: (n, size)}, on ``_Dual`` fields and a moving shift."""
        q = dict(p)
        for name, t in (dx or {}).items():
            if name != "a":
                q[name] = _Dual(p[name], t)
        if "a" not in p:
            D = _BasisJets(search._basis_evaluator(rm, (1, 2, 3, 4)), pts, (1, 2, 3, 4)).deriv
            return _hirota_terms(D, q["U"], q["V"], q["W"], q["d"])
        Dz = _Contractions(_BasisJets(search._basis_evaluator(rm, (1, 2)), pts, (1, 2)))
        Da = _Contractions(_BasisJets(search._basis_evaluator(rm, (1, 2, 3)), pts + p["a"],
                                      (1, 2, 3)))
        return _one_point_terms(Dz, Da if dx is None else Da.moving(dx["a"]),
                                q["U"], q["V"], q["c"])

    @pytest.mark.parametrize("names", [("U", "V", "W", "d"), ("U", "V", "c", "a")],
                             ids=["kp", "one-point"])
    def test_values_are_the_plain_stack_and_tangents_its_central_differences(self, rm_g2,
                                                                           names):
        rng = np.random.default_rng(23)
        pts = box_points(rm_g2, rng, 6)
        p = {name: complex(*rng.standard_normal(2)) if name in ("c", "d")
             else 0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)) for name in names}
        dx = search._tangents(names, 2)
        dual = self.stack(rm_g2, pts, p, dx)
        assert np.array_equal(dual.value, self.stack(rm_g2, pts, p))
        step = 1e-5

        def moved(k, sign):
            return {name: p[name] + sign * step * (dx[name][k, 0] if name in ("c", "d")
                                                   else dx[name][k]) for name in names}

        def at_fixed_scale(q):
            """The stack at q; a moved shift's on the stored scale of z + a at p (a real
            factor per point), which the tangent along a holds fixed."""
            terms = self.stack(rm_g2, pts, q)
            if "a" not in q:
                return terms
            ev = search._basis_evaluator(rm_g2, (1, 2, 3))
            moved_scale, scale = (ev.jets(pts + b, [])["scales"] for b in (q["a"], p["a"]))
            return terms * np.exp(moved_scale - scale)

        want = np.stack([(at_fixed_scale(moved(k, 1.0)) - at_fixed_scale(moved(k, -1.0)))
                         / (2.0 * step) for k in range(len(dx[names[0]]))])
        assert dual.tangent.shape == want.shape == (14, len(dual.value), 6)
        assert np.abs(dual.tangent - want).max() <= 1e-7 * np.abs(want).max()


class TestEvaluations:
    """``evaluations`` counts every call of the residual vector and of its Jacobian."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts, solver = [], search._levenberg_marquardt

        def counting(resvec, jac, x, max_nfev):
            k = len(counts)
            counts.append(0)

            def counted(f):
                def call(x):
                    counts[k] += 1
                    return f(x)
                return call

            return solver(counted(resvec), counted(jac), x, max_nfev)

        monkeypatch.setattr(search, "_levenberg_marquardt", counting)
        return counts

    def test_fit_counts_residual_and_jacobian_calls(self, calls):
        res = fit(g1_problem(restarts=2, iterations=60))
        # each restart makes one Levenberg-Marquardt run
        assert len(calls) == 2
        assert res.evaluations == calls

    def test_fit_hierarchy_counts_jacobian_calls(self, calls, g1_fit):
        res = fit_hierarchy(SearchProblem(
            tau=TAU1, target="hierarchy", jet=g1_fit.best_jet, free_vars=(),
            sample_count=60, seed=7, restarts=2, iterations=40, tolerance=1e-6,
            jet_order=2))
        assert len(calls) == 2
        assert res.evaluations == calls


def rosenbrock(x):
    return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])


def rosenbrock_jacobian(x):
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


class TestLevenbergMarquardt:
    """The one minimizer of both searches, on problems with known answers."""

    def run(self, resvec, jac, x0, max_nfev):
        """The LM result, with every residual-vector and Jacobian call recorded."""
        log = []

        def logged(kind, f):
            def call(x):
                log.append((kind, np.array(x)))
                return f(x)
            return call

        x, r = search._levenberg_marquardt(logged("r", resvec), logged("J", jac),
                                           np.asarray(x0, dtype=float), max_nfev)
        return x, r, log

    def test_rosenbrock(self):
        x, r, log = self.run(rosenbrock, rosenbrock_jacobian, [-1.2, 1.0], 200)
        assert np.abs(x - 1.0).max() <= 1e-12
        assert np.array_equal(r, rosenbrock(x))
        assert sum(kind == "r" for kind, _ in log) < 200

    def test_budget_counts_residual_vectors(self):
        for budget in (1, 2, 5):
            _, _, log = self.run(rosenbrock, rosenbrock_jacobian, [-1.2, 1.0], budget)
            assert sum(kind == "r" for kind, _ in log) == budget

    def test_jacobian_only_where_the_last_residual_vector_was_read(self):
        # the searches' candidate caches rely on it
        _, _, log = self.run(rosenbrock, rosenbrock_jacobian, [-1.2, 1.0], 200)
        for (kind, x), (before, at) in zip(log[1:], log):
            if kind == "J":
                assert before == "r" and np.array_equal(x, at)

    def test_stops_at_a_zero_residual(self):
        x, r, log = self.run(rosenbrock, rosenbrock_jacobian, [1.0, 1.0], 200)
        assert np.array_equal(x, [1.0, 1.0]) and not r.any() and len(log) == 1

    def test_nonzero_minimum_stops_on_its_reductions(self):
        # a line fit with a residual left over: the relative reductions
        # vanish at the least-squares solution, long before the budget
        t = np.linspace(0.0, 1.0, 7)
        y = 2.0 * t + 1.0 + 0.1 * np.cos(9.0 * t)
        design = np.column_stack([t, np.ones_like(t)])
        x, r, log = self.run(lambda x: design @ x - y, lambda x: design, [0.0, 0.0], 400)
        least = design @ np.linalg.lstsq(design, y, rcond=None)[0] - y
        assert r @ r <= (1.0 + search.LM_REDUCTION) * (least @ least)
        assert sum(kind == "r" for kind, _ in log) < 40


class TestFitHirota:
    def test_g1_converges(self, g1_fit):
        assert g1_fit.converged
        assert g1_fit.best_residual <= 1e-9
        # U was pinned to the gauge point (1) for genus 1
        assert np.array_equal(g1_fit.best_jet.U, U1)

    def test_g1_keeps_u_as_given(self):
        # at genus 1 U's slice is a point: a U that is not a unit vector stays as it is
        U = np.array([0.5j])
        res = fit(g1_problem(jet=DirectionJet(U=U), restarts=2))
        assert np.array_equal(res.best_jet.U, U) and not res.best_jet.normalized
        assert res.converged

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


def galilean_move(p, nu):
    """(V, W) -> (V + nu U, W + 2 nu V + nu^2 U), which leaves the KP form as it is."""
    U, V = p["U"], p["V"]
    return {**p, "V": V + nu * U, "W": p["W"] + 2.0 * nu * V + nu * nu * U}


class TestGalileanOrbit:
    """The KP search reads and reports one point of each Galilean orbit."""

    def test_model_ratios_are_orbit_invariant(self, rm_g2):
        pts = box_points(rm_g2, np.random.default_rng(12), 8)
        model = _HirotaModel(rm_g2, pts)
        p = dict(U=np.array([0.9 + 0.1j, -0.2 + 0.3j]), V=np.array([0.4 - 0.6j, 0.1 + 0.2j]),
                 W=np.array([-0.7 + 0.2j, 0.5 - 0.1j]), d=0.3 - 0.8j)
        moved = galilean_move(p, 50.0)
        free = ("V", "W", "d")

        def ratios(q):
            return model.ratios(model.sources(q), q)

        def canonical_ratios(q):
            return ratios(model.canonical(q, free))

        # the raw monomials are not invariant: far out, the ratios fall
        assert np.abs(ratios(moved)).max() < 0.1 * np.abs(ratios(p)).max()
        assert np.abs(canonical_ratios(moved) - canonical_ratios(p)).max() <= 1e-12

    def test_g2_fit_reports_v_orthogonal_to_u(self, g2_hirota_fit):
        jet = g2_hirota_fit.best_jet
        assert abs(np.vdot(jet.U, jet.V)) <= 1e-12 * np.linalg.norm(jet.V)

    def test_g1_control_fit_reports_v_zero(self):
        # at genus 1, D_V = v D_U: every KP solution lies on the orbit of V = 0
        res = fit(SearchProblem(
            tau=np.array([[0.3 + 1.1j]]), target="hirota", jet=DirectionJet(U=[1.0]),
            free_vars=("V", "W", "d"), sample_count=80, seed=42, restarts=1,
            iterations=150, tolerance=1e-9))
        assert res.converged
        assert np.array_equal(res.best_jet.V, [0.0])


class TestDeterminism:
    def test_repeat_runs_in_one_process_agree(self):
        # criterion 9's problem cut to 2 restarts: the result must not depend
        # on what the heap held before, so unrelated arrays are kept alive
        # between the runs
        problem = SearchProblem(
            tau=random_tau(4, seed=900), target="hirota", jet=DirectionJet(U=np.eye(4)[0]),
            free_vars=("V", "W", "d"), sample_count=240, seed=0, restarts=2, iterations=500,
            tolerance=1e-9)
        rng, clutter, runs = np.random.default_rng(1), [], []
        for size in (0, 1001, 77777):
            clutter.extend([rng.standard_normal(size), np.full(size // 3 + 5, np.nan)])
            res = fit(problem)
            runs.append((res.history, res.evaluations, serialize.jet_to_dict(res.best_jet)))
        assert runs[0] == runs[1] == runs[2]


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


class TestStarts:
    def test_restart_zero_starts_from_the_given_value(self, monkeypatch):
        # a KP fit that frees V starts restart 0 at the jet's V; W is held,
        # so V is not moved to its Galilean representative, and U is fixed
        # at genus 1, so the LM start is V's then d's real and imaginary part
        V0, W0 = np.array([0.4 - 0.3j]), np.array([0.2 + 0.1j])
        runs = lm_runs(g1_problem(jet=DirectionJet(U=U1, V=V0, W=W0), free_vars=("V", "d"),
                                  restarts=2, iterations=20), monkeypatch)
        starts = [x0 for _, x0, _ in runs]
        assert len(starts) == 2
        assert np.array_equal(starts[0][:2], [V0.real[0], V0.imag[0]])
        assert not np.array_equal(starts[1][:2], starts[0][:2])

    def test_one_point_fit_runs_at_c_zero_when_c_is_neither_set_nor_freed(self):
        res = fit(SearchProblem(
            tau=TAU1, target="one_point", jet=DirectionJet(U=U1),
            a=np.array([0.31 + 0.12j]), free_vars=("V",), sample_count=20, seed=3,
            restarts=1, iterations=20))
        assert res.best_jet.c == 0

    def test_starting_u_of_near_zero_norm_is_degenerate(self):
        with pytest.raises(DegenerateJetError, match="near-zero norm"):
            fit(g1_problem(jet=DirectionJet(U=np.array([1e-8 + 0j]))))


class TestProblemValidation:
    def test_unknown_target(self):
        with pytest.raises(InvalidInputError):
            fit(g1_problem(target="trisecant"))

    def test_free_var_not_in_target(self):
        with pytest.raises(InvalidInputError):
            fit(g1_problem(target="one_point", free_vars=("V", "W")))

    @pytest.mark.parametrize("target, free_vars", [
        ("hirota", ("U", "V", "W", "d")), ("one_point", ("U", "V", "c"))])
    def test_u_is_not_a_free_field(self, target, free_vars):
        problem = g1_problem(target=target, free_vars=free_vars, a=np.array([0.3 + 0.1j]),
                             restarts=1, iterations=20)
        with pytest.raises(InvalidInputError, match="always searched on its slice"):
            fit(problem)

    def test_duplicate_free_vars(self):
        with pytest.raises(InvalidInputError):
            fit(g1_problem(free_vars=("V", "V", "d")))

    def test_sample_count_floor(self):
        # (V, W, d) at genus 1 is six real parameters -> at least 60 samples
        with pytest.raises(InvalidInputError):
            fit(g1_problem(sample_count=59))

    @pytest.mark.parametrize("target", ["hirota", "hierarchy"])
    def test_negative_seed(self, target):
        # numpy's SeedSequence refuses it with a bare ValueError
        problem = g1_problem(target=target, seed=-1, jet_order=2,
                             jet=DirectionJet(U=U1, V=np.array([0.4 - 0.3j])))
        if target == "hierarchy":
            problem.free_vars = ()
        with pytest.raises(InvalidInputError, match="seed must be non-negative"):
            fit(problem)

    def test_empty_budget(self):
        with pytest.raises(InvalidInputError):
            fit(g1_problem(restarts=0))

    @pytest.mark.parametrize("budget", [{"restarts": 0}, {"iterations": 0}])
    def test_empty_budget_hierarchy(self, budget):
        problem = g1_problem(target="hierarchy", free_vars=(), jet_order=2,
                             jet=DirectionJet(U=U1, V=np.array([0.4 - 0.3j])), **budget)
        with pytest.raises(InvalidInputError, match="budget must be positive"):
            fit(problem)

    def test_nothing_to_fit(self):
        with pytest.raises(InvalidInputError):
            fit(g1_problem(free_vars=()))

    @pytest.mark.parametrize("target, jet, free_vars", [
        ("hirota", DirectionJet(U=[1.0, 0.0, 0.0]), ("V", "W", "d")),
        ("hirota", DirectionJet(U=[1.0, 0.0, 0.0], V=[0.4, 0.1j, 0.2]), ("W", "d")),
        ("one_point", DirectionJet(U=[1.0, 0.0, 0.0]), ("V", "a", "c")),
        ("hierarchy", DirectionJet(U=[1.0, 0.0, 0.0], V=[0.4, 0.1j, 0.2]), ()),
    ], ids=["kp", "kp-v-held", "one-point", "hierarchy"])
    def test_jet_of_the_wrong_genus(self, target, jet, free_vars):
        problem = SearchProblem(tau=GENERIC_G2_TAU, target=target, jet=jet, free_vars=free_vars,
                                sample_count=200, restarts=1, iterations=2, jet_order=2)
        with pytest.raises(InvalidInputError, match="U must be a complex vector of length 2"):
            fit(problem)

    def test_hierarchy_refuses_free_vars(self):
        # the hierarchy fit frees its germ coefficients, never a jet field
        problem = g1_problem(target="hierarchy", free_vars=("V",), jet_order=2,
                             jet=DirectionJet(U=U1, V=np.array([0.4 - 0.3j])))
        with pytest.raises(InvalidInputError, match="free_vars must be empty"):
            fit_hierarchy(problem)


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

    def test_germ_grid_is_bound_once_per_germ(self, g1_chain, monkeypatch):
        # the IRLS start, the Jacobian at the germ just evaluated and steps
        # that move only the d-coefficients reuse the last germ's grid of
        # shifted bases, bound once at orders 1-3
        stage1, _ = g1_chain
        bound = []
        init = BoundBatch.__init__

        def recording(self, evaluator, points):
            init(self, evaluator, points)
            bound.append(np.array(points, dtype=complex).reshape(-1))

        calls = []
        ratios = _HierarchyModel.ratios

        def counting(self, *args):
            calls.append(1)
            return ratios(self, *args)

        monkeypatch.setattr(BoundBatch, "__init__", recording)
        monkeypatch.setattr(_HierarchyModel, "ratios", counting)
        fit_hierarchy(SearchProblem(
            tau=TAU1, target="hierarchy", jet=stage1.best_jet, free_vars=(),
            sample_count=60, seed=7, restarts=2, iterations=40, tolerance=1e-6,
            jet_order=2))
        z = bound[0]  # the training cloud; the holdout scan binds 2P points per eps
        shifts = [b[0] - z[0] for b in bound[1:] if len(b) == len(z)]
        n = len(EPSILON_GRID)
        assert shifts and len(shifts) % n == 0
        grids = [tuple(shifts[i:i + n]) for i in range(0, len(shifts), n)]
        assert all(a != b for a, b in zip(grids, grids[1:]))
        # without reuse, every residual-vector evaluation and Jacobian (one
        # ratios call each) and every restart's d-solve would bind a grid
        assert len(grids) < len(calls) + 2

    def test_result_type(self, g1_chain):
        _, res = g1_chain
        assert isinstance(res, SearchResult)
        assert res.best_jet.zeta_coeffs is not None
        assert len(res.best_jet.zeta_coeffs) == 3
        assert len(res.best_jet.d_coeffs) == 2
        assert "order 3" in res.note
