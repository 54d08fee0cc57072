import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thetalab import divisor, engine
from thetalab.bilinear import DirectionJet, gauge_rescale
from thetalab.divisor import (
    DivisorKind,
    DivisorPoint,
    SamplePlan,
    SamplingNote,
    UnderSampledWarning,
    sample_D1_theta,
    sample_theta_divisor,
    sample_theta_intersection,
    _distinct,
    weil_check,
)
from thetalab.engine import AbelianPoint, RiemannMatrix, reduce_point, theta_eval
from thetalab.errors import InvalidInputError

from conftest import random_tau


U2 = np.array([1.0, 0.31 + 0.18j])
V2 = np.array([0.21 - 0.33j, 0.40 + 0.12j])


@pytest.fixture(scope="module")
def d1_points(rm_g2):
    jet = DirectionJet(U=U2)
    return sample_D1_theta(rm_g2, jet, SamplePlan(count=2, seed=0, starts=250))


@pytest.fixture(scope="module")
def cap_points(rm_g2):
    a = np.array([0.27 - 0.11j, -0.13 + 0.21j])
    return a, sample_theta_intersection(
        rm_g2, None, a, SamplePlan(count=2, seed=2, starts=300))


class TestThetaDivisor:
    def test_g1_classical_zero(self, rm_g1):
        pts = sample_theta_divisor(rm_g1, None, SamplePlan(count=1, seed=3, starts=50))
        assert len(pts) == 1
        p = pts[0]
        assert p.kind == DivisorKind.THETA
        # tau = i: the unique zero sits at (1 + tau)/2 modulo the lattice.
        diff, _, _ = reduce_point(p.z.z - np.array([0.5 + 0.5j]), rm_g1)
        assert np.abs(diff.z).max() <= 1e-8
        assert p.constraints_met == [("theta", pytest.approx(p.constraints_met[0][1]))]
        assert p.constraints_met[0][1] <= 1e-10

    def test_g1_undersampled_warns(self, rm_g1):
        # Only one zero exists modulo the lattice, so asking for ten must
        # come back flagged and partial.
        with pytest.warns(UnderSampledWarning):
            pts = sample_theta_divisor(rm_g1, None, SamplePlan(count=10, seed=3, starts=50))
        assert len(pts) == 1

    def test_g2_fifty_distinct_under_budget(self, rm_g2):
        t0 = time.monotonic()
        pts = sample_theta_divisor(rm_g2, None, SamplePlan(count=50, seed=5, starts=200))
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0
        assert len(pts) == 50
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                diff, _, _ = reduce_point(pts[i].z.z - pts[j].z.z, rm_g2)
                assert np.abs(diff.z).max() > 1e-6

    def test_deterministic_for_fixed_seed(self, rm_g2):
        plan = SamplePlan(count=12, seed=7, starts=60)
        first = sample_theta_divisor(rm_g2, None, plan)
        second = sample_theta_divisor(rm_g2, None, plan)
        assert len(first) == len(second)
        for p, q in zip(first, second):
            assert np.array_equal(p.z.z, q.z.z)

    def test_constraints_reverify_after_reduction(self, rm_g2):
        pts = sample_theta_divisor(rm_g2, None, SamplePlan(count=5, seed=11, starts=40))
        for p in pts:
            jet = theta_eval(p.z.z, rm_g2, ())
            assert abs(jet.value) / jet.abs_sum() <= 1e-10

    def test_newton_quadratic_convergence(self, rm_g2):
        # Re-run Newton by hand from a small perturbation of an accepted
        # root: consecutive step sizes must contract at least quadratically
        # fast (ratio <= 0.5) until the noise floor.
        pts = sample_theta_divisor(rm_g2, None, SamplePlan(count=1, seed=5, starts=20))
        w = np.array([0.3 + 0.1j, -0.2 + 0.25j])
        w = w / np.linalg.norm(w)
        z = pts[0].z.z + 1e-3 * w
        steps = []
        for _ in range(5):
            jet = theta_eval(z, rm_g2, [(w,)])
            step = -jet.value / jet.d((tuple(w),))
            z = z + step * w
            steps.append(abs(step))
        for prev, cur in zip(steps, steps[1:]):
            if prev > 1e-13:
                assert cur <= 0.5 * prev

    def test_plan_validation(self):
        with pytest.raises(InvalidInputError):
            SamplePlan(count=0)
        with pytest.raises(InvalidInputError):
            SamplePlan(count=1, starts=0)
        with pytest.raises(InvalidInputError):
            SamplePlan(count=1, tol=0.0)


class TestD1Locus:
    def test_g1_empty_with_note(self, rm_g1):
        with pytest.warns(SamplingNote):
            pts = sample_D1_theta(rm_g1, DirectionJet(U=np.array([1.0])),
                                  SamplePlan(count=1, seed=0))
        assert pts == []

    def test_g2_locus_found(self, d1_points):
        assert len(d1_points) == 2
        for p in d1_points:
            assert p.kind == DivisorKind.D1_THETA
            ids = [c[0] for c in p.constraints_met]
            assert ids == ["theta", "D1-theta"]
            assert all(mag <= 1e-10 for _, mag in p.constraints_met)

    def test_g2_locus_symmetric(self, rm_g2, d1_points):
        # theta is even, so the locus is symmetric under z -> -z.
        a, b = d1_points
        diff, _, _ = reduce_point(a.z.z + b.z.z, rm_g2)
        assert np.abs(diff.z).max() <= 1e-8

    def test_two_seed_stability(self, rm_g2, d1_points):
        other = sample_D1_theta(rm_g2, DirectionJet(U=U2),
                                SamplePlan(count=2, seed=9, starts=250))
        assert len(other) == 2
        for p in d1_points:
            dmin = min(np.abs(reduce_point(p.z.z - q.z.z, rm_g2)[0].z).max()
                       for q in other)
            assert dmin <= 1e-6

    def test_requires_nonzero_U(self, rm_g2):
        with pytest.raises(InvalidInputError):
            sample_D1_theta(rm_g2, DirectionJet(U=np.zeros(2)), SamplePlan(count=1))
        with pytest.raises(InvalidInputError):
            sample_D1_theta(rm_g2, DirectionJet(U=np.array([1.0])), SamplePlan(count=1))


class TestSliceSamplersGenus3:
    """At g >= 3 each start moves in its own random 2-plane; its Jacobian must use that frame."""

    def test_d1_locus_points_found_and_verified(self):
        rm = RiemannMatrix(random_tau(3, seed=31))
        U = np.array([1.0, 0.2 - 0.3j, -0.4 + 0.1j])
        with pytest.warns(SamplingNote):
            pts = sample_D1_theta(rm, DirectionJet(U=U), SamplePlan(count=10, seed=3))
        assert len(pts) >= 1
        for p in pts:
            jet = theta_eval(p.z.z, rm, [(U,)])
            assert abs(jet.value) / jet.abs_sum() <= 1e-10
            assert abs(jet.d((U,))) / jet.abs_sum((U,)) <= 1e-10

    def test_intersection_points_found_and_verified(self):
        rm = RiemannMatrix(random_tau(3, seed=31))
        a = 0.3 * (1 + 0.2j) * np.ones(3)
        with pytest.warns(SamplingNote):
            pts = sample_theta_intersection(rm, None, a, SamplePlan(count=10, seed=3))
        assert len(pts) >= 1
        for p in pts:
            j0 = theta_eval(p.z.z, rm, ())
            j1 = theta_eval(p.z.z + a, rm, ())
            assert abs(j0.value) / j0.abs_sum() <= 1e-10
            assert abs(j1.value) / j1.abs_sum() <= 1e-10


    @pytest.mark.parametrize("sample", [
        lambda rm, plan: sample_D1_theta(
            rm, DirectionJet(U=np.array([1.0, 0.2 - 0.3j, -0.4 + 0.1j])), plan),
        lambda rm, plan: sample_theta_intersection(rm, None, 0.3 * (1 + 0.2j) * np.ones(3), plan),
    ], ids=["D1", "intersection"])
    def test_one_plane_per_start_fills_a_distinct_quota(self, sample):
        # damped steps keep each start near its own plane's origin, so a
        # plane shared by all starts would find only a few distinct points
        rm = RiemannMatrix(random_tau(3, seed=31))
        with pytest.warns(SamplingNote, match="one random plane per start"):
            pts = sample(rm, SamplePlan(count=40, seed=3))
        assert len(pts) == 40
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                diff, _, _ = reduce_point(pts[i].z.z - pts[j].z.z, rm)
                assert np.abs(diff.z).max() > 1e-6


class TestDampedNewton:
    """Steps beyond the trust radius are shortened, so every start settles."""

    SAMPLERS = {
        "theta": lambda rm, plan: sample_theta_divisor(rm, None, plan),
        "D1": lambda rm, plan: sample_D1_theta(rm, DirectionJet(U=U2), plan),
        "intersection": lambda rm, plan: sample_theta_intersection(
            rm, None, np.array([0.27 - 0.11j, -0.13 + 0.21j]), plan),
    }

    def test_intersection_settles_in_few_binds(self, rm_g2, monkeypatch):
        # one bind per Newton round plus the re-verification: all 200
        # starts converge well inside the 50-round budget
        binds = []

        class CountedBatch(engine.BoundBatch):
            def __init__(self, *args):
                binds.append(args)
                super().__init__(*args)

        monkeypatch.setattr(engine, "BoundBatch", CountedBatch)
        plan = SamplePlan(count=200, seed=2, starts=200, distinct=False)
        self.SAMPLERS["intersection"](rm_g2, plan)
        assert len(binds) <= 30

    @staticmethod
    def _theta_run(rm, plan, monkeypatch):
        """(Newton rounds, converged start indices, points) of one theta-sampler run."""
        newton, record = divisor._newton, {"rounds": 0}

        def counted(plan, origin, frame, s, evaluate):
            def each_round(points):
                record["rounds"] += 1
                return evaluate(points)

            record["found"] = newton(plan, origin, frame, s, each_round)
            return record["found"]

        with monkeypatch.context() as m:
            m.setattr(divisor, "_newton", counted)
            points = sample_theta_divisor(rm, None, plan)
        return record["rounds"], record["found"][1], points

    def test_a_cycling_start_is_dropped(self, rm_g2, monkeypatch):
        # the theta-sampling plan of the genus-2 benchmark chain at run seed
        # 14: 199 of 200 starts converge by round 16, and the last one
        # alternates between two points for the rest of the round budget
        plan = SamplePlan(count=50, seed=1056103194)
        rounds, hits, points = self._theta_run(rm_g2, plan, monkeypatch)
        assert rounds <= 30
        monkeypatch.setattr(divisor, "STALL_ROUNDS", plan.max_iterations)  # no start stalls out
        full_rounds, full_hits, full_points = self._theta_run(rm_g2, plan, monkeypatch)
        assert full_rounds == plan.max_iterations
        assert len(hits) == 199 and np.array_equal(hits, full_hits)
        assert [p.z.z.tolist() for p in points] == [p.z.z.tolist() for p in full_points]

    @pytest.mark.parametrize("name", list(SAMPLERS))
    def test_nearly_every_start_is_kept(self, rm_g2, name):
        pts = self.SAMPLERS[name](rm_g2, SamplePlan(count=200, seed=2, starts=200,
                                                   distinct=False))
        assert len(pts) >= 190
        assert all(mag <= 1e-10 for p in pts for _, mag in p.constraints_met)


class TestIntersection:
    def test_g2_points(self, rm_g2, cap_points):
        a, pts = cap_points
        assert len(pts) == 2
        for p in pts:
            assert p.kind == DivisorKind.THETA_CAP_THETA_A
            ids = [c[0] for c in p.constraints_met]
            assert ids == ["theta", "theta-shifted"]
            assert all(mag <= 1e-10 for _, mag in p.constraints_met)
            # re-verify both constraints directly
            j0 = theta_eval(p.z.z, rm_g2, ())
            j1 = theta_eval(p.z.z + a, rm_g2, ())
            assert abs(j0.value) / j0.abs_sum() <= 1e-10
            assert abs(j1.value) / j1.abs_sum() <= 1e-10

    @pytest.mark.parametrize("name", list(TestDampedNewton.SAMPLERS))
    def test_one_bind_per_newton_step(self, rm_g2, monkeypatch, name):
        # one bind in every Newton step and in the re-verification of the
        # converged points; the intersection's theta(z) and theta(z + a) share it
        binds = []

        class CountedBatch(engine.BoundBatch):
            def __init__(self, *args):
                binds.append(args)
                super().__init__(*args)

        monkeypatch.setattr(engine, "BoundBatch", CountedBatch)
        plan = SamplePlan(count=20, seed=2, distinct=False)
        assert len(TestDampedNewton.SAMPLERS[name](rm_g2, plan)) == 20
        assert len(binds) <= plan.max_iterations + 1

    def test_g1_empty_with_note(self, rm_g1):
        with pytest.warns(SamplingNote):
            pts = sample_theta_intersection(rm_g1, None, np.array([0.3 + 0.2j]),
                                            SamplePlan(count=1, seed=0))
        assert pts == []

    def test_repeated_samples_fill_the_quota(self, rm_g2, cap_points):
        # The intersection holds two reduced points; distinct=False keeps
        # independently converged samples so a larger quota can be met.
        a, distinct = cap_points
        pts = sample_theta_intersection(
            rm_g2, None, a, SamplePlan(count=20, seed=2, starts=300, distinct=False))
        assert len(pts) == 20
        for p in pts:
            assert all(mag <= 1e-10 for _, mag in p.constraints_met)
            diffs = []
            for q in distinct:
                diff, _, _ = reduce_point(p.z.z - q.z.z, rm_g2)
                diffs.append(np.abs(diff.z).max())
            assert min(diffs) <= 1e-6  # every sample sits on a known class


_lattice = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
_coord = st.floats(-0.5, 0.5, exclude_max=True)
_unit = st.floats(-1.0, 1.0).filter(lambda x: abs(x) >= 0.5)


@settings(max_examples=30)
@given(alpha=st.tuples(_coord, _coord), beta=st.tuples(_coord, _coord),
       n=_lattice, m=_lattice, w=st.tuples(_unit, _unit))
def test_distinct_collapses_lattice_translates_and_near_copies(rm_g2, alpha, beta, n, m, w):
    # a point, its translates by n and tau m, and a copy 1e-9 away are one
    # point modulo the lattice; a copy 1e-3 away is another
    z = np.array(alpha) + rm_g2.tau @ np.array(beta)
    w = np.array([w[0], 1j * w[1]])
    far = z + 1e-3 * w
    stack = np.array([z + np.array(n), z + rm_g2.tau @ np.array(m), z, z + 1e-9 * w, far])
    kept = [stack[i] for i in _distinct(rm_g2, stack, len(stack))]
    assert len(kept) == 2
    for target in (z, far):
        assert min(np.abs(reduce_point(k - target, rm_g2)[0].z).max() for k in kept) <= 1e-8



@pytest.mark.parametrize("sample", [
    lambda rm, plan: sample_theta_divisor(rm, None, plan),
    lambda rm, plan: sample_D1_theta(rm, DirectionJet(U=U2), plan),
    lambda rm, plan: sample_theta_intersection(rm, None, np.array([0.27 - 0.11j, -0.13 + 0.21j]),
                                               plan),
], ids=["theta", "D1", "intersection"])
def test_no_root_found_returns_empty_and_warns(rm_g2, sample):
    # one start and one Newton step converge nowhere: the partial list is empty
    with pytest.warns(UnderSampledWarning):
        pts = sample(rm_g2, SamplePlan(count=1, starts=1, max_iterations=1))
    assert pts == []


class TestWeilCheck:
    def test_vacuous_pass_on_empty(self, rm_g2):
        rep = weil_check([], rm_g2, DirectionJet(U=U2, V=V2), which="weil")
        assert rep.passed
        assert "vacuous" in rep.note
        assert rep.max_residual == 0.0

    def test_kind_mismatch_rejected(self, rm_g2, d1_points):
        jet = DirectionJet(U=U2, V=V2)
        with pytest.raises(InvalidInputError):
            weil_check(d1_points, rm_g2, jet, a=np.zeros(2), which="weil1")
        theta_pt = sample_theta_divisor(rm_g2, None, SamplePlan(count=1, seed=5, starts=20))
        with pytest.raises(InvalidInputError):
            weil_check(theta_pt, rm_g2, jet, which="weil")

    def test_input_validation(self, rm_g2, d1_points):
        jet = DirectionJet(U=U2, V=V2)
        with pytest.raises(InvalidInputError):
            weil_check(d1_points, rm_g2, jet, which="weil3")
        with pytest.raises(InvalidInputError):
            weil_check(d1_points, rm_g2, jet, which="weil2")  # missing a
        with pytest.raises(InvalidInputError):
            weil_check(d1_points, rm_g2, DirectionJet(U=U2), which="weil")

    def test_residuals_are_normalized(self, rm_g2, d1_points, cap_points):
        a, cap = cap_points
        jet = DirectionJet(U=U2, V=V2)
        for rep in (weil_check(d1_points, rm_g2, jet, which="weil"),
                    weil_check(cap, rm_g2, jet, a=a, which="weil1"),
                    weil_check(d1_points, rm_g2, jet, a=a, which="weil2")):
            assert rep.normalization == "term-sum"
            assert all(0.0 <= r <= 1.0 for r in rep.residuals)
            assert rep.max_residual == max(rep.residuals)
        # unfitted directions have no reason to satisfy the containment
        rep = weil_check(d1_points, rm_g2, jet, which="weil")
        assert rep.max_residual > 1e-3

    @pytest.mark.parametrize("which", ["weil", "weil1", "weil2"])
    def test_one_bind_per_relation(self, rm_g2, d1_points, cap_points, monkeypatch, which):
        # weil reads z only; weil1 and weil2 read z and z + a in one bind
        sizes = []

        class CountedBatch(engine.BoundBatch):
            def __init__(self, *args):
                super().__init__(*args)
                sizes.append(self.count)

        monkeypatch.setattr(engine, "BoundBatch", CountedBatch)
        a, cap = cap_points
        points = cap if which == "weil1" else d1_points
        weil_check(points, rm_g2, DirectionJet(U=U2, V=V2), a=a, which=which)
        assert sizes == [len(points) if which == "weil" else 2 * len(points)]

    @pytest.mark.parametrize("which, lengths", [("weil", [2, 2, 2]), ("weil", [2, 2]),
                                                ("weil1", [2, 2]), ("weil2", [2, 2, 2]),
                                                ("weil", [3, 2])])
    def test_points_of_another_genus_are_refused(self, which, lengths):
        # three genus-2 points under a genus-3 tau must not bind as two genus-3 points
        rm3 = RiemannMatrix(random_tau(3, seed=31))
        kind = DivisorKind.THETA_CAP_THETA_A if which == "weil1" else DivisorKind.D1_THETA
        rng = np.random.default_rng(31)
        points = [DivisorPoint(AbelianPoint(rng.uniform(-0.5, 0.5, size=n) + 0.1j), [], kind)
                  for n in lengths]
        jet = DirectionJet(U=[1.0, 0.31 + 0.18j, -0.2 + 0.1j], V=[0.2 - 0.3j, 0.4, 0.1j])
        with pytest.raises(InvalidInputError, match="length 3"):
            weil_check(points, rm3, jet, a=[0.27 - 0.11j, -0.13 + 0.21j, 0.08 + 0.3j],
                       which=which)

    def test_gauge_invariance(self, rm_g2, d1_points, cap_points):
        a, cap = cap_points
        jet = DirectionJet(U=U2, V=V2)
        for lam in (1.7 - 0.4j, 0.6 + 1.1j):
            scaled = gauge_rescale(jet, lam)
            base = weil_check(d1_points, rm_g2, jet, which="weil")
            moved = weil_check(d1_points, rm_g2, scaled, which="weil")
            assert max(abs(x - y) for x, y in
                       zip(base.residuals, moved.residuals)) <= 1e-8
            base1 = weil_check(cap, rm_g2, jet, a=a, which="weil1")
            moved1 = weil_check(cap, rm_g2, scaled, a=a, which="weil1")
            assert max(abs(x - y) for x, y in
                       zip(base1.residuals, moved1.residuals)) <= 1e-8
