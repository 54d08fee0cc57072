import math

import numpy as np
import pytest

from thetalab.engine import (
    DEFAULT_TARGET_ABS_ERR,
    _BLOCK_TERMS,
    RiemannMatrix,
    _evaluator_for,
    _normalize_requests,
    canonical_request,
    reduce_point,
)
from thetalab.errors import (
    DegenerateJetError,
    InvalidInputError,
    UnsupportedGenusError,
)
from thetalab.kummer import (
    FlexReport,
    decomposability_indicator,
    even_characteristics,
    flex_scan,
    flex_test,
    half_points,
    kummer_map,
    second_order_sigmas,
    singular_ratios,
)

from conftest import GENERIC_G2_TAU, random_points, random_tau


def materialized(kp):
    return math.exp(kp.log_scale) * kp.coords


class TestCoordinates:
    def test_g1_tau_i_vs_shifted_sums(self, rm_g1):
        # K_sigma(z) = theta[sigma/2,0](2z, 2tau): brute-force the shifted sums.
        z = np.array([0.13 - 0.09j])
        kp = kummer_map(z, rm_g1, [])
        ns = np.arange(-120, 121)
        for i, sigma in enumerate(kp.sigmas):
            nn = ns + sigma[0] / 2.0
            expected = np.exp(1j * math.pi * nn**2 * 2j + 2j * math.pi * nn * 2 * z[0]).sum()
            assert abs(materialized(kp)[i] - expected) < 1e-12

    def test_sigma_order_and_count(self):
        assert second_order_sigmas(2) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        kp = kummer_map(np.zeros(2), GENERIC_G2_TAU, [])
        assert kp.coords.shape == (4,)

    def test_evenness_projective(self, rm_g1, rm_g2):
        # The coordinates are even functions, so kappa(-z) ~ kappa(z).
        for rm in (rm_g1, rm_g2):
            for z in random_points(rm.g, 25, seed=400 + rm.g):
                a = kummer_map(z, rm, []).coords
                b = kummer_map(-z, rm, []).coords
                ratios = singular_ratios([a, b])
                assert ratios[0] <= 1e-10

    def test_full_period_shift_projective(self, rm_g2):
        z = np.array([0.21 + 0.11j, -0.17 + 0.23j])
        base = kummer_map(z, rm_g2, []).coords
        for m, n in (((1, 0), (0, 0)), ((0, 1), (1, 0)), ((1, 1), (0, 1))):
            shifted = z + np.array(m) + rm_g2.tau @ np.array(n)
            other = kummer_map(shifted, rm_g2, []).coords
            ratios = singular_ratios([base, other])
            assert ratios[0] <= 1e-10

    def test_derivative_chain_rule_vs_fd(self, rm_g2):
        # Nested central differences in eps of the curve
        # phi(eps) = b + 2U eps + 2V eps^2 + 2W eps^3 must reproduce the
        # chain-rule jet rows used by the flex test.
        b = np.array([0.21 - 0.13j, -0.07 + 0.18j])
        U = np.array([0.31 + 0.12j, -0.22 + 0.05j])
        V = np.array([-0.11 + 0.21j, 0.17 - 0.08j])
        W = np.array([0.09 - 0.14j, -0.05 + 0.11j])

        def phi(eps):
            return b + 2 * U * eps + 2 * V * eps**2 + 2 * W * eps**3

        def value(eps):
            return materialized(kummer_map(phi(eps), rm_g2, []))

        def first(eps):
            d1 = 2 * U + 4 * V * eps + 6 * W * eps**2
            kp = kummer_map(phi(eps), rm_g2, [(d1,)])
            return math.exp(kp.log_scale) * kp.derivs[canonical_request((d1,))]

        def second(eps):
            d1 = 2 * U + 4 * V * eps + 6 * W * eps**2
            d2 = 4 * V + 12 * W * eps
            kp = kummer_map(phi(eps), rm_g2, [(d1, d1), (d2,)])
            s = math.exp(kp.log_scale)
            return s * (kp.derivs[canonical_request((d1, d1))]
                        + kp.derivs[canonical_request((d2,))])

        kp = kummer_map(b, rm_g2, [(U,), (U, U), (V,), (U, U, U), (U, V), (W,)])
        s = math.exp(kp.log_scale)
        F1 = s * 2 * kp.derivs[canonical_request((U,))]
        F2 = s * (4 * kp.derivs[canonical_request((U, U))]
                  + 4 * kp.derivs[canonical_request((V,))])
        F3 = s * (8 * kp.derivs[canonical_request((U, U, U))]
                  + 24 * kp.derivs[canonical_request((U, V))]
                  + 12 * kp.derivs[canonical_request((W,))])

        h = 1e-5
        fd1 = (value(h) - value(-h)) / (2 * h)
        fd2 = (first(h) - first(-h)) / (2 * h)
        fd3 = (second(h) - second(-h)) / (2 * h)
        assert np.abs(F1 - fd1).max() <= 1e-7 * np.abs(F1).max()
        assert np.abs(F2 - fd2).max() <= 1e-7 * np.abs(F2).max()
        assert np.abs(F3 - fd3).max() <= 1e-6 * np.abs(F3).max()


class TestFlex:
    def test_g1_always_rank_two(self, rm_g1):
        # Two homogeneous coordinates admit at most two singular values, so
        # every genus-1 germ trivially lies on a projective line.
        rep = flex_test(np.array([0.2 + 0.1j]), np.array([0.3 - 0.2j]),
                        np.array([0.1 + 0.4j]), rm_g1)
        assert rep.passed
        assert rep.order == "second"
        assert rep.rank_ratio == 0.0

    def test_g2_generic_germ_fails(self, rm_g2):
        b = np.array([0.21 - 0.13j, -0.07 + 0.18j])
        U = np.array([0.31 + 0.12j, -0.22 + 0.05j])
        V = np.array([-0.11 + 0.21j, 0.17 - 0.08j])
        rep = flex_test(b, U, V, rm_g2)
        assert not rep.passed
        assert rep.rank_ratio >= 1e-2

    def test_product_factor_germ_passes_and_rank_monotone(self):
        # On a product period matrix, a germ supported on one factor has
        # coordinates K = (factor-1 jet) x (constant), hence rank <= 2 at
        # every order; order-3 pass must come with an order-2 pass.
        tau = np.array([[0.1 + 0.9j, 0], [0, -0.2 + 1.4j]])
        b = np.array([0.11 - 0.21j, 0.31 + 0.12j])
        U = np.array([0.4 + 0.1j, 0])
        V = np.array([-0.2 + 0.3j, 0])
        W = np.array([0.15 - 0.05j, 0])
        rep3 = flex_test(b, U, V, tau, order=3, W=W)
        rep2 = flex_test(b, U, V, tau, order=2)
        assert rep3.passed and rep3.order == "third"
        assert rep3.rank_ratio <= 1e-12
        assert rep2.passed  # rank monotonicity: a passing order-3 germ passes order 2
        assert rep2.rank_ratio <= rep3.tolerance

    def test_projective_stability(self, rm_g2):
        # The verdict depends only on the projective data: a global rescale
        # of the rows leaves every singular ratio unchanged.
        rng = np.random.default_rng(11)
        rows = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        base = singular_ratios(rows)
        scaled = singular_ratios(1.7e3 * rows)
        assert max(abs(x - y) for x, y in zip(base, scaled)) <= 1e-12
        b = np.array([0.21 - 0.13j, -0.07 + 0.18j])
        U = np.array([0.31 + 0.12j, -0.22 + 0.05j])
        V = np.array([-0.11 + 0.21j, 0.17 - 0.08j])
        r1 = flex_test(b, U, V, rm_g2, target_abs_err=1e-12)
        r2 = flex_test(b, U, V, rm_g2, target_abs_err=5e-13)
        assert abs(r1.rank_ratio - r2.rank_ratio) <= 1e-9

    def test_validation(self, rm_g2):
        b = np.zeros(2)
        U = np.array([0.3, 0.1])
        V = np.array([0.1, -0.2])
        with pytest.raises(InvalidInputError):
            flex_test(b, np.zeros(2), V, rm_g2)
        with pytest.raises(InvalidInputError):
            flex_test(b, U, V, rm_g2, order=3)  # missing W
        with pytest.raises(InvalidInputError):
            flex_test(b, U, V, rm_g2, order=5)
        with pytest.raises(InvalidInputError):
            flex_test(b, U, np.array([0.1]), rm_g2)
        a = np.array([0.1 + 0.2j, -0.3 + 0.1j])
        with pytest.raises(InvalidInputError):
            flex_scan(a, U, np.array([0.1]), rm_g2)
        with pytest.raises(InvalidInputError):
            flex_scan(a, np.zeros(2), V, rm_g2)
        with pytest.raises(InvalidInputError):
            flex_scan(a, U, V, rm_g2, order=3)  # missing W

    def test_degenerate_rows(self):
        with pytest.raises(DegenerateJetError):
            singular_ratios([np.zeros(4), np.zeros(4)])


class TestHalfPoints:
    def test_g1_two_torsion(self, rm_g1):
        pts = half_points(np.zeros(1), rm_g1)
        assert len(pts) == 4
        # (m,n) lexicographic at tau=i; the box is half-open, so the
        # boundary halves reduce to -1/2.
        expected = [0.0, -0.5j, -0.5, -0.5 - 0.5j]
        for p, e in zip(pts, expected):
            assert abs(p.z[0] - e) < 1e-12

    def test_doubling(self, rm_g1, rm_g2):
        for rm, a in ((rm_g1, np.array([0.26 - 0.34j])),
                      (rm_g2, np.array([0.1 + 0.2j, -0.3 + 0.1j]))):
            pts = half_points(a, rm)
            assert len(pts) == 4 ** rm.g
            for p in pts:
                back, _, _ = reduce_point(2 * p.z - a, rm)
                assert np.abs(back.z).max() <= 1e-12

    def test_g2_distinct(self, rm_g2):
        pts = half_points(np.array([0.1 + 0.2j, -0.3 + 0.1j]), rm_g2)
        seps = [np.abs(pts[i].z - pts[j].z).max()
                for i in range(16) for j in range(i + 1, 16)]
        assert min(seps) > 1e-6

    def test_scan_aggregates(self, rm_g1):
        a = np.array([0.26 - 0.34j])
        rep = flex_scan(a, np.array([0.3 + 0.1j]), np.array([0.1 - 0.2j]), rm_g1)
        assert isinstance(rep, FlexReport)
        assert rep.passed
        assert len(rep.tested_halves) == 4
        assert rep.tested_halves[0].m == (0,) and rep.tested_halves[0].n == (0,)
        assert rep.tested_halves[-1].m == (1,) and rep.tested_halves[-1].n == (1,)
        ratios = [c.sigma_ratios[1] if len(c.sigma_ratios) >= 2 else 0.0
                  for c in rep.tested_halves]
        assert rep.rank_ratio == min(ratios)

    def test_gauge_scans_on_one_tau_build_one_doubled_matrix_and_lattice(self, monkeypatch):
        # the gauges (U, V) -> (lam U, lam^2 V), |lam| = 1, keep the direction
        # norms up to rounding, so every scan sizes the same radius on
        # rm.doubled and reads the lattice kept there, as do another sizing
        # and an order-3 scan; the reports equal those of scans on fresh tau
        from thetalab import engine
        from thetalab.bilinear import DirectionJet, gauge_rescale

        enumerated = []
        lattice_points = engine._lattice_points

        def counted(rm, radius):
            enumerated.append(rm)
            return lattice_points(rm, radius)

        monkeypatch.setattr(engine, "_lattice_points", counted)
        rm = RiemannMatrix(GENERIC_G2_TAU)
        a = np.array([0.12 - 0.3j, 0.4 + 0.1j])
        jet = DirectionJet(U=[0.8 + 0.1j, -0.3j], V=[0.2 - 0.4j, 0.5 + 0.1j])
        lams = np.exp(2j * np.pi * np.random.default_rng(4).uniform(size=16))
        germs = [gauge_rescale(jet, lam) for lam in lams]
        held = [flex_scan(a, germ.U, -germ.V, rm) for germ in germs]
        doubled = rm.doubled
        flex_scan(a, 3.0 * jet.U, jet.V, rm)
        flex_scan(a, jet.U, jet.V, rm, order=3, W=np.array([0.1 + 0.2j, -0.3j]))
        assert rm.doubled is doubled and enumerated == [doubled]
        fresh = [flex_scan(a, germ.U, -germ.V, RiemannMatrix(GENERIC_G2_TAU)) for germ in germs]
        for got, want in zip(held, fresh):
            assert got.passed == want.passed and got.sigma_ratios == want.sigma_ratios
            assert [(h.b.z.tolist(), h.sigma_ratios, h.passed) for h in got.tested_halves] == \
                [(h.b.z.tolist(), h.sigma_ratios, h.passed) for h in want.tested_halves]

    def test_scan_g2_product_positive(self):
        # A genus-2 scan with a = 2b on a product matrix must find the
        # passing half at the identity offset.
        tau = np.array([[0.1 + 0.9j, 0], [0, -0.2 + 1.4j]])
        b = np.array([0.11 - 0.21j, 0.31 + 0.12j])
        rep = flex_scan(2 * b, np.array([0.4 + 0.1j, 0]),
                        np.array([-0.2 + 0.3j, 0]), tau)
        assert rep.passed
        assert len(rep.tested_halves) == 16
        assert any(c.passed for c in rep.tested_halves)


    def test_scan_across_bind_blocks_g4_product(self):
        # tau_1 + tau_3 with the germ in the elliptic factor: the Kummer
        # image of the germ lies in a line at every half-point.  The scan
        # binds 256 x 16 characteristic points, whose terms span many blocks.
        tau = np.zeros((4, 4), dtype=complex)
        tau[0, 0] = 0.17 + 1.2j
        tau[1:, 1:] = random_tau(3, seed=310)
        U = np.array([0.7 + 0.2j, 0, 0, 0])
        V = np.array([-0.3 + 0.4j, 0, 0, 0])
        a = np.array([0.12 - 0.3j, 0.4 + 0.1j, -0.2 + 0.25j, 0.05 - 0.15j])
        requests = _normalize_requests([(U,), (U, U), (V,)], 4)
        lattice = _evaluator_for(RiemannMatrix(2 * tau), requests, DEFAULT_TARGET_ABS_ERR).lattice
        assert 256 * 16 * len(lattice) > 2 * _BLOCK_TERMS
        rep = flex_scan(a, U, V, tau)
        assert len(rep.tested_halves) == 256
        assert all(h.passed for h in rep.tested_halves)
        for i in (0, 137, 255):
            half = rep.tested_halves[i]
            single = flex_test(half.b, U, V, tau)
            assert single.passed
            assert np.abs(np.subtract(single.sigma_ratios, half.sigma_ratios)).max() <= 1e-12


class TestDecomposability:
    def test_even_characteristic_counts(self):
        assert len(even_characteristics(1)) == 3
        assert len(even_characteristics(2)) == 10

    def test_product_matrix_flags(self):
        ind = decomposability_indicator(np.array([[1j, 0], [0, 2j]]))
        assert ind <= 1e-10

    def test_generic_matrix_large(self, rm_g2):
        ind = decomposability_indicator(rm_g2)
        assert ind >= 1e-2
        assert abs(ind - 0.1905561728975161) < 1e-6

    def test_precision_stability(self, rm_g2):
        a = decomposability_indicator(rm_g2, target_abs_err=1e-12)
        b = decomposability_indicator(rm_g2, target_abs_err=5e-13)
        assert abs(a - b) < 1e-8

    def test_seeded_generic_matrices(self):
        for seed in (3, 4):
            ind = decomposability_indicator(random_tau(2, seed=seed))
            assert ind >= 1e-2

    def test_genus_guard(self, rm_g1):
        with pytest.raises(UnsupportedGenusError):
            decomposability_indicator(rm_g1)
        with pytest.raises(UnsupportedGenusError):
            decomposability_indicator(random_tau(3, seed=5))
