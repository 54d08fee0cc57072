from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thetalab import RiemannMatrix, bilinear, theta_eval
from thetalab.bilinear import (
    DirectionJet,
    _galilean,
    _hirota_terms,
    _one_point_terms,
    _reader,
    _source,
    ResidualReport,
    baker_akhiezer,
    build_report,
    gauge_balance,
    gauge_normalize,
    gauge_rescale,
    hierarchy_residual,
    hierarchy_scan,
    hirota_residual,
    kp_field_u,
    kp_field_values,
    kp_standard_time_direction,
    longeq_residual,
    p_AB_residual,
    p_residual,
    sweep_residual,
)
from thetalab.errors import (
    DegenerateJetError,
    DegenerateSampleError,
    InvalidInputError,
    NotOnDivisorError,
    PoleError,
)

from thetalab.engine import BoundBatch, box_points, lattice_coords

from conftest import GENERIC_G2_TAU, random_points, random_tau
from test_engine import _oracle_case, mp_theta_jet

G1_TAU = np.array([[0.3 + 1.1j]])


def fit_g1_kdv(rm, u=1.0, v=0.37 - 0.21j, seeds=(0.11 + 0.07j, -0.23 + 0.19j, 0.31 - 0.12j, 0.05 + 0.33j)):
    """Independent least-squares oracle: solve (W, d) so the four-term
    bilinear combination vanishes for genus-1 data with directions (u, v)."""
    rows, rhs = [], []
    for z in seeds:
        j = theta_eval([z], rm, [((u,),) * 4, ((u,),) * 3, ((u,),) * 2, ((u,),)])
        t = j.value
        t1, t2 = j.d(((u,),)), j.d(((u,),) * 2)
        t3, t4 = j.d(((u,),) * 3), j.d(((u,),) * 4)
        fixed = (t4 * t - 4 * t3 * t1 + 3 * t2**2) + 3 * v**2 * (t2 * t - t1**2)
        rows.append([-3.0 * u * (t2 * t - t1**2), -t * t])
        rhs.append(-fixed)
    w, d = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)[0]
    return DirectionJet(U=[u], V=[v], W=[w], d=d)


def fit_g1_one_point(rm, a, u=1.0, seeds=(0.11 + 0.07j, -0.23 + 0.19j, 0.31 - 0.12j, 0.05 + 0.33j)):
    """Independent oracle: solve (V, c) so the one-point combination
    vanishes for genus-1 data with direction u and shift a."""
    rows, rhs = [], []
    for z in seeds:
        jz = theta_eval([z], rm, [((u,),) * 2, ((u,),)])
        ja = theta_eval([z + a], rm, [((u,),) * 2, ((u,),)])
        t, ta = jz.value, ja.value
        fixed = jz.d(((u,),) * 2) * ta + t * ja.d(((u,),) * 2) - 2 * jz.d(((u,),)) * ja.d(((u,),))
        rows.append([jz.d(((u,),)) * ta - t * ja.d(((u,),)), t * ta])
        rhs.append(-fixed)
    v, c = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)[0]
    return DirectionJet(U=[u], V=[v], c=c)


@pytest.fixture(scope="module")
def rm_kdv():
    return RiemannMatrix(G1_TAU)


@pytest.fixture(scope="module")
def kdv_jet(rm_kdv):
    return fit_g1_kdv(rm_kdv)


@pytest.fixture(scope="module")
def one_point_jet(rm_kdv):
    return fit_g1_one_point(rm_kdv, a=0.31 + 0.12j)


def test_hirota_zero_jet_is_zero(rm_kdv):
    jet = DirectionJet(U=[0.0], V=[0.0], W=[0.0], d=0.0)
    assert hirota_residual([0.2 + 0.1j], rm_kdv, jet) == 0.0


def test_hirota_fitted_g1_vanishes(rm_kdv, kdv_jet):
    pts = random_points(1, 20, seed=210)
    worst = max(hirota_residual(p, rm_kdv, kdv_jet) for p in pts)
    assert worst <= 1e-12


def test_hirota_random_g2_jet_is_far_from_solution():
    rm = RiemannMatrix(random_tau(2, seed=3))
    rng = np.random.default_rng(4)
    jet = DirectionJet(
        U=rng.normal(size=2) + 1j * rng.normal(size=2),
        V=rng.normal(size=2) + 1j * rng.normal(size=2),
        W=rng.normal(size=2) + 1j * rng.normal(size=2),
        d=complex(rng.normal(), rng.normal()),
    )
    worst = max(hirota_residual(p, rm, jet) for p in random_points(2, 50, seed=5))
    assert worst >= 1e-3


def test_hirota_gauge_covariance(rm_kdv, kdv_jet):
    rng = np.random.default_rng(11)
    z = random_points(1, 1, seed=12)[0]
    random_jet = DirectionJet(U=[0.9 + 0.2j], V=[0.4j], W=[-0.25], d=0.6 + 0.1j)
    for jet in (kdv_jet, random_jet):
        base = hirota_residual(z, rm_kdv, jet)
        for _ in range(5):
            lam = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
            assert abs(hirota_residual(z, rm_kdv, gauge_rescale(jet, lam)) - base) <= 1e-10


def test_p_zero_jet_is_zero(rm_kdv):
    jet = DirectionJet(U=[0.0], V=[0.0], c=0.0)
    assert p_residual([0.2 - 0.1j], rm_kdv, jet, [0.3]) == 0.0


def test_p_with_zero_shift_matches_direct_formula():
    rm = RiemannMatrix([[1j]])
    jet = DirectionJet(U=[1.0], V=[0.3 + 0.2j], c=0.0)
    for p in random_points(1, 20, seed=31):
        got = p_residual(p, rm, jet, [0.0])
        j = theta_eval(p, rm, [((1.0,), (1.0,)), ((1.0,),), ((0.3 + 0.2j,),)])
        t = j.value
        num = 2.0 * (j.d(((1.0,), (1.0,))) * t - j.d(((1.0,),)) ** 2)
        normalizer = (
            2.0 * abs(j.d(((1.0,), (1.0,))) * t)
            + 2.0 * abs(j.d(((0.3 + 0.2j,),)) * t)
            + 2.0 * abs(j.d(((1.0,),))) ** 2
        )
        assert got > 1e-6  # nonzero for generic data
        assert abs(got - abs(num) / normalizer) <= 1e-12


def test_p_fitted_g1_vanishes(rm_kdv, one_point_jet):
    worst = max(
        p_residual(p, rm_kdv, one_point_jet, [0.31 + 0.12j])
        for p in random_points(1, 20, seed=220)
    )
    assert worst <= 1e-12


def test_p_evenness_symmetry(rm_kdv, one_point_jet):
    a = 0.31 + 0.12j
    random_jet = DirectionJet(U=[0.8], V=[0.3 + 0.2j], c=0.11 - 0.05j)
    for jet in (one_point_jet, random_jet):
        for p in random_points(1, 10, seed=230):
            lhs = p_residual(p, rm_kdv, jet, [a])
            rhs = p_residual([-p[0] - a], rm_kdv, jet, [a])
            assert abs(lhs - rhs) <= 1e-10


def test_p_AB_identity_case(rm_kdv):
    jet_p = DirectionJet(U=[0.8], V=[0.3 + 0.2j], c=0.11 - 0.05j)
    jet_ab = DirectionJet(U=[0.8], V=[0.3 + 0.2j], A=0.0, B=-(0.11 - 0.05j))
    for p in random_points(1, 5, seed=41):
        assert abs(
            p_AB_residual(p, rm_kdv, jet_ab, [0.21 - 0.3j])
            - p_residual(p, rm_kdv, jet_p, [0.21 - 0.3j])
        ) <= 1e-14


def test_p_AB_substitution_consistency(rm_kdv):
    # The dressed form with (U, V, A, B) coincides with the plain form with
    # second direction V - 2 A U and constant A^2 - B.
    A, B = 0.4 - 0.3j, 0.2 + 0.5j
    U, V = 0.8, 0.3 + 0.2j
    jet_ab = DirectionJet(U=[U], V=[V], A=A, B=B)
    jet_sub = DirectionJet(U=[U], V=[V - 2 * A * U], c=A**2 - B)
    for p in random_points(1, 10, seed=51):
        assert abs(
            p_AB_residual(p, rm_kdv, jet_ab, [0.17 + 0.21j])
            - p_residual(p, rm_kdv, jet_sub, [0.17 + 0.21j])
        ) <= 1e-12


def test_p_AB_folding_matches_literal_terms(rm_kdv):
    # Independent assembly of the dressed combination with the explicit
    # 2A cross monomials; the folded numerator must agree.
    A, B = 0.4 - 0.3j, 0.2 + 0.5j
    U, V = 0.8, 0.3 + 0.2j
    a = 0.17 + 0.21j
    z = 0.13 - 0.21j
    reqs = [((U,), (U,)), ((U,),), ((V,),)]
    jz = theta_eval([z], rm_kdv, reqs)
    ja = theta_eval([z + a], rm_kdv, reqs)
    t, ta = jz.value, ja.value
    literal = (
        jz.d(((U,), (U,))) * ta + t * ja.d(((U,), (U,)))
        + jz.d(((V,),)) * ta - t * ja.d(((V,),))
        - 2 * jz.d(((U,),)) * ja.d(((U,),))
        + 2 * A * ja.d(((U,),)) * t - 2 * A * ta * jz.d(((U,),))
        + (A**2 - B) * t * ta
    )
    veff = V - 2 * A * U
    reqs2 = [((U,), (U,)), ((U,),), ((veff,),)]
    jz2 = theta_eval([z], rm_kdv, reqs2)
    ja2 = theta_eval([z + a], rm_kdv, reqs2)
    folded = (
        jz2.d(((U,), (U,))) * ja2.value + jz2.value * ja2.d(((U,), (U,)))
        + jz2.d(((veff,),)) * ja2.value - jz2.value * ja2.d(((veff,),))
        - 2 * jz2.d(((U,),)) * ja2.d(((U,),))
        + (A**2 - B) * jz2.value * ja2.value
    )
    assert abs(literal - folded) <= 1e-12 * abs(literal)


def test_p_AB_fitted_g1_vanishes(rm_kdv, one_point_jet):
    # Dress the fitted one-point solution with a free exponent A.
    A = 0.3 + 0.1j
    jet_ab = DirectionJet(
        U=one_point_jet.U,
        V=one_point_jet.V + 2 * A * one_point_jet.U,
        A=A,
        B=A**2 - one_point_jet.c,
    )
    worst = max(
        p_AB_residual(p, rm_kdv, jet_ab, [0.31 + 0.12j])
        for p in random_points(1, 20, seed=240)
    )
    assert worst <= 1e-8


def test_longeq_on_divisor_g1(rm_kdv, kdv_jet):
    zstar = (1.0 + G1_TAU[0, 0]) / 2.0
    assert longeq_residual([zstar], rm_kdv, kdv_jet) <= 1e-6


def test_longeq_zero_direction_is_zero(rm_kdv):
    zstar = (1.0 + G1_TAU[0, 0]) / 2.0
    jet = DirectionJet(U=[0.0], V=[0.4 + 0.1j])
    assert longeq_residual([zstar], rm_kdv, jet) == 0.0


def test_longeq_rejects_off_divisor_points(rm_kdv, kdv_jet):
    with pytest.raises(NotOnDivisorError):
        longeq_residual([0.1 + 0.05j], rm_kdv, kdv_jet)


def test_hierarchy_zero_epsilon_is_zero(rm_kdv, one_point_jet):
    jet = DirectionJet(
        U=one_point_jet.U, V=one_point_jet.V,
        zeta_coeffs=[one_point_jet.U], d_coeffs=[],
    )
    assert hierarchy_residual([0.21 + 0.05j], rm_kdv, jet, 0.0) == 0.0


def test_hierarchy_equals_folded_one_point_form(rm_kdv, one_point_jet):
    # At fixed epsilon the hierarchy combination is epsilon times the
    # one-point combination with direction V + U/eps, shift 2*zeta(eps)
    # and constant d(eps)/eps.  The residual reads that fold rescaled by
    # lam = sqrt(eps) (directions sqrt(eps) U and eps V + U, constant
    # d(eps)) and agrees with it exactly; the unscaled fold agrees to roundoff.
    eps = 1e-2
    U, V = one_point_jet.U, one_point_jet.V
    zeta = [U, -V]
    jet = DirectionJet(U=U, V=V, zeta_coeffs=zeta, d_coeffs=[0.3 - 0.1j])
    z = [0.13 - 0.21j]
    a = 2.0 * (eps * zeta[0] + eps**2 * zeta[1])
    d = (0.3 - 0.1j) * eps**3
    balanced = DirectionJet(U=math.sqrt(eps) * U, V=eps * V + U, c=d)
    unbalanced = DirectionJet(U=U, V=V + U / eps, c=d / eps)
    got = hierarchy_residual(z, rm_kdv, jet, eps)
    assert got == p_residual(z, rm_kdv, balanced, a)
    assert abs(got - p_residual(z, rm_kdv, unbalanced, a)) <= 1e-12


def test_hierarchy_decay_on_fitted_data(rm_kdv, one_point_jet):
    # Order-2 germ (zeta_2 = -V) already decays with slope ~3 in epsilon;
    # the wrong sign of zeta_2 only reaches slope ~2.
    pts = random_points(1, 5, seed=260)
    good = DirectionJet(
        U=one_point_jet.U, V=one_point_jet.V,
        zeta_coeffs=[one_point_jet.U, -one_point_jet.V], d_coeffs=[],
    )
    bad = DirectionJet(
        U=one_point_jet.U, V=one_point_jet.V,
        zeta_coeffs=[one_point_jet.U, one_point_jet.V], d_coeffs=[],
    )
    _, slope_good = hierarchy_scan(rm_kdv, good, [1e-2, 1e-3], pts)
    _, slope_bad = hierarchy_scan(rm_kdv, bad, [1e-2, 1e-3], pts)
    assert slope_good >= 2.5
    assert slope_bad <= 2.4


def test_hierarchy_random_jet_does_not_vanish():
    rm = RiemannMatrix(random_tau(2, seed=61))
    rng = np.random.default_rng(62)
    jet = DirectionJet(
        U=rng.normal(size=2) + 1j * rng.normal(size=2),
        V=rng.normal(size=2) + 1j * rng.normal(size=2),
        zeta_coeffs=[rng.normal(size=2) + 1j * rng.normal(size=2)],
        d_coeffs=[],
    )
    worst = max(hierarchy_residual(p, rm, jet, 1e-2) for p in random_points(2, 10, seed=63))
    assert worst >= 1e-6


def test_hierarchy_validates_epsilon(rm_kdv, one_point_jet):
    jet = DirectionJet(
        U=one_point_jet.U, V=one_point_jet.V, zeta_coeffs=[one_point_jet.U],
    )
    with pytest.raises(InvalidInputError):
        hierarchy_residual([0.1], rm_kdv, jet, 1.5)


def test_kp_field_u_zero_direction_is_constant(rm_kdv):
    jet = DirectionJet(U=[0.0], V=[0.2], W=[0.1], c=0.37 - 0.11j)
    for x, y, t in [(0.0, 0.0, 0.0), (0.3, -0.2, 0.5)]:
        assert kp_field_u(x, y, t, [0.1 + 0.2j], rm_kdv, jet) == 0.37 - 0.11j


def test_kp_field_u_translation_consistency(rm_kdv, kdv_jet):
    jet = gauge_balance(kp_standard_time_direction(
        DirectionJet(U=kdv_jet.U, V=kdv_jet.V, W=kdv_jet.W, c=0.0, d=kdv_jet.d)
    ))
    z = np.array([0.06 + 0.21j])
    s = 0.37
    lhs = kp_field_u(0.13 + s, 0.2, 0.1, z, rm_kdv, jet)
    rhs = kp_field_u(0.13, 0.2, 0.1, z + s * jet.U, rm_kdv, jet)
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_kp_field_u_pole_error(rm_kdv, kdv_jet):
    jet = DirectionJet(U=kdv_jet.U, V=kdv_jet.V, W=kdv_jet.W, c=0.0, d=kdv_jet.d)
    zstar = (1.0 + G1_TAU[0, 0]) / 2.0
    with pytest.raises(PoleError):
        kp_field_u(0.0, 0.0, 0.0, [zstar], rm_kdv, jet)


def test_kp_field_u_satisfies_pde_under_stencils(rm_kdv, kdv_jet):
    # Central 4th-order stencils, step 1e-2, on the gauge-balanced jet with
    # the literal-PDE time direction: 3 u_yy = d/dx (4 u_t - 6 u u_x - u_xxx).
    jet = gauge_balance(kp_standard_time_direction(
        DirectionJet(U=kdv_jet.U, V=kdv_jet.V, W=kdv_jet.W, c=0.0, d=kdv_jet.d)
    ))
    z0 = [0.06 + 0.21j]
    h = 1e-2
    vals = {}
    for ix in range(-3, 4):
        for iy in range(-2, 3):
            for it in range(-2, 3):
                vals[ix, iy, it] = kp_field_u(ix * h, iy * h, it * h, z0, rm_kdv, jet)
    c1 = {-2: 1.0, -1: -8.0, 1: 8.0, 2: -1.0}
    u0 = vals[0, 0, 0]
    u_x = sum(c1[i] * vals[i, 0, 0] for i in c1) / (12 * h)
    u_xx = (-vals[-2, 0, 0] + 16 * vals[-1, 0, 0] - 30 * u0 + 16 * vals[1, 0, 0] - vals[2, 0, 0]) / (12 * h * h)
    u_yy = (-vals[0, -2, 0] + 16 * vals[0, -1, 0] - 30 * u0 + 16 * vals[0, 1, 0] - vals[0, 2, 0]) / (12 * h * h)
    u_xt = sum(c1[i] * c1[k] * vals[k, 0, i] for i in c1 for k in c1) / (144 * h * h)
    u_xxxx = (
        -vals[-3, 0, 0] + 12 * vals[-2, 0, 0] - 39 * vals[-1, 0, 0] + 56 * u0
        - 39 * vals[1, 0, 0] + 12 * vals[2, 0, 0] - vals[3, 0, 0]
    ) / (6 * h**4)
    residual = 3 * u_yy - 4 * u_xt + 6 * (u_x**2 + u0 * u_xx) + u_xxxx
    scale = abs(3 * u_yy) + abs(4 * u_xt) + abs(6 * u_x**2) + abs(6 * u0 * u_xx) + abs(u_xxxx)
    assert abs(residual) / scale <= 1e-4


def test_baker_akhiezer_identity_case(rm_kdv, kdv_jet):
    jet = DirectionJet(U=kdv_jet.U, V=kdv_jet.V)
    for x, y in [(0.0, 0.0), (0.21, -0.13), (0.4, 0.3)]:
        val = baker_akhiezer(x, y, [0.1 - 0.07j], rm_kdv, jet, [0.0], 0.0, 0.0)
        assert val == 1.0 + 0.0j


def test_baker_akhiezer_at_origin_matches_theta_ratio(rm_kdv, one_point_jet):
    a = 0.31 + 0.12j
    z = [0.05 - 0.18j]
    got = baker_akhiezer(0.0, 0.0, z, rm_kdv, one_point_jet, [a], 0.7, -0.2j)
    num = theta_eval([z[0] + a], rm_kdv)
    den = theta_eval(z, rm_kdv)
    want = math.exp(num.scale_exponent - den.scale_exponent) * num.value / den.value
    assert abs(got - want) <= 1e-12 * abs(want)


def test_baker_akhiezer_pole_error(rm_kdv, one_point_jet):
    zstar = (1.0 + G1_TAU[0, 0]) / 2.0
    with pytest.raises(PoleError):
        baker_akhiezer(0.0, 0.0, [zstar], rm_kdv, one_point_jet, [0.3], 0.0, 0.0)


def test_baker_akhiezer_solves_linear_problem(rm_kdv, one_point_jet):
    # The dressed one-point residual vanishes on the fitted family, and the
    # finite-difference residual of (d^2/dx^2 - d/dy + u) psi vanishes with
    # it (equivalence of the scalar-operator and bilinear formulations).
    a = 0.31 + 0.12j
    A = 0.3 + 0.1j
    B = A**2 - one_point_jet.c
    grid_jet = DirectionJet(
        U=one_point_jet.U, V=one_point_jet.V + 2 * A * one_point_jet.U,
        W=[0.0], c=0.0,
    )
    dressed = DirectionJet(U=grid_jet.U, V=grid_jet.V, A=A, B=B)
    assert p_AB_residual([0.04 - 0.13j], rm_kdv, dressed, [a]) <= 1e-10

    z = [0.04 - 0.13j]
    h = 1e-3

    def psi(x, y):
        return baker_akhiezer(x, y, z, rm_kdv, grid_jet, [a], A, B)

    p_xx = (-psi(-2 * h, 0) + 16 * psi(-h, 0) - 30 * psi(0, 0) + 16 * psi(h, 0) - psi(2 * h, 0)) / (12 * h * h)
    p_y = (psi(0, -2 * h) - 8 * psi(0, -h) + 8 * psi(0, h) - psi(0, 2 * h)) / (12 * h)
    uval = kp_field_u(0.0, 0.0, 0.0, z, rm_kdv, grid_jet)
    residual = p_xx - p_y + uval * psi(0, 0)
    scale = abs(p_xx) + abs(p_y) + abs(uval * psi(0, 0))
    assert abs(residual) / scale <= 1e-4


def test_grid_and_baker_akhiezer_refuse_a_jet_of_the_wrong_genus():
    # a genus-3 jet on a genus-2 tau: input error before any broadcasting
    rm = RiemannMatrix(GENERIC_G2_TAU)
    jet = DirectionJet(U=[1.0, 0.2, 0.1j], V=[0.4, 0.1j, 0.2], W=[0.3, 0.0, 0.1], c=0.1)
    with pytest.raises(InvalidInputError, match="U must be a complex vector of length 2"):
        kp_field_values([(0.1, 0.2, 0.3)], [0.1, 0.2j], rm, jet)
    with pytest.raises(InvalidInputError, match="U must be a complex vector of length 2"):
        baker_akhiezer(0.1, 0.1, [0.1, 0.2j], rm, jet, [0.3, 0.1j], 0.1, 0.1)


@pytest.mark.parametrize("xyt", [np.full((3, 2), 0.1), np.full((2, 2), 0.1), np.zeros((1, 3, 3)),
                                 [(0.1, 0.2, np.nan)], [(0.1, 0.2, 0.3), (0.1, 0.2)],
                                 np.array([0.1j, 0.2, 0.3])])
def test_grid_refuses_arguments_that_are_not_xyt_rows(rm_kdv, xyt):
    # a (3, 2) array of (x, y) rows once came back as 2 field values read
    # from made-up (x, y, t) rows, and a (2, 2) array ended in a numpy ValueError
    jet = DirectionJet(U=[1.0], V=[0.2], W=[0.1], c=0.3)
    with pytest.raises(InvalidInputError, match="xyt must hold"):
        kp_field_values(xyt, [0.1j], rm_kdv, jet)


def test_grid_reads_one_xyt_row_as_one_argument(rm_kdv):
    jet = DirectionJet(U=[1.0], V=[0.2], W=[0.1], c=0.3)
    one, _ = kp_field_values(np.array([0.1, 0.2, 0.3]), [0.1j], rm_kdv, jet)
    rows, _ = kp_field_values([(0.1, 0.2, 0.3)], [0.1j], rm_kdv, jet)
    assert one.shape == (1,) and one[0] == rows[0]


def test_degenerate_sample_error(rm_kdv):
    jet = DirectionJet(U=[1e-80], V=[0.0], W=[0.0], d=0.0)
    with pytest.raises(DegenerateSampleError):
        hirota_residual([0.11 + 0.21j], rm_kdv, jet)


def test_direction_jet_validation():
    with pytest.raises(InvalidInputError):
        DirectionJet(U=[1.0, 0.0], V=[1.0])
    jet = DirectionJet(U=[1.0])
    with pytest.raises(InvalidInputError):
        jet.require("V", "c")
    with pytest.raises(InvalidInputError):
        jet.zeta(0.1)


def test_direction_jet_series_helpers():
    jet = DirectionJet(
        U=[1.0, 0.0], V=[0.0, 1.0],
        zeta_coeffs=[[1.0, 0.0], [0.0, -1.0]], d_coeffs=[2.0, -1.0],
    )
    z = jet.zeta(0.1)
    assert np.allclose(z, [0.1, -0.01])
    assert abs(jet.d_of(0.1) - (2.0 * 1e-3 - 1.0 * 1e-4)) <= 1e-18
    assert DirectionJet(U=[1.0]).d_of(0.5) == 0.0


def test_gauge_normalize():
    jet = DirectionJet(U=[0.0, 3.0j], V=[1.0, 2.0], W=[0.5, 0.5], d=2.0)
    out = gauge_normalize(jet)
    assert out.normalized
    assert abs(np.linalg.norm(out.U) - 1.0) <= 1e-14
    lead = next(x for x in out.U if abs(x) > 1e-12)
    assert abs(lead.imag) <= 1e-14 and lead.real > 0
    with pytest.raises(DegenerateJetError):
        gauge_normalize(DirectionJet(U=[1e-9, 0.0]))


def test_build_report_and_sweep(rm_kdv, kdv_jet):
    report = sweep_residual("kp", rm_kdv, kdv_jet, random_points(1, 10, seed=270), 1e-9)
    assert isinstance(report, ResidualReport)
    assert report.passed
    assert report.normalization == "term-sum"
    assert all(0.0 <= r <= 1.0 for r in report.residuals)
    assert report.max_residual == max(report.residuals)
    assert abs(report.mean_residual - sum(report.residuals) / 10) <= 1e-18
    assert (report.max_residual <= report.tolerance) == report.passed

    empty = build_report([], [], 1e-6)
    assert empty.passed and empty.note is not None

    with pytest.raises(InvalidInputError):
        sweep_residual("one-point", rm_kdv, kdv_jet, [], 1e-6)
    with pytest.raises(InvalidInputError):
        sweep_residual("unknown", rm_kdv, kdv_jet, [], 1e-6)


@pytest.fixture
def bind_sizes(monkeypatch):
    """The point count of every bind made while the test runs."""
    sizes = []
    init = BoundBatch.__init__

    def recording(self, evaluator, points):
        init(self, evaluator, points)
        sizes.append(self.count)

    monkeypatch.setattr(BoundBatch, "__init__", recording)
    return sizes


def _full_jet(g):
    rng = np.random.default_rng(280 + g)
    U, V, W = (rng.normal(size=g) + 1j * rng.normal(size=g) for _ in range(3))
    return DirectionJet(U=U / np.linalg.norm(U), V=0.8 * V / np.linalg.norm(V),
                        W=0.6 * W / np.linalg.norm(W), c=0.4 - 0.3j, d=-0.2 + 0.5j,
                        A=0.3 + 0.1j, B=0.1 - 0.2j, zeta_coeffs=[U, -V], d_coeffs=[0.3 - 0.1j])


def test_empty_point_list_is_vacuous_for_every_kind(rm_kdv, bind_sizes):
    jet = _full_jet(1)
    kinds = ("kp", "one-point", "dressed", "longeq", "hierarchy")
    for kind in kinds:
        report = sweep_residual(kind, rm_kdv, jet, [], 1e-6, a=[0.3 + 0.1j], epsilon=1e-2)
        assert report.passed and report.residuals == [] and report.max_residual == 0.0
        assert report.note.startswith("vacuous")
    assert bind_sizes == [0] * len(kinds)  # one zero-point bind per sweep
    with pytest.raises(InvalidInputError):
        hierarchy_scan(rm_kdv, jet, [1e-2, 1e-1], [])


def test_hierarchy_sweep_at_zero_epsilon_is_vacuous(rm_kdv):
    # every term of the hierarchy form vanishes at eps = 0, so any jet passes there
    report = sweep_residual("hierarchy", rm_kdv, _full_jet(1), [[0.21 + 0.05j]], 1e-6,
                            epsilon=0.0)
    assert report.passed and report.max_residual == 0.0
    assert report.note.startswith("vacuous") and "epsilon" in report.note


def test_sweeps_bind_all_points_at_once(rm_kdv, bind_sizes):
    jet = _full_jet(1)
    pts = random_points(1, 7, seed=290)
    a = [0.31 + 0.12j]
    for kind, binds in (("kp", [7]), ("one-point", [14]), ("dressed", [14]),
                        ("hierarchy", [14])):
        bind_sizes.clear()
        sweep_residual(kind, rm_kdv, jet, pts, 1.0, a=a, epsilon=1e-2)
        assert bind_sizes == binds, kind
    bind_sizes.clear()
    hierarchy_scan(rm_kdv, jet, [1e-3, 1e-2, 1e-1], pts)
    assert bind_sizes == [14] * 3
    bind_sizes.clear()
    grid = [(0.01 * i, 0.02 * j, -0.01 * j) for i in range(4) for j in range(5)]
    u, pole = kp_field_values(grid, [0.06 + 0.21j], rm_kdv, jet)
    assert bind_sizes == [20] and not pole.any()
    for (x, y, t), value in zip(grid, u):
        assert abs(value - kp_field_u(x, y, t, [0.06 + 0.21j], rm_kdv, jet)) <= 1e-12 * abs(value)


def test_baker_akhiezer_binds_z_and_z_plus_a_once(rm_kdv, one_point_jet, bind_sizes):
    baker_akhiezer(0.21, -0.13, [0.05 - 0.18j], rm_kdv, one_point_jet, [0.31 + 0.12j],
                   0.7, -0.2j)
    assert bind_sizes == [2]


def test_sweeps_refuse_a_missing_shift_or_epsilon(rm_kdv):
    jet = _full_jet(1)
    with pytest.raises(InvalidInputError, match="dressed sweep needs the shift a"):
        sweep_residual("dressed", rm_kdv, jet, [[0.1]], 1.0)
    with pytest.raises(InvalidInputError, match="hierarchy sweep needs epsilon"):
        sweep_residual("hierarchy", rm_kdv, jet, [[0.1]], 1.0)


def test_hierarchy_scan_with_one_epsilon_has_exponent_zero(rm_kdv):
    per_eps, exponent = hierarchy_scan(rm_kdv, _full_jet(1), [1e-2], random_points(1, 3, seed=291))
    assert len(per_eps) == 1 and per_eps[0][1] > 0.0
    assert exponent == 0.0


def test_empty_germ_has_no_zeta():
    jet = DirectionJet(U=[1.0], zeta_coeffs=[])
    with pytest.raises(InvalidInputError, match="at least one entry"):
        jet.zeta(0.1)


def _cvec(g, bound=1.5):
    part = st.floats(-bound, bound, allow_subnormal=False)
    return st.lists(part, min_size=2 * g, max_size=2 * g).map(
        lambda v: np.array(v[:g]) + 1j * np.array(v[g:]))


_cnum = st.builds(complex, st.floats(-2.0, 2.0, allow_subnormal=False),
                  st.floats(-2.0, 2.0, allow_subnormal=False))
_PTS_G2 = random_points(2, 3, seed=301)


def _swept_stack(sweep):
    """The row readers a sweep reads (one per shift) and the term stack it reduces, captured."""
    seen = {}
    reader, residuals = bilinear._reader, bilinear._residuals

    def keep_reader(*args):
        read = reader(*args)

        def keep_rows(*args):
            seen["rows"] = read(*args)
            return seen["rows"]

        return keep_rows

    def keep_terms(terms):
        seen["terms"] = terms
        return residuals(terms)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bilinear, "_reader", keep_reader)
        mp.setattr(bilinear, "_residuals", keep_terms)
        sweep()
    return seen["rows"], seen["terms"]


def _assert_affine(block, fields, alpha):
    """block(alpha f1 + (1 - alpha) f2) = alpha block(f1) + (1 - alpha) block(f2)."""
    f1, f2 = fields
    mixed = [alpha * x + (1.0 - alpha) * y for x, y in zip(f1, f2)]
    b1, b2, bm = block(*f1), block(*f2), block(*mixed)
    scale = (abs(alpha) * np.abs(b1) + abs(1.0 - alpha) * np.abs(b2) + np.abs(bm)).sum(axis=0)
    assert np.all(np.abs(bm - (alpha * b1 + (1.0 - alpha) * b2)).sum(axis=0) <= 1e-12 * scale)


@settings(max_examples=20)
@given(U=_cvec(2), V=_cvec(2), W=st.tuples(_cvec(2), _cvec(2)), d=st.tuples(_cnum, _cnum),
       alpha=st.floats(-1.0, 2.0))
def test_kp_blocks_join_into_the_sweep_stack_and_are_affine(rm_g2, U, V, W, d, alpha):
    jet = DirectionJet(U=U, V=V, W=W[0], d=d[0])
    (row,), terms = _swept_stack(lambda: sweep_residual("kp", rm_g2, jet, _PTS_G2, 1.0))
    V0, W0 = _galilean(U, V, W[0])  # the sweep reads the Galilean representative
    assert np.array_equal(terms, _hirota_terms(_source(row), U, V0, W0, d[0]))
    # every W on one evaluator, so the jets are linear in W up to roundoff
    mixed = alpha * W[0] + (1.0 - alpha) * W[1]
    fixed = [(U, U, U, U), (U, U, U), (U, U), (U,), (V, V), (V,)]
    row, = _reader(rm_g2, fixed + [r for w in (*W, mixed) for r in ((w,), (U, w))])(_PTS_G2)
    D = _source(row)
    _assert_affine(lambda w, c: _hirota_terms(D, U, V, w, c), zip(W, d), alpha)


@settings(max_examples=20)
@given(U=_cvec(2), V=st.tuples(_cvec(2), _cvec(2)), c=st.tuples(_cnum, _cnum),
       a=_cvec(2, bound=0.5), alpha=st.floats(-1.0, 2.0))
def test_one_point_blocks_join_into_the_sweep_stack_and_are_affine(rm_g2, U, V, c, a, alpha):
    jet = DirectionJet(U=U, V=V[0], c=c[0])
    rows, terms = _swept_stack(lambda: sweep_residual("one-point", rm_g2, jet, _PTS_G2, 1.0, a=a))
    Dz, Da = map(_source, rows)  # the rows at z and at z + a
    assert np.array_equal(terms, _one_point_terms(Dz, Da, U, V[0], c[0]))
    mixed = alpha * V[0] + (1.0 - alpha) * V[1]
    rows = _reader(rm_g2, [(U, U), (U,)] + [(v,) for v in (*V, mixed)])(_PTS_G2, (None, a))
    Dz, Da = map(_source, rows)
    _assert_affine(lambda v, k: _one_point_terms(Dz, Da, U, v, k), zip(V, c), alpha)


def _mp_hirota_terms(z, tau, jet):
    # the monomials at the Galilean representative, V orthogonal to U
    U = jet.U
    mu = np.vdot(U, jet.V) / np.vdot(U, U)
    V, W = jet.V - mu * U, jet.W - 2.0 * mu * jet.V + mu * mu * U
    t, d4, d3, d2, d1, dvv, dv, duw, dw = mp_theta_jet(
        z, tau, [(U, U, U, U), (U, U, U), (U, U), (U,), (V, V), (V,), (U, W), (W,)])
    return [d4 * t, -4 * d3 * d1, 3 * d2 * d2, 3 * dvv * t, -3 * dv * dv,
            -3 * duw * t, 3 * dw * d1, -mpmath.mpc(jet.d.real, jet.d.imag) * t * t]


def _mp_one_point_terms(z, tau, U, V, c, a):
    t, tuu, tu, tv = mp_theta_jet(z, tau, [(U, U), (U,), (V,)])
    s, suu, su, sv = mp_theta_jet(z + a, tau, [(U, U), (U,), (V,)])
    return [tuu * s, t * suu, tv * s, -t * sv, -2 * tu * su, mpmath.mpc(c.real, c.imag) * t * s]


@pytest.mark.parametrize("kind", ["kp", "one-point", "hierarchy"])
def test_tau_shifted_sweep_matches_mpmath_oracle(kind):
    # Two box points and two tau-shifted points in one batch: the whole
    # batch takes the linear-correction path.  Each residual must match the
    # term-sum ratio of the monomials built from 50-digit oracle jets.
    rm, shifted, _, _ = _oracle_case(2)
    points = [*box_points(rm, np.random.default_rng(300), 2), *shifted]
    assert [bool(np.abs(lattice_coords(z, rm)[1]).max() > 0.5) for z in points] == \
        [False, False, True, True]
    jet = _full_jet(2)
    a = np.array([0.23 - 0.11j, -0.35 + 0.3j])
    eps = 0.25
    report = sweep_residual(kind, rm, jet, points, 1.0, a=a, epsilon=eps)
    for z, got in zip(points, report.residuals):
        with mpmath.workdps(50):
            if kind == "kp":
                terms = _mp_hirota_terms(z, rm.tau, jet)
            elif kind == "one-point":
                terms = _mp_one_point_terms(z, rm.tau, jet.U, jet.V, jet.c, a)
            else:  # the folded one-point form of hierarchy_residual
                terms = _mp_one_point_terms(z, rm.tau, jet.U, jet.V + jet.U / eps,
                                            jet.d_of(eps) / eps, 2.0 * jet.zeta(eps))
            want = float(abs(mpmath.fsum(terms)) / mpmath.fsum([abs(x) for x in terms]))
        assert want >= 1e-3
        assert abs(got - want) <= 1e-10, (kind, got, want)
