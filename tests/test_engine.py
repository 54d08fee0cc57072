from __future__ import annotations

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.special import gamma

from thetalab import (
    AbelianPoint,
    BatchThetaEvaluator,
    Characteristic,
    RiemannMatrix,
    canonical_request,
    lattice_coords,
    reduce_point,
    theta_char_eval,
    theta_eval,
)
from thetalab import engine
from thetalab.errors import (
    InvalidInputError,
    PrecisionUnreachableError,
    TauNotPositiveDefiniteError,
    TauNotSymmetricError,
)

from conftest import random_points, random_tau

# theta(0; i) as a 16-digit literal; equals pi^(1/4) / Gamma(3/4).
THETA_NULL_TAU_I = 1.086434811213308


def naive_theta(z, tau, box: int):
    """Independent oracle: direct lattice sum over the integer box |n_j| <= box."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    tau = np.asarray(tau, dtype=complex)
    g = len(z)
    axes = [np.arange(-box, box + 1, dtype=float)] * g
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g)
    expo = 1j * np.pi * np.einsum("lg,gh,lh->l", grid, tau, grid) + 2j * np.pi * (grid @ z)
    return complex(np.sum(np.exp(expo)))


def naive_theta_char(z, tau, eps, delta, box: int):
    """Oracle for characteristics: summation index shifted by eps, argument by delta."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    tau = np.asarray(tau, dtype=complex)
    eps = np.asarray(eps, dtype=float)
    delta = np.asarray(delta, dtype=float)
    g = len(z)
    axes = [np.arange(-box, box + 1, dtype=float)] * g
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g) + eps
    zd = z + delta
    expo = 1j * np.pi * np.einsum("lg,gh,lh->l", grid, tau, grid) + 2j * np.pi * (grid @ zd)
    return complex(np.sum(np.exp(expo)))


def materialize(jet):
    return math.exp(jet.scale_exponent) * jet.value


def materialize_deriv(jet, request):
    return math.exp(jet.scale_exponent) * jet.d(request)


def test_theta_null_matches_classical_constant():
    rm = RiemannMatrix([[1j]])
    jet = theta_eval([0.0], rm)
    value = materialize(jet)
    assert abs(value - THETA_NULL_TAU_I) <= 1e-12 * THETA_NULL_TAU_I
    assert abs(value.imag) <= 1e-14
    classical = float(np.pi ** 0.25 / gamma(0.75))
    assert abs(value - classical) <= 1e-12


def test_engine_matches_naive_sum_g1_tau_i():
    rm = RiemannMatrix([[1j]])
    pts = random_points(1, 20, seed=101, spread=0.6)
    for z in pts:
        jet = theta_eval(z, rm)
        oracle = naive_theta(z, rm.tau, box=100)
        assert abs(materialize(jet) - oracle) <= 1e-12 * abs(oracle)


def test_engine_matches_naive_sum_seeded_g1_g2():
    cases = 0
    for seed in range(25):
        for g in (1, 2):
            tau = random_tau(g, seed=500 + seed)
            rm = RiemannMatrix(tau)
            z = random_points(g, 1, seed=900 + 10 * seed + g, spread=0.7)[0]
            jet = theta_eval(z, rm)
            oracle = naive_theta(z, tau, box=60)
            tol = max(jet.error_bound * math.exp(jet.scale_exponent), 1e-12 * abs(oracle))
            assert abs(materialize(jet) - oracle) <= tol
            cases += 1
    assert cases == 50


def test_reduce_point_identity_on_reduced():
    rm = RiemannMatrix([[1j]])
    point, factor, exponent = reduce_point([0.3 - 0.2j], rm)
    assert np.allclose(point.z, [0.3 - 0.2j])
    assert factor == 1.0 + 0.0j
    assert exponent == 0.0


def test_reduce_point_integer_shift_is_trivial():
    rm = RiemannMatrix([[1j]])
    z0 = 0.11 + 0.07j
    point, factor, exponent = reduce_point([z0 + 1.0], rm)
    assert abs(point.z[0] - z0) <= 1e-14
    assert abs(factor - 1.0) <= 1e-14
    assert exponent == 0.0


def test_reduce_point_tau_shift_multiplier_against_naive_sum():
    rm = RiemannMatrix([[1j]])
    z0 = 0.11 + 0.07j
    z = z0 + 1j  # z0 + tau*1
    point, factor, exponent = reduce_point([z], rm)
    assert abs(point.z[0] - z0) <= 1e-13
    expected = np.exp(-1j * np.pi * 1j - 2j * np.pi * z0)
    assert abs(math.exp(exponent) * factor - expected) <= 1e-12 * abs(expected)
    jet = theta_eval(point.z, rm)
    via_engine = math.exp(exponent + jet.scale_exponent) * factor * jet.value
    oracle = naive_theta([z], rm.tau, box=100)
    assert abs(via_engine - oracle) <= 1e-12 * abs(oracle)


def test_reduced_coordinates_live_in_half_open_box():
    for seed in range(10):
        g = 1 + seed % 3
        rm = RiemannMatrix(random_tau(g, seed=40 + seed))
        z = random_points(g, 1, seed=70 + seed, spread=3.0)[0]
        point, _, _ = reduce_point(z, rm)
        alpha, beta = lattice_coords(point.z, rm)
        assert np.all(alpha >= -0.5) and np.all(alpha < 0.5)
        assert np.all(beta >= -0.5) and np.all(beta < 0.5)


def test_quasi_periodicity_seeded_g123():
    checked = 0
    for seed in range(100):
        g = 1 + seed % 3
        rm = RiemannMatrix(random_tau(g, seed=1000 + seed))
        rng = np.random.default_rng(3000 + seed)
        z = random_points(g, 1, seed=2000 + seed, spread=0.45)[0]
        m = rng.integers(-2, 3, size=g).astype(float)
        n = rng.integers(-2, 3, size=g).astype(float)
        shifted = z + rm.tau @ m + n
        jet_s = theta_eval(shifted, rm)
        jet_z = theta_eval(z, rm)
        lhs = materialize(jet_s)
        multiplier = np.exp(-1j * np.pi * (m @ rm.tau @ m) - 2j * np.pi * (m @ z))
        rhs = multiplier * materialize(jet_z)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)
        checked += 1
    assert checked == 100


def nested_fd(z, rm, request, step=1e-5):
    """Central finite difference of the analytic (k-1)-jet along request[0]."""
    h0 = np.asarray(request[0], dtype=complex)
    rest = tuple(request[1:])
    jp = theta_eval(z + step * h0, rm, [rest] if rest else [])
    jm = theta_eval(z - step * h0, rm, [rest] if rest else [])
    vp = materialize_deriv(jp, rest) if rest else materialize(jp)
    vm = materialize_deriv(jm, rest) if rest else materialize(jm)
    return (vp - vm) / (2.0 * step)


def test_derivatives_match_finite_differences():
    checked = 0
    for seed in range(50):
        g = 1 + seed % 2
        rm = RiemannMatrix(random_tau(g, seed=4000 + seed))
        rng = np.random.default_rng(5000 + seed)
        z = random_points(g, 1, seed=6000 + seed, spread=0.4)[0]
        order = 1 + seed % 4
        dirs = tuple(
            rng.normal(scale=0.7, size=g) + 1j * rng.normal(scale=0.7, size=g)
            for _ in range(order)
        )
        jet = theta_eval(z, rm, [dirs])
        analytic = materialize_deriv(jet, dirs)
        approx = nested_fd(z, rm, dirs)
        assert abs(analytic - approx) <= 1e-6 * max(abs(analytic), abs(approx)), (
            f"seed={seed} order={order}"
        )
        checked += 1
    assert checked == 50


def test_zero_direction_derivative_is_zero(rm_g2):
    z = random_points(2, 1, seed=77)[0]
    zero = np.zeros(2)
    u = np.array([0.4 + 0.1j, -0.2j])
    jet = theta_eval(z, rm_g2, [(zero,), (u, zero)])
    assert jet.d((zero,)) == 0.0
    assert jet.d((u, zero)) == 0.0


def test_parity_of_theta(rm_g2):
    for seed in range(20):
        z = random_points(2, 1, seed=8000 + seed)[0]
        jp = theta_eval(z, rm_g2)
        jm = theta_eval(-z, rm_g2)
        assert abs(jp.scale_exponent - jm.scale_exponent) <= 1e-12
        assert abs(jp.value - jm.value) <= 2.0 * jp.error_bound
        assert abs(materialize(jp) - materialize(jm)) <= 1e-12 * abs(materialize(jp))


def test_monotone_truncation(rm_g2):
    z = random_points(2, 1, seed=13)[0]
    u = np.array([0.5, 0.25 - 0.3j])
    norm = float(np.linalg.norm(u))
    narrow = BatchThetaEvaluator(rm_g2, max_order=1, max_direction_norm=norm)
    widened = BatchThetaEvaluator(rm_g2, max_order=1, max_direction_norm=norm,
                                  target_abs_err=1e-15)
    assert len(widened.lattice) > len(narrow.lattice)
    base = theta_eval(z, rm_g2, [(u,)])
    wide = theta_eval(z, rm_g2, [(u,)], target_abs_err=1e-15)
    assert abs(base.value - wide.value) <= base.error_bound
    assert abs(base.d((u,)) - wide.d((u,))) <= base.error_bound


def test_error_bound_covers_truth_g1():
    rm = RiemannMatrix([[1j]])
    z = [0.23 + 0.31j]
    jet = theta_eval(z, rm)
    oracle = naive_theta(z, rm.tau, box=100)
    stored_oracle = oracle / math.exp(jet.scale_exponent)
    assert abs(jet.value - stored_oracle) <= jet.error_bound
    assert jet.error_bound <= 1e-12


def mp_theta_jet(z, tau, keys, eps=None, delta=None):
    """Independent 50-digit oracle: theta[eps, delta] and derivatives by a naive sum.

    Sums every lattice term within exp(-130) of the largest one (the terms
    decay like a Gaussian around n + eps = -Im(tau)^-1 Im z); returns the
    value and each requested derivative as mpmath complex numbers.
    """
    g = len(z)
    tau = np.asarray(tau, dtype=complex)
    eps = np.zeros(g) if eps is None else np.asarray(eps, dtype=float)
    delta = np.zeros(g) if delta is None else np.asarray(delta, dtype=float)
    y = tau.imag
    beta = np.linalg.solve(y, np.asarray(z).imag)
    reach = math.ceil(math.sqrt(140.0 / (math.pi * np.linalg.eigvalsh(y)[0]))) + 1
    axes = [np.arange(c - reach, c + reach + 1) for c in np.round(-beta - eps)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g) + eps
    shifted = grid + beta
    logs = -math.pi * np.einsum("lg,gh,lh->l", shifted, y, shifted)
    grid = grid[logs >= logs.max() - 130.0]
    with mpmath.workdps(50):
        mtau = [[mpmath.mpc(x.real, x.imag) for x in row] for row in tau]
        mz = [mpmath.mpc(x.real, x.imag) + mpmath.mpf(d) for x, d in zip(z, delta)]
        mkeys = [[[mpmath.mpc(x.real, x.imag) for x in np.asarray(h, dtype=complex)]
                  for h in key] for key in keys]
        two_pi_i = 2j * mpmath.pi
        totals = [mpmath.mpc(0)] * (len(keys) + 1)
        for n in grid:
            nm = [mpmath.mpf(x) for x in n]
            quad = sum(nm[i] * mtau[i][j] * nm[j] for i in range(g) for j in range(g))
            term = mpmath.exp(1j * mpmath.pi * quad + two_pi_i * sum(a * b for a, b in zip(nm, mz)))
            totals[0] += term
            for k, key in enumerate(mkeys, 1):
                weight = mpmath.mpc(1)
                for h in key:
                    weight *= two_pi_i * sum(a * b for a, b in zip(nm, h))
                totals[k] += weight * term
        return totals


def _stored_errors(jet_values, scale, oracle):
    """|stored - oracle * exp(-scale)| per entry, computed at 50 digits."""
    with mpmath.workdps(50):
        factor = mpmath.exp(-mpmath.mpf(scale))
        return [float(abs(mpmath.mpc(v.real, v.imag) - o * factor))
                for v, o in zip(jet_values, oracle)]


def _oracle_case(g):
    """A period matrix, tau-shifted points, order <= 4 requests and a characteristic."""
    tau = random_tau(g, seed=7100 + g)
    rm = RiemannMatrix(tau)
    rng = np.random.default_rng(7200 + g)
    shifts = {2: ([1.0, -1.0], [0.0, 1.0]), 3: ([1.0, 0.0, -1.0], [0.0, 1.0, 1.0])}[g]
    points = []
    for m in shifts:
        z0 = rng.uniform(-0.4, 0.4, g) + 1j * rng.uniform(-0.4, 0.4, g)
        points.append(z0 + rm.tau @ np.asarray(m) + rng.integers(-1, 2, g))
    u, v, w = (rng.normal(size=g) + 1j * rng.normal(size=g) for _ in range(3))
    u, v, w = u / np.linalg.norm(u), 0.8 * v / np.linalg.norm(v), 0.6 * w / np.linalg.norm(w)
    requests = [(u,), (u, v), (u, v, w), (u, u, v, w), (w, w, w, w)]
    ch = Characteristic([0.5] + [0.0] * (g - 2) + [0.5], [0.0] + [0.5] * (g - 1))
    return rm, points, requests, ch


@pytest.mark.parametrize("g", [2, 3])
def test_error_bound_covers_mpmath_oracle_at_tau_shifted_points(g):
    rm, points, requests, ch = _oracle_case(g)
    for z in points:
        assert np.abs(lattice_coords(z, rm)[1]).max() > 0.5  # needs a tau-shift
        jet = theta_eval(z, rm, requests)
        oracle = mp_theta_jet(z, rm.tau, requests)
        errs = _stored_errors([jet.value] + [jet.d(r) for r in requests],
                              jet.scale_exponent, oracle)
        assert max(errs) <= jet.error_bound, (errs, jet.error_bound)
        assert jet.error_bound <= 1e-9

        jet = theta_char_eval(z, rm, ch, requests)
        oracle = mp_theta_jet(z, rm.tau, requests, eps=ch.eps, delta=ch.delta)
        errs = _stored_errors([jet.value] + [jet.d(r) for r in requests],
                              jet.scale_exponent, oracle)
        assert max(errs) <= jet.error_bound, (errs, jet.error_bound)


@pytest.mark.parametrize("g", [2, 3])
def test_batch_error_covers_mpmath_oracle_per_point(g, monkeypatch):
    rm, points, requests, _ = _oracle_case(g)
    points = points + [reduce_point(points[0], rm)[0].z]  # one point needing no shift
    keys = [canonical_request(r) for r in requests]
    ev = BatchThetaEvaluator(rm, max_order=4, max_direction_norm=1.0)
    # blocks of 16 lattice rows: the bind writes its terms in many row
    # blocks, the last one partial
    monkeypatch.setattr(engine, "_BLOCK_TERMS", 16 * len(points))
    assert len(ev.lattice) % 16
    res = ev.jets(points, keys)
    assert res["error"].shape == (len(points),)
    for p, z in enumerate(points):
        oracle = mp_theta_jet(z, rm.tau, requests)
        errs = _stored_errors([res[()][p]] + [res[k][p] for k in keys],
                              res["scales"][p], oracle)
        assert max(errs) <= res["error"][p], (p, errs, res["error"][p])
    # correction growth is charged only where the linear correction applies
    assert res["error"][-1] < res["error"][0]


def test_large_reach_terms_stay_bounded_and_match_mpmath_oracle_at_box_corners():
    # lambda_min(Im tau) ~ 0.25 puts lattice coordinates 10 and more in the
    # sum; at the corners of the fundamental box Im z0 = +-Y/2 componentwise,
    # where a table exp(2*pi*i j z0_k) that carried Im z0 would grow like
    # exp(2*pi |j Im z0_k|)
    tau = np.array([[0.3 + 0.25j, 0.1 + 0.05j], [0.1 + 0.05j, -0.2 + 0.7j]])
    rm = RiemannMatrix(tau)
    assert 0.2 < rm.lambda_min < 0.3
    ev = BatchThetaEvaluator(rm, max_order=4, max_direction_norm=1.0)
    assert np.abs(ev.lattice).max() >= 10
    corners = np.array([[sx, sy] for sx in (-0.5, 0.5) for sy in (-0.5, 0.5)])
    points = [c + rm.tau @ s for c in corners for s in corners]
    terms = ev.bind(points).terms
    assert np.isfinite(terms).all()
    assert np.abs(terms).max() <= 1.0
    u, v = np.array([0.6 - 0.3j, 0.2 + 0.5j]), np.array([-0.1 + 0.4j, 0.7 + 0.1j])
    requests = [(u,), (u, v), (u, v, v), (u, u, v, v), (v, v, v, v)]
    keys = [canonical_request(r) for r in requests]
    res = ev.jets(points, keys)
    for p, z in enumerate(points):
        oracle = mp_theta_jet(z, rm.tau, requests)
        errs = _stored_errors([res[()][p]] + [res[k][p] for k in keys],
                              res["scales"][p], oracle)
        assert max(errs) <= res["error"][p], (p, errs, res["error"][p])


def test_genus4_bind_peak_memory_is_about_its_term_matrix():
    # the terms are written block by block into the one matrix the bind
    # keeps, so its transient memory is a few row blocks
    tau = 0.1 * np.ones((4, 4)) + 1j * (1.1 * np.eye(4) + 0.1 * np.ones((4, 4)))
    rm = RiemannMatrix(tau)
    ev = BatchThetaEvaluator(rm, max_order=4)
    assert len(ev.lattice) == 3457
    points = engine.box_points(rm, np.random.default_rng(3), 240)
    tracemalloc.start()
    try:
        bound = ev.bind(points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ratio = peak / bound.terms.nbytes
    assert ratio <= 1.25


def test_char_zero_equals_plain(rm_g2):
    z = random_points(2, 1, seed=21)[0]
    ch = Characteristic([0.0, 0.0], [0.0, 0.0])
    a = theta_char_eval(z, rm_g2, ch)
    b = theta_eval(z, rm_g2)
    assert abs(a.value - b.value) <= 1e-14 * abs(b.value)
    assert a.scale_exponent == b.scale_exponent


def test_odd_characteristic_vanishes_at_origin():
    rm = RiemannMatrix([[1j]])
    ch = Characteristic([0.5], [0.5])
    jet = theta_char_eval([0.0], rm, ch)
    assert abs(materialize(jet)) <= 1e-12


def test_char_eps_half_matches_shifted_sum():
    rm = RiemannMatrix([[1j]])
    ch = Characteristic([0.5], [0.0])
    jet = theta_char_eval([0.0], rm, ch)
    oracle = naive_theta_char([0.0], rm.tau, [0.5], [0.0], box=100)
    assert abs(materialize(jet) - oracle) <= 1e-12 * abs(oracle)


def test_char_matches_shifted_sum_generic(rm_g2):
    for seed, (e, d) in enumerate(
        [((0.5, 0.0), (0.0, 0.5)), ((0.5, 0.5), (0.5, 0.0)), ((0.0, 0.5), (0.5, 0.5))]
    ):
        ch = Characteristic(e, d)
        z = random_points(2, 1, seed=31 + seed)[0]
        jet = theta_char_eval(z, rm_g2, ch)
        oracle = naive_theta_char(z, rm_g2.tau, e, d, box=40)
        assert abs(materialize(jet) - oracle) <= 1e-11 * abs(oracle)


def test_char_derivatives_match_finite_differences(rm_g2):
    ch = Characteristic([0.5, 0.0], [0.0, 0.5])
    z = random_points(2, 1, seed=55)[0]
    rng = np.random.default_rng(56)
    u = rng.normal(size=2) + 1j * rng.normal(size=2)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    jet = theta_char_eval(z, rm_g2, ch, [(u,), (u, v)])
    step = 1e-5

    def val(p, req=()):
        j = theta_char_eval(p, rm_g2, ch, [req] if req else [])
        return math.exp(j.scale_exponent) * (j.d(req) if req else j.value)

    fd1 = (val(z + step * u) - val(z - step * u)) / (2 * step)
    assert abs(materialize_deriv(jet, (u,)) - fd1) <= 1e-6 * abs(fd1)
    fd2 = (val(z + step * u, (v,)) - val(z - step * u, (v,))) / (2 * step)
    analytic2 = materialize_deriv(jet, (u, v))
    assert abs(analytic2 - fd2) <= 1e-6 * abs(fd2)


def test_derivatives_after_reduction_match_naive_sum():
    # Points far outside the fundamental domain exercise the subset-sum
    # corrections from the quasi-periodicity multiplier.
    rm = RiemannMatrix(random_tau(2, seed=654))
    rng = np.random.default_rng(655)
    z = np.array([0.2 + 1.4j, -0.8 - 0.9j])
    u = rng.normal(size=2) + 1j * rng.normal(size=2)
    jet = theta_eval(z, rm, [(u,), (u, u)])
    step = 1e-5
    box = 40
    fd1 = (naive_theta(z + step * u, rm.tau, box) - naive_theta(z - step * u, rm.tau, box)) / (2 * step)
    an1 = materialize_deriv(jet, (u,))
    assert abs(an1 - fd1) <= 1e-6 * abs(fd1)
    fd2 = (
        naive_theta(z + step * u, rm.tau, box)
        - 2 * naive_theta(z, rm.tau, box)
        + naive_theta(z - step * u, rm.tau, box)
    ) / step**2
    an2 = materialize_deriv(jet, (u, u))
    assert abs(an2 - fd2) <= 1e-5 * abs(fd2)


def test_tau_validation_errors():
    with pytest.raises(TauNotSymmetricError):
        RiemannMatrix([[1j, 0.2], [0.1, 1j]])
    with pytest.raises(TauNotPositiveDefiniteError):
        RiemannMatrix([[1j, 0.0], [0.0, -1j]])
    with pytest.raises(InvalidInputError):
        RiemannMatrix([[1j, 0.0]])
    with pytest.raises(InvalidInputError):
        RiemannMatrix([[complex("nan")]])


def test_request_and_input_validation(rm_g1):
    u = np.array([1.0])
    with pytest.raises(InvalidInputError):
        theta_eval([0.1], rm_g1, [(u, u, u, u, u)])
    with pytest.raises(InvalidInputError):
        theta_eval([complex("inf")], rm_g1)
    for target in (0.0, float("nan"), float("inf")):
        with pytest.raises(InvalidInputError):
            theta_eval([0.1], rm_g1, target_abs_err=target)
    with pytest.raises(InvalidInputError):
        theta_eval([0.1, 0.2], rm_g1)


def test_precision_unreachable_for_ill_conditioned_im_tau():
    rm = RiemannMatrix(1e-8j * np.eye(2))
    with pytest.raises(PrecisionUnreachableError):
        theta_eval([0.0, 0.0], rm)


def test_characteristic_validation():
    with pytest.raises(InvalidInputError):
        Characteristic([0.3], [0.0])
    with pytest.raises(InvalidInputError):
        Characteristic([0.5, 0.0], [0.0])
    ch = Characteristic([0.5, 0.5], [0.5, 0.0])
    assert not ch.is_even()
    assert Characteristic([0.5, 0.0], [0.0, 0.5]).is_even()


def test_abelian_point_round_trip(rm_g2):
    z = random_points(2, 1, seed=91, spread=2.5)[0]
    point, factor, exponent = reduce_point(z, rm_g2)
    assert point.reduced
    jet_raw = theta_eval(z, rm_g2)
    jet_red = theta_eval(point, rm_g2)
    lhs = materialize(jet_raw)
    rhs = math.exp(exponent + jet_red.scale_exponent) * factor * jet_red.value
    assert abs(lhs - rhs) <= 1e-12 * abs(lhs)
