"""Second-order theta coordinates, flex tests, and related projective checks.

The map into P^(2^g - 1) uses the standard second-order characteristic basis

    K_sigma(z) = theta[sigma/2, 0](2z, 2*tau),   sigma in {0,1}^g,

which is even in z.  Flex-type conditions are tested as numerical rank
statements about the jet matrix of eps -> K(b + 2U eps + 2V eps^2 [+ 2W
eps^3]): the germ lies over a line in projective space exactly when the
stacked jet rows have rank <= 2, measured by the singular-value ratio
sigma_3/sigma_1 after row normalization.  Coordinates are materialized on a
common exponential scale per point (one global factor, projectively
irrelevant), so rank and ratios refer to the true homogeneous values.  The
reparametrization eps -> eps + nu eps^2 + nu^2 eps^3 moves (V, W) to (V + nu U,
W + 2 nu V + nu^2 U) and the ratios, not the germ, so every flex test reads
the representative with V orthogonal to U (``bilinear``'s Galilean rule).

All coordinates go through one evaluator at 2 tau, held on the
``RiemannMatrix`` between calls (``_doubled_evaluator``): ``flex_scan`` binds
the 2^g characteristic points of all 2^(2g) half-points together and decides
every half-point with one stacked singular value decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .bilinear import _galilean, as_riemann_matrix
from .engine import (
    AbelianPoint,
    BatchThetaEvaluator,
    Characteristic,
    DEFAULT_TARGET_ABS_ERR,
    RiemannMatrix,
    _check_points,
    _check_real,
    _check_vector,
    _evaluator_for,
    _normalize_requests,
    _reduce_coords,
    _request_profiles,
    as_point,
    canonical_request,
)
from .errors import DegenerateJetError, InvalidInputError, UnsupportedGenusError


def second_order_sigmas(g: int) -> list:
    """The 2^g coordinate labels sigma in {0,1}^g, lexicographic."""
    return list(product((0, 1), repeat=g))


@dataclass
class KummerPoint:
    """Homogeneous second-order theta coordinates at a point.

    ``coords[i]`` is K_sigma(z) for ``sigmas[i]``, all on one common scale;
    ``derivs[key]`` are the z-directional derivatives of the coordinates on
    the same scale (chain-rule factor for the doubled argument included).
    """

    coords: np.ndarray
    base: AbelianPoint
    sigmas: list
    derivs: dict
    log_scale: float


def _round_up(h: float) -> float:
    """h rounded up to a 36-bit mantissa (relative step 2^-36); inf stays inf."""
    if not math.isfinite(h):
        return h
    mantissa, exponent = math.frexp(h)
    return math.ldexp(math.ceil(mantissa * 2.0**36) / 2.0**36, exponent)


def _doubled_evaluator(rm, keys, target_abs_err):
    """The evaluator at 2 tau for these requests, held on rm for the next call.

    It is sized for the requests' norm profiles rounded up to a relative
    step of 2^-36, which only widens the tail bound: the gauges
    (U, V) -> (lam U, lam^2 V), |lam| = 1, whose norms differ in their last
    bits, then share one evaluator.  rm keeps the last (2 tau, sizing,
    evaluator), so the scans of one tau build RiemannMatrix(2 tau) once and
    an evaluator once per sizing, and nothing grows with the number of tau.
    """
    profiles = frozenset(tuple(map(_round_up, p)) for p in _request_profiles(keys))
    sizing = (profiles, target_abs_err)
    held = rm._doubled
    if held is None or held[1] != sizing:
        rm2 = RiemannMatrix(2.0 * rm.tau) if held is None else held[0]
        ev = BatchThetaEvaluator(rm2, target_abs_err=target_abs_err, profiles=profiles)
        held = rm._doubled = (rm2, sizing, ev)
    return held[2]


def _kummer_coords(rm, zs, keys, target_abs_err):
    """Second-order coordinates and their derivatives at the rows of zs.

    Returns ``(coords, derivs, log_scale)``: coords (H, 2^g) and derivs
    {key: (H, 2^g)} on one common scale per point, and that scale (H,).
    All H * 2^g characteristic points are bound on one evaluator at 2 tau.
    """
    eps = np.asarray(second_order_sigmas(rm.g), dtype=float) / 2.0
    count, n = len(zs), len(eps)
    ev = _doubled_evaluator(rm, keys, target_abs_err)
    res = ev.characteristic_jets(np.repeat(2.0 * zs, n, axis=0), np.tile(eps, (count, 1)),
                                 np.zeros((count * n, rm.g)), keys)
    scales = res["scales"].reshape(count, n)
    log_scale = scales.max(axis=1)
    rel = np.exp(scales - log_scale[:, None])
    coords = rel * res[()].reshape(count, n)
    derivs = {key: 2.0 ** len(key) * rel * res[key].reshape(count, n) for key in keys}
    return coords, derivs, log_scale


def kummer_map(z, tau, requests=()) -> KummerPoint:
    """Evaluate the second-order theta coordinates and their derivatives.

    Each coordinate is theta[sigma/2, 0](2z, 2 tau); a z-derivative of order
    k along given directions equals 2^k times the corresponding derivative
    of that function at the doubled argument.  All 2^g characteristics are
    bound at once on one evaluator at 2 tau.
    """
    rm = as_riemann_matrix(tau)
    point = as_point(z)
    keys = _normalize_requests(requests, rm.g)
    coords, derivs, log_scale = _kummer_coords(
        rm, _check_points([point], rm.g), keys, DEFAULT_TARGET_ABS_ERR)
    return KummerPoint(coords=coords[0], base=point, sigmas=second_order_sigmas(rm.g),
                       derivs={key: d[0] for key, d in derivs.items()},
                       log_scale=float(log_scale[0]))


def _singular_ratio_stack(mats):
    """``singular_ratios`` of each matrix of an (H, R, N) stack, as an (H, K-1) array."""
    norms = np.linalg.norm(mats, axis=2)
    max_norm = norms.max(axis=1, initial=0.0)[:, None]
    if np.any(max_norm < 1e-300):
        raise DegenerateJetError("all jet rows are numerically zero")
    scaled = mats / np.where(norms > 1e-12 * max_norm, norms, max_norm)[:, :, None]
    svals = np.linalg.svd(scaled, compute_uv=False)
    return svals[:, 1:] / svals[:, :1]


def singular_ratios(rows) -> list:
    """Singular-value ratios sigma_k/sigma_1 of row-normalized stacked rows.

    Rows are scaled to unit norm (relatively negligible rows are left small:
    they carry no rank).  Raises when every row is numerically zero.
    """
    mat = np.array([np.asarray(r, dtype=complex).reshape(-1) for r in rows])
    return _singular_ratio_stack(mat[None])[0].tolist()


@dataclass
class HalfCandidate:
    b: AbelianPoint
    m: tuple
    n: tuple
    sigma_ratios: list
    passed: bool


@dataclass
class FlexReport:
    """Rank verdict for a second- or third-order germ under the Kummer map."""

    b: AbelianPoint
    sigma_ratios: list
    order: str  # "second" | "third"
    passed: bool
    tolerance: float
    tested_halves: list | None = None

    @property
    def rank_ratio(self) -> float:
        """The deciding ratio sigma_3/sigma_1 (0 when fewer than 3 values)."""
        return _deciding(self.sigma_ratios)


def _flex_germ(rm, U, V, order, W):
    """Checked germ directions (U, V, W) at V orthogonal to U, and the flex rows' requests."""
    U, V = _check_vector(U, rm.g, "U"), _check_vector(V, rm.g, "V")
    if float(np.linalg.norm(U)) == 0.0:
        raise InvalidInputError("flex germ requires U != 0")
    if order not in (2, 3):
        raise InvalidInputError("order must be 2 or 3")
    if order == 3 and W is None:
        raise InvalidInputError("order-3 germ requires W")
    V, W = _galilean(U, V, _check_vector(W, rm.g, "W") if order == 3 else None)
    third = [] if W is None else [(U, U, U), (U, V), (W,)]
    return U, V, W, [(U,), (U, U), (V,), *third]


def _flex_ratios(rm, bs, germ, target_abs_err):
    """Singular-value ratios (H, K-1) of the flex jet rows at each row b of bs.

    Jet rows at eps = 0: K(b), 2 D_U K, 4 D_U^2 K + 4 D_V K and, for an
    order-3 germ (W given), 8 D_U^3 K + 24 D_U D_V K + 12 D_W K.
    """
    U, V, W, requests = germ
    coords, derivs, _ = _kummer_coords(rm, bs, _normalize_requests(requests, rm.g),
                                       target_abs_err)

    def D(*dirs):
        return derivs[canonical_request(dirs)]

    rows = [coords, 2.0 * D(U), 4.0 * D(U, U) + 4.0 * D(V)]
    if W is not None:
        rows.append(8.0 * D(U, U, U) + 24.0 * D(U, V) + 12.0 * D(W))
    return _singular_ratio_stack(np.stack(rows, axis=1))


def _deciding(ratios) -> float:
    """sigma_3/sigma_1 from sigma_k/sigma_1, k >= 2 (0 when fewer than 3 values)."""
    return ratios[1] if len(ratios) >= 2 else 0.0


def flex_test(b, U, V, tau, order: int = 2, W=None, tolerance: float = 1e-6,
              target_abs_err: float = DEFAULT_TARGET_ABS_ERR) -> FlexReport:
    """Test whether the germ eps -> b + 2U eps + 2V eps^2 (+ 2W eps^3)
    maps under the Kummer coordinates into a single projective line.

    Jet rows at eps = 0: K(b), 2 D_U K, 4 D_U^2 K + 4 D_V K and, at order
    three, 8 D_U^3 K + 24 D_U D_V K + 12 D_W K.  Pass when the rows have
    numerical rank <= 2 (sigma_3/sigma_1 <= tolerance after row
    normalization).
    """
    tolerance = _check_real(tolerance, "tolerance")
    rm = as_riemann_matrix(tau)
    germ = _flex_germ(rm, U, V, order, W)
    point = as_point(b)
    ratios = _flex_ratios(rm, _check_points([point], rm.g), germ, target_abs_err)[0].tolist()
    return FlexReport(
        b=point,
        sigma_ratios=ratios,
        order="third" if order == 3 else "second",
        passed=_deciding(ratios) <= tolerance,
        tolerance=float(tolerance),
    )


def half_points(a, tau) -> list:
    """All 2^(2g) reduced solutions b of 2b = a modulo the lattice.

    Ordered by the (m, n) in {0,1}^g x {0,1}^g naming the half period
    (m + tau n)/2 added to a/2, lexicographically.
    """
    rm = as_riemann_matrix(tau)
    av = _check_vector(a, rm.g, "a")
    mn = np.array([m + n for m, n in product(second_order_sigmas(rm.g), repeat=2)], dtype=float)
    m, n = mn[:, :rm.g], mn[:, rm.g:]
    z0 = _reduce_coords(av / 2.0 + (m + n @ rm.tau) / 2.0, rm)[0]
    return [AbelianPoint(z, reduced=True) for z in z0]


def flex_scan(a, U, V, tau, order: int = 2, W=None, tolerance: float = 1e-6) -> FlexReport:
    """Run flex_test at every half point of a; pass when any candidate does.

    The report's b and ratios are those of the best candidate; per-candidate
    verdicts are kept in tested_halves, ordered by (m, n).  Every half-point
    is bound on one evaluator at 2 tau and decided by one stacked SVD.
    """
    tolerance = _check_real(tolerance, "tolerance")
    rm = as_riemann_matrix(tau)
    germ = _flex_germ(rm, U, V, order, W)
    halves = half_points(a, rm)
    ratios = _flex_ratios(rm, np.array([b.z for b in halves]), germ, DEFAULT_TARGET_ABS_ERR)
    labels = product(second_order_sigmas(rm.g), repeat=2)
    candidates = [HalfCandidate(b=b, m=m, n=n, sigma_ratios=row,
                                passed=_deciding(row) <= tolerance)
                  for b, (m, n), row in zip(halves, labels, ratios.tolist())]
    best = min(candidates, key=lambda c: _deciding(c.sigma_ratios))
    return FlexReport(
        b=best.b,
        sigma_ratios=best.sigma_ratios,
        order="third" if order == 3 else "second",
        passed=any(c.passed for c in candidates),
        tolerance=float(tolerance),
        tested_halves=candidates,
    )


def even_characteristics(g: int) -> list:
    """All characteristics with entries in {0, 1/2} whose theta is even."""
    halves = list(product((0.0, 0.5), repeat=g))
    chars = (Characteristic(eps, delta) for eps in halves for delta in halves)
    return [ch for ch in chars if ch.is_even()]


def decomposability_indicator(tau, target_abs_err: float = DEFAULT_TARGET_ABS_ERR) -> float:
    """min/max of the 10 even theta-null magnitudes (genus 2 only).

    A product of elliptic curves has a vanishing even theta null, driving
    the indicator to zero; on indecomposable period matrices it is
    order-one.  The ratio is computed from true magnitudes via log-scales,
    so it is independent of the engine's internal scaling.
    """
    rm = as_riemann_matrix(tau)
    if rm.g != 2:
        raise UnsupportedGenusError(
            f"decomposability indicator is defined for genus 2 only (got {rm.g})"
        )
    evens = even_characteristics(2)
    assert len(evens) == 10
    ev = _evaluator_for(rm, [], target_abs_err)
    res = ev.characteristic_jets(np.zeros((len(evens), 2)), np.array([ch.eps for ch in evens]),
                                 np.array([ch.delta for ch in evens]), [])
    log_mags = res["scales"] + np.log(np.maximum(np.abs(res[()]), 1e-300))
    return math.exp(log_mags.min() - log_mags.max())
