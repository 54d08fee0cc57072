"""Second-order theta coordinates, flex tests, and related projective checks.

The map into P^(2^g - 1) uses the standard second-order characteristic basis

    K_sigma(z) = theta[sigma/2, 0](2z, 2*tau),   sigma in {0,1}^g,

which is even in z.  Flex-type conditions are tested as numerical rank
statements about the jet matrix of eps -> K(b + 2U eps + 2V eps^2 [+ 2W
eps^3]): the germ lies over a line in projective space exactly when the
stacked jet rows have rank <= 2, measured by the singular-value ratio
sigma_3/sigma_1 after row normalization.  Coordinates are materialized on a
common exponential scale per point (one global factor, projectively
irrelevant), so rank and ratios refer to the true homogeneous values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .bilinear import as_riemann_matrix
from .engine import (
    AbelianPoint,
    Characteristic,
    DEFAULT_TARGET_ABS_ERR,
    RiemannMatrix,
    _evaluator_for,
    _normalize_requests,
    as_point,
    canonical_request,
    reduce_point,
    theta_char_eval,
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


def kummer_map(z, tau, requests=(), target_abs_err: float = DEFAULT_TARGET_ABS_ERR) -> KummerPoint:
    """Evaluate the second-order theta coordinates and their derivatives.

    Each coordinate is theta[sigma/2, 0](2z, 2 tau); a z-derivative of order
    k along given directions equals 2^k times the corresponding derivative
    of that function at the doubled argument.  All 2^g characteristics are
    bound at once on one evaluator at 2 tau.
    """
    rm = as_riemann_matrix(tau)
    point = as_point(z)
    rm2 = RiemannMatrix(2.0 * rm.tau)
    keys = _normalize_requests(requests, rm.g)
    sigmas = second_order_sigmas(rm.g)
    eps = np.asarray(sigmas, dtype=float) / 2.0
    ev = _evaluator_for(rm2, keys, target_abs_err)
    res = ev.bind_characteristic(2.0 * point.z, eps, np.zeros_like(eps)).jets(keys)
    log_scale = float(res["scales"].max())
    rel = np.exp(res["scales"] - log_scale)
    coords = rel * res[()]
    derivs = {key: 2.0 ** len(key) * rel * res[key] for key in keys}
    return KummerPoint(coords=coords, base=point, sigmas=sigmas, derivs=derivs,
                       log_scale=log_scale)


def singular_ratios(rows) -> list:
    """Singular-value ratios sigma_k/sigma_1 of row-normalized stacked rows.

    Rows are scaled to unit norm (relatively negligible rows are left small:
    they carry no rank).  Raises when every row is numerically zero.
    """
    mat = np.array([np.asarray(r, dtype=complex).reshape(-1) for r in rows])
    norms = np.linalg.norm(mat, axis=1)
    max_norm = float(norms.max(initial=0.0))
    if max_norm < 1e-300:
        raise DegenerateJetError("all jet rows are numerically zero")
    scaled = np.empty_like(mat)
    for i, norm in enumerate(norms):
        scaled[i] = mat[i] / (norm if norm > 1e-12 * max_norm else max_norm)
    svals = np.linalg.svd(scaled, compute_uv=False)
    return [float(s / svals[0]) for s in svals[1:]]


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
        return self.sigma_ratios[1] if len(self.sigma_ratios) >= 2 else 0.0


def _flex_rows(kp: KummerPoint, U, V, W, order: int):
    u_key = canonical_request((U,))
    rows = [kp.coords, 2.0 * kp.derivs[u_key]]
    rows.append(4.0 * kp.derivs[canonical_request((U, U))] + 4.0 * kp.derivs[canonical_request((V,))])
    if order == 3:
        rows.append(
            8.0 * kp.derivs[canonical_request((U, U, U))]
            + 24.0 * kp.derivs[canonical_request((U, V))]
            + 12.0 * kp.derivs[canonical_request((W,))]
        )
    return rows


def flex_test(b, U, V, tau, order: int = 2, W=None, tolerance: float = 1e-6,
              target_abs_err: float = DEFAULT_TARGET_ABS_ERR) -> FlexReport:
    """Test whether the germ eps -> b + 2U eps + 2V eps^2 (+ 2W eps^3)
    maps under the Kummer coordinates into a single projective line.

    Jet rows at eps = 0: K(b), 2 D_U K, 4 D_U^2 K + 4 D_V K and, at order
    three, 8 D_U^3 K + 24 D_U D_V K + 12 D_W K.  Pass when the rows have
    numerical rank <= 2 (sigma_3/sigma_1 <= tolerance after row
    normalization).
    """
    rm = as_riemann_matrix(tau)
    U = np.asarray(U, dtype=complex).reshape(-1)
    V = np.asarray(V, dtype=complex).reshape(-1)
    if U.shape != (rm.g,) or V.shape != (rm.g,):
        raise InvalidInputError(f"U and V must be complex vectors of length {rm.g}")
    if float(np.linalg.norm(U)) == 0.0:
        raise InvalidInputError("flex germ requires U != 0")
    if order not in (2, 3):
        raise InvalidInputError("order must be 2 or 3")
    if order == 3:
        if W is None:
            raise InvalidInputError("order-3 germ requires W")
        W = np.asarray(W, dtype=complex).reshape(-1)
        if W.shape != (rm.g,):
            raise InvalidInputError(f"W must be a complex vector of length {rm.g}")
        requests = [(U,), (U, U), (V,), (U, U, U), (U, V), (W,)]
    else:
        requests = [(U,), (U, U), (V,)]
    kp = kummer_map(b, rm, requests, target_abs_err)
    rows = _flex_rows(kp, U, V, W, order)
    ratios = singular_ratios(rows)
    deciding = ratios[1] if len(ratios) >= 2 else 0.0
    return FlexReport(
        b=as_point(b),
        sigma_ratios=ratios,
        order="third" if order == 3 else "second",
        passed=deciding <= tolerance,
        tolerance=float(tolerance),
    )


def half_points(a, tau) -> list:
    """All 2^(2g) reduced solutions b of 2b = a modulo the lattice.

    Ordered by the (m, n) in {0,1}^g x {0,1}^g naming the half period
    (m + tau n)/2 added to a/2, lexicographically.
    """
    rm = as_riemann_matrix(tau)
    av = as_point(a).z
    if av.shape != (rm.g,):
        raise InvalidInputError(f"a must be a complex vector of length {rm.g}")
    out = []
    for m in product((0, 1), repeat=rm.g):
        for n in product((0, 1), repeat=rm.g):
            pt = av / 2.0 + (np.asarray(m, dtype=float) + rm.tau @ np.asarray(n, dtype=float)) / 2.0
            out.append(reduce_point(pt, rm)[0])
    return out


def flex_scan(a, U, V, tau, order: int = 2, W=None, tolerance: float = 1e-6,
              target_abs_err: float = DEFAULT_TARGET_ABS_ERR) -> FlexReport:
    """Run flex_test at every half point of a; pass when any candidate does.

    The report's b and ratios are those of the best candidate; per-candidate
    verdicts are kept in tested_halves, ordered by (m, n).
    """
    rm = as_riemann_matrix(tau)
    candidates = []
    reports = []
    index = 0
    halves = half_points(a, rm)
    for m in product((0, 1), repeat=rm.g):
        for n in product((0, 1), repeat=rm.g):
            b = halves[index]
            index += 1
            rep = flex_test(b, U, V, rm, order, W, tolerance, target_abs_err)
            reports.append(rep)
            candidates.append(HalfCandidate(
                b=b, m=m, n=n, sigma_ratios=rep.sigma_ratios, passed=rep.passed,
            ))
    best = min(reports, key=lambda r: r.rank_ratio)
    return FlexReport(
        b=best.b,
        sigma_ratios=best.sigma_ratios,
        order=best.order,
        passed=any(r.passed for r in reports),
        tolerance=float(tolerance),
        tested_halves=candidates,
    )


def even_characteristics(g: int) -> list:
    """All characteristics with entries in {0, 1/2} whose theta is even."""
    out = []
    for eps in product((0.0, 0.5), repeat=g):
        for delta in product((0.0, 0.5), repeat=g):
            ch = Characteristic(eps, delta)
            if ch.is_even():
                out.append(ch)
    return out


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
    zeros = np.zeros(2)
    log_mags = []
    for ch in evens:
        jet = theta_char_eval(zeros, rm, ch, (), target_abs_err)
        log_mags.append(jet.scale_exponent + math.log(max(abs(jet.value), 1e-300)))
    return math.exp(min(log_mags) - max(log_mags))
