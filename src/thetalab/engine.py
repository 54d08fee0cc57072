"""Riemann theta functions with directional derivatives and error control.

Conventions (used everywhere in this package):

    theta(z, tau) = sum_{n in Z^g} exp(pi*i * n.tau.n + 2*pi*i * n.z)

    theta[eps, delta](z, tau)
        = sum_{n in Z^g} exp(pi*i * (n+eps).tau.(n+eps) + 2*pi*i * (n+eps).(z+delta))
        = exp(pi*i * eps.tau.eps + 2*pi*i * eps.(z+delta)) * theta(z + delta + tau@eps, tau)

with eps, delta having entries in {0, 1/2}.

There is one evaluation path.  ``BatchThetaEvaluator`` sizes a lattice for
the derivative requests it will serve (their direction norms) and a target
error; ``BoundBatch`` prepares a fixed set of points (reduction, scales, phase
tables); ``BoundBatch.jets`` builds the lattice terms one block of pairs
n, -n at a time and adds each block into the sums of every requested
direction list at once.  The evaluator's ``jets`` and ``characteristic_jets`` bind a whole
point set at once.  Pointwise reads have one owner, ``_reader``: one
evaluator sized for a caller's requests, each read binding the points and
their shifted copies z + a in one bind.  Every pointwise caller reads theta
through it but the characteristic binds (``theta_char_eval`` and the Kummer
map) and the search models, which reuse basis tensors across candidates.

Input checks and lattice sizing have one owner each: ``_check_vector``
(and ``_check_scalar``, ``_check_points``) refuses wrong-length or
non-finite input with ``InvalidInputError``, as ``BoundBatch`` does for a
bound point that is non-finite or not of length g, and ``_evaluator_for``
sizes every library evaluator from the derivative requests it will serve,
each request charged for its own directions.

Every point is first reduced modulo the lattice Z^g + tau Z^g and the
exponential growth is factored into a real ``scale_exponent``:

    true value  = exp(jet.scale_exponent) * jet.value
    true D^a theta = exp(jet.scale_exponent) * jet.derivs[a]

so stored numbers stay O(1).  The unit-modulus phase of the quasi-periodicity
multiplier is folded into the stored numbers; only the real exponent is
factored out.  A derivative along h multiplies each lattice term by
2*pi*i*<n, h>.  The reduction multiplier, and the prefactor of a
characteristic, are exp(L(z)) with L linear; both join one linear exponent
whose gradient is 2*pi*i*(eps - m), m the reduction's tau-shift, and its
derivatives are applied exactly by one subset-sum pass
(``_linear_correction``).

Terms are summed in pairs n, -n: the ellipsoid is symmetric, t(n) and t(-n)
share the lattice phase exp(pi*i n.Re(tau).n) and the quadratic part of
the modulus, and a derivative weight of order k changes sign as (-1)^k.
So terms are built on the half lattice only (the origin and one of each
pair), and each pair gives t(n) + t(-n) to the even-order rows,
t(n) - t(-n) to the odd-order rows and |t(n)| + |t(-n)| to every absolute
sum; this halves the gathers, the complex products and both matrix
products of a plain sum, and an odd-order derivative at z = 0 is exactly 0.
Terms are built without a complex exponential of the term matrix: the
moduli exp(-pi (n + c).Im(tau).(n + c)) of both signs are one real matrix
product and one real exponential (a negative exponent, so it cannot
overflow), and the phase exp(2*pi*i n.Re(z0)) of t(n) is a product of
per-coordinate tables exp(2*pi*i j Re(z0)_k) gathered by the lattice's
integer coordinates (t(-n) has its conjugate).  The lattice phase is folded
into the derivative weights and the point's phase multiplies the sums.  The
(L, P) term matrix is never held: a ``jets`` call keeps
O(P * (R + g * reach)) numbers (R requested rows, reach the largest lattice
coordinate) plus one block (see ``BoundBatch``).

Truncation: with |x|_Y = sqrt(x.Im(tau).x) and lambda = lambda_min(Im tau),
lattice points with |n + c|_Y <= sqrt(lambda) R are summed (c the imaginary
lattice coordinate of the reduced argument, in the box [-1/2, 1/2]^g).  One
lattice serves every reduced point: the ellipsoid |n|_Y <= sqrt(lambda) R +
mu, mu the largest |c|_Y over the box's vertices.  R is the smallest integer
whose tail bound is below the requested target: a Gaussian bound in the
metric of Im tau, per shell of |n + c|_Y / sqrt(lambda), with a point count
from the ellipsoid's volume and a polynomial margin factor for the
derivative weights (Deconinck, Heil, Bobenko, van Hoeij & Schmies, Math.
Comp. 2004; see ``_tail_bound``).  Every request is charged for its own
directions: on a shell of radius r the weight of a request along h_1..h_k
is at most prod_j max(1, 2*pi |h_j| r), and the margin is the largest of
these over the requests, so a long direction read only at low order costs
no more than that order needs.  R is capped at 40 / sqrt(lambda_min), and
the ellipsoid at ``MAX_LATTICE_POINTS``; beyond either, evaluation fails
rather than silently degrade.  Every point carries its own error bound on
stored numbers, (tail + 4e-16 * largest absolute term sum * sqrt(lattice
size)) times the largest growth prod_j (1 + |L(h_j)|) of the linear
correction over the requests; the lattice size counts every point of the
ellipsoid, both sides of each pair.  Enumeration order is fixed
(lexicographic, through a triangular factor of Im tau; the half lattice is
the origin and the points after it) and sums are matrix products over that
order, so results are deterministic on a given numpy/BLAS build.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidInputError,
    PrecisionUnreachableError,
    TauNotPositiveDefiniteError,
    TauNotSymmetricError,
)

PI = math.pi
TWO_PI_I = 2j * math.pi

MAX_DERIVATIVE_ORDER = 4
RADIUS_CAP_FACTOR = 40.0
DEFAULT_TARGET_ABS_ERR = 1e-12
# Terms (lattice rows x points) built and contracted per block of a jets
# call: a block and its temporaries stay small and in cache
_BLOCK_TERMS = 2**14


class RiemannMatrix:
    """A g x g complex symmetric matrix tau with positive definite Im(tau)."""

    def __init__(self, tau):
        tau = np.atleast_2d(np.asarray(tau, dtype=complex))
        if tau.ndim != 2 or tau.shape[0] != tau.shape[1]:
            raise InvalidInputError("tau must be a square matrix")
        if not np.all(np.isfinite(tau.real)) or not np.all(np.isfinite(tau.imag)):
            raise InvalidInputError("tau has non-finite entries")
        scale = float(np.max(np.abs(tau)))
        if scale == 0.0:
            raise TauNotPositiveDefiniteError("Im(tau) is not positive definite")
        asym = float(np.max(np.abs(tau - tau.T)))
        if asym > 1e-12 * scale:
            raise TauNotSymmetricError(
                f"tau is not symmetric: max asymmetry {asym:.3e} exceeds 1e-12 * {scale:.3e}"
            )
        self.tau = 0.5 * (tau + tau.T)
        self.g = int(tau.shape[0])
        self.X = np.ascontiguousarray(self.tau.real)
        self.Y = np.ascontiguousarray(self.tau.imag)
        try:
            np.linalg.cholesky(self.Y)  # the positive-definiteness check
        except np.linalg.LinAlgError as exc:
            raise TauNotPositiveDefiniteError("Im(tau) is not positive definite") from exc
        self.Yinv = np.linalg.inv(self.Y)
        self.lambda_min = float(np.linalg.eigvalsh(self.Y)[0])
        if self.lambda_min <= 0.0:
            raise TauNotPositiveDefiniteError("Im(tau) is not positive definite")
        # (2 tau, sizing, evaluator) of the last Kummer-coordinate read on
        # this tau, kept by kummer._doubled_evaluator
        self._doubled = None

    @functools.cached_property
    def density(self) -> float:
        """sqrt(lambda_min^g / det Y) <= 1: a Y-ellipsoid's volume over the lambda_min ball's."""
        return math.exp(0.5 * (self.g * math.log(self.lambda_min) - np.linalg.slogdet(self.Y)[1]))

    @functools.cached_property
    def box_margin(self) -> float:
        """mu = max over the box vertices c in {-1/2, 1/2}^g of |c|_Y = sqrt(c.Y.c)."""
        vertices = np.indices((2,) * self.g).reshape(self.g, -1).T - 0.5
        return math.sqrt(float(((vertices @ self.Y) * vertices).sum(axis=1).max()))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"RiemannMatrix(g={self.g})"


@dataclass(frozen=True, eq=False)
class AbelianPoint:
    """A point of C^g, optionally reduced modulo the lattice Z^g + tau Z^g."""

    z: np.ndarray
    reduced: bool = False

    def __post_init__(self):
        object.__setattr__(self, "z", np.asarray(self.z, dtype=complex).reshape(-1))


def as_point(z) -> AbelianPoint:
    """Coerce a vector or AbelianPoint to an AbelianPoint."""
    if isinstance(z, AbelianPoint):
        return z
    return AbelianPoint(np.asarray(z, dtype=complex))


@dataclass(frozen=True, eq=False)
class Characteristic:
    """Half-integer characteristic: eps, delta with entries in {0, 1/2}."""

    eps: np.ndarray
    delta: np.ndarray

    def __post_init__(self):
        eps = np.asarray(self.eps, dtype=float).reshape(-1)
        delta = np.asarray(self.delta, dtype=float).reshape(-1)
        for name, arr in (("eps", eps), ("delta", delta)):
            if not np.all(np.isin(arr, (0.0, 0.5))):
                raise InvalidInputError(f"characteristic {name} entries must be 0 or 1/2")
        if eps.shape != delta.shape:
            raise InvalidInputError("characteristic eps and delta must have equal length")
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "delta", delta)

    def is_even(self) -> bool:
        """True when exp(4*pi*i*eps.delta) = 1, i.e. theta[ch] is an even function."""
        return int(round(4.0 * float(self.eps @ self.delta))) % 2 == 0


def canonical_request(request) -> tuple:
    """Canonical hashable key for a derivative request (ordered direction list)."""
    return tuple(tuple(np.asarray(h, dtype=complex).reshape(-1).tolist()) for h in request)


@dataclass(eq=False)
class ThetaJet:
    """Value and directional derivatives of a theta function at one point.

    Stored numbers are on the factored scale: the true quantity is
    ``exp(scale_exponent) * stored``.  ``abs_sums`` holds, per request, the
    sum of absolute values of the lattice-series terms on the same scale --
    the natural local magnitude used for pole/divisor thresholds and for
    single-series normalization.  ``error_bound`` is an absolute bound, on
    the stored scale, for the truncation error of the value and of every
    requested derivative.
    """

    value: complex
    derivs: dict
    error_bound: float
    scale_exponent: float
    abs_sums: dict = field(default_factory=dict)

    def d(self, request) -> complex:
        key = canonical_request(request)
        if key == ():
            return self.value
        return self.derivs[key]

    def abs_sum(self, request=()) -> float:
        return self.abs_sums[canonical_request(request)]


def _check_vector(z, g, what="z"):
    """A vector or AbelianPoint as a finite complex (g,) array, else InvalidInputError."""
    z = np.asarray(z.z if isinstance(z, AbelianPoint) else z, dtype=complex).reshape(-1)
    if z.shape != (g,):
        raise InvalidInputError(f"{what} must be a complex vector of length {g}")
    if not np.isfinite(z).all():
        raise InvalidInputError(f"{what} has non-finite components")
    return z


def _check_scalar(x, what):
    """x as a finite complex number, else InvalidInputError."""
    return complex(_check_vector(x, 1, what)[0])


def _check_real(x, what):
    """x as a finite real number, else InvalidInputError."""
    value = _check_scalar(x, what)
    if value.imag:
        raise InvalidInputError(f"{what} must be a real number, got {value}")
    return value.real


def _check_points(points, g):
    """Points (AbelianPoints or vectors) as validated rows of a (P, g) array."""
    rows = [_check_vector(p, g) for p in points]
    return np.array(rows, dtype=complex).reshape(len(rows), g)


def _point_rows(points, g):
    """Points to bind as a complex (P, g) array: rows of length g, or one (g,) vector."""
    pts = np.asarray(points, dtype=complex)
    if pts.ndim > 2 or pts.shape[-1:] != (g,):
        raise InvalidInputError(f"bound points must have length {g}, got shape {pts.shape}")
    return pts.reshape(-1, g)


def _lattice_coords(z, rm):
    """Real lattice coordinates (alpha, beta) with z = alpha + tau beta, for (g,) or (P, g)."""
    beta = z.imag @ rm.Yinv
    return z.real - beta @ rm.X, beta


def _reduce_coords(z, rm):
    """Split z = z0 + tau m + n for one point (g,) or a stack (P, g).

    The reduced representative z0 has both real lattice coordinates in
    [-1/2, 1/2).
    """
    alpha, beta = _lattice_coords(z, rm)
    m = np.floor(beta + 0.5)
    n = np.floor(alpha + 0.5)
    return z - m @ rm.tau - n, m, n


def _reduction_exponent(z0, m, rm):
    """Log of the multiplier theta(z0 + tau m + n) / theta(z0), for (g,) or (P, g).

    It is -pi*i*m.tau.m - 2*pi*i*m.z0 = -2*pi*i*m.(z0 + tau m / 2).
    """
    return -TWO_PI_I * (m * (z0 + 0.5 * (m @ rm.tau))).sum(axis=-1)


def reduce_point(z, tau: RiemannMatrix):
    """Reduce z modulo the lattice, returning the exact multiplier data.

    Returns ``(point, quasiperiod_factor, factor_exponent)`` with
    ``theta(z) = exp(factor_exponent) * quasiperiod_factor * theta(point.z)``
    and ``|quasiperiod_factor| = 1``.
    """
    rm = tau
    zv = _check_vector(z, rm.g)
    z0, m, _ = _reduce_coords(zv, rm)
    exponent = _reduction_exponent(z0, m, rm)
    return (
        AbelianPoint(z0, reduced=True),
        complex(np.exp(1j * exponent.imag)),
        float(exponent.real),
    )


def lattice_coords(z, rm: RiemannMatrix):
    """Real lattice coordinates (alpha, beta) with z = alpha + tau beta."""
    return _lattice_coords(_check_vector(z, rm.g), rm)


def box_points(rm: RiemannMatrix, rng, count: int) -> np.ndarray:
    """``count`` uniform points x + tau y of the fundamental box, x, y in [-1/2, 1/2)^g."""
    if count < 0:
        raise InvalidInputError(f"sample count must be non-negative, got {count}")
    x = rng.uniform(-0.5, 0.5, size=(count, rm.g))
    y = rng.uniform(-0.5, 0.5, size=(count, rm.g))
    return x + y @ rm.tau


def _weight_envelope(profiles) -> list:
    """Coefficients q_m with max over profiles of prod_j max(1, 2*pi h_j r) = max_m q_m r^m.

    A profile is a request's direction norms (|h_1|, ..., |h_k|).  Each
    factor max(1, x) is the larger of leaving x out and taking it, so a
    profile's weight at r is the largest r^m times the product of its m
    largest scaled norms 2*pi h_j, m = 0..k; the maximum over profiles then
    takes q_m as the largest such product.  So a dominated profile -- no
    longer than another and, both sorted in descending order, elementwise at
    most it -- changes no q_m, and the cost of a shell weight is set by the
    largest order, not by the number of requests.
    """
    envelope = [1.0] + [0.0] * max(map(len, profiles), default=0)
    for profile in profiles:
        product = 1.0
        for m, h in enumerate(sorted(profile, reverse=True), 1):
            product *= 2.0 * PI * h
            if product > envelope[m]:
                envelope[m] = product
    return envelope


def _shell_constants(rm: RiemannMatrix) -> tuple[float, float]:
    """nu = mu / sqrt(lambda_min) and V_g sqrt(lambda_min^g / det Y), V_g the unit ball's volume."""
    g = rm.g
    return (rm.box_margin / math.sqrt(rm.lambda_min),
            PI ** (g / 2.0) / math.gamma(g / 2.0 + 1.0) * rm.density)


def _tail_bound(rm: RiemannMatrix, radius: float, envelope, shells=None) -> float:
    """Upper bound on sum_{|v|_Y > sqrt(lambda) radius} weight(n) * exp(-pi |v|_Y^2), v = n + c.

    Here |x|_Y = sqrt(x.Y.x), lambda = lambda_min(Y), c is any point of the
    box [-1/2, 1/2]^g and nu = mu / sqrt(lambda), mu the box margin
    (``RiemannMatrix.box_margin``).  On the shell t <= |v|_Y / sqrt(lambda)
    < t + 1 the unit cubes around the points n lie in the Y-ellipsoid of
    radius sqrt(lambda) (t + 1) + mu, so there are at most
    V_g sqrt(lambda^g / det Y) (t + 1 + nu)^g of them; each has Euclidean
    |n| <= |n|_Y / sqrt(lambda) < r = t + 1 + nu and a term at most
    exp(-pi lambda t^2).  Each request is charged for its own directions:
    the weight |prod_j 2*pi*i <n, h_j>| of a request is at most
    prod_j max(1, 2*pi |h_j| r) on the shell, and the shell's weight is the
    largest of these over the requests, max_m q_m r^m for the
    ``_weight_envelope`` q of their norm profiles.  Shells are summed from
    t = floor(radius) until one adds at most 1e-9 of the total; ``shells``,
    when given, memoizes their terms by t across calls on one rm and envelope.
    A shell term past the float range raises ``PrecisionUnreachableError``.
    """
    lam, g = rm.lambda_min, rm.g
    nu, count = _shell_constants(rm)
    shells, coeffs = {} if shells is None else shells, envelope[1:]
    total = 0.0
    t0 = max(int(math.floor(radius)), 0)
    for t in range(t0, t0 + 800):
        term = shells.get(t)
        if term is None:
            r_out = t + 1.0 + nu
            weight = power = 1.0
            for q in coeffs:  # max_m q_m r_out^m
                power *= r_out
                if q * power > weight:
                    weight = q * power
            term = count * r_out ** g * weight * math.exp(-PI * lam * t * t)
            if not math.isfinite(term):  # inf, or inf * 0.0 = nan past exp's underflow
                raise PrecisionUnreachableError(
                    f"derivative weight overflows (order {len(envelope) - 1}, weight "
                    f"coefficients up to {max(envelope):.2e}); no truncation radius bounds it"
                )
            shells[t] = term
        total += term
        if term <= 1e-9 * total:
            break
    return total


MAX_LATTICE_POINTS = 2e7


def _choose_radius(rm: RiemannMatrix, target: float, profiles) -> tuple[int, float]:
    """The smallest integer radius whose tail bound is at most ``target``, and that bound.

    The tail changes only at integer radii (its shells start at floor(R)).
    The search steps by 1 from the largest radius R0 below which every
    radius fails: there the first shell alone, at least
    V_g sqrt(lambda^g / det Y) exp(-pi lambda R^2), exceeds the target.  The
    radius is capped at 40 / sqrt(lambda_min), and the ellipsoid of
    ``_lattice_points`` must hold at most ``MAX_LATTICE_POINTS``; both limits
    raise ``PrecisionUnreachableError``.
    """
    envelope, shells = _weight_envelope(profiles), {}
    lam, g = rm.lambda_min, rm.g
    nu, count = _shell_constants(rm)
    cap = RADIUS_CAP_FACTOR / math.sqrt(lam)
    radius = int(math.sqrt(max(math.log(count / target), 0.0) / (PI * lam)))
    while True:
        if radius > cap:
            raise PrecisionUnreachableError(
                f"truncation radius above the cap {cap:.2f} "
                f"(lambda_min={lam:.3e}); target {target:.2e} unreachable"
            )
        # Memory guard, an engineering limit beside the radius cap: the unit
        # cubes of the ellipsoid's points lie in the Y-ellipsoid of radius
        # sqrt(lambda) (radius + 2 nu)
        est_points = count * (radius + 2.0 * nu) ** g
        if est_points > MAX_LATTICE_POINTS:
            raise PrecisionUnreachableError(
                f"truncation ellipsoid needs ~{est_points:.2e} lattice points "
                f"(lambda_min={lam:.3e}); target {target:.2e} unreachable"
            )
        tail = _tail_bound(rm, radius, envelope, shells)
        if tail <= target:
            return radius, tail
        radius += 1


_LATTICE_CACHE: dict = {}


def _lattice_points(rm: RiemannMatrix, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The ellipsoid {n : |n|_Y <= sqrt(lambda_min) radius + mu} and its half lattice.

    Here |n|_Y = sqrt(n.Y.n) and mu is the box margin: every n with
    |n + c|_Y <= sqrt(lambda_min) radius, for any c in [-1/2, 1/2]^g, lies
    in it, so one lattice serves every reduced point.  The bound is widened
    by 1e-9 of itself, so that rounding never drops a point on it.  The
    points are enumerated coordinate by coordinate through a lower
    triangular factor M of Y = M^T M, whose row k involves n_1..n_k only:
    each prefix (n_1..n_k-1) leaves an interval of n_k.  Order:
    lexicographic.  The half lattice is the origin and the points after it,
    those whose first nonzero coordinate is positive (the origin first); the
    lattice is the negated half, reversed, followed by the half, so it is
    symmetric by construction.  Cached on (Y, radius), at most 64 entries.
    """
    key = (rm.Y.tobytes(), radius)
    cached = _LATTICE_CACHE.get(key)
    if cached is not None:
        return cached
    g = rm.g
    bound = (math.sqrt(rm.lambda_min) * radius + rm.box_margin) * (1.0 + 1e-9)
    factor = np.linalg.cholesky(rm.Y[::-1, ::-1]).T[::-1, ::-1]
    pts, budget = np.zeros((1, 0)), np.array([bound * bound])
    for k in range(g):
        diag = factor[k, k]
        centre = -(pts @ factor[k, :k]) / diag
        width = np.sqrt(np.maximum(budget, 0.0)) / diag
        low = np.ceil(centre - width)
        counts = np.maximum(np.floor(centre + width) - low + 1, 0).astype(np.intp)
        parent = np.repeat(np.arange(len(pts)), counts)
        step = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        coord = low[parent] + step
        pts = np.column_stack([pts[parent], coord])
        budget = budget[parent] - (diag * (coord - centre[parent])) ** 2
    half = pts[np.flatnonzero(~pts.any(axis=1))[0]:]
    if len(_LATTICE_CACHE) >= 64:
        _LATTICE_CACHE.clear()
    cached = _LATTICE_CACHE[key] = np.concatenate([-half[:0:-1], half]), half
    return cached


def _normalize_requests(requests, g):
    keys = {}  # an ordered set
    for req in requests:
        key = canonical_request(req)
        if len(key) > MAX_DERIVATIVE_ORDER:
            raise InvalidInputError(
                f"derivative request of order {len(key)} exceeds the maximum {MAX_DERIVATIVE_ORDER}"
            )
        for h in key:
            if len(h) != g:
                raise InvalidInputError("derivative direction has wrong length")
            if not all(math.isfinite(x.real) and math.isfinite(x.imag) for x in h):
                raise InvalidInputError("derivative direction has non-finite components")
        if key:
            keys[key] = None
    return list(keys)


# _REST_INDICES[k][mask]: the indices j < k whose bit is clear in mask
_REST_INDICES = [[tuple(j for j in range(k) if not mask >> j & 1) for mask in range(2**k)]
                 for k in range(MAX_DERIVATIVE_ORDER + 1)]


def _subset_closure(keys):
    """Every nonempty sub-request (index subset, order kept) of the keys, each once."""
    return list(dict.fromkeys(tuple(key[j] for j in idx) for key in keys
                              for idx in _REST_INDICES[len(key)] if idx))


def _parity(key) -> int:
    """1 for a request of odd order, 0 for one of even order."""
    return len(key) % 2


def _request_profiles(keys) -> set:
    """The requests' direction-norm profiles (|h_1|, ..., |h_k|)."""
    return {tuple([math.hypot(*map(abs, h)) for h in key]) for key in keys}


@functools.lru_cache(maxsize=64)
def _correction_plan(keys):
    """The rows a linear correction of ``keys`` reads and its index lists, built once per keys.

    ``keys`` is a tuple of requests, odd-order ones last.  Returns the rows
    -- (), then every sub-request of the keys, odd-order ones last -- and
    per order k the members (positions in ``keys``), their directions
    (members, k, g) and, per subset mask, the rows of the members' rest
    requests (2^k, members).
    """
    rows = [(), *sorted(_subset_closure(keys), key=_parity)]
    index = {key: r for r, key in enumerate(rows)}
    by_order = {}
    for i, key in enumerate(keys):
        by_order.setdefault(len(key), []).append(i)
    groups = [(members, np.array([keys[i] for i in members]),
               np.array([[index[tuple(keys[i][j] for j in idx)] for i in members]
                         for idx in _REST_INDICES[k]]))
              for k, members in by_order.items()]
    return rows, groups


def _linear_correction(groups, gradient, sums, abs_sums):
    """Derivatives of exp(L) * f from those of f, for L linear with a gradient per point.

    D^{h_1..h_k}(e^L f) = e^L * sum over subsets S of {1..k} of
    prod_{j in S} L(h_j) * D^{rest} f, with L_p(h) = 2*pi*i*<gradient[p], h>.
    Row r of ``sums`` and ``abs_sums`` (R, P) holds D^{rows[r]} f and its
    absolute term sum, for the rows and ``groups`` of ``_correction_plan``.
    Returns the corrected derivatives and absolute sums (K, P) in the order
    of the plan's keys (the factor e^L is left to the caller) and the
    per-point error growth, the maximum over keys of prod_j (1 + |L_p(h_j)|).
    """
    count = len(gradient)
    size = sum(len(members) for members, _, _ in groups)
    vals = np.empty((size, count), dtype=complex)
    absv = np.empty((size, count))
    growth = np.ones(count)
    for members, directions, rest in groups:
        lin = TWO_PI_I * np.einsum("pg,ejg->ejp", gradient, directions)
        coeffs = np.ones((1, len(members), count), dtype=complex)
        # coeffs[mask] = product of lin[:, j] over the set bits j
        for j in range(directions.shape[1]):
            coeffs = np.concatenate([coeffs, coeffs * lin[:, j]])
        vals[members] = np.einsum("sep,sep->ep", coeffs, sums[rest])
        absv[members] = np.einsum("sep,sep->ep", np.abs(coeffs), abs_sums[rest])
        growth = np.maximum(growth, np.prod(1.0 + np.abs(lin), axis=1).max(axis=0))
    return vals, absv, growth


def _evaluator_for(rm, keys, target_abs_err=DEFAULT_TARGET_ABS_ERR):
    """The evaluator sized for these canonical requests, each charged for its own directions.

    It passes the requests' norm profiles, so a large norm met only at low
    order costs no more than that order needs.  The tail bound covers every
    request among ``keys`` and every sub-request (the rows of a linear
    correction), whose profile is dominated by its request's.
    """
    return BatchThetaEvaluator(rm, target_abs_err=target_abs_err,
                               profiles=_request_profiles(keys))


def _reader(rm, requests, target_abs_err=DEFAULT_TARGET_ABS_ERR):
    """``read(points, shifts=(None,))`` on one evaluator sized for these requests.

    A read binds the points (rows of length g) and their copies points + a,
    one per shift a (None: the points themselves), in one bind.  It returns
    one row reader per shift, mapping a canonical key, ``("abs", key)``,
    ``"scales"`` or ``"error"`` to that entry's rows in point order.
    """
    keys = _normalize_requests(requests, rm.g)
    ev = _evaluator_for(rm, keys, target_abs_err)

    def read(points, shifts=(None,)):
        points = _point_rows(points, rm.g)
        res = ev.jets(np.concatenate([points if a is None else points + a for a in shifts]), keys)
        count = len(points)
        return [lambda key, i=i: res[key][i * count:(i + 1) * count] for i in range(len(shifts))]

    return read


def _single_jet(row, keys) -> ThetaJet:
    """The first point of a row reader as a ThetaJet."""
    return ThetaJet(
        value=complex(row(())[0]),
        derivs={key: complex(row(key)[0]) for key in keys},
        error_bound=float(row("error")[0]),
        scale_exponent=float(row("scales")[0]),
        abs_sums={key: float(row(("abs", key))[0]) for key in [(), *keys]},
    )


def theta_eval(z, tau: RiemannMatrix, requests=(),
               target_abs_err: float = DEFAULT_TARGET_ABS_ERR) -> ThetaJet:
    """Evaluate theta(z, tau) and requested directional derivatives.

    ``requests`` is an iterable of derivative multi-requests; each request is
    an ordered list of direction vectors (length <= 4).  The returned jet
    stores numbers on the factored scale (see module docstring).  This is a
    read of one point on an evaluator sized from the requests.
    """
    rm = tau
    zv = _check_vector(z, rm.g)
    keys = _normalize_requests(requests, rm.g)
    return _single_jet(_reader(rm, keys, target_abs_err)(zv)[0], keys)


def theta_char_eval(z, tau: RiemannMatrix, ch: Characteristic, requests=()) -> ThetaJet:
    """Evaluate theta[eps, delta](z, tau) with directional derivatives.

    Uses the shift identity from the module docstring: the plain series is
    bound at z + delta + tau@eps, and the exponential prefactor
    exp(pi*i*eps.tau.eps + 2*pi*i*eps.(z+delta)) -- linear in z, gradient
    2*pi*i*eps -- joins the reduction multiplier in one linear correction.
    """
    rm = tau
    zv = _check_vector(z, rm.g)
    if ch.eps.shape != (rm.g,):
        raise InvalidInputError("characteristic length does not match genus")
    keys = _normalize_requests(requests, rm.g)
    ev = _evaluator_for(rm, keys)
    return _single_jet(ev.characteristic_jets(zv, ch.eps, ch.delta, keys).__getitem__, keys)


class BatchThetaEvaluator:
    """Theta jets at many points sharing one cached lattice.

    The lattice is sized once for the derivative requests the caller will
    make, then reused for every point bound to it, which keeps repeated
    sweeps (residual sampling, Newton iterations, search objectives) cheap.
    ``profiles`` lists the requests' direction norms (|h_1|, ..., |h_k|),
    and every request is charged for its own directions (see
    ``_tail_bound``); without it the evaluator serves the
    single profile (max_direction_norm,) * max_order, that is every request
    of order at most ``max_order`` along directions of norm at most
    ``max_direction_norm``.  A NaN, infinite or negative norm, given either
    way, is refused.  The tail bound covers the requests and their
    sub-requests at ``target_abs_err``.  Accumulation order is fixed by the
    lattice ordering and the row blocks of ``BoundBatch.jets``.
    """

    def __init__(self, rm: RiemannMatrix, max_order: int = MAX_DERIVATIVE_ORDER,
                 max_direction_norm: float = 1.0,
                 target_abs_err: float = DEFAULT_TARGET_ABS_ERR, profiles=None):
        if not 0.0 < target_abs_err < math.inf:
            raise InvalidInputError("target_abs_err must be positive and finite")
        self.rm = rm
        if profiles is None:
            profiles = [(max_direction_norm,) * max_order]
        norms = [max_direction_norm, *(h for profile in profiles for h in profile)]
        if not all(0.0 <= h < math.inf for h in norms):
            raise InvalidInputError("direction norms must be finite and non-negative")
        radius, self._tail = _choose_radius(rm, 0.5 * target_abs_err, profiles)
        self.lattice, half = _lattice_points(rm, radius)
        self._half = half
        # per half-lattice row n (the pair n, -n): the lattice phase
        # exp(pi*i n.X.n), halved at the origin, which is its own pair and
        # which a pair sum counts twice; the rows of the real-exponent
        # product [n, -pi n.Y.n, 1] (see BoundBatch); and the table row
        # n_k + reach of each coordinate
        self._pair_phase = np.exp(1j * PI * ((half @ rm.X) * half).sum(axis=1))
        self._pair_phase[0] = 0.5
        self._modulus_rows = np.column_stack(
            [half, -PI * ((half @ rm.Y) * half).sum(axis=1), np.ones(len(half))])
        self._reach = int(np.abs(half).max())
        self._table_rows = (half + self._reach).astype(np.intp)

    def bind(self, points) -> "BoundBatch":
        """Prepare fixed points (rows of length g, or one (g,) vector) for jet requests."""
        return BoundBatch(self, points)

    def bind_characteristic(self, points, eps, delta) -> "BoundBatch":
        """Bind theta[eps_p, delta_p] at points z_p (rows of each argument).

        ``eps`` and ``delta`` are one characteristic or one row per point.
        The plain series is bound at z + delta + tau eps with the
        characteristic prefactor exp(pi*i eps.tau.eps + 2*pi*i eps.(z + delta))
        (see ``BoundBatch``).
        """
        eps, delta = np.atleast_2d(eps), np.atleast_2d(delta)
        shifted = _point_rows(points, self.rm.g) + delta
        pref = 1j * PI * ((eps @ self.rm.tau) * eps).sum(axis=1) \
            + TWO_PI_I * (eps * shifted).sum(axis=1)
        return BoundBatch(self, shifted + eps @ self.rm.tau, (pref, eps))

    def jets(self, points, keys):
        """Value + requested derivatives at arbitrary points: ``self.bind(points).jets(keys)``."""
        return self.bind(points).jets(keys)

    def characteristic_jets(self, points, eps, delta, keys):
        """``self.bind_characteristic(points, eps, delta).jets(keys)``."""
        return self.bind_characteristic(points, eps, delta).jets(keys)


class BoundBatch:
    """A batch evaluator bound to a fixed point cloud.

    A bind prepares its points: their reduction, scale exponents, linear
    gradients and phase tables.  ``jets`` then builds the lattice terms one
    block of half-lattice rows at a time and adds each block into the sums
    of every requested row, so a call holds O(P * (R + g * reach)) numbers
    plus one block of about ``_BLOCK_TERMS`` terms, never the (L, P) term
    matrix.  ``gradient`` (P, g) is the gradient, over 2*pi*i, of the
    linear exponent multiplying each bound series: -m from reduction, plus
    eps for a characteristic.  When it vanishes at every bound point (the
    common case for samples drawn inside the fundamental box), jets skip
    the correction pass.

    ``prefactor``, when given, is a pair (exponent (P,), eps (P, g)): the
    series at point p is multiplied by exp(exponent[p]), a linear function
    of z with gradient 2*pi*i eps[p] (``bind_characteristic``).

    The term of lattice row n at reduced point z0 = x0 + i y0 is

        exp(pi*i n.tau.n + 2*pi*i n.z0 - g0)
            = exp(-pi (n + c).Y.(n + c)) * exp(pi*i n.X.n) * prod_k exp(2*pi*i n_k x0_k)

    with c = Y^-1 y0 and g0 = pi y0.Y^-1.y0.  The terms are summed in pairs
    n, -n over the half lattice (the ellipsoid is symmetric): both share the
    lattice phase exp(pi*i n.X.n) and the quadratic part of the modulus, and
    a derivative weight of order k has w(-n) = (-1)^k w(n).  So a pair adds
    w(n) (t(n) + t(-n)) to an even-order row, w(n) (t(n) - t(-n)) to an
    odd-order one and |w(n)| (|t(n)| + |t(-n)|) to every absolute sum; the
    origin, its own pair, is weighted by 1/2.  The moduli of both signs are
    one real matrix product (the evaluator's rows [n, -pi n.Y.n, 1] against
    the stacked columns [-2*pi y0, 1, -g0] and [2*pi y0, 1, -g0]) and one
    real exponential; its exponent is a negative quadratic form, so it cannot
    overflow and every term has modulus at most 1 (up to rounding).  The
    phase exp(2*pi*i n.x0) of t(n) is, per coordinate k, a gather from the
    table exp(2*pi*i j x0_k), j = -reach..reach, by the lattice's integer
    coordinates, and t(-n) has its conjugate.  The lattice phase is folded
    into the weights and the per-point phase of the reduction multiplier and
    of the prefactor multiplies the sums (it is 1 wherever ``gradient``
    vanishes); both have unit modulus, so the real moduli are the terms'
    absolute values.
    """

    def __init__(self, evaluator: BatchThetaEvaluator, points, prefactor=None):
        self.ev = evaluator
        rm = evaluator.rm
        pts = _point_rows(points, rm.g)
        if not np.isfinite(pts).all():
            raise InvalidInputError("bound points have non-finite components")
        count = self.count = pts.shape[0]
        z0s, ms, _ = _reduce_coords(pts, rm)
        g0s = PI * ((z0s.imag @ rm.Yinv) * z0s.imag).sum(axis=1)
        red = _reduction_exponent(z0s, ms, rm)
        # exp(scales[p]) * phase[p] * (the lattice sum of column p) is the
        # series at point p: the multipliers' phases multiply the sums,
        # their real parts join scales
        self.scales = g0s + red.real
        self.gradient = -ms
        self._phase = np.exp(1j * red.imag)
        if prefactor is not None:
            exponent, eps = prefactor
            self.scales = self.scales + exponent.real
            self._phase = self._phase * np.exp(1j * exponent.imag)
            self.gradient = self.gradient + eps
        # the modulus columns of t(n) and of t(-n), stacked
        columns = self._columns = np.empty((2, rm.g + 2, count))
        np.multiply(z0s.imag.T, -2.0 * PI, out=columns[0, :rm.g])
        np.negative(columns[0, :rm.g], out=columns[1, :rm.g])
        columns[:, rm.g] = 1.0
        columns[:, rm.g + 1] = -g0s
        steps = 2.0 * PI * np.arange(-evaluator._reach, evaluator._reach + 1)
        tables = self._tables = np.zeros((rm.g, len(steps), count), dtype=complex)
        np.multiply(steps[None, :, None], z0s.real.T[:, None, :], out=tables.imag)
        np.exp(tables, out=tables)

    def _blocks(self, odd=True):
        """(rows, total, even, odd) per block of about ``_BLOCK_TERMS`` terms.

        ``rows`` is the block's half-lattice slice.  Per pair n, -n and
        point, with t the terms without the lattice and point phases,
        ``total`` holds |t(n)| + |t(-n)|, ``even`` t(n) + t(-n) and ``odd``
        t(n) - t(-n) (None unless ``odd``), each fresh (rows, P).  With
        t(n) = m+ u and t(-n) = m- conj(u), u = exp(2*pi*i n.x0), these are
        (m+ + m-) Re u + i (m+ - m-) Im u and (m+ - m-) Re u + i (m+ + m-) Im u.
        """
        ev, count = self.ev, self.count
        size = len(ev._half)
        step = max(1, _BLOCK_TERMS // max(2 * count, 1))
        gathered = np.empty((min(size, step), count), dtype=complex)
        for start in range(0, size, step):
            rows = slice(start, start + step)
            index = ev._table_rows[rows]
            moduli = ev._modulus_rows[rows] @ self._columns
            plus, minus = np.exp(moduli, out=moduli)
            even = self._tables[0].take(index[:, 0], axis=0)
            for k in range(1, len(self._tables)):
                part = gathered[:len(even)]
                # mode="clip" (every index is in range) lets take write to out unbuffered
                np.take(self._tables[k], index[:, k], axis=0, out=part, mode="clip")
                even *= part
            total, diff = plus + minus, plus - minus
            re, im = even.real, even.imag
            pair = None
            if odd:
                pair = np.empty_like(even)
                np.multiply(diff, re, out=pair.real)
                np.multiply(total, im, out=pair.imag)
            np.multiply(re, total, out=re)
            np.multiply(im, diff, out=im)
            yield rows, total, even, pair

    def jets(self, keys):
        """Value and derivatives for the bound points.

        Returns a dict: key -> (P,) complex stored values,
        ``("abs", key)`` -> (P,) absolute term sums (also for the value key
        ()), ``"scales"`` -> (P,) scale exponents and ``"error"`` -> (P,)
        absolute error bounds on the stored numbers, covering the value and
        every requested derivative including the linear-correction growth.
        """
        # rows: the value (), the even-order requests, then the odd-order ones
        keys = tuple(sorted((key for key in keys if key), key=_parity))
        corrected = bool(self.gradient.any())
        rows, groups = _correction_plan(keys) if corrected else ([(), *keys], None)
        split = len(rows) - sum(map(_parity, rows))
        ev = self.ev
        directions = {h: col for col, h in enumerate(dict.fromkeys(h for key in rows for h in key))}
        factors = TWO_PI_I * (ev._half @ np.array(list(directions), dtype=complex)
                              .reshape(-1, ev.rm.g).T)
        # lattice-major (L/2, R), so that each block reads one contiguous slice
        weights = np.repeat(ev._pair_phase[:, None], len(rows), axis=1)
        for r, key in enumerate(rows[1:], 1):
            for h in key:
                weights[:, r] *= factors[:, directions[h]]
        abs_weights = np.abs(weights)
        sums = np.zeros((len(rows), self.count), dtype=complex)
        abs_sums = np.zeros((len(rows), self.count))
        for block, total, even, odd in self._blocks(split < len(rows)):
            sums[:split] += weights[block, :split].T @ even
            if odd is not None:
                sums[split:] += weights[block, split:].T @ odd
            abs_sums += abs_weights[block].T @ total
        error = ev._tail + 4e-16 * math.sqrt(len(ev.lattice)) * abs_sums.max(axis=0)
        if corrected:
            sums *= self._phase
            vals, absv, growth = _linear_correction(groups, self.gradient, sums, abs_sums)
            error = error * growth
        else:  # no lattice shift and no characteristic: every point phase is 1
            vals, absv = sums[1:], abs_sums[1:]
        out = dict(zip(keys, vals))
        out.update(zip([("abs", key) for key in keys], absv))
        out.update({(): sums[0], ("abs", ()): abs_sums[0],
                    "scales": self.scales, "error": error})
        return out
