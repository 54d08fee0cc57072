"""Riemann theta functions with directional derivatives and error control.

Conventions (used everywhere in this package):

    theta(z, tau) = sum_{n in Z^g} exp(pi*i * n.tau.n + 2*pi*i * n.z)

    theta[eps, delta](z, tau)
        = sum_{n in Z^g} exp(pi*i * (n+eps).tau.(n+eps) + 2*pi*i * (n+eps).(z+delta))
        = exp(pi*i * eps.tau.eps + 2*pi*i * eps.(z+delta)) * theta(z + delta + tau@eps, tau)

with eps, delta having entries in {0, 1/2}.

There is one evaluation path.  ``BatchThetaEvaluator`` sizes a lattice for
a declared worst case (derivative order, direction norm, target error);
``BoundBatch`` holds the exponential term matrix at a fixed set of points;
``BoundBatch.jets`` contracts it with the derivative weights of every
requested direction list in one matrix product.  The evaluator's ``jets``
and ``characteristic_jets`` bind a whole point set at once, in blocks of at
most ``MAX_BIND_TERMS`` lattice terms.  Every pointwise caller (the residual
sweeps, the hierarchy scan, the u-field grid, the flex scan) binds all of
its points through one evaluator; ``theta_eval`` and ``theta_char_eval``
are batches of one point sized from their own requests.

Input checks and lattice sizing have one owner each: ``_check_vector``
(and ``_check_scalar``, ``_check_points``) refuses wrong-length or
non-finite input with ``InvalidInputError``, and ``_evaluator_for`` sizes
every library evaluator from the derivative requests it will serve.

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

A bind builds its terms without a complex exponential of the term matrix:
each term's modulus exp(-pi (n + c).Im(tau).(n + c)) is one real matrix
product and one real exponential (a negative exponent, so it cannot
overflow), and its phase is the lattice's cached exp(pi*i n.Re(tau).n)
times per-coordinate tables exp(2*pi*i j Re(z0)_k) gathered by the
lattice's integer coordinates.  The matrix is filled in row blocks, so a
bind's peak memory is about the matrix it keeps (see ``BoundBatch``).

Truncation: lattice points with |n + c| <= R are summed (c the imaginary
lattice coordinate of the reduced argument), with R chosen so that a Gaussian
tail bound -- using the smallest eigenvalue of Im tau and a polynomial margin
factor for the derivative weights -- is below the requested target.  R is
capped at 40 / sqrt(lambda_min); beyond the cap evaluation fails rather than
silently degrade.  Every point carries its own error bound on stored numbers,
(tail + 4e-16 * largest absolute term sum * sqrt(lattice size)) times the
largest growth prod_j (1 + |L(h_j)|) of the linear correction over the
requests.  Enumeration order is fixed (lexicographic shells in the sup norm)
and sums are matrix products over that order, so results are deterministic
on a given numpy/BLAS build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

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
# Lattice terms (points x lattice size) held by one bind: a larger point set
# is bound in blocks.  2^20 is about a genus-4 search model's bind (240
# points x 3457 lattice points, 13 MiB of terms).
MAX_BIND_TERMS = 2**20
# Terms of the term matrix written per block of a bind: a block's
# temporaries stay small next to the matrix and in cache
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
            chol = np.linalg.cholesky(self.Y)
        except np.linalg.LinAlgError as exc:
            raise TauNotPositiveDefiniteError("Im(tau) is not positive definite") from exc
        self._chol = chol
        self.Yinv = np.linalg.inv(self.Y)
        eigs = np.linalg.eigvalsh(self.Y)
        self.lambda_min = float(eigs[0])
        self.lambda_max = float(eigs[-1])
        if self.lambda_min <= 0.0:
            raise TauNotPositiveDefiniteError("Im(tau) is not positive definite")

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


def _check_points(points, g):
    """Points (AbelianPoints or vectors) as validated rows of a (P, g) array."""
    rows = [_check_vector(p, g) for p in points]
    return np.array(rows, dtype=complex).reshape(len(rows), g)


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
    x = rng.uniform(-0.5, 0.5, size=(count, rm.g))
    y = rng.uniform(-0.5, 0.5, size=(count, rm.g))
    return x + y @ rm.tau


def _ball_volume_coeff(g: int) -> float:
    return PI ** (g / 2.0) / math.gamma(g / 2.0 + 1.0)


def _tail_bound(rm: RiemannMatrix, radius: float, weight_scale: float, weight_order: int) -> float:
    """Upper bound on sum_{|n+c| > radius} weight(|n+c|) * exp(-pi lambda_min |n+c|^2).

    Lattice points in the Euclidean shell [t, t+1) are bounded by the volume
    of the ball of radius t + 1 + sqrt(g); the derivative weight of total
    order k is bounded by max(1, weight_scale * r)^k on the shell.
    """
    lam = rm.lambda_min
    vg = _ball_volume_coeff(rm.g)
    total = 0.0
    t0 = max(int(math.floor(radius)), 0)
    for t in range(t0, t0 + 800):
        r_out = t + 1.0 + math.sqrt(rm.g)
        count = vg * r_out ** rm.g
        weight = max(1.0, weight_scale * r_out) ** weight_order
        term = count * weight * math.exp(-PI * lam * t * t)
        total += term
        if term <= 1e-9 * total:
            break
    return total


MAX_LATTICE_POINTS = 2e7


def _choose_radius(rm: RiemannMatrix, target: float, weight_scale: float,
                   weight_order: int) -> tuple[float, float]:
    """The truncation radius and its tail bound (at most ``target``)."""
    cap = RADIUS_CAP_FACTOR / math.sqrt(rm.lambda_min)
    radius = max(1.5, math.sqrt(max(-math.log(target), 1.0) / (PI * rm.lambda_min)))
    while (tail := _tail_bound(rm, radius, weight_scale, weight_order)) > target:
        radius = max(radius * 1.2, radius + 0.5)
        if radius > cap:
            raise PrecisionUnreachableError(
                f"truncation radius above the cap {cap:.2f} "
                f"(lambda_min={rm.lambda_min:.3e}); target {target:.2e} unreachable"
            )
    # Memory guard: the Euclidean ball must stay enumerable.  This is an
    # engineering limit alongside the radius cap; both raise the same error.
    est_points = _ball_volume_coeff(rm.g) * (radius + math.sqrt(rm.g)) ** rm.g
    if est_points > MAX_LATTICE_POINTS:
        raise PrecisionUnreachableError(
            f"truncation ball needs ~{est_points:.2e} lattice points "
            f"(lambda_min={rm.lambda_min:.3e}); target {target:.2e} unreachable"
        )
    return radius, tail


_LATTICE_CACHE: dict = {}


def _lattice_points(g: int, radius: float) -> np.ndarray:
    """Integer vectors with |n| <= radius + sqrt(g)/2, in lexicographic-shell order.

    The sqrt(g)/2 margin guarantees that {n : |n + c| <= radius} is covered
    for every c in [-1/2, 1/2]^g, so one lattice serves every reduced point.
    Order: increasing sup-norm shell, lexicographic within a shell.
    """
    reach = radius + math.sqrt(g) / 2.0
    key = (g, round(reach, 9))
    cached = _LATTICE_CACHE.get(key)
    if cached is not None:
        return cached
    bound = int(math.floor(reach)) + 1
    axis = range(-bound, bound + 1)
    pts = [n for n in product(axis, repeat=g) if sum(x * x for x in n) <= reach * reach]
    pts.sort(key=lambda n: (max(abs(x) for x in n) if n else 0, n))
    arr = np.array(pts, dtype=float).reshape(len(pts), g)
    if len(_LATTICE_CACHE) > 64:
        _LATTICE_CACHE.clear()
    _LATTICE_CACHE[key] = arr
    return arr


def _normalize_requests(requests, g):
    keys = []
    seen = set()
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
        if key and key not in seen:
            seen.add(key)
            keys.append(key)
    return keys


# _REST_INDICES[k][mask]: the indices j < k whose bit is clear in mask
_REST_INDICES = [[tuple(j for j in range(k) if not mask >> j & 1) for mask in range(2**k)]
                 for k in range(MAX_DERIVATIVE_ORDER + 1)]


def _subset_closure(keys):
    """Every nonempty sub-request (index subset, order kept) of the keys, each once."""
    return list(dict.fromkeys(tuple(key[j] for j in idx) for key in keys
                              for idx in _REST_INDICES[len(key)] if idx))


def _request_weight_scale(keys) -> tuple[float, int]:
    """Largest direction norm and largest order among the requests."""
    h_max = 0.0
    k_max = 0
    for key in keys:
        k_max = max(k_max, len(key))
        for h in key:
            h_max = max(h_max, math.hypot(*(abs(x) for x in h)))
    return h_max, k_max


def _linear_correction(keys, gradient, rows, sums, abs_sums):
    """Derivatives of exp(L) * f from those of f, for L linear with a gradient per point.

    D^{h_1..h_k}(e^L f) = e^L * sum over subsets S of {1..k} of
    prod_{j in S} L(h_j) * D^{rest} f, with L_p(h) = 2*pi*i*<gradient[p], h>.
    Row r of ``sums`` and ``abs_sums`` (R, P) holds D^{rows[r]} f and its
    absolute term sum; ``rows`` must hold () and every sub-request of
    ``keys``.  Returns the corrected derivatives and absolute sums (K, P)
    in the order of ``keys`` (the factor e^L is left to the caller) and the
    per-point error growth, the maximum over keys of prod_j (1 + |L_p(h_j)|).
    """
    index = {key: r for r, key in enumerate(rows)}
    count = len(gradient)
    vals = np.empty((len(keys), count), dtype=complex)
    absv = np.empty((len(keys), count))
    growth = np.ones(count)
    by_order = {}
    for i, key in enumerate(keys):
        by_order.setdefault(len(key), []).append(i)
    for k, members in by_order.items():
        lin = TWO_PI_I * np.einsum("pg,ejg->ejp", gradient, np.array([keys[i] for i in members]))
        coeffs = np.ones((1, len(members), count), dtype=complex)
        for j in range(k):  # coeffs[mask] = product of lin[:, j] over the set bits j
            coeffs = np.concatenate([coeffs, coeffs * lin[:, j]])
        rest = [[index[tuple(keys[i][j] for j in idx)] for i in members]
                for idx in _REST_INDICES[k]]
        vals[members] = np.einsum("sep,sep->ep", coeffs, sums[rest])
        absv[members] = np.einsum("sep,sep->ep", np.abs(coeffs), abs_sums[rest])
        growth = np.maximum(growth, np.prod(1.0 + np.abs(lin), axis=1).max(axis=0))
    return vals, absv, growth


def _evaluator_for(rm, keys, target_abs_err=DEFAULT_TARGET_ABS_ERR):
    """The evaluator sized for these canonical requests: their largest order and direction norm."""
    h_max, k_max = _request_weight_scale(keys)
    return BatchThetaEvaluator(rm, max_order=k_max, max_direction_norm=h_max,
                               target_abs_err=target_abs_err)


def _single_jet(res, keys) -> ThetaJet:
    """Row 0 of a batch result as a ThetaJet."""
    return ThetaJet(
        value=complex(res[()][0]),
        derivs={key: complex(res[key][0]) for key in keys},
        error_bound=float(res["error"][0]),
        scale_exponent=float(res["scales"][0]),
        abs_sums={key: float(res[("abs", key)][0]) for key in [(), *keys]},
    )


def theta_eval(z, tau: RiemannMatrix, requests=(),
               target_abs_err: float = DEFAULT_TARGET_ABS_ERR) -> ThetaJet:
    """Evaluate theta(z, tau) and requested directional derivatives.

    ``requests`` is an iterable of derivative multi-requests; each request is
    an ordered list of direction vectors (length <= 4).  The returned jet
    stores numbers on the factored scale (see module docstring).  This is a
    batch of one point on an evaluator sized from the requests.
    """
    rm = tau
    zv = _check_vector(z, rm.g)
    keys = _normalize_requests(requests, rm.g)
    return _single_jet(_evaluator_for(rm, keys, target_abs_err).jets(zv, keys), keys)


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
    return _single_jet(ev.characteristic_jets(zv, ch.eps, ch.delta, keys), keys)


class BatchThetaEvaluator:
    """Theta jets at many points sharing one cached lattice.

    The lattice is sized once for a caller-declared worst case (maximum
    derivative order, maximum direction norm, target error), then reused for
    every point bound to it, which keeps repeated sweeps (residual sampling,
    Newton iterations, search objectives) cheap.  Accumulation order is
    fixed by the lattice ordering.
    """

    def __init__(self, rm: RiemannMatrix, max_order: int = MAX_DERIVATIVE_ORDER,
                 max_direction_norm: float = 1.0,
                 target_abs_err: float = DEFAULT_TARGET_ABS_ERR):
        if not 0.0 < target_abs_err < math.inf:
            raise InvalidInputError("target_abs_err must be positive and finite")
        self.rm = rm
        weight_scale = 2.0 * PI * max(max_direction_norm, 1e-300)
        radius, self._tail = _choose_radius(rm, 0.5 * target_abs_err, weight_scale, max_order)
        lattice = self.lattice = _lattice_points(rm.g, radius)
        # per lattice row n: the phase exp(pi*i n.X.n), the rows of the
        # real-exponent product [n, -pi n.Y.n, 1] (see BoundBatch) and the
        # table row n_k + reach of each coordinate
        self._quad_phase = np.exp(1j * PI * ((lattice @ rm.X) * lattice).sum(axis=1))
        self._modulus_rows = np.column_stack(
            [lattice, -PI * ((lattice @ rm.Y) * lattice).sum(axis=1), np.ones(len(lattice))])
        self._reach = int(np.abs(lattice).max())
        self._table_rows = (lattice + self._reach).astype(np.intp)

    def bind(self, points) -> "BoundBatch":
        """Cache the term matrix at fixed points for repeated jet requests."""
        return BoundBatch(self, points)

    def bind_characteristic(self, points, eps, delta) -> "BoundBatch":
        """Bind theta[eps_p, delta_p] at points z_p (rows of each argument).

        The plain series is bound at z + delta + tau eps with the
        characteristic prefactor exp(pi*i eps.tau.eps + 2*pi*i eps.(z + delta))
        (see ``BoundBatch``).
        """
        eps, delta = np.atleast_2d(eps), np.atleast_2d(delta)
        shifted = np.asarray(points, dtype=complex).reshape(-1, self.rm.g) + delta
        pref = 1j * PI * ((eps @ self.rm.tau) * eps).sum(axis=1) \
            + TWO_PI_I * (eps * shifted).sum(axis=1)
        return BoundBatch(self, shifted + eps @ self.rm.tau, (pref, eps))

    def jets(self, points, keys):
        """Evaluate value + requested derivatives at arbitrary points.

        The result of ``self.bind(points).jets(keys)`` (see
        ``BoundBatch.jets``), computed in binds of at most ``MAX_BIND_TERMS``
        lattice terms.
        """
        pts = np.asarray(points, dtype=complex).reshape(-1, self.rm.g)
        return self._in_blocks(self.bind, keys, pts)

    def characteristic_jets(self, points, eps, delta, keys):
        """``self.bind_characteristic(points, eps, delta).jets(keys)``, in blocks.

        ``eps`` and ``delta`` are one characteristic or one row per point.
        """
        pts = np.asarray(points, dtype=complex).reshape(-1, self.rm.g)
        return self._in_blocks(self.bind_characteristic, keys, pts,
                               np.broadcast_to(eps, pts.shape), np.broadcast_to(delta, pts.shape))

    def _in_blocks(self, bind, keys, *rows):
        """``bind(*rows).jets(keys)`` over row blocks of at most MAX_BIND_TERMS terms, joined.

        An empty point set still makes one (zero-point) bind.
        """
        step = max(1, MAX_BIND_TERMS // len(self.lattice))
        parts = [bind(*(r[start:start + step] for r in rows)).jets(keys)
                 for start in range(0, max(len(rows[0]), 1), step)]
        if len(parts) == 1:
            return parts[0]
        return {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}


class BoundBatch:
    """A batch evaluator bound to a fixed point cloud.

    Search loops ask for many different direction sets at an unchanging set
    of sample points; with the exponential term matrix cached here, each
    request set costs one matrix product over the lattice.  ``gradient``
    (P, g) is the gradient, over 2*pi*i, of the linear exponent multiplying
    each bound series: -m from reduction, plus eps for a characteristic.
    When it vanishes at every bound point (the common case for samples
    drawn inside the fundamental box), jets skip the correction pass.

    ``prefactor``, when given, is a pair (exponent (P,), eps (P, g)): the
    series at point p is multiplied by exp(exponent[p]), a linear function
    of z with gradient 2*pi*i eps[p] (``bind_characteristic``).

    The term of lattice row n at reduced point z0 = x0 + i y0 is

        exp(pi*i n.tau.n + 2*pi*i n.z0 - g0)
            = exp(-pi (n + c).Y.(n + c)) * exp(pi*i n.X.n) * prod_k exp(2*pi*i n_k x0_k)

    with c = Y^-1 y0 and g0 = pi y0.Y^-1.y0.  The modulus is one real matrix
    product (the evaluator's rows [n, -pi n.Y.n, 1] against the columns
    [-2*pi y0, 1, -g0]) and one real exponential; its exponent is a
    negative quadratic form, so it cannot overflow and every term has
    modulus at most 1 (up to rounding).  The phase is the lattice's cached
    exp(pi*i n.X.n) times, per coordinate k, a gather from the table
    exp(2*pi*i j x0_k), j = -reach..reach, by the lattice's integer
    coordinates; the per-point phase of the reduction multiplier and of the
    prefactor is folded into the k = 0 table.  The terms are written into
    one preallocated (L, P) matrix in row blocks of about ``_BLOCK_TERMS``
    terms, so a bind's temporaries are a few blocks, not full matrices.
    """

    def __init__(self, evaluator: BatchThetaEvaluator, points, prefactor=None):
        self.ev = evaluator
        rm = evaluator.rm
        pts = np.asarray(points, dtype=complex).reshape(-1, rm.g)
        self.count = pts.shape[0]
        z0s, ms, _ = _reduce_coords(pts, rm)
        g0s = PI * ((z0s.imag @ rm.Yinv) * z0s.imag).sum(axis=1)
        red = _reduction_exponent(z0s, ms, rm)
        # exp(scales[p]) * terms[:, p] are the series terms at point p; the
        # multipliers' phases are folded into the terms, their real parts
        # into scales
        self.scales = g0s + red.real
        self.gradient = -ms
        phase = np.exp(1j * red.imag)
        if prefactor is not None:
            exponent, eps = prefactor
            self.scales = self.scales + exponent.real
            phase = phase * np.exp(1j * exponent.imag)
            self.gradient = self.gradient + eps
        columns = np.vstack([-2.0 * PI * z0s.imag.T, np.ones(self.count), -g0s])
        steps = 2.0 * PI * np.arange(-evaluator._reach, evaluator._reach + 1)
        tables = np.zeros((rm.g, len(steps), self.count), dtype=complex)
        np.multiply(steps[None, :, None], z0s.real.T[:, None, :], out=tables.imag)
        np.exp(tables, out=tables)
        tables[0] *= phase
        lattice_size = len(evaluator.lattice)
        step = max(1, _BLOCK_TERMS // max(self.count, 1))
        self.terms = np.empty((lattice_size, self.count), dtype=complex)
        gathered = np.empty((min(lattice_size, step), self.count), dtype=complex)
        for start in range(0, lattice_size, step):
            rows = slice(start, start + step)
            block, index = self.terms[rows], evaluator._table_rows[rows]
            modulus = evaluator._modulus_rows[rows] @ columns
            np.exp(modulus, out=modulus)
            # mode="clip" (every index is in range) lets take write to out unbuffered
            np.take(tables[0], index[:, 0], axis=0, out=block, mode="clip")
            for k in range(1, rm.g):
                part = gathered[:len(block)]
                np.take(tables[k], index[:, k], axis=0, out=part, mode="clip")
                block *= part
            block *= evaluator._quad_phase[rows, None]
            block *= modulus

    def jets(self, keys):
        """Value and derivatives for the bound points.

        Returns a dict: key -> (P,) complex stored values,
        ``("abs", key)`` -> (P,) absolute term sums (also for the value key
        ()), ``"scales"`` -> (P,) scale exponents and ``"error"`` -> (P,)
        absolute error bounds on the stored numbers, covering the value and
        every requested derivative including the linear-correction growth.
        """
        keys = [key for key in keys if key]
        corrected = bool(self.gradient.any())
        rows = [(), *(_subset_closure(keys) if corrected else keys)]
        lattice = self.ev.lattice
        directions = {h: col for col, h in enumerate(dict.fromkeys(h for key in rows for h in key))}
        factors = TWO_PI_I * (lattice @ np.array(list(directions), dtype=complex)
                              .reshape(-1, lattice.shape[1]).T)
        weights = np.ones((len(rows), len(lattice)), dtype=complex)
        for row, key in zip(weights[1:], rows[1:]):
            for h in key:
                row *= factors[:, directions[h]]
        sums = weights @ self.terms
        abs_sums = np.abs(weights) @ np.abs(self.terms)
        error = self.ev._tail + 4e-16 * math.sqrt(len(lattice)) * abs_sums.max(axis=0)
        if corrected:
            vals, absv, growth = _linear_correction(keys, self.gradient, rows, sums, abs_sums)
            error = error * growth
        else:
            vals, absv = sums[1:], abs_sums[1:]
        out = dict(zip(keys, vals))
        out.update(zip([("abs", key) for key in keys], absv))
        out.update({(): sums[0], ("abs", ()): abs_sums[0],
                    "scales": self.scales, "error": error})
        return out
