"""Bilinear KP-type forms evaluated on theta jets.

Every residual here is *term-sum normalized*: the defining combination is
split into its constituent bilinear (or trilinear) monomials, evaluated on
the stored (scale-factored) jet numbers, and the absolute value of the sum
is divided by the sum of the absolute values of the monomials.  Each
monomial in a given combination carries the same exponential prefactor
exp(k * scale_exponent), so the prefactor cancels exactly in the ratio and
is never materialized; normalized residuals always lie in [0, 1].

Substituted directions are folded: the second-direction change D2 -> D2 +
const * D1 is applied to the direction vector itself before any theta
evaluation, so the substituted and unsubstituted forms agree bit-for-bit,
not merely algebraically.  The hierarchy form is folded into the one-point
form by ``_hierarchy_fold``, with the germ series zeta(eps) and d(eps)
summed by ``_series``; the hierarchy fit reads both.  The fold is balanced
by lam = sqrt(eps) (``gauge_rescale``), to directions sqrt(eps) U and
eps V + U, so its lattices stay bounded as eps -> 0.  If every monomial of
a combination is exactly zero (zero directions and zero constants), the
residual is 0 by convention; a normalizer that underflows while the terms
are not all exactly zero is a degenerate sample and raises.

The Galilean rule: the KP form, the on-divisor identity, the Weil relations
and the flex property are unchanged by (V, W) -> (V + nu U, W + 2 nu V +
nu^2 U), but their term-sum normalizers are not, so every verdict they give
(the "kp" and "longeq" sweeps, ``weil_check``, the flex tests, the KP
search) reads the representative with V orthogonal to U (``_galilean``).
The other forms, and the single-point ``hirota_residual`` and
``longeq_residual``, read the jet as given.

Each form has one vectorized term stack over a derivative source
(``_hirota_terms``, ``_one_point_terms``, ``_longeq_terms``), shared by the
residual at one point (a batch of one), the sweeps and the search models.
A sweep reads all of its points at once through the engine's one pointwise
reader (``engine._reader``); the shifted forms read z and z + a in one
bind.  Each stack is written once.  The searches differentiate their
whole residual map, the Galilean representative and the term-sum ratios
included, by running it on forward-mode values (``_Dual``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .engine import (
    AbelianPoint,
    RiemannMatrix,
    _check_points,
    _check_real,
    _check_scalar,
    _check_vector,
    _reader,
    as_point,
    canonical_request,
)
from .errors import (
    DegenerateJetError,
    DegenerateSampleError,
    InvalidInputError,
    NotOnDivisorError,
    PoleError,
)

NORMALIZER_FLOOR = 1e-300
DIVISOR_REL_TOL = 1e-8
POLE_REL_TOL = 1e-10
GAUGE_DEGENERATE_TOL = 1e-6


def as_riemann_matrix(tau) -> RiemannMatrix:
    if isinstance(tau, RiemannMatrix):
        return tau
    return RiemannMatrix(tau)


@dataclass
class DirectionJet:
    """Directions and constants defining the KP-type forms.

    U, V, W are the directions of the first, second and third derivative
    operators; c is the additive constant of the u-field / one-point form,
    d the constant of the four-term bilinear KP form.  A and B are the
    exponent coefficients of the exponential-dressed form; zeta_coeffs and
    d_coeffs are the series coefficients of the shift germ zeta(eps) and of
    d(eps) = d_3 eps^3 + d_4 eps^4 + ... used by the truncated hierarchy.
    """

    U: np.ndarray
    V: np.ndarray | None = None
    W: np.ndarray | None = None
    c: complex | None = None
    d: complex | None = None
    A: complex | None = None
    B: complex | None = None
    zeta_coeffs: list | None = None
    d_coeffs: list | None = None
    normalized: bool = False

    def __post_init__(self):
        self.U = _check_vector(self.U, np.size(self.U), "U")
        for name in ("V", "W"):
            if getattr(self, name) is not None:
                setattr(self, name, _check_vector(getattr(self, name), self.g, name))
        for name in ("c", "d", "A", "B"):
            if getattr(self, name) is not None:
                setattr(self, name, _check_scalar(getattr(self, name), name))
        if self.zeta_coeffs is not None:
            self.zeta_coeffs = [_check_vector(zc, self.g, "zeta coefficient")
                                for zc in self.zeta_coeffs]
        if self.d_coeffs is not None:
            self.d_coeffs = [_check_scalar(x, "d coefficient") for x in self.d_coeffs]

    @property
    def g(self) -> int:
        return len(self.U)

    def require(self, *names) -> None:
        missing = [n for n in names if getattr(self, n) is None]
        if missing:
            raise InvalidInputError(f"direction jet is missing {', '.join(missing)}")

    def zeta(self, epsilon: complex) -> np.ndarray:
        """The truncated germ zeta(eps) = sum_k zeta_coeffs[k-1] * eps^k."""
        self.require("zeta_coeffs")
        if not self.zeta_coeffs:
            raise InvalidInputError("zeta_coeffs must have at least one entry")
        return _series(self.zeta_coeffs, epsilon, 1)

    def d_of(self, epsilon: complex) -> complex:
        """d(eps) = d_3 eps^3 + d_4 eps^4 + ... (zero when no coefficients)."""
        return _series(self.d_coeffs or (), epsilon, 3)


def _series(coeffs, epsilon, lowest):
    """sum_k coeffs[k] * eps^(lowest + k) at complex eps: zeta(eps) from 1, d(eps) from 3."""
    epsilon = complex(epsilon)
    total, power = 0j, epsilon**lowest
    for coeff in coeffs:
        total, power = total + power * coeff, power * epsilon
    return total


def _hierarchy_fold(U, V, epsilon, zeta, d):
    """The one-point U, V, c, a = sqrt(eps) U, eps V + U, d, 2 zeta of the hierarchy form at eps.

    It is the fold (U, V + U/eps, d/eps, 2 zeta) rescaled by lam = sqrt(eps)
    (``gauge_rescale``), which leaves every one-point residual as it is.
    """
    epsilon = complex(epsilon)
    return cmath.sqrt(epsilon) * U, epsilon * V + U, d, 2.0 * zeta


def _galilean(U, V, W=None):
    """(V, W) moved by nu = -<U, V>/<U, U> (0 when U = 0) to V orthogonal to U; W may be None."""
    norm = np.vdot(U, U)
    mu = np.vdot(U, V) / norm if norm else 0.0
    return V - mu * U, None if W is None else W - 2.0 * mu * V + mu * mu * U


def gauge_rescale(jet: DirectionJet, lam: complex) -> DirectionJet:
    """The scaling (U, V, W, c, d) -> (lam U, lam^2 V, lam^3 W, lam^2 c, lam^4 d).

    The four-term bilinear KP residual and the one-point residual are both
    invariant under it (every monomial of each combination is homogeneous of
    one fixed degree in lam); used to bring U to the normalized gauge and to
    balance direction norms for finite-difference grids.
    """
    lam = complex(lam)
    return replace(
        jet,
        U=lam * jet.U,
        V=None if jet.V is None else lam**2 * jet.V,
        W=None if jet.W is None else lam**3 * jet.W,
        c=None if jet.c is None else lam**2 * jet.c,
        d=None if jet.d is None else lam**4 * jet.d,
        normalized=False,
    )


def gauge_balance(jet: DirectionJet) -> DirectionJet:
    """Rescale so every direction norm is at most 1 (unit-normalized grid).

    Finite-difference stencils sample the u-field at literal (x, y, t) steps;
    a direction of norm s makes the effective theta-argument step s times the
    grid step, ruining the stencil order.  The scaling symmetry of
    ``gauge_rescale`` lets the norms be balanced without changing any
    residual: lam = 1 / max(|U|, |V|^(1/2), |W|^(1/3), 1).
    """
    worst = max(float(np.linalg.norm(jet.U)), 1.0)
    if jet.V is not None:
        worst = max(worst, float(np.linalg.norm(jet.V)) ** 0.5)
    if jet.W is not None:
        worst = max(worst, float(np.linalg.norm(jet.W)) ** (1.0 / 3.0))
    return gauge_rescale(jet, 1.0 / worst)


def gauge_normalize(jet: DirectionJet) -> DirectionJet:
    """Rescale so |U| = 1 with the first nonzero component real positive."""
    norm = float(np.linalg.norm(jet.U))
    if norm < GAUGE_DEGENERATE_TOL:
        raise DegenerateJetError(f"direction U has norm {norm:.3e}; gauge undefined")
    lead = next(complex(x) for x in jet.U if abs(x) > 1e-12 * norm)
    out = gauge_rescale(jet, 1.0 / (norm * (lead / abs(lead))))
    out.normalized = True
    return out


def _term_ratios(terms):
    """Complex term-sum ratios sum(terms) / sum(|terms|) per point (column), plain or
    ``_Dual``; where every term is 0 the sum is divided by 1, not 0."""
    total, normalizer = terms.sum(axis=0), abs(terms).sum(axis=0)
    scale = getattr(normalizer, "value", normalizer)
    if np.any((scale != 0.0) & (scale < NORMALIZER_FLOOR)):
        raise DegenerateSampleError("residual normalizer underflowed; resample")
    return total / (normalizer + (scale == 0.0))


def _residuals(terms):
    """Normalized residuals min(|sum(terms)| / sum(|terms|), 1) per point."""
    return np.minimum(np.abs(_term_ratios(terms)), 1.0)


# Term stacks.  Each form's monomials are stacked (terms, P) from a
# derivative source D: D(h_1, .., h_k) is the (P,) array of D_{h_1..h_k}
# theta on the stored scale and D() the values.  The sweeps read D from
# evaluator jets, the search models from basis tensors.  Each stack is
# written once.  A search's Jacobian is its residual map run on ``_Dual``
# values: U's chart, the Galilean representative, the hierarchy fold, the
# stack and the term-sum ratios take dual inputs, and forward mode
# differentiates their composition exactly (Griewank & Walther, 2008).

class _Dual:
    """A value and its tangents along n real parameters, (n, *value.shape), or (n, 1) for
    a scalar value, which meets only scalars and 1-d values.  Each operation computes
    its value as the plain operation does, so a dual's value is the plain value bit for
    bit; np.vdot and np.linalg.norm take dual vectors through ``__array_function__``."""

    __array_ufunc__ = None  # numpy defers every operator to the class

    def __init__(self, value, tangent):
        self.value, self.tangent = value, tangent

    def __add__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.value + other.value, self.tangent + other.tangent)
        return _Dual(self.value + other, self.tangent + np.zeros(np.shape(other)))

    __radd__ = __add__  # a + b and b + a, a - b and a + (-b) are equal bit for bit

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.value * other.value,
                         self.tangent * other.value + self.value * other.tangent)
        return _Dual(self.value * other, self.tangent * other)

    def __rmul__(self, other):
        return _Dual(other * self.value, other * self.tangent)

    def __truediv__(self, other):
        if isinstance(other, _Dual):
            ratio = self.value / other.value
            return _Dual(ratio, (self.tangent - ratio * other.tangent) / other.value)
        return _Dual(self.value / other, self.tangent / other)

    def __neg__(self):
        return _Dual(-self.value, -self.tangent)

    def __abs__(self):
        """|t| moves by Re(conj(t) dt)/|t|, taken as 0 where t = 0."""
        modulus = abs(self.value)
        unit = np.divide(np.conj(self.value), modulus, out=np.zeros_like(self.value),
                         where=modulus > 0.0)
        return _Dual(modulus, (unit * self.tangent).real)

    def __bool__(self):
        return bool(self.value)

    def sum(self, axis):
        value = self.value.sum(axis=axis)
        return _Dual(value, self.tangent.sum(axis=axis + 1).reshape(-1, *np.shape(value) or (1,)))

    def __array_function__(self, func, types, args, kwargs):
        """<a, b> = np.vdot(a, b) and |x| = np.linalg.norm(x) of vectors, plain or dual."""
        values = [getattr(x, "value", x) for x in args]
        tangents = [getattr(x, "tangent", np.zeros((len(self.tangent), np.size(v))))
                    for x, v in zip(args, values)]
        if func is np.vdot and not kwargs:
            (a, b), (da, db) = values, tangents
            return _Dual(np.vdot(a, b), (np.conj(da) @ b + db @ np.conj(a))[:, None])
        if func is np.linalg.norm and not kwargs:
            (x,), (dx,) = values, tangents
            norm = np.linalg.norm(x)
            return _Dual(norm, (dx @ np.conj(x)).real[:, None] / (norm or 1.0))
        return NotImplemented


def _stack(rows):
    """np.stack of the rows; with ``_Dual`` rows, a ``_Dual`` of tangents (n, rows, P)."""
    tangents = [row.tangent for row in rows if isinstance(row, _Dual)]
    if not tangents:
        return np.stack(rows)
    zero = np.zeros_like(tangents[0])
    return _Dual(np.stack([getattr(row, "value", row) for row in rows]),
                 np.stack([getattr(row, "tangent", zero) for row in rows], axis=1))


def _hirota_terms(D, U, V, W, d):
    """The eight monomials of the four-term bilinear KP form."""
    t = D()
    d1, d2, dV = D(U), D(U, U), D(V)
    return _stack([
        D(U, U, U, U) * t, -4.0 * D(U, U, U) * d1, 3.0 * d2 * d2,
        3.0 * D(V, V) * t, -3.0 * dV * dV,
        -3.0 * D(U, W) * t, 3.0 * D(W) * d1, -d * t * t,
    ])


def _one_point_terms(Dz, Da, U, V, c):
    """The six monomials of the one-point form, Dz at z and Da at z + a."""
    tz, ta = Dz(), Da()
    return _stack([
        Dz(U, U) * ta, tz * Da(U, U), -2.0 * Dz(U) * Da(U),
        Dz(V) * ta, -tz * Da(V), c * tz * ta,
    ])


def _longeq_terms(D, U, V):
    """The six degree-three monomials of the on-divisor identity."""
    d1, d2 = D(U), D(V)
    d11, d12, d22 = D(U, U), D(U, V), D(V, V)
    d111, d1111 = D(U, U, U), D(U, U, U, U)
    return np.stack([
        -d11 * d2 * d2, 2.0 * d12 * d2 * d1, -d22 * d1 * d1,
        d11**3, -2.0 * d11 * d111 * d1, d1111 * d1 * d1,
    ])


def _source(row):
    """The derivative source D of an ``engine._reader`` row reader."""
    return lambda *dirs: row(canonical_request(dirs))


def _hirota_residuals(rm, jet, pts):
    jet.require("U", "V", "W", "d")
    U, V, W = jet.U, jet.V, jet.W
    row, = _reader(rm, [(U, U, U, U), (U, U, U), (U, U), (U,), (V, V), (V,), (U, W), (W,)])(pts)
    return _residuals(_hirota_terms(_source(row), U, V, W, jet.d))


def _one_point_residuals(rm, pts, U, V, c, a):
    """One-point residuals at the rows of pts: z and z + a share one bind."""
    av = _check_vector(a, rm.g, "a")
    rows = _reader(rm, [(U, U), (U,), (V,)])(pts, (None, av))
    return _residuals(_one_point_terms(*map(_source, rows), U, V, c))


def _p_residuals(rm, jet, pts, a):
    jet.require("U", "V", "c")
    return _one_point_residuals(rm, pts, jet.U, jet.V, jet.c, a)


def _p_AB_residuals(rm, jet, pts, a):
    # the 2A cross monomials fold into the second direction V - 2A*U and the
    # constant becomes A^2 - B; see the module docstring on folding
    jet.require("U", "V", "A", "B")
    return _one_point_residuals(rm, pts, jet.U, jet.V - 2.0 * jet.A * jet.U,
                                jet.A**2 - jet.B, a)


def _hierarchy_residuals(rm, jet, pts, epsilon):
    jet.require("U", "V", "zeta_coeffs")
    epsilon = complex(epsilon)
    if abs(epsilon) >= 1.0:
        raise InvalidInputError("hierarchy parameter must satisfy |epsilon| < 1")
    if epsilon == 0.0:
        return np.zeros(len(pts))
    return _one_point_residuals(rm, pts, *_hierarchy_fold(
        jet.U, jet.V, epsilon, jet.zeta(epsilon), jet.d_of(epsilon)))


def _longeq_residuals(rm, jet, pts):
    jet.require("U", "V")
    U, V = jet.U, jet.V
    row, = _reader(rm, [(U,), (V,), (U, U), (U, V), (V, V), (U, U, U), (U, U, U, U)])(pts)
    value, local = np.abs(row(())), row(("abs", ()))
    off = np.flatnonzero(value > DIVISOR_REL_TOL * local)
    if off.size:
        p = off[0]
        raise NotOnDivisorError(
            f"|theta| = {value[p]:.3e} exceeds {DIVISOR_REL_TOL:.0e} of the "
            f"local scale {local[p]:.3e}; not a divisor point"
        )
    return _residuals(_longeq_terms(_source(row), U, V))


def hirota_residual(z, tau, jet: DirectionJet) -> float:
    """Normalized residual of the four-term bilinear KP form at z.

    The eight monomials D1^4 T*T - 4 D1^3 T*D1 T + 3 (D1^2 T)^2
    + 3 D2^2 T*T - 3 (D2 T)^2 - 3 D1D3 T*T + 3 D3 T*D1 T - d T*T
    are evaluated from a single jet and term-sum normalized.
    """
    rm = as_riemann_matrix(tau)
    return float(_hirota_residuals(rm, jet, _check_points([z], rm.g))[0])


def p_residual(z, tau, jet: DirectionJet, a) -> float:
    """Normalized residual of the one-point bilinear form at z with shift a.

    D1^2 T*T_a + T*D1^2 T_a + D2 T*T_a - T*D2 T_a - 2 D1 T*D1 T_a + c T*T_a,
    T_a(z) = T(z + a), term-sum normalized over the six monomials.
    """
    rm = as_riemann_matrix(tau)
    return float(_p_residuals(rm, jet, _check_points([z], rm.g), a)[0])


def p_AB_residual(z, tau, jet: DirectionJet, a) -> float:
    """Normalized residual of the exponential-dressed one-point form.

    The 2A cross monomials are folded into the second direction (V - 2A*U)
    and the constant becomes A^2 - B, which reproduces the dressed
    combination exactly; see the module docstring on folding.
    """
    rm = as_riemann_matrix(tau)
    return float(_p_AB_residuals(rm, jet, _check_points([z], rm.g), a)[0])


def hierarchy_residual(z, tau, jet: DirectionJet, epsilon: complex) -> float:
    """Normalized residual of the truncated hierarchy form at order eps.

    With a = 2*zeta(eps), the combination

        eps*(D1^2 T*T_a + T*D1^2 T_a + D2 T*T_a - T*D2 T_a - 2 D1 T*D1 T_a)
        + D1 T*T_a - T*D1 T_a + d(eps) T*T_a

    equals eps times the one-point form with second direction V + U/eps and
    constant d(eps)/eps; the eps factor cancels in the normalized ratio, so
    the residual is computed through that folded form (``_hierarchy_fold``).
    At eps = 0 the combination collapses to D1 T*T - T*D1 T = 0.
    """
    rm = as_riemann_matrix(tau)
    return float(_hierarchy_residuals(rm, jet, _check_points([z], rm.g), epsilon)[0])


def longeq_residual(z_on_theta, tau, jet: DirectionJet) -> float:
    """Normalized residual of the on-divisor identity at a theta zero.

    Evaluates the six degree-three monomials

        -D1^2 T (D2 T)^2 + 2 D1D2 T D2 T D1 T - D2^2 T (D1 T)^2
        + (D1^2 T)^3 - 2 D1^2 T D1^3 T D1 T + D1^4 T (D1 T)^2

    (left side minus right side of the identity), term-sum normalized.
    The point must lie on the theta divisor: |T| <= 1e-8 of the local
    series scale, else NotOnDivisorError.
    """
    rm = as_riemann_matrix(tau)
    return float(_longeq_residuals(rm, jet, _check_points([z_on_theta], rm.g))[0])


def kp_field_values(xyt, z, tau, jet: DirectionJet):
    """The field u of ``kp_field_u`` at many grid arguments, with a pole mask.

    ``xyt`` holds finite real rows (x, y, t): an (N, 3) array, one (3,)
    row or an empty sequence; any other shape is refused.  All arguments
    xU + yV + tW + z share one evaluator.  Returns ``(u, pole)``: u (N,)
    complex, and pole (N,) True where theta vanishes at the argument
    (|T| <= 1e-10 of the local series scale), where u is NaN.
    """
    rm = as_riemann_matrix(tau)
    jet.require("U", "V", "W", "c")
    _check_vector(jet.U, rm.g, "U")  # V and W share U's length
    try:
        xyt = np.asarray(xyt).astype(float, casting="same_kind")
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"xyt must hold real (x, y, t) rows: {exc}") from exc
    if xyt.shape == (0,):
        xyt = xyt.reshape(0, 3)
    if xyt.ndim not in (1, 2) or xyt.shape[-1] != 3 or not np.isfinite(xyt).all():
        raise InvalidInputError(f"xyt must hold finite (x, y, t) rows, got shape {xyt.shape}")
    x, y, t = xyt.reshape(-1, 3).T[:, :, None]
    args = x * jet.U + y * jet.V + t * jet.W + _check_vector(as_point(z).z, rm.g)
    row, = _reader(rm, [(jet.U,), (jet.U, jet.U)])(args)
    D = _source(row)
    value, d1, d11 = D(), D(jet.U), D(jet.U, jet.U)
    pole = np.abs(value) <= POLE_REL_TOL * row(("abs", ()))
    with np.errstate(divide="ignore", invalid="ignore"):
        u = 2.0 * (d11 * value - d1 * d1) / (value * value) + jet.c
    u[pole] = np.nan
    return u, pole


def kp_field_u(x: float, y: float, t: float, z, tau, jet: DirectionJet) -> complex:
    """The scalar field u = 2 * (log T)'' along U, plus c, at xU + yV + tW + z.

    Computed analytically as 2*(D1^2 T*T - (D1 T)^2)/T^2 + c on stored jet
    numbers (the exponential scale cancels in the ratio).
    """
    u, pole = kp_field_values([(x, y, t)], z, tau, jet)
    if pole[0]:
        raise PoleError("theta vanishes at the grid argument; u has a pole")
    return complex(u[0])


def baker_akhiezer(x: float, y: float, z, tau, jet: DirectionJet, a, A, B) -> complex:
    """exp(Ax + By) * T(xU + yV + a + z) / T(xU + yV + z)."""
    rm = as_riemann_matrix(tau)
    jet.require("U", "V")
    _check_vector(jet.U, rm.g, "U")  # V shares U's length
    av = _check_vector(a, rm.g, "a")
    A, B = _check_scalar(A, "A"), _check_scalar(B, "B")
    base = x * jet.U + y * jet.V + _check_vector(z, rm.g)
    at_z, at_za = _reader(rm, [])(base, (None, av))  # one bind for both rows
    den, num = at_z(()).item(), at_za(()).item()  # Python scalars: the ratio is Python complex
    den_scale, num_scale = at_z("scales").item(), at_za("scales").item()
    if abs(den) <= POLE_REL_TOL * at_z(("abs", ()))[0]:
        raise PoleError(f"theta vanishes at the denominator argument (|T| = {abs(den):.3e})")
    ratio = math.exp(num_scale - den_scale) * (num / den)
    return cmath.exp(A * x + B * y) * ratio


def kp_standard_time_direction(jet: DirectionJet) -> DirectionJet:
    """Convert the bilinear-form time direction to the literal-PDE one.

    The four-term bilinear fit determines a direction W in which the
    log-second-derivative field satisfies the PDE only up to a time
    rescaling and a Galilean shift proportional to the constant c.  The
    returned jet has W replaced by (3/4) W + (3/2) c U, in which the field
    u = 2 (log T)'' + c satisfies 3 u_yy = d/dx (4 u_t - 6 u u_x - u_xxx)
    on literal (x, y, t) grids.
    """
    jet.require("U", "W")
    c = 0.0 if jet.c is None else jet.c
    return replace(jet, W=0.75 * jet.W + 1.5 * c * jet.U)


@dataclass
class ResidualReport:
    """Aggregated residual sweep over sample points.

    ``passed`` is True exactly when max_residual <= tolerance (serialized
    under the key "pass").  ``note`` flags vacuous or partial sweeps.
    """

    sample_points: list
    residuals: list
    normalization: str
    max_residual: float
    mean_residual: float
    tolerance: float
    passed: bool
    note: str | None = None


def build_report(points, residuals, tolerance: float) -> ResidualReport:
    """The term-sum normalized sweep of these residuals, noted as vacuous when empty."""
    tolerance = _check_real(tolerance, "tolerance")
    residuals = [float(r) for r in residuals]
    note = None
    if residuals:
        max_r = max(residuals)
        mean_r = math.fsum(residuals) / len(residuals)
    else:
        max_r = 0.0
        mean_r = 0.0
        note = "vacuous: no sample points"
    return ResidualReport(
        sample_points=[as_point(p) for p in points],
        residuals=residuals,
        normalization="term-sum",
        max_residual=max_r,
        mean_residual=mean_r,
        tolerance=tolerance,
        passed=max_r <= tolerance,
        note=note,
    )


def sweep_residual(kind: str, tau, jet: DirectionJet, points, tolerance: float,
                   a=None, epsilon: complex | None = None) -> ResidualReport:
    """Evaluate one residual family over many points into a ResidualReport.

    kind is one of "kp" (four-term bilinear form), "one-point", "dressed"
    (exponential-dressed one-point form), "longeq", "hierarchy".  Every
    point is bound at once (z and z + a together for the shifted forms).
    The "kp" and "longeq" sweeps read the jet's Galilean representative
    (see the module docstring).  The tolerance is checked before any lattice sum.
    A sweep with no points, or a hierarchy sweep at epsilon = 0, where every
    term vanishes, passes with a note that says it is vacuous.
    """
    _check_real(tolerance, "tolerance")
    rm = as_riemann_matrix(tau)
    if kind in ("kp", "longeq") and jet.V is not None:
        V, W = _galilean(jet.U, jet.V, jet.W)
        jet = replace(jet, V=V, W=W)
    if kind == "kp":
        fn = lambda pts: _hirota_residuals(rm, jet, pts)
    elif kind == "one-point":
        if a is None:
            raise InvalidInputError("one-point sweep needs the shift a")
        fn = lambda pts: _p_residuals(rm, jet, pts, a)
    elif kind == "dressed":
        if a is None:
            raise InvalidInputError("dressed sweep needs the shift a")
        fn = lambda pts: _p_AB_residuals(rm, jet, pts, a)
    elif kind == "longeq":
        fn = lambda pts: _longeq_residuals(rm, jet, pts)
    elif kind == "hierarchy":
        if epsilon is None:
            raise InvalidInputError("hierarchy sweep needs epsilon")
        fn = lambda pts: _hierarchy_residuals(rm, jet, pts, epsilon)
    else:
        raise InvalidInputError(f"unknown residual kind {kind!r}")
    pts = [as_point(p) for p in points]
    report = build_report(pts, fn(_check_points(pts, rm.g)), tolerance)
    if kind == "hierarchy" and pts and complex(epsilon) == 0.0:
        report.note = "vacuous: every term of the hierarchy form vanishes at epsilon = 0"
    return report


def hierarchy_scan(tau, jet: DirectionJet, epsilons, points):
    """Max residual per epsilon plus the fitted log-log decay exponent.

    Returns (per_eps, exponent): per_eps is a list of (epsilon, max residual)
    pairs; exponent is the least-squares slope of log(residual) against
    log(epsilon) (0.0 when fewer than two usable epsilon values).  Each
    epsilon binds every point once, on its own evaluator, sized for the
    balanced fold's directions sqrt(eps) U and eps V + U.
    """
    rm = as_riemann_matrix(tau)
    pts = _check_points(points, rm.g)
    if not len(pts):
        raise InvalidInputError("hierarchy scan needs at least one sample point")
    per_eps = [(complex(eps), float(_hierarchy_residuals(rm, jet, pts, eps).max()))
               for eps in epsilons]
    usable = [(abs(e), r) for e, r in per_eps if r > 0.0 and abs(e) > 0.0]
    if len(usable) < 2:
        return per_eps, 0.0
    logs_e = np.log([e for e, _ in usable])
    logs_r = np.log([r for _, r in usable])
    slope = float(np.polyfit(logs_e, logs_r, 1)[0])
    return per_eps, slope
