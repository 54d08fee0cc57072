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
summed by ``_series``; the hierarchy fit reads both.  If every monomial of
a combination is exactly zero (zero directions and zero constants), the
residual is 0 by convention; a normalizer that underflows while the terms
are not all exactly zero is a degenerate sample and raises.

Each form has one vectorized term stack over a derivative source
(``_hirota_terms``, ``_one_point_terms``, ``_longeq_terms``), shared by the
residual at one point (a batch of one), the sweeps and the search models.
A sweep binds all of its points at once; the shifted forms bind z and z + a
together.
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
    _check_scalar,
    _check_vector,
    _evaluator_for,
    _normalize_requests,
    as_point,
    canonical_request,
    theta_eval,
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
    """The one-point V, c, a = V + U/eps, d/eps, 2 zeta of the hierarchy form at eps."""
    epsilon = complex(epsilon)
    return V + U / epsilon, d / epsilon, 2.0 * zeta


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
    lead = 0.0 + 0.0j
    for x in jet.U:
        if abs(x) > 1e-12 * norm:
            lead = complex(x)
            break
    phase = lead / abs(lead) if lead != 0 else 1.0 + 0.0j
    out = gauge_rescale(jet, 1.0 / (norm * phase))
    out.normalized = True
    return out


def _term_ratios(terms):
    """Complex term-sum ratios sum(terms) / sum(|terms|) per point (column), 0/0 -> 0."""
    total = np.sum(terms, axis=0)
    normalizer = np.sum(np.abs(terms), axis=0)
    out = np.zeros_like(total)
    live = normalizer != 0.0
    if np.any(live & (normalizer < NORMALIZER_FLOOR)):
        raise DegenerateSampleError("residual normalizer underflowed; resample")
    out[live] = total[live] / normalizer[live]
    return out


def _residuals(terms):
    """Normalized residuals min(|sum(terms)| / sum(|terms|), 1) per point."""
    return np.minimum(np.abs(_term_ratios(terms)), 1.0)


# Term stacks.  Each form's monomials are stacked (terms, P) from a
# derivative source D: D(h_1, .., h_k) is the (P,) array of D_{h_1..h_k}
# theta on the stored scale and D() the values.  The sweeps read D from
# evaluator jets, the search models from basis tensors.  The KP and
# one-point stacks are a base block joined to a block affine in the fields
# the searches solve for linearly; the searches' IRLS reads the two blocks.

def _hirota_terms(D, U, V, W, d):
    """The eight monomials of the four-term bilinear KP form."""
    return np.concatenate([_hirota_base(D, U, V), _hirota_linear(D, U, W, d)])


def _hirota_base(D, U, V):
    """The five KP monomials free of W and d."""
    t = D()
    d1, d2, dV = D(U), D(U, U), D(V)
    return np.stack([
        D(U, U, U, U) * t, -4.0 * D(U, U, U) * d1, 3.0 * d2 * d2,
        3.0 * D(V, V) * t, -3.0 * dV * dV,
    ])


def _hirota_linear(D, U, W, d):
    """The three KP monomials affine in (W, d), exactly 0 at W = 0, d = 0."""
    t = D()
    return np.stack([-3.0 * D(U, W) * t, 3.0 * D(W) * D(U), -d * t * t])


def _one_point_terms(Dz, Da, U, V, c):
    """The six monomials of the one-point form, Dz at z and Da at z + a."""
    return np.concatenate([_one_point_base(Dz, Da, U), _one_point_linear(Dz, Da, V, c)])


def _one_point_base(Dz, Da, U):
    """The three one-point monomials free of V and c."""
    tz, ta = Dz(), Da()
    return np.stack([Dz(U, U) * ta, tz * Da(U, U), -2.0 * Dz(U) * Da(U)])


def _one_point_linear(Dz, Da, V, c):
    """The three one-point monomials affine in (V, c), exactly 0 at V = 0, c = 0."""
    tz, ta = Dz(), Da()
    return np.stack([Dz(V) * ta, -tz * Da(V), c * tz * ta])


def _longeq_terms(D, U, V):
    """The six degree-three monomials of the on-divisor identity."""
    d1, d2 = D(U), D(V)
    d11, d12, d22 = D(U, U), D(U, V), D(V, V)
    d111, d1111 = D(U, U, U), D(U, U, U, U)
    return np.stack([
        -d11 * d2 * d2, 2.0 * d12 * d2 * d1, -d22 * d1 * d1,
        d11**3, -2.0 * d11 * d111 * d1, d1111 * d1 * d1,
    ])


def _jets(rm, points, requests):
    """Jets at all points (rows) through one evaluator sized for the requests."""
    keys = _normalize_requests(requests, rm.g)
    return _evaluator_for(rm, keys).jets(points, keys)


def _source(res, cols=slice(None)):
    """The derivative source D over columns ``cols`` of a jets result."""
    return lambda *dirs: res[canonical_request(dirs)][cols]


def _hirota_residuals(rm, jet, pts):
    jet.require("U", "V", "W", "d")
    U, V, W = jet.U, jet.V, jet.W
    res = _jets(rm, pts, [(U, U, U, U), (U, U, U), (U, U), (U,), (V, V), (V,), (U, W), (W,)])
    return _residuals(_hirota_terms(_source(res), U, V, W, jet.d))


def _one_point_residuals(rm, pts, U, V, c, a):
    """One-point residuals at the rows of pts: z and z + a share one bind."""
    av = _check_vector(a, rm.g, "a")
    res = _jets(rm, np.concatenate([pts, pts + av]), [(U, U), (U,), (V,)])
    count = len(pts)
    terms = _one_point_terms(_source(res, slice(None, count)), _source(res, slice(count, None)),
                             U, V, c)
    return _residuals(terms)


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
    return _one_point_residuals(rm, pts, jet.U, *_hierarchy_fold(
        jet.U, jet.V, epsilon, jet.zeta(epsilon), jet.d_of(epsilon)))


def _longeq_residuals(rm, jet, pts):
    jet.require("U", "V")
    U, V = jet.U, jet.V
    res = _jets(rm, pts, [(U,), (V,), (U, U), (U, V), (V, V), (U, U, U), (U, U, U, U)])
    value, local = np.abs(res[()]), res[("abs", ())]
    off = np.flatnonzero(value > DIVISOR_REL_TOL * local)
    if off.size:
        p = off[0]
        raise NotOnDivisorError(
            f"|theta| = {value[p]:.3e} exceeds {DIVISOR_REL_TOL:.0e} of the "
            f"local scale {local[p]:.3e}; not a divisor point"
        )
    return _residuals(_longeq_terms(_source(res), U, V))


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
    the residual is computed through that folded form.  At eps = 0 the
    combination collapses to D1 T*T - T*D1 T = 0 and the residual is 0.
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

    ``xyt`` holds rows (x, y, t); all arguments xU + yV + tW + z share one
    evaluator.  Returns ``(u, pole)``: u (N,) complex, and pole (N,) True
    where theta vanishes at the argument (|T| <= 1e-10 of the local series
    scale), where u is NaN.
    """
    rm = as_riemann_matrix(tau)
    jet.require("U", "V", "W", "c")
    xyt = np.asarray(xyt, dtype=float).reshape(-1, 3)
    x, y, t = xyt[:, :1], xyt[:, 1:2], xyt[:, 2:]
    args = x * jet.U + y * jet.V + t * jet.W + _check_vector(as_point(z).z, rm.g)
    res = _jets(rm, args, [(jet.U,), (jet.U, jet.U)])
    D = _source(res)
    value, d1, d11 = D(), D(jet.U), D(jet.U, jet.U)
    pole = np.abs(value) <= POLE_REL_TOL * res[("abs", ())]
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
    av = _check_vector(a, rm.g, "a")
    base = x * jet.U + y * jet.V + as_point(z).z
    num = theta_eval(base + av, rm)
    den = theta_eval(base, rm)
    if abs(den.value) <= POLE_REL_TOL * den.abs_sum(()):
        raise PoleError(
            f"theta vanishes at the denominator argument (|T| = {abs(den.value):.3e})"
        )
    ratio = math.exp(num.scale_exponent - den.scale_exponent) * (num.value / den.value)
    return cmath.exp(complex(A) * x + complex(B) * y) * ratio


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


def build_report(points, residuals, tolerance: float,
                 normalization: str = "term-sum", note: str | None = None) -> ResidualReport:
    residuals = [float(r) for r in residuals]
    if residuals:
        max_r = max(residuals)
        mean_r = math.fsum(residuals) / len(residuals)
    else:
        max_r = 0.0
        mean_r = 0.0
        note = note or "vacuous: no sample points"
    return ResidualReport(
        sample_points=[as_point(p) for p in points],
        residuals=residuals,
        normalization=normalization,
        max_residual=max_r,
        mean_residual=mean_r,
        tolerance=float(tolerance),
        passed=max_r <= tolerance,
        note=note,
    )


def sweep_residual(kind: str, tau, jet: DirectionJet, points, tolerance: float,
                   a=None, epsilon: complex | None = None) -> ResidualReport:
    """Evaluate one residual family over many points into a ResidualReport.

    kind is one of "kp" (four-term bilinear form), "one-point", "dressed"
    (exponential-dressed one-point form), "longeq", "hierarchy".  Every
    point is bound at once (z and z + a together for the shifted forms).
    """
    rm = as_riemann_matrix(tau)
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
    return build_report(pts, fn(_check_points(pts, rm.g)), tolerance)


def hierarchy_scan(tau, jet: DirectionJet, epsilons, points):
    """Max residual per epsilon plus the fitted log-log decay exponent.

    Returns (per_eps, exponent): per_eps is a list of (epsilon, max residual)
    pairs; exponent is the least-squares slope of log(residual) against
    log(epsilon) (0.0 when fewer than two usable epsilon values).  Each
    epsilon binds every point once, on its own evaluator (the second
    direction V + U/eps, hence the lattice, changes with epsilon).
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
