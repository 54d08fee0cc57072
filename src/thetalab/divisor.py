"""Sampling points on theta divisors and checking Weil-type containments.

A locus is a (requests, shifts) table: the points z where
D^r theta(z + shift) = 0 for every shift and request r.  One seeded,
budgeted Newton search (``_sample``) samples three loci, every start
advancing in lockstep on k complex unknowns s with points origin + frame s,
each start on its own line or plane:

* the divisor {theta = 0}: [()] at (None,) (k = 1, a random complex line
  per start),
* the locus {theta = 0, D_U theta = 0}: [(), (U,)] at (None,) (k = 2; the
  full space for genus 2, a random 2-plane per start above that),
* the intersection {theta(z) = 0} cap {theta(z + a) = 0}: [()] at (None, a)
  (k = 2, likewise).

Newton's steps are damped: a step longer than ``TRUST_RADIUS`` in s (a
quarter of a real period, since lines and frame columns have unit norm) is
shortened to that length, so a start far from a root walks towards one
instead of being flung many periods out.  A start that makes no progress for
``STALL_ROUNDS`` rounds is dropped, so a start caught in a cycle does not
keep the lockstep loop running to the round budget on its own.

One root pass then lattice-reduces the converged points, re-verifies the
defining constraints at the reduced points it returns, keeps those within
``KEEP_TOL``, sorts them and drops lattice duplicates, so results are
deterministic for a fixed plan.  ``weil_check`` evaluates the pointwise
alternative-vanishing relations on such point lists.  A relation is a
factor table (``_WEIL``) of (coefficient, z or z + a, request) terms: at
each point its two factors are term-normalized (sum_k coef_k * D^(alpha_k)
theta is divided by sum_k |coef_k| * abs_sum) and the smaller magnitude is
the point's residual.  On the D1 locus D_U theta = 0, so weil and weil2 are
unchanged by the Galilean move V -> V + nu U while their normalizers are
not; both read V at the representative orthogonal to U (``bilinear``'s
Galilean rule).  Samplers and relations read theta through the engine's
pointwise reader, which sizes one evaluator per call at the default target
error (none takes a target) and binds z and z + a together.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bilinear import NORMALIZER_FLOOR, ResidualReport, _galilean, build_report
from .engine import (
    AbelianPoint,
    _check_points,
    _check_real,
    _check_vector,
    _reader,
    _reduce_coords,
    as_riemann_matrix,
    box_points,
    canonical_request,
)
from .errors import DegenerateSampleError, InvalidInputError

KEEP_TOL = 1e-10
DEDUP_DISTANCE = 1e-6
TRUST_RADIUS = 0.25
STALL_ROUNDS = 16


class DivisorKind(Enum):
    THETA = "Theta"
    D1_THETA = "D1Theta"
    THETA_CAP_THETA_A = "ThetaCapThetaA"


class UnderSampledWarning(UserWarning):
    """Fewer points than requested were found within the sampling budget."""


class SamplingNote(UserWarning):
    """Informational notes: empty loci, plane-based sampling for g >= 3."""


@dataclass
class SamplePlan:
    """Budget and seed for a sampling run.

    ``distinct=False`` keeps every converged sample in arrival order instead
    of deduplicating modulo the lattice — useful on finite loci (for genus 2
    both D1-theta and the theta intersection hold only a couple of reduced
    points) when a quota of independent samples is wanted.
    """

    count: int
    seed: int = 0
    starts: int = 200
    max_iterations: int = 50
    tol: float = 1e-12
    distinct: bool = True

    def __post_init__(self):
        if self.count < 1:
            raise InvalidInputError("plan.count must be at least 1")
        if self.starts < 1 or self.max_iterations < 1:
            raise InvalidInputError("plan.starts and plan.max_iterations must be positive")
        if not (0 < self.tol < 1):
            raise InvalidInputError("plan.tol must lie in (0, 1)")


@dataclass
class DivisorPoint:
    z: AbelianPoint
    constraints_met: list  # [(expression-id, normalized magnitude)]
    kind: DivisorKind


def _newton(plan, origin, frame, s, evaluate):
    """Lockstep damped Newton on k = 1 or 2 complex unknowns per start.

    Start p sits at origin[p] + frame[p] s[p], where ``origin`` is (P, g) or
    (g,) and ``frame`` (P, g, k) or (g, k): a line or plane per start, or one
    shared by all.  ``s`` (P, k) holds the starting coordinates and is
    advanced in place.  ``evaluate(points)`` returns the k stored residuals
    F (n, k), their gradients (n, k, g) with respect to z and the
    per-equation normalizers (n, k); row scales may differ, they cancel
    within each equation.  The gradients are contracted with each start's
    frame into the Jacobian with respect to s.  A start stops once every |F|
    is at most ``plan.tol`` times its normalizer.  A Newton step longer than
    TRUST_RADIUS (Euclidean norm in s) is shortened to that length.  A start
    is dropped when its step is singular or non-finite, or when it stalls:
    its largest normalized |F| has set no new minimum (a fall below 0.999 of
    the last one) for STALL_ROUNDS rounds.  A start caught in a cycle under
    the damped step creeps by parts in 1e8 per cycle, so it is dropped; of
    about 36,000 converging starts (five period matrices of genus 2 and 3,
    twelve plan seeds, the three samplers) none went more than 12 rounds
    without a new minimum.  Returns the converged points and their start
    indices.
    """
    count, k = s.shape
    frame = np.broadcast_to(frame, (count, *frame.shape[-2:]))
    origin = np.broadcast_to(origin, frame.shape[:2])

    def at(idx):
        return origin[idx] + (frame[idx] @ s[idx, :, None])[..., 0]

    active = np.ones(count, dtype=bool)
    done = np.zeros(count, dtype=bool)
    best = np.full(count, np.inf)  # each start's last new minimum of max normalized |F|
    stalled = np.zeros(count, dtype=int)  # rounds since it was set
    for _ in range(plan.max_iterations):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        F, grad, norms = evaluate(at(idx))
        converged = (np.abs(F) <= plan.tol * norms).all(axis=1)
        done[idx[converged]] = True
        with np.errstate(divide="ignore", invalid="ignore"):
            mags = (np.abs(F) / norms).max(axis=1)
        improved = mags < 0.999 * best[idx]
        best[idx[improved]] = mags[improved]
        stalled[idx] = np.where(improved, 0, stalled[idx] + 1)
        live = ~converged & (stalled[idx] < STALL_ROUNDS)
        active[idx[~live]] = False
        F, idx = F[live], idx[live]
        J = grad[live] @ frame[idx]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if k == 1:
                step = F / J[:, 0]
            else:
                det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
                step = np.column_stack([F[:, 0] * J[:, 1, 1] - F[:, 1] * J[:, 0, 1],
                                        J[:, 0, 0] * F[:, 1] - J[:, 1, 0] * F[:, 0]]) / det[:, None]
            size = np.linalg.norm(step, axis=1)
        ok = np.isfinite(size)
        active[idx[~ok]] = False
        s[idx[ok]] -= step[ok] * (TRUST_RADIUS / np.maximum(size[ok], TRUST_RADIUS))[:, None]
    hits = np.flatnonzero(done)
    return at(hits), hits


def _sample(rm, plan, requests, shifts, starts, names, kind, what):
    """Points of the locus {D^r theta(z + a) = 0 for a in shifts, r in requests}.

    ``starts`` is Newton's (origin, frame, s).  The constraints run shift by
    shift, request by request; a constraint's gradient is its request
    extended by each coordinate axis, on the same evaluator, and each read
    binds z and its shifted copies once.  The converged points are
    lattice-reduced, re-verified there, kept when every normalized magnitude
    is at most KEEP_TOL and, for a distinct plan, cleared of lattice
    duplicates (``_distinct``); otherwise the first ``plan.count`` are
    returned in arrival order.
    """
    values = [canonical_request(r) for r in requests]
    grads = [[canonical_request((*r, e)) for e in np.eye(rm.g)] for r in requests]
    read = _reader(rm, [key for value, grad in zip(values, grads) for key in (value, *grad)])

    def evaluate(pts):
        rows = read(pts, shifts)
        F = np.array([row(key) for row in rows for key in values]).T
        grad = np.array([[row(key) for key in keys] for row in rows for keys in grads])
        norms = np.array([row(("abs", key)) for row in rows for key in values]).T
        return F, grad.transpose(2, 0, 1), norms

    pts, _ = _newton(plan, *starts, evaluate)
    z0 = _reduce_coords(pts, rm)[0]
    F, _, norms = evaluate(z0)
    mags = np.abs(F) / norms
    keep = (mags <= KEEP_TOL).all(axis=1)
    z0, mags = z0[keep], mags[keep]
    chosen = _distinct(rm, z0, plan.count) if plan.distinct \
        else np.arange(min(len(z0), plan.count))
    if len(chosen) < plan.count:
        warnings.warn(
            f"under-sampled: found {len(chosen)} of {plan.count} requested "
            f"{what} points within the budget (partial list returned)",
            UnderSampledWarning,
        )
    return [DivisorPoint(z=AbelianPoint(z0[i], reduced=True),
                         constraints_met=[(n, float(m)) for n, m in zip(names, mags[i])],
                         kind=kind)
            for i in chosen]


def _distinct(rm, z0, count):
    """Indices of at most ``count`` rows of z0 that differ modulo the lattice.

    Rows are taken in the order of (Re z_1, Im z_1, Re z_2, ...); each is
    compared with the rows kept so far by one reduction of the differences,
    so memory stays O(count g).  Rows within DEDUP_DISTANCE are duplicates.
    """
    keys = np.stack([z0.real, z0.imag], axis=2).reshape(len(z0), 2 * z0.shape[1]).tolist()
    chosen = []
    for i in sorted(range(len(z0)), key=keys.__getitem__):
        if len(chosen) == count:
            break
        diff = _reduce_coords(z0[i] - z0[chosen], rm)[0]
        if not (np.abs(diff).max(axis=1) <= DEDUP_DISTANCE).any():
            chosen.append(i)
    return chosen


def sample_theta_divisor(tau, jet, plan: SamplePlan) -> list:
    """Locate points with theta = 0 by 1-D Newton along random lines.

    ``jet`` is unused (the locus involves no directions); it is accepted so
    all samplers share a calling convention.  Converged roots are kept when
    the lattice-reduced normalized |theta| is at most 1e-10.
    """
    rm = as_riemann_matrix(tau)
    rng = np.random.default_rng(plan.seed)
    base = box_points(rm, rng, plan.starts)
    lines = rng.standard_normal((plan.starts, rm.g)) + 1j * rng.standard_normal((plan.starts, rm.g))
    lines /= np.linalg.norm(lines, axis=1, keepdims=True)  # a unit direction per start
    starts = base, lines[:, :, None], np.zeros((plan.starts, 1), dtype=complex)
    return _sample(rm, plan, [()], (None,), starts, ["theta"], DivisorKind.THETA,
                   "theta-divisor")


def _plane_starts(rm, rng, plan):
    """The 2-planes of the 2-unknown samplers and the starts in them.

    For g = 2 every start works in the full space (origin 0, identity
    frame); above that each start gets its own random origin in the box and
    its own orthonormal complex 2-frame.
    """
    if rm.g == 2:
        origin, frame = np.zeros(rm.g, dtype=complex), np.eye(rm.g, dtype=complex)
    else:
        warnings.warn(
            f"genus {rm.g}: sampling on one random plane per start; the locus "
            "is not exhausted",
            SamplingNote,
        )
        frame = rng.standard_normal((plan.starts, rm.g, 2)) \
            + 1j * rng.standard_normal((plan.starts, rm.g, 2))
        frame, _ = np.linalg.qr(frame)
        origin = box_points(rm, rng, plan.starts)
    s = rng.uniform(-0.5, 0.5, size=(plan.starts, 2)) \
        + 1j * rng.uniform(-0.5, 0.5, size=(plan.starts, 2))
    return origin, frame, s


def sample_D1_theta(tau, jet, plan: SamplePlan) -> list:
    """Locate points with theta = 0 and D_U theta = 0 simultaneously."""
    rm = as_riemann_matrix(tau)
    jet.require("U")
    U = _check_vector(jet.U, rm.g, "U")
    if float(np.linalg.norm(U)) == 0.0:
        raise InvalidInputError("sampling the D1 locus requires U != 0")
    if rm.g == 1:
        warnings.warn(
            "genus 1: theta has simple zeros, so the D1 locus is "
            "generically empty; returning no points",
            SamplingNote,
        )
        return []
    starts = _plane_starts(rm, np.random.default_rng(plan.seed), plan)
    return _sample(rm, plan, [(), (U,)], (None,), starts, ["theta", "D1-theta"],
                   DivisorKind.D1_THETA, "D1-locus")


def sample_theta_intersection(tau, jet, a, plan: SamplePlan) -> list:
    """Locate points with theta(z) = 0 and theta(z + a) = 0."""
    rm = as_riemann_matrix(tau)
    a = _check_vector(a, rm.g, "a")
    if rm.g == 1:
        warnings.warn(
            "genus 1: theta(z) and theta(z + a) share no zero for generic "
            "a; returning no points",
            SamplingNote,
        )
        return []
    starts = _plane_starts(rm, np.random.default_rng(plan.seed), plan)
    return _sample(rm, plan, [()], (None, a), starts, ["theta", "theta-shifted"],
                   DivisorKind.THETA_CAP_THETA_A, "intersection")


# Per relation: its kind of point and its two factors, sums of coefficient *
# D^request theta at z (shift 0) or z + a (shift 1), requests spelled in U, V.
_WEIL = {
    "weil": (DivisorKind.D1_THETA,
             [[(1.0, 0, "UU"), (1.0, 0, "V")], [(1.0, 0, "UU"), (-1.0, 0, "V")]]),
    "weil1": (DivisorKind.THETA_CAP_THETA_A, [[(1.0, 0, "U")], [(1.0, 1, "U")]]),
    "weil2": (DivisorKind.D1_THETA, [[(1.0, 0, "UU"), (1.0, 0, "V")], [(1.0, 1, "")]]),
}


def weil_check(points, tau, jet, a=None, which: str = "weil",
               tolerance: float = 1e-6) -> ResidualReport:
    """Evaluate a Weil-type alternative-vanishing relation on sampled points.

    Per point the residual is the smaller of the two term-normalized factor
    magnitudes: weil uses |(D1^2 + D2) theta| vs |(D1^2 - D2) theta| on the
    D1 locus, weil1 uses |D1 theta| at z vs at z + a on theta cap theta_a,
    and weil2 uses |(D1^2 + D2) theta| vs |theta(z + a)| on the D1 locus;
    weil binds z only, weil1 and weil2 bind z and z + a once.  An empty
    point list passes vacuously, flagged in the report note.
    """
    _check_real(tolerance, "tolerance")
    if which not in _WEIL:
        raise InvalidInputError(f"unknown Weil relation {which!r}")
    rm = as_riemann_matrix(tau)
    required, factors = _WEIL[which]
    for p in points:
        if p.kind != required:
            raise InvalidInputError(
                f"{which} expects points of kind {required.value}, got {p.kind.value}"
            )
    terms = [term for factor in factors for term in factor]
    names = sorted({name for _, _, request in terms for name in request})
    jet.require(*names)
    shifts = (None,)
    if any(shift for _, shift, _ in terms):
        if a is None:
            raise InvalidInputError(f"{which} requires the shift a")
        shifts = (None, _check_vector(a, rm.g, "a"))
    if not points:
        return build_report([], [], tolerance)

    dirs = {"U": _check_vector(jet.U, rm.g, "U")}
    if "V" in names:
        dirs["V"] = _galilean(dirs["U"], _check_vector(jet.V, rm.g, "V"))[0]
    keys = {request: canonical_request([dirs[name] for name in request])
            for _, _, request in terms}
    rows = _reader(rm, keys.values())(_check_points([p.z for p in points], rm.g), shifts)

    def factor(terms):
        value = sum(coef * rows[shift](keys[r]) for coef, shift, r in terms)
        norm = sum(abs(coef) * rows[shift](("abs", keys[r])) for coef, shift, r in terms)
        if norm.min() < NORMALIZER_FLOOR:
            raise DegenerateSampleError("Weil factor normalizer underflowed")
        return np.abs(value) / norm

    residuals = np.minimum(*map(factor, factors))
    return build_report([p.z for p in points], [float(r) for r in residuals], tolerance)
