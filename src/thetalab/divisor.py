"""Sampling points on theta divisors and checking Weil-type containments.

Three loci are sampled with seeded, budgeted Newton iterations, all driven
by the batched evaluator so every start advances in lockstep:

* the divisor {theta = 0} (1-D Newton along random complex lines),
* the locus {theta = 0, D_U theta = 0} (2-unknown Newton; the full space
  for genus 2, a random 2-plane slice above that),
* the intersection {theta(z) = 0} cap {theta(z + a) = 0} (same machinery).

Accepted roots are lattice-reduced, re-verified against their defining
constraints, deduplicated modulo the lattice and sorted, so results are
deterministic for a fixed plan.  ``weil_check`` then evaluates the
pointwise alternative-vanishing relations on such point lists: at each
point the two candidate factors are term-normalized (a combination
sum_k coef_k * D^(alpha_k) theta is divided by sum_k |coef_k| * abs_sum)
and the smaller magnitude is the point's residual.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bilinear import NORMALIZER_FLOOR, ResidualReport, as_riemann_matrix, build_report
from .engine import (
    AbelianPoint,
    BatchThetaEvaluator,
    DEFAULT_TARGET_ABS_ERR,
    box_points,
    canonical_request,
    reduce_point,
)
from .errors import DegenerateSampleError, InvalidInputError

KEEP_TOL = 1e-10
DEDUP_DISTANCE = 1e-6
MAX_NEWTON_STEP = 10.0


class DivisorKind(Enum):
    THETA = "Theta"
    D1_THETA = "D1Theta"
    THETA_CAP_THETA_A = "ThetaCapThetaA"


class UnderSampledWarning(UserWarning):
    """Fewer points than requested were found within the sampling budget."""


class SamplingNote(UserWarning):
    """Informational notes: empty loci, slice-based sampling for g >= 3."""


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


def _check_direction(rm, vec, name):
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    if vec.shape != (rm.g,):
        raise InvalidInputError(f"{name} must be a complex vector of length {rm.g}")
    return vec


def _unit_directions(rng, count, g):
    w = rng.standard_normal((count, g)) + 1j * rng.standard_normal((count, g))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def _sort_key(z):
    return tuple(v for c in z for v in (c.real, c.imag))


def _dedup_and_trim(rm, roots, count):
    """Deterministic post-pass: sort reduced roots, drop lattice-duplicates."""
    roots = sorted(roots, key=lambda r: _sort_key(r[0].z))
    kept = []
    for item in roots:
        dup = False
        for other in kept:
            diff, _, _ = reduce_point(item[0].z - other[0].z, rm)
            if np.abs(diff.z).max() <= DEDUP_DISTANCE:
                dup = True
                break
        if not dup:
            kept.append(item)
        if len(kept) == count:
            break
    return kept


def _finish(rm, roots, plan, kind, what):
    if plan.distinct:
        kept = _dedup_and_trim(rm, roots, plan.count)
    else:
        kept = roots[: plan.count]
    if len(kept) < plan.count:
        warnings.warn(
            f"under-sampled: found {len(kept)} of {plan.count} requested "
            f"{what} points within the budget (partial list returned)",
            UnderSampledWarning,
        )
    return [DivisorPoint(z=pt, constraints_met=cons, kind=kind) for pt, cons in kept]


def sample_theta_divisor(tau, jet, plan: SamplePlan,
                         target_abs_err: float = DEFAULT_TARGET_ABS_ERR) -> list:
    """Locate points with theta = 0 by 1-D Newton along random lines.

    ``jet`` is unused (the locus involves no directions); it is accepted so
    all samplers share a calling convention.  Converged roots are kept when
    the lattice-reduced normalized |theta| is at most 1e-10.
    """
    rm = as_riemann_matrix(tau)
    rng = np.random.default_rng(plan.seed)
    base = box_points(rm, rng, plan.starts)
    lines = _unit_directions(rng, plan.starts, rm.g)
    grads = [canonical_request((np.eye(rm.g)[i],)) for i in range(rm.g)]
    ev = BatchThetaEvaluator(rm, max_order=1, max_direction_norm=1.0,
                             target_abs_err=target_abs_err)

    t = np.zeros(plan.starts, dtype=complex)
    active = np.ones(plan.starts, dtype=bool)
    done = np.zeros(plan.starts, dtype=bool)
    for _ in range(plan.max_iterations):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        pts = base[idx] + t[idx, None] * lines[idx]
        res = ev.jets(pts, grads)
        f = res[()]
        norm = res[("abs", ())]
        grad = np.column_stack([res[key] for key in grads])
        fp = np.einsum("pg,pg->p", lines[idx], grad)
        converged = np.abs(f) <= plan.tol * norm
        done[idx[converged]] = True
        active[idx[converged]] = False
        live = ~converged
        with np.errstate(divide="ignore", invalid="ignore"):
            step = -f[live] / fp[live]
        bad = ~np.isfinite(step) | (np.abs(step) > MAX_NEWTON_STEP)
        live_idx = idx[live]
        active[live_idx[bad]] = False
        good = live_idx[~bad]
        t[good] += step[~bad]

    roots = []
    hits = np.flatnonzero(done)
    if hits.size:
        pts = base[hits] + t[hits, None] * lines[hits]
        res = ev.jets(pts, [])
        mags = np.abs(res[()]) / res[("abs", ())]
        for i, p in enumerate(hits):
            if mags[i] <= KEEP_TOL:
                reduced, _, _ = reduce_point(pts[i], rm)
                roots.append((reduced, [("theta", float(mags[i]))]))
    return _finish(rm, roots, plan, DivisorKind.THETA, "theta-divisor")


def _slice_frame(rm, rng):
    """The 2-plane used by the 2-unknown samplers; full space when g = 2."""
    if rm.g == 2:
        return np.zeros(rm.g, dtype=complex), np.eye(rm.g, dtype=complex)
    warnings.warn(
        f"genus {rm.g}: sampling on a random 2-plane slice; the locus is "
        "not exhausted and results are slice-relative",
        SamplingNote,
    )
    frame = rng.standard_normal((rm.g, 2)) + 1j * rng.standard_normal((rm.g, 2))
    frame, _ = np.linalg.qr(frame)
    return box_points(rm, rng, 1)[0], frame


def _newton_2d(rm, rng, plan, evaluate):
    """Shared 2-complex-unknown Newton loop in the slice frame.

    ``evaluate(points, frame)`` returns (F, J, norms): per-point 2-vector of
    stored residuals, 2x2 Jacobian with respect to the two slice coordinates
    (derivatives along the columns of ``frame``), and per-equation
    normalizers.  Row scales may differ; they cancel within each equation.
    """
    origin, frame = _slice_frame(rm, rng)
    s = rng.uniform(-0.5, 0.5, size=(plan.starts, 2)) \
        + 1j * rng.uniform(-0.5, 0.5, size=(plan.starts, 2))
    active = np.ones(plan.starts, dtype=bool)
    done = np.zeros(plan.starts, dtype=bool)
    for _ in range(plan.max_iterations):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        pts = origin + s[idx] @ frame.T
        F, J, norms = evaluate(pts, frame)
        converged = (np.abs(F[:, 0]) <= plan.tol * norms[:, 0]) \
            & (np.abs(F[:, 1]) <= plan.tol * norms[:, 1])
        done[idx[converged]] = True
        active[idx[converged]] = False
        live = ~converged
        det = J[live, 0, 0] * J[live, 1, 1] - J[live, 0, 1] * J[live, 1, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            d0 = (F[live, 0] * J[live, 1, 1] - F[live, 1] * J[live, 0, 1]) / det
            d1 = (J[live, 0, 0] * F[live, 1] - J[live, 1, 0] * F[live, 0]) / det
        step = np.column_stack([d0, d1])
        size = np.abs(step).max(axis=1)
        bad = ~np.isfinite(size) | (size > MAX_NEWTON_STEP)
        live_idx = idx[live]
        active[live_idx[bad]] = False
        good = live_idx[~bad]
        s[good] -= step[~bad]
    hits = np.flatnonzero(done)
    return origin + s[hits] @ frame.T if hits.size else np.zeros((0, rm.g), complex)


def sample_D1_theta(tau, jet, plan: SamplePlan,
                    target_abs_err: float = DEFAULT_TARGET_ABS_ERR) -> list:
    """Locate points with theta = 0 and D_U theta = 0 simultaneously."""
    rm = as_riemann_matrix(tau)
    jet.require("U")
    U = _check_direction(rm, jet.U, "U")
    if float(np.linalg.norm(U)) == 0.0:
        raise InvalidInputError("sampling the D1 locus requires U != 0")
    if rm.g == 1:
        warnings.warn(
            "genus 1: theta has simple zeros, so the D1 locus is "
            "generically empty; returning no points",
            SamplingNote,
        )
        return []
    rng = np.random.default_rng(plan.seed)
    k_u = canonical_request((U,))
    ev = BatchThetaEvaluator(rm, max_order=2,
                             max_direction_norm=max(1.0, float(np.linalg.norm(U))),
                             target_abs_err=target_abs_err)

    def evaluate(pts, frame):
        k_b = [canonical_request((f,)) for f in frame.T]
        k_ub = [canonical_request((U, f)) for f in frame.T]
        res = ev.jets(pts, [*k_b, k_u, *k_ub])
        F = np.column_stack([res[()], res[k_u]])
        J = np.empty((len(pts), 2, 2), dtype=complex)
        J[:, 0, 0], J[:, 0, 1] = res[k_b[0]], res[k_b[1]]
        J[:, 1, 0], J[:, 1, 1] = res[k_ub[0]], res[k_ub[1]]
        norms = np.column_stack([res[("abs", ())], res[("abs", k_u)]])
        return F, J, norms

    pts = _newton_2d(rm, rng, plan, evaluate)
    roots = []
    if len(pts):
        res = ev.jets(pts, [k_u])
        m0 = np.abs(res[()]) / res[("abs", ())]
        m1 = np.abs(res[k_u]) / res[("abs", k_u)]
        for i in range(len(pts)):
            if m0[i] <= KEEP_TOL and m1[i] <= KEEP_TOL:
                reduced, _, _ = reduce_point(pts[i], rm)
                roots.append((reduced, [("theta", float(m0[i])),
                                        ("D1-theta", float(m1[i]))]))
    return _finish(rm, roots, plan, DivisorKind.D1_THETA, "D1-locus")


def sample_theta_intersection(tau, jet, a, plan: SamplePlan,
                              target_abs_err: float = DEFAULT_TARGET_ABS_ERR) -> list:
    """Locate points with theta(z) = 0 and theta(z + a) = 0."""
    rm = as_riemann_matrix(tau)
    a = np.asarray(a, dtype=complex).reshape(-1)
    if a.shape != (rm.g,):
        raise InvalidInputError(f"a must be a complex vector of length {rm.g}")
    if rm.g == 1:
        warnings.warn(
            "genus 1: theta(z) and theta(z + a) share no zero for generic "
            "a; returning no points",
            SamplingNote,
        )
        return []
    rng = np.random.default_rng(plan.seed)
    ev = BatchThetaEvaluator(rm, max_order=1, max_direction_norm=1.0,
                             target_abs_err=target_abs_err)

    def evaluate(pts, frame):
        k_b = [canonical_request((f,)) for f in frame.T]
        r0 = ev.jets(pts, k_b)
        r1 = ev.jets(pts + a, k_b)
        F = np.column_stack([r0[()], r1[()]])
        J = np.empty((len(pts), 2, 2), dtype=complex)
        J[:, 0, 0], J[:, 0, 1] = r0[k_b[0]], r0[k_b[1]]
        J[:, 1, 0], J[:, 1, 1] = r1[k_b[0]], r1[k_b[1]]
        norms = np.column_stack([r0[("abs", ())], r1[("abs", ())]])
        return F, J, norms

    pts = _newton_2d(rm, rng, plan, evaluate)
    roots = []
    if len(pts):
        r0 = ev.jets(pts, [])
        r1 = ev.jets(pts + a, [])
        m0 = np.abs(r0[()]) / r0[("abs", ())]
        m1 = np.abs(r1[()]) / r1[("abs", ())]
        for i in range(len(pts)):
            if m0[i] <= KEEP_TOL and m1[i] <= KEEP_TOL:
                reduced, _, _ = reduce_point(pts[i], rm)
                roots.append((reduced, [("theta", float(m0[i])),
                                        ("theta-shifted", float(m1[i]))]))
    return _finish(rm, roots, plan, DivisorKind.THETA_CAP_THETA_A, "intersection")


_WEIL_KIND = {
    "weil": DivisorKind.D1_THETA,
    "weil1": DivisorKind.THETA_CAP_THETA_A,
    "weil2": DivisorKind.D1_THETA,
}


def weil_check(points, tau, jet, a=None, which: str = "weil",
               tolerance: float = 1e-6,
               target_abs_err: float = DEFAULT_TARGET_ABS_ERR) -> ResidualReport:
    """Evaluate a Weil-type alternative-vanishing relation on sampled points.

    Per point the residual is the smaller of the two term-normalized factor
    magnitudes: weil uses |(D1^2 + D2) theta| vs |(D1^2 - D2) theta| on the
    D1 locus, weil1 uses |D1 theta| at z vs at z + a on theta cap theta_a,
    and weil2 uses |(D1^2 + D2) theta| vs |theta(z + a)| on the D1 locus.
    An empty point list passes vacuously, flagged in the report note.
    """
    if which not in _WEIL_KIND:
        raise InvalidInputError(f"unknown Weil relation {which!r}")
    rm = as_riemann_matrix(tau)
    required = _WEIL_KIND[which]
    for p in points:
        if p.kind != required:
            raise InvalidInputError(
                f"{which} expects points of kind {required.value}, got {p.kind.value}"
            )
    if which == "weil":
        jet.require("U", "V")
    elif which == "weil1":
        jet.require("U")
    else:
        jet.require("U", "V")
    if which in ("weil1", "weil2"):
        if a is None:
            raise InvalidInputError(f"{which} requires the shift a")
        a = np.asarray(a, dtype=complex).reshape(-1)
        if a.shape != (rm.g,):
            raise InvalidInputError(f"a must be a complex vector of length {rm.g}")
    if not points:
        return build_report([], [], tolerance)

    zs = np.array([p.z.z for p in points])
    U = _check_direction(rm, jet.U, "U")
    max_norm = max(1.0, float(np.linalg.norm(U)))
    if which == "weil1":
        ev = BatchThetaEvaluator(rm, max_order=1, max_direction_norm=max_norm,
                                 target_abs_err=target_abs_err)
        ku = canonical_request((U,))
        r0 = ev.jets(zs, [ku])
        r1 = ev.jets(zs + a, [ku])
        n0, n1 = r0[("abs", ku)], r1[("abs", ku)]
        if min(n0.min(), n1.min()) < NORMALIZER_FLOOR:
            raise DegenerateSampleError("Weil factor normalizer underflowed")
        res = np.minimum(np.abs(r0[ku]) / n0, np.abs(r1[ku]) / n1)
    else:
        V = _check_direction(rm, jet.V, "V")
        max_norm = max(max_norm, float(np.linalg.norm(V)))
        ev = BatchThetaEvaluator(rm, max_order=2, max_direction_norm=max_norm,
                                 target_abs_err=target_abs_err)
        kuu = canonical_request((U, U))
        kv = canonical_request((V,))
        r0 = ev.jets(zs, [kuu, kv])
        norm = r0[("abs", kuu)] + r0[("abs", kv)]
        if norm.min() < NORMALIZER_FLOOR:
            raise DegenerateSampleError("Weil factor normalizer underflowed")
        first = np.abs(r0[kuu] + r0[kv]) / norm
        if which == "weil":
            second = np.abs(r0[kuu] - r0[kv]) / norm
        else:
            r1 = ev.jets(zs + a, [])
            n1 = r1[("abs", ())]
            if n1.min() < NORMALIZER_FLOOR:
                raise DegenerateSampleError("Weil factor normalizer underflowed")
            second = np.abs(r1[()]) / n1
        res = np.minimum(first, second)
    return build_report([p.z for p in points], [float(r) for r in res], tolerance)
