"""Sampling points on theta divisors and checking Weil-type containments.

Three loci are sampled by one seeded, budgeted Newton driver on the batched
evaluator, every start advancing in lockstep on k complex unknowns s with
points origin + frame s:

* the divisor {theta = 0} (k = 1, each start on its own random complex line),
* the locus {theta = 0, D_U theta = 0} (k = 2; the full space for genus 2,
  a random 2-plane slice shared by all starts above that),
* the intersection {theta(z) = 0} cap {theta(z + a) = 0} (k = 2, same plane).

One root pass then lattice-reduces the converged points, re-verifies the
defining constraints at the reduced points it returns, keeps those within
``KEEP_TOL``, sorts them and drops lattice duplicates, so results are
deterministic for a fixed plan.  ``weil_check`` evaluates the pointwise
alternative-vanishing relations on such point lists: at each point the two
candidate factors are term-normalized (a combination
sum_k coef_k * D^(alpha_k) theta is divided by sum_k |coef_k| * abs_sum)
and the smaller magnitude is the point's residual (``_normalized``).
Wherever theta is read at z and at z + a, both rows share one bind.  Every
sampler and check reads theta on an evaluator that the engine sizes for its
derivative requests at the default target error; none takes a target.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bilinear import NORMALIZER_FLOOR, ResidualReport, as_riemann_matrix, build_report
from .engine import (
    AbelianPoint,
    _check_vector,
    _evaluator_for,
    _reduce_coords,
    box_points,
    canonical_request,
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


def _newton(plan, origin, frame, s, evaluate):
    """Lockstep Newton on k = 1 or 2 complex unknowns per start.

    Start p sits at origin + frame s[p], where ``origin`` is (P, g) or (g,)
    and ``frame`` (P, g, k) or (g, k): a line or plane per start, or one
    shared by all.  ``s`` (P, k) holds the starting coordinates and is
    advanced in place.  ``evaluate(points, idx)`` returns, at the points of
    the starts ``idx``, the k stored residuals F (n, k), their Jacobian
    J (n, k, k) with respect to s and the per-equation normalizers (n, k);
    row scales may differ, they cancel within each equation.  A start stops
    once every |F| is at most ``plan.tol`` times its normalizer, and is
    dropped on a singular or non-finite step or one above MAX_NEWTON_STEP.
    Returns the converged points and their start indices.
    """
    count, k = s.shape
    frame = np.broadcast_to(frame, (count, *frame.shape[-2:]))
    origin = np.broadcast_to(origin, frame.shape[:2])

    def at(idx):
        return origin[idx] + (frame[idx] @ s[idx, :, None])[..., 0]

    active = np.ones(count, dtype=bool)
    done = np.zeros(count, dtype=bool)
    for _ in range(plan.max_iterations):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        F, J, norms = evaluate(at(idx), idx)
        converged = (np.abs(F) <= plan.tol * norms).all(axis=1)
        done[idx[converged]] = True
        active[idx[converged]] = False
        live = ~converged
        F, J, idx = F[live], J[live], idx[live]
        with np.errstate(divide="ignore", invalid="ignore"):
            if k == 1:
                step = F / J[:, 0]
            else:
                det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
                step = np.column_stack([F[:, 0] * J[:, 1, 1] - F[:, 1] * J[:, 0, 1],
                                        J[:, 0, 0] * F[:, 1] - J[:, 1, 0] * F[:, 0]]) / det[:, None]
        size = np.abs(step).max(axis=1)
        bad = ~np.isfinite(size) | (size > MAX_NEWTON_STEP)
        active[idx[bad]] = False
        s[idx[~bad]] -= step[~bad]
    hits = np.flatnonzero(done)
    return at(hits), hits


def _roots(rm, plan, found, evaluate, names, kind, what):
    """The sampler's result from Newton's converged points and start indices.

    The points are lattice-reduced, re-verified at the reduced points (one
    ``evaluate``), kept when every normalized magnitude is at most KEEP_TOL
    and, for a distinct plan, cleared of lattice duplicates (``_distinct``);
    otherwise the first ``plan.count`` are returned in arrival order.
    """
    pts, hits = found
    z0 = _reduce_coords(pts, rm)[0]
    F, _, norms = evaluate(z0, hits)
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


def _unit_directions(rng, count, g):
    w = rng.standard_normal((count, g)) + 1j * rng.standard_normal((count, g))
    return w / np.linalg.norm(w, axis=1, keepdims=True)


def _pair(res, key):
    """Rows (value at z, value at z + a) of ``key`` in a jets result bound at [z; z + a]."""
    return res[key].reshape(2, -1)


def _normalized(value, norm):
    """The factor magnitudes |value| / norm; a normalizer below NORMALIZER_FLOOR raises."""
    if norm.min() < NORMALIZER_FLOOR:
        raise DegenerateSampleError("Weil factor normalizer underflowed")
    return np.abs(value) / norm


def sample_theta_divisor(tau, jet, plan: SamplePlan) -> list:
    """Locate points with theta = 0 by 1-D Newton along random lines.

    ``jet`` is unused (the locus involves no directions); it is accepted so
    all samplers share a calling convention.  Converged roots are kept when
    the lattice-reduced normalized |theta| is at most 1e-10.
    """
    rm = as_riemann_matrix(tau)
    rng = np.random.default_rng(plan.seed)
    base = box_points(rm, rng, plan.starts)
    lines = _unit_directions(rng, plan.starts, rm.g)
    grads = [canonical_request((e,)) for e in np.eye(rm.g)]
    ev = _evaluator_for(rm, grads)

    def evaluate(pts, idx):
        res = ev.jets(pts, grads)
        grad = np.column_stack([res[key] for key in grads])
        fp = np.einsum("pg,pg->p", lines[idx], grad)
        return res[()][:, None], fp[:, None, None], res[("abs", ())][:, None]

    found = _newton(plan, base, lines[:, :, None],
                    np.zeros((plan.starts, 1), dtype=complex), evaluate)
    return _roots(rm, plan, found, evaluate, ["theta"], DivisorKind.THETA, "theta-divisor")


def _slice_starts(rm, rng, plan):
    """The 2-plane of the 2-unknown samplers (full space when g = 2) and the starts in it."""
    if rm.g == 2:
        origin, frame = np.zeros(rm.g, dtype=complex), np.eye(rm.g, dtype=complex)
    else:
        warnings.warn(
            f"genus {rm.g}: sampling on a random 2-plane slice; the locus is "
            "not exhausted and results are slice-relative",
            SamplingNote,
        )
        frame = rng.standard_normal((rm.g, 2)) + 1j * rng.standard_normal((rm.g, 2))
        frame, _ = np.linalg.qr(frame)
        origin = box_points(rm, rng, 1)[0]
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
    origin, frame, s = _slice_starts(rm, np.random.default_rng(plan.seed), plan)
    k_u = canonical_request((U,))
    k_b = [canonical_request((f,)) for f in frame.T]
    k_ub = [canonical_request((U, f)) for f in frame.T]
    keys = [*k_b, k_u, *k_ub]
    ev = _evaluator_for(rm, keys)

    def evaluate(pts, idx):
        res = ev.jets(pts, keys)
        J = np.moveaxis(np.array([[res[key] for key in row] for row in (k_b, k_ub)]), -1, 0)
        return (np.column_stack([res[()], res[k_u]]), J,
                np.column_stack([res[("abs", ())], res[("abs", k_u)]]))

    found = _newton(plan, origin, frame, s, evaluate)
    return _roots(rm, plan, found, evaluate, ["theta", "D1-theta"],
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
    origin, frame, s = _slice_starts(rm, np.random.default_rng(plan.seed), plan)
    k_b = [canonical_request((f,)) for f in frame.T]
    ev = _evaluator_for(rm, k_b)

    def evaluate(pts, idx):
        res = ev.jets(np.concatenate([pts, pts + a]), k_b)
        J = np.stack([_pair(res, key) for key in k_b], axis=-1).transpose(1, 0, 2)
        return _pair(res, ()).T, J, _pair(res, ("abs", ())).T

    found = _newton(plan, origin, frame, s, evaluate)
    return _roots(rm, plan, found, evaluate, ["theta", "theta-shifted"],
                  DivisorKind.THETA_CAP_THETA_A, "intersection")


_WEIL_KIND = {
    "weil": DivisorKind.D1_THETA,
    "weil1": DivisorKind.THETA_CAP_THETA_A,
    "weil2": DivisorKind.D1_THETA,
}


def weil_check(points, tau, jet, a=None, which: str = "weil",
               tolerance: float = 1e-6) -> ResidualReport:
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
    jet.require(*(("U",) if which == "weil1" else ("U", "V")))
    if which in ("weil1", "weil2"):
        if a is None:
            raise InvalidInputError(f"{which} requires the shift a")
        a = _check_vector(a, rm.g, "a")
    if not points:
        return build_report([], [], tolerance)

    zs = np.array([p.z.z for p in points])
    U = _check_vector(jet.U, rm.g, "U")
    if which == "weil1":
        ku = canonical_request((U,))
        r = _evaluator_for(rm, [ku]).jets(np.concatenate([zs, zs + a]), [ku])
        res = _normalized(_pair(r, ku), _pair(r, ("abs", ku))).min(axis=0)
    else:
        kuu = canonical_request((U, U))
        kv = canonical_request((_check_vector(jet.V, rm.g, "V"),))
        ev = _evaluator_for(rm, [kuu, kv])
        keys = (kuu, kv, ("abs", kuu), ("abs", kv))
        if which == "weil":
            r = ev.jets(zs, [kuu, kv])
            uu, v, abs_uu, abs_v = (r[key] for key in keys)
        else:
            # One bind of [z; z + a]: the second-order rows at z + a are
            # evaluated too and go unread, the price of sharing the bind.
            r = ev.jets(np.concatenate([zs, zs + a]), [kuu, kv])
            uu, v, abs_uu, abs_v = (_pair(r, key)[0] for key in keys)
        first = _normalized(uu + v, abs_uu + abs_v)
        if which == "weil":
            second = _normalized(uu - v, abs_uu + abs_v)
        else:
            second = _normalized(_pair(r, ())[1], _pair(r, ("abs", ()))[1])
        res = np.minimum(first, second)
    return build_report([p.z for p in points], [float(r) for r in res], tolerance)
