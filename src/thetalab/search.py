"""Direction-vector searches: fitting bilinear-residual minimizers.

The optimizer is multi-start Nelder-Mead over the parameters that enter the
residual nonlinearly, followed by Levenberg-Marquardt polishing of the full
parameter vector with finite-difference Jacobians.  Two structural tricks
keep the objective cheap and well-conditioned:

* all theta jets at the (fixed) training points are precomputed once as
  symmetric basis-derivative tensors, so changing direction vectors costs a
  tensor contraction, not a lattice sum;
* fields that enter the residual linearly (W and d for the four-direction
  form, V and c for the one-point form, the d-coefficients for the
  hierarchy germ) are solved by iteratively reweighted least squares inside
  the objective, shrinking the search dimension seen by the simplex.

Objectives are means of squared term-normalized residuals over seeded
training samples; reported residuals always come from a fresh holdout set
whose seed stream is disjoint from training by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import combinations_with_replacement, permutations

import numpy as np
from scipy.optimize import least_squares, minimize

from .bilinear import (
    DirectionJet,
    NORMALIZER_FLOOR,
    _hirota_terms,
    _one_point_terms,
    _term_ratios,
    as_riemann_matrix,
    gauge_normalize,
    hierarchy_scan,
)
from .engine import BatchThetaEvaluator, box_points, canonical_request
from .errors import DegenerateJetError, InvalidInputError

TARGETS = ("hirota", "one_point", "hierarchy")
_FIELD_SIZES = {"U": None, "V": None, "W": None, "a": None, "c": 1, "d": 1}
_LINEAR_FIELDS = {"hirota": ("W", "d"), "one_point": ("V", "c")}
_ALLOWED_FREE = {"hirota": ("U", "V", "W", "d"), "one_point": ("U", "V", "c", "a")}
GAUGE_COLLAPSE_NORM = 1e-6
EPSILON_GRID = tuple(np.geomspace(1e-3, 1e-1, 7))
IRLS_ROUNDS = 3


@dataclass
class SearchProblem:
    """A residual-minimization task over direction-jet parameters.

    ``jet`` supplies the fixed field values (at least U unless U itself is
    freed); ``free_vars`` names the fields being optimized — for the
    one-point target the shift ``a`` may be freed as well, with base value
    taken from ``a``.  ``restarts``/``iterations`` bound the budget per the
    multi-start scheme; ``jet_order`` is the germ order for hierarchy fits.
    """

    tau: object
    target: str
    jet: DirectionJet
    free_vars: tuple
    sample_count: int
    seed: int = 0
    restarts: int = 8
    iterations: int = 400
    tolerance: float = 1e-8
    a: object = None
    jet_order: int = 3


@dataclass
class SearchResult:
    best_jet: DirectionJet
    best_residual: float
    history: list
    converged: bool
    a: object = None
    gauge_degenerate_restarts: int = 0
    scaling_exponent: float = None
    evaluations: list = None
    note: str = None


class _GaugeCollapse(Exception):
    pass


class _BasisJets:
    """Symmetric directional-derivative tensors at a point cloud.

    ``tensor[k]`` has shape (g,)*k + (P,); a directional derivative along
    h_1..h_k is the full contraction, valid for any complex directions by
    multilinearity (lattice-shift corrections are linear in each direction,
    so corrected jets compose the same way).  ``deriv`` is a derivative
    source for the term stacks of ``bilinear``.
    """

    def __init__(self, ev, points, orders):
        g = ev.rm.g
        eye = np.eye(g)
        combos = {k: list(combinations_with_replacement(range(g), k))
                  for k in orders}
        keys = {}
        for k, idxs in combos.items():
            for idx in idxs:
                keys[(k, idx)] = canonical_request(tuple(eye[i] for i in idx))
        res = ev.jets(points, list(keys.values()))
        self.value = res[()]
        self.count = len(self.value)
        self.tensor = {}
        for k, idxs in combos.items():
            T = np.empty((g,) * k + (self.count,), dtype=complex)
            for idx in idxs:
                arr = res[keys[(k, idx)]]
                for perm in set(permutations(idx)):
                    T[perm] = arr
            self.tensor[k] = T

    def deriv(self, *directions):
        if not directions:
            return self.value
        cur = self.tensor[len(directions)]
        for h in directions:
            cur = np.tensordot(np.asarray(h, dtype=complex), cur, axes=(0, 0))
        return cur


def _weighted_lstsq(columns, fixed, weights, rounds_norm):
    """IRLS solve of min sum |(fixed + columns @ x) * w|^2, renormalizing.

    ``rounds_norm(x)`` maps a candidate solution to fresh per-sample
    normalizer weights; a few rounds suffice because the normalizer varies
    slowly compared to the residual.
    """
    x = np.zeros(columns.shape[1], dtype=complex)
    for _ in range(IRLS_ROUNDS):
        A = columns * weights[:, None]
        b = -fixed * weights
        x = np.linalg.lstsq(A, b, rcond=None)[0]
        weights = rounds_norm(x)
    return x


class _HirotaModel:
    """Vectorized four-direction residual at fixed sample points."""

    def __init__(self, rm, points, target_abs_err=1e-12):
        ev = BatchThetaEvaluator(rm, max_order=4, max_direction_norm=1.0,
                                 target_abs_err=target_abs_err)
        self.basis = _BasisJets(ev, points, orders=(1, 2, 3, 4))
        self.g = rm.g

    def term_stack(self, U, V, W, d):
        return _hirota_terms(self.basis.deriv, U, V, W, d)

    def ratios(self, U, V, W, d):
        return _term_ratios(self.term_stack(U, V, W, d))

    def solve_linear(self, U, V, free_names, W0, d0):
        """Least-squares (W, d) given (U, V); missing names stay at W0/d0."""
        b = self.basis
        t = b.value
        d1 = b.deriv(U)
        TU1 = np.tensordot(U, b.tensor[2], axes=(0, 0))  # (g, P)
        fixed = (b.deriv(U, U, U, U) * t - 4.0 * b.deriv(U, U, U) * d1
                 + 3.0 * b.deriv(U, U) ** 2
                 + 3.0 * b.deriv(V, V) * t - 3.0 * b.deriv(V) ** 2)
        cols = []
        if "W" in free_names:
            for i in range(self.g):
                cols.append(-3.0 * TU1[i] * t + 3.0 * b.tensor[1][i] * d1)
        else:
            fixed = fixed - 3.0 * np.tensordot(W0, TU1, axes=(0, 0)) * t \
                + 3.0 * np.tensordot(W0, b.tensor[1], axes=(0, 0)) * d1
        if "d" in free_names:
            cols.append(-t * t)
        else:
            fixed = fixed - d0 * t * t

        def weights_for(x):
            W, d = self._expand(free_names, x, W0, d0)
            norm = np.abs(self.term_stack(U, V, W, d)).sum(axis=0)
            return 1.0 / np.maximum(norm, NORMALIZER_FLOOR)

        base = np.abs(np.stack([
            b.deriv(U, U, U, U) * t, 4.0 * b.deriv(U, U, U) * d1,
            3.0 * b.deriv(U, U) ** 2, 3.0 * b.deriv(V, V) * t,
            3.0 * b.deriv(V) ** 2])).sum(axis=0)
        w0 = 1.0 / np.maximum(base, NORMALIZER_FLOOR)
        x = _weighted_lstsq(np.column_stack(cols), fixed, w0, weights_for)
        return self._expand(free_names, x, W0, d0)

    def _expand(self, free_names, x, W0, d0):
        pos = 0
        W, d = W0, d0
        if "W" in free_names:
            W = x[pos:pos + self.g]
            pos += self.g
        if "d" in free_names:
            d = x[pos]
        return W, d


class _OnePointModel:
    """Vectorized one-point residual; the shifted side is bound per shift a."""

    def __init__(self, rm, points, target_abs_err=1e-12):
        self.ev = BatchThetaEvaluator(rm, max_order=2, max_direction_norm=1.0,
                                      target_abs_err=target_abs_err)
        self.points = np.asarray(points, dtype=complex)
        self.basis_z = _BasisJets(self.ev, self.points, orders=(1, 2))
        self.g = rm.g
        self._shift = None
        self._basis_a = None

    def basis_at(self, a):
        """Basis jets at the points shifted by a; the last shift's are kept.

        A fixed shift is bound once per model, a free one once per
        objective evaluation (the IRLS solve and the ratios share it).
        """
        a = np.array(a, dtype=complex)
        if self._shift is None or not np.array_equal(a, self._shift):
            self._basis_a = _BasisJets(self.ev, self.points + a, orders=(1, 2))
            self._shift = a
        return self._basis_a

    def term_stack(self, basis_a, U, V, c):
        return _one_point_terms(self.basis_z.deriv, basis_a.deriv, U, V, c)

    def ratios(self, basis_a, U, V, c):
        return _term_ratios(self.term_stack(basis_a, U, V, c))

    def solve_linear(self, basis_a, U, free_names, V0, c0):
        bz, ba = self.basis_z, basis_a
        tz, ta = bz.value, ba.value
        fixed = bz.deriv(U, U) * ta + tz * ba.deriv(U, U) \
            - 2.0 * bz.deriv(U) * ba.deriv(U)
        cols = []
        if "V" in free_names:
            for i in range(self.g):
                cols.append(bz.tensor[1][i] * ta - tz * ba.tensor[1][i])
        else:
            fixed = fixed + bz.deriv(V0) * ta - tz * ba.deriv(V0)
        if "c" in free_names:
            cols.append(tz * ta)
        else:
            fixed = fixed + c0 * tz * ta

        def weights_for(x):
            V, c = self._expand(free_names, x, V0, c0)
            norm = np.abs(self.term_stack(basis_a, U, V, c)).sum(axis=0)
            return 1.0 / np.maximum(norm, NORMALIZER_FLOOR)

        base = np.abs(bz.deriv(U, U) * ta) + np.abs(tz * ba.deriv(U, U)) \
            + 2.0 * np.abs(bz.deriv(U) * ba.deriv(U))
        w0 = 1.0 / np.maximum(base, NORMALIZER_FLOOR)
        x = _weighted_lstsq(np.column_stack(cols), fixed, w0, weights_for)
        return self._expand(free_names, x, V0, c0)

    def _expand(self, free_names, x, V0, c0):
        pos = 0
        V, c = V0, c0
        if "V" in free_names:
            V = x[pos:pos + self.g]
            pos += self.g
        if "c" in free_names:
            c = x[pos]
        return V, c


def _field_size(name, g):
    size = _FIELD_SIZES[name]
    return g if size is None else size


def _pack(values, names, g):
    parts = []
    for name in names:
        v = np.atleast_1d(np.asarray(values[name], dtype=complex))
        parts.extend([v.real, v.imag])
    return np.concatenate(parts) if parts else np.zeros(0)


def _unpack(x, names, g):
    out = {}
    pos = 0
    for name in names:
        n = _field_size(name, g)
        re = x[pos:pos + n]
        im = x[pos + n:pos + 2 * n]
        val = re + 1j * im
        out[name] = val[0] if _FIELD_SIZES[name] == 1 else val
        pos += 2 * n
    return out


def _validate_problem(problem, rm):
    if problem.target not in TARGETS:
        raise InvalidInputError(f"unknown search target {problem.target!r}")
    if problem.target == "hierarchy":
        return
    allowed = _ALLOWED_FREE[problem.target]
    for name in problem.free_vars:
        if name not in allowed:
            raise InvalidInputError(
                f"free variable {name!r} is not a parameter of the "
                f"{problem.target} target (allowed: {allowed})")
    if len(set(problem.free_vars)) != len(problem.free_vars):
        raise InvalidInputError("free_vars contains duplicates")
    n_real = sum(2 * _field_size(name, rm.g) for name in problem.free_vars)
    if "U" not in problem.free_vars:
        # U stays on the gauge slice |U| = 1 (first nonzero component real
        # positive), which leaves 2(g-1) real degrees of freedom; at g = 1
        # the slice is the single point (1) and U is genuinely pinned.
        n_real += 2 * (rm.g - 1)
    if n_real == 0:
        raise InvalidInputError("no free variables to fit")
    if problem.sample_count < 10 * n_real:
        raise InvalidInputError(
            f"sample_count {problem.sample_count} is below 10x the "
            f"{n_real} real free parameters")
    if problem.restarts < 1 or problem.iterations < 1:
        raise InvalidInputError("budget must be positive")


def _initial_values(problem, rm, rng, restart, nonlinear):
    vals = {}
    for name in nonlinear:
        g = rm.g
        if name == "a":
            base = problem.a
        else:
            base = getattr(problem.jet, name)
        if restart == 0 and base is not None:
            vals[name] = np.asarray(base, dtype=complex) if name != "c" else complex(base)
            continue
        if name == "a":
            x = rng.uniform(-0.5, 0.5, g)
            y = rng.uniform(-0.5, 0.5, g)
            vals[name] = x + y @ rm.tau
        elif name in ("c", "d"):
            vals[name] = complex(rng.normal(scale=0.6) + 1j * rng.normal(scale=0.6))
        else:
            vals[name] = 0.6 * (rng.standard_normal(g) + 1j * rng.standard_normal(g))
    return vals


def fit(problem: SearchProblem) -> SearchResult:
    """Minimize the chosen residual over the freed jet parameters.

    Deterministic for a fixed problem: restarts run in order on independent
    seeded streams, and the best one is chosen with ties broken by restart
    index.
    """
    rm = as_riemann_matrix(problem.tau)
    if problem.target == "hierarchy":
        return fit_hierarchy(problem)
    _validate_problem(problem, rm)
    if (problem.target == "one_point" and "a" not in problem.free_vars
            and problem.a is None):
        raise InvalidInputError("one_point with fixed a requires problem.a")
    g = rm.g
    jet = problem.jet

    root = np.random.SeedSequence(problem.seed)
    train_ss, hold_ss, *restart_ss = root.spawn(2 + problem.restarts)
    z_train = box_points(rm, np.random.default_rng(train_ss), problem.sample_count)
    z_hold = box_points(rm, np.random.default_rng(hold_ss), problem.sample_count)

    linear = tuple(n for n in problem.free_vars if n in _LINEAR_FIELDS[problem.target])
    nl_named = tuple(n for n in problem.free_vars
                     if n not in linear and n != "U")
    others = tuple(n for n in problem.free_vars if n != "U")

    jet.require("U")
    base_U = np.asarray(jet.U, dtype=complex)
    if float(np.linalg.norm(base_U)) < GAUGE_COLLAPSE_NORM:
        raise DegenerateJetError("starting direction U has near-zero norm")
    if "U" in problem.free_vars:
        u_mode, u_len = "raw", g  # gauge freed by the caller
    elif g > 1:
        u_mode, u_len = "slice", g - 1
    else:
        u_mode, u_len = "fixed", 0
    pivot = int(np.argmax(np.abs(base_U)))
    w_base = np.delete(base_U / base_U[pivot], pivot)

    def u_from_slice(w):
        raw = np.insert(np.asarray(w, dtype=complex), pivot, 1.0)
        return raw / np.linalg.norm(raw)

    def decode_u(x):
        if u_mode == "fixed":
            return base_U
        block = x[:u_len] + 1j * x[u_len:2 * u_len]
        if u_mode == "raw":
            if np.linalg.norm(block) < GAUGE_COLLAPSE_NORM:
                raise _GaugeCollapse
            return block
        return u_from_slice(block)

    def encode_u(U):
        if u_mode == "fixed":
            return []
        if u_mode == "raw":
            return [np.real(U), np.imag(U)]
        w = np.delete(np.asarray(U, dtype=complex) / U[pivot], pivot)
        return [np.real(w), np.imag(w)]

    if problem.target == "hirota":
        model = _HirotaModel(rm, z_train)
    else:
        model = _OnePointModel(rm, z_train)

    def fixed_field(name):
        if name == "a":
            return np.asarray(problem.a, dtype=complex)
        val = getattr(jet, name)
        if val is None:
            if name in ("c", "d"):
                return 0j
            raise InvalidInputError(f"jet field {name} is neither set nor freed")
        return val

    def gather(vals):
        names = ("U", "V", "W", "d") if problem.target == "hirota" \
            else ("U", "V", "c", "a")
        return {n: (vals[n] if n in vals else fixed_field(n)) for n in names}

    def ratios_for(vals):
        p = gather(vals)
        if problem.target == "hirota":
            return model.ratios(p["U"], p["V"], p["W"], p["d"])
        basis_a = model.basis_at(p["a"])
        return model.ratios(basis_a, p["U"], p["V"], p["c"])

    def with_linear_solved(vals):
        """Fill the linear fields by IRLS least squares given the rest."""
        if not linear:
            return vals
        p = gather({**vals,
                    **{n: (np.zeros(g, complex) if _FIELD_SIZES[n] is None else 0j)
                       for n in linear}})
        out = dict(vals)
        if problem.target == "hirota":
            W, d = model.solve_linear(p["U"], p["V"], linear, p["W"], p["d"])
            if "W" in linear:
                out["W"] = W
            if "d" in linear:
                out["d"] = d
        else:
            basis_a = model.basis_at(p["a"])
            V, c = model.solve_linear(basis_a, p["U"], linear, p["V"], p["c"])
            if "V" in linear:
                out["V"] = V
            if "c" in linear:
                out["c"] = c
        return out

    def decode_nonlinear(x):
        vals = {"U": decode_u(x)}
        vals.update(_unpack(x[2 * u_len:], nl_named, g))
        return vals

    def decode_full(x):
        vals = {"U": decode_u(x)}
        vals.update(_unpack(x[2 * u_len:], others, g))
        return vals

    def objective_nonlinear(x):
        vals = with_linear_solved(decode_nonlinear(x))
        return float(np.mean(np.abs(ratios_for(vals)) ** 2))

    def resvec_full(x):
        r = ratios_for(decode_full(x))
        return np.concatenate([r.real, r.imag])

    n_nl = 2 * u_len + sum(2 * _field_size(n, g) for n in nl_named)

    def initial_x(k, rng):
        parts = []
        if u_mode == "raw":
            if k == 0:
                u0 = base_U
            else:
                u0 = rng.standard_normal(g) + 1j * rng.standard_normal(g)
                u0 = u0 / np.linalg.norm(u0)
            parts.extend([np.real(u0), np.imag(u0)])
        elif u_mode == "slice":
            if k == 0:
                w = w_base
            elif k % 2:
                w = w_base + 1.2 * (rng.standard_normal(u_len)
                                    + 1j * rng.standard_normal(u_len))
            else:
                raw = rng.standard_normal(g) + 1j * rng.standard_normal(g)
                piv = raw[pivot]
                if abs(piv) < 0.2:  # keep the chart coordinate bounded
                    piv = 0.2 * np.exp(2j * np.pi * rng.uniform())
                w = np.delete(raw / piv, pivot)
            parts.extend([np.real(w), np.imag(w)])
        vals0 = _initial_values(problem, rm, rng, k, nl_named)
        if nl_named:
            parts.append(_pack(vals0, nl_named, g))
        return np.concatenate(parts) if parts else np.zeros(0)

    def run_restart(k):
        rng = np.random.default_rng(restart_ss[k])
        nfev = 0
        try:
            if n_nl:
                x0 = initial_x(k, rng)
                nm = minimize(objective_nonlinear, x0, method="Nelder-Mead",
                              options={"maxiter": problem.iterations,
                                       "maxfev": 4 * problem.iterations,
                                       "xatol": 1e-12, "fatol": 1e-16,
                                       "adaptive": True})
                nfev += nm.nfev
                vals = with_linear_solved(decode_nonlinear(nm.x))
            else:
                vals = with_linear_solved({"U": base_U})
            parts = encode_u(vals["U"])
            if others:
                parts.append(_pack({n: vals[n] for n in others}, others, g))
            x_full = np.concatenate(parts)
            polish = least_squares(resvec_full, x_full, method="lm",
                                   max_nfev=problem.iterations)
            nfev += polish.nfev
            best_x = polish.x
            best_obj = float(np.mean(resvec_full(best_x) ** 2) * 2.0)
            return best_obj, best_x, False, nfev
        except _GaugeCollapse:
            return math.inf, None, True, nfev

    outcomes = [run_restart(k) for k in range(problem.restarts)]

    history = [obj for obj, _, _, _ in outcomes]
    evaluations = [n for _, _, _, n in outcomes]
    gauge_failures = sum(1 for _, _, collapsed, _ in outcomes if collapsed)
    best_idx = min(range(len(outcomes)),
                   key=lambda k: (outcomes[k][0], k))
    best_obj, best_x, _, _ = outcomes[best_idx]
    if best_x is None:
        raise DegenerateJetError("every restart collapsed the gauge")

    final = gather(decode_full(best_x))

    if problem.target == "hirota":
        hold_model = _HirotaModel(rm, z_hold)
        hold = hold_model.ratios(final["U"], final["V"], final["W"], final["d"])
        best_jet = replace(jet, U=final["U"], V=final["V"], W=final["W"], d=final["d"])
        result_a = None
        note = None
    else:
        hold_model = _OnePointModel(rm, z_hold)
        hold = hold_model.ratios(hold_model.basis_at(final["a"]),
                                 final["U"], final["V"], final["c"])
        best_jet = replace(jet, U=final["U"], V=final["V"], c=final["c"])
        result_a = final["a"]
        note = "irreducibility of the subgroup generated by a is assumed, not verified"
    if u_mode == "slice":
        # report the canonical gauge representative; residuals are invariant
        best_jet = gauge_normalize(best_jet)

    best_residual = float(np.minimum(np.abs(hold), 1.0).max())
    converged = best_residual <= problem.tolerance
    if not converged:
        extra = "no solution found within budget (not a proof of non-existence)"
        note = extra if note is None else f"{note}; {extra}"
    return SearchResult(
        best_jet=best_jet,
        best_residual=best_residual,
        history=history,
        converged=converged,
        a=result_a,
        gauge_degenerate_restarts=gauge_failures,
        evaluations=evaluations,
        note=note,
    )


def fit_hierarchy(problem: SearchProblem, jet_order: int = None) -> SearchResult:
    """Fit germ coefficients zeta_2..zeta_K and d_3..d_(K+1).

    The first germ coefficient is pinned to U from the supplied jet; the
    residual is minimized jointly over a log-spaced epsilon grid, each grid
    row weighted by 1/eps^(K+1) so all truncation orders contribute
    comparably.  The reported scaling exponent is the log-log slope of the
    holdout residual over the grid.
    """
    rm = as_riemann_matrix(problem.tau)
    g = rm.g
    K = problem.jet_order if jet_order is None else jet_order
    if not 1 <= K <= 4:
        raise InvalidInputError("hierarchy jet_order must lie in 1..4")
    jet = problem.jet
    jet.require("U", "V")
    if float(np.linalg.norm(jet.U)) < GAUGE_COLLAPSE_NORM:
        raise DegenerateJetError(
            "zero leading germ coefficient: the shift collapses to a = 0")
    U, V = jet.U, jet.V

    n_zeta = K - 1
    n_d = K - 1  # d_3 .. d_(K+1)
    n_real = 2 * g * n_zeta + 2 * n_d
    if n_real and problem.sample_count < 10 * n_real:
        raise InvalidInputError(
            f"sample_count {problem.sample_count} is below 10x the "
            f"{n_real} real free parameters")

    root = np.random.SeedSequence(problem.seed)
    train_ss, hold_ss, *restart_ss = root.spawn(2 + problem.restarts)
    z_train = box_points(rm, np.random.default_rng(train_ss), problem.sample_count)
    z_hold = box_points(rm, np.random.default_rng(hold_ss), problem.sample_count)
    model = _OnePointModel(rm, z_train)
    eps_grid = np.asarray(EPSILON_GRID)
    # a germ truncated at order K leaves residual O(eps^(K+1)); dividing
    # each grid row by that a-priori scale balances the rows at the true
    # germ, so misfit at ANY lower order dominates from the small-eps side
    weights = eps_grid ** (-(K + 1.0))

    def germ_jet(zetas, dvals):
        return replace(jet, zeta_coeffs=[U] + list(zetas), d_coeffs=list(dvals))

    def zeta_of(zetas, eps):
        total = np.zeros(g, dtype=complex)
        power = eps
        for coeff in [U] + list(zetas):
            total = total + power * coeff
            power *= eps
        return total

    def bases_for(zetas):
        return [(eps, model.basis_at(2.0 * zeta_of(zetas, eps)))
                for eps in eps_grid]

    def ratios_grid(bases, dvals):
        rows = []
        for i, (eps, basis_a) in enumerate(bases):
            d_at = sum(dv * eps ** (j + 3) for j, dv in enumerate(dvals))
            rows.append(model.ratios(basis_a, U, V + U / eps, d_at / eps)
                        * weights[i])
        return np.concatenate(rows)

    def solve_d(bases):
        """The d-coefficients enter linearly through c_eff; IRLS solve."""
        if n_d == 0:
            return ()
        fixed_rows, col_rows = [], []
        for eps, basis_a in bases:
            stack = model.term_stack(basis_a, U, V + U / eps, 0j)
            fixed_rows.append(stack[:5].sum(axis=0))
            tz_ta = model.basis_z.value * basis_a.value
            col_rows.append(np.column_stack(
                [eps ** (j + 2) * tz_ta for j in range(n_d)]))
        fixed = np.concatenate(fixed_rows)
        cols = np.vstack(col_rows)
        wrow = np.concatenate([np.full(model.basis_z.count, w) for w in weights])

        def weights_for(x):
            norms = []
            for eps, basis_a in bases:
                d_at = sum(x[j] * eps ** (j + 3) for j in range(n_d))
                stack = model.term_stack(basis_a, U, V + U / eps, d_at / eps)
                norms.append(np.abs(stack).sum(axis=0))
            return wrow / np.maximum(np.concatenate(norms), NORMALIZER_FLOOR)

        base = np.abs(np.concatenate(fixed_rows))
        w0 = wrow / np.maximum(base, NORMALIZER_FLOOR)
        x = _weighted_lstsq(cols, fixed, w0, weights_for)
        return tuple(x)

    def split(x):
        zetas = [x[2 * g * k:2 * g * (k + 1)][:g]
                 + 1j * x[2 * g * k + g:2 * g * (k + 1)][:g]
                 for k in range(n_zeta)]
        off = 2 * g * n_zeta
        dvals = [x[off + 2 * j] + 1j * x[off + 2 * j + 1] for j in range(n_d)]
        return zetas, dvals

    def join(zetas, dvals):
        parts = []
        for z in zetas:
            parts.extend([np.real(z), np.imag(z)])
        for dv in dvals:
            parts.extend([[np.real(dv)], [np.imag(dv)]])
        return np.concatenate(parts) if parts else np.zeros(0)

    def resvec(x):
        zetas, dvals = split(x)
        r = ratios_grid(bases_for(zetas), dvals)
        return np.concatenate([r.real, r.imag])

    # Near the optimum the weighted residual is almost linear in every germ
    # coefficient (the shift enters analytically and the d-terms exactly
    # linearly), so each restart goes straight to autoscaled
    # Levenberg-Marquardt; a simplex stage would crawl on the strongly
    # anisotropic epsilon weighting.
    history = []
    evaluations = []
    best = (math.inf, None)
    if n_zeta:
        for k in range(problem.restarts):
            rng = np.random.default_rng(restart_ss[k])
            # the order-2 germ coefficient is generically close to the
            # opposite of the second flow direction; seed the first restart
            # there and jitter the rest around it
            zetas0 = [-V] + [np.zeros(g, dtype=complex)] * (n_zeta - 1)
            if k > 0:
                zetas0 = [z + 0.5 * (rng.standard_normal(g)
                                     + 1j * rng.standard_normal(g))
                          for z in zetas0]
            dvals0 = solve_d(bases_for(zetas0))
            polish = least_squares(resvec, join(zetas0, dvals0), method="lm",
                                   max_nfev=problem.iterations)
            obj = float(np.mean(resvec(polish.x) ** 2) * 2.0)
            history.append(obj)
            evaluations.append(polish.nfev)
            if obj < best[0]:
                best = (obj, polish.x)
        zetas, dvals = split(best[1])
    else:
        zetas, dvals = [], []

    fitted = germ_jet(zetas, dvals)
    scan_eps = list(eps_grid)
    scan, exponent = hierarchy_scan(rm, fitted, scan_eps, list(z_hold))
    best_residual = float(max(r for _, r in scan))
    converged = best_residual <= problem.tolerance
    return SearchResult(
        best_jet=fitted,
        best_residual=best_residual,
        history=history,
        converged=converged,
        scaling_exponent=float(exponent),
        evaluations=evaluations,
        note=f"germ fitted to order {K}; leading coefficient pinned to U",
    )
