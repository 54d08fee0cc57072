"""Direction-vector searches: fitting bilinear-residual minimizers.

``fit`` and ``fit_hierarchy`` share one multi-start driver
(``_Multistart``): seeded restarts in order, each an optional Nelder-Mead
stage followed by one Levenberg-Marquardt polish of the full parameter
vector with finite-difference Jacobians, and the best restart chosen with
ties broken by restart index.  ``fit`` runs the simplex over the parameters
that enter the residual nonlinearly; the hierarchy fit polishes only.  Two
structural tricks keep the objective cheap and well-conditioned:

* all theta jets at the (fixed) training points are precomputed once, on an
  evaluator sized for the basis requests at the engine's default target
  error, as symmetric basis-derivative tensors flattened so that contracting
  one direction is one matrix product; changing direction vectors costs a
  few such products, not a lattice sum.  Each candidate (one objective or
  residual-vector evaluation) reads them through its own derivative source,
  which keeps its prefix contractions, so the IRLS rounds and the final
  ratios contract U and V once;
* fields that enter the residual linearly (W and d for the four-direction
  form, V and c for the one-point form, the d-coefficients for the
  hierarchy germ) are solved inside the objective, shrinking the search
  dimension seen by the simplex.  Each form's term stack in ``bilinear`` is
  a base block joined to a block affine in those fields, and one
  iteratively reweighted least-squares solve (``_solve_affine``) serves
  all three: it reads the fixed part and the columns off the affine block
  and weights each sample by the inverse of its term-sum normalizer.

The four-direction form is invariant under the Galilean move (V, W) ->
(V + nu U, W + 2 nu V + nu^2 U), but its monomials are not: along that
orbit the term-sum normalizer grows like |nu|^2, so the normalized residual
falls while the identity stays as it is, and a search that frees V and W
would slide out along it.  Such a search therefore reads every candidate,
the holdout and the reported jet at the orbit's representative with V
orthogonal to U (``_HirotaModel.canonical``).  ``sweep_residual("kp")``
evaluates the monomials at the jet as given, so it reads lower for a jet
moved far along the orbit.

Objectives are means of squared term-normalized residuals over seeded
training samples; reported residuals always come from a fresh holdout set
whose seed stream is disjoint from training by construction.
``SearchResult.evaluations`` counts, per restart, the driver's calls of the
Nelder-Mead objective and of the residual vector, finite-difference
columns included; the polish's ``iterations`` budget leaves those columns
out (scipy >= 1.16).
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
    _hierarchy_fold,
    _hirota_base,
    _hirota_linear,
    _hirota_terms,
    _one_point_base,
    _one_point_linear,
    _one_point_terms,
    _series,
    _term_ratios,
    as_riemann_matrix,
    gauge_normalize,
    hierarchy_scan,
)
from .engine import _check_vector, _evaluator_for, box_points, canonical_request
from .errors import DegenerateJetError, InvalidInputError

TARGETS = ("hirota", "one_point", "hierarchy")
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


def _basis_keys(g, orders):
    """Basis requests: (k, idx) -> D along e_i for i in idx, per order k and sorted tuple idx."""
    eye = np.eye(g)
    return {(k, idx): canonical_request(tuple(eye[i] for i in idx))
            for k in orders for idx in combinations_with_replacement(range(g), k)}


def _basis_evaluator(rm, orders):
    """The evaluator of a ``_BasisJets`` of these orders."""
    return _evaluator_for(rm, list(_basis_keys(rm.g, orders).values()))


class _BasisJets:
    """Symmetric directional-derivative tensors at a point cloud.

    ``tensor[k]`` is the order-k tensor of shape (g,)*k + (P,) stored
    flattened as (g, g^(k-1)*P), so contracting its leading axis with a
    direction h is the matrix product ``h[None, :] @ tensor[k]``.  A
    directional derivative along h_1..h_k contracts h_1 first; it is valid
    for any complex directions by multilinearity (lattice-shift corrections
    are linear in each direction, so corrected jets compose the same way).
    A search reads the tensors through one ``_Contractions`` source per
    candidate; ``deriv`` is a source that keeps nothing between calls.
    """

    def __init__(self, ev, points, orders):
        g = self.g = ev.rm.g
        keys = _basis_keys(g, orders)
        res = ev.jets(points, list(keys.values()))
        self.value = res[()]
        self.count = len(self.value)
        tensors = {k: np.empty((g,) * k + (self.count,), dtype=complex) for k in orders}
        for (k, idx), key in keys.items():
            for perm in set(permutations(idx)):
                tensors[k][perm] = res[key]
        self.tensor = {k: T.reshape(g, -1) for k, T in tensors.items()}

    def deriv(self, *directions):
        return _Contractions(self)(*directions)


class _Contractions:
    """The derivative source of one search candidate over a ``_BasisJets``.

    It keeps every prefix contraction h_1..h_j . T_k it makes, so the IRLS
    rounds and the final ratios of a candidate contract U.T_k, U.U.T_k, ..
    and D(V), D(V, V) once.  Entries are keyed by direction values, not by
    array identity, because a caller may change an array in place.  A source
    is made per candidate and dropped with it, which bounds its memory by
    one candidate.
    """

    def __init__(self, basis):
        self.basis = basis
        self._memo = {}

    def __call__(self, *directions):
        if not directions:
            return self.basis.value
        return self.contract(len(directions), *directions)

    def contract(self, k, *directions):
        """h_1..h_j . T_k: shape (g, g^(k-j-1)*P) for j < k, (P,) for j = k."""
        hs = [np.asarray(h, dtype=complex) for h in directions]
        return self._prefix(k, hs, tuple(h.tobytes() for h in hs))

    def _prefix(self, k, hs, keys):
        if not hs:
            return self.basis.tensor[k]
        out = self._memo.get((k, keys))
        if out is None:
            out = np.dot(hs[-1][None, :], self._prefix(k, hs[:-1], keys[:-1]))
            out = out.reshape(self.basis.g, -1) if len(hs) < k else out[0]
            self._memo[(k, keys)] = out
        return out


def _solve_affine(base, linear, n, row_weight):
    """IRLS least squares for the n complex parameters of an affine block.

    A candidate's term stack is ``base`` joined to ``linear(x)``, which is
    affine in x and exactly 0 in every row that holds x when x = 0.  Each
    round minimizes sum_p |row_weight_p * sum(terms(x))_p / sum|terms|_p|^2
    with the normalizer taken at the previous x (at x = 0 first); a few
    rounds suffice because the normalizer varies slowly compared to the
    residual.  The fixed part is the sum of base ++ linear(0) and column j
    the sum of linear(e_j) - linear(0), which is exact: the rows without x
    cancel to 0.
    """
    zero = linear(np.zeros(n, dtype=complex))
    columns = np.column_stack([(linear(e) - zero).sum(axis=0)
                               for e in np.eye(n, dtype=complex)])
    terms = np.concatenate([base, zero])
    fixed = terms.sum(axis=0)
    for k in range(IRLS_ROUNDS):
        if k:
            terms = np.concatenate([base, linear(x)])
        weights = row_weight / np.maximum(np.abs(terms).sum(axis=0), NORMALIZER_FLOOR)
        x = np.linalg.lstsq(columns * weights[:, None], -fixed * weights, rcond=None)[0]
    return x


class _Model:
    """A form's term stack at fixed sample points, read by field name.

    A subclass names the form's ``fields`` (a search may free any of them)
    and the ``linear_fields`` its stack is affine in.  Its ``ratios`` read
    the full stack, and ``base`` and ``linear`` the two blocks that join
    into it, from one candidate's derivative sources and a dict p of field
    values.
    """

    def canonical(self, p, free):
        """p itself: the form has no symmetry that moves its fields."""
        return p

    def solve_linear(self, sources, p, free):
        """p with the linear fields ``free`` solved by IRLS, the rest as in p."""
        sizes = [_field_size(name, self.g) for name in free]

        def fields(x):
            out, pos = dict(p), 0
            for name, size in zip(free, sizes):
                out[name] = x[pos] if _scalar(name) else x[pos:pos + size]
                pos += size
            return out

        x = _solve_affine(self.base(sources, p), lambda x: self.linear(sources, fields(x)),
                          sum(sizes), 1.0)
        return fields(x)


class _HirotaModel(_Model):
    """Vectorized four-direction residual at fixed sample points."""

    fields = ("U", "V", "W", "d")
    linear_fields = ("W", "d")
    note = None

    def __init__(self, rm, points):
        self.basis = _BasisJets(_basis_evaluator(rm, (1, 2, 3, 4)), points, orders=(1, 2, 3, 4))
        self.g = rm.g

    def sources(self, p):
        """Empty derivative sources for the candidate p."""
        return (_Contractions(self.basis),)

    def canonical(self, p, free):
        """The point of p's Galilean orbit with V orthogonal to U.

        It is the move by nu = -<U, V>/<U, U> (see the module docstring).  The
        orbit lies in the search only when V and W are both free; otherwise p
        is kept.  W is absent while it waits for the IRLS solve.
        """
        if "V" not in free or "W" not in free:
            return p
        U, V = p["U"], p["V"]
        mu = np.vdot(U, V) / np.vdot(U, U)
        out = {**p, "V": V - mu * U}
        if "W" in p:
            out["W"] = p["W"] - 2.0 * mu * V + mu * mu * U
        return out

    def ratios(self, sources, p):
        return _term_ratios(_hirota_terms(*sources, p["U"], p["V"], p["W"], p["d"]))

    def base(self, sources, p):
        return _hirota_base(*sources, p["U"], p["V"])

    def linear(self, sources, p):
        return _hirota_linear(*sources, p["U"], p["W"], p["d"])


class _OnePointModel(_Model):
    """Vectorized one-point residual; the shifted side is bound per shift a."""

    fields = ("U", "V", "c", "a")
    linear_fields = ("V", "c")
    note = "irreducibility of the subgroup generated by a is assumed, not verified"

    def __init__(self, rm, points):
        self.ev = _basis_evaluator(rm, (1, 2))
        self.points = np.asarray(points, dtype=complex)
        self.basis_z = _BasisJets(self.ev, self.points, orders=(1, 2))
        self.g = rm.g
        self._shifts = None
        self._bases = None

    def basis_at(self, shifts):
        """Basis jets at the points shifted by each of ``shifts``; the last stack's are kept.

        A fixed shift is bound once per model, a free one once per
        objective evaluation (the IRLS solve and the ratios share it).  The
        hierarchy fit passes its grid of germ shifts, which a candidate that
        moves only the d-coefficients leaves as it is.
        """
        shifts = np.array(shifts, dtype=complex)
        if self._shifts is None or not np.array_equal(shifts, self._shifts):
            self._bases = [_BasisJets(self.ev, self.points + a, orders=(1, 2)) for a in shifts]
            self._shifts = shifts
        return self._bases

    def sources(self, p):
        """Empty derivative sources at z and at z + a for the candidate p."""
        return _Contractions(self.basis_z), _Contractions(self.basis_at([p["a"]])[0])

    def ratios(self, sources, p):
        return _term_ratios(_one_point_terms(*sources, p["U"], p["V"], p["c"]))

    def base(self, sources, p):
        return _one_point_base(*sources, p["U"])

    def linear(self, sources, p):
        return _one_point_linear(*sources, p["V"], p["c"])


_MODELS = {"hirota": _HirotaModel, "one_point": _OnePointModel}


def _scalar(name):
    """Whether a field is one complex number; a germ coefficient (zeta2, d3, ..) by its letters."""
    return name.rstrip("0123456789") in ("c", "d")


def _field_size(name, g):
    return 1 if _scalar(name) else g


def _real_parameters(names, g, gauge=True):
    """The real parameters of the fields ``names``.

    With ``gauge``, a U left out of ``names`` stays on the gauge slice |U| = 1
    (first nonzero component real positive), which leaves 2(g-1) real
    degrees of freedom; at g = 1 the slice is the single point (1).
    """
    n = sum(2 * _field_size(name, g) for name in names)
    return n + 2 * (g - 1) if gauge and "U" not in names else n


def _pack(values, names):
    """Real vector of the fields ``names``: re then im of each, in order."""
    parts = [np.zeros(0)]
    for name in names:
        v = np.atleast_1d(np.asarray(values[name], dtype=complex))
        parts.extend([v.real, v.imag])
    return np.concatenate(parts)


def _unpack(x, names, g):
    out = {}
    pos = 0
    for name in names:
        n = _field_size(name, g)
        val = x[pos:pos + n] + 1j * x[pos + n:pos + 2 * n]
        out[name] = val[0] if _scalar(name) else val
        pos += 2 * n
    return out


def _validate_problem(problem, rm):
    """The model class of the problem's target and its real parameter count."""
    if problem.target not in TARGETS:
        raise InvalidInputError(f"unknown search target {problem.target!r}")
    model_cls = _MODELS[problem.target]
    for name in problem.free_vars:
        if name not in model_cls.fields:
            raise InvalidInputError(
                f"free variable {name!r} is not a parameter of the "
                f"{problem.target} target (allowed: {model_cls.fields})")
    if len(set(problem.free_vars)) != len(problem.free_vars):
        raise InvalidInputError("free_vars contains duplicates")
    n_real = _real_parameters(problem.free_vars, rm.g)
    if n_real == 0:
        raise InvalidInputError("no free variables to fit")
    if problem.a is not None:
        _check_vector(problem.a, rm.g, "a")
    return model_cls, n_real


class _Multistart:
    """The restart loop of both searches.

    It checks the sample floor (10 samples per real parameter) and the
    budget, and spawns the problem's seed into the training cloud
    ``z_train``, the holdout cloud ``z_hold`` and one stream per restart, so
    the holdout is disjoint from training by construction.  ``run`` then
    runs the restarts in order; ``history``, ``evaluations`` and
    ``collapsed`` record them.
    """

    def __init__(self, problem, rm, n_real):
        if problem.sample_count < 10 * n_real:
            raise InvalidInputError(
                f"sample_count {problem.sample_count} is below 10x the "
                f"{n_real} real free parameters")
        if problem.restarts < 1 or problem.iterations < 1:
            raise InvalidInputError("budget must be positive")
        self.problem = problem
        train_ss, hold_ss, *self.streams = np.random.SeedSequence(problem.seed).spawn(
            2 + problem.restarts)
        self.z_train = box_points(rm, np.random.default_rng(train_ss), problem.sample_count)
        self.z_hold = box_points(rm, np.random.default_rng(hold_ss), problem.sample_count)
        self.history, self.evaluations, self.collapsed = [], [], 0

    def run(self, start, resvec, objective=None, finish=lambda x: x):
        """The polished x of the best restart, ties broken by restart index.

        Restart k starts at ``start(k, rng)``, rng drawn from its own stream.
        With an ``objective``, a Nelder-Mead stage minimizes it from there.
        ``finish`` maps the point reached to the start of the polish, one
        Levenberg-Marquardt call on ``resvec`` with ``max_nfev`` =
        ``problem.iterations``.  On scipy >= 1.16 that budget leaves out the
        finite-difference Jacobian columns, and "lm" scales the parameters
        by the Jacobian's column norms (``x_scale="jac"``).  The restart
        scores 2 mean(polish.fun^2), the mean squared modulus of the complex
        residuals, and ``evaluations`` counts its calls of the objective and
        of ``resvec``, the difference columns included.  A restart that
        collapses the gauge (``_GaugeCollapse``) scores inf; when every
        restart does, the search fails with ``DegenerateJetError``.
        """
        problem, calls, xs = self.problem, 0, []

        def counted(f):
            def call(x):
                nonlocal calls
                calls += 1
                return f(x)
            return call

        resvec = counted(resvec)
        objective = objective and counted(objective)
        for k, stream in enumerate(self.streams):
            first = calls
            try:
                x = start(k, np.random.default_rng(stream))
                if objective:
                    x = minimize(objective, x, method="Nelder-Mead",
                                 options={"maxiter": problem.iterations,
                                          "maxfev": 4 * problem.iterations,
                                          "xatol": 1e-12, "fatol": 1e-16,
                                          "adaptive": True}).x
                polish = least_squares(resvec, finish(x), method="lm",
                                       max_nfev=problem.iterations)
                self.history.append(float(np.mean(polish.fun ** 2) * 2.0))
                xs.append(polish.x)
            except _GaugeCollapse:
                self.history.append(math.inf)
                xs.append(None)
                self.collapsed += 1
            self.evaluations.append(calls - first)
        best = min(range(len(xs)), key=self.history.__getitem__)
        if xs[best] is None:
            raise DegenerateJetError("every restart collapsed the gauge")
        return xs[best]


def _initial_values(problem, rm, rng, restart, nonlinear):
    """Restart starts of the nonlinear fields: V (KP target) or a (one-point target)."""
    vals = {}
    for name in nonlinear:
        g = rm.g
        base = problem.a if name == "a" else getattr(problem.jet, name)
        if restart == 0 and base is not None:
            vals[name] = np.asarray(base, dtype=complex)
        elif name == "a":
            x = rng.uniform(-0.5, 0.5, g)
            y = rng.uniform(-0.5, 0.5, g)
            vals[name] = x + y @ rm.tau
        else:
            vals[name] = 0.6 * (rng.standard_normal(g) + 1j * rng.standard_normal(g))
    return vals


def fit(problem: SearchProblem) -> SearchResult:
    """Minimize the chosen residual over the freed jet parameters.

    Deterministic for a fixed problem (see ``_Multistart``).  Each restart
    runs Nelder-Mead over U's chart and the nonlinear fields, if there are
    any, with the linear fields solved by IRLS inside the objective, then
    polishes every free field; the best restart is scored on the holdout
    cloud.
    """
    rm = as_riemann_matrix(problem.tau)
    if problem.target == "hierarchy":
        return fit_hierarchy(problem)
    model_cls, n_real = _validate_problem(problem, rm)
    driver = _Multistart(problem, rm, n_real)
    g = rm.g
    jet = problem.jet

    def fixed_value(name):
        value = problem.a if name == "a" else getattr(jet, name)
        if value is not None:
            return np.asarray(value, dtype=complex) if name == "a" else value
        if name in ("c", "d"):
            return 0j
        raise InvalidInputError(f"{name} is neither set nor freed")

    fixed = {n: fixed_value(n) for n in model_cls.fields
             if n != "U" and n not in problem.free_vars}

    linear = tuple(n for n in problem.free_vars if n in model_cls.linear_fields)
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

    model = model_cls(rm, driver.z_train)

    def with_linear_solved(vals):
        """The candidate's field values, its linear fields solved by IRLS.

        Returns the values and the candidate's derivative sources, which
        its ratios reuse.
        """
        p = model.canonical({**fixed, **vals}, problem.free_vars)
        sources = model.sources(p)
        if linear:
            p = model.solve_linear(sources, p, linear)
        return p, sources

    def decode_nonlinear(x):
        return {"U": decode_u(x), **_unpack(x[2 * u_len:], nl_named, g)}

    def decode_full(x):
        return {**fixed, "U": decode_u(x), **_unpack(x[2 * u_len:], others, g)}

    def objective_nonlinear(x):
        p, sources = with_linear_solved(decode_nonlinear(x))
        return float(np.mean(np.abs(model.ratios(sources, p)) ** 2))

    def resvec_full(x):
        p = model.canonical(decode_full(x), problem.free_vars)
        r = model.ratios(model.sources(p), p)
        return np.concatenate([r.real, r.imag])

    def polish_start(x):
        p, _ = with_linear_solved(decode_nonlinear(x))
        return np.concatenate(encode_u(p["U"]) + [_pack(p, others)])

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
        return np.concatenate(parts + [_pack(vals0, nl_named)])

    n_nl = 2 * u_len + sum(2 * _field_size(n, g) for n in nl_named)
    best_x = driver.run(initial_x, resvec_full, objective_nonlinear if n_nl else None,
                        polish_start)

    final = model.canonical(decode_full(best_x), problem.free_vars)
    hold_model = model_cls(rm, driver.z_hold)
    hold = hold_model.ratios(hold_model.sources(final), final)
    best_jet = replace(jet, **{n: v for n, v in final.items() if n != "a"})
    note = model_cls.note
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
        history=driver.history,
        converged=converged,
        a=final.get("a"),
        gauge_degenerate_restarts=driver.collapsed,
        evaluations=driver.evaluations,
        note=note,
    )


def fit_hierarchy(problem: SearchProblem) -> SearchResult:
    """Fit germ coefficients zeta_2..zeta_K and d_3..d_(K+1), K = ``problem.jet_order``.

    The first germ coefficient is pinned to U from the supplied jet; the
    residual is minimized jointly over a log-spaced epsilon grid, each grid
    row weighted by 1/eps^(K+1) so all truncation orders contribute
    comparably.  The reported scaling exponent is the log-log slope of the
    holdout residual over the grid.
    """
    rm = as_riemann_matrix(problem.tau)
    g = rm.g
    K = problem.jet_order
    if not 1 <= K <= 4:
        raise InvalidInputError("hierarchy jet_order must lie in 1..4")
    jet = problem.jet
    jet.require("U", "V")
    if float(np.linalg.norm(jet.U)) < GAUGE_COLLAPSE_NORM:
        raise DegenerateJetError(
            "zero leading germ coefficient: the shift collapses to a = 0")
    U, V = jet.U, jet.V

    zeta_names = [f"zeta{k}" for k in range(2, K + 1)]
    d_names = [f"d{j}" for j in range(3, K + 2)]
    names = zeta_names + d_names
    driver = _Multistart(problem, rm, _real_parameters(names, g, gauge=False))
    model = _OnePointModel(rm, driver.z_train)
    eps_grid = np.asarray(EPSILON_GRID)
    # a germ truncated at order K leaves residual O(eps^(K+1)); dividing
    # each grid row by that a-priori scale balances the rows at the true
    # germ, so misfit at ANY lower order dominates from the small-eps side
    weights = eps_grid ** (-(K + 1.0))

    def grid(zetas, dvals):
        """Per grid eps, the one-point fields and shift of the folded form (zeta_1 = U)."""
        folds = [_hierarchy_fold(U, V, eps, _series([U, *zetas], eps, 1), _series(dvals, eps, 3))
                 for eps in eps_grid]
        return [{"U": U, "V": v, "c": c} for v, c, _ in folds], [a for _, _, a in folds]

    def sources_for(shifts):
        """Derivative sources of one candidate: at z, and at z + a per grid shift a."""
        Dz = _Contractions(model.basis_z)
        return [(Dz, _Contractions(basis_a)) for basis_a in model.basis_at(shifts)]

    def solve_d(zetas):
        """The d-coefficients enter every row's constant linearly; IRLS solve."""
        sources = sources_for(grid(zetas, ())[1])
        base = np.concatenate([model.base(src, {"U": U}) for src in sources], axis=1)

        def linear(x):
            return np.concatenate([model.linear(src, p)
                                   for src, p in zip(sources, grid(zetas, x)[0])], axis=1)

        return dict(zip(d_names, _solve_affine(base, linear, len(d_names),
                                               np.repeat(weights, model.basis_z.count))))

    def start(k, rng):
        # the order-2 germ coefficient is generically close to the opposite
        # of the second flow direction; seed the first restart there and
        # jitter the rest around it
        zetas = [-V] + [np.zeros(g, dtype=complex)] * (K - 2)
        if k > 0:
            zetas = [z + 0.5 * (rng.standard_normal(g) + 1j * rng.standard_normal(g))
                     for z in zetas]
        return _pack({**dict(zip(zeta_names, zetas)), **solve_d(zetas)}, names)

    def resvec(x):
        p = _unpack(x, names, g)
        fields, shifts = grid([p[n] for n in zeta_names], [p[n] for n in d_names])
        r = np.concatenate([model.ratios(src, q) * w for src, q, w in
                            zip(sources_for(shifts), fields, weights)])
        return np.concatenate([r.real, r.imag])

    # Near the optimum the weighted residual is almost linear in every germ
    # coefficient (the shift enters analytically and the d-terms exactly
    # linearly), so the restarts polish with no simplex stage, which would
    # crawl on the strongly anisotropic epsilon weighting.
    p = _unpack(driver.run(start, resvec), names, g) if names else {}
    fitted = replace(jet, zeta_coeffs=[U] + [p[n] for n in zeta_names],
                     d_coeffs=[p[n] for n in d_names])
    scan, exponent = hierarchy_scan(rm, fitted, list(eps_grid), list(driver.z_hold))
    best_residual = float(max(r for _, r in scan))
    return SearchResult(
        best_jet=fitted,
        best_residual=best_residual,
        history=driver.history,
        converged=best_residual <= problem.tolerance,
        scaling_exponent=float(exponent),
        evaluations=driver.evaluations,
        note=f"germ fitted to order {K}; leading coefficient pinned to U",
    )
