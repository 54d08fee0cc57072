"""Direction-vector searches: fitting bilinear-residual minimizers.

``fit`` and ``fit_hierarchy`` share one multi-start driver
(``_Multistart``): seeded restarts in order, each one Levenberg-Marquardt
run (``_levenberg_marquardt``, numpy only) over the full parameter vector
with its exact Jacobian, and the best restart chosen with ties broken by
restart index.  Two structural tricks keep each restart cheap and
well-conditioned:

* all theta jets at the (fixed) training points are precomputed once, on an
  evaluator sized for the basis requests at the engine's default target
  error, as symmetric basis-derivative tensors flattened so that contracting
  one direction is one matrix product; changing direction vectors costs a
  few such products, not a lattice sum.  Each candidate (one residual-vector
  evaluation) reads them through its own derivative source, which keeps its
  prefix contractions, so its ratios and its Jacobian contract U and V once;
* fields that enter the residual linearly (W and d for the four-direction
  form, V and c for the one-point form, the d-coefficients for the
  hierarchy germ) are solved before each restart's Levenberg-Marquardt run,
  which starts from the solved values.  Each form's term stack in
  ``bilinear`` is affine in those fields, and one iteratively reweighted
  least-squares solve (``_Model.solve_linear``) serves all three: it reads
  the model's stack on those fields as ``bilinear._Dual`` values at zero,
  whose tangents are the solve's columns, and weights each sample by the
  model's ``row_weight`` over its term-sum normalizer.

A search is a model (``_HirotaModel``, ``_OnePointModel``, or
``_HierarchyModel``, the one-point form on the germ's epsilon grid) and a
``decode`` of the real parameters x into its fields.  ``_Multistart.run``
holds the one residual map, the model's term-sum ratios at the decoded
candidate, and its Jacobian, the same map run in forward mode on
``decode(x, dual=True)``: U's chart on its gauge slice, the Galilean
representative of a KP candidate, the hierarchy's fold, the term stack
(along the shift a, a source bound one order up) and the ratios carry the
tangents to the Jacobian's columns.  Every dual value equals the plain one
bit for bit, so the Jacobian, asked for only where the residual vector was
just accepted, reuses that candidate's derivative sources.

The four-direction form is invariant under the Galilean move (V, W) ->
(V + nu U, W + 2 nu V + nu^2 U) and its term-sum normalizer is not, so a
search that frees V and W would slide out along the orbit.  By the rule
every Galilean-invariant verdict follows (``bilinear._galilean``), such a
search reads every candidate, the holdout and the reported jet at the
representative with V orthogonal to U (``_HirotaModel.canonical``); a KP
fit that holds V or W keeps them as given.

Every form is invariant under the gauge (U, V, W, c, d) -> (lam U, lam^2 V,
lam^3 W, lam^2 c, lam^4 d), so ``fit`` searches only U's direction, on the
slice of unit vectors real positive where the starting U is largest (at
genus 1 a point: U is kept as given), and U is never a free field.

Objectives are means of squared term-normalized residuals over seeded
training samples; reported residuals always come from a fresh holdout set
whose seed stream is disjoint from training by construction.
``SearchResult.evaluations`` counts, per restart, the calls of the
residual vector and of its Jacobian; the ``iterations`` budget counts
residual vectors only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations_with_replacement, permutations

import numpy as np

from .bilinear import (
    DirectionJet,
    GAUGE_DEGENERATE_TOL,
    NORMALIZER_FLOOR,
    _Dual,
    _galilean,
    _hierarchy_fold,
    _hirota_residuals,
    _hirota_terms,
    _one_point_residuals,
    _one_point_terms,
    _series,
    _term_ratios,
    gauge_normalize,
    hierarchy_scan,
)
from .engine import (
    _check_real,
    _check_vector,
    _evaluator_for,
    as_riemann_matrix,
    box_points,
    canonical_request,
)
from .errors import DegenerateJetError, InvalidInputError


SAMPLES_PER_PARAMETER = 10  # the training floor of a search, per real free parameter
EPSILON_GRID = tuple(np.geomspace(1e-3, 1e-1, 7))
IRLS_ROUNDS = 3
LM_DAMPING = 1e-3  # the first Levenberg-Marquardt damping, relative to the column scales D^2
LM_REDUCTION = 1e-8  # stop once the relative actual and predicted reductions are both below it


@dataclass
class SearchProblem:
    """A residual-minimization task over direction-jet parameters.

    ``jet`` supplies U, whose direction starts the search on its gauge
    slice, and the fixed field values; ``free_vars`` names the other fields
    being optimized — for the one-point target the shift ``a`` may be freed
    as well, with base value taken from ``a``; a hierarchy fit frees its germ
    coefficients and no field.  ``restarts``/``iterations``
    bound the budget per the multi-start scheme; ``jet_order`` is the germ
    order for hierarchy fits.
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
    scaling_exponent: float = None
    evaluations: list = None
    note: str = None


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

    Directions may be ``_Dual``: D(h_1..h_k) moves by sum_i dh_i @ grad(h without h_i),
    one term per distinct direction times its count, the tensors being symmetric.  A
    source whose points move by tangents ``shift`` (n, g) adds shift @ grad(h_1..h_k).
    """

    def __init__(self, basis, shift=None, memo=None):
        self.basis, self.shift = basis, shift
        self._memo = {} if memo is None else memo

    def __call__(self, *directions):
        hs = [h.value if isinstance(h, _Dual) else h for h in directions]
        value = self.contract(len(hs), *hs) if hs else self.basis.value
        tangents = [directions.count(h) * (h.tangent @ self.grad(*hs[:i], *hs[i + 1:]))
                    for i, h in enumerate(directions)
                    if isinstance(h, _Dual) and directions.index(h) == i]
        if self.shift is not None:
            tangents.append(self.shift @ self.grad(*hs))
        return _Dual(value, sum(tangents)) if tangents else value

    def moving(self, shift):
        """This source with its points moving by tangents ``shift``; it shares the memo."""
        return _Contractions(self.basis, shift, self._memo)

    def contract(self, k, *directions):
        """h_1..h_j . T_k: shape (g, g^(k-j-1)*P) for j < k, (P,) for j = k."""
        hs = [np.asarray(h, dtype=complex) for h in directions]
        return self._prefix(k, hs, tuple(h.tobytes() for h in hs))

    def grad(self, *directions):
        """The (g, P) gradient h_1..h_m . T_(m+1): row j is D(h_1, .., h_m, e_j)."""
        return self.contract(len(directions) + 1, *directions)

    def _prefix(self, k, hs, keys):
        if not hs:
            return self.basis.tensor[k]
        out = self._memo.get((k, keys))
        if out is None:
            out = np.dot(hs[-1][None, :], self._prefix(k, hs[:-1], keys[:-1]))
            out = out.reshape(self.basis.g, -1) if len(hs) < k else out[0]
            self._memo[(k, keys)] = out
        return out


def _solve_affine(terms, columns, row_weight):
    """IRLS least squares for the n complex parameters x of an affine term stack.

    ``terms`` (T, P) is a candidate's stack at x = 0 and ``columns``
    (T, P, n) its derivatives along x, so the stack at x is exactly
    terms + columns @ x.  Each round minimizes
    sum_p |row_weight_p * sum(terms(x))_p / sum|terms(x)|_p|^2 with the
    normalizer taken at the previous x (at x = 0 first); a few rounds
    suffice because the normalizer varies slowly compared to the residual.
    """
    fixed, matrix = terms.sum(axis=0), columns.sum(axis=0)
    current = terms
    for k in range(IRLS_ROUNDS):
        if k:
            current = terms + columns @ x
        weights = row_weight / np.maximum(np.abs(current).sum(axis=0), NORMALIZER_FLOOR)
        x = np.linalg.lstsq(matrix * weights[:, None], -fixed * weights, rcond=None)[0]
    return x


class _Model:
    """A form's term stack at fixed sample points, read by field name.

    A subclass names the form's ``fields`` (a search may free any of them)
    and the ``linear_fields`` its stack is affine in.  Its ``terms`` read
    one candidate's derivative sources and a dict p of field values, plain or
    ``_Dual``; on dual fields the stack carries its tangents, which are the
    IRLS columns and, through ``ratios``, the Jacobian.  ``row_weight``
    weights each sample of the stack in the IRLS solve.
    """

    row_weight = 1.0

    def canonical(self, p, free):
        """p itself: the form has no symmetry that moves its fields."""
        return p

    def fold(self, p):
        """p as its ``sources``, ``terms`` and ``ratios`` read it: p itself here."""
        return p

    def ratios(self, sources, p):
        return _term_ratios(self.terms(sources, p))

    def solve_linear(self, sources, p, free):
        """p with the linear fields ``free`` solved by IRLS, the rest as in p."""
        zero = {name: _Dual(0j if _scalar(name) else np.zeros(self.g, dtype=complex), t)
                for name, t in _tangents(free, self.g, (1.0,)).items()}
        stack = self.terms(sources, {**p, **zero})
        x = _solve_affine(stack.value, np.moveaxis(stack.tangent, 0, -1), self.row_weight)
        out, pos = dict(p), 0
        for name in free:
            size = _field_size(name, self.g)
            out[name] = x[pos] if _scalar(name) else x[pos:pos + size]
            pos += size
        return out


class _HirotaModel(_Model):
    """Vectorized four-direction residual at fixed sample points."""

    fields = ("V", "W", "d")
    linear_fields = ("W", "d")
    note = None

    def __init__(self, rm, points):
        self.basis = _BasisJets(_basis_evaluator(rm, (1, 2, 3, 4)), points, orders=(1, 2, 3, 4))
        self.g = rm.g

    def sources(self, p, along=()):
        """Empty derivative sources for the candidate p, along any field."""
        return (_Contractions(self.basis),)

    def canonical(self, p, free):
        """The point of p's Galilean orbit with V orthogonal to U (``bilinear._galilean``).

        The orbit lies in the search only when V and W are both free; otherwise
        p is kept.  W is absent while it waits for the IRLS solve.
        """
        if "V" not in free or "W" not in free:
            return p
        V, W = _galilean(p["U"], p["V"], p.get("W"))
        return {**p, "V": V} if W is None else {**p, "V": V, "W": W}

    def terms(self, sources, p):
        return _hirota_terms(*sources, p["U"], p["V"], p["W"], p["d"])


class _OnePointModel(_Model):
    """Vectorized one-point residual; the shifted side is bound per shift a."""

    fields = ("V", "c", "a")
    linear_fields = ("V", "c")
    note = "irreducibility of the subgroup generated by a is assumed, not verified"

    def __init__(self, rm, points):
        self.rm = rm
        self._evaluators = {}
        self.points = np.asarray(points, dtype=complex)
        self.basis_z = _BasisJets(self._evaluator((1, 2)), self.points, orders=(1, 2))
        self.g = rm.g
        self._shifts = None
        self._orders = ()
        self._bases = None

    def _evaluator(self, orders):
        if orders not in self._evaluators:
            self._evaluators[orders] = _basis_evaluator(self.rm, orders)
        return self._evaluators[orders]

    def basis_at(self, shifts, orders=(1, 2)):
        """Basis jets at the points shifted by each of ``shifts``; the last stack's are kept.

        A fixed shift is bound once per model, a free one once per
        residual-vector evaluation (the Jacobian at that point shares it).  The
        hierarchy model passes its grid of germ shifts, which a candidate that
        moves only the d-coefficients leaves as it is.  The kept stack
        serves any ``orders`` it holds: the Jacobian along a free shift needs
        orders 1-3, the terms orders 1-2.
        """
        shifts = np.array(shifts, dtype=complex)
        if not (set(orders) <= set(self._orders) and np.array_equal(shifts, self._shifts)):
            ev = self._evaluator(orders)
            self._bases = [_BasisJets(ev, self.points + a, orders) for a in shifts]
            self._shifts, self._orders = shifts, orders
        return self._bases

    def sources(self, p, along=()):
        """Empty derivative sources at z and at z + a for the candidate p.

        Along a free shift (``"a"`` in ``along``) the shifted side is bound
        one order up, so the same sources serve the candidate's Jacobian.
        """
        orders = (1, 2, 3) if "a" in along else (1, 2)
        return _Contractions(self.basis_z), _Contractions(self.basis_at([p["a"]], orders)[0])

    def terms(self, sources, p):
        """The stack at p; a ``_Dual`` shift a moves the source at z + a along its tangents."""
        Dz, Da = sources
        if isinstance(p["a"], _Dual):
            Da = Da.moving(p["a"].tangent)
        return _one_point_terms(Dz, Da, p["U"], p["V"], p["c"])


class _HierarchyModel(_OnePointModel):
    """The one-point form of a germ on the epsilon grid, its rows joined along the samples.

    The fields are zeta_2..zeta_K and d_3..d_(K+1), the linear ones; zeta_1 is
    U.  Each grid eps folds the germ into one-point fields
    (``bilinear._hierarchy_fold``).  A germ truncated at order K leaves
    residual O(eps^(K+1)), so a row weighted by 1/eps^(K+1) balances the
    rows at the true germ, and a misfit at any lower order dominates from
    the small-eps side.
    """

    def __init__(self, rm, points, U, V, order):
        super().__init__(rm, points)
        self.U, self.V = U, V
        self.zeta_names = tuple(f"zeta{k}" for k in range(2, order + 1))
        self.linear_fields = tuple(f"d{j}" for j in range(3, order + 2))
        self.fields = self.zeta_names + self.linear_fields
        self.weights = np.asarray(EPSILON_GRID) ** (-(order + 1.0))
        self.row_weight = np.repeat(self.weights, self.basis_z.count)

    def fold(self, p):
        """Per grid eps, the one-point fields U, V, c and a of the germ p's fold."""
        zetas = [self.U, *(p[n] for n in self.zeta_names)]
        dvals = [p[n] for n in self.linear_fields]
        return [dict(zip(("U", "V", "c", "a"), _hierarchy_fold(
                    self.U, self.V, eps, _series(zetas, eps, 1), _series(dvals, eps, 3))))
                for eps in EPSILON_GRID]

    def _grid(self, p):
        """The fold of p, or p itself when it is already a fold (a list)."""
        return p if isinstance(p, list) else self.fold(p)

    def sources(self, p, along=()):
        """Derivative sources at z, and at z + a per grid shift a of the germ p (or its fold).

        The grid is bound at orders 1-3, so one bind per germ serves the IRLS
        solve, the residual vector and the Jacobian along the shifts.
        """
        Dz = _Contractions(self.basis_z)
        shifts = [q["a"] for q in self._grid(p)]
        return [(Dz, _Contractions(basis)) for basis in self.basis_at(shifts, (1, 2, 3))]

    def terms(self, sources, p):
        return _join([_OnePointModel.terms(self, src, q) for src, q in zip(sources, self._grid(p))])

    def ratios(self, sources, p):
        """Each grid row's term-sum ratios, weighted by 1/eps^(K+1), joined along the samples."""
        return _join([_term_ratios(_OnePointModel.terms(self, src, q)) * w
                      for src, q, w in zip(sources, self._grid(p), self.weights)])


def _join(parts):
    """Plain or ``_Dual`` arrays joined along their last axis, the samples."""
    if not isinstance(parts[0], _Dual):
        return np.concatenate(parts, axis=-1)
    return _Dual(np.concatenate([q.value for q in parts], axis=-1),
                 np.concatenate([q.tangent for q in parts], axis=-1))


_MODELS = {"hirota": _HirotaModel, "one_point": _OnePointModel}


def _scalar(name):
    """Whether a field is one complex number; a germ coefficient (zeta2, d3, ..) by its letters."""
    return name.rstrip("0123456789") in ("c", "d")


def _field_size(name, g):
    return 1 if _scalar(name) else g


def _real_parameters(names, g):
    """The real parameters of the fields ``names`` plus the 2(g-1) of U's slice."""
    return sum(2 * _field_size(name, g) for name in names) + 2 * (g - 1)


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


def _tangents(names, g, units=(1.0, 1j), offset=0):
    """d(field)/dx {name: (n, size)} for x = ``offset`` other entries, then the fields ``names``.

    ``units`` (1, 1j) is the real packing of ``_pack`` (re, then im, of
    each field); (1,) packs one complex entry per component.
    """
    sizes = [_field_size(name, g) for name in names]
    n = offset + len(units) * sum(sizes)
    out, pos = {}, offset
    for name, size in zip(names, sizes):
        out[name] = np.zeros((n, size), dtype=complex)
        for unit in units:
            out[name][pos:pos + size] = unit * np.eye(size)
            pos += size
    return out


def _real_stack(r):
    """Complex residuals, or their derivatives (P, n), as the real rows of least squares."""
    return np.concatenate([r.real, r.imag])


def _levenberg_marquardt(resvec, jac, x, max_nfev):
    """The point reached by minimizing |resvec(x)|^2 from x, and its residual vector.

    Each step h solves [J; sqrt(mu) D] h = [-r; 0] in the least-squares
    sense, D the running maximum of J's column norms (MINPACK's scaling,
    Moré 1978).  The damping mu starts at ``LM_DAMPING`` and follows
    Nielsen's gain-ratio update (Madsen, Nielsen & Tingleff 2004): a step
    with gain ratio rho > 0 is accepted and scales mu by
    max(1/3, 1 - (2 rho - 1)^3); a rejected one scales it by nu = 2, 4, ...
    ``jac`` is asked for only at the point whose residual vector was just
    accepted.  It stops after ``max_nfev`` residual vectors, once the
    relative actual and predicted reductions are both at most
    ``LM_REDUCTION``, or at a step below roundoff.
    """
    r, nfev, mu, nu, scale, accepted = resvec(x), 1, LM_DAMPING, 2.0, 0.0, True
    while nfev < max_nfev and r @ r > 0.0:
        if accepted:
            J = jac(x)
            scale = np.maximum(scale, np.linalg.norm(J, axis=0))
            D = np.where(scale > 0.0, scale, 1.0)
        h = np.linalg.lstsq(np.vstack([J, np.sqrt(mu) * np.diag(D)]),
                            np.concatenate([-r, np.zeros(len(x))]), rcond=None)[0]
        if np.linalg.norm(D * h) <= np.finfo(float).eps * np.linalg.norm(D * x):
            break
        trial, nfev = resvec(x + h), nfev + 1
        cost, Jh, Dh = r @ r, J @ h, D * h
        actual = 1.0 - (trial @ trial) / cost
        predicted = (Jh @ Jh + 2.0 * mu * (Dh @ Dh)) / cost
        rho = actual / predicted
        accepted = rho > 0.0
        if accepted:
            x, r = x + h, trial
            mu, nu = mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0
        else:
            mu, nu = mu * nu, 2.0 * nu
        if abs(actual) <= LM_REDUCTION and predicted <= LM_REDUCTION:
            break
    return x, r


def _validate_problem(problem, rm):
    """The model class of the problem's target and its real parameter count."""
    if problem.target not in _MODELS:
        raise InvalidInputError(f"unknown search target {problem.target!r}")
    model_cls = _MODELS[problem.target]
    _check_vector(problem.jet.U, rm.g, "U")
    if "U" in problem.free_vars:
        raise InvalidInputError("U cannot be freed: its direction is always searched on its slice")
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

    It checks the sample floor (``SAMPLES_PER_PARAMETER`` per real
    parameter), the budget and the tolerance, and spawns the problem's seed
    into the training cloud ``z_train``, the holdout cloud ``z_hold`` and one
    stream per restart, so the holdout is disjoint from training by construction.
    ``run`` then runs the restarts in order; ``history`` and ``evaluations``
    record them.
    """

    def __init__(self, problem, rm, n_real):
        _check_real(problem.tolerance, "tolerance")
        if problem.sample_count < SAMPLES_PER_PARAMETER * n_real:
            raise InvalidInputError(
                f"sample_count {problem.sample_count} is below {SAMPLES_PER_PARAMETER}x "
                f"the {n_real} real free parameters")
        if problem.restarts < 1 or problem.iterations < 1:
            raise InvalidInputError("budget must be positive")
        if problem.seed < 0:
            raise InvalidInputError(f"seed must be non-negative, got {problem.seed}")
        self.problem = problem
        train_ss, hold_ss, *self.streams = np.random.SeedSequence(problem.seed).spawn(
            2 + problem.restarts)
        self.z_train = box_points(rm, np.random.default_rng(train_ss), problem.sample_count)
        self.z_hold = box_points(rm, np.random.default_rng(hold_ss), problem.sample_count)
        self.history, self.evaluations = [], []

    def run(self, start, model, decode, free):
        """The x reached by the best restart, ties broken by restart index.

        The residual vector at x is ``model.ratios`` at the candidate
        p = model.fold(model.canonical(decode(x), free)), on
        ``model.sources(p, along=free)``, so a model folds each candidate once;
        the Jacobian is the same map on ``decode(x, dual=True)``, on the kept
        sources of the last candidate.  Restart k starts at ``start(k, rng)``,
        rng drawn from its own stream, and makes one ``_levenberg_marquardt``
        run of at most ``problem.iterations`` residual vectors.  It scores
        2 mean(r^2) at the point reached, the mean squared modulus of the
        complex residuals; ``evaluations`` counts its residual vectors and
        Jacobians.
        """
        calls, xs, last = 0, [], []

        def candidate(x):
            if not last or not np.array_equal(x, last[0]):
                p = model.fold(model.canonical(decode(x), free))
                last[:] = [np.array(x), p, model.sources(p, along=free)]
            return last[1], last[2]

        def resvec(x):
            nonlocal calls
            calls += 1
            p, sources = candidate(x)
            return _real_stack(model.ratios(sources, p))

        def jacobian(x):
            nonlocal calls
            calls += 1
            dual = model.fold(model.canonical(decode(x, dual=True), free))
            return _real_stack(model.ratios(candidate(x)[1], dual).tangent.T)

        for k, stream in enumerate(self.streams):
            first = calls
            x, r = _levenberg_marquardt(resvec, jacobian, start(k, np.random.default_rng(stream)),
                                        self.problem.iterations)
            self.history.append(float(np.mean(r ** 2) * 2.0))
            xs.append(x)
            self.evaluations.append(calls - first)
        return xs[min(range(len(xs)), key=self.history.__getitem__)]


def _initial_values(problem, rm, rng, restart, nonlinear):
    """Restart starts of the nonlinear fields: V (KP target) or a (one-point target)."""
    vals = {}
    for name in nonlinear:
        base = problem.a if name == "a" else getattr(problem.jet, name)
        if restart == 0 and base is not None:
            vals[name] = np.asarray(base, dtype=complex)
        elif name == "a":
            vals[name] = box_points(rm, rng, 1)[0]
        else:
            vals[name] = 0.6 * (rng.standard_normal(rm.g) + 1j * rng.standard_normal(rm.g))
    return vals


def fit(problem: SearchProblem) -> SearchResult:
    """Minimize the chosen residual over the freed jet parameters.

    Deterministic for a fixed problem (see ``_Multistart``).  Each restart
    draws U's slice point and the nonlinear fields, solves the linear
    fields there by IRLS, and makes one Levenberg-Marquardt run over every
    free field from that start; the best restart is scored on the holdout
    cloud.
    """
    if problem.target == "hierarchy":
        return fit_hierarchy(problem)
    rm = as_riemann_matrix(problem.tau)
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

    fixed = {n: fixed_value(n) for n in model_cls.fields if n not in problem.free_vars}
    linear = tuple(n for n in problem.free_vars if n in model_cls.linear_fields)
    nonlinear = tuple(n for n in problem.free_vars if n not in linear)

    jet.require("U")
    base_U = np.asarray(jet.U, dtype=complex)
    if float(np.linalg.norm(base_U)) < GAUGE_DEGENERATE_TOL:
        raise DegenerateJetError("starting direction U has near-zero norm")
    u_len = g - 1  # U's slice: w -> (w with 1 inserted at the pivot), normalized
    pivot = int(np.argmax(np.abs(base_U)))
    w_base = np.delete(base_U / base_U[pivot], pivot)

    # d(field)/dx: U's chart before normalizing, and the free fields' unit columns
    chart = np.eye(g, dtype=complex)[np.arange(g) != pivot]
    raw_dx = np.zeros((n_real, g), dtype=complex)
    raw_dx[:2 * u_len] = np.vstack([chart, 1j * chart])
    field_dx = _tangents(problem.free_vars, g, offset=2 * u_len)

    def decode_u(w, dual=False):
        """U at the slice coordinates w: w with 1 inserted at the pivot, normalized."""
        if not u_len:
            return base_U
        raw = np.insert(w, pivot, 1.0)
        if dual:
            raw = _Dual(raw, raw_dx)
        return raw / np.linalg.norm(raw)

    model = model_cls(rm, driver.z_train)

    def decode(x, dual=False):
        """The fields at x; with ``dual``, U and the free fields are ``_Dual`` along x."""
        fields = _unpack(x[2 * u_len:], problem.free_vars, g)
        if dual:
            fields = {name: _Dual(v, field_dx[name]) for name, v in fields.items()}
        return {**fixed, "U": decode_u(x[:u_len] + 1j * x[u_len:2 * u_len], dual), **fields}

    def start(k, rng):
        """Restart k's x: U's slice point and the nonlinear fields drawn, the linear ones solved."""
        w = w_base
        if u_len and k % 2:
            w = w_base + 1.2 * (rng.standard_normal(u_len) + 1j * rng.standard_normal(u_len))
        elif u_len and k:  # an even restart draws U afresh
            raw = rng.standard_normal(g) + 1j * rng.standard_normal(g)
            piv = raw[pivot]
            if abs(piv) < 0.2:  # keep the chart coordinate bounded
                piv = 0.2 * np.exp(2j * np.pi * rng.uniform())
            w = np.delete(raw / piv, pivot)
        drawn = {**fixed, "U": decode_u(w), **_initial_values(problem, rm, rng, k, nonlinear)}
        p = model.canonical(drawn, problem.free_vars)
        if linear:
            p = model.solve_linear(model.sources(p), p, linear)
        w = np.delete(p["U"] / p["U"][pivot], pivot)
        return np.concatenate([w.real, w.imag, _pack(p, problem.free_vars)])

    final = model.canonical(decode(driver.run(start, model, decode, problem.free_vars)),
                            problem.free_vars)
    best_jet = replace(jet, **{n: v for n, v in final.items() if n != "a"})
    if problem.target == "hirota":
        hold = _hirota_residuals(rm, best_jet, driver.z_hold)
    else:
        hold = _one_point_residuals(rm, driver.z_hold, final["U"], final["V"], final["c"],
                                    final["a"])
    note = model_cls.note
    if u_len:
        # report the canonical gauge representative; residuals are invariant
        best_jet = gauge_normalize(best_jet)

    best_residual = float(hold.max())
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
        evaluations=driver.evaluations,
        note=note,
    )


def fit_hierarchy(problem: SearchProblem) -> SearchResult:
    """Fit germ coefficients zeta_2..zeta_K and d_3..d_(K+1), K = ``problem.jet_order``.

    The first germ coefficient is pinned to U from the supplied jet; the
    residual is minimized jointly over a log-spaced epsilon grid
    (``_HierarchyModel``).  The reported scaling exponent is the log-log
    slope of the holdout residual over the grid.
    """
    rm = as_riemann_matrix(problem.tau)
    g = rm.g
    K = problem.jet_order
    if not 1 <= K <= 4:
        raise InvalidInputError("hierarchy jet_order must lie in 1..4")
    if problem.free_vars:
        raise InvalidInputError("the hierarchy fit frees its germ coefficients only; "
                                f"free_vars must be empty, got {problem.free_vars}")
    jet = problem.jet
    jet.require("U", "V")
    _check_vector(jet.U, g, "U")
    if float(np.linalg.norm(jet.U)) < GAUGE_DEGENERATE_TOL:
        raise DegenerateJetError(
            "zero leading germ coefficient: the shift collapses to a = 0")
    # the free fields are zeta_2..zeta_K and d_3..d_(K+1)
    driver = _Multistart(problem, rm, 2 * (K - 1) * (g + 1))
    model = _HierarchyModel(rm, driver.z_train, jet.U, jet.V, K)
    dx = _tangents(model.fields, g)

    def decode(x, dual=False):
        p = _unpack(x, model.fields, g)
        return {name: _Dual(v, dx[name]) for name, v in p.items()} if dual else p

    def start(k, rng):
        # the order-2 germ coefficient is generically close to the opposite
        # of the second flow direction; seed the first restart there and
        # jitter the rest around it
        zetas = [-jet.V] + [np.zeros(g, dtype=complex)] * (K - 2)
        if k > 0:
            zetas = [z + 0.5 * (rng.standard_normal(g) + 1j * rng.standard_normal(g))
                     for z in zetas]
        p = {**dict(zip(model.zeta_names, zetas)), **dict.fromkeys(model.linear_fields, 0j)}
        return _pack(model.solve_linear(model.sources(p), p, model.linear_fields), model.fields)

    p = decode(driver.run(start, model, decode, model.fields)) if model.fields else {}
    fitted = replace(jet, zeta_coeffs=[jet.U] + [p[n] for n in model.zeta_names],
                     d_coeffs=[p[n] for n in model.linear_fields])
    scan, exponent = hierarchy_scan(rm, fitted, list(EPSILON_GRID), list(driver.z_hold))
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
