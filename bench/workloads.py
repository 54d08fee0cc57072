"""The benchmark's two workloads over the Jacobian decision pipeline.

Each workload builds its inputs from the run seed, then runs whole passes.
A pass is a fixed list of operations (library or CLI calls that produce a
verdict), and every pass of a run repeats the same work on the same inputs.
``Clock`` adds the wall time of each call to the buckets of the end-to-end
metrics it belongs to, and times two speed probes before each operation
(see run.py for their use); ``verify`` checks the outputs of a pass against
the oracles or against properties the method must have.

Search problems use fixed seeds, so every run replays the same optimizer
trajectory and ``search_s`` compares like with like; the run seed draws
the verification points, the sampling plans, the gauges, the germs and,
outside the genus-2 chain, the period matrices.  Random period matrices are
shifted to lambda_min(Im tau) = 1.1 and random directions have unit norm;
the engine sizes its lattice from those two numbers alone, so every seed
sums over the same number of lattice points (3457 for the genus-4 search
models, as for the seed-900 matrix of the test suite's criterion 9).
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from thetalab import cli, serialize
from thetalab.bilinear import DirectionJet, gauge_rescale, hierarchy_scan, sweep_residual
from thetalab.divisor import (
    SamplePlan,
    sample_theta_divisor,
    sample_theta_intersection,
    weil_check,
)
from thetalab.engine import BatchThetaEvaluator, RiemannMatrix, theta_eval
from thetalab.kummer import decomposability_indicator, flex_scan, kummer_map
from thetalab.search import SearchProblem, fit

# The generic genus-2 period matrix of the test suite (tests/conftest.py).
G2_TAU = np.array([
    [0.2862094326+1.7373894135j, 0.1089288031+0.3099191700j],
    [0.1089288031+0.3099191700j, -0.1470592632+1.2929342308j],
])
# A fixed elliptic curve for the genus-1 KP fit whose jet the grid exports.
G1_TAU = np.array([[0.3 + 1.1j]])

KP_REQUESTS = 8       # hirota_residual: eight derivative requests + value
ONE_POINT_JETS = 8    # p_residual: value + 3 requests, at z and at z + a
LONGEQ_REQUESTS = 7
FIELD_U_REQUESTS = 2
FLEX_REQUESTS = 3     # order-2 germ: (U,), (U, U), (V,)


class OperationFailed(Exception):
    """An operation of the pass raised; the rest of the pass is skipped."""

    def __init__(self, name, exc):
        super().__init__(f"{name}: {type(exc).__name__}: {exc}")
        self.name = name


_PROBE_ARGS = np.linspace(-3.0, 0.0, 131072) + 1j * np.linspace(0.0, 6.0, 131072)
_PROBE_MATRIX = np.linspace(0.0, 1.0, 96 * 96).reshape(96, 96)


def speed_probe():
    """Seconds of fixed numpy work: complex exponentials over 2 MiB, a matrix product.

    It calls nothing in thetalab.  Of the probes tried, its time followed
    the machine's speed swings best for both of thetalab's evaluation
    paths; large-array work swings about half as far (see run.SWING and
    the README).
    """
    start = time.perf_counter()
    np.exp(_PROBE_ARGS).sum()
    _PROBE_MATRIX @ _PROBE_MATRIX
    return time.perf_counter() - start


class Clock:
    """Wall time per kind of work and metric bucket, speed probes and jets.

    Every timed call is tagged with the kind of work that dominates it:
    "interp" (interpreter-bound: the single-point path, small lattices) or
    "array" (numpy over large arrays: bind and jets at genus 4).  The two
    kinds follow the machine's speed swings to different degrees, so run.py
    scales them differently.
    """

    def __init__(self):
        self.jets = 0
        self.totals = defaultdict(float)
        self.probes = []

    def calibrate(self, count=2):
        """Time ``count`` speed probes, outside every bucket."""
        self.probes.extend(speed_probe() for _ in range(count))

    @contextmanager
    def span(self, kind, *buckets):
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            for bucket in buckets:
                self.totals[kind, bucket] += elapsed

    @contextmanager
    def patch(self, module, name, kind, *buckets):
        """Time every call of ``module.name`` made while the block runs."""
        original = getattr(module, name)

        def timed(*args, **kwargs):
            with self.span(kind, *buckets):
                return original(*args, **kwargs)

        setattr(module, name, timed)
        try:
            yield
        finally:
            setattr(module, name, original)


def box_points(tau, rng, count):
    """Uniform points x + tau y of the fundamental box."""
    tau = np.asarray(tau)
    g = tau.shape[0]
    x = rng.uniform(-0.5, 0.5, size=(count, g))
    y = rng.uniform(-0.5, 0.5, size=(count, g))
    return x + y @ tau


LAMBDA_MIN = 1.1


def shift_point(tau, rng):
    """A shift x + tau y with every y_k in [0.05, 0.45].

    Halving and doubling such a shift crosses the fundamental-box edges in
    one fixed pattern, so the single-point path needs the same lattice
    corrections at the half-points of every seed's shift.
    """
    tau = np.asarray(tau)
    g = tau.shape[0]
    return rng.uniform(-0.5, 0.5, size=g) + tau @ rng.uniform(0.05, 0.45, size=g)


def random_tau(g, rng, re_scale=0.3, im_spread=0.3):
    """A random period matrix with lambda_min(Im tau) shifted to LAMBDA_MIN."""
    a = rng.normal(size=(g, g)) * im_spread
    y = a @ a.T
    y = y + (LAMBDA_MIN - np.linalg.eigvalsh(y)[0]) * np.eye(g)
    x = rng.normal(size=(g, g)) * re_scale
    return 0.5 * (x + x.T) + 1j * 0.5 * (y + y.T)


def cvec(rng, g, norm=1.0):
    """A random complex vector of the given norm."""
    v = rng.normal(size=g) + 1j * rng.normal(size=g)
    return norm * v / np.linalg.norm(v)


def write_tau(path, tau):
    with open(path, "w") as fh:
        json.dump({"tau": [[[z.real, z.imag] for z in row] for row in np.asarray(tau)]}, fh)


def write_jet(path, jet_doc):
    with open(path, "w") as fh:
        json.dump(jet_doc, fh)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class Workload:
    """Common pass driver: operations in order, failures end the pass."""

    name = ""
    operations = ()

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.clock = Clock()

    def path(self, name):
        return os.path.join(self.workdir, name)

    def op(self, name, fn, *buckets, kind="interp"):
        """Run one operation, timed into ``buckets`` and decide_s, after two speed probes."""
        self.clock.calibrate()
        try:
            with self.clock.span(kind, "decide", *buckets):
                return fn()
        except Exception as exc:  # counted as a failed operation
            raise OperationFailed(name, exc) from exc

    def run(self, clock):
        self.clock = clock
        return self.run_pass(clock)

    def verify_once(self, v):
        """Checks of program values that depend on the inputs alone, made once per run."""


class G2JacobianChain(Workload):
    """The paper's criterion end to end on the generic genus-2 tau."""

    name = "g2-jacobian-chain"
    operations = ("decomp", "one-point-search", "flex-scan-1", "cap-sampling", "weil1",
                  "cli-kp-search", "cli-kp-residual", "cli-weil", "theta-sampling", "longeq",
                  "flex-scan-2")
    ONE_POINT = dict(sample_count=120, seed=5, restarts=1, iterations=50, tolerance=1e-7)
    # default --samples, --tol and --threads; a budget that converges in
    # about a second instead of the default 8 restarts x 400 iterations
    CLI_KP_ARGS = ["--restarts", "2", "--iterations", "60"]
    # The flex verdict is projective, so it must not change under the gauge
    # (U, V) -> (lam U, lam^2 V); |lam| = 1 keeps the direction norms, hence
    # the truncation radius and the work, the same in every gauge.
    GAUGES = 16
    FLEX_BLOCKS = 2

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 2])
        self.tau = G2_TAU
        self.fresh = box_points(G2_TAU, rng, 6)
        self.gauges = np.exp(2j * np.pi * rng.uniform(size=self.GAUGES))
        self.cap_seed, self.theta_seed = (int(s) for s in rng.integers(0, 2**31, size=2))
        self.rm = RiemannMatrix(self.tau)
        write_tau(self.path("tau.json"), self.tau)
        # the first evaluator of the pass: the one-point model's
        BatchThetaEvaluator(self.rm, max_order=2)

    def seeds(self):
        return {"run": self.seed, "one_point_search": self.ONE_POINT["seed"],
                "cli": 0, "cap_plan": self.cap_seed, "theta_plan": self.theta_seed}

    def run_pass(self, clock):
        rm, out = self.rm, {"flex": []}
        out["indicator"] = self.op("decomp", lambda: decomposability_indicator(rm), "pointwise")
        clock.jets += 10
        problem = SearchProblem(tau=rm, target="one_point", jet=DirectionJet(U=[1.0, 0.0]),
                                free_vars=("V", "a", "c"), **self.ONE_POINT)
        res = out["one_point"] = self.op("one-point-search", lambda: fit(problem), "search")
        jet, a = res.best_jet, res.a
        blocks = np.split(self.gauges, self.FLEX_BLOCKS)

        def flex_block(k):
            def scans():
                return [flex_scan(a, germ.U, -germ.V, rm)
                        for germ in (gauge_rescale(jet, lam) for lam in blocks[k])]

            out["flex"].extend(self.op(f"flex-scan-{k + 1}", scans, "flex", "pointwise"))
            clock.jets += len(blocks[k]) * 16 * 4 * (1 + FLEX_REQUESTS)

        flex_block(0)
        plan = SamplePlan(count=20, seed=self.cap_seed, distinct=False)
        cap = out["cap"] = self.op("cap-sampling",
                                   lambda: sample_theta_intersection(rm, jet, a, plan))
        out["weil1"] = self.op("weil1", lambda: weil_check(cap, rm, jet, a=a, which="weil1"))

        tau_path, fit_path, jet_path = (self.path(n) for n in ("tau.json", "fit.json", "jet.json"))
        res_path, weil_path = self.path("kp-residual.json"), self.path("weil.json")

        def kp_search():
            code = cli.main(["kp-search", "--tau", tau_path, *self.CLI_KP_ARGS,
                             "--out", fit_path])
            doc = read_json(fit_path)
            write_jet(jet_path, doc["best_jet"])
            return code, doc

        with clock.patch(cli, "fit", "interp", "search"):
            out["code_search"], out["kp_fit"] = self.op("cli-kp-search", kp_search, "cli")
        out["code_residual"], out["kp_residual"] = self.op("cli-kp-residual", lambda: (
            cli.main(["kp-residual", "--tau", tau_path, "--jet", jet_path, "--out", res_path]),
            read_json(res_path)), "cli")
        out["code_weil"], out["weil"] = self.op("cli-weil", lambda: (
            cli.main(["weil", "--tau", tau_path, "--jet", jet_path, "--out", weil_path]),
            read_json(weil_path)), "cli")

        kp_jet = serialize.jet_from_dict(out["kp_fit"]["best_jet"])
        plan = SamplePlan(count=50, seed=self.theta_seed)
        div = out["theta_points"] = self.op("theta-sampling",
                                            lambda: sample_theta_divisor(rm, kp_jet, plan))
        out["longeq"] = self.op("longeq", lambda: sweep_residual(
            "longeq", rm, kp_jet, [p.z for p in div], 1e-6), "pointwise")
        clock.jets += len(div) * (1 + LONGEQ_REQUESTS)
        flex_block(1)
        return out

    def verify(self, out, v):
        import checks

        tau = self.tau
        v.require("indicator>=1e-2", out["indicator"] >= 1e-2, out["indicator"])
        res = out["one_point"]
        v.require("one-point converged", res.converged and res.best_residual <= 1e-7,
                  res.best_residual)
        jet = res.best_jet
        fresh = checks.one_point_identity(tau, jet.U, jet.V, jet.c, res.a, self.fresh)
        v.require("one-point identity at fresh points (oracle) <= 1e-7", fresh <= 1e-7, fresh)
        verdicts = [[h.passed for h in flex.tested_halves] for flex in out["flex"]]
        hits = sum(verdicts[0])
        worst = max(flex.rank_ratio for flex in out["flex"])
        v.require("flex passes at >= 1 half-point in every gauge", hits >= 1 and worst <= 1e-6
                  and all(flex.passed for flex in out["flex"]), (hits, worst))
        v.require("flex verdicts gauge invariant", all(x == verdicts[0] for x in verdicts),
                  [sum(x) for x in verdicts])
        cap = [p.z.z for p in out["cap"]]
        v.require("20 cap points", len(cap) == 20, len(cap))
        if cap:
            mag = checks.divisor_magnitudes(tau, cap, shift=res.a)
            v.require("cap points on theta and theta_a (oracle) <= 1e-10", mag <= 1e-10, mag)
        weil1 = out["weil1"]
        v.require("weil1 <= 1e-6", weil1.passed and weil1.max_residual <= 1e-6,
                  weil1.max_residual)

        fit_doc = out["kp_fit"]
        v.require("cli kp-search exit 0 and converged",
                  out["code_search"] == 0 and fit_doc["converged"], fit_doc["best_residual"])
        kj = serialize.jet_from_dict(fit_doc["best_jet"])
        kp_fresh = max(checks.hirota_identity(tau, kj.U, kj.V, kj.W, kj.d, self.fresh))
        v.require("kp identity at fresh points (oracle) <= 1e-7", kp_fresh <= 1e-7, kp_fresh)
        doc = out["kp_residual"]
        v.require("cli kp-residual exit 0", out["code_residual"] == 0 and doc["pass"]
                  and checks.residual_range(doc["residuals"]), doc["max_residual"])
        doc = out["weil"]
        v.require("cli weil exit 0, >= 1 point, <= 1e-6", out["code_weil"] == 0
                  and doc["count"] >= 1 and doc["max_residual"] <= 1e-6,
                  (doc["count"], doc["max_residual"]))

        pts = [p.z.z for p in out["theta_points"]]
        v.require("50 theta points", len(pts) == 50, len(pts))
        if pts:
            mag = checks.divisor_magnitudes(tau, pts)
            v.require("theta points on theta (oracle) <= 1e-10", mag <= 1e-10, mag)
        longeq = out["longeq"]
        v.require("on-divisor identity <= 1e-6", longeq.passed and longeq.max_residual <= 1e-6
                  and checks.residual_range(longeq.residuals), longeq.max_residual)


class G4ControlPointwise(Workload):
    """Failing searches on a random genus-4 tau, then the single-point paths.

    The first half is the control: a random genus-4 tau is almost surely no
    Jacobian, so both searches must report "not converged".  The second
    half runs the single-point theta paths at genus 3 (flex scans, residual
    sweeps, the hierarchy scan) and a CLI grid export at genus 1.
    """

    name = "g4-control-pointwise"
    operations = ("cli-kp-search", "one-point-search", "kp-sweep-g4", "one-point-sweep-g4",
                  "flex-block", "flex-generic", "kp-sweep", "one-point-sweep",
                  "hierarchy-scan", "g1-kp-search", "cli-grid")
    TOLERANCE = 1e-9
    # a residual this far above the tolerance is a clear "no solution found";
    # criterion 9's 1e-3 margin moves with the numpy/scipy/BLAS stack
    FAR_ABOVE = 1e4 * TOLERANCE
    KP_ARGS = ["--samples", "240", "--restarts", "1", "--iterations", "10", "--tol", "1e-9"]
    # fixed shift and V, c free: every objective call rebinds the same cloud
    ONE_POINT = dict(sample_count=80, seed=0, restarts=1, iterations=1, tolerance=TOLERANCE)
    G1_KP = dict(sample_count=80, seed=42, restarts=1, iterations=150, tolerance=1e-9)
    GRID_SHAPE = (16, 8, 8)
    GRID_STEP = 0.01
    EPSILONS = (1e-3, 1e-2, 1e-1)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 4])
        self.tau = random_tau(4, rng)
        self.a = shift_point(self.tau, rng)
        self.V = cvec(rng, 4)
        self.fresh = box_points(self.tau, rng, 6)
        tau1 = np.array([[rng.uniform(-0.4, 0.4) + 1j * rng.uniform(LAMBDA_MIN, 1.4)]])
        self.block = np.zeros((3, 3), dtype=complex)
        self.block[0, 0], self.block[1:, 1:] = tau1[0, 0], random_tau(2, rng)
        self.tau3 = random_tau(3, rng)
        # germ in the elliptic factor: flat under the Segre embedding
        self.block_germ = (shift_point(self.block, rng),
                           np.array([1.0, 0, 0]) * cvec(rng, 1),
                           np.array([1.0, 0, 0]) * cvec(rng, 1))
        self.generic_germ = (shift_point(self.tau3, rng), cvec(rng, 3), cvec(rng, 3))
        self.jet3 = DirectionJet(U=cvec(rng, 3), V=cvec(rng, 3), W=cvec(rng, 3),
                                 c=complex(*rng.normal(size=2)), d=complex(*rng.normal(size=2)),
                                 zeta_coeffs=[cvec(rng, 3), cvec(rng, 3)],
                                 d_coeffs=[complex(*rng.normal(size=2))])
        self.a3 = box_points(self.tau3, rng, 1)[0]
        self.points3 = list(box_points(self.tau3, rng, 48))
        self.hier_points = list(box_points(self.tau3, rng, 16))
        self.kummer_picks = [int(i) for i in rng.choice(64, size=2, replace=False)]
        self.mp_picks = [int(i) for i in rng.choice(48, size=2, replace=False)]
        self.rm = RiemannMatrix(self.tau)
        self.rm_block = RiemannMatrix(self.block)
        self.rm3 = RiemannMatrix(self.tau3)
        self.rm1 = RiemannMatrix(G1_TAU)
        write_tau(self.path("tau.json"), self.tau)
        write_tau(self.path("tau1.json"), G1_TAU)
        # the first evaluator of the pass: the four-direction model's
        BatchThetaEvaluator(self.rm, max_order=4)

    def seeds(self):
        return {"run": self.seed, "cli_kp_search": 0,
                "one_point_search": self.ONE_POINT["seed"], "g1_kp_search": self.G1_KP["seed"]}

    def run_pass(self, clock):
        rm, a, out = self.rm, self.a, {}
        tau_path, fit_path = self.path("tau.json"), self.path("fit.json")

        def kp_search():
            code = cli.main(["kp-search", "--tau", tau_path, *self.KP_ARGS, "--out", fit_path])
            return code, read_json(fit_path)

        with clock.patch(cli, "fit", "array", "search"):
            out["code_search"], out["kp_fit"] = self.op("cli-kp-search", kp_search, "cli",
                                                        kind="array")
        kp_jet = serialize.jet_from_dict(out["kp_fit"]["best_jet"])
        problem = SearchProblem(tau=rm, target="one_point",
                                jet=DirectionJet(U=np.eye(4)[0], V=self.V), free_vars=("c",),
                                a=a, **self.ONE_POINT)
        res = out["one_point"] = self.op("one-point-search", lambda: fit(problem), "search",
                                         kind="array")
        fresh = list(self.fresh)
        out["kp_sweep_g4"] = self.op("kp-sweep-g4", lambda: sweep_residual(
            "kp", rm, kp_jet, fresh, self.TOLERANCE), "pointwise")
        clock.jets += len(fresh) * (1 + KP_REQUESTS)
        out["op_sweep_g4"] = self.op("one-point-sweep-g4", lambda: sweep_residual(
            "one-point", rm, res.best_jet, fresh, self.TOLERANCE, a=a), "pointwise")
        clock.jets += len(fresh) * ONE_POINT_JETS

        def flex(key, name, rm, germ):
            b, U, V = germ
            out[key] = self.op(name, lambda: flex_scan(b, U, V, rm), "flex", "pointwise")
            clock.jets += 64 * 8 * (1 + FLEX_REQUESTS)

        flex("flex_block", "flex-block", self.rm_block, self.block_germ)
        flex("flex_generic", "flex-generic", self.rm3, self.generic_germ)
        rm3, jet3 = self.rm3, self.jet3
        out["kp_sweep"] = self.op("kp-sweep", lambda: sweep_residual(
            "kp", rm3, jet3, self.points3, 1e-6), "pointwise")
        clock.jets += len(self.points3) * (1 + KP_REQUESTS)
        out["op_sweep"] = self.op("one-point-sweep", lambda: sweep_residual(
            "one-point", rm3, jet3, self.points3, 1e-6, a=self.a3), "pointwise")
        clock.jets += len(self.points3) * ONE_POINT_JETS
        out["hierarchy"] = self.op("hierarchy-scan", lambda: hierarchy_scan(
            rm3, jet3, self.EPSILONS, self.hier_points), "pointwise")
        clock.jets += len(self.EPSILONS) * len(self.hier_points) * ONE_POINT_JETS

        g1 = SearchProblem(tau=self.rm1, target="hirota", jet=DirectionJet(U=[1.0]),
                           free_vars=("V", "W", "d"), **self.G1_KP)
        out["g1_kp"] = self.op("g1-kp-search", lambda: fit(g1), "search")
        jet_path, grid_path = self.path("jet1.json"), self.path("grid.csv")
        shape = ",".join(str(n) for n in self.GRID_SHAPE)
        step = ",".join([repr(self.GRID_STEP)] * 3)

        def grid():
            write_jet(jet_path, serialize.jet_to_dict(out["g1_kp"].best_jet))
            return cli.main(["grid", "--tau", self.path("tau1.json"), "--jet", jet_path,
                             "--shape", shape, "--step", step, "--standard-time", "--balance",
                             "--out", grid_path])

        out["code_grid"] = self.op("cli-grid", grid, "cli", "pointwise")
        clock.jets += int(np.prod(self.GRID_SHAPE)) * (1 + FIELD_U_REQUESTS)
        return out

    def verify(self, out, v):
        import checks

        tau, a = self.tau, self.a
        doc = out["kp_fit"]
        v.require("cli kp-search exit 1, not converged",
                  out["code_search"] == 1 and not doc["converged"], doc["best_residual"])
        res = out["one_point"]
        v.require("one-point search not converged", not res.converged, res.best_residual)

        kj = serialize.jet_from_dict(doc["best_jet"])
        ref = checks.hirota_identity(tau, kj.U, kj.V, kj.W, kj.d, self.fresh)
        got = out["kp_sweep_g4"].residuals
        v.require("kp residual far above tolerance (oracle)", max(ref) >= self.FAR_ABOVE,
                  max(ref))
        gap = max(abs(x - y) for x, y in zip(ref, got))
        v.require("hirota_residual agrees with oracle <= 1e-8", gap <= 1e-8, gap)

        jet = res.best_jet
        ref = [checks.one_point_identity(tau, jet.U, jet.V, jet.c, a, [z]) for z in self.fresh]
        got = out["op_sweep_g4"].residuals
        v.require("one-point residual far above tolerance (oracle)",
                  max(ref) >= self.FAR_ABOVE, max(ref))
        gap = max(abs(x - y) for x, y in zip(ref, got))
        v.require("p_residual agrees with oracle <= 1e-8", gap <= 1e-8, gap)

        block, generic = out["flex_block"], out["flex_generic"]
        hits = sum(h.passed for h in block.tested_halves)
        worst = max(h.sigma_ratios[1] for h in block.tested_halves)
        v.require("block-diagonal flex at 64/64", hits == 64, (hits, worst))
        hits = sum(h.passed for h in generic.tested_halves)
        v.require("generic flex at 0/64", hits == 0 and len(generic.tested_halves) == 64,
                  (hits, generic.rank_ratio))
        for label, report, tau3 in (("block", block, self.block),
                                    ("generic", generic, self.tau3)):
            for i in self.kummer_picks:
                b = report.tested_halves[i].b.z
                dist = checks.kummer_agreement(tau3, b, kummer_map(b, tau3).coords)
                v.require(f"{label} kummer coordinates at half-point {i} (oracle) <= 1e-10",
                          dist <= 1e-10, dist)

        for key in ("kp_sweep", "op_sweep"):
            v.require(f"{key} residuals in [0, 1]",
                      checks.residual_range(out[key].residuals), out[key].max_residual)
        per_eps, _ = out["hierarchy"]
        v.require("hierarchy residuals in [0, 1]",
                  checks.residual_range([r for _, r in per_eps]), per_eps)

        v.require("g1 kp search converged", out["g1_kp"].converged, out["g1_kp"].best_residual)
        v.require("cli grid exit 0", out["code_grid"] == 0, out["code_grid"])
        u = checks.read_grid(self.path("grid.csv"), self.GRID_SHAPE)
        pde = checks.pde_residual(u, self.GRID_STEP)
        v.require("grid solves the dispersive PDE <= 1e-4", pde <= 1e-4, pde)

    def verify_once(self, v):
        import checks

        requests = [(self.jet3.U,) * 4, (self.jet3.U, self.jet3.W), (self.jet3.V,)]
        for i in self.mp_picks:
            z = self.points3[i]
            jet = theta_eval(z, self.rm3, requests)
            ratio = checks.theta_vs_mp(z, self.tau3, requests, jet)
            v.require(f"theta at sweep point {i} within error_bound (mpmath)", ratio <= 1.0,
                      ratio)


WORKLOADS = {w.name: w for w in (G2JacobianChain, G4ControlPointwise)}
