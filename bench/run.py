"""Layered benchmark of thetalab's Jacobian decision pipeline.

    python3 bench/run.py --workload g2-jacobian-chain --seed 1 --seconds 45 --trace 0

Runs whole passes of one workload (see workloads.py) for about ``--seconds``
seconds: a further pass starts only when the previous pass's duration still
fits.  Every pass repeats the same calls on the same inputs, and every pass's
outputs are checked against the oracles.  With ``--trace 0`` it reports the
end-to-end metrics, medians over the passes at a reference machine speed
(see ``end_to_end``).  With ``--trace 1``
it runs one untraced and one traced pass and reports the per-layer metrics
of the traced pass (see spans.py) and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the run record (versions, seeds, per-pass figures), also written under
``bench/out/``.  ``--setup-probe`` is internal: it times one set-up in a
fresh interpreter and prints the seconds and the speed probe's median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings

# One BLAS thread unless the caller chose otherwise: the engine's matrices are
# small, and idle OpenBLAS workers spin on the second core (CPU time twice the
# wall time in a genus-4 flex scan, no speed-up), which makes timings depend
# on what else the machine runs.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 4  # fresh-interpreter set-ups per run, plus the run's own
WORKLOADS = ("g2-jacobian-chain", "g4-control-pointwise")

END_TO_END = (
    ("setup_s", "s"), ("decide_s", "s"), ("search_s", "s"), ("flex_scan_s", "s"),
    ("jets_per_s", "jets/s"), ("cli_s", "s"), ("peak_rss_mib", "MiB"),
)


def timed_setup(workload, seed, workdir):
    """Import, inputs, RiemannMatrix and first evaluator, timed.

    Returns (instance, seconds, median of speed probes made right after).
    """
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads

    instance = workloads.WORKLOADS[workload](seed, workdir)
    seconds = time.perf_counter() - start
    probe = statistics.median(workloads.speed_probe() for _ in range(7))
    return instance, seconds, probe


def probe_setups(workload, seed, count):
    """(seconds, probe) set-ups measured in ``count`` fresh interpreters, one after another."""
    samples = []
    for k in range(count):
        workdir = os.path.join(OUT, f"work-{os.getpid()}-probe{k}")
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload,
             "--seed", str(seed), "--workdir", workdir],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(tuple(float(x) for x in proc.stdout.split()[-2:]))
        remove_tree(workdir)
    return samples


def remove_tree(path):
    if not os.path.isdir(path):
        return
    for name in os.listdir(path):
        os.remove(os.path.join(path, name))
    os.rmdir(path)


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def one_pass(instance, tracer=None):
    """Run one pass; returns (clock, wall seconds, outputs, failure or None)."""
    import workloads

    clock = workloads.Clock()
    failure = None
    out = None
    if tracer is not None:
        tracer.install()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            start = time.perf_counter()
            try:
                out = instance.run(clock)
            except workloads.OperationFailed as exc:
                failure = exc
            wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return clock, wall, out, failure


BUCKETS = ("decide", "search", "flex", "pointwise", "cli")


# The speed probe's median time (workloads.speed_probe) at the reference
# speed: a typical figure on the 2-vCPU machine the README's figures come from.
REFERENCE_PROBE_S = 0.0055
# How far each kind of work (see workloads.Clock) follows the probe: the
# log-slope of its time on the probe's time, as measured on that machine.
SWING = {"interp": 1.0, "array": 0.5}


def scaled_totals(figures):
    """A pass's seconds per bucket at the reference speed.

    On a shared host the same pass runs up to 1.8x faster or slower from one
    stretch of seconds to the next.  The speed probes timed between the
    pass's operations follow these swings, so each kind of work's seconds
    are multiplied by (REFERENCE_PROBE_S / median probe) ** SWING[kind]
    (see the README).
    """
    ratio = REFERENCE_PROBE_S / figures["probe_median_s"]
    return {b: sum(figures["seconds"][kind][b] * ratio ** slope
                   for kind, slope in SWING.items())
            for b in BUCKETS}


def end_to_end(passes):
    """The timed end-to-end metrics: medians over passes at the reference speed."""
    scaled = [scaled_totals(p) for p in passes]
    return {
        "decide_s": statistics.median(s["decide"] for s in scaled),
        "search_s": statistics.median(s["search"] for s in scaled),
        "flex_scan_s": statistics.median(s["flex"] for s in scaled),
        "jets_per_s": statistics.median(p["jets"] / max(s["pointwise"], 1e-9)
                                        for p, s in zip(passes, scaled)),
        "cli_s": statistics.median(s["cli"] for s in scaled),
    }


def count_failed(instance, failure):
    """Failed operations of one pass: the one that raised and every later one."""
    if failure is None:
        return 0
    return len(instance.operations) - list(instance.operations).index(failure.name)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "thetalab")):
        sys.stderr.write(f"no thetalab sources under {SRC}; run from a thetalab checkout\n")
        return 2
    if args.setup_probe:
        _, seconds, probe = timed_setup(args.workload, args.seed, args.workdir)
        print(repr(seconds), repr(probe))
        return 0

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    instance, *own_setup = timed_setup(args.workload, args.seed, workdir)
    import checks
    import spans
    import workloads  # already imported by timed_setup

    setups = [tuple(own_setup)] + probe_setups(args.workload, args.seed, SETUP_PROBES)
    passes, failed, attempted = [], 0, 0
    verdicts = checks.Verdicts()
    layer = None
    tracer = None
    started = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(passes) == 1
        if traced:
            tracer = spans.Tracer(callers=[workloads])
        clock, wall, out, failure = one_pass(instance, tracer if traced else None)
        figures = {
            "wall_s": wall, "traced": traced, "jets": clock.jets,
            "probe_median_s": statistics.median(clock.probes),
            "seconds": {kind: {b: clock.totals[kind, b] for b in BUCKETS} for kind in SWING},
        }
        passes.append(figures)
        attempted += len(instance.operations)
        failed += count_failed(instance, failure)
        if failure is not None:
            figures["failure"] = str(failure)
        else:
            start = time.perf_counter()
            try:
                instance.verify(out, verdicts)
            except Exception as exc:  # a malformed output is a failed check
                verdicts.require(f"verify raised {type(exc).__name__}", False, str(exc))
            figures["verify_s"] = time.perf_counter() - start
        if traced:
            layer = spans.layer_metrics(tracer.spans)
        elapsed = time.perf_counter() - started
        if args.trace == 1:
            if len(passes) == 2:
                break
        elif elapsed + elapsed / len(passes) > args.seconds:
            break
    instance.verify_once(verdicts)
    remove_tree(workdir)

    if args.trace == 0:
        metrics = end_to_end([p for p in passes if "failure" not in p] or passes)
        metrics["setup_s"] = statistics.median(
            seconds * REFERENCE_PROBE_S / probe for seconds, probe in setups)
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = dict(END_TO_END)
    else:
        metrics = dict(layer)
        decide = [sum(p["seconds"][kind]["decide"] for kind in SWING) for p in passes]
        metrics["trace.decide_s"] = decide[1]
        metrics["trace.overhead_s"] = decide[1] - decide[0]
        units = dict(spans.PER_LAYER)
        units.update({"trace.decide_s": "s", "trace.overhead_s": "s"})

    record = {
        "workload": args.workload, "seeds": instance.seeds(), "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "attempted": attempted, "failed": failed, "setup_samples": setups,
        "passes": passes, "checks": verdicts.figures, "check_failures": verdicts.failures,
        "absent": tracer.absent if tracer is not None else [],
    }
    record_path = os.path.join(
        OUT, f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps(record, default=str))
    print(json.dumps({
        "correct": verdicts.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
