"""Single-layer reference timings quoted in bench/README.md.

    python3 bench/anchors.py

Times, each as the median of a few repetitions: ``bind`` of 240 box points
at genus 4 (L = 3457 lattice points), one single-point theta_eval at genus 4
with the eight requests of ``hirota_residual`` (orders up to 4), and the CLI
``kp-search`` at genus 2 with the default ``--threads`` (the machine's CPU
count) and with ``--threads 1``.  It checks nothing, is not part of the
timed benchmark, and leaves BLAS threading as the caller set it.
"""

import os
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from thetalab import cli  # noqa: E402
from thetalab.engine import BatchThetaEvaluator, RiemannMatrix, theta_eval  # noqa: E402
from workloads import G2_TAU, box_points, cvec, random_tau, write_tau  # noqa: E402


def median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main():
    rng = np.random.default_rng(0)
    rm4 = RiemannMatrix(random_tau(4, rng))
    ev = BatchThetaEvaluator(rm4, max_order=4)
    points = box_points(rm4.tau, rng, 240)
    bind = median_time(lambda: ev.bind(points), 5)
    print(f"bind, g=4, L={len(ev.lattice)}, P=240: {bind * 1e3:.0f} ms")
    z = box_points(rm4.tau, rng, 1)[0]
    U, V, W = (cvec(rng, 4) for _ in range(3))
    kp_requests = [(U, U, U, U), (U, U, U), (U, U), (U,), (V, V), (V,), (U, W), (W,)]
    single = median_time(lambda: theta_eval(z, rm4, kp_requests), 5)
    print(f"theta_eval, g=4, one point, hirota_residual's 8 requests (order <= 4): "
          f"{single * 1e3:.0f} ms")
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        tau_path, out_path = os.path.join(tmp, "tau.json"), os.path.join(tmp, "fit.json")
        write_tau(tau_path, G2_TAU)
        for threads in (None, 1):
            extra = [] if threads is None else ["--threads", str(threads)]
            seconds = median_time(lambda: cli.main(
                ["kp-search", "--tau", tau_path, "--out", out_path, *extra]), 3)
            label = f"default --threads ({os.cpu_count()})" if threads is None else "--threads 1"
            print(f"CLI kp-search, g=2, {label}: {seconds:.1f} s")


if __name__ == "__main__":
    main()
