"""
From a period matrix to KP data
===============================

Fit directions (V, W) and the constant d so that the four-term bilinear
combination vanishes identically on a genus-2 theta function, then put the
fitted data through the downstream checks: a residual sweep at fresh random
points, the alternative-vanishing relation on the D1 locus, and the
on-divisor identity at sampled theta zeros.
"""

import time

import numpy as np

from thetalab import (
    DirectionJet,
    SamplePlan,
    SearchProblem,
    fit,
    sample_D1_theta,
    sample_theta_divisor,
    sweep_residual,
    weil_check,
)

TAU = np.array([
    [0.2862094326 + 1.7373894135j, 0.1089288031 + 0.3099191700j],
    [0.1089288031 + 0.3099191700j, -0.1470592632 + 1.2929342308j],
])

# ----- multi-start fit, U's direction searched from the first basis vector -----
problem = SearchProblem(
    tau=TAU, target="hirota", jet=DirectionJet(U=[1.0, 0.0]),
    free_vars=("V", "W", "d"), sample_count=120, seed=11,
    restarts=4, iterations=400, tolerance=1e-7,
)
t0 = time.perf_counter()
result = fit(problem)
print(f"converged={result.converged}  holdout residual={result.best_residual:.2e}"
      f"  ({time.perf_counter() - t0:.1f}s, {len(result.history)} restarts)")
jet = result.best_jet
print(f"V = {jet.V}")
print(f"W = {jet.W}")
print(f"d = {jet.d:+.12f}")

# ----- the fitted identity holds everywhere, not just on the training set -----
rng = np.random.default_rng(0)
x, y = rng.uniform(-0.5, 0.5, (2, 40, 2))
fresh = x + y @ TAU  # z = x + tau y, one row per sample point
report = sweep_residual("kp", TAU, jet, fresh, tolerance=1e-9)
print(f"\nsweep over 40 fresh points: max residual {report.max_residual:.2e}"
      f"  pass={report.passed}")

# ----- Weil-type alternative vanishing on the located D1 points -----
located = sample_D1_theta(TAU, jet, SamplePlan(count=8, seed=2))
weil = weil_check(located, TAU, jet, which="weil", tolerance=1e-6)
print(f"weil on {len(located)} located D1 points: max {weil.max_residual:.2e}"
      f"  pass={weil.passed}")

# ----- scalar identity on the theta divisor itself -----
zeros = sample_theta_divisor(TAU, jet, SamplePlan(count=30, seed=3))
longeq = sweep_residual("longeq", TAU, jet, [p.z for p in zeros], tolerance=1e-6)
print(f"on-divisor identity over {len(zeros)} sampled zeros: "
      f"max {longeq.max_residual:.2e}  pass={longeq.passed}")
