"""Truncation-order scaling of the deformed one-point identity.

A germ zeta(eps) = U eps + zeta_2 eps^2 + zeta_3 eps^3 and a constant series
d(eps) are fitted so that the eps-deformed identity holds through order 3.
The residual of the truncated identity must then decay like eps^4; the
measured log-log slope is the check.
"""

import numpy as np

from thetalab import (
    DirectionJet,
    SearchProblem,
    fit,
    fit_hierarchy,
    hierarchy_scan,
)

TAU = np.array([[0.3 + 1.1j]])

# Stage 1: ordinary four-term fit pins down (V, W, d) at genus 1.
base = fit(SearchProblem(
    tau=TAU, target="hirota", jet=DirectionJet(U=[1.0]),
    free_vars=("V", "W", "d"), sample_count=80, seed=42,
    restarts=4, iterations=300, tolerance=1e-9,
))
print(f"four-term fit: residual {base.best_residual:.2e}")

# Stage 2: germ coefficients (zeta_2, zeta_3) and (d_3, d_4) on top of it.
germ = fit_hierarchy(SearchProblem(
    tau=TAU, target="hierarchy", jet=base.best_jet, free_vars=(),
    sample_count=80, seed=7, restarts=2, iterations=400, tolerance=1e-8,
))
jet = germ.best_jet
print(f"germ fit: worst training-grid residual {germ.best_residual:.2e} "
      f"(set by truncation at the largest eps), exponent {germ.scaling_exponent:.2f}")
print(f"  zeta_2 = {jet.zeta_coeffs[1]}")
print(f"  zeta_3 = {jet.zeta_coeffs[2]}")
print(f"  d_3, d_4 = {jet.d_coeffs[0]:.6f}, {jet.d_coeffs[1]:.6f}")
# zeta_2 equals minus the fitted V: the deformed shift bends against the
# second direction.
print(f"  zeta_2 + V = {jet.zeta_coeffs[1] + base.best_jet.V}")

# Stage 3: sweep the truncated identity over eps.  Below eps ~ 1e-3 the
# residual bottoms out at the (tiny) error of the fitted coefficients, so
# the scan stays in the truncation-dominated window.
points = np.random.default_rng(13).uniform(-0.4, 0.4, (12, 1)) * (1 + 1j)
grid = [1e-3, 3.16e-3, 1e-2, 3.16e-2, 1e-1]
per_eps, slope = hierarchy_scan(TAU, jet, grid, points)
print("\n    eps         max residual")
for eps, r in per_eps:
    print(f"  {abs(eps):.2e}     {r:.3e}")
print(f"fitted decay exponent: {slope:.2f}  (order-3 truncation => ~4)")
