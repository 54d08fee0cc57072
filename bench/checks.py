"""Checks of thetalab outputs against the oracles or required properties.

Every check takes plain numbers from the program (fitted jets, sampled
points, emitted files) and recomputes what it can without thetalab.  A check
returns the measured figure; ``Verdicts.require`` records a failure when the
figure is outside its bound, so one run reports every failed check.
"""

from __future__ import annotations

import csv
import math

import numpy as np

import oracle


class Verdicts:
    """Collects named checks; ``ok`` is False once any check has failed."""

    def __init__(self):
        self.failures = []
        self.figures = {}

    def require(self, name, passed, figure=None):
        self.figures[name] = figure
        if not passed:
            self.failures.append(f"{name}: {figure!r}")

    @property
    def ok(self):
        return not self.failures


def one_point_identity(tau, U, V, c, a, points) -> float:
    """Largest oracle residual of the fitted one-point identity at points."""
    return max(oracle.one_point_ratio(z, tau, U, V, c, a) for z in points)


def hirota_identity(tau, U, V, W, d, points) -> list:
    """Oracle residuals of the four-term bilinear form at points."""
    return [oracle.hirota_ratio(z, tau, U, V, W, d) for z in points]


def divisor_magnitudes(tau, points, shift=None) -> float:
    """Largest relative |theta| at the points (and at points + shift)."""
    worst = max(oracle.divisor_magnitude(z, tau) for z in points)
    if shift is not None:
        worst = max(worst, max(oracle.divisor_magnitude(np.asarray(z) + shift, tau)
                               for z in points))
    return worst


def projective_distance(u, v) -> float:
    """Sine of the angle between two homogeneous vectors (0 when proportional)."""
    u = np.asarray(u, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return float(np.linalg.norm(u - v * np.vdot(v, u)))


def kummer_agreement(tau, b, program_coords) -> float:
    """Projective distance between the program's and the oracle's K(b)."""
    ref = oracle.kummer_coords(b, tau)[0][0]
    return projective_distance(program_coords, ref)


def theta_vs_mp(z, tau, requests, jet) -> float:
    """Largest |program - mpmath| over value and derivatives, in error bounds.

    ``jet`` is a thetalab ThetaJet at z for ``requests``; the result is the
    worst error divided by the jet's own ``error_bound`` (so <= 1 passes).
    """
    import mpmath

    reqs = [()] + [tuple(r) for r in requests]
    truth = oracle.theta_mp(z, tau, reqs)
    with mpmath.workdps(oracle.MP_DPS):
        inv_scale = mpmath.exp(-mpmath.mpf(jet.scale_exponent))
        worst = 0.0
        for req, ref in zip(reqs, truth):
            got = jet.d(req)
            err = abs(ref * inv_scale - mpmath.mpc(got.real, got.imag))
            worst = max(worst, float(err) / jet.error_bound)
    return worst


def residual_range(values) -> bool:
    """Every residual is a number in [0, 1]."""
    return all(math.isfinite(r) and 0.0 <= r <= 1.0 for r in values)


def read_grid(path, shape):
    """The u-values of a CLI grid export as an (nx, ny, nt) complex array."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    if len(rows) != shape[0] * shape[1] * shape[2]:
        raise ValueError(f"grid has {len(rows)} rows, expected {shape}")
    return np.array([complex(float(r[3]), float(r[4])) for r in rows]).reshape(shape)


def pde_residual(u, h) -> float:
    """Largest term-normalized residual of 3 u_yy - 4 u_xt + 6 u_x^2 + 6 u u_xx + u_xxxx.

    Fourth-order central stencils with step h in every direction, on the
    interior nodes where every stencil fits (3 in x, 2 in y and t).
    """
    c1 = {-2: 1.0, -1: -8.0, 1: 8.0, 2: -1.0}
    nx, ny, nt = u.shape
    worst = 0.0
    for i in range(3, nx - 3):
        for j in range(2, ny - 2):
            for k in range(2, nt - 2):
                u0 = u[i, j, k]
                ux = (u[i-2, j, k] - 8*u[i-1, j, k] + 8*u[i+1, j, k] - u[i+2, j, k]) / (12*h)
                uxx = (-u[i-2, j, k] + 16*u[i-1, j, k] - 30*u0
                       + 16*u[i+1, j, k] - u[i+2, j, k]) / (12*h*h)
                uxxxx = (-u[i-3, j, k] + 12*u[i-2, j, k] - 39*u[i-1, j, k] + 56*u0
                         - 39*u[i+1, j, k] + 12*u[i+2, j, k] - u[i+3, j, k]) / (6*h**4)
                uyy = (-u[i, j-2, k] + 16*u[i, j-1, k] - 30*u0
                       + 16*u[i, j+1, k] - u[i, j+2, k]) / (12*h*h)
                uxt = sum(c1[p] * c1[q] * u[i+p, j, k+q] for p in c1 for q in c1) / (144*h*h)
                terms = (3*uyy, -4*uxt, 6*ux*ux, 6*u0*uxx, uxxxx)
                worst = max(worst, abs(sum(terms)) / sum(abs(t) for t in terms))
    return worst
