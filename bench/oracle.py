"""Theta oracles written apart from thetalab.

Both oracles sum the defining series

    theta[eps, 0](z, tau) = sum_n exp(pi*i (n+eps).tau.(n+eps) + 2*pi*i (n+eps).z)

over a cube of lattice points centred on the dominant term, with no lattice
reduction, no quasi-periodicity and no error model: the cube half-width is
chosen so that every omitted term is below 10**-digits of the largest one.
A directional derivative along h_1..h_k multiplies each term by
prod_j 2*pi*i (n+eps).h_j.

``theta_jet`` uses numpy in double precision and returns numbers on a common
exponential scale (true value = exp(log_scale) * value); ``theta_mp`` uses
mpmath at 50 significant digits and returns true values.  The second-order
Kummer coordinates theta[sigma/2, 0](2z, 2 tau) come from ``kummer_coords``.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

NUMPY_DIGITS = 24
MP_DPS = 50
MP_DIGITS = 60


def _half_width(tau, digits):
    lam = float(np.linalg.eigvalsh(np.asarray(tau).imag)[0])
    if lam <= 0.0:
        raise ValueError("Im(tau) is not positive definite")
    return int(math.ceil(math.sqrt(digits * math.log(10.0) / (math.pi * lam)))) + 1


def _box(z, tau, eps, digits):
    """Integer cube around the dominant term of the shifted series."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    tau = np.asarray(tau, dtype=complex)
    g = len(z)
    centre = -np.linalg.solve(tau.imag, z.imag) - eps
    width = _half_width(tau, digits)
    axes = [np.arange(round(c) - width, round(c) + width + 1, dtype=float) for c in centre]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g)
    return grid + eps


def theta_jet(z, tau, requests=(), eps=None):
    """Naive double-precision sum of theta[eps, 0] and its derivatives.

    Returns ``(values, abs_sums, log_scale)``: ``values[i]`` and
    ``abs_sums[i]`` belong to ``requests[i]`` (a tuple of direction vectors;
    the empty tuple is the value itself), both scaled by exp(-log_scale).
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    tau = np.asarray(tau, dtype=complex)
    eps = np.zeros(len(z)) if eps is None else np.asarray(eps, dtype=float)
    pts = _box(z, tau, eps, NUMPY_DIGITS)
    expo = 1j * np.pi * np.einsum("lg,gh,lh->l", pts, tau, pts) + 2j * np.pi * (pts @ z)
    log_scale = float(expo.real.max())
    terms = np.exp(expo - log_scale)
    values, abs_sums = [], []
    for req in requests:
        weighted = terms
        for h in req:
            weighted = weighted * (2j * np.pi * (pts @ np.asarray(h, dtype=complex)))
        values.append(complex(weighted.sum()))
        abs_sums.append(float(np.abs(weighted).sum()))
    return values, abs_sums, log_scale


def kummer_coords(z, tau, requests=((),)):
    """Second-order coordinates K_sigma(z) = theta[sigma/2, 0](2z, 2 tau).

    Returns ``(rows, log_scale)``: ``rows`` has shape (len(requests), 2**g)
    and row i holds the z-derivative ``requests[i]`` of every coordinate
    (sigma lexicographic), all scaled by exp(-log_scale), so each row is a
    homogeneous vector.
    """
    z = np.asarray(z, dtype=complex).reshape(-1)
    tau = np.asarray(tau, dtype=complex)
    g = len(z)
    rows, scales = [], []
    for sigma in product((0, 1), repeat=g):
        vals, _, scale = theta_jet(2.0 * z, 2.0 * tau, requests, eps=np.asarray(sigma) / 2.0)
        rows.append([v * 2.0 ** len(req) for v, req in zip(vals, requests)])
        scales.append(scale)
    top = max(scales)
    rel = np.exp(np.asarray(scales) - top)
    return (np.asarray(rows) * rel[:, None]).T, top


def theta_mp(z, tau, requests=((),)):
    """50-digit naive sum of theta(z, tau) and its derivatives (true values)."""
    import mpmath

    z = np.asarray(z, dtype=complex).reshape(-1)
    tau = np.asarray(tau, dtype=complex)
    g = len(z)
    pts = _box(z, tau, np.zeros(g), MP_DIGITS).astype(int)
    with mpmath.workdps(MP_DPS):
        mz = [mpmath.mpc(c.real, c.imag) for c in z]
        mt = [[mpmath.mpc(tau[i, j].real, tau[i, j].imag) for j in range(g)] for i in range(g)]
        dirs = [[[mpmath.mpc(c.real, c.imag) for c in np.asarray(h, dtype=complex)] for h in req]
                for req in requests]
        two_pi_i = 2 * mpmath.pi * mpmath.j
        sums = [mpmath.mpc(0) for _ in requests]
        for n in pts:
            n = [int(k) for k in n]
            quad = mpmath.fsum(n[i] * mt[i][j] * n[j] for i in range(g) for j in range(g))
            lin = mpmath.fsum(n[i] * mz[i] for i in range(g))
            term = mpmath.exp(mpmath.pi * mpmath.j * quad + two_pi_i * lin)
            for k, req in enumerate(dirs):
                weight = mpmath.mpc(1)
                for h in req:
                    weight *= two_pi_i * mpmath.fsum(n[i] * h[i] for i in range(g))
                sums[k] += weight * term
        return sums


def term_ratio(terms) -> float:
    """|sum of terms| / sum of |terms| (0 when every term is 0)."""
    terms = np.asarray(terms, dtype=complex)
    norm = float(np.abs(terms).sum())
    return 0.0 if norm == 0.0 else float(abs(terms.sum()) / norm)


def one_point_ratio(z, tau, U, V, c, a) -> float:
    """Term-sum ratio of (D_U^2 + D_V + c) theta(z) . theta(z + a) (bilinear form)."""
    reqs = [(), (U, U), (U,), (V,)]
    (t, tuu, tu, tv), _, _ = theta_jet(z, tau, reqs)
    (s, suu, su, sv), _, _ = theta_jet(np.asarray(z) + np.asarray(a), tau, reqs)
    return term_ratio([tuu * s, t * suu, tv * s, -t * sv, -2.0 * tu * su, c * t * s])


def hirota_ratio(z, tau, U, V, W, d) -> float:
    """Term-sum ratio of the four-term bilinear KP form at z."""
    reqs = [(), (U, U, U, U), (U, U, U), (U, U), (U,), (V, V), (V,), (U, W), (W,)]
    (t, d4, d3, d2, d1, dvv, dv, duw, dw), _, _ = theta_jet(z, tau, reqs)
    return term_ratio([d4 * t, -4.0 * d3 * d1, 3.0 * d2 * d2, 3.0 * dvv * t,
                       -3.0 * dv * dv, -3.0 * duw * t, 3.0 * dw * d1, -d * t * t])


def divisor_magnitude(z, tau) -> float:
    """|theta(z)| relative to the local series scale sum_n |term_n|."""
    (t,), (norm,), _ = theta_jet(z, tau, [()])
    return abs(t) / norm
