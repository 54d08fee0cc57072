"""Acceptance gate: ten end-to-end criteria, one verdict line each.

Every criterion prints a single [PASS]/[FAIL] line (written past the capture
plugin so it shows up in plain pytest output) before asserting, so a failed
run still reports the measured numbers for all criteria that executed.
"""

import cmath
import csv
import json
import math
import sys
import time
import warnings

import numpy as np
import pytest

from conftest import GENERIC_G2_TAU, random_points, random_tau
from thetalab import serialize
from thetalab.bilinear import (
    DirectionJet,
    as_riemann_matrix,
    gauge_rescale,
    hierarchy_scan,
    hirota_residual,
    p_AB_residual,
    p_residual,
    sweep_residual,
)
from thetalab.cli import main
from thetalab.divisor import (
    SamplePlan,
    sample_D1_theta,
    sample_theta_divisor,
    sample_theta_intersection,
    weil_check,
)
from thetalab.engine import RiemannMatrix, canonical_request, theta_eval
from thetalab.kummer import (
    decomposability_indicator,
    flex_scan,
    kummer_map,
    singular_ratios,
)
from thetalab.search import SearchProblem, fit, fit_hierarchy

G1_TAU = np.array([[0.3 + 1.1j]])


VERDICT_LINES = []


def _criterion(number, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}"
    VERDICT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def true_value(jet):
    return cmath.exp(jet.scale_exponent) * jet.value


def true_deriv(jet, request):
    return cmath.exp(jet.scale_exponent) * jet.d(request)


def naive_theta(z, tau, box):
    z = np.asarray(z, dtype=complex).reshape(-1)
    tau = np.asarray(tau, dtype=complex)
    g = len(z)
    axes = [np.arange(-box, box + 1, dtype=float)] * g
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g)
    expo = 1j * np.pi * np.einsum("lg,gh,lh->l", grid, tau, grid) + 2j * np.pi * (grid @ z)
    return complex(np.sum(np.exp(expo)))


@pytest.fixture(scope="module")
def rm_g1():
    return RiemannMatrix(G1_TAU)


@pytest.fixture(scope="module")
def rm_g2():
    return RiemannMatrix(GENERIC_G2_TAU)


@pytest.fixture(scope="module")
def g1_kp(rm_g1):
    """Fitted g=1 four-term bilinear data with U pinned to (1); timed."""
    problem = SearchProblem(
        tau=rm_g1, target="hirota", jet=DirectionJet(U=[1.0]),
        free_vars=("V", "W", "d"), sample_count=80, seed=42,
        restarts=4, iterations=300, tolerance=1e-9,
    )
    start = time.perf_counter()
    result = fit(problem)
    return result, time.perf_counter() - start


@pytest.fixture(scope="module")
def g2_one_point(rm_g2):
    """Fitted g=2 one-point data (shift, V, c free; U pinned); timed."""
    problem = SearchProblem(
        tau=rm_g2, target="one_point", jet=DirectionJet(U=[1.0, 0.0]),
        free_vars=("V", "a", "c"), sample_count=120, seed=5,
        restarts=3, iterations=400, tolerance=1e-7,
    )
    start = time.perf_counter()
    result = fit(problem)
    return result, time.perf_counter() - start


def test_criterion_01_theta_oracle(rm_g1):
    rm = RiemannMatrix([[1j]])
    points = random_points(1, 20, seed=101)
    start = time.perf_counter()
    worst = 0.0
    for z in points:
        jet = theta_eval(z, rm)
        reference = naive_theta(z, rm.tau, box=100)
        worst = max(worst, abs(true_value(jet) - reference) / abs(reference))
    elapsed = time.perf_counter() - start
    _criterion(
        1, worst <= 1e-12 and elapsed < 1.0,
        f"theta vs naive lattice sum on 20 seeded z (g=1, tau=i): "
        f"max rel err {worst:.2e} (<= 1e-12) in {elapsed:.2f}s (< 1s)",
    )


def test_criterion_02_quasi_periodicity():
    worst = 0.0
    for seed in range(100):
        g = 1 + seed % 3
        rm = RiemannMatrix(random_tau(g, seed=9000 + seed))
        rng = np.random.default_rng(9300 + seed)
        z = random_points(g, 1, seed=9600 + seed)[0]
        m = rng.integers(-2, 3, size=g).astype(float)
        n = rng.integers(-2, 3, size=g).astype(float)
        lhs = true_value(theta_eval(z + rm.tau @ m + n, rm))
        multiplier = np.exp(-1j * np.pi * (m @ rm.tau @ m) - 2j * np.pi * (m @ z))
        rhs = multiplier * true_value(theta_eval(z, rm))
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    _criterion(
        2, worst <= 1e-10,
        f"quasi-periodicity over 100 seeded (z, m, n), g in 1..3: "
        f"max rel err {worst:.2e} (<= 1e-10)",
    )


def test_criterion_03_derivatives_vs_finite_differences():
    def nested_fd(z, rm, request, step=1e-5):
        h0 = np.asarray(request[0], dtype=complex)
        rest = tuple(request[1:])
        jp = theta_eval(z + step * h0, rm, [rest] if rest else [])
        jm = theta_eval(z - step * h0, rm, [rest] if rest else [])
        vp = true_deriv(jp, rest) if rest else true_value(jp)
        vm = true_deriv(jm, rest) if rest else true_value(jm)
        return (vp - vm) / (2.0 * step)

    worst = 0.0
    orders = set()
    for seed in range(50):
        g = 1 + seed % 2
        rm = RiemannMatrix(random_tau(g, seed=8000 + seed))
        rng = np.random.default_rng(8300 + seed)
        z = random_points(g, 1, seed=8600 + seed, spread=0.4)[0]
        order = 1 + seed % 4
        orders.add(order)
        dirs = tuple(
            rng.normal(scale=0.7, size=g) + 1j * rng.normal(scale=0.7, size=g)
            for _ in range(order)
        )
        jet = theta_eval(z, rm, [dirs])
        analytic = true_deriv(jet, dirs)
        approx = nested_fd(z, rm, dirs)
        worst = max(worst, abs(analytic - approx) / max(abs(analytic), abs(approx)))
    _criterion(
        3, worst <= 1e-6 and orders == {1, 2, 3, 4},
        f"directional derivatives (orders 1-4) vs central differences, "
        f"50 seeded cases: max rel err {worst:.2e} (<= 1e-6)",
    )


def test_criterion_04_g1_kp_search(g1_kp):
    result, elapsed = g1_kp
    _criterion(
        4, result.converged and result.best_residual <= 1e-9 and elapsed < 60.0,
        f"g=1 four-term search with U=(1) fixed: holdout residual "
        f"{result.best_residual:.2e} (<= 1e-9) in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_05_g2_one_point_chain(rm_g2, g2_one_point):
    indicator = decomposability_indicator(rm_g2)
    assert indicator >= 1e-2, f"period matrix too close to a product: {indicator:.2e}"

    result, fit_elapsed = g2_one_point
    start = time.perf_counter()
    jet, a = result.best_jet, result.a
    flex = flex_scan(a, jet.U, -jet.V, rm_g2, order=2, tolerance=1e-6)
    hits = sum(h.passed for h in flex.tested_halves)

    plan = SamplePlan(count=20, seed=1, distinct=False)
    points = sample_theta_intersection(rm_g2, jet, a, plan)
    weil1 = weil_check(points, rm_g2, jet, a=a, which="weil1", tolerance=1e-6)
    elapsed = fit_elapsed + time.perf_counter() - start

    ok = (
        result.converged and result.best_residual <= 1e-7
        and flex.passed and flex.rank_ratio <= 1e-6 and hits >= 1
        and len(points) >= 20 and weil1.passed and weil1.max_residual <= 1e-6
        and elapsed < 600.0
    )
    _criterion(
        5, ok,
        f"g=2 one-point chain (indicator {indicator:.2f}): search "
        f"{result.best_residual:.2e} (<= 1e-7); flex at {hits}/16 half-points, "
        f"rank ratio {flex.rank_ratio:.2e} (<= 1e-6); weil1 on {len(points)} "
        f"intersection samples {weil1.max_residual:.2e} (<= 1e-6); "
        f"{elapsed:.0f}s (< 600s)",
    )


def test_criterion_06_g2_kp_chain(rm_g2):
    problem = SearchProblem(
        tau=rm_g2, target="hirota", jet=DirectionJet(U=[1.0, 0.0]),
        free_vars=("V", "W", "d"), sample_count=120, seed=11,
        restarts=4, iterations=400, tolerance=1e-7,
    )
    result = fit(problem)
    jet = result.best_jet

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        located = sample_D1_theta(rm_g2, jet, SamplePlan(count=8, seed=2))
    weil = weil_check(located, rm_g2, jet, which="weil", tolerance=1e-6)

    divisor = sample_theta_divisor(rm_g2, jet, SamplePlan(count=50, seed=3))
    longeq = sweep_residual("longeq", rm_g2, jet, [p.z for p in divisor], 1e-6)

    ok = (
        result.converged and result.best_residual <= 1e-7
        and len(located) >= 1 and weil.passed and weil.max_residual <= 1e-6
        and len(divisor) == 50 and longeq.passed and longeq.max_residual <= 1e-6
    )
    _criterion(
        6, ok,
        f"g=2 four-term chain: search {result.best_residual:.2e} (<= 1e-7); "
        f"weil on all {len(located)} located D1 points "
        f"{weil.max_residual:.2e} (<= 1e-6); on-divisor identity over "
        f"{len(divisor)} samples {longeq.max_residual:.2e} (<= 1e-6)",
    )


def test_criterion_07_hierarchy_scaling(rm_g1, g1_kp):
    result, _ = g1_kp
    problem = SearchProblem(
        tau=rm_g1, target="hierarchy", jet=result.best_jet, free_vars=(),
        sample_count=80, seed=7, restarts=2, iterations=400, tolerance=1e-8,
    )
    germ = fit_hierarchy(problem)
    points = random_points(1, 12, seed=13)
    per_eps, exponent = hierarchy_scan(rm_g1, germ.best_jet, [1e-3, 1e-2], points)
    residuals = {abs(e): r for e, r in per_eps}
    _criterion(
        7, exponent >= 3.5,
        f"order-3 germ residual decay over eps in {{1e-3, 1e-2}}: residuals "
        f"{residuals[1e-3]:.2e} / {residuals[1e-2]:.2e}, exponent "
        f"{exponent:.2f} (>= 3.5)",
    )


def test_criterion_08_pde_cross_check(g1_kp, tmp_path):
    result, _ = g1_kp
    tau_path = tmp_path / "tau.json"
    tau_path.write_text(json.dumps(
        {"tau": [[[z.real, z.imag] for z in row] for row in G1_TAU]}
    ))
    jet_path = tmp_path / "jet.json"
    jet_path.write_text(json.dumps(serialize.jet_to_dict(result.best_jet)))
    grid_path = tmp_path / "grid.csv"
    code = main(["grid", "--tau", str(tau_path), "--jet", str(jet_path),
                 "--shape", "26,24,9", "--step", "0.01,0.01,0.01",
                 "--standard-time", "--balance", "--out", str(grid_path)])
    assert code == 0

    with open(grid_path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 26 * 24 * 9
    u = np.array([complex(float(r[3]), float(r[4])) for r in rows]).reshape(26, 24, 9)

    # Central stencils of fourth order, step h = 1e-2, checked on the
    # interior 20 x 20 x 5 block of the emitted grid.
    h = 0.01
    c1 = {-2: 1.0, -1: -8.0, 1: 8.0, 2: -1.0}
    worst = 0.0
    for i in range(3, 23):
        for j in range(2, 22):
            for k in range(2, 7):
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
    _criterion(
        8, worst <= 1e-4,
        f"emitted u-grid vs the dispersive evolution under 4th-order central "
        f"stencils (h=1e-2, interior 20x20x5): max rel residual {worst:.2e} "
        f"(<= 1e-4)",
    )


def test_criterion_09_negative_control_g4():
    rm = as_riemann_matrix(random_tau(4, seed=900))
    problem = SearchProblem(
        tau=rm, target="hirota", jet=DirectionJet(U=np.eye(4)[0]),
        free_vars=("V", "W", "d"), sample_count=240, seed=0,
        restarts=50, iterations=500, tolerance=1e-9,
    )
    result = fit(problem)
    _criterion(
        9, result.best_residual >= 1e-3,
        f"g=4 seeded random period matrix, budget 50x500: best holdout "
        f"residual {result.best_residual:.2e} (>= 1e-3; statistical evidence, "
        f"not a proof)",
    )


def test_criterion_09_positive_twin_g3():
    # criterion 9's fit on a genus-3 tau, which is a Jacobian: the same search
    # must close the KP identity there, so a weaker minimizer cannot pass the
    # negative control merely by stopping early
    problem = SearchProblem(
        tau=random_tau(3, seed=900), target="hirota", jet=DirectionJet(U=np.eye(3)[0]),
        free_vars=("V", "W", "d"), sample_count=180, seed=0,
        restarts=8, iterations=500, tolerance=1e-9,
    )
    result = fit(problem)
    assert result.converged, result.best_residual
    assert max(result.history) < 1e-20, result.history


def test_criterion_10_equivalence_suite(rm_g1, rm_g2, g1_kp, g2_one_point):
    # (i) the dressed form equals the plain form after folding A, B
    fold_worst = 0.0
    for rm, g, seed in ((rm_g1, 1, 21), (rm_g2, 2, 23)):
        rng = np.random.default_rng(seed)
        cvec = lambda: rng.normal(size=g) + 1j * rng.normal(size=g)
        U, V = cvec(), cvec()
        A, B = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
        a = 0.4 * cvec()
        dressed = DirectionJet(U=U, V=V, A=A, B=B)
        folded = DirectionJet(U=U, V=V - 2 * A * U, c=A * A - B)
        for z in random_points(g, 5, seed=seed + 100):
            diff = abs(p_AB_residual(z, rm, dressed, a) - p_residual(z, rm, folded, a))
            fold_worst = max(fold_worst, diff)

    # (ii) gauge rescaling leaves the fitted holdout residual unchanged
    kp_result, _ = g1_kp
    holdout = random_points(1, 20, seed=77)
    base = [hirota_residual(z, rm_g1, kp_result.best_jet) for z in holdout]
    rng = np.random.default_rng(29)
    gauge_worst = 0.0
    for _ in range(5):
        lam = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())
        scaled = gauge_rescale(kp_result.best_jet, lam)
        for z, r in zip(holdout, base):
            gauge_worst = max(gauge_worst, abs(hirota_residual(z, rm_g1, scaled) - r))

    # (iii) flex ratios depend only on the projective class: a global
    # rescale of the genuine jet-row matrix leaves every singular ratio
    # unchanged, at a passing half-point and at a generic failing germ
    op_result, _ = g2_one_point
    op_jet, a = op_result.best_jet, op_result.a
    rng = np.random.default_rng(41)
    flex_worst = 0.0
    for b, u, v in (
        (a / 2.0, op_jet.U, -op_jet.V),
        (np.array([0.11 + 0.07j, -0.23 + 0.19j]),
         np.array([0.8, 0.1 - 0.2j]), np.array([-0.3j, 0.5])),
    ):
        kp = kummer_map(b, rm_g2, [(u,), (u, u), (v,)])
        rows = np.array([
            kp.coords,
            2.0 * kp.derivs[canonical_request((u,))],
            4.0 * kp.derivs[canonical_request((u, u))]
            + 4.0 * kp.derivs[canonical_request((v,))],
        ])
        base = singular_ratios(rows)
        for _ in range(3):
            lam = rng.uniform(1e-2, 1e3) * np.exp(2j * np.pi * rng.uniform())
            scaled = singular_ratios(lam * rows)
            flex_worst = max(
                flex_worst, max(abs(x - y) for x, y in zip(base, scaled))
            )

    # (iv) parity: the one-point residual is symmetric under z -> -z - a
    parity_worst = 0.0
    for rm, g, seed in ((rm_g1, 1, 31), (rm_g2, 2, 33)):
        rng = np.random.default_rng(seed)
        cvec = lambda: rng.normal(size=g) + 1j * rng.normal(size=g)
        jet = DirectionJet(U=cvec(), V=cvec(), c=complex(rng.normal(), rng.normal()))
        a = 0.4 * cvec()
        for z in random_points(g, 5, seed=seed + 100):
            diff = abs(p_residual(z, rm, jet, a) - p_residual(-z - a, rm, jet, a))
            parity_worst = max(parity_worst, diff)

    ok = (
        fold_worst <= 1e-12 and gauge_worst <= 1e-9
        and flex_worst <= 1e-12 and parity_worst <= 1e-10
    )
    _criterion(
        10, ok,
        f"equivalence suite: dressed-vs-plain fold {fold_worst:.2e} (<= 1e-12); "
        f"gauge invariance {gauge_worst:.2e} (<= 1e-9); flex projective "
        f"stability {flex_worst:.2e} (<= 1e-12); one-point parity "
        f"{parity_worst:.2e} (<= 1e-10)",
    )
