"""Command-line interface: thin orchestration over the library modules.

Subcommands map one-to-one onto library entry points; all numerical work
happens in the modules, the CLI only loads inputs, seeds the samplers, and
writes reports.  Exit codes: 0 = pass/converged, 1 = completed but not
passing, 2 = input error, 3 = numerical failure.  Every failure writes a
machine-readable JSON object ``{"error": CODE, "message": ...}`` to stderr.

Input files are JSON.  A tau file is ``{"tau": rows}`` (or bare rows) with
complex entries as ``{"re": x, "im": y}``, ``[re, im]`` or plain numbers.
A jet file holds the direction data under keys U, V, W, c, d, A, B (plus
zeta_coeffs / d_coeffs for germ jets) and may carry two sidecar vectors:
"a" (the divisor shift used by one-point, dressed, flex and weil commands)
and "z0" (the grid base point).

All randomness in a command derives from its single ``--seed`` (default 0).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import warnings
from dataclasses import replace

import numpy as np

from . import serialize
from .bilinear import (
    DirectionJet,
    as_riemann_matrix,
    gauge_balance,
    hierarchy_scan,
    kp_field_values,
    kp_standard_time_direction,
    sweep_residual,
)
from .divisor import (
    SamplePlan,
    sample_D1_theta,
    sample_theta_divisor,
    sample_theta_intersection,
    weil_check,
)
from .engine import _check_points, _reader, box_points, canonical_request
from .errors import (
    DegenerateSampleError,
    InvalidInputError,
    ThetaLabError,
)
from .kummer import decomposability_indicator, flex_scan
from .search import _MODELS, SAMPLES_PER_PARAMETER, SearchProblem, _real_parameters, fit
from .serialize import SCHEMA_ID

RESAMPLE_ATTEMPTS = 4  # initial draw plus up to three redraws


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors routed through the JSON error channel."""

    def error(self, message):
        raise InvalidInputError(f"argument error: {message}")


# ---------------------------------------------------------------------------
# small helpers


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def _emit_json(doc: dict, out_path):
    _emit(serialize.dump_json(doc), out_path)


def _load_tau(args):
    return as_riemann_matrix(serialize.load_tau(args.tau))


def _load_jet(args, default_unit_u=False, genus=None):
    """Jet plus extras from --jet; optionally a bare unit-U jet when absent."""
    if args.jet is None:
        if default_unit_u:
            return DirectionJet(U=np.eye(genus)[0]), {}
        raise InvalidInputError("this command requires --jet")
    return serialize.load_jet(args.jet)


def _rng(seed, attempt=0):
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(attempt)]))


def _finite_float(text):
    """argparse type of a float flag: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _seed(text):
    """argparse type of ``--seed``: a non-negative integer, as numpy's seeding requires."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _sample_count(text):
    """argparse type of ``--samples``: a positive integer, as no samples would pass vacuously."""
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"sample count must be non-negative, got {value}" if value < 0 else
            "sample count 0 is refused: with no sample points any jet would pass vacuously")
    return value


def _float_list(text, flag):
    try:
        values = [float(v) for v in str(text).split(",") if v.strip()]
    except ValueError as exc:
        raise InvalidInputError(f"{flag} expects comma-separated numbers, got {text!r}") from exc
    if not values:
        raise InvalidInputError(f"{flag} expects at least one number")
    return values


def _int_triple(text, flag):
    parts = str(text).split(",")
    if len(parts) != 3:
        raise InvalidInputError(f"{flag} expects three comma-separated values, got {text!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise InvalidInputError(f"{flag} expects integers, got {text!r}") from exc


def _float_triple(text, flag):
    values = _float_list(text, flag)
    if len(values) != 3:
        raise InvalidInputError(f"{flag} expects three comma-separated values, got {text!r}")
    return tuple(values)


def _require_shift(extras):
    if "a" not in extras:
        raise InvalidInputError("the jet file must provide the shift vector under key 'a'")
    return extras["a"]


def _collect_warnings(caught):
    notes = [str(w.message) for w in caught]
    return "; ".join(notes) if notes else None


def _join_notes(*parts):
    parts = [p for p in parts if p]
    return "; ".join(parts) if parts else None


# ---------------------------------------------------------------------------
# theta-eval


def cmd_theta_eval(args):
    """Every point read at once, on one evaluator sized for the requests."""
    rm = _load_tau(args)
    if args.points is None:
        pts, reqs = np.zeros((1, rm.g), dtype=complex), []
    else:
        pts, reqs = serialize.load_points(args.points)
        pts = _check_points(pts, rm.g)
    row, = _reader(rm, reqs, args.tol)(pts)  # the reader refuses a bad length, entry or order
    reports = []
    for p, z in enumerate(pts):
        scale = math.exp(row("scales")[p])
        derivs = [
            {
                "directions": [serialize.encode_vector(h) for h in req],
                "value": serialize.encode_complex(scale * row(canonical_request(req))[p]),
            }
            for req in reqs
        ]
        reports.append({
            "point": serialize.encode_vector(z),
            "value": serialize.encode_complex(scale * row(())[p]),
            "derivs": derivs,
            "error_bound": float(scale * row("error")[p]),
        })
    _emit_json({
        "schema": SCHEMA_ID,
        "kind": "theta-report",
        "genus": rm.g,
        "count": len(reports),
        "reports": reports,
    }, args.out)
    return 0


# ---------------------------------------------------------------------------
# residual sweeps


_RESIDUAL_KINDS = {
    "kp-residual": "kp",
    "one-point-residual": "one-point",
    "pab-residual": "dressed",
    "longeq": "longeq",
    "hierarchy": "hierarchy",
}


def _sample_for_kind(kind, rm, jet, count, seed, attempt):
    """Fresh sample points for one sweep attempt; longeq needs divisor points."""
    if kind == "longeq":
        plan = SamplePlan(count=count, seed=int(seed) + 7919 * attempt)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            found = sample_theta_divisor(rm, jet, plan)
        return [p.z for p in found], _collect_warnings(caught)
    return list(box_points(rm, _rng(seed, attempt), count)), None


def cmd_residual(args):
    kind = _RESIDUAL_KINDS[args.command]
    rm = _load_tau(args)
    jet, extras = _load_jet(args)
    a = None
    if kind in ("one-point", "dressed"):
        a = _require_shift(extras)
    epsilon = args.epsilon if kind == "hierarchy" else None
    scan = None
    if kind == "hierarchy":
        scan = None if args.scan is None else _float_list(args.scan, "--scan")
        if 0.0 in [epsilon, *(scan or ())]:
            raise InvalidInputError("epsilon 0 is refused: every hierarchy term vanishes there, "
                                    "so any jet would pass vacuously")

    report = None
    sample_note = None
    attempt = 0
    for attempt in range(RESAMPLE_ATTEMPTS):
        points, sample_note = _sample_for_kind(kind, rm, jet, args.samples, args.seed, attempt)
        try:
            report = sweep_residual(kind, rm, jet, points, args.tol, a=a, epsilon=epsilon)
            break
        except DegenerateSampleError:
            report = None
    if report is None:
        raise DegenerateSampleError(
            f"degenerate samples on {RESAMPLE_ATTEMPTS} independent draws; "
            "the jet may sit on a singular locus"
        )
    if attempt:
        sample_note = _join_notes(sample_note, f"resampled {attempt} time(s) after degenerate draws")
    report.note = _join_notes(report.note, sample_note)

    doc = serialize.residual_report_to_dict(report, which=kind)
    passed = report.passed
    if kind == "hierarchy":
        doc["epsilon"] = args.epsilon
        if scan is not None:
            scan_points = list(box_points(rm, _rng(args.seed, 9000),
                                          max(8, args.samples // 4)))
            per_eps, slope = hierarchy_scan(rm, jet, scan, scan_points)
            doc["scan"] = {
                "per_epsilon": [[abs(complex(e)), float(r)] for e, r in per_eps],
                "exponent": slope,
            }
            if args.min_exponent is not None:
                passed = passed and slope >= args.min_exponent
                doc["pass"] = bool(passed)
    _emit_json(doc, args.out)
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# searches


_SEARCH_COMMANDS = {
    "kp-search": ("hirota", "V,W,d"),
    "one-point-search": ("one_point", "V,a,c"),
}

def _write_history_csv(path, result):
    evaluations = result.evaluations or [0] * len(result.history)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["restart", "iterations", "objective"])
        for k, (nfev, objective) in enumerate(zip(evaluations, result.history)):
            writer.writerow([k, nfev, objective])


def cmd_search(args):
    target, default_free = _SEARCH_COMMANDS[args.command]
    rm = _load_tau(args)
    jet, extras = _load_jet(args, default_unit_u=True, genus=rm.g)
    free_vars = tuple(v.strip() for v in (args.free or default_free).split(",") if v.strip())
    samples = args.samples
    if samples is None:
        samples = max(40, SAMPLES_PER_PARAMETER * _real_parameters(free_vars, rm.g))
    problem = SearchProblem(
        tau=rm,
        target=target,
        jet=jet,
        free_vars=free_vars,
        sample_count=samples,
        seed=args.seed,
        restarts=args.restarts,
        iterations=args.iterations,
        tolerance=args.tol,
        a=extras.get("a"),
    )
    result = fit(problem)
    if args.history is not None:
        _write_history_csv(args.history, result)
    _emit_json(serialize.search_result_to_dict(result, problem), args.out)
    return 0 if result.converged else 1


# ---------------------------------------------------------------------------
# flex, weil, decomp


def _germ_directions(jet, order):
    """Germ coefficients for the flex scan from a jet.

    Explicit germ coefficients (zeta_coeffs) are used verbatim when present.
    Otherwise the germ is derived from fitted bilinear data: the tangent is
    U and the curvature is -V (the sign the addition theorem forces when the
    one-point identity holds with shift a and second direction V).  Order 3
    always needs explicit coefficients.
    """
    zetas = jet.zeta_coeffs
    if zetas is not None and len(zetas) >= order:
        w = zetas[2] if order == 3 else None
        return zetas[0], zetas[1], w
    if order == 3:
        raise InvalidInputError(
            "order-3 germs need three explicit coefficients under 'zeta_coeffs' "
            "in the jet file (for example from a hierarchy fit)"
        )
    jet.require("U", "V")
    return jet.U, -jet.V, None


def cmd_flex(args):
    rm = _load_tau(args)
    jet, extras = _load_jet(args)
    a = _require_shift(extras)
    u, v, w = _germ_directions(jet, args.order)
    report = flex_scan(a, u, v, rm, order=args.order, W=w, tolerance=args.tol)
    note = None
    if rm.g == 1:
        note = ("genus 1: the image lives in a projective line, so the rank "
                "condition is satisfied trivially")
    _emit_json(serialize.flex_report_to_dict(report, note=note), args.out)
    return 0 if report.passed else 1


def cmd_weil(args):
    rm = _load_tau(args)
    jet, extras = _load_jet(args)
    plan = SamplePlan(count=args.samples, seed=args.seed,
                      distinct=not args.repeats)
    a = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.which == "weil1":
            a = _require_shift(extras)
            points = sample_theta_intersection(rm, jet, a, plan)
        else:
            points = sample_D1_theta(rm, jet, plan)
            if args.which == "weil2":
                a = _require_shift(extras)
        report = weil_check(points, rm, jet, a=a, which=args.which,
                            tolerance=args.tol)
    report.note = _join_notes(report.note, _collect_warnings(caught))
    doc = serialize.residual_report_to_dict(report, which=args.which)
    doc["requested"] = args.samples
    doc["points"] = [serialize.divisor_point_to_dict(p) for p in points]
    _emit_json(doc, args.out)
    return 0 if report.passed else 1


def cmd_decomp(args):
    rm = _load_tau(args)
    indicator = decomposability_indicator(rm)
    decomposable = indicator <= args.tol
    _emit_json({
        "schema": SCHEMA_ID,
        "kind": "decomp-report",
        "genus": rm.g,
        "indicator": indicator,
        "threshold": args.tol,
        "verdict": "DECOMPOSABLE" if decomposable else "INDECOMPOSABLE",
        "pass": not decomposable,
    }, args.out)
    return 1 if decomposable else 0


# ---------------------------------------------------------------------------
# grid


def cmd_grid(args):
    rm = _load_tau(args)
    jet, extras = _load_jet(args)
    if jet.c is None:
        jet = replace(jet, c=0.0)
    if args.standard_time:
        jet = kp_standard_time_direction(jet)
    if args.balance:
        jet = gauge_balance(jet)
    jet.require("U", "V", "W", "c")
    nx, ny, nt = _int_triple(args.shape, "--shape")
    dx, dy, dt = _float_triple(args.step, "--step")
    x0, y0, t0 = _float_triple(args.origin, "--origin")
    if min(nx, ny, nt) < 0:
        raise InvalidInputError("--shape entries must be non-negative")
    z0 = extras.get("z0", np.zeros(rm.g, dtype=complex))

    xyt = [(x0 + i * dx, y0 + j * dy, t0 + k * dt)
           for i in range(nx) for j in range(ny) for k in range(nt)]
    field, poles = kp_field_values(xyt, z0, rm, jet)
    rows = [[x, y, t, "pole", "pole"] if pole else [x, y, t, u.real, u.imag]
            for (x, y, t), u, pole in zip(xyt, field.tolist(), poles)]

    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["x", "y", "t", "re_u", "im_u"])
    writer.writerows(rows)
    _emit(text.getvalue(), args.out)
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, jet=False, samples=None, tol=None, seed=False, threads=False):
    sub.add_argument("--tau", required=True, help="path to the period-matrix JSON file")
    if jet:
        sub.add_argument("--jet", help="path to the jet JSON file")
    if samples is not None:
        sub.add_argument("--samples", type=_sample_count, default=samples,
                         help=f"sample-point budget (default {samples})")
    if tol is not None:
        sub.add_argument("--tol", type=_finite_float, default=tol,
                         help=f"tolerance (default {tol:g})")
    if seed:
        sub.add_argument("--seed", type=_seed, default=0,
                         help="seed for every random draw in this command (default 0)")
    if threads:
        sub.add_argument("--threads", type=int, default=1,
                         help="accepted for compatibility; has no effect (restarts run "
                         "sequentially)")
    sub.add_argument("--out", help="output path (default: stdout)")


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process and shared by every ``main`` call.

    Parsing leaves the parser unchanged (each call fills a fresh namespace),
    so callers must not modify the returned parser either.
    """
    parser = _Parser(prog="thetalab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = commands.add_parser("theta-eval", help="evaluate theta values and derivatives")
    p.add_argument("--points", help="JSON file: list of points, or "
                   '{"points": [...], "derivatives": [[dir, ...], ...]}')
    _add_common(p, tol=1e-14)
    p.set_defaults(func=cmd_theta_eval)

    residual_help = {
        "kp-residual": "four-term bilinear residual over random points",
        "one-point-residual": "shifted one-point residual over random points",
        "pab-residual": "exponential-dressed one-point residual over random points",
        "longeq": "on-divisor identity residual over sampled theta zeros",
        "hierarchy": "germ-jet hierarchy residual at a fixed deformation size",
    }
    for name, help_text in residual_help.items():
        p = commands.add_parser(name, help=help_text)
        _add_common(p, jet=True, samples=64, tol=1e-6, seed=True)
        if name == "hierarchy":
            p.add_argument("--epsilon", type=_finite_float, default=1e-2,
                           help="deformation size for the sweep (default 1e-2)")
            p.add_argument("--scan", help="comma-separated epsilon grid: also report the "
                           "decay exponent fitted across the grid")
            p.add_argument("--min-exponent", type=_finite_float,
                           help="with --scan: require at least this decay exponent to pass")
        p.set_defaults(func=cmd_residual)

    for name, help_text in (
        ("kp-search", "fit jet data to the four-term bilinear identity"),
        ("one-point-search", "fit jet data and shift to the one-point identity"),
    ):
        p = commands.add_parser(name, help=help_text)
        _add_common(p, jet=True, tol=1e-8, seed=True, threads=True)
        p.add_argument("--samples", type=_sample_count, help="training points (default: "
                       f"{SAMPLES_PER_PARAMETER}x the real degrees of freedom, at least 40; "
                       "an equal holdout set is always drawn)")
        target, default_free = _SEARCH_COMMANDS[name]
        p.add_argument("--free", help="comma-separated fields to optimize, from "
                       f"{','.join(_MODELS[target].fields)} (default {default_free}); never U, "
                       "whose direction is always searched on its unit slice")
        p.add_argument("--restarts", type=int, default=8, help="independent starts (default 8)")
        p.add_argument("--iterations", type=int, default=400,
                       help="iteration budget per restart (default 400)")
        p.add_argument("--history", help="also write per-restart objectives to this CSV "
                       "(columns: restart, iterations, objective)")
        p.set_defaults(func=cmd_search)

    p = commands.add_parser("flex", help="rank test of the half-point germs under the "
                            "second-order coordinates")
    _add_common(p, jet=True, tol=1e-6)
    p.add_argument("--order", type=int, choices=(2, 3), default=2,
                   help="germ order for the rank rows (default 2)")
    p.set_defaults(func=cmd_flex)

    p = commands.add_parser("weil", help="alternative-vanishing checks on sampled "
                            "divisor points")
    _add_common(p, jet=True, samples=20, tol=1e-6, seed=True)
    p.add_argument("--which", choices=("weil", "weil1", "weil2"), default="weil",
                   help="relation variant (default weil)")
    p.add_argument("--repeats", action="store_true",
                   help="fill the sample quota with repeated converged samples "
                   "instead of deduplicating modulo the lattice (finite loci)")
    p.set_defaults(func=cmd_weil)

    p = commands.add_parser("decomp", help="decomposability indicator for genus-2 "
                            "period matrices")
    _add_common(p, tol=1e-6)
    p.set_defaults(func=cmd_decomp)

    p = commands.add_parser("grid", help="emit the scalar field u on a rectangular "
                            "(x, y, t) grid as CSV")
    _add_common(p, jet=True)
    p.add_argument("--shape", default="8,4,4", help="nx,ny,nt node counts (default 8,4,4)")
    p.add_argument("--step", default="0.01,0.01,0.01",
                   help="dx,dy,dt spacings (default 0.01,0.01,0.01)")
    p.add_argument("--origin", default="0,0,0", help="x0,y0,t0 offsets (default 0,0,0)")
    p.add_argument("--standard-time", action="store_true",
                   help="fold the fitted time direction into the literal-PDE one "
                   "before evaluating")
    p.add_argument("--balance", action="store_true",
                   help="rebalance the direction norms by the residual-preserving "
                   "rescaling before evaluating")
    p.set_defaults(func=cmd_grid)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ThetaLabError as exc:
        sys.stderr.write(serialize.dump_json(
            {"schema": SCHEMA_ID, "kind": "error", **exc.payload()}))
        return exc.exit_code
    except (OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(serialize.dump_json(
            {"schema": SCHEMA_ID, "kind": "error",
             "error": "INVALID_INPUT", "message": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
