"""JSON codecs for inputs (tau and jet files) and emitted reports.

Every report dictionary embeds ``SCHEMA_ID`` under the key "schema" and a
"kind" tag; ``parse_report`` checks the id and rebuilds the typed objects,
so any emitted document re-parses under the same schema version.

Conventions
-----------
* Complex scalars encode as ``{"re": x, "im": y}``.  Decoding is liberal:
  plain numbers and two-element ``[re, im]`` lists are accepted in input
  files, emitted documents always use the dict form.
* Vectors and matrices are (nested) lists of complex scalars.
* Non-finite floats in a report encode as ``null`` and decode back to
  ``inf``; emitted JSON is therefore always strictly valid.
* A field documented as a list is refused with ``InvalidInputError`` when
  it holds anything else (``decode_list``).
"""

from __future__ import annotations

import json
import math

import numpy as np

from .bilinear import DirectionJet, ResidualReport
from .divisor import DivisorPoint
from .engine import AbelianPoint, as_point
from .errors import InvalidInputError
from .kummer import FlexReport, HalfCandidate
from .search import SearchProblem, SearchResult

SCHEMA_ID = "thetalab-report-v1"


# ---------------------------------------------------------------------------
# scalars, vectors, matrices


def encode_complex(value) -> dict:
    z = complex(value)
    return {"re": z.real, "im": z.imag}


def decode_complex(obj) -> complex:
    if isinstance(obj, dict):
        try:
            return complex(float(obj["re"]), float(obj.get("im", 0.0)))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"bad complex scalar {obj!r}") from exc
    if isinstance(obj, (list, tuple)):
        if len(obj) != 2:
            raise InvalidInputError(f"complex scalar list must be [re, im], got {obj!r}")
        return complex(float(obj[0]), float(obj[1]))
    if isinstance(obj, (int, float)):
        return complex(obj)
    raise InvalidInputError(f"cannot interpret {obj!r} as a complex scalar")


def encode_vector(vec) -> list:
    return [encode_complex(v) for v in np.asarray(vec, dtype=complex).reshape(-1)]


def decode_list(obj, decode, what) -> list:
    """[decode(v) for v in obj], for an obj that is a list of ``what``."""
    if not isinstance(obj, (list, tuple)):
        raise InvalidInputError(f"expected a list of {what}, got {obj!r}")
    return [decode(v) for v in obj]


def decode_vector(obj) -> np.ndarray:
    return np.array(decode_list(obj, decode_complex, "complex scalars"), dtype=complex)


def decode_matrix(obj) -> np.ndarray:
    if not isinstance(obj, (list, tuple)) or not obj:
        raise InvalidInputError("expected a non-empty list of matrix rows")
    return np.array([decode_vector(row) for row in obj], dtype=complex)


def _finite(x):
    """float for JSON, None for non-finite (json.dump(allow_nan=False) safe)."""
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def _unfinite(x):
    return math.inf if x is None else float(x)


# ---------------------------------------------------------------------------
# input files


def load_tau(path) -> np.ndarray:
    """Read a period matrix from a JSON file: {"tau": rows} or bare rows."""
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        if "tau" not in doc:
            raise InvalidInputError(f"{path}: no 'tau' key in tau file")
        doc = doc["tau"]
    return decode_matrix(doc)


_JET_VECTORS = ("U", "V", "W")
_JET_SCALARS = ("c", "d", "A", "B")


def jet_to_dict(jet: DirectionJet) -> dict:
    out = {}
    for names, encode in ((_JET_VECTORS, encode_vector), (_JET_SCALARS, encode_complex)):
        out.update({name: encode(getattr(jet, name)) for name in names
                    if getattr(jet, name) is not None})
    if jet.zeta_coeffs is not None:
        out["zeta_coeffs"] = [encode_vector(v) for v in jet.zeta_coeffs]
    if jet.d_coeffs is not None:
        out["d_coeffs"] = [encode_complex(v) for v in jet.d_coeffs]
    if jet.normalized:
        out["normalized"] = True
    return out


def jet_from_dict(doc: dict) -> DirectionJet:
    if "U" not in doc:
        raise InvalidInputError("jet document must define at least U")
    kwargs = {}
    for names, decode in ((_JET_VECTORS, decode_vector), (_JET_SCALARS, decode_complex)):
        kwargs.update({name: decode(doc[name]) for name in names if doc.get(name) is not None})
    for key, decode in (("zeta_coeffs", decode_vector), ("d_coeffs", decode_complex)):
        if doc.get(key) is not None:
            kwargs[key] = decode_list(doc[key], decode, f"{key} entries")
    kwargs["normalized"] = bool(doc.get("normalized", False))
    return DirectionJet(**kwargs)


def load_points(path):
    """Read a theta-eval points file: a list of points, or an object with the
    keys "points" and "derivatives" (a list of requests, each a list of
    directions).  Returns (points, requests), requests as tuples of vectors.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, list):
        doc = {"points": doc}
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{path}: points file must be a JSON list or object")
    points = decode_list(doc.get("points", []), decode_vector, "points")
    requests = decode_list(doc.get("derivatives", []),
                           lambda req: tuple(decode_list(req, decode_vector, "directions")),
                           "derivative requests")
    return points, requests


def load_jet(path):
    """Read a jet file.  Returns (DirectionJet, extras).

    ``extras`` collects the sidecar vectors that are not jet fields: the
    divisor shift "a" and the grid base point "z0", when present.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{path}: jet file must be a JSON object")
    jet = jet_from_dict(doc)
    extras = {}
    for key in ("a", "z0"):
        if doc.get(key) is not None:
            extras[key] = decode_vector(doc[key])
    return jet, extras


# ---------------------------------------------------------------------------
# reports


def point_to_list(point) -> list:
    return encode_vector(as_point(point).z)


def residual_report_to_dict(report: ResidualReport, which: str) -> dict:
    return {
        "schema": SCHEMA_ID,
        "kind": "residual-report",
        "which": which,
        "normalization": report.normalization,
        "tolerance": report.tolerance,
        "pass": bool(report.passed),
        "max_residual": _finite(report.max_residual),
        "mean_residual": _finite(report.mean_residual),
        "count": len(report.residuals),
        "residuals": [_finite(r) for r in report.residuals],
        "sample_points": [point_to_list(p) for p in report.sample_points],
        "note": report.note,
    }


def residual_report_from_dict(doc: dict) -> ResidualReport:
    return ResidualReport(
        sample_points=[AbelianPoint(decode_vector(p)) for p in doc["sample_points"]],
        residuals=[_unfinite(r) for r in doc["residuals"]],
        normalization=doc["normalization"],
        max_residual=_unfinite(doc["max_residual"]),
        mean_residual=_unfinite(doc["mean_residual"]),
        tolerance=float(doc["tolerance"]),
        passed=bool(doc["pass"]),
        note=doc.get("note"),
    )


def flex_report_to_dict(report: FlexReport, note: str | None = None) -> dict:
    halves = None
    if report.tested_halves is not None:
        halves = [
            {
                "m": list(h.m),
                "n": list(h.n),
                "b": point_to_list(h.b),
                "sigma_ratios": [_finite(r) for r in h.sigma_ratios],
                "pass": bool(h.passed),
            }
            for h in report.tested_halves
        ]
    return {
        "schema": SCHEMA_ID,
        "kind": "flex-report",
        "order": report.order,
        "tolerance": report.tolerance,
        "pass": bool(report.passed),
        "b": point_to_list(report.b),
        "sigma_ratios": [_finite(r) for r in report.sigma_ratios],
        "rank_ratio": _finite(report.rank_ratio),
        "tested_halves": halves,
        "note": note,
    }


def flex_report_from_dict(doc: dict) -> FlexReport:
    halves = None
    if doc.get("tested_halves") is not None:
        halves = [
            HalfCandidate(
                b=AbelianPoint(decode_vector(h["b"])),
                m=tuple(h["m"]),
                n=tuple(h["n"]),
                sigma_ratios=[_unfinite(r) for r in h["sigma_ratios"]],
                passed=bool(h["pass"]),
            )
            for h in doc["tested_halves"]
        ]
    return FlexReport(
        b=AbelianPoint(decode_vector(doc["b"])),
        sigma_ratios=[_unfinite(r) for r in doc["sigma_ratios"]],
        order=doc["order"],
        passed=bool(doc["pass"]),
        tolerance=float(doc["tolerance"]),
        tested_halves=halves,
    )


def search_problem_to_dict(problem: SearchProblem) -> dict:
    return {
        "target": problem.target,
        "free_vars": list(problem.free_vars),
        "sample_count": problem.sample_count,
        "seed": problem.seed,
        "restarts": problem.restarts,
        "iterations": problem.iterations,
        "tolerance": problem.tolerance,
        "jet_order": problem.jet_order,
        "initial_jet": jet_to_dict(problem.jet),
        "a": None if problem.a is None else encode_vector(problem.a),
    }


def search_result_to_dict(result: SearchResult, problem: SearchProblem | None = None) -> dict:
    out = {
        "schema": SCHEMA_ID,
        "kind": "search-report",
        "converged": bool(result.converged),
        "best_residual": _finite(result.best_residual),
        "best_jet": jet_to_dict(result.best_jet),
        "a": None if result.a is None else encode_vector(result.a),
        "history": [_finite(h) for h in result.history],
        "evaluations": None if result.evaluations is None else [int(n) for n in result.evaluations],
        "scaling_exponent": _finite(result.scaling_exponent),
        "note": result.note,
    }
    if problem is not None:
        out["problem"] = search_problem_to_dict(problem)
    return out


def search_result_from_dict(doc: dict) -> SearchResult:
    return SearchResult(
        best_jet=jet_from_dict(doc["best_jet"]),
        best_residual=_unfinite(doc["best_residual"]),
        history=[_unfinite(h) for h in doc["history"]],
        converged=bool(doc["converged"]),
        a=None if doc.get("a") is None else decode_vector(doc["a"]),
        scaling_exponent=(None if doc.get("scaling_exponent") is None
                          else float(doc["scaling_exponent"])),
        evaluations=(None if doc.get("evaluations") is None
                     else [int(n) for n in doc["evaluations"]]),
        note=doc.get("note"),
    )


def divisor_point_to_dict(point: DivisorPoint) -> dict:
    return {
        "z": point_to_list(point.z),
        "kind": point.kind.value,
        "constraints_met": [[str(name), _finite(mag)] for name, mag in point.constraints_met],
    }


_PARSERS = {
    "residual-report": residual_report_from_dict,
    "flex-report": flex_report_from_dict,
    "search-report": search_result_from_dict,
    "theta-report": lambda doc: doc,
    "decomp-report": lambda doc: doc,
}


def parse_report(doc):
    """Re-parse an emitted report (dict or JSON text) under the schema.

    Returns the typed object for residual/flex/search reports and the plain
    dictionary for theta and decomp reports.
    """
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise InvalidInputError("report document must be a JSON object")
    schema = doc.get("schema")
    if schema != SCHEMA_ID:
        raise InvalidInputError(
            f"unsupported report schema {schema!r} (this reader handles {SCHEMA_ID!r})"
        )
    kind = doc.get("kind")
    if kind not in _PARSERS:
        raise InvalidInputError(f"unknown report kind {kind!r}")
    return _PARSERS[kind](doc)


def dump_json(doc: dict) -> str:
    """Serialize a report dictionary to strictly valid, stable JSON text."""
    return json.dumps(doc, indent=2, allow_nan=False, sort_keys=False) + "\n"
