"""thetalab runs on numpy alone: no import, subcommand or search loads scipy.

Each check runs in a fresh interpreter, so a module that another test (or
a test dependency) imported cannot hide one that thetalab imports.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import thetalab

from conftest import GENERIC_G2_TAU

SRC = str(Path(thetalab.__file__).resolve().parents[1])
LOADED = "sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')"


def fresh(code, cwd):
    """Run ``code`` in a new interpreter that finds this thetalab; its last line, parsed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_leaves_scipy_unloaded(tmp_path):
    loaded = fresh(f"import json, sys\nimport thetalab, thetalab.cli\nprint(json.dumps({LOADED}))",
                   tmp_path)
    assert loaded == []


def test_non_search_subcommands_run_without_scipy(tmp_path):
    tau = [[[z.real, z.imag] for z in row] for row in GENERIC_G2_TAU]
    (tmp_path / "tau2.json").write_text(json.dumps({"tau": tau}))
    (tmp_path / "tau1.json").write_text(json.dumps({"tau": [[[0.0, 1.0]]]}))
    (tmp_path / "jet.json").write_text(json.dumps(
        {"U": [[1.0, 0.0]], "V": [[0.0, 0.0]], "W": [[0.0, 0.0]], "d": [0.0, 0.0]}))
    code = f"""
import json, sys
from thetalab import cli
codes = [
    cli.main(["theta-eval", "--tau", "tau2.json", "--out", "theta.json"]),
    cli.main(["decomp", "--tau", "tau2.json", "--out", "decomp.json"]),
    cli.main(["kp-residual", "--tau", "tau1.json", "--jet", "jet.json",
              "--samples", "8", "--out", "kp.json"]),
]
print(json.dumps({{"codes": codes, "loaded": {LOADED}}}))
"""
    result = fresh(code, tmp_path)
    # the jet is not a KP solution, so kp-residual completes without passing
    assert result == {"codes": [0, 0, 1], "loaded": []}
    reports = [json.loads((tmp_path / f"{name}.json").read_text())
               for name in ("theta", "decomp", "kp")]
    assert reports[0]["count"] == 1
    assert reports[1]["verdict"] == "INDECOMPOSABLE"
    assert reports[2]["count"] == 8 and reports[2]["pass"] is False


def test_searches_run_without_scipy(tmp_path):
    (tmp_path / "tau1.json").write_text(json.dumps({"tau": [[[0.0, 1.0]]]}))
    (tmp_path / "tau2.json").write_text(json.dumps(
        {"tau": [[[z.real, z.imag] for z in row] for row in GENERIC_G2_TAU]}))
    code = f"""
import json, sys
from thetalab import DirectionJet, SearchProblem, cli, fit, fit_hierarchy
kp = fit(SearchProblem(tau=[[1j]], target="hirota", jet=DirectionJet(U=[1.0]),
                       free_vars=("V", "W", "d"), sample_count=60, seed=42,
                       restarts=2, iterations=300, tolerance=1e-9))
germ = fit_hierarchy(SearchProblem(tau=[[1j]], target="hierarchy", jet=kp.best_jet,
                                   free_vars=(), sample_count=60, seed=7, restarts=1,
                                   iterations=40, tolerance=1e-6, jet_order=2))
codes = [
    cli.main(["kp-search", "--tau", "tau1.json", "--seed", "42", "--restarts", "2",
              "--iterations", "300", "--tol", "1e-9", "--out", "kp.json"]),
    cli.main(["one-point-search", "--tau", "tau2.json", "--seed", "5", "--restarts", "1",
              "--iterations", "50", "--tol", "1e-7", "--out", "op.json"]),
]
print(json.dumps({{"converged": kp.converged, "exponent": germ.scaling_exponent > 1.5,
                  "codes": codes, "loaded": {LOADED}}}))
"""
    result = fresh(code, tmp_path)
    assert result == {"converged": True, "exponent": True, "codes": [0, 0], "loaded": []}
