"""End-to-end tests of the command-line interface.

Commands run in-process through main(argv); one test goes through a real
subprocess to cover the module entry point.  All inputs are written as the
JSON files the CLI documents, all outputs re-parsed through the serializer
(which doubles as the round-trip schema check).
"""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import GENERIC_G2_TAU
from thetalab import serialize
from thetalab.bilinear import ResidualReport, as_riemann_matrix
from thetalab.cli import main
from thetalab.kummer import FlexReport
from thetalab.search import SearchProblem, SearchResult, fit_hierarchy
from thetalab.serialize import load_jet, load_tau


def run(argv, out=None):
    args = [str(a) for a in argv]
    if out is not None:
        args += ["--out", str(out)]
    code = main(args)
    doc = json.loads(out.read_text()) if out is not None and out.exists() else None
    return code, doc


def write_tau(path, tau):
    rows = [[[z.real, z.imag] for z in np.asarray(row, dtype=complex)] for row in tau]
    path.write_text(json.dumps({"tau": rows}))
    return path


def jet_file_from_search(search_doc, path, with_a=False):
    jet = dict(search_doc["best_jet"])
    if with_a:
        jet["a"] = search_doc["a"]
    path.write_text(json.dumps(jet))
    return path


@pytest.fixture(scope="module")
def g1_env(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli-g1")
    tau = write_tau(d / "tau.json", [[1j]])
    fit_out = d / "fit.json"
    hist = d / "hist.csv"
    code, doc = run(["kp-search", "--tau", tau, "--seed", 42, "--restarts", 4,
                     "--iterations", 300, "--tol", "1e-9", "--threads", 2,
                     "--history", hist], out=fit_out)
    assert code == 0
    jet = jet_file_from_search(doc, d / "jet.json")
    return {"dir": d, "tau": tau, "fit": doc, "fit_path": fit_out,
            "jet": jet, "hist": hist}


@pytest.fixture(scope="module")
def g2_env(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli-g2")
    tau = write_tau(d / "tau.json", GENERIC_G2_TAU)
    product = write_tau(d / "product.json", [[1j, 0.0], [0.0, 2j]])

    code, op_doc = run(["one-point-search", "--tau", tau, "--seed", 5,
                        "--restarts", 3, "--iterations", 400, "--tol", "1e-7",
                        "--threads", 3], out=d / "op_fit.json")
    assert code == 0
    op_jet = jet_file_from_search(op_doc, d / "op_jet.json", with_a=True)

    code, kp_doc = run(["kp-search", "--tau", tau, "--seed", 11, "--restarts", 4,
                        "--iterations", 400, "--tol", "1e-7", "--threads", 4],
                       out=d / "kp_fit.json")
    assert code == 0
    kp_jet = jet_file_from_search(kp_doc, d / "kp_jet.json")
    return {"dir": d, "tau": tau, "product": product,
            "op_fit": op_doc, "op_jet": op_jet,
            "kp_fit": kp_doc, "kp_jet": kp_jet}


@pytest.fixture(scope="module")
def germ_env(g1_env, tmp_path_factory):
    d = tmp_path_factory.mktemp("cli-germ")
    rm = as_riemann_matrix(load_tau(g1_env["tau"]))
    jet, _ = load_jet(g1_env["jet"])
    problem = SearchProblem(tau=rm, target="hierarchy", jet=jet, free_vars=(),
                            sample_count=80, seed=7, restarts=2, iterations=400,
                            tolerance=1e-8)
    result = fit_hierarchy(problem)
    germ = d / "germ.json"
    germ.write_text(json.dumps(serialize.jet_to_dict(result.best_jet)))
    return {"dir": d, "tau": g1_env["tau"], "germ": germ}


class TestThetaEval:
    def test_origin_matches_naive_sum(self, g1_env, tmp_path):
        code, doc = run(["theta-eval", "--tau", g1_env["tau"]], out=tmp_path / "t.json")
        assert code == 0
        naive = 1.0 + 2.0 * math.fsum(math.exp(-math.pi * n * n) for n in range(1, 101))
        got = complex(doc["reports"][0]["value"]["re"], doc["reports"][0]["value"]["im"])
        assert abs(got - naive) <= 1e-12 * abs(naive)
        assert 0.0 < doc["reports"][0]["error_bound"] < 1e-10

    def test_empty_point_list(self, g1_env, tmp_path):
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps({"points": []}))
        code, doc = run(["theta-eval", "--tau", g1_env["tau"], "--points", pts],
                        out=tmp_path / "t.json")
        assert code == 0
        assert doc["reports"] == [] and doc["count"] == 0

    def test_derivative_requests(self, g1_env, tmp_path):
        from thetalab.engine import theta_eval

        z = np.array([0.1 + 0.05j])
        u = np.array([1.0 + 0.0j])
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps({
            "points": [[[0.1, 0.05]]],
            "derivatives": [[[1.0]], [[1.0], [1.0]]],
        }))
        code, doc = run(["theta-eval", "--tau", g1_env["tau"], "--points", pts],
                        out=tmp_path / "t.json")
        assert code == 0
        rm = as_riemann_matrix(load_tau(g1_env["tau"]))
        jet = theta_eval(z, rm, [(u,), (u, u)])
        scale = math.exp(jet.scale_exponent)
        rep = doc["reports"][0]
        assert len(rep["derivs"]) == 2
        for entry, req in zip(rep["derivs"], [(u,), (u, u)]):
            got = complex(entry["value"]["re"], entry["value"]["im"])
            want = scale * jet.d(req)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


    def test_bare_list_points_file(self, g1_env, tmp_path):
        from thetalab.engine import theta_eval

        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps([[[0.1, 0.05]], [[-0.2, 0.3]]]))
        code, doc = run(["theta-eval", "--tau", g1_env["tau"], "--points", pts],
                        out=tmp_path / "t.json")
        assert code == 0 and doc["count"] == 2
        rm = as_riemann_matrix(load_tau(g1_env["tau"]))
        for z, rep in zip([0.1 + 0.05j, -0.2 + 0.3j], doc["reports"]):
            assert rep["derivs"] == []
            jet = theta_eval([z], rm)
            want = math.exp(jet.scale_exponent) * jet.value
            assert abs(serialize.decode_complex(rep["value"]) - want) <= 1e-12 * abs(want)

    def test_overflowing_derivative_weight_is_precision_unreachable(self, g1_env, tmp_path,
                                                                     capsys):
        # (2 pi 1e80 r)^4 is past the float range: the request is refused
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps({"points": [[[0.1, 0.05]]],
                                   "derivatives": [[[1e80], [1e80], [1e80], [1e80]]]}))
        code = main(["theta-eval", "--tau", str(g1_env["tau"]), "--points", str(pts)])
        err = json.loads(capsys.readouterr().err)
        assert code == 3 and err["error"] == "PRECISION_UNREACHABLE"

    def test_overflowing_shell_term_is_precision_unreachable(self, tmp_path, capsys):
        # a finite weight whose shell term overflows: refused, not a NaN error bound
        tau = write_tau(tmp_path / "tau.json", 1.1j * np.eye(4))
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps({"points": [[[0.0, 0.0]] * 4],
                                   "derivatives": [[[1e302, 0.0, 0.0, 0.0]]]}))
        code = main(["theta-eval", "--tau", str(tau), "--points", str(pts)])
        err = json.loads(capsys.readouterr().err)
        assert code == 3 and err["error"] == "PRECISION_UNREACHABLE"


class TestErrorChannel:
    def test_non_symmetric_tau(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"tau": [[[0, 1], [0.3, 0.2]], [[0.1, 0.2], [0, 2]]]}))
        code = main(["theta-eval", "--tau", str(bad)])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"] == "TAU_NOT_SYMMETRIC"
        assert err["schema"] == serialize.SCHEMA_ID

    def test_missing_jet_is_input_error(self, g1_env, capsys):
        code = main(["kp-residual", "--tau", str(g1_env["tau"])])
        err = json.loads(capsys.readouterr().err)
        assert code == 2 and err["error"] == "INVALID_INPUT"

    def test_shift_vector_required(self, g1_env, capsys):
        code = main(["one-point-residual", "--tau", str(g1_env["tau"]),
                     "--jet", str(g1_env["jet"])])
        err = json.loads(capsys.readouterr().err)
        assert code == 2 and err["error"] == "INVALID_INPUT"
        assert "'a'" in err["message"]

    def test_malformed_tau_file(self, tmp_path, capsys):
        bad = tmp_path / "garbage.json"
        bad.write_text("not json at all")
        code = main(["decomp", "--tau", str(bad)])
        err = json.loads(capsys.readouterr().err)
        assert code == 2 and err["error"] == "INVALID_INPUT"

    def test_usage_error_is_json(self, capsys):
        code = main(["no-such-command"])
        err = json.loads(capsys.readouterr().err)
        assert code == 2 and err["error"] == "INVALID_INPUT"

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        code = main(["theta-eval", "--tau", str(tmp_path / "absent.json")])
        err = json.loads(capsys.readouterr().err)
        assert code == 2 and err["error"] == "INVALID_INPUT"


class TestResidualCommands:
    def test_kp_residual_passes_on_fitted_jet(self, g1_env, tmp_path):
        code, doc = run(["kp-residual", "--tau", g1_env["tau"], "--jet", g1_env["jet"],
                         "--samples", 50, "--seed", 7, "--tol", "1e-9"],
                        out=tmp_path / "r.json")
        assert code == 0
        assert doc["pass"] is True and doc["which"] == "kp"
        assert doc["max_residual"] <= 1e-9
        assert doc["count"] == 50 and len(doc["residuals"]) == 50

    def test_kp_residual_fails_on_junk_jet(self, g1_env, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text(json.dumps({"U": [1.0], "V": [[0.3, 0.1]],
                                    "W": [[0.2, -0.4]], "d": 0.0}))
        code, doc = run(["kp-residual", "--tau", g1_env["tau"], "--jet", junk,
                         "--samples", 30, "--seed", 1, "--tol", "1e-6"],
                        out=tmp_path / "r.json")
        assert code == 1
        assert doc["pass"] is False and doc["max_residual"] > 1e-6

    def test_dressed_form_matches_plain_one_point(self, g2_env, tmp_path):
        jet = json.loads(g2_env["op_jet"].read_text())
        c = complex(jet["c"]["re"], jet["c"]["im"])
        jet["A"] = [0.0, 0.0]
        jet["B"] = [-c.real, -c.imag]
        dressed = tmp_path / "dressed.json"
        dressed.write_text(json.dumps(jet))
        code_p, doc_p = run(["one-point-residual", "--tau", g2_env["tau"],
                             "--jet", g2_env["op_jet"], "--samples", 40,
                             "--seed", 9, "--tol", "1e-7"], out=tmp_path / "p.json")
        code_ab, doc_ab = run(["pab-residual", "--tau", g2_env["tau"],
                               "--jet", dressed, "--samples", 40,
                               "--seed", 9, "--tol", "1e-7"], out=tmp_path / "ab.json")
        assert code_p == 0 and code_ab == 0
        for rp, rab in zip(doc_p["residuals"], doc_ab["residuals"]):
            assert abs(rp - rab) <= 1e-12

    def test_longeq_on_sampled_divisor_points(self, g2_env, tmp_path):
        code, doc = run(["longeq", "--tau", g2_env["tau"], "--jet", g2_env["kp_jet"],
                         "--samples", 12, "--seed", 3, "--tol", "1e-6"],
                        out=tmp_path / "l.json")
        assert code == 0
        assert doc["count"] == 12 and doc["max_residual"] <= 1e-6

    def test_hierarchy_scan_and_exponent_gate(self, germ_env, tmp_path):
        base = ["hierarchy", "--tau", germ_env["tau"], "--jet", germ_env["germ"],
                "--samples", 24, "--seed", 4, "--tol", "1e-2", "--epsilon", "1e-2",
                "--scan", "1e-3,3.16e-3,1e-2,3.16e-2,1e-1"]
        code, doc = run(base + ["--min-exponent", "3.5"], out=tmp_path / "h.json")
        assert code == 0
        assert doc["scan"]["exponent"] >= 3.5
        assert len(doc["scan"]["per_epsilon"]) == 5
        # residuals must decay monotonically along the grid
        vals = [r for _, r in doc["scan"]["per_epsilon"]]
        assert vals == sorted(vals)
        code, doc = run(base + ["--min-exponent", "10"], out=tmp_path / "h2.json")
        assert code == 1 and doc["pass"] is False


class TestSearchCommands:
    def test_g1_fit_report(self, g1_env):
        doc = g1_env["fit"]
        assert doc["converged"] is True
        assert doc["best_residual"] <= 1e-9
        assert doc["best_jet"]["U"] == [{"re": 1.0, "im": 0.0}]
        assert doc["problem"]["target"] == "hirota"
        assert doc["note"] is None

    def test_history_csv(self, g1_env):
        with open(g1_env["hist"], newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["restart", "iterations", "objective"]
        assert len(rows) == 1 + 4
        for k, row in enumerate(rows[1:]):
            assert int(row[0]) == k
            assert int(row[1]) > 0
            assert float(row[2]) < 1e-18

    def test_deterministic_reruns(self, g1_env, tmp_path):
        code, doc = run(["kp-search", "--tau", g1_env["tau"], "--seed", 42,
                         "--restarts", 4, "--iterations", 300, "--tol", "1e-9",
                         "--threads", 1], out=tmp_path / "again.json")
        assert code == 0
        assert doc == g1_env["fit"]

    def test_sample_floor_is_enforced(self, g1_env, capsys):
        code = main(["kp-search", "--tau", str(g1_env["tau"]), "--samples", "10"])
        err = json.loads(capsys.readouterr().err)
        assert code == 2 and err["error"] == "INVALID_INPUT"

    def test_default_sample_count(self, g1_env):
        # (V, W, d) at genus 1 is six real parameters: 10 samples each
        assert g1_env["fit"]["problem"]["sample_count"] == 60

    def test_u_is_not_a_free_field(self, g1_env, capsys):
        code = main(["kp-search", "--tau", str(g1_env["tau"]), "--free", "U,V,W,d",
                     "--restarts", "1", "--iterations", "20"])
        err = json.loads(capsys.readouterr().err)
        assert code == 2 and err["error"] == "INVALID_INPUT"
        assert "U cannot be freed" in err["message"]

    def test_unknown_free_name_is_input_error(self, g1_env, capsys):
        code = main(["kp-search", "--tau", str(g1_env["tau"]), "--free", "V,zeta"])
        err = json.loads(capsys.readouterr().err)
        assert code == 2 and err["error"] == "INVALID_INPUT"
        assert "'zeta'" in err["message"]

    @pytest.mark.parametrize("command", ["kp-search", "one-point-search"])
    def test_jet_of_the_wrong_genus_is_input_error(self, tmp_path, capsys, command):
        tau = write_tau(tmp_path / "tau.json", GENERIC_G2_TAU)
        jet = tmp_path / "jet.json"
        jet.write_text(json.dumps({"U": [1.0, 0.0, 0.0]}))
        message = _input_error(capsys, [command, "--tau", tau, "--jet", jet,
                                        "--restarts", 1, "--iterations", 2])
        assert "U must be a complex vector of length 2" in message

    def test_one_point_report_carries_shift_and_note(self, g2_env):
        doc = g2_env["op_fit"]
        assert doc["converged"] is True and doc["best_residual"] <= 1e-7
        assert doc["a"] is not None and len(doc["a"]) == 2
        assert "irreducib" in doc["note"]


class TestTheoremChain:
    """Fitted one-point data drives flex and weil1 to passing verdicts."""

    def test_flex_passes_at_a_half_point(self, g2_env, tmp_path):
        code, doc = run(["flex", "--tau", g2_env["tau"], "--jet", g2_env["op_jet"],
                         "--order", 2, "--tol", "1e-6"], out=tmp_path / "f.json")
        assert code == 0
        assert doc["pass"] is True
        assert doc["rank_ratio"] <= 1e-6
        assert len(doc["tested_halves"]) == 16
        assert sum(h["pass"] for h in doc["tested_halves"]) >= 1

    def test_weil1_passes_on_intersection_samples(self, g2_env, tmp_path):
        code, doc = run(["weil", "--which", "weil1", "--tau", g2_env["tau"],
                         "--jet", g2_env["op_jet"], "--samples", 20, "--seed", 1,
                         "--tol", "1e-6", "--repeats"], out=tmp_path / "w.json")
        assert code == 0
        assert doc["pass"] is True and doc["count"] == 20
        assert doc["max_residual"] <= 1e-6
        assert all(p["kind"] == "ThetaCapThetaA" for p in doc["points"])


class TestNovikovChain:
    """Fitted four-term data drives weil and longeq to passing verdicts."""

    def test_weil_passes_on_located_points(self, g2_env, tmp_path):
        code, doc = run(["weil", "--which", "weil", "--tau", g2_env["tau"],
                         "--jet", g2_env["kp_jet"], "--samples", 8, "--seed", 2,
                         "--tol", "1e-6"], out=tmp_path / "w.json")
        assert code == 0
        assert doc["pass"] is True and doc["count"] >= 1
        assert doc["max_residual"] <= 1e-6
        assert "under-sampled" in (doc["note"] or "")

    def test_longeq_on_fifty_theta_samples(self, g2_env, tmp_path):
        code, doc = run(["longeq", "--tau", g2_env["tau"], "--jet", g2_env["kp_jet"],
                         "--samples", 50, "--seed", 3, "--tol", "1e-6"],
                        out=tmp_path / "l.json")
        assert code == 0
        assert doc["count"] == 50 and doc["max_residual"] <= 1e-6


class TestFlexCommand:
    def test_genus1_trivial_pass_with_note(self, g1_env, tmp_path):
        jet = tmp_path / "jet.json"
        jet.write_text(json.dumps({"U": [1.0], "V": [[0.3, -0.2]],
                                   "a": [[0.21, 0.13]]}))
        code, doc = run(["flex", "--tau", g1_env["tau"], "--jet", jet],
                        out=tmp_path / "f.json")
        assert code == 0
        assert doc["pass"] is True
        assert "genus 1" in doc["note"]
        assert len(doc["tested_halves"]) == 4

    def test_order3_requires_explicit_germ(self, g1_env, tmp_path, capsys):
        jet = tmp_path / "jet.json"
        jet.write_text(json.dumps({"U": [1.0], "V": [[0.3, -0.2]],
                                   "W": [[0.1, 0.0]], "a": [[0.21, 0.13]]}))
        code = main(["flex", "--tau", str(g1_env["tau"]), "--jet", str(jet),
                     "--order", "3"])
        err = json.loads(capsys.readouterr().err)
        assert code == 2 and "zeta_coeffs" in err["message"]

    def test_order3_uses_germ_coefficients(self, germ_env, tmp_path):
        jet = json.loads(germ_env["germ"].read_text())
        jet["a"] = [[0.21, 0.13]]
        path = tmp_path / "jet.json"
        path.write_text(json.dumps(jet))
        code, doc = run(["flex", "--tau", germ_env["tau"], "--jet", path,
                         "--order", 3], out=tmp_path / "f.json")
        assert code == 0 and doc["order"] == "third"


class TestDecomp:
    def test_product_is_flagged(self, g2_env, tmp_path, capsys):
        code, doc = run(["decomp", "--tau", g2_env["product"], "--tol", "1e-10"],
                        out=tmp_path / "d.json")
        assert code == 1
        assert doc["verdict"] == "DECOMPOSABLE"
        assert doc["indicator"] <= 1e-10

    def test_generic_matrix_passes(self, g2_env, tmp_path):
        code, doc = run(["decomp", "--tau", g2_env["tau"]], out=tmp_path / "d.json")
        assert code == 0
        assert doc["verdict"] == "INDECOMPOSABLE"
        assert doc["indicator"] >= 1e-2


class TestGrid:
    def test_zero_nodes_header_only(self, g1_env, tmp_path):
        out = tmp_path / "g.csv"
        code = main(["grid", "--tau", str(g1_env["tau"]), "--jet", str(g1_env["jet"]),
                     "--shape", "0,4,4", "--out", str(out)])
        assert code == 0
        assert out.read_text().strip() == "x,y,t,re_u,im_u"

    def test_stdout_matches_out_file(self, g1_env, tmp_path):
        out = tmp_path / "g.csv"
        argv = ["grid", "--tau", str(g1_env["tau"]), "--jet", str(g1_env["jet"]),
                "--shape", "2,2,2"]
        assert main([*argv, "--out", str(out)]) == 0
        proc = subprocess.run([sys.executable, "-m", "thetalab.cli", *argv],
                              capture_output=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stdout == out.read_bytes()

    def test_zero_direction_gives_constant_field(self, g1_env, tmp_path):
        jet = tmp_path / "jet.json"
        jet.write_text(json.dumps({"U": [0.0], "V": [[0.2, 0.0]],
                                   "W": [[0.1, 0.0]], "c": [0.37, -0.11]}))
        out = tmp_path / "g.csv"
        code = main(["grid", "--tau", str(g1_env["tau"]), "--jet", str(jet),
                     "--shape", "3,2,2", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 12
        for row in rows:
            assert abs(float(row[3]) - 0.37) <= 1e-14
            assert abs(float(row[4]) + 0.11) <= 1e-14

    def test_pole_sentinel_row(self, g1_env, tmp_path):
        jet = tmp_path / "jet.json"
        # base point sits exactly on the theta divisor for tau = i
        jet.write_text(json.dumps({"U": [1.0], "V": [[0.3, 0.0]],
                                   "W": [[0.2, 0.0]], "c": 0.1,
                                   "z0": [[0.5, 0.5]]}))
        out = tmp_path / "g.csv"
        code = main(["grid", "--tau", str(g1_env["tau"]), "--jet", str(jet),
                     "--shape", "3,1,1", "--step", "0.05,0.05,0.05",
                     "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows[0][3] == "pole" and rows[0][4] == "pole"
        for row in rows[1:]:
            float(row[3]), float(row[4])  # finite numbers after the pole

    def test_node_ordering_and_counts(self, g1_env, tmp_path):
        out = tmp_path / "g.csv"
        code = main(["grid", "--tau", str(g1_env["tau"]), "--jet", str(g1_env["jet"]),
                     "--shape", "2,2,3", "--step", "0.1,0.2,0.3",
                     "--origin", "1,2,3", "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert len(rows) == 12
        # t varies fastest, then y, then x; origin offsets all coordinates
        assert [float(v) for v in rows[0][:3]] == pytest.approx([1.0, 2.0, 3.0])
        assert [float(v) for v in rows[1][:3]] == pytest.approx([1.0, 2.0, 3.3])
        assert [float(v) for v in rows[3][:3]] == pytest.approx([1.0, 2.2, 3.0])
        assert [float(v) for v in rows[6][:3]] == pytest.approx([1.1, 2.0, 3.0])

    def test_jet_of_the_wrong_genus_is_input_error(self, tmp_path, capsys):
        tau = write_tau(tmp_path / "tau.json", GENERIC_G2_TAU)
        jet = tmp_path / "jet.json"
        jet.write_text(json.dumps({"U": [1.0, 0.0, 0.0], "V": [0.4, 0.0, 0.2],
                                   "W": [0.3, 0.1, 0.0], "c": 0.1}))
        out = tmp_path / "g.csv"
        message = _input_error(capsys, ["grid", "--tau", tau, "--jet", jet, "--out", out])
        assert "U must be a complex vector of length 2" in message
        assert not out.exists()


class TestRepeatedCalls:
    def test_calls_in_a_row_match_fresh_calls(self, g1_env, g2_env, capsys):
        # the parser is shared between calls; each call still parses only its own argv
        calls = [
            ["decomp", "--tau", g2_env["tau"]],
            ["kp-residual", "--tau", g1_env["tau"], "--jet", g1_env["jet"],
             "--samples", 4, "--seed", 3],
            ["decomp", "--tau", g2_env["tau"], "--tol", "nan"],
            ["kp-residual", "--tau", g1_env["tau"], "--jet", g1_env["jet"], "--samples", 4],
        ]
        outputs = []
        for argv in calls:
            code = main([str(a) for a in argv])
            outputs.append((code, *capsys.readouterr()))
        assert [code for code, _, _ in outputs] == [0, 0, 2, 0]
        for argv, first in zip(calls, outputs):
            proc = subprocess.run([sys.executable, "-m", "thetalab.cli", *map(str, argv)],
                                  capture_output=True, text=True, timeout=120)
            assert (proc.returncode, proc.stdout, proc.stderr) == first


class TestRoundTrip:
    def test_emitted_reports_reparse(self, g1_env, g2_env, tmp_path):
        _, residual = run(["kp-residual", "--tau", g1_env["tau"],
                           "--jet", g1_env["jet"], "--samples", 10, "--seed", 0,
                           "--tol", "1e-9"], out=tmp_path / "r.json")
        _, flex = run(["flex", "--tau", g2_env["tau"], "--jet", g2_env["op_jet"]],
                      out=tmp_path / "f.json")
        assert isinstance(serialize.parse_report(json.dumps(residual)), ResidualReport)
        assert isinstance(serialize.parse_report(json.dumps(flex)), FlexReport)
        assert isinstance(serialize.parse_report(json.dumps(g1_env["fit"])), SearchResult)
        restored = serialize.parse_report(json.dumps(g2_env["op_fit"]))
        assert isinstance(restored, SearchResult)
        assert restored.converged and restored.a is not None
        with pytest.raises(Exception):
            serialize.parse_report(json.dumps({"schema": "other-v9", "kind": "x"}))

    def test_search_report_from_before_the_gauge_field_was_dropped(self, g1_env):
        doc = g1_env["fit"]
        assert "gauge_degenerate_restarts" not in doc
        old = serialize.parse_report({**doc, "gauge_degenerate_restarts": 0})
        assert serialize.search_result_to_dict(old) == {
            k: v for k, v in doc.items() if k != "problem"}

    def test_console_entry_point(self, g1_env, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "thetalab.cli", "theta-eval",
             "--tau", str(g1_env["tau"])],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["kind"] == "theta-report" and doc["schema"] == serialize.SCHEMA_ID


def _input_error(capsys, argv):
    """Run argv and return the message of its INVALID_INPUT error (exit 2)."""
    code = main([str(a) for a in argv])
    err = json.loads(capsys.readouterr().err)
    assert code == 2 and err["error"] == "INVALID_INPUT", (code, err)
    return err["message"]


class TestArgumentChecks:
    @pytest.mark.parametrize("flag, value", [
        ("--origin", "nan,0,0"), ("--step", "nan,0.01,0.01"),
        ("--shape", "1,2"), ("--shape", "a,1,1"), ("--shape", "-1,1,1"),
        ("--step", "0.1,0.1"),
    ])
    def test_bad_grid_arguments(self, g1_env, tmp_path, capsys, flag, value):
        # a NaN origin or step reaches the bind, which refuses the points
        out = tmp_path / "g.csv"
        _input_error(capsys, ["grid", "--tau", g1_env["tau"], "--jet", g1_env["jet"],
                              "--shape", "2,1,1", f"{flag}={value}", "--out", out])
        assert not out.exists()

    def test_bad_scan_grid(self, germ_env, capsys):
        message = _input_error(capsys, ["hierarchy", "--tau", germ_env["tau"],
                                        "--jet", germ_env["germ"], "--samples", 4,
                                        "--scan", "a"])
        assert "--scan" in message

    def test_empty_scan_grid(self, germ_env, capsys):
        message = _input_error(capsys, ["hierarchy", "--tau", germ_env["tau"],
                                        "--jet", germ_env["germ"], "--samples", 4,
                                        "--scan", ","])
        assert "--scan expects at least one number" in message

    @pytest.mark.parametrize("command", ["kp-residual", "one-point-residual",
                                         "pab-residual", "hierarchy"])
    def test_negative_sample_count(self, germ_env, tmp_path, capsys, command):
        # a germ jet with a shift passes every other check of the four commands
        jet = json.loads(germ_env["germ"].read_text())
        jet["a"] = [[0.1, 0.2]]
        path = tmp_path / "jet.json"
        path.write_text(json.dumps(jet))
        out = tmp_path / "r.json"
        message = _input_error(capsys, [command, "--tau", germ_env["tau"], "--jet", path,
                                        "--samples", -3, "--out", out])
        assert "sample count must be non-negative" in message
        assert not out.exists()

    @pytest.mark.parametrize("command", ["kp-residual", "one-point-residual", "pab-residual",
                                         "longeq", "hierarchy", "weil", "kp-search",
                                         "one-point-search"])
    def test_zero_samples_is_refused(self, germ_env, tmp_path, capsys, command):
        # a sweep of no points would pass any jet vacuously; the jet and its
        # shift pass every other check of the eight commands
        jet = json.loads(germ_env["germ"].read_text())
        jet.update(a=[[0.1, 0.2]], c=0.1, A=0.2, B=0.3)
        path = tmp_path / "jet.json"
        path.write_text(json.dumps(jet))
        out = tmp_path / "r.json"
        message = _input_error(capsys, [command, "--tau", germ_env["tau"], "--jet", path,
                                        "--samples", 0, "--out", out])
        assert "--samples" in message and "vacuously" in message
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command, flag", [
        *((c, "--tol") for c in ("kp-residual", "one-point-residual", "pab-residual", "longeq",
                                 "hierarchy", "flex", "weil", "decomp", "kp-search",
                                 "one-point-search")),
        ("hierarchy", "--epsilon"), ("hierarchy", "--min-exponent"),
    ])
    def test_non_finite_float_flag(self, germ_env, tmp_path, capsys, command, flag, value):
        # every input but the flag is valid, so the command would run to its report
        jet = json.loads(germ_env["germ"].read_text())
        jet["a"] = [[0.1, 0.2]]
        path = tmp_path / "jet.json"
        path.write_text(json.dumps(jet))
        out = tmp_path / "r.json"
        argv = [command, f"{flag}={value}", "--out", out]
        if command == "decomp":
            argv += ["--tau", write_tau(tmp_path / "tau.json", GENERIC_G2_TAU)]
        else:
            argv += ["--tau", germ_env["tau"], "--jet", path]
        if command.endswith("search"):
            argv += ["--restarts", 1, "--iterations", 5]
        elif command not in ("flex", "decomp"):
            argv += ["--samples", 2]
        if command == "hierarchy":
            argv += ["--scan", "0.01,0.02"]
        message = _input_error(capsys, argv)
        assert flag in message and "finite number" in message
        assert not out.exists()

    @pytest.mark.parametrize("command", ["kp-residual", "one-point-residual", "pab-residual",
                                         "longeq", "hierarchy", "weil", "kp-search",
                                         "one-point-search"])
    @pytest.mark.parametrize("value", ["-1", "1.5", "x"])
    def test_seed_that_is_not_a_non_negative_integer(self, germ_env, tmp_path, capsys,
                                                     command, value):
        # numpy's seeding would raise a ValueError traceback (exit 1) on -1
        jet = json.loads(germ_env["germ"].read_text())
        jet["a"] = [[0.1, 0.2]]
        path = tmp_path / "jet.json"
        path.write_text(json.dumps(jet))
        out = tmp_path / "r.json"
        argv = [command, "--tau", germ_env["tau"], "--jet", path, f"--seed={value}",
                "--out", out]
        argv += ["--restarts", 1, "--iterations", 5] if command.endswith("search") \
            else ["--samples", 2]
        message = _input_error(capsys, argv)
        assert "--seed" in message and "non-negative integer" in message
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--epsilon", "0"], ["--epsilon", "-0.0"],
                                       ["--scan", "0,0.01"], ["--scan", "0.01,0"]])
    def test_hierarchy_at_epsilon_zero(self, germ_env, tmp_path, capsys, flags):
        # every term of the hierarchy form is 0 at epsilon 0, so any jet would pass
        out = tmp_path / "h.json"
        message = _input_error(capsys, ["hierarchy", "--tau", germ_env["tau"],
                                        "--jet", germ_env["germ"], "--samples", 4, *flags,
                                        "--out", out])
        assert "epsilon 0" in message and "vacuously" in message
        assert not out.exists()

    @pytest.mark.parametrize("doc, words", [
        ({"points": 5}, "list of points"),
        ({"derivatives": 7}, "list of derivative requests"),
        ({"points": [[0.1]], "derivatives": [5]}, "list of directions"),
    ])
    def test_points_fields_that_are_not_lists(self, g1_env, tmp_path, capsys, doc, words):
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps(doc))
        message = _input_error(capsys, ["theta-eval", "--tau", g1_env["tau"], "--points", pts])
        assert words in message

    @pytest.mark.parametrize("key", ["zeta_coeffs", "d_coeffs"])
    def test_germ_coefficients_that_are_not_lists(self, germ_env, tmp_path, capsys, key):
        jet = json.loads(germ_env["germ"].read_text())
        jet[key] = 5
        path = tmp_path / "jet.json"
        path.write_text(json.dumps(jet))
        message = _input_error(capsys, ["kp-residual", "--tau", germ_env["tau"],
                                        "--jet", path, "--samples", 2])
        assert f"list of {key} entries" in message

    @pytest.mark.parametrize("doc", ["a string", 3, None])
    def test_points_file_neither_list_nor_object(self, g1_env, tmp_path, capsys, doc):
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps(doc))
        message = _input_error(capsys, ["theta-eval", "--tau", g1_env["tau"], "--points", pts])
        assert "list or object" in message

    def test_weil2_needs_the_shift(self, g2_env, tmp_path, capsys):
        message = _input_error(capsys, ["weil", "--which", "weil2", "--tau", g2_env["tau"],
                                        "--jet", g2_env["kp_jet"], "--samples", 2])
        assert "'a'" in message
        code, doc = run(["weil", "--which", "weil2", "--tau", g2_env["tau"],
                         "--jet", g2_env["op_jet"], "--samples", 2, "--seed", 1],
                        out=tmp_path / "w.json")
        assert code in (0, 1) and doc["which"] == "weil2" and doc["pass"] is (code == 0)
        assert doc["count"] >= 1 and all(0.0 <= r <= 1.0 for r in doc["residuals"])
        assert all(p["kind"] == "D1Theta" for p in doc["points"])


class TestResample:
    def test_degenerate_draws_are_redrawn_then_fail(self, g1_env, tmp_path, capsys, monkeypatch):
        from thetalab import cli
        from thetalab.errors import DegenerateSampleError

        sweep, calls = cli.sweep_residual, []

        def flaky(*args, **kwargs):
            calls.append(len(calls))
            if len(calls) < 2 or fail_always:
                raise DegenerateSampleError("normalizer underflowed")
            return sweep(*args, **kwargs)

        monkeypatch.setattr(cli, "sweep_residual", flaky)
        argv = ["kp-residual", "--tau", g1_env["tau"], "--jet", g1_env["jet"],
                "--samples", 5, "--tol", "1e-9"]
        fail_always = False
        code, doc = run(argv, out=tmp_path / "r.json")
        assert code == 0 and calls == [0, 1]
        assert "resampled 1 time(s)" in doc["note"]
        fail_always, calls[:] = True, []
        code = main([str(a) for a in argv])
        err = json.loads(capsys.readouterr().err)
        assert code == 3 and err["error"] == "DEGENERATE_SAMPLE"
        assert len(calls) == 4


class TestMultiPointThetaEval:
    def test_each_value_within_its_bound_of_the_single_point_one(self, g2_env, tmp_path):
        from thetalab.engine import theta_eval

        rng = np.random.default_rng(41)
        zs = rng.uniform(-0.6, 0.6, (5, 2)) + 1j * rng.uniform(-0.6, 0.6, (5, 2))
        u = np.array([0.8 - 0.2j, 0.3 + 0.5j])
        pts = tmp_path / "pts.json"
        pts.write_text(json.dumps({"points": [serialize.encode_vector(z) for z in zs],
                                   "derivatives": [[serialize.encode_vector(u)] * 2]}))
        code, doc = run(["theta-eval", "--tau", g2_env["tau"], "--points", pts],
                        out=tmp_path / "t.json")
        assert code == 0 and doc["count"] == 5
        rm = as_riemann_matrix(load_tau(g2_env["tau"]))
        for z, rep in zip(zs, doc["reports"]):
            jet = theta_eval(z, rm, [(u, u)], target_abs_err=1e-14)
            scale = math.exp(jet.scale_exponent)
            bound = rep["error_bound"]
            assert 0.0 < bound and abs(bound - scale * jet.error_bound) <= 1e-3 * bound
            for got, want in ((rep["value"], jet.value), (rep["derivs"][0]["value"],
                                                          jet.d((u, u)))):
                assert abs(serialize.decode_complex(got) - scale * want) <= bound


class TestDecodeErrors:
    @pytest.mark.parametrize("call", [
        lambda: serialize.decode_complex({"re": "x"}),
        lambda: serialize.decode_complex([1.0, 2.0, 3.0]),
        lambda: serialize.decode_complex("1+2j"),
        lambda: serialize.decode_vector({"re": 1.0}),
        lambda: serialize.decode_matrix([]),
        lambda: serialize.jet_from_dict({"V": [1.0]}),
        lambda: serialize.jet_from_dict({"U": [1.0], "zeta_coeffs": 5}),
        lambda: serialize.parse_report([1, 2]),
        lambda: serialize.parse_report({"schema": serialize.SCHEMA_ID, "kind": "no-such-report"}),
    ])
    def test_malformed_documents(self, call):
        from thetalab.errors import InvalidInputError

        with pytest.raises(InvalidInputError):
            call()

    @pytest.mark.parametrize("name, text, words", [
        ("tau", '{"rows": [[1.0]]}', "no 'tau' key"),
        ("jet", '[{"re": 1.0}]', "JSON object"),
        ("jet", '{"V": [1.0]}', "at least U"),
    ])
    def test_malformed_input_files(self, g1_env, tmp_path, capsys, name, text, words):
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        files = {"tau": g1_env["tau"], "jet": g1_env["jet"], name: path}
        message = _input_error(capsys, ["kp-residual", "--tau", files["tau"],
                                        "--jet", files["jet"], "--samples", 2])
        assert words in message
