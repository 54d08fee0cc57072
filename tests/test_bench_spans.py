"""The benchmark's tracer (``bench/spans.py``) still finds what it wraps.

``spans`` wraps ``BoundBatch.__init__`` and ``BoundBatch.jets``, so a rename
would quietly turn the per-layer table's engine rows to zeros.  It also looks
for the ``minimize`` and ``least_squares`` that ``thetalab.search`` once
called; the search is one Levenberg-Marquardt loop of its own now, so those
two targets are listed as absent and their rows read 0.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np

from thetalab import engine, search
from thetalab.bilinear import DirectionJet
from thetalab.engine import BoundBatch, RiemannMatrix

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    return spans, spans.Tracer(callers=[importlib.import_module("workloads")])


def test_tracer_finds_every_target_and_uninstalls_cleanly(monkeypatch):
    spans, tracer = _tracer(monkeypatch)
    init, jets = BoundBatch.__init__, BoundBatch.jets
    tracer.install()
    try:
        assert tracer.absent == ["search.nm", "search.lm"]
        engine.theta_eval([0.1], RiemannMatrix([[1j]]), [(np.array([1.0]),)])
    finally:
        tracer.uninstall()
    assert BoundBatch.__init__ is init and BoundBatch.jets is jets
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["engine.bind_calls"] == metrics["engine.jets_calls"] == 1
    assert metrics["engine.jets_terms"] == 2 * metrics["engine.bind_terms"] > 0


def test_search_stage_rows_read_zero(monkeypatch):
    spans, tracer = _tracer(monkeypatch)
    tracer.install()
    try:
        assert tracer.absent == ["search.nm", "search.lm"]
        result = search.fit(search.SearchProblem(
            tau=[[1j]], target="hirota", jet=DirectionJet(U=[1.0]),
            free_vars=("V", "W", "d"), sample_count=60, seed=42, restarts=1,
            iterations=300, tolerance=1e-9))
    finally:
        tracer.uninstall()
    assert result.converged
    metrics = spans.layer_metrics(tracer.spans)
    assert [s.name for s in tracer.spans if s.layer == "search"] == ["search.fit"]
    assert metrics["search.self_s"] > 0 and metrics["engine.jets_calls"] > 0
    for name in ("search.nm_s", "search.nm_nfev", "search.lm_s", "search.lm_nfev"):
        assert metrics[name] == 0, name
