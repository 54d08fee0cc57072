"""The benchmark's tracer (``bench/spans.py``) still finds what it wraps.

``spans`` wraps ``BoundBatch.__init__``, ``BoundBatch.jets`` and the
``minimize`` and ``least_squares`` that ``thetalab.search`` calls by name, so
a rename, or a search that called scipy directly, would quietly turn the
per-layer table's engine or search rows to zeros.
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
        assert tracer.absent == []
        engine.theta_eval([0.1], RiemannMatrix([[1j]]), [(np.array([1.0]),)])
    finally:
        tracer.uninstall()
    assert BoundBatch.__init__ is init and BoundBatch.jets is jets
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["engine.bind_calls"] == metrics["engine.jets_calls"] == 1
    assert metrics["engine.jets_terms"] == 2 * metrics["engine.bind_terms"] > 0


def test_tracer_records_both_search_stages(monkeypatch):
    spans, tracer = _tracer(monkeypatch)
    nm, lm = search.minimize, search.least_squares
    tracer.install()
    try:
        assert tracer.absent == []
        search.fit(search.SearchProblem(
            tau=[[1j]], target="hirota", jet=DirectionJet(U=[1.0]),
            free_vars=("V", "W", "d"), sample_count=60, seed=42, restarts=1,
            iterations=300, tolerance=1e-9))
    finally:
        tracer.uninstall()
    assert search.minimize is nm and search.least_squares is lm
    for name in ("search.nm", "search.lm"):
        stage = [s for s in tracer.spans if s.name == name]
        assert stage and all(s.counts["nfev"] > 0 for s in stage), name
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["search.nm_nfev"] > 0 and metrics["search.lm_nfev"] > 0
