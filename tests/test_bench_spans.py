"""The benchmark's tracer (``bench/spans.py``) still finds what it wraps.

``spans`` wraps ``BoundBatch.__init__`` and ``BoundBatch.jets`` by name, so
a rename would quietly turn the per-layer table's engine rows to zeros.
"""

from __future__ import annotations

import importlib
from pathlib import Path

import numpy as np

from thetalab import engine
from thetalab.engine import BoundBatch, RiemannMatrix

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_finds_every_target_and_uninstalls_cleanly(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    init, jets = BoundBatch.__init__, BoundBatch.jets
    tracer = spans.Tracer(callers=[workloads])
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
