"""Opt-in tracing of thetalab's layers from outside the package.

``Tracer.install`` wraps the public callables of each thetalab module, in
every module that holds a reference to them (a name bound with
``from .engine import theta_eval`` is wrapped in the importing module too),
plus the engine's batch methods and the scipy optimizers as called from
``thetalab.search``.  Each call records a span (name, layer, start, end,
parent, and counts taken from its arguments or result) in memory;
``layer_metrics`` turns the spans of one pass into the per-layer table.  A
target that a later version of the program no longer has is listed in
``absent`` and its metrics read 0.

A span's self time is its duration minus the time covered by its direct
child spans; a layer's self time is the sum over its spans, i.e. the time
during which the innermost open span belongs to that layer.  Each thread
keeps its own span stack, so spans of restarts that run on worker threads
nest correctly; their durations add up, so a layer's time can exceed the
wall time of the pass when threads overlap.
"""

from __future__ import annotations

import importlib
import inspect
import threading
import time

MODULES = ("engine", "bilinear", "kummer", "divisor", "search", "serialize", "cli")
# O(1) helpers called per number or per request; spans around them would
# cost more than the work they time
SKIP = {"as_point", "as_riemann_matrix", "canonical_request", "encode_complex",
        "decode_complex", "encode_vector", "decode_vector", "point_to_list"}
METHODS = (
    ("engine", "BatchThetaEvaluator", "__init__", "engine.evaluator"),
    ("engine", "BoundBatch", "__init__", "engine.bind"),
    ("engine", "BoundBatch", "jets", "engine.jets"),
)
FOREIGN = (("search", "minimize", "search.nm"), ("search", "least_squares", "search.lm"))
# public callables the per-layer table reads; any missing one is reported
EXPECTED = ("engine.theta_eval", "engine.theta_char_eval", "kummer.kummer_map",
            "divisor.sample_theta_divisor", "divisor.sample_D1_theta",
            "divisor.sample_theta_intersection", "divisor.weil_check",
            "bilinear.sweep_residual", "bilinear.hierarchy_scan", "bilinear.kp_field_u",
            "bilinear.hirota_residual", "bilinear.p_residual", "bilinear.p_AB_residual",
            "bilinear.hierarchy_residual", "bilinear.longeq_residual", "search.fit",
            "cli.main", "serialize.dump_json")
RESIDUALS = ("bilinear.hirota_residual", "bilinear.p_residual", "bilinear.p_AB_residual",
             "bilinear.hierarchy_residual", "bilinear.longeq_residual")
SAMPLERS = ("divisor.sample_theta_divisor", "divisor.sample_D1_theta",
            "divisor.sample_theta_intersection")

PER_LAYER = (
    ("engine.evaluator_s", "s"), ("engine.lattice_points", "count"),
    ("engine.bind_s", "s"), ("engine.bind_calls", "count"), ("engine.bind_terms", "count"),
    ("engine.jets_s", "s"), ("engine.jets_calls", "count"), ("engine.jets_terms", "count"),
    ("engine.jets_per_bind", "ratio"),
    ("engine.theta_eval_s", "s"), ("engine.theta_eval_calls", "count"),
    ("search.nm_s", "s"), ("search.nm_nfev", "count"),
    ("search.lm_s", "s"), ("search.lm_nfev", "count"), ("search.self_s", "s"),
    ("kummer.kummer_map_s", "s"), ("kummer.kummer_map_calls", "count"), ("kummer.self_s", "s"),
    ("divisor.sample_s", "s"), ("divisor.weil_s", "s"), ("divisor.newton_starts", "count"),
    ("divisor.points_found", "count"), ("divisor.points_per_start", "ratio"),
    ("bilinear.sweep_s", "s"), ("bilinear.residual_calls", "count"),
    ("bilinear.hierarchy_scan_s", "s"), ("bilinear.field_u_calls", "count"),
    ("cli.self_s", "s"), ("serialize.s", "s"), ("serialize.bytes", "bytes"),
)


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "children", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.parent = parent
        self.children = []
        self.counts = {}
        self.start = self.end = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - sum(c.duration for c in self.children)


def _counts(name, arguments, result):
    """Work counts recorded on a span, from the call's bound arguments or result."""
    if name == "engine.evaluator":
        return {"lattice": len(arguments["self"].lattice)}
    if name == "engine.bind":
        bound = arguments["self"]
        return {"terms": len(bound.ev.lattice) * bound.count}
    if name == "engine.jets":
        bound = arguments["self"]
        return {"terms": len(bound.ev.lattice) * bound.count * (1 + len(list(arguments["keys"])))}
    if name in ("search.nm", "search.lm"):
        return {"nfev": int(getattr(result, "nfev", 0))}
    if name in SAMPLERS:
        return {"starts": arguments["plan"].starts, "found": len(result)}
    if name == "serialize.dump_json":
        return {"bytes": len(result.encode())}
    return None


COUNTED = {"engine.evaluator", "engine.bind", "engine.jets", "search.nm", "search.lm",
           "serialize.dump_json", *SAMPLERS}


class Tracer:
    """Wraps thetalab's callables; records one span per call while installed."""

    def __init__(self, callers=()):
        """``callers`` are further modules whose imported names are wrapped too."""
        self.spans = []
        self.absent = []
        self._callers = list(callers)
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self
        signature = inspect.signature(fn) if name in COUNTED else None

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(name, parent)
            if parent is not None:
                parent.children.append(span)
            tracer.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if signature is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                span.counts = _counts(name, arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        import thetalab

        modules = {m: importlib.import_module(f"thetalab.{m}") for m in MODULES}
        holders = [thetalab, *modules.values(), *self._callers]
        targets = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or attr in SKIP or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                targets[id(obj)] = (obj, f"{short}.{attr}")
        for name in EXPECTED:
            short, attr = name.split(".")
            if not inspect.isfunction(getattr(modules[short], attr, None)):
                self.absent.append(name)
        for short, attr, name in FOREIGN:
            obj = getattr(modules[short], attr, None)
            if obj is None:
                self.absent.append(name)
                continue
            self._set(modules[short], attr, self._wrap(name, obj))
        for obj, name in targets.values():
            wrapped = self._wrap(name, obj)
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is obj:
                        self._set(holder, attr, wrapped)
        for short, cls_name, meth, name in METHODS:
            cls = getattr(modules[short], cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if fn is None:
                self.absent.append(name)
                continue
            self._set(cls, meth, self._wrap(name, fn))

    def _set(self, holder, attr, value):
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def uninstall(self):
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)


def layer_metrics(spans):
    """The per-layer table (see PER_LAYER) from the spans of one pass."""

    def named(*names):
        return [s for s in spans if s.name in names]

    def outermost(*names):
        return [s for s in named(*names) if s.parent is None or s.parent.name not in names]

    def total(group, key=None):
        if key is None:
            return sum(s.duration for s in group)
        return sum(s.counts.get(key, 0) for s in group)

    def layer_self(layer):
        return sum(s.self_time for s in spans if s.layer == layer)

    evaluators, binds, jets = (named(n) for n in ("engine.evaluator", "engine.bind",
                                                  "engine.jets"))
    theta = outermost("engine.theta_eval", "engine.theta_char_eval")
    samplers = outermost(*SAMPLERS)
    starts, found = total(samplers, "starts"), total(samplers, "found")
    dumps = named("serialize.dump_json")
    serialize_spans = [s for s in spans if s.layer == "serialize"
                       and (s.parent is None or s.parent.layer != "serialize")]
    return {
        "engine.evaluator_s": total(evaluators),
        "engine.lattice_points": max((s.counts.get("lattice", 0) for s in evaluators),
                                     default=0),
        "engine.bind_s": total(binds),
        "engine.bind_calls": len(binds),
        "engine.bind_terms": total(binds, "terms"),
        "engine.jets_s": total(jets),
        "engine.jets_calls": len(jets),
        "engine.jets_terms": total(jets, "terms"),
        "engine.jets_per_bind": len(jets) / len(binds) if binds else 0.0,
        "engine.theta_eval_s": total(theta),
        "engine.theta_eval_calls": len(theta),
        "search.nm_s": total(named("search.nm")),
        "search.nm_nfev": total(named("search.nm"), "nfev"),
        "search.lm_s": total(named("search.lm")),
        "search.lm_nfev": total(named("search.lm"), "nfev"),
        "search.self_s": layer_self("search"),
        "kummer.kummer_map_s": total(named("kummer.kummer_map")),
        "kummer.kummer_map_calls": len(named("kummer.kummer_map")),
        "kummer.self_s": layer_self("kummer"),
        "divisor.sample_s": total(samplers),
        "divisor.weil_s": total(outermost("divisor.weil_check")),
        "divisor.newton_starts": starts,
        "divisor.points_found": found,
        "divisor.points_per_start": found / starts if starts else 0.0,
        "bilinear.sweep_s": total(outermost("bilinear.sweep_residual")),
        "bilinear.residual_calls": len(named(*RESIDUALS)),
        "bilinear.hierarchy_scan_s": total(outermost("bilinear.hierarchy_scan")),
        "bilinear.field_u_calls": len(named("bilinear.kp_field_u")),
        "cli.self_s": layer_self("cli"),
        "serialize.s": total(serialize_spans),
        "serialize.bytes": total(dumps, "bytes"),
    }
