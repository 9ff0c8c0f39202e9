"""In-memory span tracing of a campaign, from outside the program.

:func:`instrumented` wraps the public callables where each layer of
``repro`` is entered — module functions in every ``repro`` module that
imported them by name, methods on their class — so that every call
opens a span on a :class:`Tracer`.  Nothing under ``src/`` changes.

A span has a name, a layer, a start, an end and a parent (the span open
when it started).  Spans are folded into per-name and per-layer totals
as they close, so memory stays O(layers) over the millions of ticks a
campaign runs.  A span's *self time* is its duration minus the time its
child spans cover; the self times of all spans under the root partition
the root's duration exactly, which is what lets the benchmark say which
share of a campaign each layer accounts for.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

#: Layer of the root span; its self time is the campaign time no named
#: layer accounts for.
ROOT_LAYER = "pipeline"


@dataclass
class SpanTotals:
    """Aggregates of every closed span of one name."""

    count: int = 0
    #: Wall time of the outermost spans of this name (a span re-entered
    #: recursively is not counted twice).
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """A span stack on one thread, folded into totals as spans close."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict[str, SpanTotals] = {}
        self.layer_self_s: defaultdict[str, float] = defaultdict(float)
        #: Spans whose parent lies in another layer: calls *into* a layer.
        self.layer_entries: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack: list[list] = []      # [name, layer, start, covered]
        self._open: Counter = Counter()

    def open(self, name: str, layer: str) -> None:
        self._stack.append([name, layer, self.clock(), 0.0])
        self._open[name] += 1

    def close(self) -> None:
        end = self.clock()
        name, layer, start, covered = self._stack.pop()
        duration = end - start
        self._open[name] -= 1
        totals = self.spans.setdefault(name, SpanTotals())
        totals.count += 1
        totals.self_s += duration - covered
        if not self._open[name]:
            totals.total_s += duration
        self.layer_self_s[layer] += duration - covered
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if parent is None or parent[1] != layer:
            self.layer_entries[layer] += 1

    @contextmanager
    def span(self, name: str, layer: str):
        self.open(name, layer)
        try:
            yield
        finally:
            self.close()

    def wrap(self, fn, name, layer: str, on_result=None):
        """``fn`` inside a span.  ``name`` may be a callable of the call's
        ``(args, kwargs)``; ``on_result(args, kwargs, result)`` runs after
        a successful call, outside the timed span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name(args, kwargs) if callable(name) else name,
                        layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result
        return traced

    def total(self, name: str) -> float:
        totals = self.spans.get(name)
        return totals.total_s if totals is not None else 0.0

    def count(self, name: str) -> int:
        totals = self.spans.get(name)
        return totals.count if totals is not None else 0

    def self_time(self, *names: str) -> float:
        return sum(self.spans[n].self_s for n in names if n in self.spans)


def _golden_or_replay(args, kwargs) -> str:
    # run_scenario records a trace only for golden runs (its default);
    # validation's full-replay fallback passes record_trace=False.
    return "golden" if kwargs.get("record_trace", True) else "replay"


#: (module, function, span name, layer): module functions, patched in
#: every loaded ``repro`` module that holds them.
FUNCTIONS = (
    ("repro.core.simulate", "run_scenario", _golden_or_replay, "simulate"),
    ("repro.core.parallel", "execute_experiment", "validate", "simulate"),
    ("repro.core.parallel", "execute_experiment_batch", "validate",
     "simulate"),
    ("repro.core.safety", "world_safety_potential", "safety_potential",
     "safety"),
    ("repro.core.safety", "safety_potential", "safety_potential", "safety"),
    ("repro.core.safety", "stopping_displacement", "stop", "safety"),
    ("repro.core.persistence", "save_golden_traces", "persist",
     "persistence"),
)

#: (module, class, method, span name, layer): patched on the class.
METHODS = (
    ("repro.ads.runtime", "ADSPipeline", "tick", "ads", "ads"),
    ("repro.ads.batch", "BatchADSState", "tick_all", "ads", "ads"),
    ("repro.sim.world", "World", "step", "sim", "sim"),
    ("repro.sim.batch", "BatchWorldState", "step", "sim", "sim"),
    ("repro.sim.world", "World", "snapshot", "snapshot", "checkpoint"),
    ("repro.sim.world", "World", "restore", "restore", "checkpoint"),
    ("repro.ads.runtime", "ADSPipeline", "snapshot", "ads_snapshot",
     "checkpoint"),
    ("repro.ads.runtime", "ADSPipeline", "restore", "ads_restore",
     "checkpoint"),
    ("repro.core.bayesian_fi", "InjectorTrainer", "add_run", "train",
     "bayesnet"),
    ("repro.core.bayesian_fi", "InjectorTrainer", "finish", "train",
     "bayesnet"),
    ("repro.core.bayesian_fi", "BayesianFaultInjector",
     "mine_scenario_candidates", "mine", "bayesian_fi"),
    ("repro.sim.trace", "Trace", "record", "trace", "trace"),
    ("repro.sim.trace", "TraceStore", "put", "trace", "trace"),
    ("repro.core.persistence", "JsonlRecordSink", "add", "persist",
     "persistence"),
    ("repro.core.resilience", "CampaignJournal", "append", "persist",
     "persistence"),
    ("repro.core.resilience", "CampaignJournal", "flush", "persist",
     "persistence"),
    ("repro.core.checkpoint", "CheckpointStore", "save", "persist",
     "persistence"),
    ("repro.core.checkpoint", "CheckpointStore", "save_scenario", "persist",
     "persistence"),
    ("repro.core.checkpoint", "CheckpointStore", "load_scenario", "persist",
     "persistence"),
)


def _replace_everywhere(original, replacement, name: str, undo: list) -> None:
    for module_name, module in list(sys.modules.items()):
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        if getattr(module, name, None) is original:
            setattr(module, name, replacement)
            undo.append((module, name, original))


def _stop_key(args, kwargs) -> tuple[int, int]:
    """The quantized (v, phi) key ``repro.core.safety.stopping_displacement``
    looks its stop maneuver up by."""
    v = args[0] if args else kwargs["v"]
    phi = args[2] if len(args) > 2 else kwargs["phi"]
    return round(max(v, 0.0) / 0.05), round(phi / 5e-4)


def _counting(fn, on_result):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        on_result(args, kwargs, result)
        return result
    return counted


@contextmanager
def instrumented(tracer: Tracer):
    """Route every layer entry point through ``tracer`` for the block.

    Also counts, on ``tracer.counters``: ``stop_distinct_keys`` (cache
    keys of the stop maneuver), ``fused_lanes``/``peeled_lanes`` (the
    batched engine's ``can_fuse`` verdicts), and the mining returns
    ``mined_candidates``/``scored``/``scenes``.
    """
    undo: list = []
    counters = tracer.counters
    stop_keys: set = set()

    def count_stop(args, kwargs, result):
        stop_keys.add(_stop_key(args, kwargs))

    def count_fuse(args, kwargs, fused):
        counters["fused_lanes" if fused else "peeled_lanes"] += 1

    def count_mined(args, kwargs, result):
        mined, n_scored, n_scenes = result
        counters["mined_candidates"] += len(mined)
        counters["scored"] += n_scored
        counters["scenes"] += n_scenes

    hooks = {"stopping_displacement": count_stop,
             "mine_scenario_candidates": count_mined}
    try:
        for module_name, attr, name, layer in FUNCTIONS:
            original = getattr(importlib.import_module(module_name), attr)
            _replace_everywhere(
                original, tracer.wrap(original, name, layer,
                                      hooks.get(attr)), attr, undo)
        can_fuse = importlib.import_module("repro.ads.batch").can_fuse
        _replace_everywhere(can_fuse, _counting(can_fuse, count_fuse),
                            "can_fuse", undo)
        for module_name, cls_name, attr, name, layer in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, tracer.wrap(original, name, layer,
                                           hooks.get(attr)))
            undo.append((cls, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        counters["stop_distinct_keys"] += len(stop_keys)
