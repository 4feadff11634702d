"""Spans around calls into the program's layers, recorded from outside it.

``Tracer.installed()`` replaces the public functions of ``engine``,
``measure``, ``oracle`` and ``words`` (and the ``render`` names that
``engine`` and ``cli`` imported) by wrappers that record one span per call,
and puts the originals back on exit, so untraced passes run the program
unchanged.  Spans live in memory until the run ends.  All wrapped calls run
on the main thread: ``oracle.sample`` starts its worker threads below the
wrapped boundary.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import statistics
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Any

from ifsquant import cli, engine, measure, oracle, words


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    op_id: int
    name: str
    start: float
    end: float
    note: Any = None  # enumerate n, Lloyd iterations, or the operation name

    @property
    def duration(self) -> float:
        return self.end - self.start


def _first_arg(args, result):
    return args[0]


def _iterations(args, result):
    return result.iterations


# (owner, attribute, span name, note taken from the call)
TARGETS = [
    (engine, "optimal_set", "engine.optimal_set", None),
    (engine.GenerationState, "quantizer", "engine.quantizer", None),
    (engine.GenerationState, "peek", "engine.peek", None),
    (engine.GenerationState, "split", "engine.split", None),
    (engine, "quantizer_set_to_dict", "engine.to_dict", None),
    (engine, "validate_structure", "engine.validate_structure", None),
    (engine, "enumerate_optimal_sets", "engine.enumerate", _first_arg),
    (engine, "children", "engine.children", None),
    (engine, "transition_graph", "engine.transition_graph", None),
    (engine, "count_optimal_sets", "engine.count_optimal_sets", None),
    (measure, "node_error", "measure.node_error", None),
    (oracle, "sample", "oracle.sample", None),
    (oracle, "lloyd", "oracle.lloyd", _iterations),
    (oracle, "kmeans_1d_exact", "oracle.kmeans_1d_exact", None),
    (oracle, "mc_distortion", "oracle.mc_distortion", None),
    (oracle, "mc_distortion_stats", "oracle.mc_distortion", None),
    (oracle, "exhaustive_min", "oracle.exhaustive_min", None),
    (words, "render", "words.render", None),
    (engine, "render", "words.render", None),
    (cli, "render", "words.render", None),
]


class Tracer:
    """Records spans (name, start, end, parent span, operation id)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._op_id = -1

    def _wrap(self, original, name, note):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            stack.append(span_id)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            spans.append(Span(span_id, parent, self._op_id, name, start, end,
                              note(args, result) if note else None))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, note in TARGETS:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, note))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def operation(self, name: str, is_cli: bool, run):
        """Run one operation as the root span of a new operation id."""
        self._op_id += 1
        kind = "cli.main" if is_cli else "library"
        return self._wrap(run, kind, lambda args, result: name)()

    def write(self, path) -> None:
        with gzip.open(path, "wt", compresslevel=1) as out:
            for s in self.spans:
                out.write(json.dumps([s.span_id, s.parent, s.op_id, s.name,
                                      s.start, s.end, s.note]) + "\n")


@functools.cache
def useful_sets(n: int) -> int:
    """Distinct sets in layers 2 .. n of the breadth-first enumeration."""
    return sum(engine.count_optimal_sets(k) for k in range(2, n + 1))


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``<name>_s`` is the time inside calls of that name, ``<name>_calls`` the
    number of calls, and self times exclude the spans directly beneath.
    Call it with the tracer uninstalled.
    """
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    total = defaultdict(float)
    calls = defaultdict(int)
    own = defaultdict(float)
    for s in spans:
        total[s.name] += s.duration
        calls[s.name] += 1
        own[s.name] += s.duration - covered[s.span_id]

    op_names = {s.op_id: s.note for s in spans if s.name in ("cli.main", "library")}
    sample_s = defaultdict(float)
    for s in spans:
        if s.name == "oracle.sample":
            sample_s[op_names[s.op_id]] += s.duration
    t1, t2 = sample_s["sample_t1"], sample_s["sample_t2"]

    enumerate_ids = {s.span_id for s in spans if s.name == "engine.enumerate"}
    useful = sum(useful_sets(s.note) for s in spans if s.name == "engine.enumerate")
    attempts = sum(1 for s in spans
                   if s.name == "engine.children" and s.parent in enumerate_ids)

    return {
        "engine.split_loop_s": own["engine.optimal_set"],
        "engine.quantizer_s": total["engine.quantizer"],
        "engine.to_dict_s": total["engine.to_dict"],
        "engine.peek_calls": calls["engine.peek"],
        "engine.peek_s": total["engine.peek"],
        "engine.split_calls": calls["engine.split"],
        "engine.split_s": total["engine.split"],
        "engine.validate_structure_s": total["engine.validate_structure"],
        "engine.enumerate_calls": calls["engine.enumerate"],
        "engine.enumerate_s": total["engine.enumerate"],
        "engine.children_calls": calls["engine.children"],
        "engine.enumerate_useful_ratio": useful / attempts if attempts else 0.0,
        "engine.transition_graph_s": total["engine.transition_graph"],
        "engine.count_optimal_sets_s": total["engine.count_optimal_sets"],
        "measure.node_error_calls": calls["measure.node_error"],
        "measure.node_error_s": total["measure.node_error"],
        "oracle.sample_t1_s": t1,
        "oracle.sample_t2_s": t2,
        "oracle.sample_scaling_eff": t1 / (2 * t2) if t2 else 0.0,
        "oracle.kmeans_1d_exact_s": total["oracle.kmeans_1d_exact"],
        "oracle.lloyd_s": total["oracle.lloyd"],
        "oracle.lloyd_iterations": sum(s.note for s in spans if s.name == "oracle.lloyd"),
        "oracle.mc_distortion_s": total["oracle.mc_distortion"],
        "oracle.exhaustive_min_calls": calls["oracle.exhaustive_min"],
        "oracle.exhaustive_min_s": total["oracle.exhaustive_min"],
        "words.render_calls": calls["words.render"],
        "words.render_s": total["words.render"],
        "cli.self_s": own["cli.main"],
        "trace.spans": len(spans),
    }


def validate_constants_s(repeats: int = 5) -> float:
    """Median time of ``measure.validate_constants``, which import runs."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        measure.validate_constants()
        times.append(perf_counter() - start)
    return statistics.median(times)
