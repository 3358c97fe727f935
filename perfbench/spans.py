"""Spans recorded from outside the engine.

The tracer replaces public functions and methods of the ``halloffame``
modules with wrappers that record one span per call: layer name, start and
end on the thread CPU clock (``thread_time_ns``), the index of the
enclosing span, and the ``seq`` of the update being replayed (None during
set-up). Spans stay in memory until ``write`` is called at the end of the
run. A target that no longer exists is listed in ``absent`` instead of
failing the run. While ``enabled`` is false the wrappers only pass calls
through, so a plain and a traced engine can replay the same updates side
by side.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

# (layer name, module, class or None, attribute)
TARGETS = (
    ("catalog.load_catalog", "halloffame.catalog", None, "load_catalog"),
    ("store.load_table", "halloffame.store", "Store", "load_table"),
    ("generator.generate_queries", "halloffame.generator", None, "generate_queries"),
    ("detector.engine_init", "halloffame.detector", "Engine", "__init__"),
    ("detector.build_selection_queries", "halloffame.detector", None, "build_selection_queries"),
    ("detector.detect", "halloffame.detector", "Engine", "detect"),
    ("detector.column_filter", "halloffame.detector", None, "column_filter"),
    ("detector.row_filter", "halloffame.detector", "Engine", "row_filter"),
    ("store.match_rows", "halloffame.store", "Store", "match_rows"),
    ("store.apply_update", "halloffame.store", "Store", "apply_update"),
    ("store.evaluate_family", "halloffame.store", "Store", "evaluate_family"),
    ("store.joined_rows", "halloffame.store", "Store", "joined_rows"),
    ("detector.build_ranking", "halloffame.detector", None, "build_ranking"),
    ("detector.diff_rankings", "halloffame.detector", None, "diff_rankings"),
    ("scorer.score_event", "halloffame.scorer", None, "score_event"),
)

# span fields
NAME, START, END, PARENT, SEQ, VALUE = range(6)


@dataclass
class LayerTotals:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0
    value: int = 0  # rows scanned for evaluate_family, cache hits for joined_rows


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    absent: list = field(default_factory=list)
    seq: int | None = None
    enabled: bool = True
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)
    _joined: dict = field(default_factory=dict)

    def install(self) -> None:
        for name, module, cls, attr in TARGETS:
            try:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            setattr(owner, attr, self._wrap(name, original))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def call(self, name: str, fn, *args):
        """Run fn(*args) inside a span of the benchmark's own."""
        return self._wrap(name, fn)(*args)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.thread_time_ns
        measure = _MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = [name, clock(), 0, stack[-1] if stack else -1, self.seq, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[END] = clock()
            if measure is not None:
                span[VALUE] = measure(self, args, kwargs, result)
            return result

        return wrapper

    def totals(self, during_updates: bool) -> dict[str, LayerTotals]:
        """Per layer: calls, self time, total time and measured value, over
        the spans of set-up (False) or of replayed updates (True)."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        out: dict[str, LayerTotals] = {}
        for i, span in enumerate(self.spans):
            if (span[SEQ] is not None) != during_updates:
                continue
            t = out.setdefault(span[NAME], LayerTotals())
            duration = span[END] - span[START]
            t.calls += 1
            t.total_ns += duration
            t.self_ns += duration - child_ns[i]
            t.value += span[VALUE]
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, seq, value in self.spans:
                doc = {"name": name, "start_ns": start, "end_ns": end, "parent": parent, "seq": seq}
                if value:
                    doc["value"] = value
                fh.write(json.dumps(doc) + "\n")


def _rows_scanned(tracer, args, kwargs, result) -> int:
    return getattr(result, "total_rows", 0)


def _join_cache_hit(tracer, args, kwargs, result) -> int:
    # A hit returns the very object the previous call with the same key
    # returned; a rebuild returns a new one.
    needed = kwargs.get("needed", args[1] if len(args) > 1 else None)
    path = kwargs.get("path", args[2] if len(args) > 2 else None)
    if not isinstance(needed, (set, frozenset, tuple, list)) or path is None:
        return 0
    key = (tuple(path), frozenset(needed))
    hit = tracer._joined.get(key) is result
    tracer._joined[key] = result
    return int(hit)


_MEASURES = {
    "store.evaluate_family": _rows_scanned,
    "store.joined_rows": _join_cache_hit,
}
