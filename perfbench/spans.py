"""In-memory span recorder for the benchmark's traced runs.

A span is ``[name, tag, start, end, parent]``: ``parent`` is the index
of the span that was open on the same thread when this one started
(``-1`` for a root).  Spans are recorded from the benchmark's own
files only, by opening them around the calls the benchmark makes and
by wrapping the module attributes that the program's callers resolve
at call time (for example ``repro.core.pipeline.transpile``), so
nothing inside ``src/`` changes.  Everything stays in memory until
:meth:`Tracer.dump` writes it out at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
import types
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """Collects spans; ``enabled=False`` makes every span a no-op."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[tuple] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def _record(self, name: str, tag: Optional[str]):
        stack = self._stack()
        record = [name, tag, time.perf_counter(), 0.0,
                  stack[-1] if stack else -1]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        stack.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            stack.pop()

    def span(self, name: str, tag: Optional[str] = None):
        """Context manager timing one call into a layer."""
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name, tag)

    # -- wrapping the names callers resolve ----------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a function that records a span.

        For a class the raw function from its ``__dict__`` is wrapped,
        so the replacement binds as a method exactly like the original.
        *on_result* sees each return value (used for counters carried
        on results, such as transpile pass timings).
        """
        original = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self._record(name, None):
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------
    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``self_s``, ``total_s`` and ``calls``.

        Self time is the span's duration minus the durations of its
        direct children, so the self times of all spans under a root
        add up to the root's duration.
        """
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"self_s": 0.0, "total_s": 0.0, "calls": 0}
        )
        for index, (name, _, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["self_s"] += end - start - child_time[index]
            entry["total_s"] += end - start
            entry["calls"] += 1
        return dict(out)

    def tagged_totals(self, name: str) -> Dict[str, List[float]]:
        """Durations of the spans called *name*, grouped by tag."""
        out: Dict[str, List[float]] = defaultdict(list)
        for span_name, tag, start, end, _ in self.spans:
            if span_name == name:
                out[tag].append(end - start)
        return dict(out)

    def dump(self, path: Path, summary: Dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["name", "tag", "start", "end", "parent"],
            "spans": self.spans,
            "summary": summary,
        }
        path.write_text(json.dumps(payload))


def wrapper_overhead_s(calls: int = 5000, repeats: int = 5) -> float:
    """Extra seconds one traced call costs over an untraced one.

    Measured here, on a no-op function wrapped exactly as the layer
    entry points are; the best of *repeats* rounds is kept for both
    sides so a scheduler hiccup does not inflate the figure.
    """
    holder = types.SimpleNamespace(call=lambda: None)

    def best_round() -> float:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                holder.call()
            best = min(best, time.perf_counter() - start)
        return best

    plain = best_round()
    tracer = Tracer()
    tracer.wrap(holder, "call", "calibration")
    try:
        traced = best_round()
    finally:
        tracer.unwrap_all()
    return max(traced - plain, 0.0) / calls
