"""In-memory span tracing for the benchmark, installed from outside the program.

Spans live on a context-variable stack (the idiom ``repro.core.deadline``
uses for request deadlines): each span records its name, start, end, parent
and request id, so one worker thread's spans never nest under another's.
:meth:`Tracer.install` wraps the public entry points of every layer --
engine phases, the streaming spill and boundary pass, the shard store, the
publication store -- so the program itself carries no tracing code.  Spans
stay in memory until :meth:`Tracer.dump` writes them out; a layer's self time
is its span durations minus the part covered by child spans.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass
from typing import Optional

_current: ContextVar = ContextVar("perfbench_span", default=None)


@dataclass
class Span:
    """One timed call: ``parent`` is the index of the enclosing span."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]
    index: int
    op: Optional[str] = None


class Tracer:
    """Collects spans and counters; ``install`` patches the layers to emit them."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._patched: list = []

    @contextmanager
    def span(self, name: str, request: Optional[str] = None, op: Optional[str] = None):
        """Time the block as a child of the current span."""
        parent = _current.get()
        if request is None and parent is not None:
            request = parent.request
        with self._lock:
            span = Span(
                name, time.perf_counter(), 0.0,
                parent.index if parent is not None else None,
                request, len(self.spans), op,
            )
            self.spans.append(span)
        token = _current.set(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            _current.reset(token)

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a named counter."""
        with self._lock:
            self.counts[name] += amount

    def wrap(self, owner, attr: str, name: str, after=None, op=None) -> None:
        """Replace ``owner.attr`` (class or module) by a spanned call.

        ``after(result, args)`` records counters from the call's outcome;
        ``op(args, kwargs)`` labels the span (the query op name).
        """
        original = vars(owner)[attr]
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name, op=op(args, kwargs) if op else None):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> "Tracer":
        """Wrap every layer's public entry points (undone by :meth:`uninstall`)."""
        from repro.core import engine
        from repro.pubstore import PublicationStore, QueryEngine
        from repro.stream import executor, store

        for phase in ("Horizontal", "Vertical", "Refine", "Verify"):
            cls = getattr(engine, f"{phase}Phase")
            self.wrap(cls, "run", f"core.{phase.lower()}")

        def anonymized(result, args):
            report = args[0].last_report
            counters = report.counters()
            self.count("core.anonymize.calls")
            self.count("core.refine.merges_attempted", counters["refine_merges_attempted"])
            self.count("core.refine.merges_applied", counters["refine_merges_applied"])
            self.count("core.clusters", report.num_clusters)

        self.wrap(engine.Disassociator, "anonymize", "core.anonymize", after=anonymized)

        # The spill writes each full buffer with append_jsonl; the count it
        # returns is the number of records spilled.
        self.wrap(executor, "append_jsonl", "stream.spill",
                  after=lambda written, args: self.count("stream.spill.records", written))

        def repaired(result, args):
            self.count("stream.boundary.demotions", result[1].total_demoted())

        for module in (executor, store):
            self.wrap(module, "verify_and_repair", "stream.boundary", after=repaired)

        def mutated(result, args):
            self.count("stream.store.bytes_written",
                       sum(len(store.record_text(record)) for record in args[1]))

        self.wrap(store.ShardStore, "apply_delta", "stream.store.mutate", after=mutated)
        self.wrap(store.ShardStore, "put_window", "stream.store.window_write",
                  after=lambda _, args: self.count("stream.store.bytes_written", len(args[5])))
        self.wrap(store.ShardStore, "put_publication", "stream.store.publication_write",
                  after=lambda _, args: self.count("stream.store.bytes_written", len(args[2])))
        self.wrap(PublicationStore, "build", "pubstore.build",
                  after=lambda _, args: self.count("pubstore.build.calls"))
        self.wrap(QueryEngine, "execute", "pubstore.query",
                  op=lambda args, kwargs: str(args[1] if len(args) > 1 else kwargs["op"]))
        return self

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path, extra: Optional[dict] = None) -> None:
        """Write spans, counters and ``extra`` as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": [asdict(span) for span in self.spans],
                    "counts": dict(self.counts),
                    **(extra or {}),
                },
                handle,
            )

    @staticmethod
    def load(path) -> tuple:
        """Read a :meth:`dump` back as ``(spans, counts)``."""
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
        return [Span(**span) for span in document["spans"]], Counter(document["counts"])


def self_seconds(spans: list) -> Counter:
    """Self time per span name: durations minus the durations of child spans."""
    totals: Counter = Counter()
    by_index = {span.index: span for span in spans}
    for span in spans:
        duration = span.end - span.start
        totals[span.name] += duration
        parent = by_index.get(span.parent)
        if parent is not None:
            totals[parent.name] -= duration
    return totals
