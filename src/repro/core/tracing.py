"""Run observability: trial spans, counters, progress events, JSONL export.

Long-running loops (the Fig. 7 DSE engine, the Playground
deploy-profile-optimize cycle) record what happened into a
:class:`Tracer`:

- **spans** — named, attribute-tagged durations on a monotonic clock
  (wall-clock changes cannot corrupt timings);
- **counters** — monotonic named tallies (``cache_hit``, ``fit_reject``,
  ...) in the tracer's :class:`~repro.core.metrics.MetricsRegistry`;
- **events** — point-in-time progress markers (per-family study
  progress, study start/end).

A trace exports as JSON Lines (one record per line, header first) for
machine consumption, and as a short human summary via :meth:`Tracer.summary`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .metrics import MetricsRegistry

TRACE_SCHEMA_VERSION = 1


@dataclass
class Span:
    """One timed region; ``attrs`` may be filled in while it is open."""

    name: str
    start: float                      # seconds since the tracer's epoch
    duration: float = 0.0
    attrs: dict = field(default_factory=dict)

    def record(self):
        record = {"type": "span", "name": self.name,
                  "start": round(self.start, 9),
                  "duration": round(self.duration, 9)}
        record.update(self.attrs)
        return record


class Tracer:
    """Collects spans and events for one run; counters go to ``metrics``.

    ``clock`` is injectable for tests; it must be monotonic.  All
    recorded times are relative to the tracer's construction instant.
    """

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self._epoch = clock()
        self.spans = []
        self.events = []
        self.metrics = MetricsRegistry()
        self._records = []            # spans + events in completion order

    # --- recording --------------------------------------------------------------
    def now(self):
        """Seconds since the tracer's epoch (monotonic)."""
        return self._clock() - self._epoch

    @contextmanager
    def span(self, name, **attrs):
        """Time a region: ``with tracer.span("trial", family=f) as s: ...``.

        The yielded :class:`Span` accepts late attributes
        (``s.attrs["cache_hit"] = True``) until the block exits.
        """
        span = Span(name=name, start=self.now(), attrs=dict(attrs))
        try:
            yield span
        finally:
            span.duration = self.now() - span.start
            self._finish(span)

    def record_span(self, name, duration, **attrs):
        """Record an externally-timed span (e.g. measured in a worker
        process) as ending now.

        A worker-measured duration can exceed this tracer's lifetime
        (the work started before the tracer's epoch).  The start is
        floored at the epoch, but the true duration is preserved and the
        record is marked ``clamped`` so consumers can tell the start
        time is approximate rather than silently mis-dated.
        """
        start = self.now() - duration
        span = Span(name=name, start=max(0.0, start),
                    duration=duration, attrs=dict(attrs))
        if start < 0.0:
            span.attrs["clamped"] = True
        self._finish(span)
        return span

    def _finish(self, span):
        self.spans.append(span)
        self._records.append(span.record())

    def count(self, name, amount=1):
        return self.metrics.counter(name).add(amount)

    def event(self, name, **attrs):
        record = {"type": "event", "name": name, "time": round(self.now(), 9)}
        record.update(attrs)
        self.events.append(record)
        self._records.append(record)
        return record

    # --- export -----------------------------------------------------------------
    def header(self):
        return {"type": "trace", "schema": TRACE_SCHEMA_VERSION,
                "spans": len(self.spans), "events": len(self.events),
                "counters": {s.name: s.value for s in self.metrics.series()}}

    def records(self):
        """Header + every span/event record, in completion order."""
        return [self.header()] + list(self._records)

    def export_jsonl(self, path):
        """Write the trace as JSON Lines; returns the record count."""
        records = self.records()
        with open(path, "w") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)

    # --- human summary ----------------------------------------------------------
    def summary(self):
        counters = self.header()["counters"]
        hits, misses = (counters.get(name, 0)
                        for name in ("cache_hit", "cache_miss"))
        rate = 100.0 * hits / max(hits + misses, 1)
        lines = [
            f"trace: {len(self.spans)} spans, {len(self.events)} events",
            f"cache: {hits} hits / {misses} misses "
            f"({rate:.1f}% hit rate)",
            f"fit rejects: {counters.get('fit_reject', 0)}",
        ]
        lines += [f"{name}: {value}" for name, value in counters.items()
                  if name not in ("cache_hit", "cache_miss", "fit_reject")]
        busy = sum(s.duration for s in self.spans)
        lines.append(f"span time: {busy:.3f}s over {self.now():.3f}s elapsed")
        return "\n".join(lines)
