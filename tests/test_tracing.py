"""Tracer tests: spans on an injected clock, counters, events, JSONL export."""

import json

import pytest

from repro.core.tracing import TRACE_SCHEMA_VERSION, Tracer


class FakeClock:
    """A controllable monotonic clock."""

    def __init__(self, start=100.0):
        self.time = start

    def __call__(self):
        return self.time

    def advance(self, seconds):
        self.time += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock=clock)


def test_span_measures_duration_on_the_injected_clock(tracer, clock):
    with tracer.span("work", family="cfu1") as span:
        clock.advance(2.5)
    assert len(tracer.spans) == 1
    assert tracer.spans[0].duration == 2.5
    assert tracer.spans[0].attrs == {"family": "cfu1"}
    assert span.start == 0.0  # relative to the tracer's epoch


def test_span_accepts_late_attributes(tracer, clock):
    with tracer.span("trial") as span:
        span.attrs["cache_hit"] = True
    assert tracer.spans[0].attrs["cache_hit"] is True


def test_span_recorded_even_when_body_raises(tracer, clock):
    with pytest.raises(ValueError):
        with tracer.span("boom"):
            clock.advance(1.0)
            raise ValueError("worker died")
    assert len(tracer.spans) == 1
    assert tracer.spans[0].duration == 1.0


def test_record_span_for_externally_timed_work(tracer, clock):
    clock.advance(10.0)
    span = tracer.record_span("trial", 3.0, family="none", fit=False)
    assert span.duration == 3.0
    assert span.start == 7.0  # ended "now", started duration ago
    assert tracer.spans == [span]


def test_record_span_clamp_preserves_duration(tracer, clock):
    """A duration longer than the clock's history used to be silently
    shortened; now the duration is kept, start clamps to 0, and the
    span is marked clamped."""
    clock.advance(2.0)
    span = tracer.record_span("long_trial", 5.0)
    assert span.duration == 5.0          # the measurement is the datum
    assert span.start == 0.0
    assert span.attrs["clamped"] is True
    # In-range spans are untouched and unmarked.
    clock.advance(10.0)
    ok = tracer.record_span("ok_trial", 3.0)
    assert ok.start == 9.0
    assert "clamped" not in ok.attrs


def test_counters_accumulate(tracer):
    tracer.count("cache_hit")
    tracer.count("cache_hit", 2)
    tracer.count("fit_reject")
    assert tracer.metrics.value("cache_hit") == 3
    assert tracer.metrics.value("fit_reject") == 1
    assert len(tracer.metrics) == 2


def test_events_carry_time_and_attrs(tracer, clock):
    clock.advance(4.0)
    tracer.event("progress", family="cfu2", completed=8, budget=30)
    assert tracer.events[0]["time"] == 4.0
    assert tracer.events[0]["family"] == "cfu2"
    assert tracer.events[0]["completed"] == 8


def test_records_interleave_spans_and_events_in_completion_order(tracer, clock):
    tracer.event("family_start", family="none")
    with tracer.span("trial"):
        clock.advance(1.0)
    tracer.event("family_done", family="none")
    records = tracer.records()
    assert records[0]["type"] == "trace"
    kinds = [(r["type"], r["name"]) for r in records[1:]]
    assert kinds == [("event", "family_start"), ("span", "trial"),
                     ("event", "family_done")]


def test_export_jsonl_round_trips(tracer, clock, tmp_path):
    tracer.event("family_start", family="cfu1")
    with tracer.span("trial", family="cfu1") as span:
        clock.advance(0.5)
        span.attrs["fit"] = True
    tracer.count("cache_miss")
    path = tmp_path / "trace.jsonl"
    count = tracer.export_jsonl(path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == count == 3
    records = [json.loads(line) for line in lines]
    assert records[0]["type"] == "trace"
    assert records[0]["schema"] == TRACE_SCHEMA_VERSION
    assert records[0]["counters"] == {"cache_miss": 1}
    span_records = [r for r in records if r["type"] == "span"]
    assert span_records[0]["family"] == "cfu1"
    assert span_records[0]["fit"] is True
    assert span_records[0]["duration"] == 0.5


def test_summary_reports_hit_rate_and_rejects(tracer):
    for _ in range(3):
        tracer.count("cache_hit")
    tracer.count("cache_miss")
    tracer.count("fit_reject", 2)
    text = tracer.summary()
    assert "3 hits / 1 misses" in text
    assert "75.0% hit rate" in text
    assert "fit rejects: 2" in text


def test_summary_with_no_lookups_does_not_divide_by_zero(tracer):
    assert "0.0% hit rate" in tracer.summary()
