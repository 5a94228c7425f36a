"""Shared BENCH_*.json bookkeeping for the benchmark suite.

Several benchmarks share one JSON file (e.g. ``BENCH_rtl.json``,
``BENCH_dse.json``), each owning a subset of its top-level keys.  Two
merge disciplines keep them from clobbering each other:

- :func:`merge_preserve` — write ``payload`` as the new document but
  keep any existing top-level keys it does not define (setdefault
  semantics; the caller owns every key it names).
- :func:`merge_bench_section` — replace exactly one top-level section,
  leaving everything else untouched.
- :func:`merge_section_keys` — update some keys of one section, for
  benchmarks that share a section (``batched`` in ``BENCH_rtl.json``).
"""

import importlib.util
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write(path, document):
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return document


def merge_preserve(path, payload):
    """Write ``payload`` to ``path``, preserving top-level keys owned by
    other benchmarks (existing keys the payload does not define)."""
    if os.path.exists(path):
        with open(path) as handle:
            previous = json.load(handle)
        for key, value in previous.items():
            payload.setdefault(key, value)
    return _write(path, payload)


def merge_bench_section(path, section, payload):
    """Update the ``section`` key of ``path`` without clobbering the
    rest of the document."""
    existing = {}
    if os.path.exists(path):
        with open(path) as handle:
            existing = json.load(handle)
    existing[section] = payload
    return _write(path, existing)


def merge_section_keys(path, section, payload):
    """Update the keys ``payload`` names inside ``section``, keeping the
    section's other keys and the rest of the document."""
    existing = {}
    if os.path.exists(path):
        with open(path) as handle:
            existing = json.load(handle)
    existing.setdefault(section, {}).update(payload)
    return _write(path, existing)


def provenance():
    """Commit, host and toolchain of a measurement: the header
    ``perfbench/run.py`` prints, plus the NumPy version."""
    import numpy

    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(ROOT, "perfbench", "run.py"))
    run = importlib.util.module_from_spec(spec)
    path = list(sys.path)
    try:
        spec.loader.exec_module(run)  # puts perfbench/ on sys.path
    finally:
        sys.path[:] = path
    return dict(run.provenance(), numpy=numpy.__version__)
