"""In-memory spans around the public entry points of each ``repro`` layer.

Nothing here edits ``src/``: :func:`install` swaps class attributes and
module globals for timing wrappers and returns a callable that puts the
originals back.  Spans are kept in memory and written out as JSONL by
:meth:`Tracer.write` when the run ends.

Each span records its name, layer, thread, start, end, parent span and
trace id (one per benchmark round), plus the summed duration of its
direct children, so a layer's self time is ``duration - child_s``
summed over the layer's spans.  A request crosses threads (client to
server) without carrying an id, so :meth:`Tracer.link_remote` adopts
each top-level span of a server thread into the client request whose
interval contains it, matching routes where the server span has one.

Entry points hit once per CFU op (``RtlCfuAdapter.execute``,
``CfuModel.execute``) are aggregated into a count and a total instead
of one span each; they have no traced children, so their whole
duration is self time.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import threading
import time
from collections import defaultdict

from catalog import BATCH_LANES, DSE_ROUTES, LAYERS, PER_LAYER, SESSION_ROUTES


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = defaultdict(lambda: [0, 0.0])   # name -> [count, s]
        self.hot_self = defaultdict(float)           # layer -> seconds
        self.counts = defaultdict(int)
        self.failures = defaultdict(int)             # layer -> exceptions
        self.trace_id = 0
        #: Cleared when the traced phase ends.  Code that captured a
        #: wrapper while tracing (the ISA translator binds the CFU's
        #: ``execute`` into generated blocks) keeps calling it after
        #: ``uninstall()``; those calls then pass straight through.
        self.active = True
        self.server_threads = set()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name, value=1):
        with self._lock:
            self.counts[name] += value

    def call(self, name, layer, fn, args, kwargs, after=None, route=None):
        """Run ``fn`` inside a span; ``after(span, result)`` may attach
        counts once it returns."""
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = {"id": next(self._ids), "trace": self.trace_id,
                "parent": parent["id"] if parent else None, "name": name,
                "layer": layer, "thread": threading.get_ident(),
                "child_s": 0.0}
        if route is not None:
            span["route"] = route
        stack.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            with self._lock:
                self.failures[layer] += 1
            raise
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent["child_s"] += span["end"] - span["start"]
            self.spans.append(span)
        if after is not None:
            after(span, result)
        return result

    def hot(self, name, layer, fn, args, kwargs):
        """Aggregate-only timing for a leaf entry point hit per CFU op."""
        if not self.active:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            with self._lock:
                self.failures[layer] += 1
            raise
        finally:
            elapsed = time.perf_counter() - start
            stack = self._stack()
            if stack:
                stack[-1]["child_s"] += elapsed
            with self._lock:
                entry = self.calls[name]
                entry[0] += 1
                entry[1] += elapsed
                self.hot_self[layer] += elapsed

    def link_remote(self, client_prefixes):
        """Parent each top-level server-thread span on the client request
        span (another thread, name starting with one of
        ``client_prefixes``) that contains it, innermost first."""
        prefixes = tuple(client_prefixes)
        clients = sorted((s for s in self.spans
                          if s["name"].startswith(prefixes)),
                         key=lambda s: s["start"])
        starts = [c["start"] for c in clients]
        for span in self.spans:
            if (span["parent"] is not None
                    or span["thread"] not in self.server_threads):
                continue
            route = span.get("route")
            for index in range(bisect.bisect_right(starts, span["start"]) - 1,
                               -1, -1):
                client = clients[index]
                if (client["thread"] != span["thread"]
                        and client["end"] >= span["end"]
                        and (route is None
                             or client["name"].rsplit(".", 1)[1] == route)):
                    span["parent"] = client["id"]
                    client["child_s"] += span["end"] - span["start"]
                    break

    # --- summaries ----------------------------------------------------------------
    def seconds(self, name):
        """Total seconds of spans (or hot calls) called ``name``, or
        whose name starts with ``name`` when it ends in a dot."""
        if name in self.calls:
            return self.calls[name][1]
        if name.endswith("."):
            return sum(s["end"] - s["start"] for s in self.spans
                       if s["name"].startswith(name))
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def span_count(self, name):
        if name in self.calls:
            return self.calls[name][0]
        return sum(1 for s in self.spans if s["name"] == name)

    def self_seconds(self, name=None, layer=None):
        """Self time of the spans matching ``name`` and/or ``layer``."""
        total = sum(s["end"] - s["start"] - s["child_s"] for s in self.spans
                    if (name is None or s["name"] == name)
                    and (layer is None or s["layer"] == layer))
        if name is None and layer is not None:
            total += self.hot_self.get(layer, 0.0)
        return total

    def write(self, path):
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")
            for name, (count, seconds) in sorted(self.calls.items()):
                handle.write(json.dumps({"aggregate": name, "count": count,
                                         "seconds": seconds}) + "\n")


# --- installation -------------------------------------------------------------------


def _patch(undo, owner, attr, wrapper_factory):
    """Replace ``owner.attr`` (a class or module attribute defined on
    ``owner`` itself) by ``wrapper_factory(original)``."""
    original = owner.__dict__[attr]
    wrapped = wrapper_factory(original)
    functools.update_wrapper(wrapped, original)
    setattr(owner, attr, wrapped)
    undo.append((owner, attr, original))


def _span(tracer, name, layer, after=None):
    def factory(original):
        def wrapper(*args, **kwargs):
            return tracer.call(name, layer, original, args, kwargs, after)
        return wrapper
    return factory


def _hot(tracer, name, layer):
    def factory(original):
        def wrapper(*args, **kwargs):
            return tracer.hot(name, layer, original, args, kwargs)
        return wrapper
    return factory


def _dse_route(method, path):
    parts = [p for p in path.split("?")[0].split("/") if p]
    if parts == ["studies"]:
        return "create" if method == "POST" else "list"
    if parts == ["work"]:
        return "work"
    if len(parts) == 3 and parts[0] == "studies":
        return "status"
    if parts[-1:] == ["complete"]:
        return "complete"
    return parts[-1] if parts else "root"


def _session_route(method, path):
    parts = [p for p in path.split("?")[0].split("/") if p]
    if parts == ["sessions"]:
        return "create" if method == "POST" else "list"
    if len(parts) == 2:
        return {"GET": "status", "DELETE": "delete"}.get(method, "session")
    return parts[-1] if parts else "root"


def install(tracer):
    """Wrap every traced entry point; returns ``uninstall()``."""
    import repro.core.simprofile as simprofile
    import repro.cpu as cpu_pkg
    import repro.cpu.assembler as assembler
    import repro.dse.exhaustive as exhaustive
    import repro.dse.runner as runner
    import repro.emu.renode as renode
    import repro.rtl.batched as batched
    import repro.rtl.compile as rtl_compile
    from repro.accel.kws.model import KwsCfu
    from repro.cfu.interface import CfuModel
    from repro.cfu.rtl import BatchRtlCfuDriver, RtlCfuAdapter
    from repro.cpu.profiler import MachineProfiler
    from repro.dse.exhaustive import ExhaustiveSweeper
    from repro.dse.runner import Fig7Evaluator
    from repro.dse.service import (
        DseHttpServer,
        DseService,
        ServiceStudy,
        ServiceThread,
    )
    from repro.dse.store import StudyStore
    from repro.dse.study import Study
    from repro.dse.worker import ServiceClient
    from repro.emu.renode import Emulator
    from repro.emu.sessions import Session, SessionClient, SessionServerThread

    undo = []
    t = tracer

    # perf
    _patch(undo, runner, "evaluate_design", _span(t, "perf.estimate", "perf"))
    _patch(undo, ExhaustiveSweeper, "family_plane",
           _span(t, "perf.vectorized.plane", "perf"))

    # dse
    _patch(undo, exhaustive, "pareto_front_indices",
           _span(t, "dse.exhaustive.front", "dse"))
    _patch(undo, Study, "suggest", _span(t, "dse.study.suggest", "dse"))

    def count_hits(span, outcomes):
        t.count("dse.evaluator.evaluations", len(outcomes))
        t.count("dse.evaluator.hits", sum(o.cache_hit for o in outcomes))

    _patch(undo, Fig7Evaluator, "evaluate_batch",
           _span(t, "dse.evaluator.evaluate_batch", "dse", count_hits))
    _patch(undo, DseService, "work", _span(t, "dse.service.work", "dse"))
    _patch(undo, ServiceStudy, "complete",
           _span(t, "dse.service.complete", "dse"))
    _patch(undo, ServiceStudy, "status", _span(t, "dse.service.status", "dse"))
    _patch(undo, StudyStore, "write_trial",
           _span(t, "dse.store.write", "dse",
                 lambda span, result: t.count("dse.store.writes")))

    def client_request(original):
        def wrapper(self, method, path, payload=None):
            retries = self.retries
            route = _dse_route(method, path)
            try:
                return t.call(f"dse.worker.request.{route}", "dse", original,
                              (self, method, path, payload), {})
            finally:
                t.count("dse.worker.retries", self.retries - retries)
        return wrapper

    _patch(undo, ServiceClient, "request", client_request)

    def server_route(original):
        # The route table hands back the synchronous handler the server
        # runs for one request; timing it gives server-side handler time.
        def wrapper(self, method, parts):
            route, handler = original(self, method, parts)
            if handler is None:
                return route, handler

            def timed(*args, **kwargs):
                return t.call(f"dse.server.handler.{route}", "dse", handler,
                              args, kwargs, route=route)
            return route, timed
        return wrapper

    _patch(undo, DseHttpServer, "_route", server_route)

    def server_thread(original):
        def wrapper(self):
            t.server_threads.add(threading.get_ident())
            return original(self)
        return wrapper

    _patch(undo, ServiceThread, "_run", server_thread)
    _patch(undo, SessionServerThread, "_run", server_thread)

    # emu
    _patch(undo, Emulator, "__init__",
           _span(t, "emu.build", "emu",
                 lambda span, result: t.count("emu.builds")))
    _patch(undo, Emulator, "restore",
           _span(t, "emu.restore", "emu",
                 lambda span, pages: t.count("emu.pages_restored", pages)))
    _patch(undo, Emulator, "snapshot", _span(t, "emu.snapshot", "emu"))

    def session_request(original):
        def wrapper(self, method, path, payload=None):
            route = _session_route(method, path)
            return t.call(f"emu.sessions.request.{route}", "emu", original,
                          (self, method, path, payload), {})
        return wrapper

    _patch(undo, SessionClient, "request", session_request)
    _patch(undo, Session, "run", _span(t, "emu.sessions.run", "emu"))

    # core
    _patch(undo, simprofile, "simulate_profile",
           _span(t, "core.simprofile", "core"))

    # cpu
    for module in (assembler, cpu_pkg, renode, simprofile):
        _patch(undo, module, "assemble", _span(t, "cpu.assemble", "cpu"))

    def machine_run(original):
        def wrapper(self, *args, **kwargs):
            machine = self.machine
            before = (machine.instret, machine.block_promotions,
                      machine.block_invalidation_count,
                      machine.decode_cache_entries)
            try:
                return t.call("cpu.run", "cpu", original, (self,) + args,
                              kwargs)
            finally:
                t.count("cpu.instructions", machine.instret - before[0])
                t.count("cpu.blocks_promoted",
                        machine.block_promotions - before[1])
                t.count("cpu.block_invalidations",
                        machine.block_invalidation_count - before[2])
                t.count("cpu.decode_entries",
                        machine.decode_cache_entries - before[3])
        return wrapper

    _patch(undo, MachineProfiler, "run", machine_run)
    _patch(undo, Emulator, "run", machine_run)

    # cfu
    _patch(undo, RtlCfuAdapter, "execute", _hot(t, "cfu.rtl.execute", "cfu"))
    _patch(undo, CfuModel, "execute", _hot(t, "cfu.model", "cfu"))
    _patch(undo, KwsCfu, "execute", _hot(t, "cfu.model", "cfu"))

    def batch_run(original):
        def wrapper(self, sequences):
            lanes = self.lanes
            t.count(f"cfu.batched.runs.{lanes}")
            t.count(f"cfu.batched.lane_parallel.{lanes}",
                    int(self.backend == "batched"))
            return t.call(f"cfu.batched.run.{lanes}", "cfu", original,
                          (self, sequences), {})
        return wrapper

    _patch(undo, BatchRtlCfuDriver, "run", batch_run)

    # rtl
    _patch(undo, rtl_compile, "compile_module",
           _span(t, "rtl.compile", "rtl"))
    _patch(undo, batched, "compile_module_batched",
           _span(t, "rtl.compile", "rtl"))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return uninstall


def layer_metrics(tracer):
    """Every per-layer metric of the catalogue from the traced phase,
    as ``{name: value}``; ``trace.overhead_ms`` is left for the caller,
    which knows the untraced rounds."""
    from repro.core.codecache import default_cache

    t = tracer
    t.link_remote(("dse.worker.request.", "emu.sessions.request."))
    evaluations = t.counts.get("dse.evaluator.evaluations", 0)
    run_s = t.seconds("cpu.run")
    stats = default_cache().stats
    values = {
        "perf.estimate_calls": t.span_count("perf.estimate"),
        "perf.estimate_s": t.seconds("perf.estimate"),
        "perf.vectorized.plane_s": t.seconds("perf.vectorized.plane"),
        "dse.exhaustive.front_s": t.seconds("dse.exhaustive.front"),
        "dse.study.suggest_s": t.seconds("dse.study.suggest"),
        "dse.evaluator.hit_ratio": (
            t.counts.get("dse.evaluator.hits", 0) / evaluations
            if evaluations else 0.0),
        "dse.service.work_s": t.seconds("dse.service.work"),
        "dse.service.complete_s": t.seconds("dse.service.complete"),
        "dse.service.status_s": t.seconds("dse.service.status"),
        "dse.store.writes": t.counts.get("dse.store.writes", 0),
        "dse.store.write_s": t.seconds("dse.store.write"),
        "dse.worker.retries": t.counts.get("dse.worker.retries", 0),
        "dse.wire_s": (t.seconds("dse.worker.request.")
                       - t.seconds("dse.server.handler.")),
        "emu.build_s": t.seconds("emu.build"),
        "emu.builds": t.counts.get("emu.builds", 0),
        "emu.restore_s": t.seconds("emu.restore"),
        "emu.pages_restored": t.counts.get("emu.pages_restored", 0),
        "emu.snapshot_s": t.seconds("emu.snapshot"),
        "emu.sessions.run_s": t.seconds("emu.sessions.run"),
        "core.simprofile.self_s": t.self_seconds(name="core.simprofile"),
        "core.codecache.hits": stats.hits,
        "core.codecache.misses": stats.misses,
        "cpu.assemble_s": t.seconds("cpu.assemble"),
        "cpu.run_s": run_s,
        "cpu.instructions": t.counts.get("cpu.instructions", 0),
        "cpu.ips": (t.counts.get("cpu.instructions", 0) / run_s
                    if run_s else 0.0),
        "cpu.blocks_promoted": t.counts.get("cpu.blocks_promoted", 0),
        "cpu.block_invalidations": t.counts.get("cpu.block_invalidations",
                                                0),
        "cpu.decode_entries": t.counts.get("cpu.decode_entries", 0),
        "cfu.rtl.ops": t.span_count("cfu.rtl.execute"),
        "cfu.rtl.execute_s": t.seconds("cfu.rtl.execute"),
        "cfu.model_s": t.seconds("cfu.model"),
        "rtl.compile_s": t.seconds("rtl.compile"),
        "trace.spans": len(t.spans) + sum(c for c, _ in t.calls.values()),
    }
    for route in DSE_ROUTES:
        values[f"dse.worker.request_s.{route}"] = t.seconds(
            f"dse.worker.request.{route}")
    for route in SESSION_ROUTES:
        values[f"emu.sessions.request_s.{route}"] = t.seconds(
            f"emu.sessions.request.{route}")
    for lanes in BATCH_LANES:
        runs = t.counts.get(f"cfu.batched.runs.{lanes}", 0)
        values[f"cfu.batched.run_s.{lanes}"] = t.seconds(
            f"cfu.batched.run.{lanes}")
        values[f"cfu.batched.backend.{lanes}"] = (
            t.counts.get(f"cfu.batched.lane_parallel.{lanes}", 0) / runs
            if runs else 0.0)
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = t.self_seconds(layer=layer)
        values[f"layer.{layer}.failures"] = t.failures.get(layer, 0)
    return values
