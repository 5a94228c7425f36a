"""The benchmark's metric catalogue: names, units, and what each should move.

Pure data, importable without NumPy or ``repro``, so the orchestrator,
the worker and the self-test all read one list.  ``BENCHMARK.json`` at
the repository root must name exactly these metrics; the self-test
checks that it does.
"""

WORKLOADS = {
    "profile-mnv2": (
        "back-to-back simulate_profile(mnv2_first, budget=400k): ISA-tier "
        "bound, about 2.07M simulated instructions per call; no wire, RTL "
        "or DSE"),
    "dse-fig7": (
        "exhaustive 93,312-point sweep and the Fig-7 studies (120 "
        "trials/family) in-process, then once over the wire: analytic + "
        "wire + store, no ISA work"),
    "session-bringup": (
        "a SessionClient laps 2 model and 2 RTL KWS-CFU2 sessions "
        "(restore, run to halt) with 100-instruction steps: COW restore "
        "and scalar RTL co-simulation on the critical path"),
    "cfu-verify-narrow": (
        "golden checks of the five shipped gateware CFUs at 1, 4 and 16 "
        "lanes (backend=auto): the side of the batched-RTL crossover "
        "where lane parallelism loses"),
    "cfu-verify-wide": (
        "golden checks of the five shipped gateware CFUs at 128 lanes "
        "(backend=auto): the side of the batched-RTL crossover where lane "
        "parallelism wins"),
}

#: End-to-end metrics: (name, unit, better, bound).  Every workload
#: reports all of them.  ``round_ms`` is the median wall time of one
#: round of the workload's closed loop (what a round is, per workload,
#: is in README.md); it and ``setup_s`` are scaled to a reference host
#: speed (see ``worker.py``).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("round_ms", "ms", "lower", 0.25),
]

#: The job-level figures each workload prints by name for humans (not
#: gated: the gate reads ``round_ms``, which each of them maps onto).
JOB_FIGURES = {
    "profile-mnv2": [("profile_s", "s")],
    "dse-fig7": [("sweep_s", "s"), ("study_local_trials_per_s", "trials/s"),
                 ("study_trials_per_s", "trials/s")],
    "session-bringup": [("lap_ms_p50", "ms"), ("lap_ms_p90", "ms"),
                        ("step_ms_p50", "ms"), ("step_ms_p90", "ms")],
    "cfu-verify-narrow": [("verify_narrow_s", "s"),
                          ("kws_overflow_mismatches", "count")],
    "cfu-verify-wide": [("verify_wide_ops_per_s", "ops/s"),
                        ("kws_overflow_mismatches", "count")],
}

#: Routes the two wire clients use, by workload.
DSE_ROUTES = ("create", "work", "complete", "status", "trials")
SESSION_ROUTES = ("create", "load", "snapshot", "restore", "run", "step",
                  "profile")
BATCH_LANES = (4, 16, 128)
LAYERS = ("perf", "dse", "emu", "core", "cpu", "cfu", "rtl")

_DSE = "dse-fig7"
_PROFILE = "profile-mnv2"
_SESSION = "session-bringup"
_NARROW = "cfu-verify-narrow"
_WIDE = "cfu-verify-wide"


def _per_layer():
    rows = [
        # (name, unit, better, end-to-end figure it should move, workloads)
        ("perf.estimate_calls", "count", "lower",
         "study_local_trials_per_s, study_trials_per_s", _DSE),
        ("perf.estimate_s", "s", "lower",
         "study_local_trials_per_s, study_trials_per_s", _DSE),
        ("perf.vectorized.plane_s", "s", "lower", "sweep_s", _DSE),
        ("dse.exhaustive.front_s", "s", "lower", "sweep_s", _DSE),
        ("dse.study.suggest_s", "s", "lower",
         "study_local_trials_per_s, study_trials_per_s", _DSE),
        ("dse.evaluator.hit_ratio", "ratio", "higher",
         "study_local_trials_per_s, study_trials_per_s", _DSE),
        ("dse.service.work_s", "s", "lower", "study_trials_per_s", _DSE),
        ("dse.service.complete_s", "s", "lower", "study_trials_per_s", _DSE),
        ("dse.service.status_s", "s", "lower", "study_trials_per_s", _DSE),
        ("dse.store.writes", "count", "lower", "study_trials_per_s", _DSE),
        ("dse.store.write_s", "s", "lower", "study_trials_per_s", _DSE),
    ]
    rows += [(f"dse.worker.request_s.{route}", "s", "lower",
              "study_trials_per_s", _DSE) for route in DSE_ROUTES]
    rows += [
        ("dse.worker.retries", "count", "lower", "study_trials_per_s", _DSE),
        ("dse.wire_s", "s", "lower", "study_trials_per_s", _DSE),
        ("emu.build_s", "s", "lower", "profile_s, setup_s", _PROFILE),
        ("emu.builds", "count", "lower", "profile_s, setup_s", _PROFILE),
        ("emu.restore_s", "s", "lower", "lap_ms_p50, lap_ms_p90", _SESSION),
        ("emu.pages_restored", "count", "lower", "lap_ms_p50, lap_ms_p90",
         _SESSION),
        ("emu.snapshot_s", "s", "lower", "lap_ms_p50, lap_ms_p90", _SESSION),
    ]
    rows += [(f"emu.sessions.request_s.{route}", "s", "lower",
              "lap_ms_*, step_ms_*", _SESSION) for route in SESSION_ROUTES]
    rows += [
        ("emu.sessions.run_s", "s", "lower", "lap_ms_*, step_ms_*", _SESSION),
        ("core.simprofile.self_s", "s", "lower", "profile_s", _PROFILE),
        ("core.codecache.hits", "count", "higher", "setup_s", "all"),
        ("core.codecache.misses", "count", "lower", "setup_s", "all"),
        ("cpu.assemble_s", "s", "lower", "profile_s", _PROFILE),
        ("cpu.run_s", "s", "lower", "profile_s, lap_ms_*",
         f"{_PROFILE}, {_SESSION}"),
        ("cpu.instructions", "count", "lower", "profile_s, lap_ms_*",
         f"{_PROFILE}, {_SESSION}"),
        ("cpu.ips", "1/s", "higher", "profile_s, lap_ms_*",
         f"{_PROFILE}, {_SESSION}"),
        ("cpu.blocks_promoted", "count", "lower", "profile_s, lap_ms_*",
         f"{_PROFILE}, {_SESSION}"),
        ("cpu.block_invalidations", "count", "lower", "profile_s, lap_ms_*",
         f"{_PROFILE}, {_SESSION}"),
        ("cpu.decode_entries", "count", "lower", "profile_s, lap_ms_*",
         f"{_PROFILE}, {_SESSION}"),
        ("cfu.rtl.ops", "count", "lower", "lap_ms_* (RTL), verify_narrow_s",
         f"{_SESSION}, {_NARROW}"),
        ("cfu.rtl.execute_s", "s", "lower",
         "lap_ms_* (RTL), verify_narrow_s", f"{_SESSION}, {_NARROW}"),
    ]
    for lanes in BATCH_LANES:
        moves = "verify_wide_ops_per_s" if lanes >= 128 else "verify_narrow_s"
        workload = _WIDE if lanes >= 128 else _NARROW
        rows.append((f"cfu.batched.run_s.{lanes}", "s", "lower", moves,
                     workload))
        rows.append((f"cfu.batched.backend.{lanes}", "ratio", "higher", moves,
                     workload))
    rows += [
        ("cfu.model_s", "s", "lower",
         "verify_narrow_s, verify_wide_ops_per_s", f"{_NARROW}, {_WIDE}"),
        ("rtl.compile_s", "s", "lower", "setup_s",
         f"{_SESSION}, {_NARROW}, {_WIDE}"),
    ]
    rows += [(f"layer.{layer}.self_s", "s", "lower", "round_ms", "all")
             for layer in LAYERS]
    rows += [(f"layer.{layer}.failures", "count", "lower", "-", "all")
             for layer in LAYERS]
    rows += [
        ("trace.spans", "count", "lower", "-", "all"),
        ("trace.overhead_ms", "ms", "lower", "-", "all"),
    ]
    return rows


#: Per-layer metrics: (name, unit, better, moves, workloads).  A traced
#: run reports every one of them on every workload; a layer the
#: workload never enters reads 0.
PER_LAYER = _per_layer()


def benchmark_json():
    """The ``BENCHMARK.json`` document this catalogue implies."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, _moves, _where in PER_LAYER],
    }


#: Seconds one run measures (``--seconds``).
RUN_SECONDS = 18
