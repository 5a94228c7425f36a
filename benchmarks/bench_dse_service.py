"""DSE study-service benchmark: throughput, warm resume, scaling.

Three measurements at Fig. 7 shape (three CFU families over the
VexRiscv space), landed in ``BENCH_dse.json`` at the repo root:

- **throughput** — a cold 2-worker service run with real evaluations:
  end-to-end trials/sec over the wire (suggest + evaluate + complete +
  store round-trips), cache hit rate, and golden-equality against the
  in-process ``run_fig7`` engine;
- **warm resume** — the same studies rerun against the shared
  content-addressed evaluation cache: the run must re-simulate
  *nothing* (zero evaluations, 100% cache hits);
- **scaling** — 1 vs 4 workers under a fixed-latency evaluation model
  (each trial sleeps ``REPRO_DSE_EVAL_LATENCY``), which isolates the
  *scheduler's* ability to overlap in-flight trials from the host's
  core count — the paper's Vizier fleet scales by adding evaluation
  hosts, and single-core CI must still prove the overlap.

A fourth measurement, **warm compile cache**, times the *per-trial
simulation setup* (fresh emulator + firmware + tier-2 promotion of
every hot block) across a multi-process worker pool, with and without
a shared persistent :class:`~repro.core.codecache.CodeCache`: with the
cache on, every worker must bind the firmware's translated blocks from
disk with **zero redundant code generations** fleet-wide.

Knobs:
- ``REPRO_DSE_TRIALS``        trials per family, throughput/warm runs
                              (default 40)
- ``REPRO_DSE_SETUP_TRIALS``  per-trial-setup measurements per cache
                              mode in the warm-compile-cache run
                              (default 6)
- ``REPRO_DSE_SCALING_TRIALS``trials per family, scaling runs
                              (default 16)
- ``REPRO_DSE_EVAL_LATENCY``  modeled seconds per trial in the scaling
                              runs (default 0.015)
- ``REPRO_DSE_TPS_MIN``       trials/sec floor for the cold run
                              (default 25.0)
- ``REPRO_DSE_SCALING_MIN``   4-worker-over-1-worker speedup floor
                              (default 2.0)
"""

import os
import time

from common import merge_preserve

from repro.dse import (
    CFU_FAMILIES,
    DseService,
    ServiceClient,
    ServiceThread,
    WorkerFleet,
    create_fig7_studies,
    run_fig7,
    run_fig7_service,
    wait_for_studies,
)
from repro.dse.pool import WorkerPool

TRIALS = int(os.environ.get("REPRO_DSE_TRIALS", "40"))
SETUP_TRIALS = int(os.environ.get("REPRO_DSE_SETUP_TRIALS", "6"))
SCALING_TRIALS = int(os.environ.get("REPRO_DSE_SCALING_TRIALS", "16"))
EVAL_LATENCY = float(os.environ.get("REPRO_DSE_EVAL_LATENCY", "0.015"))
TPS_MIN = float(os.environ.get("REPRO_DSE_TPS_MIN", "25.0"))
SCALING_MIN = float(os.environ.get("REPRO_DSE_SCALING_MIN", "2.0"))
BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_dse.json")

SEED = 0


def fingerprint(result):
    return {family: [(p.key(), p.metrics)
                     for p in result.family_front(family)]
            for family in CFU_FAMILIES}


def service_stats(service):
    """Fold the per-study service counters the benchmark reports."""
    totals = {"lease_reclaims": 0, "duplicate_completions": 0,
              "stale_completions": 0, "store_unreadable_trials": 0}
    for series in service.metrics.series():
        for name in totals:
            if series.name == f"dse_{name}":
                totals[name] += series.value
    return totals


def measure_throughput(cache_dir, golden):
    service = DseService()
    with ServiceThread(service) as handle:
        result, info = run_fig7_service(
            service_url=handle.url, trials_per_family=TRIALS, seed=SEED,
            workers=2, cache_dir=cache_dir, prefix="cold-")
        stats = service_stats(service)
    return {
        "workers": 2,
        "trials_completed": info["trials_completed"],
        "elapsed_seconds": round(info["elapsed_seconds"], 4),
        "trials_per_sec": round(info["trials_per_sec"], 1),
        "evaluations": info["evaluations"],
        "cache_hits": info["cache_hits"],
        "cache_hit_rate": round(
            info["cache_hits"] / max(1, info["trials_completed"]), 4),
        "client_retries": info["client_retries"],
        "service_counters": stats,
        "golden_equal": fingerprint(result) == golden,
    }


def measure_warm_resume(cache_dir, golden):
    result, info = run_fig7_service(
        trials_per_family=TRIALS, seed=SEED, workers=2,
        cache_dir=cache_dir, prefix="warm-")
    hit_rate = info["cache_hits"] / max(1, info["trials_completed"])
    return {
        "trials_completed": info["trials_completed"],
        "evaluations": info["evaluations"],
        "cache_hit_rate": round(hit_rate, 4),
        "trials_per_sec": round(info["trials_per_sec"], 1),
        "golden_equal": fingerprint(result) == golden,
        "passed": info["evaluations"] == 0 and hit_rate == 1.0,
    }


def measure_scaling_point(workers):
    """One fixed-latency run: elapsed wall clock for the whole study
    set with ``workers`` pullers overlapping their modeled latency."""
    service = DseService()
    with ServiceThread(service) as handle:
        client = ServiceClient(handle.url, worker_id="bench-orchestrator")
        try:
            names = create_fig7_studies(client, SCALING_TRIALS, seed=1,
                                        prefix=f"scale{workers}-")
            fleet = WorkerFleet(handle.url, workers=workers,
                                eval_latency=EVAL_LATENCY,
                                poll_interval=0.001)
            started = time.monotonic()
            fleet.start()
            statuses = wait_for_studies(client, names, timeout=600.0)
            fleet.join(timeout=30.0)
            elapsed = time.monotonic() - started
            completed = sum(s["completed"] for s in statuses)
        finally:
            client.close()
    return {
        "workers": workers,
        "trials_completed": completed,
        "elapsed_seconds": round(elapsed, 4),
        "trials_per_sec": round(completed / elapsed, 1),
    }


# --- warm compile cache: per-trial simulation setup cost --------------------------

#: A firmware with many promotable blocks, shared by every "trial".
_TRIAL_FIRMWARE = "\n".join(
    ["    li a0, 0", "    li a1, 40", "outer:"]
    + [line
       for block in range(12)
       for line in (f"b{block}:",
                    *[f"    addi a0, a0, {block + 1}" for _ in range(6)],
                    f"    bnez a1, b{block}_done",
                    f"b{block}_done:")]
    + ["    addi a1, a1, -1", "    bnez a1, outer",
       "    li a7, 93", "    ecall"]
)


def _trial_setup(cache_dir):
    """One trial's simulation setup, as a DSE worker would pay it:
    fresh emulator, shared firmware, every block translated.
    Module-level so the process pool can pickle it."""
    from repro.boards import ARTY_A7_35T
    from repro.core.codecache import CodeCache
    from repro.emu import Emulator
    from repro.soc import Soc

    cache = CodeCache(cache_dir) if cache_dir else None
    started = time.perf_counter()
    emulator = Emulator(Soc(ARTY_A7_35T), compile_cache=cache)
    emulator.load_assembly(_TRIAL_FIRMWARE, region="flash")
    emulator.run(1_000_000)
    elapsed = time.perf_counter() - started
    return {
        "seconds": elapsed,
        "cycles": emulator.machine.cycles,
        "block_cache_loads": emulator.machine.block_cache_loads,
        "codegens": 0 if cache is None else cache.stats.misses,
        "stores": 0 if cache is None else cache.stats.stores,
    }


def measure_warm_compile_cache(tmp_path):
    """Per-trial setup with the shared compile cache off vs on.

    Every pool worker creates a *fresh* CodeCache per trial (cold
    memory layer), so with the cache on, zero misses/stores fleet-wide
    proves each translated block was generated exactly once, ever."""
    cache_dir = str(tmp_path / "code-cache")
    with WorkerPool(2) as pool:
        off = pool.map(_trial_setup, [None] * SETUP_TRIALS)
    prime = _trial_setup(cache_dir)      # the one cold compile
    with WorkerPool(2) as pool:
        on = pool.map(_trial_setup, [cache_dir] * SETUP_TRIALS)

    off_avg = sum(t["seconds"] for t in off) / len(off)
    on_avg = sum(t["seconds"] for t in on) / len(on)
    redundant = sum(t["codegens"] + t["stores"] for t in on)
    cycles = {t["cycles"] for t in off + on} | {prime["cycles"]}
    return {
        "description": ("per-trial simulation setup (emulator + "
                        "firmware + tier-2 promotion) across a "
                        "2-process pool, shared compile cache off/on"),
        "setup_trials": SETUP_TRIALS,
        "per_trial_setup_seconds_off": round(off_avg, 4),
        "per_trial_setup_seconds_on": round(on_avg, 4),
        "setup_speedup": round(off_avg / on_avg, 2) if on_avg else None,
        "blocks_primed": prime["codegens"],
        "warm_blocks_bound": sum(t["block_cache_loads"] for t in on),
        "redundant_compiles": redundant,
        "bit_identical": len(cycles) == 1,
        "passed": redundant == 0 and len(cycles) == 1,
    }


def test_dse_service_benchmark(report, tmp_path):
    golden = fingerprint(run_fig7(trials_per_family=TRIALS, seed=SEED))
    cache_dir = str(tmp_path / "eval-cache")

    throughput = measure_throughput(cache_dir, golden)
    warm = measure_warm_resume(cache_dir, golden)
    warm_compile = measure_warm_compile_cache(tmp_path)
    points = [measure_scaling_point(workers) for workers in (1, 4)]
    speedup = round(points[0]["elapsed_seconds"]
                    / points[1]["elapsed_seconds"], 2)

    payload = {
        "benchmark": "dse_service",
        "generated_by": "benchmarks/bench_dse_service.py",
        "trials_per_family": TRIALS,
        "families": len(CFU_FAMILIES),
        "throughput": dict(throughput,
                           threshold_trials_per_sec=TPS_MIN,
                           passed=(throughput["trials_per_sec"] >= TPS_MIN
                                   and throughput["golden_equal"])),
        "warm_resume": warm,
        "warm_compile_cache": warm_compile,
        "scaling": {
            "description": ("fixed-latency evaluation model "
                            "(eval_latency sleep per trial) so the "
                            "measured speedup is scheduler overlap, "
                            "not host core count"),
            "trials_per_family": SCALING_TRIALS,
            "eval_latency_seconds": EVAL_LATENCY,
            "points": points,
            "speedup_4_over_1": speedup,
            "threshold": SCALING_MIN,
            "passed": speedup >= SCALING_MIN,
        },
        "headline": {
            "description": ("cold 2-worker service throughput over the "
                            "wire; warm resume must re-simulate "
                            "nothing; 4-worker overlap speedup under "
                            "the fixed-latency model"),
            "trials_per_sec": throughput["trials_per_sec"],
            "warm_evaluations": warm["evaluations"],
            "warm_cache_hit_rate": warm["cache_hit_rate"],
            "scaling_speedup": speedup,
            "compile_setup_speedup": warm_compile["setup_speedup"],
            "redundant_compiles": warm_compile["redundant_compiles"],
            "passed": (throughput["trials_per_sec"] >= TPS_MIN
                       and throughput["golden_equal"]
                       and warm["passed"] and warm["golden_equal"]
                       and warm_compile["passed"]
                       and speedup >= SCALING_MIN),
        },
    }
    # Preserve sections owned by other benchmarks (bench_dse_exhaustive).
    merge_preserve(BENCH_PATH, payload)

    report(f"DSE service benchmark ({TRIALS} trials/family x "
           f"{len(CFU_FAMILIES)} families)")
    report(f"cold 2-worker run : {throughput['trials_per_sec']:>8.1f} "
           f"trials/sec ({throughput['evaluations']} evaluations, "
           f"{throughput['cache_hit_rate']:.0%} cache hits, "
           f"golden={'yes' if throughput['golden_equal'] else 'NO'})")
    report(f"warm resume       : {warm['trials_per_sec']:>8.1f} "
           f"trials/sec ({warm['evaluations']} evaluations, "
           f"{warm['cache_hit_rate']:.0%} cache hits)")
    report(f"trial setup       : "
           f"{warm_compile['per_trial_setup_seconds_off']*1000:>8.1f}ms "
           f"cache off, "
           f"{warm_compile['per_trial_setup_seconds_on']*1000:.1f}ms "
           f"shared cache on ({warm_compile['setup_speedup']}x, "
           f"{warm_compile['redundant_compiles']} redundant compiles)")
    for point in points:
        report(f"scaling {point['workers']} worker(s): "
               f"{point['elapsed_seconds']:>8.3f}s for "
               f"{point['trials_completed']} modeled-latency trials "
               f"({point['trials_per_sec']:.1f}/sec)")
    report(f"overlap speedup   : {speedup:.2f}x "
           f"(threshold {SCALING_MIN:.1f}x)")
    report(f"[BENCH_dse.json written to {os.path.abspath(BENCH_PATH)}]")

    assert throughput["golden_equal"], \
        "service run diverged from the in-process engine"
    assert warm["golden_equal"], \
        "warm resume diverged from the in-process engine"
    assert warm["evaluations"] == 0, (
        f"warm resume re-simulated {warm['evaluations']} trials "
        f"(must be 0)")
    assert throughput["trials_per_sec"] >= TPS_MIN, (
        f"cold service throughput {throughput['trials_per_sec']} "
        f"trials/sec (needs >= {TPS_MIN})")
    assert warm_compile["redundant_compiles"] == 0, (
        f"shared compile cache still code-generated "
        f"{warm_compile['redundant_compiles']} blocks across the pool "
        f"(must be 0)")
    assert warm_compile["bit_identical"], \
        "cache-bound trials diverged from cache-off trials"
    assert speedup >= SCALING_MIN, (
        f"4-worker overlap speedup only {speedup}x "
        f"(needs >= {SCALING_MIN}x)")
