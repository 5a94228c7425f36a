"""Session fleet benchmark: warm setup, COW latency, step latency.

Four measurements, landed in ``BENCH_sessions.json`` at the repo root:

- **trial setup, cold vs warm** — a *cold* trial builds everything
  from scratch (SoC + emulator + assemble + tier-2 promotion of every
  hot block); a *warm* trial reuses a live session via COW
  snapshot/restore, so all of that state stays hot.  The headline
  asserts warm setup is at least ``REPRO_SESS_SETUP_MIN`` (default 5x)
  faster.

- **snapshot/restore vs pages touched** — snapshot cost must be flat
  (it copies nothing), restore cost must scale with the pages actually
  dirtied since the snapshot, and ``pages_restored`` must equal the
  dirtied page count exactly.

- **fleet capacity** — how many warm sessions one host holds and what
  the marginal session costs once the shared compile cache is primed
  (every session after the first binds generated code, zero compiles).

- **step latency** — p50/p99 wall seconds for a 100-instruction
  ``step`` over the wire against a served session, the interactive
  debugging loop the fleet exists for.

Knobs:
- ``REPRO_SESS_TRIALS``     cold/warm setup trials (default 5)
- ``REPRO_SESS_STEPS``      wire steps for the latency tail (default 200)
- ``REPRO_SESS_FLEET``      sessions created in the capacity run
                            (default 16)
- ``REPRO_SESS_SETUP_MIN``  warm-over-cold setup speedup floor
                            (default 5.0)
"""

import json
import os
import time

from repro.emu.sessions import SessionClient, SessionManager, SessionServerThread

TRIALS = int(os.environ.get("REPRO_SESS_TRIALS", "5"))
STEPS = int(os.environ.get("REPRO_SESS_STEPS", "200"))
FLEET = int(os.environ.get("REPRO_SESS_FLEET", "16"))
SETUP_MIN = float(os.environ.get("REPRO_SESS_SETUP_MIN", "5.0"))
BENCH_PATH = os.path.join(os.path.dirname(__file__), "..",
                          "BENCH_sessions.json")

#: Block-heavy, iteration-light firmware: setup cost is dominated by
#: SoC construction + assembly + tier-2 code generation, the state the
#: warm path keeps.
FIRMWARE = "\n".join(
    ["    li a0, 0", "    li a1, 4", "outer:"]
    + [line
       for block in range(32)
       for line in (f"b{block}:",
                    *[f"    addi a0, a0, {block + 1}" for _ in range(8)],
                    f"    bnez a1, b{block}_done",
                    f"b{block}_done:")]
    + ["    addi a1, a1, -1", "    bnez a1, outer",
       "    li a7, 93", "    ecall"]
)

#: An endless loop for the step-latency run (never halts).
STEP_FIRMWARE = """
    li a0, 0
forever:
    addi a0, a0, 1
    j forever
"""

SPEC = {"board": "arty_a7_35t", "sim_backend": "auto"}

#: First page of ARTY main RAM; the scaling run dirties pages upward.
RAM_BASE = 0x4000_0000


def percentile(values, fraction):
    ranked = sorted(values)
    index = min(len(ranked) - 1, int(fraction * len(ranked)))
    return ranked[index]


def run_trial(session):
    session.load({"assembly": FIRMWARE, "region": "flash"})
    return session.run({"max_instructions": 1_000_000})


def measure_trial_setup(cache_dir):
    """Cold: everything from scratch, per trial.  Warm: one live
    session, per-trial COW restore.  Both run the same firmware to the
    same architectural state."""
    cold_seconds, cycles = [], set()
    for _ in range(TRIALS):
        started = time.perf_counter()
        manager = SessionManager(compile_cache=None)
        outcome = run_trial(manager.create(SPEC))
        cold_seconds.append(time.perf_counter() - started)
        cycles.add(outcome["cycles"])

    manager = SessionManager(compile_cache=cache_dir)
    session = manager.create(SPEC)
    session.load({"assembly": FIRMWARE, "region": "flash"})
    anchor = session.snapshot()["snapshot_id"]
    # Prime once, unmeasured: the first run from the anchor promotes the
    # hot blocks; that is the cold cost warm trials exist to avoid.
    session.run({"max_instructions": 1_000_000})
    warm_seconds = []
    for _ in range(TRIALS):
        started = time.perf_counter()
        session.restore({"snapshot_id": anchor})
        outcome = session.run({"max_instructions": 1_000_000})
        warm_seconds.append(time.perf_counter() - started)
        cycles.add(outcome["cycles"])

    cold = sum(cold_seconds) / len(cold_seconds)
    warm = sum(warm_seconds) / len(warm_seconds)
    return {
        "trials": TRIALS,
        "cold_setup_seconds": round(cold, 4),
        "warm_setup_seconds": round(warm, 4),
        "speedup": round(cold / warm, 1),
        "threshold": SETUP_MIN,
        "bit_identical": len(cycles) == 1,
        "passed": cold / warm >= SETUP_MIN and len(cycles) == 1,
    }


def measure_snapshot_scaling():
    """Snapshot is O(1); restore is O(pages dirtied since)."""
    manager = SessionManager(compile_cache=None)
    session = manager.create(SPEC)
    session.load({"assembly": FIRMWARE, "region": "flash"})
    memory = session.emulator.machine.memory
    points = []
    for pages in (0, 1, 8, 64):
        started = time.perf_counter()
        snap = session.snapshot()
        snapshot_seconds = time.perf_counter() - started
        for page in range(pages):
            memory.write32(RAM_BASE + page * 4096, 0xC0FFEE00 + page)
        restored = session.restore({"snapshot_id": snap["snapshot_id"]})
        session.discard({"snapshot_id": snap["snapshot_id"]})
        points.append({
            "pages_touched": pages,
            "snapshot_seconds": round(snapshot_seconds, 6),
            "restore_seconds": round(restored["seconds"], 6),
            "pages_restored": restored["pages_restored"],
        })
    exact = all(p["pages_restored"] == p["pages_touched"] for p in points)
    return {
        "points": points,
        "pages_restored_exact": exact,
        "passed": exact,
    }


def measure_fleet_capacity(cache_dir):
    """Marginal cost of one more warm session with a primed cache."""
    manager = SessionManager(max_sessions=FLEET, compile_cache=cache_dir)
    seconds = []
    for index in range(FLEET):
        started = time.perf_counter()
        session = manager.create({"session_id": f"fleet-{index}", **SPEC})
        run_trial(session)
        seconds.append(time.perf_counter() - started)
    cache_stats = (manager.compile_cache.stats.as_dict()
                   if manager.compile_cache else None)
    return {
        "sessions": FLEET,
        "resident_sessions": len(manager.sessions),
        "first_session_seconds": round(seconds[0], 4),
        "marginal_session_seconds": round(
            sum(seconds[1:]) / max(1, len(seconds) - 1), 4),
        "compile_cache": cache_stats,
        # every session after the first binds, never re-generates
        "redundant_compiles": 0 if cache_stats is None
        else max(0, cache_stats["misses"] - cache_stats["stores"]),
        "passed": len(manager.sessions) == FLEET,
    }


def measure_step_latency():
    """p50/p99 for a 100-instruction step over the wire."""
    manager = SessionManager(compile_cache=None)
    with SessionServerThread(manager) as handle:
        with SessionClient(handle.url) as client:
            sid = client.create(SPEC)["session_id"]
            client.load(sid, assembly=STEP_FIRMWARE, region="flash")
            latencies = []
            for _ in range(STEPS):
                started = time.perf_counter()
                outcome = client.step(sid, max_instructions=100)
                latencies.append(time.perf_counter() - started)
                assert not outcome["halted"]
    return {
        "steps": STEPS,
        "instructions_per_step": 100,
        "p50_seconds": round(percentile(latencies, 0.50), 6),
        "p99_seconds": round(percentile(latencies, 0.99), 6),
        "steps_per_sec": round(STEPS / sum(latencies), 1),
    }


def test_sessions_benchmark(report, tmp_path):
    cache_dir = str(tmp_path / "code-cache")

    setup = measure_trial_setup(cache_dir)
    scaling = measure_snapshot_scaling()
    fleet = measure_fleet_capacity(cache_dir)
    steps = measure_step_latency()

    payload = {
        "benchmark": "sessions",
        "generated_by": "benchmarks/bench_sessions.py",
        "trial_setup": setup,
        "snapshot_scaling": scaling,
        "fleet_capacity": fleet,
        "step_latency": steps,
        "headline": {
            "description": ("warm (COW-restored session) vs cold "
                            "(from-scratch) trial setup; restore cost "
                            "tracks pages touched; step-latency tail "
                            "over the wire"),
            "setup_speedup": setup["speedup"],
            "setup_threshold": setup["threshold"],
            "pages_restored_exact": scaling["pages_restored_exact"],
            "resident_sessions": fleet["resident_sessions"],
            "step_p50_seconds": steps["p50_seconds"],
            "step_p99_seconds": steps["p99_seconds"],
            "passed": (setup["passed"] and scaling["passed"]
                       and fleet["passed"]),
        },
    }
    with open(BENCH_PATH, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")

    report(f"session fleet benchmark ({TRIALS} setup trials, "
           f"{FLEET} fleet sessions, {STEPS} wire steps)")
    report(f"trial setup    : {setup['cold_setup_seconds']*1000:>8.1f}ms "
           f"cold, {setup['warm_setup_seconds']*1000:.1f}ms warm "
           f"({setup['speedup']}x, threshold {SETUP_MIN}x)")
    for point in scaling["points"]:
        report(f"restore {point['pages_touched']:>3} pages: "
               f"{point['restore_seconds']*1000:>8.3f}ms "
               f"(snapshot {point['snapshot_seconds']*1000:.3f}ms, "
               f"{point['pages_restored']} restored)")
    report(f"fleet          : {fleet['resident_sessions']} resident, "
           f"first {fleet['first_session_seconds']*1000:.1f}ms, "
           f"marginal {fleet['marginal_session_seconds']*1000:.1f}ms")
    report(f"step latency   : p50 {steps['p50_seconds']*1000:.2f}ms, "
           f"p99 {steps['p99_seconds']*1000:.2f}ms "
           f"({steps['steps_per_sec']:.0f} steps/sec)")
    report(f"[BENCH_sessions.json written to {os.path.abspath(BENCH_PATH)}]")

    assert setup["bit_identical"], \
        "warm trials diverged from cold trials"
    assert setup["speedup"] >= SETUP_MIN, (
        f"warm setup only {setup['speedup']}x faster than cold "
        f"(needs >= {SETUP_MIN}x)")
    assert scaling["pages_restored_exact"], (
        f"restore page counts diverged from pages touched: "
        f"{scaling['points']}")
    assert fleet["passed"], "fleet did not hold every session resident"
    assert fleet["redundant_compiles"] == 0
