"""RTL simulation throughput: compiled backend vs the reference interpreter.

Golden-test-style op sequences run through :class:`RtlCfuAdapter` on
every shipped gateware CFU, once with ``backend="interp"`` (the fixpoint
interpreter) and once with ``backend="compiled"`` (the scheduled,
code-generated netlist).  Results — CFU ops/sec, simulated clock
cycles/sec, wall-clock, speedup, and a bit-equality check of results and
cycle counts per workload — land in ``BENCH_rtl.json`` at the repo root,
alongside ``BENCH_sim.json``, extending the machine-readable perf
trajectory to the RTL layer.

The winograd ladder test additionally records the modeled cycle
reduction of the Winograd kernel pair over the software reference
kernels on the MNV2 ladder workloads, in a ``winograd`` section of the
same file.  Both tests merge-preserve sections owned by the other (the
``bench_dse_service.py`` convention for BENCH_dse.json).

The batched test runs the same workloads as N independent lanes of ONE
lane-parallel simulation (:class:`BatchRtlCfuDriver`) and compares the
aggregate throughput against a compiled-scalar loop over the same lanes,
asserting bit-identical per-lane results and cycle counts.  Its
256-lane headline names ``backend="batched"``, so it measures the
vectorized program whatever ``backend="auto"`` picks.

The lane-curve test records absolute ops/s of the compiled-scalar
loop, scalar lanes (``backend="scalar"``) and the batched program at
1 to 256 lanes, best of 3, with the commit/host/toolchain provenance,
and checks that ``BATCH_MIN_LANES`` (where ``backend="auto"`` switches
to the batched program) sits at or above the measured crossover.  The
two tests share the ``batched`` section of the file: the headline test
owns its top-level keys, the curve test its ``lane_curve`` key.

Knobs:
- ``REPRO_RTL_BENCH_OPS``           ops per CFU workload (default 400)
- ``REPRO_RTL_SPEEDUP_MIN``         headline threshold (default 5.0)
- ``REPRO_WINOGRAD_SPEEDUP_MIN``    ladder cycle-reduction bar (default 5.0)
- ``REPRO_RTL_BATCHED_LANES``       lanes per batched workload (default 256)
- ``REPRO_RTL_BATCHED_OPS``         ops per lane, headline and curve (default 40)
- ``REPRO_RTL_BATCHED_SPEEDUP_MIN`` aggregate speedup bar (default 2.5)
- ``REPRO_RTL_BATCHED_TRIALS``      interleaved timing trials per side, best-of (default 5)
"""

import gc
import math
import os
import random
import time

from common import merge_preserve, merge_section_keys, provenance

from repro.accel import Cfu1Rtl, KwsCfu2Rtl, Mac4Rtl, PostprocRtl, WinogradRtl
from repro.accel.kws import model as km
from repro.accel.mnv2 import model as cm
from repro.accel.winograd import model as wm
from repro.boards import ARTY_A7_35T
from repro.cfu import RtlCfuAdapter
from repro.cpu.vexriscv import VexRiscvConfig
from repro.kernels import winograd_variants
from repro.kernels.reference import reference_variants
from repro.models import load
from repro.rtl import compile_module
from repro.soc import Soc

OPS = int(os.environ.get("REPRO_RTL_BENCH_OPS", "400"))
SPEEDUP_MIN = float(os.environ.get("REPRO_RTL_SPEEDUP_MIN", "5.0"))
WINOGRAD_MIN = float(os.environ.get("REPRO_WINOGRAD_SPEEDUP_MIN", "5.0"))
BATCH_LANES = int(os.environ.get("REPRO_RTL_BATCHED_LANES", "256"))
BATCH_OPS = int(os.environ.get("REPRO_RTL_BATCHED_OPS", "40"))
BATCH_MIN = float(os.environ.get("REPRO_RTL_BATCHED_SPEEDUP_MIN", "2.5"))
BATCH_TRIALS = int(os.environ.get("REPRO_RTL_BATCHED_TRIALS", "5"))
BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_rtl.json")
CURVE_LANES = (1, 4, 16, 32, 64, 128, 256)
CURVE_TRIALS = 3


def kws_sequence(rng, count):
    seq = [
        (km.F3_CONFIG, km.CFG_MULT, rng.randrange(1 << 30, 1 << 31), 0),
        (km.F3_CONFIG, km.CFG_SHIFT, -7 & 0xFFFFFFFF, 0),
        (km.F3_CONFIG, km.CFG_OUTPUT, (-10) & 0xFFFFFFFF, 0x80 | (0x7F << 8)),
    ]
    while len(seq) < count:
        f3 = rng.choice([km.F3_MAC4, km.F3_MAC4, km.F3_MAC1, km.F3_POSTPROC,
                         km.F3_READ_ACC])
        f7 = 1 if f3 in (km.F3_MAC4, km.F3_MAC1) and rng.random() < 0.2 else 0
        seq.append((f3, f7, rng.getrandbits(32), rng.getrandbits(32)))
    return seq


def mac4_sequence(rng, count):
    return [(cm.F3_MAC4, rng.choice([0, 1]), rng.getrandbits(32),
             rng.getrandbits(32)) for _ in range(count)]


def postproc_sequence(rng, count):
    seq = []
    for _ in range(8):
        seq.append((cm.F3_CONFIG, cm.CFG_BIAS,
                    rng.randrange(-1000, 1000) & 0xFFFFFFFF, 0))
        seq.append((cm.F3_CONFIG, cm.CFG_MULT,
                    rng.randrange(1 << 30, 1 << 31), 0))
        seq.append((cm.F3_CONFIG, cm.CFG_SHIFT,
                    -rng.randrange(0, 12) & 0xFFFFFFFF, 0))
    seq.append((cm.F3_CONFIG, cm.CFG_OUTPUT, (-3) & 0xFFFFFFFF,
                0x80 | (0x7F << 8)))
    while len(seq) < count:
        seq.append((cm.F3_POSTPROC, 0,
                    rng.randrange(-2**24, 2**24) & 0xFFFFFFFF, 0))
    return seq


def cfu1_sequence(rng, count):
    """Config + filter/input loads, then a stream of multi-cycle RUNs —
    the heaviest shipped netlist (FSM + five memories)."""
    depth, channels = 4, 8
    seq = [(cm.F3_CONFIG, cm.CFG_DEPTH, depth, 0)]
    for _ in range(channels):
        seq.append((cm.F3_CONFIG, cm.CFG_BIAS,
                    rng.randrange(-1000, 1000) & 0xFFFFFFFF, 0))
        seq.append((cm.F3_CONFIG, cm.CFG_MULT,
                    rng.randrange(1 << 30, 1 << 31), 0))
        seq.append((cm.F3_CONFIG, cm.CFG_SHIFT,
                    -rng.randrange(0, 12) & 0xFFFFFFFF, 0))
    seq.append((cm.F3_CONFIG, cm.CFG_OUTPUT, (-3) & 0xFFFFFFFF,
                0x80 | (0x7F << 8)))
    for _ in range(channels * depth):
        seq.append((cm.F3_WRITE_FILT, 0, rng.getrandbits(32), 0))
    seq.append((cm.F3_WRITE_INPUT, 1, rng.getrandbits(32), 0))
    for _ in range(depth - 1):
        seq.append((cm.F3_WRITE_INPUT, 0, rng.getrandbits(32), 0))
    modes = [cm.RUN_RAW, cm.RUN_POSTPROC, cm.RUN_PACK4]
    while len(seq) < count:
        seq.append((cm.F3_RUN1, rng.choice(modes), 0, 0))
    return seq


def winograd_sequence(rng, count):
    """Config + transformed-filter uploads, then a mix of DW tile runs
    and multi-cycle PW dot-product runs — the full Winograd dataflow."""
    depth = 2
    seq = [(wm.F3_CONFIG, wm.CFG_RESET, 0, 0),
           (wm.F3_CONFIG, wm.CFG_DEPTH, depth, 0)]
    for _ in range(4):
        seq.append((wm.F3_CONFIG, wm.CFG_BIAS,
                    rng.randrange(-1000, 1000) & 0xFFFFFFFF, 0))
        seq.append((wm.F3_CONFIG, wm.CFG_MULT,
                    rng.randrange(1 << 30, 1 << 31), 0))
        seq.append((wm.F3_CONFIG, wm.CFG_SHIFT,
                    -rng.randrange(0, 12) & 0xFFFFFFFF, 0))
    seq.append((wm.F3_CONFIG, wm.CFG_OUTPUT, (-3) & 0xFFFFFFFF,
                0x80 | (0x7F << 8)))
    seq.append((wm.F3_WRITE_FILT, 1, rng.getrandbits(32), 0))
    seq.append((wm.F3_WRITE_FILT, 0, rng.getrandbits(32), 0))
    seq.append((wm.F3_WRITE_FILT, 0, rng.getrandbits(8), 0))
    seq.append((wm.F3_WRITE_FILT, 3, rng.getrandbits(32), 0))
    for _ in range(4 * depth - 1):
        seq.append((wm.F3_WRITE_FILT, 2, rng.getrandbits(32), 0))
    while len(seq) < count:
        first = True
        for _ in range(4):
            seq.append((wm.F3_WRITE_INPUT, 1 if first else 0,
                        rng.getrandbits(32), 0))
            first = False
        seq.append((wm.F3_RUN_DW, 0, 0, 0))
        seq.append((wm.F3_CONFIG, wm.CFG_RESTART, 0, 0))
        seq.append((wm.F3_RUN_PW, 0, 0, 0))
    return seq[:count]


WORKLOADS = [
    # (name, cfu factory, sequence builder)
    ("kws-cfu2", KwsCfu2Rtl, kws_sequence),
    ("mnv2-mac4", Mac4Rtl, mac4_sequence),
    ("mnv2-postproc", lambda: PostprocRtl(channels=8), postproc_sequence),
    ("mnv2-cfu1",
     lambda: Cfu1Rtl(channels=8, filter_words=64, input_words=16),
     cfu1_sequence),
    ("winograd",
     lambda: WinogradRtl(channels=4, pw_filter_words=16, input_words=16),
     winograd_sequence),
]


def timed_run(cfu, backend, sequence):
    """Execute the sequence on a fresh adapter; returns
    (seconds, results, total simulated cycles)."""
    adapter = RtlCfuAdapter(cfu, backend=backend)
    results = []
    cycles = 0
    start = time.perf_counter()
    for op in sequence:
        value, latency = adapter.execute(*op)
        results.append(value)
        cycles += latency
    return time.perf_counter() - start, results, cycles


def measure():
    rows = []
    for name, factory, make_sequence in WORKLOADS:
        cfu = factory()
        sequence = make_sequence(random.Random(42), OPS)
        interp_s, interp_results, interp_cycles = timed_run(
            cfu, "interp", sequence)
        compiled_s, compiled_results, compiled_cycles = timed_run(
            cfu, "compiled", sequence)
        identical = (interp_results == compiled_results
                     and interp_cycles == compiled_cycles)
        program = compile_module(cfu.module)
        rows.append({
            "workload": name,
            "ops": len(sequence),
            "simulated_cycles": compiled_cycles,
            "comb_levels": program.levels,
            "signals": len(program.signals),
            "interp": {
                "seconds": round(interp_s, 4),
                "ops_per_second": round(len(sequence) / interp_s),
                "cycles_per_second": round(interp_cycles / interp_s),
            },
            "compiled": {
                "seconds": round(compiled_s, 4),
                "ops_per_second": round(len(sequence) / compiled_s),
                "cycles_per_second": round(compiled_cycles / compiled_s),
            },
            "speedup": round(interp_s / compiled_s, 2),
            "identical": identical,
        })
    return rows


def test_rtl_throughput(report):
    rows = measure()
    headline = min(rows, key=lambda r: r["speedup"])
    payload = {
        "benchmark": "rtl_throughput",
        "generated_by": "benchmarks/bench_rtl_throughput.py",
        "provenance": provenance(),
        "ops": OPS,
        "workloads": rows,
        "headline": {
            "description": ("min compiled-backend speedup over the fixpoint "
                            "interpreter on golden-test op sequences across "
                            "the shipped gateware CFUs"),
            "workload": headline["workload"],
            "speedup": headline["speedup"],
            "threshold": SPEEDUP_MIN,
            "passed": headline["speedup"] >= SPEEDUP_MIN,
        },
    }
    merge_preserve(BENCH_PATH, payload)

    report(f"RTL simulation throughput (ops={OPS})")
    report(f"{'workload':<15} {'levels':>6} {'interp c/s':>11} "
           f"{'compiled c/s':>13} {'speedup':>8}  results")
    for r in rows:
        report(f"{r['workload']:<15} {r['comb_levels']:>6} "
               f"{r['interp']['cycles_per_second']:>11,} "
               f"{r['compiled']['cycles_per_second']:>13,} "
               f"{r['speedup']:>7.2f}x  "
               f"{'identical' if r['identical'] else 'MISMATCH'}")
    report(f"headline: {headline['workload']} {headline['speedup']:.2f}x "
           f"(threshold {SPEEDUP_MIN}x)")
    report(f"[BENCH_rtl.json written to {os.path.abspath(BENCH_PATH)}]")

    for r in rows:
        assert r["identical"], f"{r['workload']}: backends diverged"
    assert headline["speedup"] >= SPEEDUP_MIN, (
        f"compiled backend only {headline['speedup']}x on "
        f"{headline['workload']} (needs ≥{SPEEDUP_MIN}x)")


def scalar_loop(adapter, sequences):
    """One fresh compiled-scalar adapter run per lane sequence."""
    results = []
    for sequence in sequences:
        adapter.reset()
        results.append([adapter.execute(*op) for op in sequence])
    return results


def best_of(trials, runs):
    """Best-of-``trials`` seconds and the last results of each named run.

    The runs' trials are interleaved: the quantity under test is the
    cost of the work, not scheduler noise, and sampling every side
    under the same ambient load keeps their ratio fair even when
    interference lasts longer than a single trial.  GC is paused so a
    collection doesn't land inside one side's best trial.
    """
    seconds = {name: math.inf for name in runs}
    results = {}
    gc.disable()
    try:
        for _ in range(trials):
            for name, run in runs.items():
                start = time.perf_counter()
                results[name] = run()
                seconds[name] = min(seconds[name],
                                    time.perf_counter() - start)
            gc.collect()
    finally:
        gc.enable()
    return seconds, results


def driver_run(driver, sequences):
    def run():
        driver.reset()
        return driver.run(sequences)
    return run


def lane_sequences(make_sequence, lanes):
    return [make_sequence(random.Random(1000 + lane), BATCH_OPS)
            for lane in range(lanes)]


def measure_batched():
    from repro.cfu import BatchRtlCfuDriver

    rows = []
    for name, factory, make_sequence in WORKLOADS:
        sequences = lane_sequences(make_sequence, BATCH_LANES)
        # Drivers are built outside the timed region: codegen is cached
        # (CodeCache) and the claim under test is lane-advance
        # throughput, matching the scalar loop which also reuses its
        # compiled program across lanes.  The backend is named so the
        # headline measures the vectorized program at any lane count.
        driver = BatchRtlCfuDriver(factory(), lanes=BATCH_LANES,
                                   backend="batched")
        adapter = RtlCfuAdapter(factory(), backend="compiled")
        seconds, results = best_of(BATCH_TRIALS, {
            "batched": driver_run(driver, sequences),
            "scalar": lambda: scalar_loop(adapter, sequences),
        })
        batched_s, scalar_s = seconds["batched"], seconds["scalar"]
        total_ops = BATCH_LANES * BATCH_OPS
        rows.append({
            "workload": name,
            "lanes": BATCH_LANES,
            "ops_per_lane": BATCH_OPS,
            "backend": driver.backend,
            "scalar": {
                "seconds": round(scalar_s, 4),
                "ops_per_second": round(total_ops / scalar_s),
            },
            "batched": {
                "seconds": round(batched_s, 4),
                "ops_per_second": round(total_ops / batched_s),
            },
            "aggregate_speedup": round(scalar_s / batched_s, 2),
            "identical": results["batched"] == results["scalar"],
        })
    return rows


def test_rtl_batched_throughput(report):
    """Lane-parallel batched backend vs a compiled-scalar loop over the
    same lanes: every per-lane (result, cycles) stream must be
    bit-identical, and aggregate throughput must clear BATCH_MIN."""
    rows = measure_batched()
    headline = min(rows, key=lambda r: r["aggregate_speedup"])
    payload = {
        "generated_by": "benchmarks/bench_rtl_throughput.py",
        "provenance": provenance(),
        "lanes": BATCH_LANES,
        "ops_per_lane": BATCH_OPS,
        "workloads": rows,
        "headline": {
            "description": ("min aggregate speedup of the lane-parallel "
                            "batched backend over a compiled-scalar loop "
                            "across the shipped gateware CFUs, per-lane "
                            "results and cycle counts bit-identical"),
            "workload": headline["workload"],
            "speedup": headline["aggregate_speedup"],
            "threshold": BATCH_MIN,
            "passed": headline["aggregate_speedup"] >= BATCH_MIN,
        },
    }
    merge_section_keys(BENCH_PATH, "batched", payload)

    report(f"Batched RTL throughput (lanes={BATCH_LANES}, "
           f"ops/lane={BATCH_OPS})")
    report(f"{'workload':<15} {'backend':>8} {'scalar ops/s':>13} "
           f"{'batched ops/s':>14} {'speedup':>8}  lanes")
    for r in rows:
        report(f"{r['workload']:<15} {r['backend']:>8} "
               f"{r['scalar']['ops_per_second']:>13,} "
               f"{r['batched']['ops_per_second']:>14,} "
               f"{r['aggregate_speedup']:>7.2f}x  "
               f"{'identical' if r['identical'] else 'MISMATCH'}")
    report(f"headline: {headline['workload']} "
           f"{headline['aggregate_speedup']:.2f}x (threshold {BATCH_MIN}x)")
    report(f"[BENCH_rtl.json batched section written to "
           f"{os.path.abspath(BENCH_PATH)}]")

    for r in rows:
        assert r["identical"], f"{r['workload']}: lanes diverged from scalar"
        assert r["backend"] == "batched", (
            f"{r['workload']}: fell back to {r['backend']} lanes")
    assert headline["aggregate_speedup"] >= BATCH_MIN, (
        f"batched backend only {headline['aggregate_speedup']}x on "
        f"{headline['workload']} (needs >={BATCH_MIN}x)")


def crossover(points):
    """Smallest measured lane count from which the batched program
    beats scalar lanes at every larger one (None: it never does)."""
    found = None
    for point in reversed(points):
        if point["batched_ops_per_second"] \
                <= point["scalar_lanes_ops_per_second"]:
            break
        found = point["lanes"]
    return found


def measure_lane_curve():
    from repro.cfu import BatchRtlCfuDriver

    curve = []
    for name, factory, make_sequence in WORKLOADS:
        points = []
        for lanes in CURVE_LANES:
            sequences = lane_sequences(make_sequence, lanes)
            adapter = RtlCfuAdapter(factory(), backend="compiled")
            runs = {"compiled": lambda: scalar_loop(adapter, sequences)}
            for backend in ("scalar", "batched"):
                driver = BatchRtlCfuDriver(factory(), lanes=lanes,
                                           backend=backend)
                runs[driver.backend] = driver_run(driver, sequences)
            seconds, results = best_of(CURVE_TRIALS, runs)
            total_ops = lanes * BATCH_OPS
            points.append({
                "lanes": lanes,
                "compiled_ops_per_second": round(
                    total_ops / seconds["compiled"]),
                "scalar_lanes_ops_per_second": round(
                    total_ops / seconds["scalar-lanes"]),
                "batched_ops_per_second": round(
                    total_ops / seconds["batched"]),
                "identical": (results["scalar-lanes"] == results["compiled"]
                              == results["batched"]),
            })
        curve.append({"workload": name, "points": points,
                      "crossover_lanes": crossover(points)})
    return curve


def test_rtl_lane_curve(report):
    """Absolute ops/s of the compiled-scalar loop, scalar lanes and the
    batched program from 1 to 256 lanes: every lane bit-identical on
    every side, and ``backend="auto"`` switching to the batched program
    no earlier than where it starts to win."""
    from repro.rtl import BATCH_MIN_LANES

    curve = measure_lane_curve()
    covered = [row["workload"] for row in curve
               if row["crossover_lanes"] is not None
               and row["crossover_lanes"] <= BATCH_MIN_LANES]
    merge_section_keys(BENCH_PATH, "batched", {
        "lane_curve": {
            "description": ("absolute ops/s per side, best of "
                            f"{CURVE_TRIALS}; crossover_lanes is the "
                            "smallest lane count from which batched beats "
                            "scalar-lanes at every larger one"),
            "provenance": provenance(),
            "ops_per_lane": BATCH_OPS,
            "batch_min_lanes": BATCH_MIN_LANES,
            "workloads": curve,
        },
    })

    report(f"Lane curve (ops/lane={BATCH_OPS}, best of {CURVE_TRIALS}; "
           f"ops/s; BATCH_MIN_LANES={BATCH_MIN_LANES})")
    report(f"{'workload':<15} {'lanes':>5} {'compiled':>10} "
           f"{'scalar-lanes':>13} {'batched':>10}  results")
    for row in curve:
        for point in row["points"]:
            report(f"{row['workload']:<15} {point['lanes']:>5} "
                   f"{point['compiled_ops_per_second']:>10,} "
                   f"{point['scalar_lanes_ops_per_second']:>13,} "
                   f"{point['batched_ops_per_second']:>10,}  "
                   f"{'identical' if point['identical'] else 'MISMATCH'}")
        report(f"{row['workload']:<15} crossover at "
               f"{row['crossover_lanes']} lanes")
    report(f"[BENCH_rtl.json batched.lane_curve written to "
           f"{os.path.abspath(BENCH_PATH)}]")

    for row in curve:
        for point in row["points"]:
            assert point["identical"], (
                f"{row['workload']} x{point['lanes']}: lanes diverged")
    assert len(covered) >= len(curve) - 1, (
        f"BATCH_MIN_LANES={BATCH_MIN_LANES} sits below the measured "
        f"crossover on more than one CFU (at or above it only on "
        f"{covered})")


def test_winograd_ladder(report):
    """Modeled cycle reduction of the Winograd kernel pair over the
    software reference kernels on the MNV2 ladder workloads."""
    model = load("mobilenet_v2", width_multiplier=0.75, num_classes=100)
    system = Soc(ARTY_A7_35T, VexRiscvConfig()).system_config()
    reference = reference_variants()
    accelerated = reference_variants().extended(*winograd_variants())

    rows = []
    for opcode, label in (("DEPTHWISE_CONV_2D", "depthwise-3x3"),
                          ("CONV_2D", "pointwise-1x1")):
        software = hardware = 0
        layers = 0
        for op in model.operators:
            if op.opcode != opcode:
                continue
            variant = accelerated.select(op, model)
            if variant is None or not variant.name.startswith("winograd"):
                continue
            software += reference.select(op, model).cycles(op, model, system)
            hardware += variant.cycles(op, model, system)
            layers += 1
        rows.append({
            "workload": label,
            "layers": layers,
            "software_cycles": round(software),
            "winograd_cycles": round(hardware),
            "speedup": round(software / hardware, 2),
        })
    worst = min(rows, key=lambda r: r["speedup"])
    payload = {
        "winograd": {
            "generated_by": "benchmarks/bench_rtl_throughput.py",
            "model": "mobilenet_v2 (width 0.75)",
            "workloads": rows,
            "headline": {
                "description": ("min modeled cycle reduction of the Winograd "
                                "CFU kernel pair over the software reference "
                                "kernels on the MNV2 ladder workloads"),
                "workload": worst["workload"],
                "speedup": worst["speedup"],
                "threshold": WINOGRAD_MIN,
                "passed": worst["speedup"] >= WINOGRAD_MIN,
            },
        },
    }
    merge_preserve(BENCH_PATH, payload)

    report("Winograd ladder: modeled cycles vs the software kernels (MNV2)")
    report(f"{'workload':<15} {'layers':>6} {'software cyc':>14} "
           f"{'winograd cyc':>14} {'speedup':>8}")
    for r in rows:
        report(f"{r['workload']:<15} {r['layers']:>6} "
               f"{r['software_cycles']:>14,} {r['winograd_cycles']:>14,} "
               f"{r['speedup']:>7.2f}x")
    report(f"headline: {worst['workload']} {worst['speedup']:.2f}x "
           f"(threshold {WINOGRAD_MIN}x)")
    report(f"[BENCH_rtl.json winograd section written to "
           f"{os.path.abspath(BENCH_PATH)}]")

    for r in rows:
        assert r["layers"] > 0, f"{r['workload']}: no qualifying layers"
        assert r["speedup"] >= WINOGRAD_MIN, (
            f"winograd only {r['speedup']}x on {r['workload']} "
            f"(needs ≥{WINOGRAD_MIN}x)")
