"""One benchmark process: set up a workload, run its loop, report JSON.

Started by ``run.py``; not meant to be run by hand.  Modes:

- ``setup``   — time the workload's set-up and exit;
- ``measure`` — set up, run the untimed reference checks, then rounds
  until ``--seconds`` have passed, the once-per-run work and the final
  checks;
- ``trace``   — install the layer tracer before set-up, run a fixed
  number of traced rounds (``trace_rounds``, so counts repeat exactly
  for a seed) and the once-per-run work, stop and remove the tracer,
  then run untraced rounds for ``--seconds``; the difference of the
  two round medians is the tracing overhead.

Host speed: the CPU this benchmark shares drifts by up to half its
speed within minutes, which no amount of repetition inside one run
averages out.  So a fixed calibration loop (Python and NumPy only) is
timed after set-up and between rounds (at most every
``CALIBRATE_EVERY_S``), and each time is rescaled to a reference host:

    scaled = wall * (REFERENCE_CALIBRATION_S / calibration) ** elasticity

``calibration`` is the mean loop time just before and after the round
(for set-up, the median of five loops right after it).  Speed changes
on a scale of seconds, so pairing each round with the loops around it
tracks the host better than one factor per run.  ``elasticity`` is how
strongly the timing follows the loop, measured on the reference host as
the log-log slope of per-run medians against per-run loop times over
ten runs: 0.3-0.55 for set-up (``SETUP_ELASTICITY``), and per workload
for rounds (``Workload.host_elasticity``).  The loop runs no repository
code, so two commits compare fairly.  Raw wall times are reported next
to the scaled ones.

The result is written as one JSON document to ``--out``.
"""

import time

STARTED = time.perf_counter()

import numpy  # noqa: E402


def calibration_loop(iterations=12_000, arrays=150):
    """Interpreter-bound work (dict, integer and call traffic) plus
    small-array NumPy work, the two kinds of work the simulators this
    benchmark times are made of.  No repository code."""
    table = {}
    acc = 0
    for i in range(iterations):
        key = i & 1023
        acc = (acc + table.get(key, i) * 3) & 0xFFFFFFFF
        table[key] = acc ^ i
    lanes = numpy.arange(64, dtype=numpy.uint64)
    for _ in range(arrays):
        word = (lanes * numpy.uint64(3) + numpy.uint64(acc)) & numpy.uint64(
            0xFFFFFFFF)
        lanes = numpy.where(word > numpy.uint64(1 << 31), word >> 1, word)
        acc = int(lanes.sum()) & 0xFFFFFFFF
    return acc


def calibrate():
    """Seconds for one calibration loop, the mean of three runs."""
    started = time.perf_counter()
    for _ in range(3):
        calibration_loop()
    return (time.perf_counter() - started) / 3


#: Calibration seconds of the reference host (a shared 2-vCPU x86-64
#: VM at a quiet moment); scaled times read as seconds on that host.
REFERENCE_CALIBRATION_S = 0.0065
SETUP_ELASTICITY = 0.5
#: Calibrate between rounds at most this often (about 8% of the run).
CALIBRATE_EVERY_S = 0.25

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads as wl  # noqa: E402


class Log:
    """Per-operation samples and failure accounting for one process."""

    def __init__(self):
        self.ops = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, kind, seconds, ok, detail=""):
        self.attempted += 1
        if ok:
            self.ops.setdefault(kind, []).append(seconds)
        else:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{kind}: {detail}")

    def error(self, where):
        self.attempted += 1
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{where}: {traceback.format_exc(limit=3)}")


def scale(seconds, calibration_s, elasticity):
    """``seconds`` on the reference host, given this host's loop time."""
    return seconds * (REFERENCE_CALIBRATION_S / calibration_s) ** elasticity


def run_rounds(workload, log, seconds=None, rounds=None, trace=None):
    """Timed rounds until ``seconds`` pass (at least one) or ``rounds``
    are done.  Returns ``(wall, scaled)``: per-round wall seconds of the
    rounds that raised nothing, and the same scaled to the reference
    host by the calibrations just before and after each round."""
    calibrations = [(time.perf_counter(), calibrate())]
    timed = []                       # (calibrations before it, wall s)
    started = time.perf_counter()
    index = 0
    while True:
        if rounds is not None and index >= rounds:
            break
        if (seconds is not None and index > 0
                and time.perf_counter() - started >= seconds):
            break
        inputs = workload.prepare(index)
        if trace is not None:
            trace.trace_id = index + 1
        begun = time.perf_counter()
        try:
            workload.run(index, inputs, log.record)
        except Exception:
            log.error(f"round {index}")
        else:
            timed.append((len(calibrations), time.perf_counter() - begun))
        index += 1
        if workload.collect_garbage:
            gc.collect()
        if time.perf_counter() - calibrations[-1][0] >= CALIBRATE_EVERY_S:
            calibrations.append((time.perf_counter(), calibrate()))
    calibrations.append((time.perf_counter(), calibrate()))
    scaled = [scale(wall, (calibrations[after - 1][1]
                           + calibrations[after][1]) / 2,
                    workload.host_elasticity)
              for after, wall in timed]
    return [wall for _, wall in timed], scaled


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--sizes", default="{}",
                        help="JSON overrides of the workload's sizes")
    args = parser.parse_args(argv)

    os.makedirs(args.scratch, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=args.scratch)
    workload = wl.WORKLOADS[args.workload](args.seed, scratch,
                                           json.loads(args.sizes))
    log = Log()
    report = {"workload": args.workload, "seed": args.seed,
              "mode": args.mode, "sizes": workload.sizes}
    tracer = uninstall = None
    try:
        if args.mode == "trace":
            import tracing

            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
        workload.setup()
        setup_wall = time.perf_counter() - STARTED
        report["setup_wall_s"] = setup_wall
        # A fresh process's first calibration loops run colder; the
        # median of five discards them.
        report["setup_s"] = scale(
            setup_wall, sorted(calibrate() for _ in range(5))[2],
            SETUP_ELASTICITY)
        if args.mode == "setup":
            return finish(report, log, args.out)
        if args.mode == "measure":
            workload.check_setup(log.record)
            wall, rounds = run_rounds(workload, log, seconds=args.seconds)
            workload.run_once(log.record)
        else:
            _, traced = run_rounds(workload, log,
                                   rounds=workload.sizes["trace_rounds"],
                                   trace=tracer)
            tracer.trace_id = 0
            workload.run_once(log.record)
            tracer.active = False
            uninstall()
            uninstall = None
            per_layer = tracing.layer_metrics(tracer)
            if args.trace_out:
                tracer.write(args.trace_out)
            wall, rounds = run_rounds(workload, log, seconds=args.seconds)
            per_layer["trace.overhead_ms"] = (
                wl.median(traced) - wl.median(rounds)) * 1000.0
            report["traced_rounds_s"] = traced
            report["per_layer"] = per_layer
        workload.check_final(log.record)
        report["rounds_s"] = rounds
        report["rounds_wall_s"] = wall
        report["summary"] = {name: list(value) for name, value in
                             workload.summary(log.ops, wall).items()}
        report["ops"] = log.ops
        report["numpy"] = numpy.__version__
    finally:
        if uninstall is not None:
            uninstall()
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
    return finish(report, log, args.out)


def finish(report, log, path):
    report["attempted"] = log.attempted
    report["failed"] = log.failed
    report["failures"] = log.failures
    report["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    with open(path, "w") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
