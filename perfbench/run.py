"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload profile-mnv2 --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload

Every timed figure comes from fresh worker processes (``worker.py``),
one at a time:

- ``--trace 0``: set-up runs in three fresh processes (``setup_s`` is
  their median); the last of them then measures rounds for
  ``--seconds`` and runs the correctness checks.
- ``--trace 1``: one process with the layer tracer installed gives the
  per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name with its unit, the job-level figures of
the workload, and the run's provenance.  A full record (provenance,
sizes, per-operation samples) is written under ``.perfbench/`` in the
repository root.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import catalog  # noqa: E402

OUT = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
#: Wall-clock cap for one workload's processes together.
WORKLOAD_TIMEOUT_S = 170


class BenchmarkError(RuntimeError):
    pass


def provenance():
    """Commit, host and toolchain the numbers came from."""
    sha, dirty = None, None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "--git-dir", os.path.join(ROOT, ".git"),
               "--work-tree", ROOT]
        try:
            sha = subprocess.run(git + ["rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
            dirty = bool(subprocess.run(
                git + ["status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            sha, dirty = None, None
    return {"git_sha": sha, "git_dirty": dirty,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "host": platform.node(), "platform": platform.platform()}


def worker(workload, seed, seconds, mode, tag, deadline, sizes=None,
           trace_out=None):
    """Run one worker process to completion (killed at ``deadline``, a
    ``time.monotonic()`` value); returns its report."""
    os.makedirs(OUT, exist_ok=True)
    out = os.path.join(OUT, f"worker-{tag}.json")
    if os.path.exists(out):
        os.unlink(out)
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--mode", mode, "--out", out,
               "--scratch", os.path.join(OUT, "tmp"),
               "--sizes", json.dumps(sizes or {})]
    if trace_out:
        command += ["--trace-out", trace_out]
    env = {key: value for key, value in os.environ.items()
           if key != "REPRO_CODECACHE_DIR"}
    env["PYTHONHASHSEED"] = "0"
    # The worker's own output goes to stderr: stdout is the result.
    try:
        completed = subprocess.run(
            command, stdout=sys.__stderr__.fileno(), env=env, cwd=ROOT,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload} {mode} worker timed out") from None
    if completed.returncode != 0 or not os.path.exists(out):
        raise BenchmarkError(
            f"{workload} {mode} worker failed (exit {completed.returncode})")
    with open(out) as handle:
        report = json.load(handle)
    os.unlink(out)
    return report


def measure(workload, seed, seconds, deadline, sizes=None):
    """Untraced run: set-up medians, round medians, checks."""
    setups = [worker(workload, seed, seconds, "setup", f"setup{i}", deadline,
                     sizes)
              for i in range(SETUP_REPEATS - 1)]
    main = worker(workload, seed, seconds, "measure", "measure", deadline,
                  sizes)
    reports = setups + [main]
    rounds = main["rounds_s"]
    if not rounds:
        raise BenchmarkError(f"{workload}: no round completed")
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": main["peak_rss_mb"],
        "round_ms": statistics.median(rounds) * 1000.0,
    }
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    detail = {
        "setup_s": [r["setup_s"] for r in reports],
        "setup_wall_s": [r["setup_wall_s"] for r in reports],
        "rounds": len(rounds),
        "round_wall_ms": statistics.median(main["rounds_wall_s"]) * 1000.0,
    }
    return metrics, attempted, failed, main, detail


def traced(workload, seed, seconds, deadline, sizes=None):
    os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
    trace_out = os.path.join(OUT, "traces", f"{workload}-seed{seed}.jsonl")
    main = worker(workload, seed, seconds, "trace", "trace", deadline, sizes,
                  trace_out=trace_out)
    metrics = main["per_layer"]
    detail = {"trace_file": os.path.relpath(trace_out, ROOT),
              "traced_rounds": len(main["traced_rounds_s"]),
              "untraced_rounds": len(main["rounds_s"])}
    return metrics, main["attempted"], main["failed"], main, detail


def run_workload(workload, seed, seconds, trace, sizes=None):
    """One workload: prints its lines, returns the result object."""
    started = time.perf_counter()
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    if trace:
        values, attempted, failed, main, detail = traced(workload, seed,
                                                         seconds, deadline,
                                                         sizes)
        rows = [(name, unit) for name, unit, *_ in catalog.PER_LAYER]
        tags = {name: (moves, where)
                for name, _unit, _better, moves, where in catalog.PER_LAYER}
    else:
        values, attempted, failed, main, detail = measure(workload, seed,
                                                          seconds, deadline,
                                                          sizes)
        rows = [(name, unit) for name, unit, *_ in catalog.END_TO_END]
        tags = {}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in rows}
    prov = dict(provenance(), numpy=main.get("numpy"))
    context = f"workload={workload} seed={seed} sizes={json.dumps(main['sizes'])}"
    print(f"# {context}")
    print(f"# provenance {json.dumps(prov, sort_keys=True)}")
    for name, unit in rows:
        tag = ""
        if name in tags:
            tag = f"  (moves {tags[name][0]} on {tags[name][1]})"
        print(f"{workload} {name} = {values[name]:.6g} {unit}{tag}")
    if not trace:
        print(f"# wall time, not scaled to the reference host: setup "
              f"{statistics.median(detail['setup_wall_s']):.4g} s, round "
              f"{detail['round_wall_ms']:.4g} ms")
    for name, (value, unit) in main["summary"].items():
        print(f"{workload} {name} = {value:.6g} {unit}  (job figure)")
    ratio = failed / attempted if attempted else 1.0
    print(f"{workload} failed_ratio = {ratio:.6g} ratio  "
          f"({failed} failed of {attempted} attempted)")
    for failure in main["failures"]:
        print(f"# FAILED {failure}")

    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": bool(trace), "sizes": main["sizes"],
              "provenance": prov, "metrics": metrics,
              "job_figures": main["summary"], "failed_ratio": ratio,
              "attempted": attempted, "failed": failed,
              "failures": main["failures"], "ops_s": main["ops"],
              "rounds_s": main["rounds_s"],
              "rounds_wall_s": main["rounds_wall_s"], "detail": detail,
              "wall_s": time.perf_counter() - started}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results",
                        f"{workload}-seed{seed}-trace{int(bool(trace))}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(catalog.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=catalog.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = (list(catalog.WORKLOADS) if args.workload == "all"
             else [args.workload])
    try:
        results = {name: run_workload(name, args.seed, args.seconds,
                                      args.trace)
                   for name in names}
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{workload}.{name}": entry
                        for workload, r in results.items()
                        for name, entry in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
