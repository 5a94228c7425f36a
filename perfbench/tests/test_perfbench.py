"""Self-test for the benchmark: tiny sizes, every metric, every check.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import catalog  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from worker import Log  # noqa: E402

TINY = {
    "profile-mnv2": {"budget": 4_000, "reference_budget": 2_000,
                     "trace_rounds": 1},
    "dse-fig7": {"trials_per_family": 4, "sample_points": 3,
                 "trace_rounds": 1},
    "session-bringup": {"dot_words": 16, "profile_every": 1,
                        "trace_rounds": 2},
    "cfu-verify-narrow": {"ops_per_lane": 6, "trace_rounds": 1},
    "cfu-verify-wide": {"ops_per_lane": 4, "trace_rounds": 1},
}

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        document = json.load(handle)
    assert document == catalog.benchmark_json()
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert 2 <= len(document["workloads"]) <= 8
    assert 1 <= len(document["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in document[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in document["workloads"]:
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in document["end_to_end"] + document["per_layer"]:
        assert UNIT.match(entry["unit"]) and entry["better"] in ("lower",
                                                                 "higher")
    bounds = {e["name"]: e["bound"] for e in document["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert set(catalog.JOB_FIGURES) == set(catalog.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(catalog.WORKLOADS))
def test_workload_emits_every_metric(workload, capsys):
    untraced = run.run_workload(workload, 7, 0.5, 0, sizes=TINY[workload])
    traced = run.run_workload(workload, 7, 0.5, 1, sizes=TINY[workload])
    printed = capsys.readouterr().out

    assert untraced["correct"] and untraced["failed"] == 0
    assert untraced["attempted"] >= 1
    assert {n: m["unit"] for n, m in untraced["metrics"].items()} == {
        name: unit for name, unit, *_ in catalog.END_TO_END}
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    assert traced["correct"]
    assert {n: m["unit"] for n, m in traced["metrics"].items()} == {
        name: unit for name, unit, *_ in catalog.PER_LAYER}

    for name, unit, *_ in catalog.END_TO_END + catalog.PER_LAYER:
        assert re.search(rf"^{workload} {re.escape(name)} = \S+ "
                         rf"{re.escape(unit)}\b", printed, re.M), name
    for name, unit in catalog.JOB_FIGURES[workload]:
        assert re.search(rf"^{workload} {name} = \S+ {re.escape(unit)}  "
                         rf"\(job figure\)$", printed, re.M), name
    assert f"{workload} failed_ratio = 0 ratio" in printed
    assert "# provenance" in printed


#: A deliberately wrong expected value per workload, planted before the
#: first round: each must turn into a counted failure.
WRONG = {
    "profile-mnv2": {"class_cycles": {"CONV_2D_1x1": 1}},
    "dse-fig7": {"sweep_fronts": {"none": []}},
    "session-bringup": {"result": 12345},
    "cfu-verify-narrow": {"mismatches": 1},
    "cfu-verify-wide": {"mismatches": 1},
}


@pytest.mark.parametrize("workload", sorted(catalog.WORKLOADS))
def test_checks_fire_on_a_wrong_expectation(workload, tmp_path):
    job = wl.WORKLOADS[workload](3, str(tmp_path), TINY[workload])
    job.expected.update(WRONG[workload])
    log = Log()
    try:
        job.setup()
        job.run(0, job.prepare(0), log.record)
    finally:
        job.close()
    assert log.failed >= 1, log.ops
    assert log.failures


def test_dse_sample_check_fires(tmp_path):
    job = wl.DseFig7(3, str(tmp_path), TINY["dse-fig7"])
    job.setup()
    job.run(0, None, Log().record)
    job.expected["sample_mismatches"] = 2
    log = Log()
    job.check_final(log.record)
    assert log.failed == 1


def test_dse_wire_check_fires(tmp_path):
    job = wl.DseFig7(3, str(tmp_path), TINY["dse-fig7"])
    job.setup()
    job.expected["local_fronts"] = {"none": []}
    log = Log()
    job.run_once(log.record)
    assert log.failed == 1


def test_profile_reference_check_fires(tmp_path):
    job = wl.ProfileMnv2(3, str(tmp_path), TINY["profile-mnv2"])
    job.setup()
    job.expected["reference_cycles"] = {}
    log = Log()
    job.check_setup(log.record)
    assert log.failed == 1


def test_tracer_uninstall_restores_every_entry_point():
    from repro.cfu.interface import CfuModel
    from repro.emu.renode import Emulator
    import repro.dse.runner as runner

    before = (Emulator.__init__, Emulator.run, CfuModel.execute,
              runner.evaluate_design)
    uninstall = tracing.install(tracing.Tracer())
    assert Emulator.run is not before[1]
    uninstall()
    after = (Emulator.__init__, Emulator.run, CfuModel.execute,
             runner.evaluate_design)
    assert after == before


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()

    def inner():
        return tracer.call("inner", "b", lambda: sum(range(20000)), (), {})

    tracer.call("outer", "a", inner, (), {})
    outer = next(s for s in tracer.spans if s["name"] == "outer")
    child = next(s for s in tracer.spans if s["name"] == "inner")
    assert child["parent"] == outer["id"]
    assert tracer.self_seconds(layer="a") == pytest.approx(
        (outer["end"] - outer["start"]) - (child["end"] - child["start"]))


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dse-fig7",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


@pytest.mark.xfail(strict=True, reason=(
    "known defect: KWS CFU2 POSTPROC disagrees between gateware and model "
    "when acc + bias leaves the int32 range (the model wraps, the "
    "gateware does not); cfu-verify-* print it as the "
    "kws_overflow_mismatches job figure"))
def test_kws_postproc_overflow_matches_model():
    from repro.accel import KwsCfu, KwsCfu2Rtl
    from repro.cfu.testing import run_sequence

    from cfu_sequences import KWS_OVERFLOW_OPS

    assert run_sequence(KwsCfu2Rtl(), KwsCfu(), KWS_OVERFLOW_OPS).passed


def test_kws_streams_keep_acc_plus_bias_in_int32():
    import random

    from repro.accel.kws import model as kws

    from cfu_sequences import kws_ops

    def s32(value):
        value &= 0xFFFFFFFF
        return value - (1 << 32) if value & 0x80000000 else value

    for seed in range(200):
        cfu = kws.KwsCfu()
        for funct3, funct7, a, b in kws_ops(random.Random(seed), 40):
            if funct3 == kws.F3_POSTPROC:
                assert -(1 << 31) <= s32(cfu.acc) + s32(b) < (1 << 31)
            cfu.op(funct3, funct7, a, b)
