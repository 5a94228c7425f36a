"""The benchmark's workloads: four jobs users of this repo run.

Each workload is a closed loop driven from one process through the
public ``repro`` API.  The worker calls, in order:

- ``setup()`` — timed as ``setup_s``: imports, model build, server
  start, session create, RTL compile;
- ``check_setup(record)`` — untimed reference checks;
- ``prepare(i)`` (untimed input generation) then ``run(i, inputs,
  record)`` (timed as one round) until the run's time is up;
- ``run_once(record)`` — work done once per process, outside the
  rounds (traced in a traced run);
- ``check_final(record)`` — untimed checks after the rounds;
- ``close()``.

``record(kind, seconds, ok, detail)`` logs one operation: it counts as
attempted, and as failed when ``ok`` is false.  Expected values live in
``self.expected``; a check compares against the value already there, or
stores the first observation as the reference for later repeats, so a
test can plant a wrong expectation and watch the check fire.
"""

from __future__ import annotations

import random
import shutil
import statistics
import tempfile
import time

def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, fraction):
    """Nearest-rank percentile (``fraction`` in 0..1)."""
    if not values:
        return 0.0
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, int(fraction * len(ranked)))]


class Workload:
    name = ""
    sizes = {}
    #: How strongly a round's wall time follows the host-speed
    #: calibration loop (see ``worker.py``): the log-log slope measured
    #: over ten runs on the reference host, rounded.
    host_elasticity = 1.0
    #: Run ``gc.collect()`` after every round, outside the timing.
    collect_garbage = False

    def __init__(self, seed, scratch, sizes=None):
        self.seed = seed
        self.scratch = scratch
        self.sizes = dict(self.sizes, **(sizes or {}))
        self.expected = {}

    def setup(self):
        pass

    def check_setup(self, record):
        pass

    def prepare(self, index):
        return None

    def run(self, index, inputs, record):
        raise NotImplementedError

    def run_once(self, record):
        pass

    def check_final(self, record):
        pass

    def close(self):
        pass

    def expect(self, key, observed):
        """True when ``observed`` equals the reference for ``key`` (the
        first observation becomes the reference)."""
        return self.expected.setdefault(key, observed) == observed

    def summary(self, ops, rounds_s):
        """Job-level figures by name: ``{name: (value, unit)}``."""
        return {}


# --- profile-mnv2 -------------------------------------------------------------------


class ProfileMnv2(Workload):
    """Back-to-back simulation-backed profiles of the MNV2 project."""

    name = "profile-mnv2"
    host_elasticity = 0.6          # measured 0.62
    # Each call leaves about 0.8 GB of cyclic garbage; without a collect
    # it piles up into gigabytes within a few calls.
    collect_garbage = True
    sizes = {"project": "mnv2_first", "budget": 400_000,
             "reference_budget": 4_000, "trace_rounds": 2}

    def setup(self):
        from repro.core.project import load_project

        self.playground = load_project(self.sizes["project"]).playground

    def _profile(self, **kwargs):
        # Looked up at call time, so a traced run sees its wrapper.
        import repro.core.simprofile as simprofile

        return simprofile.simulate_profile(self.playground, **kwargs)

    @staticmethod
    def _class_cycles(result):
        return {c.name: c.sim_cycles for c in result.classes}

    def check_setup(self, record):
        budget = self.sizes["reference_budget"]
        started = time.perf_counter()
        step = self._class_cycles(self._profile(budget=budget,
                                                sim_backend="step"))
        fast = self._class_cycles(self._profile(budget=budget))
        ok = self.expect("reference_cycles", step) and fast == step
        record("reference", time.perf_counter() - started, ok,
               f"step tier {step} vs default tier {fast}")

    def run(self, index, inputs, record):
        started = time.perf_counter()
        result = self._profile(budget=self.sizes["budget"])
        elapsed = time.perf_counter() - started
        cycles = self._class_cycles(result)
        record("profile", elapsed,
               len(cycles) == 3 and self.expect("class_cycles", cycles),
               f"per-class simulated cycles {cycles}")

    def summary(self, ops, rounds_s):
        return {"profile_s": (median(ops.get("profile", [])), "s")}


# --- dse-fig7 -----------------------------------------------------------------------


def _front_fingerprint(result, families):
    return {family: sorted((p.key(), p.metrics)
                           for p in result.family_front(family))
            for family in families}


class DseFig7(Workload):
    """Rounds of the exhaustive sweep and the in-process Fig-7 studies;
    then, once per process, the same studies over the wire.

    The wire run is checked and reported (``study_trials_per_s``) but
    is not part of a round: on the reference host its wall time varied
    from 2.5 s to 5.1 s between identical back-to-back runs in one
    process, uncorrelated with host speed (r = 0.5), so a 3-4 sample
    median of it could not meet any bound the benchmark allows.
    """

    name = "dse-fig7"
    host_elasticity = 1.0
    sizes = {"points": 93_312, "trials_per_family": 120, "wire_workers": 1,
             "sample_points": 24, "trace_rounds": 3}

    def setup(self):
        import repro.dse as dse
        from repro.models import load

        self.dse = dse
        self.families = dse.CFU_FAMILIES
        self.model = load("mobilenet_v2", width_multiplier=0.75,
                          num_classes=100)
        self.last_sweep = None

    def run(self, index, inputs, record):
        dse = self.dse
        trials = self.sizes["trials_per_family"]

        started = time.perf_counter()
        swept = dse.sweep()
        elapsed = time.perf_counter() - started
        fronts = {f: swept.front_metrics(f) for f in self.families}
        record("sweep", elapsed,
               swept.points_evaluated == self.sizes["points"]
               and self.expect("sweep_fronts", fronts),
               "sweep fronts differ from the first repeat")
        self.last_sweep = swept

        started = time.perf_counter()
        local = dse.run_fig7(trials_per_family=trials, seed=self.seed)
        elapsed = time.perf_counter() - started
        golden = _front_fingerprint(local, self.families)
        record("study_local", elapsed, self.expect("local_fronts", golden),
               "in-process fronts differ from the first repeat")

    def run_once(self, record):
        """The studies over the wire; fronts must equal the in-process
        ones for the same seed."""
        dse = self.dse
        trials = self.sizes["trials_per_family"]
        golden = self.expected.get("local_fronts")
        if golden is None:
            golden = _front_fingerprint(
                dse.run_fig7(trials_per_family=trials, seed=self.seed),
                self.families)
        store = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        try:
            started = time.perf_counter()
            wire, info = dse.run_fig7_service(
                trials_per_family=trials, seed=self.seed,
                workers=self.sizes["wire_workers"], store_dir=store)
            elapsed = time.perf_counter() - started
        finally:
            shutil.rmtree(store, ignore_errors=True)
        completed = info["trials_completed"]
        record("study_wire", elapsed,
               _front_fingerprint(wire, self.families) == golden
               and info["client_retries"] == 0
               and completed == trials * len(self.families),
               f"wire fronts != in-process fronts, or {completed} trials, "
               f"{info['client_retries']} client retries")

    def check_final(self, record):
        """A seeded sample of sweep points is bit-identical to the scalar
        ``evaluate_design`` oracle."""
        if self.last_sweep is None:
            return
        from repro.boards import ARTY_A7_35T

        sweeper = self.last_sweep.sweeper
        rng = random.Random(f"{self.seed}:sample")
        started = time.perf_counter()
        bad = 0
        for index in range(self.sizes["sample_points"]):
            family = self.families[index % len(self.families)]
            point = sweeper.space.sample(rng)
            cycles, cells, fit_ok = sweeper.evaluate_points([point], family)
            oracle = self.dse.evaluate_design(self.model, ARTY_A7_35T, point,
                                              family)
            if oracle is None:
                bad += bool(fit_ok[0])
            else:
                bad += not (fit_ok[0] and cycles[0] == oracle.cycles
                            and cells[0] == oracle.logic_cells)
        record("sweep_sample", time.perf_counter() - started,
               bad == self.expected.setdefault("sample_mismatches", 0),
               f"{bad} sampled sweep points differ from evaluate_design")

    def summary(self, ops, rounds_s):
        trials = self.sizes["trials_per_family"] * 3
        local = median(ops.get("study_local", []))
        wire = median(ops.get("study_wire", []))
        return {
            "sweep_s": (median(ops.get("sweep", [])), "s"),
            "study_local_trials_per_s": (trials / local if local else 0.0,
                                         "trials/s"),
            "study_trials_per_s": (trials / wire if wire else 0.0,
                                   "trials/s"),
        }


# --- session-bringup ----------------------------------------------------------------


def dot_product_firmware(words, vec_a, vec_b):
    """KWS CFU2 dot product over two embedded int8x4 vectors (MAC4 per
    word pair).  Every 8 words the running accumulator is stored to an
    output buffer a page away from the code, so each lap dirties RAM
    that the next restore must roll back.  The result ends in a0."""
    from repro.accel.kws import model as kws

    lines = [
        "start:",
        "    la   t0, vec_a",
        "    la   t1, vec_b",
        "    la   t3, out",
        f"    li   t4, {words // 8}",
        f"    cfu  1, {kws.F3_MAC4}, a0, x0, x0",
        "outer:",
        "    li   t2, 8",
        "inner:",
        "    lw   a1, 0(t0)",
        "    lw   a2, 0(t1)",
        f"    cfu  0, {kws.F3_MAC4}, a0, a1, a2",
        "    addi t0, t0, 4",
        "    addi t1, t1, 4",
        "    addi t2, t2, -1",
        "    bnez t2, inner",
        f"    cfu  0, {kws.F3_READ_ACC}, a3, x0, x0",
        "    sw   a3, 0(t3)",
        "    addi t3, t3, 4",
        "    addi t4, t4, -1",
        "    bnez t4, outer",
        f"    cfu  0, {kws.F3_READ_ACC}, a0, x0, x0",
        "    li   a7, 93",
        "    ecall",
        "vec_a:",
    ]
    lines += [f"    .word {word}" for word in vec_a]
    lines.append("vec_b:")
    lines += [f"    .word {word}" for word in vec_b]
    lines += ["    .zero 4096", "out:", f"    .zero {4 * (words // 8)}"]
    return "\n".join(lines)


def dot_product(vec_a, vec_b):
    total = 0
    for a, b in zip(vec_a, vec_b):
        for lane in range(4):
            x = (((a >> (8 * lane)) & 0xFF) ^ 0x80) - 0x80
            y = (((b >> (8 * lane)) & 0xFF) ^ 0x80) - 0x80
            total += x * y
    return total & 0xFFFFFFFF


class SessionBringup(Workload):
    """One client lapping a fleet of KWS sessions over the wire."""

    name = "session-bringup"
    host_elasticity = 0.9          # measured 0.86
    sizes = {"sessions_model": 2, "sessions_rtl": 2, "dot_words": 400,
             "step_instructions": 100, "profile_every": 4,
             "trace_rounds": 40}

    def setup(self):
        from repro.emu.sessions import (
            SessionClient,
            SessionManager,
            SessionServerThread,
        )

        rng = random.Random(f"{self.seed}:vectors")
        words = self.sizes["dot_words"]
        vec_a = [rng.getrandbits(32) for _ in range(words)]
        vec_b = [rng.getrandbits(32) for _ in range(words)]
        self.expected.setdefault("result", dot_product(vec_a, vec_b))
        firmware = dot_product_firmware(words, vec_a, vec_b)
        self.server = SessionServerThread(SessionManager())
        self.client = SessionClient(self.server.url)
        self.sessions = []
        kinds = (["model"] * self.sizes["sessions_model"]
                 + ["rtl"] * self.sizes["sessions_rtl"])
        for impl in kinds:
            created = self.client.create({"board": "arty_a7_35t", "cfu": "kws",
                                          "cfu_impl": impl})
            sid = created["session_id"]
            self.client.load(sid, assembly=firmware, region="main_ram")
            snap = self.client.snapshot(sid)["snapshot_id"]
            self.sessions.append((sid, impl, snap))

    def run(self, index, inputs, record):
        client = self.client
        steps = self.sizes["step_instructions"]
        for sid, impl, snap in self.sessions:
            started = time.perf_counter()
            client.restore(sid, snap)
            lap = client.run(sid, max_instructions=1_000_000)
            elapsed = time.perf_counter() - started
            result = lap["exit_code"] & 0xFFFFFFFF if lap["halted"] else None
            record(f"lap.{impl}", elapsed,
                   lap["halted"] and result == self.expected["result"]
                   and self.expect(f"lap.{impl}",
                                   (lap["instret"], lap["cycles"])),
                   f"{impl} lap: halted={lap['halted']} a0={result} "
                   f"instret={lap['instret']} cycles={lap['cycles']}")

            client.restore(sid, snap)
            started = time.perf_counter()
            step = client.step(sid, max_instructions=steps)
            elapsed = time.perf_counter() - started
            record("step", elapsed,
                   step["instructions"] == steps and not step["halted"],
                   f"step ran {step['instructions']} instructions")

            if index % self.sizes["profile_every"] == 0:
                started = time.perf_counter()
                profile = client.profile(sid, max_instructions=1_000_000)
                elapsed = time.perf_counter() - started
                record("profile", elapsed,
                       not profile["truncated"]
                       and self.expect(f"profile.{impl}",
                                       profile["total_cycles"]),
                       f"{impl} profile: {profile['total_cycles']} cycles")

    def close(self):
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        server = getattr(self, "server", None)
        if server is not None:
            server.stop()

    def summary(self, ops, rounds_s):
        laps = ops.get("lap.model", []) + ops.get("lap.rtl", [])
        steps = ops.get("step", [])
        ms = 1000.0
        return {
            "lap_ms_p50": (percentile(laps, 0.5) * ms, "ms"),
            "lap_ms_p90": (percentile(laps, 0.9) * ms, "ms"),
            "step_ms_p50": (percentile(steps, 0.5) * ms, "ms"),
            "step_ms_p90": (percentile(steps, 0.9) * ms, "ms"),
            "lap_model_ms_p50": (median(ops.get("lap.model", [])) * ms, "ms"),
            "lap_rtl_ms_p50": (median(ops.get("lap.rtl", [])) * ms, "ms"),
        }


# --- cfu-verify ---------------------------------------------------------------------


class CfuVerify(Workload):
    """Golden verification of every shipped gateware CFU against its
    behavioural model, at a fixed set of lane counts."""

    def setup(self):
        from repro.cfu.testing import run_sequence, run_sequences_batched

        from cfu_sequences import CFUS, KWS_OVERFLOW_OPS

        self.overflow_ops = KWS_OVERFLOW_OPS
        self.run_sequence = run_sequence
        self.run_sequences_batched = run_sequences_batched
        self.cfus = {name: (rtl(), model(), ops)
                     for name, (rtl, model, ops) in CFUS.items()}
        # RTL compile (scalar and lane-parallel programs) is set-up work:
        # one pass outside the rounds builds every program they use.
        # Its checks are recorded by check_setup().
        self.warmup = []
        self._verify(self.prepare(-1),
                     lambda *record: self.warmup.append(record))

    def check_setup(self, record):
        for kind, seconds, ok, detail in self.warmup:
            record(f"warmup.{kind}", seconds, ok, detail)

    def prepare(self, index):
        count = self.sizes["ops_per_lane"]
        return {
            (name, lanes): [
                build(random.Random(f"{self.seed}:{index}:{name}:{lane}"),
                      count)
                for lane in range(lanes)]
            for name, (_rtl, _model, build) in self.cfus.items()
            for lanes in self.sizes["lanes"]}

    def _verify(self, inputs, record):
        for (name, lanes), sequences in inputs.items():
            rtl, model, _build = self.cfus[name]
            started = time.perf_counter()
            if lanes == 1:
                reports = [self.run_sequence(rtl, model, sequences[0],
                                             backend="auto")]
            else:
                reports = self.run_sequences_batched(rtl, model, sequences,
                                                     backend="auto")
            elapsed = time.perf_counter() - started
            mismatches = sum(len(r.mismatches) for r in reports)
            checked = sum(r.total for r in reports)
            record(f"verify.{lanes}", elapsed,
                   mismatches == self.expected.setdefault("mismatches", 0)
                   and checked == sum(len(s) for s in sequences),
                   f"{name} x{lanes}: {mismatches} golden mismatches in "
                   f"{checked} ops")

    def run(self, index, inputs, record):
        self._verify(inputs, record)

    def summary(self, ops, rounds_s):
        # Known defect, outside the seeded streams: gateware and model
        # disagree when acc + bias leaves int32.  0 once it is fixed.
        rtl, model, _build = self.cfus["kws-cfu2"]
        report = self.run_sequence(rtl, model, self.overflow_ops)
        return {"kws_overflow_mismatches": (len(report.mismatches), "count")}


class CfuVerifyNarrow(CfuVerify):
    name = "cfu-verify-narrow"
    sizes = {"lanes": (1, 4, 16), "ops_per_lane": 40, "trace_rounds": 6}

    def summary(self, ops, rounds_s):
        return {"verify_narrow_s": (median(rounds_s), "s"),
                **super().summary(ops, rounds_s)}


class CfuVerifyWide(CfuVerify):
    name = "cfu-verify-wide"
    sizes = {"lanes": (128,), "ops_per_lane": 40, "trace_rounds": 6}

    def summary(self, ops, rounds_s):
        per_round = (len(self.cfus) * sum(self.sizes["lanes"])
                     * self.sizes["ops_per_lane"])
        seconds = median(rounds_s)
        return {"verify_wide_ops_per_s": (per_round / seconds
                                          if seconds else 0.0, "ops/s"),
                **super().summary(ops, rounds_s)}


WORKLOADS = {cls.name: cls for cls in (ProfileMnv2, DseFig7, SessionBringup,
                                       CfuVerifyNarrow, CfuVerifyWide)}
