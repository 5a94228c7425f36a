"""Lane-parallel batched RTL backend: differential proofs and API tests.

The load-bearing guarantee is bit-identity: every lane of a
:class:`BatchSimulator` must match a scalar simulation of the same
module under the same stimulus — signals, memories, and cycle counts —
on both the vectorized backend and the scalar-lanes fallback.
"""

import random

import numpy as np
import pytest

from tests.test_accel_winograd import _directed_sequence, small_cfu
from tests.test_rtl_compile import _module_signals, _random_netlist

from repro.accel import WinogradRtl
from repro.accel.library import LIBRARY
from repro.cfu import BatchRtlCfuDriver, RtlCfuAdapter
from repro.cfu.testing import assert_equivalent
from repro.dse.characterize import (
    OPERAND_CLASSES,
    characterization_targets,
    characterize_cfu,
)
from repro.rtl import (
    BATCH_MIN_LANES,
    BatchCompileError,
    BatchSimulator,
    CompileError,
    Module,
    Signal,
    Simulator,
)
from repro.rtl.batched import _BATCH_PROGRAM_CACHE

LANES = 3


# --- randomized three-way lockstep -------------------------------------------

@pytest.mark.parametrize("seed", range(26))
def test_random_netlist_lockstep(seed):
    """Batched lanes vs one interpreter and one compiled scalar sim per
    lane, for 12 cycles of per-lane random stimulus: every signal after
    every settle, every memory after every tick."""
    module, inputs, memories = _random_netlist(seed)
    batch = BatchSimulator(module, lanes=LANES, backend="batched")
    interps = [Simulator(module, backend="interp") for _ in range(LANES)]
    compileds = [Simulator(module, backend="compiled") for _ in range(LANES)]
    rngs = [random.Random(seed * 7919 + lane) for lane in range(LANES)]
    signals = _module_signals(module)
    for cycle in range(12):
        for lane in range(LANES):
            for sig in inputs:
                value = rngs[lane].getrandbits(sig.width)
                batch.poke(sig, value, lane=lane)
                interps[lane].poke(sig, value)
                compileds[lane].poke(sig, value)
        batch.settle()
        for sim in interps + compileds:
            sim.settle()
        for sig in signals:
            got = [batch.peek(sig, lane=lane) for lane in range(LANES)]
            want_i = [sim.peek(sig) for sim in interps]
            want_c = [sim.peek(sig) for sim in compileds]
            assert got == want_i == want_c, (seed, cycle, sig.name)
        batch.tick()
        for sim in interps + compileds:
            sim.tick()
        for mem in memories:
            lanes_view = batch.memory_lanes(mem)
            for lane in range(LANES):
                got = [int(v) for v in lanes_view[lane]]
                assert got == interps[lane].memory(mem), (seed, cycle, lane)
    assert batch.time == interps[0].time


# --- BatchSimulator API ------------------------------------------------------

def _accumulator():
    m = Module("acc")
    en = Signal(1, name="en")
    step = Signal(8, name="step")
    total = Signal(16, name="total")
    with m.If(en):
        m.d.sync += total.eq((total + step)[0:16])
    return m, en, step, total


def test_poke_broadcast_per_lane_and_single_lane():
    m, en, step, total = _accumulator()
    sim = BatchSimulator(m, lanes=4, backend="batched")
    assert sim.backend == "batched"
    sim.poke(en, 1)                      # broadcast
    sim.poke(step, [1, 2, 3, 4])         # per-lane list
    sim.tick(cycles=3)
    assert sim.peek_lanes(total).tolist() == [3, 6, 9, 12]
    sim.poke(step, 10, lane=2)           # single-lane overwrite
    sim.tick()
    assert sim.peek_lanes(total).tolist() == [4, 8, 19, 16]
    sim.poke(en, np.zeros(4, dtype=np.uint64))  # per-lane ndarray
    sim.tick(cycles=5)
    assert sim.peek_lanes(total).tolist() == [4, 8, 19, 16]
    assert sim.peek(total, lane=2) == 19


def test_poke_rejects_wrong_lane_count():
    m, en, step, total = _accumulator()
    sim = BatchSimulator(m, lanes=4, backend="batched")
    with pytest.raises(ValueError):
        sim.poke(step, [1, 2, 3])


def test_run_until_reports_per_lane_cycles():
    m, en, step, total = _accumulator()
    done = Signal(1, name="done")
    m.d.comb += done.eq(total >= 12)
    sim = BatchSimulator(m, lanes=4, backend="batched")
    sim.poke(en, 1)
    sim.poke(step, [12, 6, 4, 3])
    cycles = sim.run_until(done)
    assert cycles.tolist() == [1, 2, 3, 4]
    # Early lanes kept ticking while late lanes caught up.
    assert sim.peek_lanes(total).tolist() == [48, 24, 16, 12]


def test_run_until_timeout_names_pending_lanes():
    m, en, step, total = _accumulator()
    done = Signal(1, name="done")
    m.d.comb += done.eq(total >= 12)
    sim = BatchSimulator(m, lanes=3, backend="batched")
    sim.poke(en, [1, 0, 1])
    sim.poke(step, 12)
    with pytest.raises(TimeoutError, match=r"\[1\]"):
        sim.run_until(done, timeout=16)


def test_edge_then_settle_matches_tick():
    m, en, step, total = _accumulator()
    a = BatchSimulator(m, lanes=2, backend="batched")
    b = BatchSimulator(m, lanes=2, backend="batched")
    for sim in (a, b):
        sim.poke(en, 1)
        sim.poke(step, [5, 7])
    for _ in range(4):
        a.tick()
        b.settle()
        b.edge()
    b.settle()
    assert a.peek_lanes(total).tolist() == b.peek_lanes(total).tolist()


# --- fallback ----------------------------------------------------------------

def _comb_loop_module():
    """a and b form a combinational cycle (stable at reset values)."""
    m = Module("loop")
    a, b = Signal(8, name="a"), Signal(8, name="b")
    m.d.comb += a.eq(b)
    m.d.comb += b.eq(a)
    return m


def test_comb_loop_falls_back_to_scalar_lanes():
    # At BATCH_MIN_LANES "auto" tries the batched program first.
    sim = BatchSimulator(_comb_loop_module(), lanes=BATCH_MIN_LANES)
    assert sim.backend == "scalar-lanes"
    sim.settle()  # interpreter fixpoint per lane; must not raise


def test_backend_batched_raises_instead_of_falling_back():
    # A comb loop fails levelization (the shared CompileError); a >64-bit
    # state signal is a batch-specific block (BatchCompileError).
    with pytest.raises(CompileError):
        BatchSimulator(_comb_loop_module(), lanes=2, backend="batched")
    m = Module("wide")
    x = Signal(8, name="x")
    acc = Signal(80, name="acc")
    m.d.sync += acc.eq((acc + x)[0:80])
    with pytest.raises(BatchCompileError, match="80 bits"):
        BatchSimulator(m, lanes=2, backend="batched")


def test_wide_state_signal_falls_back():
    m = Module("wide")
    x = Signal(8, name="x")
    acc = Signal(80, name="acc")  # wider than a 64-bit lane slot
    m.d.sync += acc.eq((acc + x)[0:80])
    sim = BatchSimulator(m, lanes=BATCH_MIN_LANES)
    assert sim.backend == "scalar-lanes"
    steps = list(range(BATCH_MIN_LANES))
    sim.poke(x, steps)
    sim.tick(cycles=4)
    assert sim.peek_lanes(acc).tolist() == [4 * step for step in steps]


def test_backend_scalar_forces_fallback_with_identical_results():
    m, en, step, total = _accumulator()
    fast = BatchSimulator(m, lanes=3, backend="batched")
    slow = BatchSimulator(m, lanes=3, backend="scalar")
    assert fast.backend == "batched" and slow.backend == "scalar-lanes"
    for sim in (fast, slow):
        sim.poke(en, 1)
        sim.poke(step, [3, 5, 8])
        sim.tick(cycles=6)
    assert fast.peek_lanes(total).tolist() == slow.peek_lanes(total).tolist()


def test_unknown_backend_rejected():
    m, *_ = _accumulator()
    with pytest.raises(ValueError):
        BatchSimulator(m, lanes=2, backend="interp")


# --- BatchRtlCfuDriver -------------------------------------------------------

def _library_cfu(name="popcount"):
    model_cls, rtl_cls, opcodes = LIBRARY[name]
    return model_cls, rtl_cls, list(opcodes)


@pytest.mark.parametrize("backend", ["auto", "batched", "scalar"])
def test_batch_driver_matches_scalar_adapter(backend):
    """Ragged lanes (including an empty one): per-lane (result, cycles)
    streams equal a scalar compiled adapter run of the same sequence."""
    _, rtl_cls, opcodes = _library_cfu()
    lengths = [0, 1, 9, 17, 5]
    sequences = []
    for lane, length in enumerate(lengths):
        rng = random.Random(100 + lane)
        sequences.append([
            (f3, f7, rng.getrandbits(32), rng.getrandbits(32))
            for f3, f7 in (rng.choice(opcodes) for _ in range(length))])
    expected = []
    for sequence in sequences:
        adapter = RtlCfuAdapter(rtl_cls(), backend="compiled")
        expected.append([adapter.execute(*op) for op in sequence])
    driver = BatchRtlCfuDriver(rtl_cls(), lanes=len(lengths),
                               backend=backend)
    assert driver.run(sequences) == expected
    driver.reset()
    assert driver.run(sequences) == expected


def test_batch_driver_lane_count_mismatch():
    _, rtl_cls, _ = _library_cfu()
    driver = BatchRtlCfuDriver(rtl_cls(), lanes=3)
    with pytest.raises(ValueError):
        driver.run([[], []])


# --- golden harness / characterization ---------------------------------------

def test_assert_equivalent_batched_lanes():
    model_cls, rtl_cls, opcodes = _library_cfu()
    reports = assert_equivalent(rtl_cls(), model_cls(), opcodes,
                                count=20, seed=5, lanes=6, backend="batched")
    assert len(reports) == 6
    assert all(r.passed and r.total == 20 for r in reports)


def test_assert_equivalent_batched_reports_lane_and_seed():
    model_cls, rtl_cls, opcodes = _library_cfu()

    class WrongModel(model_cls):
        def execute(self, funct3, funct7, a, b):
            value, latency = super().execute(funct3, funct7, a, b)
            return value ^ 1, latency

    with pytest.raises(AssertionError, match="lane"):
        assert_equivalent(rtl_cls(), WrongModel(), opcodes,
                          count=5, seed=5, lanes=3, backend="batched")


def test_characterize_cfu_envelope():
    _, rtl_cls, opcodes = _library_cfu()
    envelope = characterize_cfu(rtl_cls(), opcodes, ops=6, seed=1)
    assert envelope.lanes == len(opcodes) * len(OPERAND_CLASSES)
    assert envelope.backend == ("batched"
                                if envelope.lanes >= BATCH_MIN_LANES
                                else "scalar-lanes")
    assert len(envelope.profiles) == envelope.lanes
    for profile in envelope.profiles:
        assert profile.ops == 6
        assert 0 < profile.min_cycles <= profile.mean_cycles \
            <= profile.max_cycles
    # Reproducible: same seed, same envelope record.
    again = characterize_cfu(rtl_cls(), opcodes, ops=6, seed=1)
    assert again.to_record() == envelope.to_record()


# --- lane policy and the scalar-lanes edge ------------------------------------

def test_auto_picks_backend_by_lane_count():
    m, *_ = _accumulator()
    narrow = BatchSimulator(m, lanes=BATCH_MIN_LANES - 1)
    assert narrow.backend == "scalar-lanes"
    # Below the threshold "auto" never builds the batched program.
    assert m not in _BATCH_PROGRAM_CACHE
    assert BatchSimulator(m, lanes=BATCH_MIN_LANES).backend == "batched"
    assert BatchSimulator(m, lanes=1, backend="batched").backend == "batched"
    assert BatchSimulator(m, lanes=256, backend="scalar").backend \
        == "scalar-lanes"


def _shipped_sequences(name, lanes, ops=12):
    """(gateware factory, per-lane op streams) for a shipped CFU."""
    if name == "winograd":
        return (lambda: WinogradRtl(**small_cfu()),
                [_directed_sequence(lane, rounds=1) for lane in range(lanes)])
    target = characterization_targets()[name]
    sequences = []
    for lane in range(lanes):
        rng = random.Random(f"{name}:{lane}")
        sequence = list(target.setup(rng)) if target.setup else []
        sequence += [(f3, f7, rng.getrandbits(32), rng.getrandbits(32))
                     for f3, f7 in (rng.choice(target.opcodes)
                                    for _ in range(ops))]
        sequences.append(sequence)
    return target.factory, sequences


@pytest.mark.parametrize("name", ["kws-cfu2", "mnv2-mac4", "mnv2-postproc",
                                  "mnv2-cfu1", "winograd"])
def test_scalar_lanes_driver_matches_adapter(name):
    """Scalar lanes run the adapter's handshake lane by lane: every
    (result, cycles) pair equals the scalar adapter's."""
    factory, sequences = _shipped_sequences(name, lanes=3)
    driver = BatchRtlCfuDriver(factory(), lanes=3)
    assert driver.backend == "scalar-lanes"
    assert all(sim.backend == "compiled" for sim in driver.sim.sims)
    expected = []
    for sequence in sequences:
        adapter = RtlCfuAdapter(factory())
        expected.append([adapter.execute(*op) for op in sequence])
    assert driver.run(sequences) == expected


@pytest.mark.parametrize("seed", range(6))
def test_compiled_edge_then_settle_matches_tick(seed):
    module, inputs, memories = _random_netlist(seed)
    ticked = Simulator(module, backend="interp")
    edged = Simulator(module, backend="compiled")
    rng = random.Random(seed)
    for _ in range(10):
        for sig in inputs:
            value = rng.getrandbits(sig.width)
            ticked.poke(sig, value)
            edged.poke(sig, value)
        ticked.tick()
        edged.settle()
        edged.edge()
        edged.settle()
        for sig in _module_signals(module):
            assert edged.peek(sig) == ticked.peek(sig), (seed, sig.name)
        for mem in memories:
            assert edged.memory(mem) == ticked.memory(mem), seed
    assert edged.time == ticked.time == 10


def _looped_counter():
    """A sync counter next to a comb loop: no lane can be compiled."""
    m = _comb_loop_module()
    step = Signal(8, name="step")
    count = Signal(8, name="count")
    m.d.sync += count.eq((count + step)[0:8])
    return m, step, count


@pytest.mark.parametrize("lanes", [2, BATCH_MIN_LANES])
def test_interpreted_lanes_edge_and_tracer(lanes):
    m, step, count = _looped_counter()
    sim = BatchSimulator(m, lanes=lanes)
    assert sim.backend == "scalar-lanes"
    assert all(lane.backend == "interp" for lane in sim.sims)
    seen = []
    sim.add_tracer(lambda time, s: seen.append(
        (time, s.peek_lanes(count).tolist())))
    steps = [lane + 1 for lane in range(lanes)]
    sim.poke(step, steps)
    for _ in range(3):
        sim.settle()
        sim.edge()
    sim.settle()
    assert sim.peek_lanes(count).tolist() == [3 * s for s in steps]
    assert seen == [(t, [t * s for s in steps]) for t in (1, 2, 3)]


def test_compiled_edge_with_tracer_fires_once_per_edge():
    m, en, step, total = _accumulator()
    sim = BatchSimulator(m, lanes=2, backend="scalar")
    seen = []
    sim.add_tracer(lambda time, s: seen.append(
        (time, s.peek_lanes(total).tolist())))
    lane_seen = []
    sim.sims[0].add_tracer(lambda time, s: lane_seen.append(
        (time, s.peek(total))))
    sim.poke(en, 1)
    sim.poke(step, [2, 5])
    for _ in range(3):
        sim.settle()
        sim.edge()
    # Tracers see settled state: a traced lane edge is a full tick.
    assert seen == [(1, [2, 5]), (2, [4, 10]), (3, [6, 15])]
    assert lane_seen == [(1, 2), (2, 4), (3, 6)]
