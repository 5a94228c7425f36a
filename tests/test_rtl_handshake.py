"""The scalar CFU handshake (:func:`repro.cfu.rtl.handshake`).

``RtlCfuAdapter.execute`` and the scalar-lanes branch of
``BatchRtlCfuDriver.run`` share one handshake that costs one comb pass
and one sync pass per clock.  These tests pin that cost, the
bit-identity of every path against the others, the timeout and
driven-port errors, reset/restore, and tracing.
"""

import pytest

from tests.test_rtl_batched import _shipped_sequences

from repro.cfu import BatchRtlCfuDriver, CfuError, RtlCfu, RtlCfuAdapter
from repro.cfu.rtl import CombinationalCfu
from repro.emu.waveform import VcdWriter
from repro.rtl import BATCH_MIN_LANES

SHIPPED = ["kws-cfu2", "mnv2-mac4", "mnv2-postproc", "mnv2-cfu1",
           "winograd"]


def _count_passes(sim):
    """Wrap a compiled simulator's comb and sync programs with counters."""
    counts = {"comb": 0, "sync": 0}

    def counted(kind, fn):
        def run(vals, mems):
            counts[kind] += 1
            fn(vals, mems)
        return run

    sim._comb = counted("comb", sim._comb)
    sim._tick = counted("sync", sim._tick)
    return counts


@pytest.mark.parametrize("name", SHIPPED)
def test_adapter_pays_one_comb_and_one_sync_pass_per_clock(name):
    factory, (sequence,) = _shipped_sequences(name, lanes=1)
    adapter = RtlCfuAdapter(factory())
    assert adapter.sim.backend == "compiled"
    counts = _count_passes(adapter.sim)
    results = [adapter.execute(*op) for op in sequence]
    clocks = adapter.sim.time
    assert clocks >= sum(cycles for _, cycles in results)
    assert counts == {"comb": clocks, "sync": clocks}


@pytest.mark.parametrize("name", SHIPPED)
def test_scalar_lanes_pay_one_comb_and_one_sync_pass_per_clock(name):
    factory, sequences = _shipped_sequences(name, lanes=3)
    driver = BatchRtlCfuDriver(factory(), lanes=3)
    assert driver.backend == "scalar-lanes"
    counts = [_count_passes(sim) for sim in driver.sim.sims]
    driver.run(sequences)
    for sim, lane_counts in zip(driver.sim.sims, counts):
        assert sim.time > 0
        assert lane_counts == {"comb": sim.time, "sync": sim.time}
    assert driver.sim.time == max(sim.time for sim in driver.sim.sims)


@pytest.mark.parametrize("lanes", [1, 3, BATCH_MIN_LANES])
@pytest.mark.parametrize("name", SHIPPED)
def test_adapter_scalar_lanes_and_batched_agree(name, lanes):
    factory, sequences = _shipped_sequences(name, lanes=lanes)
    adapter = RtlCfuAdapter(factory())
    expected = []
    for sequence in sequences:
        adapter.reset()
        expected.append([adapter.execute(*op) for op in sequence])
    for backend in ("scalar", "batched"):
        driver = BatchRtlCfuDriver(factory(), lanes=lanes, backend=backend)
        assert driver.run(sequences) == expected, backend


# --- timeouts and driven ports ------------------------------------------------

class _NeverReady(RtlCfu):
    name = "never-ready"

    def elaborate(self, m, ports):
        m.d.comb += ports.cmd_ready.eq(0)


class _NeverResponds(RtlCfu):
    name = "never-responds"

    def elaborate(self, m, ports):
        m.d.comb += ports.cmd_ready.eq(1)
        m.d.comb += ports.rsp_valid.eq(0)


class _DrivesCommand(RtlCfu):
    name = "drives-command"

    def elaborate(self, m, ports):
        m.d.comb += ports.cmd_ready.eq(1)
        m.d.comb += ports.rsp_valid.eq(ports.cmd_valid)
        m.d.sync += ports.cmd_in1.eq(ports.cmd_in0)


TIMEOUTS = [(_NeverReady, "command never accepted"),
            (_NeverResponds, "no response after 6 cycles")]


@pytest.mark.parametrize("backend", ["compiled", "interp"])
@pytest.mark.parametrize("cfu,message", TIMEOUTS,
                         ids=[cfu.name for cfu, _ in TIMEOUTS])
def test_adapter_timeout_raises(cfu, message, backend):
    adapter = RtlCfuAdapter(cfu(), timeout=5, backend=backend)
    with pytest.raises(CfuError, match=f"never-.* \\(rtl\\): {message}"):
        adapter.execute(0, 0, 1, 2)


@pytest.mark.parametrize("cfu,message", TIMEOUTS,
                         ids=[cfu.name for cfu, _ in TIMEOUTS])
def test_scalar_lanes_timeout_names_the_lane(cfu, message):
    driver = BatchRtlCfuDriver(cfu(), lanes=3, timeout=5)
    assert driver.backend == "scalar-lanes"
    with pytest.raises(CfuError, match=f"lane 1: {message}"):
        driver.run([[], [(0, 0, 1, 2)], [(0, 0, 3, 4)]])


@pytest.mark.parametrize("backend", ["compiled", "interp"])
def test_driven_command_port_is_rejected(backend):
    with pytest.raises(ValueError, match="cannot poke driven signal cmd_in1"):
        RtlCfuAdapter(_DrivesCommand(), backend=backend)
    driver = BatchRtlCfuDriver(_DrivesCommand(), lanes=2)
    with pytest.raises(ValueError, match="cannot poke driven signal cmd_in1"):
        driver.run([[(0, 0, 1, 2)], []])


class _EchoIn0(CombinationalCfu):
    name = "echo-in0"

    def datapath(self, m, ports):
        return ports.cmd_in0


def test_unread_port_takes_the_poke_path():
    """A port the program never reads (cmd_funct7 here) is written where
    poke() puts it, and peek() reads it back."""
    adapter = RtlCfuAdapter(_EchoIn0(), backend="compiled")
    funct7 = adapter.ports.cmd_funct7
    assert id(funct7) not in adapter.sim.program.slot_of
    assert adapter.execute(0, 0x85, 1, 2) == (1, 1)
    assert adapter.sim.peek(funct7) == 0x05


# --- reset, restore, tracers ----------------------------------------------------

@pytest.mark.parametrize("backend", ["compiled", "interp"])
def test_reset_and_restore_match_a_fresh_adapter(backend):
    factory, (sequence,) = _shipped_sequences("mnv2-cfu1", lanes=1)
    fresh = RtlCfuAdapter(factory(), backend=backend)
    expected = [fresh.execute(*op) for op in sequence]
    half = len(sequence) // 2

    adapter = RtlCfuAdapter(factory(), backend=backend)
    assert [adapter.execute(*op) for op in sequence[:half]] \
        == expected[:half]
    saved = adapter.snapshot_state()
    time_then = adapter.sim.time
    assert [adapter.execute(*op) for op in sequence[half:]] \
        == expected[half:]
    adapter.restore_state(saved)
    assert adapter.sim.time == time_then
    assert [adapter.execute(*op) for op in sequence[half:]] \
        == expected[half:]
    assert adapter.sim.time == fresh.sim.time
    adapter.reset()
    assert [adapter.execute(*op) for op in sequence] == expected
    assert adapter.sim.time == fresh.sim.time


@pytest.mark.parametrize("name", ["kws-cfu2", "mnv2-cfu1"])
def test_traced_adapter_matches_untraced(name):
    """The VCD path: a traced edge is a full tick, so results, cycles
    and time match an untraced run, the tracer fires once per clock,
    and both backends write the same waveform."""
    factory, (sequence,) = _shipped_sequences(name, lanes=1)
    plain = RtlCfuAdapter(factory())
    expected = [plain.execute(*op) for op in sequence]
    waveforms = []
    for backend in ("compiled", "interp"):
        cfu = factory()
        traced = RtlCfuAdapter(cfu, backend=backend)
        writer = VcdWriter(cfu.ports.all(), module="dut")
        fired = []
        traced.sim.add_tracer(writer)
        traced.sim.add_tracer(lambda time, sim: fired.append(time))
        assert [traced.execute(*op) for op in sequence] == expected
        assert traced.sim.time == plain.sim.time
        assert fired == list(range(1, plain.sim.time + 1))
        waveforms.append(writer.text())
    assert waveforms[0] == waveforms[1]


def test_batch_tracer_on_scalar_lanes_fires_once_per_clock():
    factory, sequences = _shipped_sequences("mnv2-cfu1", lanes=3)
    expected = BatchRtlCfuDriver(factory(), lanes=3).run(sequences)
    driver = BatchRtlCfuDriver(factory(), lanes=3)
    assert driver.backend == "scalar-lanes"
    fired = []
    driver.sim.add_tracer(lambda time, sim: fired.append(time))
    assert driver.run(sequences) == expected
    assert fired == list(range(1, driver.sim.time + 1))
    assert driver.sim.time > 0
