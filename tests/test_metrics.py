"""The metrics registry and its cross-layer producers.

Covers the registry primitives (counters/gauges/histograms, labels,
merge associativity, snapshot round-trip) and every subsystem feed: the
ISA machine, the timing caches, the SoC bus traffic accounting, the
metered CFU, and the TFLM interpreter listener.
"""

import pytest

from repro.cfu.interface import CfuModel, MeteredCfu
from repro.core.metrics import (
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
)


# --- registry primitives --------------------------------------------------------------

def test_counter_labels_and_values():
    reg = MetricsRegistry()
    reg.counter("ops", kind="alu").add(10)
    reg.counter("ops", kind="alu").inc()
    reg.counter("ops", kind="mul").add(3)
    assert reg.value("ops", kind="alu") == 11
    assert reg.value("ops", kind="mul") == 3
    assert len(reg) == 2
    assert "ops" in reg and "nope" not in reg


def test_counter_rejects_negative_and_kind_conflicts():
    reg = MetricsRegistry()
    reg.counter("x").add(1)
    with pytest.raises(ValueError):
        reg.counter("x").add(-1)
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_label_order_is_irrelevant():
    reg = MetricsRegistry()
    reg.counter("t", a=1, b=2).add(5)
    assert reg.value("t", b=2, a=1) == 5
    assert len(reg) == 1


def test_gauge_last_write_wins():
    reg = MetricsRegistry()
    reg.gauge("temp").set(10)
    reg.gauge("temp").set(7)
    assert reg.value("temp") == 7


def test_histogram_buckets_and_mean():
    reg = MetricsRegistry()
    h = reg.histogram("lat", buckets=(10, 100))
    for v in (5, 50, 500, 7):
        h.observe(v)
    assert h.counts == [2, 1, 1]  # <=10, <=100, overflow
    assert h.count == 4
    assert h.mean == pytest.approx((5 + 50 + 500 + 7) / 4)


def test_merge_adds_counters_and_histograms_gauge_wins():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("c", w="0").add(2)
    b.counter("c", w="0").add(3)
    b.counter("c", w="1").add(7)
    a.gauge("g").set(1)
    b.gauge("g").set(9)
    a.histogram("h", buckets=(10,)).observe(4)
    b.histogram("h", buckets=(10,)).observe(40)
    a.merge(b)
    assert a.value("c", w="0") == 5
    assert a.value("c", w="1") == 7
    assert a.value("g") == 9
    h = a.histogram("h", buckets=(10,))
    assert h.counts == [1, 1] and h.count == 2


def test_merge_is_associative():
    def worker(n):
        reg = MetricsRegistry()
        reg.counter("done").add(n)
        return reg

    left = worker(1).merge(worker(2).merge(worker(3)))
    right = worker(1).merge(worker(2)).merge(worker(3))
    assert left.value("done") == right.value("done") == 6


def test_histogram_merge_rejects_mismatched_buckets():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.histogram("h", buckets=(1, 2)).observe(1)
    b_h = b.histogram("h", buckets=(1, 3))
    b_h.observe(1)
    with pytest.raises(ValueError, match="bucket bounds differ"):
        a.histogram("h", buckets=(1, 2))._merge(b_h)


def test_snapshot_roundtrip_and_json(tmp_path):
    reg = MetricsRegistry()
    reg.counter("c", x=1).add(5)
    reg.gauge("g").set(2.5)
    reg.histogram("h", buckets=(10,)).observe(3)
    snap = reg.snapshot()
    assert snap["schema"] == METRICS_SCHEMA_VERSION
    back = MetricsRegistry.from_snapshot(snap)
    assert back.value("c", x=1) == 5
    assert back.value("g") == 2.5
    assert back.snapshot() == snap

    path = tmp_path / "metrics.json"
    assert reg.export_json(path) == 3
    import json

    assert json.loads(path.read_text())["schema"] == METRICS_SCHEMA_VERSION


def test_from_snapshot_rejects_unknown_schema():
    with pytest.raises(ValueError, match="unsupported metrics schema"):
        MetricsRegistry.from_snapshot({"schema": 999, "series": []})


def test_summary_is_deterministic():
    reg = MetricsRegistry()
    reg.counter("b").add(1)
    reg.counter("a", z=1).add(2)
    lines = reg.summary().splitlines()
    assert lines[0] == "metrics: 2 series"
    assert lines[1].strip().startswith("a{z=1}")


# --- subsystem feeds -----------------------------------------------------------------

class _EchoCfu(CfuModel):
    name = "echo"

    def op(self, funct3, funct7, a, b):
        return a ^ b

    def latency(self, funct3, funct7):
        return 4 if funct3 == 1 else 1


def test_metered_cfu_counts_and_passthrough():
    bare, metered = _EchoCfu(), MeteredCfu(_EchoCfu())
    assert metered.execute(1, 2, 5, 6) == bare.execute(1, 2, 5, 6)
    metered.execute(0, 0, 1, 2)
    metered.execute(1, 2, 3, 4)
    assert metered.invocations == {(1, 2): 2, (0, 0): 1}
    assert metered.total_invocations == 3
    assert metered.busy_cycles == 4 + 1 + 4
    assert metered.occupancy(90) == pytest.approx(9 / 90)
    reg = MetricsRegistry()
    metered.export_metrics(reg, run="t")
    assert reg.value("cfu_invocations", funct3=1, funct7=2, run="t") == 2
    assert reg.value("cfu_busy_cycles", run="t") == 9
    metered.clear()
    assert metered.invocations == {} and metered.busy_cycles == 0


def test_machine_export_metrics():
    from repro.cpu.assembler import assemble
    from repro.cpu.machine import Machine

    machine = Machine()
    machine.load_assembly("""
        li t0, 10
    loop:
        addi t0, t0, -1
        bnez t0, loop
        ebreak
    """)
    machine.run()
    reg = MetricsRegistry()
    machine.export_metrics(reg)
    assert reg.value("sim_instructions") == machine.instret
    assert reg.value("sim_cycles") == machine.cycles
    # Cache-size gauges are labelled by the backend tier that produced
    # them; run() defaults to the tiered "auto" backend.
    assert reg.value("sim_decode_cache_entries",
                     tier="auto") == machine.decode_cache_entries
    assert reg.value("sim_block_cache_entries",
                     tier="auto") == machine.block_cache_entries


def test_machine_export_metrics_block_tier():
    from repro.cpu.machine import Machine

    src = """
        li t0, 200
    loop:
        addi t0, t0, -1
        bnez t0, loop
        ebreak
    """
    machine = Machine()
    machine.load_assembly(src)
    machine.run(backend="auto")
    assert machine.block_cache_entries >= 1
    assert machine.block_promotions >= 1
    reg = MetricsRegistry()
    machine.export_metrics(reg)
    assert reg.value("sim_block_cache_entries",
                     tier="auto") == machine.block_cache_entries
    assert reg.value("sim_block_promotions") == machine.block_promotions
    assert reg.value("sim_block_invalidations") == \
        machine.block_invalidation_count
    assert reg.value("sim_decode_cache_entries",
                     tier="auto") == machine.decode_cache_entries

    # A step run labels the same gauges with its own tier, so the two
    # backends' cache sizes are never conflated.
    other = Machine()
    other.load_assembly(src)
    other.run(backend="step")
    assert other.block_cache_entries == 0
    reg2 = MetricsRegistry()
    other.export_metrics(reg2)
    assert reg2.value("sim_decode_cache_entries",
                      tier="step") == other.decode_cache_entries
    assert reg2.value("sim_block_cache_entries", tier="step") == 0


def test_machine_block_invalidation_metrics():
    from repro.cpu.machine import Machine

    machine = Machine()
    machine.load_assembly("""
        li t0, 50
    loop:
        addi t0, t0, -1
        bnez t0, loop
        ebreak
    """)
    machine.run(backend="auto")
    before = machine.block_invalidation_count
    assert machine.block_cache_entries >= 1
    # A store into the code page drops that page's blocks, exactly like
    # the decode cache.
    machine.halted = False
    machine.memory.write32(4, 0x00000013)
    machine._invalidate_store(4, 3)
    assert machine.block_invalidation_count > before
    assert machine.block_cache_entries == 0


def test_bus_traffic_metrics():
    from repro.boards import ARTY_A7_35T
    from repro.cpu.vexriscv import ARTY_DEFAULT
    from repro.soc import Soc

    soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
    bus = soc.bus()
    assert bus.traffic() == {}  # disabled by default
    base = soc.memory_map.get("main_ram").base
    bus.write32(base, 123)
    bus.enable_traffic_metrics()
    bus.write32(base, 123)
    bus.read32(base)
    bus.read8(base + 1)
    traffic = bus.traffic()
    assert traffic[("main_ram", "write")] == (1, 4)
    assert traffic[("main_ram", "read")] == (2, 5)
    reg = MetricsRegistry()
    bus.export_metrics(reg)
    assert reg.value("bus_bytes", region="main_ram", direction="read") == 5
    assert reg.value("bus_transactions", region="main_ram",
                     direction="write") == 1


def test_bus_csr_traffic_counted():
    from repro.boards import ARTY_A7_35T
    from repro.cpu.vexriscv import ARTY_DEFAULT
    from repro.soc import Soc

    soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
    bus = soc.bus().enable_traffic_metrics()
    uart = soc.csr_bank.get("uart_rxtx").address
    bus.write32(uart, 65)
    assert bus.traffic()[("csr", "write")] == (1, 4)


def test_tflm_metrics_listener():
    from repro.models import load
    from repro.perf.estimator import estimate_inference
    from repro.tflm.interpreter import Interpreter, metrics_listener

    import numpy as np

    model = load("dscnn_kws")
    from repro.boards import ARTY_A7_35T
    from repro.soc import Soc

    system = Soc(ARTY_A7_35T).system_config()
    estimate = estimate_inference(model, system)
    reg = MetricsRegistry()
    interp = Interpreter(model,
                         listeners=[metrics_listener(reg, estimate=estimate)])
    rng = np.random.default_rng(0)
    interp.invoke(rng.integers(-128, 128, size=model.input.shape,
                               dtype=np.int8))
    first = model.operators[0]
    assert reg.value("tflm_op_invocations", op=first.name,
                     opcode=first.opcode) == 1
    cost = next(c for c in estimate.op_costs if c.op_name == first.name)
    assert reg.value("tflm_op_cycles", op=first.name,
                     opcode=first.opcode) == int(cost.cycles)
    total_invocations = sum(
        s.value for s in reg.series() if s.name == "tflm_op_invocations")
    assert total_invocations == len(model.operators)


def test_emulator_combined_export():
    from repro.boards import ARTY_A7_35T
    from repro.cpu.vexriscv import ARTY_DEFAULT
    from repro.emu import Emulator
    from repro.soc import Soc

    cfu = MeteredCfu(_EchoCfu())
    emu = Emulator(Soc(ARTY_A7_35T, ARTY_DEFAULT), cfu=cfu)
    emu.bus.enable_traffic_metrics()
    emu.load_assembly("""
        li a0, 3
        li a1, 5
        cfu 0, 0, a2, a0, a1
        ebreak
    """, region="main_ram")
    emu.run()
    reg = MetricsRegistry()
    emu.export_metrics(reg, board="arty")
    assert reg.value("sim_instructions", board="arty") == emu.machine.instret
    assert reg.value("cfu_invocations", funct3=0, funct7=0, board="arty") == 1
    assert reg.value("bus_transactions", region="main_ram",
                     direction="read", board="arty") > 0
