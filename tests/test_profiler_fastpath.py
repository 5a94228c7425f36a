"""Fast-path profiler parity: the translated-block collection path must
be bit-identical to the reference step() collector.

This is the core guarantee of the profiler: ``run(backend="auto")``
(cycle attribution inside translated blocks and :meth:`Machine._run_fast`)
and ``run(backend="step")`` (cycle deltas around every reference
``step()``) produce the *same*
per-symbol cycle and instruction maps, on real firmware images — the KWS
dot-product firmware and the MNV2 1x1-convolution firmware, with their
CFUs attached.
"""

import pytest

from repro.accel import KwsCfu, Mnv2Cfu
from repro.boards import ARTY_A7_35T
from repro.cpu.profiler import MachineProfiler
from repro.cpu.vexriscv import ARTY_DEFAULT
from repro.emu import Emulator
from repro.soc import Soc

from .test_integration_firmware import (
    N,
    firmware,
    load_mnv2_firmware,
    make_vectors,
)


def _kws_setup():
    soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
    emu = Emulator(soc, cfu=KwsCfu())
    ram = soc.memory_map.get("main_ram").base
    data_base = ram + 0x1000
    uart = soc.csr_bank.get("uart_rxtx").address
    a, b = make_vectors(7)
    emu.bus.load_bytes(data_base, a.tobytes())
    emu.bus.load_bytes(data_base + N, b.tobytes())
    symbols = emu.load_assembly(firmware(data_base, uart), region="main_ram")
    return emu, symbols


def _mnv2_setup():
    soc = Soc(ARTY_A7_35T, ARTY_DEFAULT)
    emu = Emulator(soc, cfu=Mnv2Cfu())
    symbols, _, _ = load_mnv2_firmware(emu, soc, seed=2)
    return emu, symbols


_FIRMWARE = {"kws": _kws_setup, "mnv2": _mnv2_setup}


def _symbol_map(profile):
    return {name: (entry.cycles, entry.instructions)
            for name, entry in profile.entries.items()}


@pytest.mark.parametrize("image", sorted(_FIRMWARE))
def test_fast_and_reference_profiles_identical(image):
    setup = _FIRMWARE[image]
    emu_fast, symbols_fast = setup()
    fast = MachineProfiler(emu_fast.machine, symbols_fast).run(backend="auto")
    emu_ref, symbols_ref = setup()
    ref = MachineProfiler(emu_ref.machine, symbols_ref).run(backend="step")

    assert _symbol_map(fast) == _symbol_map(ref)
    assert fast.total_cycles == ref.total_cycles
    assert fast.instruction_mix == ref.instruction_mix
    assert not fast.truncated and not ref.truncated
    # The two paths really ran the same machine state to completion.
    assert emu_fast.machine.cycles == emu_ref.machine.cycles
    assert emu_fast.machine.instret == emu_ref.machine.instret
    # Attribution is complete: every cycle the run took is attributed.
    assert fast.total_cycles == emu_fast.machine.cycles


@pytest.mark.parametrize("image", sorted(_FIRMWARE))
def test_fast_and_reference_agree_under_budget_truncation(image):
    """Exhausting the budget mid-run keeps the two paths identical too."""
    setup = _FIRMWARE[image]
    emu_fast, symbols_fast = setup()
    fast = MachineProfiler(emu_fast.machine, symbols_fast).run(
        max_instructions=50, backend="auto")
    emu_ref, symbols_ref = setup()
    ref = MachineProfiler(emu_ref.machine, symbols_ref).run(
        max_instructions=50, backend="step")

    assert fast.truncated and ref.truncated
    assert _symbol_map(fast) == _symbol_map(ref)
    assert fast.total_cycles == ref.total_cycles == emu_fast.machine.cycles


def test_folded_export_matches_entries(tmp_path):
    emu, symbols = _kws_setup()
    profile = MachineProfiler(emu.machine, symbols).run()
    path = tmp_path / "kws.folded"
    count = profile.export_folded(path, prefix="kws")
    lines = path.read_text().splitlines()
    assert count == len(lines) == len(profile.entries)
    assert all(line.startswith("kws;") for line in lines)
    top = profile.top(1)[0]
    assert lines[0] == f"kws;{top.name} {top.cycles}"
