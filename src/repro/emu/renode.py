"""Renode-style whole-system emulation.

"Renode performs ISA simulation of the CPU, combined with cycle-accurate
Verilog simulation of the CFU.  It also simulates the RAM, ROM, and
UART" (Section II-E).  :class:`Emulator` assembles exactly that: the
RV32IM machine executing against a SoC bus (RAM regions + CSR-mapped
peripherals, UART included) with the CFU realized either as gateware in
the cycle-accurate RTL simulator or as the software emulation model —
the swap the paper uses for debugging.
"""

from __future__ import annotations

import copy
import time

from ..cfu.interface import CfuModel, MeteredCfu
from ..cfu.rtl import RtlCfu, RtlCfuAdapter
from ..cpu.assembler import assemble
from ..cpu.machine import Machine, resolve_backend
from ..cpu.timing import VexTiming
from ..soc.bus import BusError
from ..soc.soc import Soc


class Emulator:
    """A SoC + CPU + optional CFU, ready to run programs.

    ``compile_cache`` accepts a :class:`~repro.core.codecache.CodeCache`
    (or a directory path, or ``True`` for the process-wide default): the
    machine then binds translated blocks from cached generated
    source instead of re-running the code generator — across processes
    when the cache is directory-backed.
    """

    def __init__(self, soc, cfu=None, with_timing=True, tracer=None,
                 rtl_backend="auto", sim_backend="auto", compile_cache=None):
        if not isinstance(soc, Soc):
            raise TypeError("Emulator requires a Soc")
        #: default ISA execution tier for run()/profile(); see
        #: :data:`repro.cpu.machine.SIM_BACKENDS`.
        self.sim_backend = resolve_backend(sim_backend)
        self.soc = soc
        self.bus = soc.bus()
        self.rtl_backend = rtl_backend
        if isinstance(cfu, RtlCfu):
            # cycle-accurate gateware simulation
            cfu = RtlCfuAdapter(cfu, backend=rtl_backend)
        if cfu is not None and not isinstance(
                cfu, (CfuModel, RtlCfuAdapter, MeteredCfu)):
            raise TypeError("cfu must be a CfuModel or RtlCfu(-Adapter)")
        self.cfu = cfu
        self.tracer = tracer
        timing = (VexTiming(soc.cpu_config, soc.memory_map)
                  if with_timing else None)
        self.machine = Machine(memory=self.bus, cfu=cfu, timing=timing)
        self.machine.compile_cache = _resolve_compile_cache(compile_cache)

    # --- program loading -------------------------------------------------------
    def _load_base(self, region, offset):
        """Address of ``offset`` into ``region``; an offset outside the
        region raises rather than loading into a neighbouring one."""
        region = self.soc.memory_map.get(region)
        if not 0 <= offset < region.size:
            raise BusError(f"offset 0x{offset:x} lies outside region "
                           f"{region.name!r} (0x{region.size:x} bytes)")
        return region.base + offset

    def load_binary(self, blob, region="sram", offset=0):
        base = self._load_base(region, offset)
        self.bus.load_bytes(base, blob)
        # Loading bypasses the store path, so drop stale decodes — but
        # only for the pages actually rewritten: blocks translated for
        # untouched pages survive a reload.
        self.machine.invalidate_pages(base, len(blob))
        self.machine.pc = base
        return base

    def load_assembly(self, source, region="sram", offset=0):
        base = self._load_base(region, offset)
        code, symbols = assemble(source, origin=base)
        self.bus.load_bytes(base, code)
        self.machine.invalidate_pages(base, len(code))
        self.machine.pc = base
        return symbols

    # --- warm state -------------------------------------------------------------
    def snapshot(self):
        """Snapshot the whole system: machine (COW memory, registers,
        timing caches, CFU) plus peripheral/CSR state and bus traffic
        counters.  O(pages later touched), not O(memory)."""
        return {
            "machine": self.machine.snapshot(),
            "csr": {register.name: register.value
                    for register in self.soc.csr_bank.registers},
            "peripherals": {
                peripheral.name: copy.deepcopy(peripheral.__dict__)
                for peripheral in [self.soc.spiflash] + self.soc.peripherals},
            "traffic": (None if self.bus._traffic is None
                        else {key: list(value)
                              for key, value in self.bus._traffic.items()}),
        }

    def restore(self, snap):
        """Restore a :meth:`snapshot`.  Returns the number of memory
        pages rewritten."""
        restored = self.machine.restore(snap["machine"])
        for register in self.soc.csr_bank.registers:
            if register.name in snap["csr"]:
                register.value = snap["csr"][register.name]
        saved_peripherals = snap["peripherals"]
        for peripheral in [self.soc.spiflash] + self.soc.peripherals:
            state = saved_peripherals.get(peripheral.name)
            if state is not None:
                peripheral.__dict__.update(copy.deepcopy(state))
        if snap["traffic"] is not None and self.bus._traffic is not None:
            self.bus._traffic.clear()
            self.bus._traffic.update(
                {key: list(value) for key, value in snap["traffic"].items()})
        return restored

    def discard_snapshot(self, snap):
        """Stop accumulating undo records for a snapshot."""
        self.machine.discard_snapshot(snap["machine"])

    # --- execution ---------------------------------------------------------------
    def run(self, max_instructions=5_000_000, backend=None):
        """Run the loaded program on ``backend`` (None: the emulator's
        ``sim_backend``)."""
        machine = self.machine
        backend = resolve_backend(backend, self.sim_backend)
        if self.tracer is None:
            return machine.run(max_instructions, backend=backend)
        instret0 = machine.instret
        invalidations0 = machine.invalidation_count
        promotions0 = machine.block_promotions
        with self.tracer.span("sim_run", backend=backend) as span:
            start = time.perf_counter()
            try:
                return machine.run(max_instructions, backend=backend)
            finally:
                elapsed = time.perf_counter() - start
                instructions = machine.instret - instret0
                span.attrs["instructions"] = instructions
                span.attrs["cycles"] = machine.cycles
                span.attrs["instructions_per_second"] = (
                    round(instructions / elapsed) if elapsed > 0 else None)
                span.attrs["decode_cache_entries"] = (
                    machine.decode_cache_entries)
                span.attrs["cache_invalidations"] = (
                    machine.invalidation_count - invalidations0)
                span.attrs["block_cache_entries"] = (
                    machine.block_cache_entries)
                span.attrs["block_promotions"] = (
                    machine.block_promotions - promotions0)
                self.tracer.count("sim_instructions", instructions)

    def profile(self, symbols, max_instructions=5_000_000, backend=None):
        """Run the loaded program under the cycle profiler.

        ``symbols`` is the name->address table :meth:`load_assembly`
        returned.  Returns the :class:`~repro.cpu.profiler.Profile`;
        records a ``sim_profile`` span when a tracer is attached.
        """
        from ..cpu.profiler import MachineProfiler

        backend = resolve_backend(backend, self.sim_backend)
        profiler = MachineProfiler(self.machine, symbols)
        if self.tracer is None:
            return profiler.run(max_instructions, backend=backend)
        with self.tracer.span("sim_profile", backend=backend) as span:
            profile = profiler.run(max_instructions, backend=backend)
            span.attrs["cycles"] = profile.total_cycles
            span.attrs["symbols"] = len(profile.entries)
            span.attrs["truncated"] = profile.truncated
            return profile

    def export_metrics(self, registry, **labels):
        """Feed machine, bus, and CFU counters into a
        :class:`~repro.core.metrics.MetricsRegistry` in one call."""
        self.machine.export_metrics(registry, **labels)
        self.bus.export_metrics(registry, **labels)
        if isinstance(self.cfu, MeteredCfu):
            self.cfu.export_metrics(registry, **labels)
        return registry

    @property
    def cycles(self):
        return self.machine.cycles

    @property
    def uart_output(self):
        return self.soc.peripheral("uart").text()

    def swap_cfu(self, cfu):
        """Swap gateware for software emulation (or vice versa) in place —
        the Section II-E debugging technique."""
        if isinstance(cfu, RtlCfu):
            cfu = RtlCfuAdapter(cfu, backend=self.rtl_backend)
        self.cfu = cfu
        self.machine.cfu = cfu
        return self


def _resolve_compile_cache(compile_cache):
    """None | True | path | CodeCache -> CodeCache or None."""
    if compile_cache is None or hasattr(compile_cache, "get"):
        return compile_cache
    from ..core.codecache import CodeCache, default_cache

    if compile_cache is True:
        return default_cache()
    return CodeCache(str(compile_cache))


def uart_putc_assembly(csr_address):
    """Assembly snippet: write a0's low byte to the UART TX register."""
    return f"""
        li t5, {csr_address}
        sw a0, 0(t5)
    """
