"""Instruction-level profiler for the ISA machine.

The on-board half of the paper's "Profile" step: attach to a
:class:`~repro.cpu.machine.Machine`, run a program, and get cycle
attribution per symbol (from the assembler's label table) or per address
range — the same view `perf`/gprof would give on the real board via the
mcycle counter.

Two collection paths produce bit-identical attributions:

- ``run(backend="auto")`` (default) runs the profiled variant of each
  translated block, which charges every instruction's cycles into a
  per-pc bucket; :meth:`Machine._run_fast` charges the instructions it
  steps the same way.  Symbol resolution happens once per *static* pc
  via bisect when the profile is finalized.  Profiling cost is a small
  constant factor over the unprofiled run
  (``benchmarks/bench_profile_overhead.py`` holds it under 3x).
- ``run(backend="step")`` wraps the reference ``step()`` loop,
  attributing the machine's cycle delta around every single step — the
  slow, trivially-correct collector the ``auto`` path is verified
  against.

Exhausting the instruction budget no longer raises: the partial profile
is returned with :attr:`Profile.truncated` set, so a too-short budget
costs a flag check instead of the whole measurement.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from . import isa
from .machine import _specialize, classify_kind, resolve_backend


@dataclass
class ProfileEntry:
    name: str
    cycles: int = 0
    instructions: int = 0

    def cpi(self):
        return self.cycles / self.instructions if self.instructions else 0.0


@dataclass
class Profile:
    entries: dict = field(default_factory=dict)
    total_cycles: int = 0
    #: True when collection stopped on the instruction budget rather
    #: than a halt — the attribution is exact but covers a prefix.
    truncated: bool = False
    #: Executed-instruction counts by class (alu/load/branch/...).
    instruction_mix: dict = field(default_factory=dict)

    def top(self, count=10):
        # Name tie-break: equal-cycle symbols would otherwise rank in
        # dict-insertion (i.e. first-execution) order, making reports
        # and golden text outputs unstable across collection paths.
        ranked = sorted(self.entries.values(),
                        key=lambda e: (-e.cycles, e.name))
        return ranked[:count]

    def summary(self, count=10):
        lines = [f"{'symbol':24s} {'cycles':>12s} {'share':>7s} {'CPI':>6s}"]
        for entry in self.top(count):
            share = (100 * entry.cycles / self.total_cycles
                     if self.total_cycles else 0)
            lines.append(f"{entry.name:24s} {entry.cycles:>12,} "
                         f"{share:>6.1f}% {entry.cpi():>6.2f}")
        if self.truncated:
            lines.append("(truncated: instruction budget exhausted)")
        return "\n".join(lines)

    def folded(self, prefix=""):
        """Flamegraph-compatible folded-stack lines (``symbol cycles``).

        ``prefix`` prepends stack frames (semicolon-separated), letting
        callers nest profiles (e.g. ``"CONV_2D_1x1"`` per workload).
        """
        lines = []
        for entry in self.top(len(self.entries)):
            stack = f"{prefix};{entry.name}" if prefix else entry.name
            lines.append(f"{stack} {entry.cycles}")
        return lines

    def export_folded(self, path, prefix=""):
        """Write folded stacks for ``flamegraph.pl``; returns line count."""
        lines = self.folded(prefix=prefix)
        with open(path, "w") as handle:
            handle.write("\n".join(lines) + "\n")
        return len(lines)

    def export_metrics(self, registry, **labels):
        """Feed per-symbol cycles and the instruction mix into a
        :class:`~repro.core.metrics.MetricsRegistry`."""
        for entry in self.top(len(self.entries)):
            registry.counter("profile_cycles", symbol=entry.name,
                             **labels).add(int(entry.cycles))
            registry.counter("profile_instructions", symbol=entry.name,
                             **labels).add(int(entry.instructions))
        for kind_class, count in sorted(self.instruction_mix.items()):
            registry.counter("profile_mix", kind=kind_class,
                             **labels).add(int(count))
        return registry

    def __getitem__(self, name):
        return self.entries[name]

    def __contains__(self, name):
        return name in self.entries


class MachineProfiler:
    """Attributes a machine run's cycles to symbols.

    ``symbols`` maps names to start addresses (the assembler returns
    exactly this, in any order); each instruction is attributed to the
    nearest symbol at or below its pc.
    """

    def __init__(self, machine, symbols):
        self.machine = machine
        pairs = sorted((addr, name) for name, addr in symbols.items())
        self._addrs = [addr for addr, _ in pairs]
        self._names = [name for _, name in pairs]
        self.profile = Profile()
        #: pc -> [cycles, instructions]; filled by either collection path.
        self.pc_buckets = {}
        self._original_step = machine.step

    def _symbol_for(self, pc):
        index = bisect_right(self._addrs, pc) - 1
        return self._names[index] if index >= 0 else "<unknown>"

    def bucket_for_pc(self, pc):
        """Slow-path bucket creation: called once per static pc by
        translated blocks and the dispatch loop (get-or-create)."""
        bucket = [0, 0]
        self.pc_buckets[pc] = bucket
        return bucket

    def run(self, max_instructions=5_000_000, backend="auto"):
        """Run to halt (or budget) and return the :class:`Profile`.

        ``backend`` picks the execution tier exactly as in
        :meth:`Machine.run <repro.cpu.machine.Machine.run>`.
        Attribution is identical across tiers: translated blocks charge
        cycles to the same pc buckets the step loop does.

        A budget exhaustion returns the partial profile with
        ``truncated=True`` instead of discarding it.
        """
        backend = resolve_backend(backend)
        machine = self.machine
        machine.last_run_backend = backend
        if backend == "auto":
            machine._run_fast(max_instructions, profile=self)
        else:
            remaining = max_instructions
            buckets = self.pc_buckets
            while not machine.halted and remaining > 0:
                pc = machine.pc
                before = machine.cycles
                self._original_step()
                bucket = buckets.get(pc)
                if bucket is None:
                    bucket = self.bucket_for_pc(pc)
                bucket[0] += machine.cycles - before
                bucket[1] += 1
                remaining -= 1
        return self._finalize()

    def _finalize(self):
        profile = self.profile
        entries = profile.entries
        mix = profile.instruction_mix
        total_cycles = 0
        memory = self.machine.memory
        decode_cache = self.machine._decode_cache
        for pc in sorted(self.pc_buckets):
            cycles, instructions = self.pc_buckets[pc]
            name = self._symbol_for(pc)
            entry = entries.get(name)
            if entry is None:
                entry = entries.setdefault(name, ProfileEntry(name))
            entry.cycles += cycles
            entry.instructions += instructions
            total_cycles += cycles
            kind_class = self._classify(pc, memory, decode_cache)
            mix[kind_class] = mix.get(kind_class, 0) + instructions
        profile.total_cycles += total_cycles
        profile.truncated = not self.machine.halted
        # Buckets are folded in exactly once; a second run() keeps
        # accumulating into fresh buckets.
        self.pc_buckets = {}
        return profile

    @staticmethod
    def _classify(pc, memory, decode_cache):
        op = decode_cache.get(pc)
        if op is None:
            # Invalidated (self-modifying code) or reference-path run:
            # re-decode from current memory; anything unreadable or
            # no-longer-an-instruction counts as unknown.
            try:
                op = _specialize(pc, isa.decode(memory.read32(pc)))
            except Exception:
                return "unknown"
        return classify_kind(op[0])


def profile_assembly(source, timing=None, cfu=None, region_base=0,
                     max_instructions=5_000_000, backend="auto"):
    """Assemble, run, and profile a program in one call."""
    from .machine import Machine

    machine = Machine(cfu=cfu, timing=timing)
    symbols = machine.load_assembly(source, addr=region_base)
    profiler = MachineProfiler(machine, symbols)
    profile = profiler.run(max_instructions, backend=backend)
    return profile, machine
