"""Equivalence checking by co-simulation (a formal-lite verification aid).

Drives two module implementations with identical randomized stimulus and
compares their observable outputs cycle by cycle — the workhorse check
when refactoring a CFU (e.g. pipelining a datapath or moving an FSM) and
wanting confidence that behaviour is preserved.

Stimulus-order contract
-----------------------

The random stimulus of :func:`check_equivalence` is a pure function of
``(seed, inputs, input_bias, cycles)``.  Each cycle draws exactly one
value per input, **in list order**, from a single ``random.Random(seed)``
stream: for cycle ``c`` and the ``i``-th input, the value is the
``(c * len(inputs) + i)``-th draw, where a draw is one
``rng.getrandbits(width)`` call (or one ``input_bias[sig](rng)`` call
for biased inputs).  Nothing else consumes the stream.  This contract is
what makes batched lane seeding (:func:`check_equivalence_batch`)
provably reproducible: lane ``k`` owns a private ``random.Random`` built
from ``seeds[k]`` and draws from it in exactly the order above, so every
lane sees bit-for-bit the stimulus a sequential
``check_equivalence(seed=seeds[k])`` call would generate.  The contract
is regression-tested (``tests/test_rtl_equiv.py``); changing the draw
order is a breaking change.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .sim import Simulator


@dataclass
class EquivalenceMismatch:
    cycle: int
    signal_name: str
    value_a: int
    value_b: int

    def __str__(self):
        return (f"cycle {self.cycle}: {self.signal_name}: "
                f"a=0x{self.value_a:x} b=0x{self.value_b:x}")


@dataclass
class EquivalenceReport:
    cycles: int = 0
    mismatches: list = field(default_factory=list)
    truncated: bool = False
    seed: int | None = None

    @property
    def equivalent(self):
        return not self.mismatches


def _stimulus_pairs(inputs, outputs):
    def pairs(items):
        return [item if isinstance(item, tuple) else (item, item)
                for item in items]

    return pairs(inputs), pairs(outputs)


def _draw(rng, sig, input_bias):
    generator = (input_bias or {}).get(sig)
    return generator(rng) if generator else rng.getrandbits(sig.width)


def check_equivalence(module_a, module_b, inputs, outputs, cycles=200,
                      seed=0, settle_only=False, input_bias=None,
                      backend="auto", max_mismatches=10):
    """Co-simulate two modules under identical random stimulus.

    ``inputs``/``outputs`` are lists whose items are either a signal
    shared by both modules, or an ``(a_signal, b_signal)`` pair when the
    two designs use distinct signal objects.  ``input_bias`` optionally
    maps a (first) input signal to a callable(rng) producing its value.
    ``backend`` selects the simulation backend for both sides
    (``"auto"``/``"compiled"``/``"interp"``).

    The check stops early once ``max_mismatches`` mismatches have been
    collected (checked at the end of each cycle); the returned report
    then has ``truncated=True`` — later cycles were *not* compared, so
    the mismatch list is a lower bound.  Pass ``max_mismatches=None``
    to always compare all ``cycles`` cycles.  See the module docstring
    for the stimulus-order contract.
    """
    input_pairs, output_pairs = _stimulus_pairs(inputs, outputs)
    sim_a = Simulator(module_a, backend=backend)
    sim_b = Simulator(module_b, backend=backend)
    rng = random.Random(seed)
    report = EquivalenceReport(seed=seed)
    for cycle in range(cycles):
        for sig_a, sig_b in input_pairs:
            value = _draw(rng, sig_a, input_bias)
            sim_a.poke(sig_a, value)
            sim_b.poke(sig_b, value)
        sim_a.settle()
        sim_b.settle()
        for sig_a, sig_b in output_pairs:
            value_a = sim_a.peek(sig_a)
            value_b = sim_b.peek(sig_b)
            if value_a != value_b:
                report.mismatches.append(EquivalenceMismatch(
                    cycle, sig_a.name, value_a, value_b))
        if not settle_only:
            sim_a.tick()
            sim_b.tick()
        report.cycles += 1
        if (max_mismatches is not None
                and len(report.mismatches) >= max_mismatches):
            report.truncated = report.cycles < cycles
            break
    return report


def check_equivalence_batch(module_a, module_b, inputs, outputs,
                            seeds, cycles=200, settle_only=False,
                            input_bias=None, backend="auto",
                            max_mismatches=10):
    """Run ``check_equivalence`` for N seeds in ONE lane-parallel pass.

    Lane ``k`` carries the co-simulation that a sequential
    ``check_equivalence(..., seed=seeds[k])`` call would run: it draws
    stimulus from its own ``random.Random(seeds[k])`` stream in the
    contractual per-cycle, per-input order (see module docstring), so
    the returned list of :class:`EquivalenceReport` is element-for-
    element identical — cycles, mismatch lists, truncation flags — to a
    loop of sequential calls over the same seeds.

    Early-stop semantics are replicated per lane: a lane that reaches
    ``max_mismatches`` stops drawing stimulus and comparing outputs (its
    inputs freeze at their last values while the shared clock keeps
    running for the other lanes), exactly as the sequential ``break``
    would; its report records ``truncated=True``.

    ``backend`` selects the batched backend (``"auto"``/``"batched"``/
    ``"scalar"``).  ``"auto"`` runs lockstep scalar lanes for fewer
    than :data:`~repro.rtl.batched.BATCH_MIN_LANES` seeds, and for
    netlists that cannot be vectorized (comb loops, >64-bit signals);
    the lane-parallel program otherwise.  Reports are identical on
    either.
    """
    from .batched import BatchSimulator  # lazy: pulls in NumPy

    seeds = list(seeds)
    lanes = len(seeds)
    if lanes == 0:
        return []
    input_pairs, output_pairs = _stimulus_pairs(inputs, outputs)
    sim_a = BatchSimulator(module_a, lanes=lanes, backend=backend)
    sim_b = BatchSimulator(module_b, lanes=lanes, backend=backend)
    rngs = [random.Random(seed) for seed in seeds]
    reports = [EquivalenceReport(seed=seed) for seed in seeds]
    active = [True] * lanes
    # Inactive lanes keep their previous stimulus (the values do not
    # matter — the lane is never compared again — but the shared poke
    # needs a defined value for every lane).
    held = [[0] * lanes for _ in input_pairs]
    for cycle in range(cycles):
        if not any(active):
            break
        for index, (sig_a, sig_b) in enumerate(input_pairs):
            values = held[index]
            for lane in range(lanes):
                if active[lane]:
                    values[lane] = _draw(rngs[lane], sig_a, input_bias)
            sim_a.poke(sig_a, list(values))
            sim_b.poke(sig_b, list(values))
        sim_a.settle()
        sim_b.settle()
        for sig_a, sig_b in output_pairs:
            values_a = sim_a.peek_lanes(sig_a)
            values_b = sim_b.peek_lanes(sig_b)
            for lane in range(lanes):
                if active[lane] and values_a[lane] != values_b[lane]:
                    reports[lane].mismatches.append(EquivalenceMismatch(
                        cycle, sig_a.name,
                        int(values_a[lane]), int(values_b[lane])))
        if not settle_only:
            sim_a.tick()
            sim_b.tick()
        for lane in range(lanes):
            if not active[lane]:
                continue
            reports[lane].cycles += 1
            if (max_mismatches is not None
                    and len(reports[lane].mismatches) >= max_mismatches):
                reports[lane].truncated = reports[lane].cycles < cycles
                active[lane] = False
    return reports


def assert_modules_equivalent(module_a, module_b, inputs, outputs,
                              cycles=200, seed=0, **kwargs):
    """Raise AssertionError with mismatch details unless equivalent."""
    report = check_equivalence(module_a, module_b, inputs, outputs,
                               cycles=cycles, seed=seed, **kwargs)
    if not report.equivalent:
        shown = "\n".join(str(m) for m in report.mismatches[:5])
        count = (f">={len(report.mismatches)} mismatches, "
                 f"comparison truncated after cycle {report.cycles - 1}"
                 if report.truncated
                 else f"{len(report.mismatches)} mismatches")
        raise AssertionError(f"modules diverge ({count}):\n{shown}")
    return report
