"""ISA-level profiler tests (the on-board 'Profile' step)."""

from repro.cpu import VexTiming
from repro.cpu.machine import Machine
from repro.cpu.profiler import MachineProfiler, Profile, ProfileEntry, profile_assembly
from repro.cpu.vexriscv import VexRiscvConfig

PROGRAM = """
main:
    li s0, 30
    li a0, 0
main_loop:
    call hot_function
    call cold_function
    addi s0, s0, -1
    bnez s0, main_loop
    li a7, 93
    ecall

hot_function:
    li t0, 40
hot_loop:
    mul t1, t0, t0
    add a0, a0, t1
    addi t0, t0, -1
    bnez t0, hot_loop
    ret

cold_function:
    addi a0, a0, 1
    ret
"""


def run_profile(config=None):
    timing = VexTiming(config) if config else None
    return profile_assembly(PROGRAM, timing=timing)


def test_hot_function_dominates():
    profile, machine = run_profile()
    assert machine.halted
    assert profile["hot_loop"].cycles > profile["cold_function"].cycles * 10
    top = profile.top(1)[0]
    assert top.name == "hot_loop"


def test_cycles_attributed_completely():
    profile, machine = run_profile()
    assert profile.total_cycles == machine.cycles
    assert sum(e.cycles for e in profile.entries.values()) == machine.cycles


def test_cpi_reflects_timing_model():
    untimed, _ = run_profile()
    timed, _ = run_profile(VexRiscvConfig(multiplier="iterative"))
    assert untimed["hot_loop"].cpi() == 1.0
    assert timed["hot_loop"].cpi() > 2.0  # iterative multiplies stall


def test_call_sites_attributed_to_caller():
    profile, _ = run_profile()
    assert profile["main_loop"].instructions >= 30 * 4  # calls + loop


def test_summary_renders():
    profile, _ = run_profile()
    text = profile.summary()
    assert "hot_loop" in text
    assert "CPI" in text


def test_budget_exhaustion_returns_truncated_partial_profile():
    """Exhausting the budget keeps the measurement instead of raising —
    the original profiler threw the whole run away here."""
    profile, machine = profile_assembly(PROGRAM, max_instructions=100)
    assert not machine.halted
    assert profile.truncated
    assert profile.total_cycles == machine.cycles  # exact, just a prefix
    assert "(truncated" in profile.summary()

    complete, _ = profile_assembly(PROGRAM)
    assert not complete.truncated
    assert "(truncated" not in complete.summary()


def test_symbols_accepted_in_any_order():
    """Symbol attribution bisects a sorted table; the input dict order
    (and any interleaving of addresses) must not matter."""
    machine = Machine()
    symbols = machine.load_assembly(PROGRAM)
    scrambled = dict(reversed(list(symbols.items())))
    profile = MachineProfiler(machine, scrambled).run()
    assert profile.top(1)[0].name == "hot_loop"
    assert profile.total_cycles == machine.cycles


def test_top_breaks_cycle_ties_by_name():
    profile = Profile(entries={
        "zeta": ProfileEntry("zeta", cycles=10, instructions=1),
        "alpha": ProfileEntry("alpha", cycles=10, instructions=1),
        "mid": ProfileEntry("mid", cycles=20, instructions=1),
    }, total_cycles=40)
    assert [e.name for e in profile.top(3)] == ["mid", "alpha", "zeta"]


def test_instruction_mix_collected():
    profile, machine = run_profile()
    mix = profile.instruction_mix
    assert sum(mix.values()) == machine.instret
    assert mix["mul"] == 30 * 40          # one mul per hot_loop pass
    assert mix["jump"] >= 30 * 4          # call/ret pairs
    assert mix["branch"] > 0 and mix["alu"] > 0


def test_folded_export(tmp_path):
    profile, _ = run_profile()
    lines = profile.folded(prefix="kws")
    assert lines[0].startswith("kws;hot_loop ")
    bare = profile.folded()
    assert bare[0].startswith("hot_loop ")
    path = tmp_path / "profile.folded"
    assert profile.export_folded(path) == len(profile.entries)
    assert path.read_text().splitlines() == bare


def test_fast_false_matches_fast_true():
    """The reference step() collector stays available and identical."""
    fast, fast_machine = profile_assembly(PROGRAM, backend="auto")
    ref, ref_machine = profile_assembly(PROGRAM, backend="step")
    assert fast_machine.cycles == ref_machine.cycles
    assert {n: (e.cycles, e.instructions) for n, e in fast.entries.items()} \
        == {n: (e.cycles, e.instructions) for n, e in ref.entries.items()}
    assert fast.instruction_mix == ref.instruction_mix


def test_profile_guides_optimization():
    """The deploy-profile-optimize loop at ISA level: the profile says
    'multiplies in hot_loop'; upgrading the multiplier fixes exactly
    that entry."""
    slow_cfg = VexRiscvConfig(multiplier="iterative")
    fast_cfg = VexRiscvConfig(multiplier="single_cycle")
    slow, slow_machine = run_profile(slow_cfg)
    fast, fast_machine = run_profile(fast_cfg)
    hot_saving = slow["hot_loop"].cycles - fast["hot_loop"].cycles
    total_saving = slow_machine.cycles - fast_machine.cycles
    assert hot_saving / total_saving > 0.95  # the win lands in the hotspot
