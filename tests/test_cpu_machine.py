"""Machine semantics tests: RV32IM arithmetic against a Python oracle."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cpu import Machine, MemoryAccessError, SparseMemory, VexTiming
from repro.cpu.vexriscv import VexRiscvConfig

u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


def _sext(x):
    return x - (1 << 32) if x & 0x80000000 else x


def run_binop(mnemonic, a, b):
    machine = Machine()
    machine.load_assembly(f"""
        {mnemonic} a2, a0, a1
        li a7, 93
        ecall
    """)
    machine.set_reg(10, a)
    machine.set_reg(11, b)
    machine.run()
    return machine.regs[12]


@given(a=u32, b=u32)
def test_add_sub_semantics(a, b):
    assert run_binop("add", a, b) == (a + b) & 0xFFFFFFFF
    assert run_binop("sub", a, b) == (a - b) & 0xFFFFFFFF


@given(a=u32, b=u32)
def test_logic_semantics(a, b):
    assert run_binop("and", a, b) == a & b
    assert run_binop("or", a, b) == a | b
    assert run_binop("xor", a, b) == a ^ b


@given(a=u32, b=u32)
def test_compare_semantics(a, b):
    assert run_binop("sltu", a, b) == int(a < b)
    assert run_binop("slt", a, b) == int(_sext(a) < _sext(b))


@given(a=u32, shamt=st.integers(0, 31))
def test_shift_semantics(a, shamt):
    assert run_binop("sll", a, shamt) == (a << shamt) & 0xFFFFFFFF
    assert run_binop("srl", a, shamt) == a >> shamt
    assert run_binop("sra", a, shamt) == (_sext(a) >> shamt) & 0xFFFFFFFF


@given(a=u32, b=u32)
def test_mul_semantics(a, b):
    sa, sb = _sext(a), _sext(b)
    assert run_binop("mul", a, b) == (sa * sb) & 0xFFFFFFFF
    assert run_binop("mulh", a, b) == ((sa * sb) >> 32) & 0xFFFFFFFF
    assert run_binop("mulhu", a, b) == ((a * b) >> 32) & 0xFFFFFFFF
    assert run_binop("mulhsu", a, b) == ((sa * b) >> 32) & 0xFFFFFFFF


@given(a=u32, b=u32)
def test_div_semantics(a, b):
    sa, sb = _sext(a), _sext(b)
    if b == 0:
        assert run_binop("div", a, b) == 0xFFFFFFFF
        assert run_binop("divu", a, b) == 0xFFFFFFFF
        assert run_binop("rem", a, b) == a
        assert run_binop("remu", a, b) == a
    else:
        q = abs(sa) // abs(sb)
        if (sa < 0) != (sb < 0):
            q = -q
        assert run_binop("div", a, b) == q & 0xFFFFFFFF
        assert run_binop("divu", a, b) == a // b
        assert run_binop("rem", a, b) == (sa - q * sb) & 0xFFFFFFFF
        assert run_binop("remu", a, b) == a % b


def test_div_overflow_case():
    # INT32_MIN / -1 overflows: result is INT32_MIN per spec.
    assert run_binop("div", 0x80000000, 0xFFFFFFFF) == 0x80000000


def test_load_store_widths_and_sign_extension():
    machine = Machine()
    machine.load_assembly("""
        li t0, 0x2000
        li a0, 0xFFFFFF80
        sb a0, 0(t0)
        lb a1, 0(t0)
        lbu a2, 0(t0)
        li a0, 0xFFFF8000
        sh a0, 4(t0)
        lh a3, 4(t0)
        lhu a4, 4(t0)
        li a7, 93
        ecall
    """)
    machine.run()
    assert machine.regs[11] == 0xFFFFFF80
    assert machine.regs[12] == 0x80
    assert machine.regs[13] == 0xFFFF8000
    assert machine.regs[14] == 0x8000


def test_x0_is_hardwired_zero():
    machine = Machine()
    machine.load_assembly("""
        li a0, 99
        add x0, a0, a0
        add a1, x0, x0
        li a7, 93
        ecall
    """)
    machine.run()
    assert machine.regs[0] == 0
    assert machine.regs[11] == 0


def test_fibonacci_program():
    machine = Machine()
    machine.load_assembly("""
        li a0, 10
        li t0, 0
        li t1, 1
    loop:
        beqz a0, done
        add t2, t0, t1
        mv t0, t1
        mv t1, t2
        addi a0, a0, -1
        j loop
    done:
        mv a0, t0
        li a7, 93
        ecall
    """)
    assert machine.run() == 55


def test_jalr_and_function_pointer():
    machine = Machine()
    machine.load_assembly("""
        la t0, callee
        jalr ra, 0(t0)
        li a7, 93
        ecall
    callee:
        li a0, 123
        ret
    """)
    assert machine.run() == 123


def test_misaligned_access_raises_with_error_checking():
    cfg = VexRiscvConfig()
    machine = Machine(timing=VexTiming(cfg))
    machine.load_assembly("""
        li t0, 0x1001
        lw a0, 0(t0)
    """)
    with pytest.raises(MemoryAccessError):
        machine.run()


def test_misaligned_allowed_without_error_checking():
    cfg = VexRiscvConfig(hw_error_checking=False)
    machine = Machine(timing=VexTiming(cfg))
    machine.load_assembly("""
        li t0, 0x1001
        lw a0, 0(t0)
        li a7, 93
        ecall
    """)
    machine.run()  # silently allowed (paper: error checking removed)


def test_instruction_budget_enforced():
    machine = Machine()
    machine.load_assembly("""
    spin:
        j spin
    """)
    with pytest.raises(RuntimeError):
        machine.run(max_instructions=100)


def test_cfu_without_attachment_raises():
    machine = Machine()
    machine.load_assembly("cfu 0, 0, a0, a1, a2")
    with pytest.raises(RuntimeError):
        machine.run()


def test_sparse_memory_page_boundary():
    memory = SparseMemory()
    addr = 0x1FFE  # straddles a 4 KiB page
    memory.write32(addr, 0xAABBCCDD)
    assert memory.read32(addr) == 0xAABBCCDD
    assert memory.read16(addr + 2) == 0xAABB


def test_illegal_instruction_raises():
    machine = Machine()
    machine.memory.write32(0, 0xFFFFFFFF)
    with pytest.raises(RuntimeError):
        machine.step()


# --- instruction budget boundary ---------------------------------------------------

EXIT_IN_3 = """
    li a7, 93
    ecall
"""  # li expands to 2 instructions; ecall halts on the 3rd


@pytest.mark.parametrize("backend", ["auto", "step"],
                         ids=["fast", "reference"])
def test_halting_exactly_at_budget_succeeds(backend):
    """A program whose final permitted instruction halts cleanly must
    not raise 'instruction budget exhausted'."""
    machine = Machine()
    machine.load_assembly(EXIT_IN_3)
    machine.run(max_instructions=3, backend=backend)
    assert machine.halted
    assert machine.instret == 3


@pytest.mark.parametrize("backend", ["auto", "step"],
                         ids=["fast", "reference"])
def test_budget_one_short_of_halt_raises(backend):
    machine = Machine()
    machine.load_assembly(EXIT_IN_3)
    with pytest.raises(RuntimeError, match="instruction budget exhausted"):
        machine.run(max_instructions=2, backend=backend)
    assert not machine.halted
    assert machine.instret == 2


@pytest.mark.parametrize("backend", ["auto", "step"],
                         ids=["fast", "reference"])
def test_ebreak_exactly_at_budget_succeeds(backend):
    machine = Machine()
    machine.load_assembly("""
        addi a0, a0, 1
        ebreak
    """)
    machine.run(max_instructions=2, backend=backend)
    assert machine.halted


def test_budget_enforced_on_fast_path():
    machine = Machine()
    machine.load_assembly("""
    spin:
        j spin
    """)
    with pytest.raises(RuntimeError, match="instruction budget exhausted"):
        machine.run(max_instructions=100, backend="auto")
    assert machine.instret == 100


# --- decoded-instruction cache -----------------------------------------------------

def test_decode_cache_decodes_each_static_instruction_once():
    machine = Machine()
    machine.load_assembly("""
        li t0, 1000
    loop:
        addi t0, t0, -1
        bnez t0, loop
        li a7, 93
        ecall
    """)
    machine.run()
    # 2 (li) + 2 (loop) + 2 (li) + 1 (ecall) static instructions, far
    # fewer decodes than the ~2000 dynamic loop instructions.
    assert machine.decode_count == 7
    assert machine.decode_cache_entries == 7
    assert machine.instret > 2000


def test_store_to_code_page_invalidates_decode_cache():
    machine = Machine()
    machine.load_assembly("""
        li t0, 0x2000
        sw t1, 0(t0)      # data page: no code cached there
        sw t1, 4(t0)
        li a7, 93
        ecall
    """)
    machine.run()
    data_only_invalidations = machine.invalidation_count
    assert data_only_invalidations == 0

    machine = Machine()
    machine.load_assembly("""
        la t0, target
        lw t2, 0(t0)      # read the word at 'target'
        sw t2, 0(t0)      # rewrite it unchanged: still must invalidate
    target:
        li a7, 93
        ecall
    """)
    machine.run()
    assert machine.halted
    assert machine.invalidation_count >= 1


def test_load_program_flushes_decode_cache():
    machine = Machine()
    machine.load_assembly(EXIT_IN_3)
    machine.run()
    assert machine.decode_cache_entries > 0
    machine.halted = False
    machine.exit_code = None
    machine.load_assembly("""
        addi a0, a0, 5
        ebreak
    """)
    assert machine.decode_cache_entries == 0
    machine.run()
    assert machine.regs[10] & 0xFF == 5


# --- bulk sparse-memory operations -------------------------------------------------

def test_bulk_load_and_read_bytes_across_pages():
    memory = SparseMemory()
    blob = bytes(range(256)) * 40  # 10,240 bytes: spans three pages
    memory.load_bytes(0x0F80, blob)
    assert memory.read_bytes(0x0F80, len(blob)) == blob
    # Byte-level view agrees with the bulk view.
    assert memory.read8(0x0F80) == blob[0]
    assert memory.read8(0x0F80 + len(blob) - 1) == blob[-1]


def test_load_bytes_accepts_non_bytes_iterables():
    memory = SparseMemory()
    memory.load_bytes(0x100, [1, 2, 3, 0xFF])
    assert memory.read_bytes(0x100, 4) == b"\x01\x02\x03\xff"
