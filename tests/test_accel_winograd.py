"""Winograd CFU tests: transform algebra, RTL golden equality, the
translated ISA tier, and the Arty A7 resource budget."""

import random

import numpy as np
import pytest

from repro.accel import WinogradCfu, WinogradRtl, winograd_resources
from repro.accel.winograd import model as wm
from repro.accel.winograd.model import transform_filter
from repro.boards import ARTY_A7_35T, fit
from repro.cfu import CfuError, run_sequence
from repro.cpu import Machine
from repro.cpu.vexriscv import VexRiscvConfig
from repro.soc import Soc
from repro.tflm.quantize import multiply_by_quantized_multiplier

BT = np.array([[1, 0, -1, 0], [0, 1, 1, 0], [0, -1, 1, 0], [0, 1, 0, -1]])
G2 = np.array([[2, 0, 0], [1, 1, 1], [1, -1, 1], [0, 0, 2]])
AT = np.array([[1, 1, 1, 0], [0, 1, -1, -1]])


def _word(*bytes_):
    out = 0
    for index, value in enumerate(bytes_):
        out |= (int(value) & 0xFF) << (8 * index)
    return out


def small_cfu(**kw):
    kw.setdefault("channels", 4)
    kw.setdefault("pw_filter_words", 16)
    kw.setdefault("input_words", 16)
    return kw


# --- transform algebra -------------------------------------------------------------


def test_transform_filter_matches_matrices():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = rng.integers(-128, 128, size=(3, 3))
        expected = (G2 @ g @ G2.T).reshape(-1)
        assert list(transform_filter(g.reshape(-1).tolist())) \
            == expected.tolist()


def test_winograd_recovers_exact_convolution():
    """Y' = A^T (G'gG'^T (*) B^T d B) A equals 4x the 3x3 conv — the
    fixed-point F(2x2,3x3) identity the whole family rests on."""
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = rng.integers(-512, 512, size=(4, 4))
        g = rng.integers(-128, 128, size=(3, 3))
        u = G2 @ g @ G2.T
        v = BT @ d @ BT.T
        y = (AT @ (u * v) @ AT.T) >> 2
        direct = np.array([[(d[p:p + 3, q:q + 3] * g).sum()
                            for q in range(2)] for p in range(2)])
        assert np.array_equal(y, direct)


# --- behavioural model semantics ---------------------------------------------------


def _configure(cfu, bias=100, mult=0x50000000, shift=-6, zp=-10,
               act_min=-128, act_max=127, channel=0):
    cfu.op(wm.F3_CONFIG, wm.CFG_CHANNEL, channel, 0)
    cfu.op(wm.F3_CONFIG, wm.CFG_BIAS, bias & 0xFFFFFFFF, 0)
    cfu.op(wm.F3_CONFIG, wm.CFG_MULT, mult, 0)
    cfu.op(wm.F3_CONFIG, wm.CFG_SHIFT, shift & 0xFFFFFFFF, 0)
    cfu.op(wm.F3_CONFIG, wm.CFG_OUTPUT, zp & 0xFFFFFFFF,
           (act_min & 0xFF) | ((act_max & 0xFF) << 8))
    return dict(bias=bias, mult=mult, shift=shift, zp=zp,
                act_min=act_min, act_max=act_max)


def _requantize_oracle(acc, cfg):
    out = int(multiply_by_quantized_multiplier(
        acc + cfg["bias"], cfg["mult"], cfg["shift"])) + cfg["zp"]
    return max(cfg["act_min"], min(cfg["act_max"], out))


def test_depthwise_run_matches_oracle():
    rng = np.random.default_rng(2)
    cfu = WinogradCfu(**small_cfu())
    cfg = _configure(cfu)
    d = rng.integers(-128, 128, size=(4, 4))
    g = rng.integers(-128, 128, size=(3, 3))
    gflat = g.reshape(-1).tolist()
    cfu.op(wm.F3_WRITE_FILT, 1, _word(*gflat[0:4]), 0)
    cfu.op(wm.F3_WRITE_FILT, 0, _word(*gflat[4:8]), 0)
    cfu.op(wm.F3_WRITE_FILT, 0, _word(gflat[8], 0, 0, 0), 0)
    for row in range(4):
        cfu.op(wm.F3_WRITE_INPUT, 1 if row == 0 else 0, _word(*d[row]), 0)
    word = cfu.op(wm.F3_RUN_DW, 0, 0, 0)
    for p in range(2):
        for q in range(2):
            acc = int((d[p:p + 3, q:q + 3] * g).sum())
            byte = (word >> (8 * (2 * p + q))) & 0xFF
            assert byte == _requantize_oracle(acc, cfg) & 0xFF


def test_pointwise_run_matches_oracle():
    rng = np.random.default_rng(3)
    cfu = WinogradCfu(**small_cfu())
    cfu.op(wm.F3_CONFIG, wm.CFG_RESET, 0, 0)
    cfu.op(wm.F3_CONFIG, wm.CFG_DEPTH, 2, 0)   # in_ch = 8
    cfg = _configure(cfu, bias=-300, shift=-5, zp=4)
    pixels = rng.integers(-128, 128, size=(4, 8))
    weights = rng.integers(-128, 128, size=8)
    for step in range(2):
        cfu.op(wm.F3_WRITE_FILT, 3 if step == 0 else 2,
               _word(*weights[4 * step:4 * step + 4]), 0)
    first = True
    for step in range(2):
        for lane in range(4):
            cfu.op(wm.F3_WRITE_INPUT, 1 if first else 0,
                   _word(*pixels[lane, 4 * step:4 * step + 4]), 0)
            first = False
    word = cfu.op(wm.F3_RUN_PW, 0, 0, 0)
    for lane in range(4):
        acc = int(pixels[lane] @ weights)
        byte = (word >> (8 * lane)) & 0xFF
        assert byte == _requantize_oracle(acc, cfg) & 0xFF
    # RUN_PW advances the output-channel and filter pointers.
    assert cfu.op(wm.F3_STATE, 0, 0, 0) == 1
    assert cfu.op(wm.F3_STATE, 1, 0, 0) == 2


def test_state_readback_and_errors():
    cfu = WinogradCfu(**small_cfu())
    cfu.op(wm.F3_CONFIG, wm.CFG_DEPTH, 5, 0)
    cfu.op(wm.F3_CONFIG, wm.CFG_CHANNEL, 3, 0)
    assert cfu.op(wm.F3_STATE, 0, 0, 0) == 3
    assert cfu.op(wm.F3_STATE, 2, 0, 0) == 5
    with pytest.raises(CfuError):
        cfu.op(wm.F3_STATE, 9, 0, 0)
    with pytest.raises(CfuError):
        cfu.op(wm.F3_CONFIG, 8, 0, 0)
    with pytest.raises(CfuError):   # left shifts are unsupported
        cfu.op(wm.F3_CONFIG, wm.CFG_SHIFT, 2, 0)


def test_reset_clears_registers_not_stores():
    cfu = WinogradCfu(**small_cfu())
    cfu.op(wm.F3_CONFIG, wm.CFG_DEPTH, 7, 0)
    cfu.op(wm.F3_CONFIG, wm.CFG_RESET, 0, 0)
    assert cfu.op(wm.F3_STATE, 2, 0, 0) == 1   # depth back to reset


def test_fast_call_matches_execute():
    for f3, f7 in [(wm.F3_WRITE_INPUT, 0), (wm.F3_WRITE_INPUT, 1),
                   (wm.F3_WRITE_FILT, 2), (wm.F3_WRITE_FILT, 3)]:
        via_fast = WinogradCfu(**small_cfu())
        fn = via_fast.fast_call(f3, f7)
        assert fn is not None
        via_execute = WinogradCfu(**small_cfu())
        for a in (0x01020304, 0xFF80FF80):
            result, latency = via_execute.execute(f3, f7, a, 0)
            assert fn(a, 0) == result
            assert latency == 1
        assert via_fast.snapshot_state() == via_execute.snapshot_state()
    assert WinogradCfu(**small_cfu()).fast_call(wm.F3_RUN_DW, 0) is None


def test_sizes_must_be_powers_of_two():
    with pytest.raises(ValueError):
        WinogradRtl(channels=3)
    with pytest.raises(ValueError):
        WinogradCfu(channels=3)


# --- RTL golden equality -----------------------------------------------------------


def _directed_sequence(seed, rounds=3):
    rng = random.Random(seed)
    seq = [(wm.F3_CONFIG, wm.CFG_RESET, 0, 0),
           (wm.F3_CONFIG, wm.CFG_DEPTH, rng.randrange(1, 4), 0)]
    for _ in range(rounds):
        for channel in range(2):
            seq += [
                (wm.F3_CONFIG, wm.CFG_CHANNEL, channel, 0),
                (wm.F3_CONFIG, wm.CFG_BIAS,
                 rng.randrange(-1000, 1000) & 0xFFFFFFFF, 0),
                (wm.F3_CONFIG, wm.CFG_MULT, rng.randrange(1 << 30, 1 << 31), 0),
                (wm.F3_CONFIG, wm.CFG_SHIFT,
                 -rng.randrange(0, 12) & 0xFFFFFFFF, 0),
            ]
        seq.append((wm.F3_CONFIG, wm.CFG_OUTPUT,
                    rng.randrange(-128, 128) & 0xFFFFFFFF,
                    0x80 | (0x7F << 8)))
        seq.append((wm.F3_WRITE_FILT, 1, rng.getrandbits(32), 0))
        seq.append((wm.F3_WRITE_FILT, 0, rng.getrandbits(32), 0))
        seq.append((wm.F3_WRITE_FILT, 0, rng.getrandbits(8), 0))
        for word in range(4):
            seq.append((wm.F3_WRITE_INPUT, 1 if word == 0 else 0,
                        rng.getrandbits(32), 0))
        seq.append((wm.F3_CONFIG, wm.CFG_CHANNEL, rng.randrange(2), 0))
        seq.append((wm.F3_RUN_DW, 0, 0, 0))
        seq.append((wm.F3_WRITE_FILT, 3, rng.getrandbits(32), 0))
        for _ in range(7):
            seq.append((wm.F3_WRITE_FILT, 2, rng.getrandbits(32), 0))
        seq.append((wm.F3_CONFIG, wm.CFG_RESTART, 0, 0))
        first = True
        for _ in range(rng.randrange(1, 4) * 4):
            seq.append((wm.F3_WRITE_INPUT, 1 if first else 0,
                        rng.getrandbits(32), 0))
            first = False
        seq.append((wm.F3_RUN_PW, 0, 0, 0))
        seq.append((wm.F3_RUN_PW, 0, 0, 0))
        for reg in range(5):
            seq.append((wm.F3_STATE, reg, 0, 0))
    return seq


@pytest.mark.parametrize("backend", ["interp", "compiled"])
@pytest.mark.parametrize("seed", [7, 8])
def test_rtl_golden_directed_mix(backend, seed):
    report = run_sequence(WinogradRtl(**small_cfu()),
                          WinogradCfu(**small_cfu()),
                          _directed_sequence(seed), backend=backend)
    assert report.passed, report.mismatches[:3]
    assert report.rtl_cycles == report.model_cycles


@pytest.mark.parametrize("backend", ["interp", "compiled"])
def test_rtl_reconfiguration_mid_stream(backend):
    seq = _directed_sequence(21, rounds=1)
    seq += [(wm.F3_CONFIG, wm.CFG_RESET, 0, 0)]
    seq += _directed_sequence(22, rounds=1)
    report = run_sequence(WinogradRtl(**small_cfu()),
                          WinogradCfu(**small_cfu()), seq, backend=backend)
    assert report.passed, report.mismatches[:3]


def test_run_latencies():
    cfu = WinogradCfu(**small_cfu())
    assert cfu.latency(wm.F3_RUN_DW, 0) == 3
    cfu.op(wm.F3_CONFIG, wm.CFG_DEPTH, 4, 0)
    assert cfu.latency(wm.F3_RUN_PW, 0) == 4 + 3
    assert cfu.latency(wm.F3_WRITE_INPUT, 0) == 1


# --- translated ISA tier -----------------------------------------------------------


def _winograd_firmware(iters=20):
    """A DW tile kernel loop: configure once, retile `iters` times."""
    rng = np.random.default_rng(17)
    d = rng.integers(-128, 128, size=(4, 4))
    g = rng.integers(-128, 128, size=9).tolist()
    lines = [f"    li   s0, {iters}"]

    def op(f3, f7, a, rd="x0"):
        lines.append(f"    li   t1, {int(a) & 0xFFFFFFFF}")
        lines.append(f"    cfu  {f7}, {f3}, {rd}, t1, x0")

    op(wm.F3_CONFIG, wm.CFG_RESET, 0)
    op(wm.F3_WRITE_FILT, 1, _word(*g[0:4]))
    op(wm.F3_WRITE_FILT, 0, _word(*g[4:8]))
    op(wm.F3_WRITE_FILT, 0, _word(g[8], 0, 0, 0))
    op(wm.F3_CONFIG, wm.CFG_BIAS, 55)
    op(wm.F3_CONFIG, wm.CFG_MULT, 0x60000000)
    op(wm.F3_CONFIG, wm.CFG_SHIFT, -7 & 0xFFFFFFFF)
    lines.append("    li   t1, %d" % ((-3) & 0xFFFFFFFF))
    lines.append("    li   t2, %d" % (0x80 | (0x7F << 8)))
    lines.append(f"    cfu  {wm.CFG_OUTPUT}, {wm.F3_CONFIG}, x0, t1, t2")
    lines.append("loop:")
    for row in range(4):
        op(wm.F3_WRITE_INPUT, 1 if row == 0 else 0, _word(*d[row]))
    lines.append(f"    cfu  0, {wm.F3_RUN_DW}, t3, x0, x0")
    lines.append("    add  a0, a0, t3")
    lines.append("    addi s0, s0, -1")
    lines.append("    bnez s0, loop")
    lines.append("    li   a7, 93")
    lines.append("    ecall")
    return "\n".join(lines)


def test_translated_tier_lockstep():
    """The DW loop produces identical results on the step() interpreter
    and inside translated blocks (fast_call uploads and the generic RUN
    path both cross the tier boundary)."""
    source = _winograd_firmware()
    results = {}
    for backend in ("step", "auto"):
        machine = Machine(cfu=WinogradCfu(**small_cfu()))
        machine.load_assembly(source)
        machine.run(max_instructions=200_000, backend=backend)
        results[backend] = machine.regs[10]
        if backend == "auto":
            assert machine.block_promotions > 0
    assert results["step"] == results["auto"]
    assert results["step"] != 0


# --- resources ---------------------------------------------------------------------


def test_full_size_fits_arty_envelope():
    report = winograd_resources()
    soc = Soc(ARTY_A7_35T, VexRiscvConfig())
    result = fit(ARTY_A7_35T, soc.resources(), report)
    assert result.ok, result


def test_resources_reflect_the_datapath():
    report = winograd_resources()
    # 16 tile multipliers + 4 shared SRDHM lanes dominate the DSPs.
    assert report.dsps >= 20
    # The transformed-filter store (4 x 52b x 512) dominates block RAM.
    assert report.bram_bits >= 4 * 52 * 512
    assert report.logic_cells < 10_000   # leaves room for the SoC
