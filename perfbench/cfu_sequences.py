"""Seeded, protocol-valid op streams for the five shipped gateware CFUs.

Each builder returns ``[(funct3, funct7, a, b), ...]``: configuration
first, then a stream of the CFU's compute ops.  Every stream is legal
for the CFU's behavioural model, so a golden mismatch is a real
disagreement between gateware and model, never a protocol error.

Biases are drawn from one small range for every CFU, as quantized
models give them, so ``acc + bias`` stays within int32 as it does in
the TFLM kernels the CFUs accelerate.  Outside that range the KWS CFU2
gateware and model disagree (the model wraps, the gateware does not);
``cfu-verify-*`` probe that case separately and print it as the
``kws_overflow_mismatches`` job figure.
"""

from __future__ import annotations

from repro.accel import (
    Cfu1Rtl,
    KwsCfu,
    KwsCfu2Rtl,
    Mac4Rtl,
    Mnv2Cfu,
    PostprocRtl,
    WinogradCfu,
    WinogradRtl,
)
from repro.accel.kws import model as kws
from repro.accel.mnv2 import model as mnv2
from repro.accel.winograd import model as wino

_CLAMP = 0x80 | (0x7F << 8)          # act_min = -128, act_max = 127
_U32 = 0xFFFFFFFF

_WINOGRAD_SHAPE = {"channels": 4, "pw_filter_words": 16, "input_words": 16}


def _bias(rng):
    return rng.randrange(-2048, 2048) & _U32


def _requant_params(rng):
    bias = _bias(rng)
    mult = rng.randrange(1 << 30, (1 << 31) - 1)
    shift = -rng.randrange(0, 10) & _U32
    return bias, mult, shift


def kws_ops(rng, count):
    ops = [
        (kws.F3_CONFIG, kws.CFG_MULT, rng.randrange(1 << 30, (1 << 31) - 1), 0),
        (kws.F3_CONFIG, kws.CFG_SHIFT, -rng.randrange(0, 10) & _U32, 0),
        (kws.F3_CONFIG, kws.CFG_OUTPUT, rng.randrange(-20, 20) & _U32, _CLAMP),
    ]
    compute = (kws.F3_MAC4, kws.F3_MAC4, kws.F3_MAC1, kws.F3_POSTPROC,
               kws.F3_READ_ACC)
    while len(ops) < count:
        funct3 = rng.choice(compute)
        reset = funct3 in (kws.F3_MAC4, kws.F3_MAC1) and rng.random() < 0.25
        ops.append((funct3, int(reset), rng.getrandbits(32),
                    _bias(rng) if funct3 == kws.F3_POSTPROC
                    else rng.getrandbits(32)))
    return ops


#: acc + bias below INT32_MIN: the case the gateware does not wrap.
KWS_OVERFLOW_OPS = [(kws.F3_MAC4, 1, 0x80808080, 0x7F7F7F7F),   # acc = -65024
                    (kws.F3_POSTPROC, 0, 0, 0x80000000 + 100)]  # bias ~ INT32_MIN


def mac4_ops(rng, count):
    return [(mnv2.F3_MAC4, int(rng.random() < 0.3), rng.getrandbits(32),
             rng.getrandbits(32)) for _ in range(count)]


def _channel_params(rng, channels):
    ops = []
    for _ in range(channels):
        bias, mult, shift = _requant_params(rng)
        ops += [(mnv2.F3_CONFIG, mnv2.CFG_BIAS, bias, 0),
                (mnv2.F3_CONFIG, mnv2.CFG_MULT, mult, 0),
                (mnv2.F3_CONFIG, mnv2.CFG_SHIFT, shift, 0)]
    return ops


def postproc_ops(rng, count):
    ops = _channel_params(rng, 8)
    ops.append((mnv2.F3_CONFIG, mnv2.CFG_OUTPUT,
                rng.randrange(-8, 8) & _U32, _CLAMP))
    while len(ops) < count:
        ops.append((mnv2.F3_POSTPROC, 0,
                    rng.randrange(-(1 << 22), 1 << 22) & _U32, 0))
    return ops


def cfu1_ops(rng, count):
    depth, channels = 4, 8
    ops = [(mnv2.F3_CONFIG, mnv2.CFG_DEPTH, depth, 0)]
    ops += _channel_params(rng, channels)
    ops.append((mnv2.F3_CONFIG, mnv2.CFG_OUTPUT,
                rng.randrange(-8, 8) & _U32, _CLAMP))
    ops += [(mnv2.F3_WRITE_FILT, 0, rng.getrandbits(32), 0)
            for _ in range(channels * depth)]
    ops += [(mnv2.F3_WRITE_INPUT, int(word == 0), rng.getrandbits(32), 0)
            for word in range(depth)]
    modes = (mnv2.RUN_RAW, mnv2.RUN_POSTPROC, mnv2.RUN_PACK4)
    while len(ops) < count:
        ops.append((mnv2.F3_RUN1, rng.choice(modes), 0, 0))
    return ops


def winograd_ops(rng, count):
    depth = 2
    ops = [(wino.F3_CONFIG, wino.CFG_RESET, 0, 0),
           (wino.F3_CONFIG, wino.CFG_DEPTH, depth, 0)]
    for _ in range(_WINOGRAD_SHAPE["channels"]):
        bias, mult, shift = _requant_params(rng)
        ops += [(wino.F3_CONFIG, wino.CFG_BIAS, bias, 0),
                (wino.F3_CONFIG, wino.CFG_MULT, mult, 0),
                (wino.F3_CONFIG, wino.CFG_SHIFT, shift, 0)]
    ops.append((wino.F3_CONFIG, wino.CFG_OUTPUT,
                rng.randrange(-8, 8) & _U32, _CLAMP))
    # One depthwise 3x3 filter: three packed words, the last holding
    # only the ninth tap.
    ops += [(wino.F3_WRITE_FILT, 1, rng.getrandbits(32), 0),
            (wino.F3_WRITE_FILT, 0, rng.getrandbits(32), 0),
            (wino.F3_WRITE_FILT, 0, rng.getrandbits(8), 0)]
    ops += [(wino.F3_WRITE_FILT, 3 if word == 0 else 2, rng.getrandbits(32), 0)
            for word in range(4 * depth)]
    while len(ops) < count:
        ops += [(wino.F3_WRITE_INPUT, int(word == 0), rng.getrandbits(32), 0)
                for word in range(4)]
        ops += [(wino.F3_RUN_DW, 0, 0, 0),
                (wino.F3_CONFIG, wino.CFG_RESTART, 0, 0),
                (wino.F3_RUN_PW, 0, 0, 0)]
    return ops[:count]


#: name -> (gateware factory, behavioural-model factory, op builder)
CFUS = {
    "kws-cfu2": (KwsCfu2Rtl, KwsCfu, kws_ops),
    "mnv2-mac4": (Mac4Rtl, Mnv2Cfu, mac4_ops),
    "mnv2-postproc": (lambda: PostprocRtl(channels=8), Mnv2Cfu, postproc_ops),
    "mnv2-cfu1": (lambda: Cfu1Rtl(channels=8, filter_words=64,
                                  input_words=16), Mnv2Cfu, cfu1_ops),
    "winograd": (lambda: WinogradRtl(**_WINOGRAD_SHAPE),
                 lambda: WinogradCfu(**_WINOGRAD_SHAPE), winograd_ops),
}
