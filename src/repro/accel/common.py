"""Shared RTL datapath pieces: SIMD dot product and TFLite requantization.

Used by both the MNV2 CFU1 family and the KWS CFU2, mirroring how the
paper reuses the 4-way multiply-accumulate across use cases.
"""

from __future__ import annotations

from ..rtl import Const, Mux


def lane_s8(word, lane):
    """Signed 8-bit lane ``lane`` of a packed 32-bit word."""
    return word[8 * lane:8 * lane + 8].as_signed()


def dot4_expr(a, b):
    """Signed dot product of two packed 4xint8 words (fits in 18 bits)."""
    total = None
    for lane in range(4):
        product = lane_s8(a, lane) * lane_s8(b, lane)
        total = product if total is None else (total + product)
    return total


def srdhm_expr(value, multiplier):
    """SaturatingRoundingDoublingHighMul as an RTL expression.

    ``value`` and ``multiplier`` are signed <=33-bit values; the INT32_MIN
    x INT32_MIN saturation corner cannot occur because the multiplier is
    produced by QuantizeMultiplier (|m| < 2^31).
    """
    product = value * multiplier                       # signed, wide
    nudge = Mux(product >= 0, Const(1 << 30, 32),
                Const(1 - (1 << 30), 32).as_signed())
    return ((product + nudge.as_signed()) >> 31)


def rdbpot_expr(value, exponent):
    """RoundingDivideByPOT (round half away from zero), variable exponent.

    ``value`` signed; ``exponent`` small unsigned (right shift amount).
    """
    mask = (Const(1, 34) << exponent) - 1
    remainder = (value & mask.as_signed())
    threshold = (mask >> 1) + Mux(value < 0, 1, 0)
    shifted = value >> exponent
    return shifted + Mux(remainder.as_unsigned() > threshold.as_unsigned(), 1, 0)


def clamp_expr(value, low, high):
    """Clamp a signed value between two signed bounds."""
    clipped_low = Mux(value < low, low, value)
    return Mux(clipped_low > high, high, clipped_low)


def requantize_expr(acc_with_bias, multiplier, right_shift, zero_point,
                    act_min, act_max):
    """Full TFLM output path: SRDHM -> rounding shift -> zp -> clamp.

    Returns a signed expression whose low 8 bits are the output byte.
    """
    high = srdhm_expr(acc_with_bias, multiplier)
    scaled = rdbpot_expr(high, right_shift)
    with_zp = scaled + zero_point
    return clamp_expr(with_zp, act_min, act_max)
