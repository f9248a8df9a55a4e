"""Low-level bit-flip primitives on two's-complement accumulator values.

The two's-complement reinterpretation helpers (``to_unsigned`` / ``to_signed``
/ ``wrap_to_accumulator``) and the in-place flip scatter ``xor_flips`` are
owned by :mod:`repro.quant.qtypes` — the accumulator format they model lives
at the quantization layer, and the kernel runtime applies flips there — and
are re-exported here.
"""

from __future__ import annotations

import numpy as np

from ..quant.qtypes import (
    ACCUMULATOR_BITS,
    to_signed,
    to_unsigned,
    wrap_to_accumulator,
    xor_flips,
)

__all__ = ["to_unsigned", "to_signed", "flip_bit", "flip_bits", "flip_masks",
           "xor_flips", "wrap_to_accumulator"]


def flip_bit(values: np.ndarray, bit: int, bits: int = ACCUMULATOR_BITS) -> np.ndarray:
    """Flip ``bit`` in every element of ``values`` (returns a new array)."""
    if not 0 <= bit < bits:
        raise ValueError(f"bit {bit} outside accumulator width {bits}")
    unsigned = to_unsigned(values, bits)
    return to_signed(unsigned ^ (1 << bit), bits)


def flip_bits(values: np.ndarray, flat_indices: np.ndarray, bit_positions: np.ndarray,
              bits: int = ACCUMULATOR_BITS) -> np.ndarray:
    """Flip specific bits of specific elements.

    ``flat_indices`` addresses elements of ``values`` viewed as a flat array;
    ``bit_positions`` gives the bit flipped in the corresponding element.  The
    same element may appear multiple times (multiple flipped bits); XOR makes
    the operation order-independent.  Returns a fresh array with every
    element wrapped into the signed ``bits``-wide range.
    """
    flat_indices = np.asarray(flat_indices, dtype=np.int64)
    bit_positions = np.asarray(bit_positions, dtype=np.int64)
    if flat_indices.shape != bit_positions.shape:
        raise ValueError("flat_indices and bit_positions must have the same shape")
    if flat_indices.size == 0:
        return np.asarray(values, dtype=np.int64).copy()
    # One reduction per bounds check: viewed as uint64, a negative value is
    # larger than any valid one.
    if int(bit_positions.view(np.uint64).max()) >= bits:
        raise ValueError("bit position outside accumulator width")

    out = np.array(values, dtype=np.int64, order="C")
    flat = out.reshape(-1)
    if int(flat_indices.view(np.uint64).max()) >= flat.size:
        raise IndexError("element index out of range")
    flat &= (1 << bits) - 1
    # XOR-accumulate the masks per element so repeated elements compose.
    np.bitwise_xor.at(flat, flat_indices, np.left_shift(1, bit_positions))
    # Sign-extend the unsigned pattern in place: (u ^ s) - s is u below the
    # sign bit s and u - 2s from it on.
    sign = 1 << (bits - 1)
    flat ^= sign
    flat -= sign
    return out


def flip_masks(bit_positions: np.ndarray, bits: int = ACCUMULATOR_BITS) -> np.ndarray:
    """XOR masks that flip ``bit_positions`` of sign-extended ``bits``-wide values.

    The sign bit's mask is stored sign-extended (``-(1 << (bits - 1))``):
    sign extension commutes with XOR, so XOR-ing these masks into an
    in-range value leaves an in-range value and no re-wrap is needed.
    Positions at or beyond the width get a mask outside the signed range,
    which :func:`xor_flips` rejects.
    """
    bit_positions = np.asarray(bit_positions, dtype=np.int64)
    masks = np.left_shift(1, np.minimum(bit_positions, bits))
    masks[bit_positions == bits - 1] = -(1 << (bits - 1))
    return masks
