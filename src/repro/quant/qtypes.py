"""Quantization format descriptors (INT8 / INT4, 24-bit accumulators).

Besides the :class:`QuantSpec` dataclass this module owns the two's-complement
bit-pattern helpers of the accumulator format (``to_unsigned`` / ``to_signed``
/ ``wrap_to_accumulator``) and the in-place flip scatter ``xor_flips``.  They
live here — below every other layer — so the quantized GEMM pipeline can model
finite accumulator width and apply drawn faults without importing the
fault-injection layer (:mod:`repro.faults` re-exports them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuantSpec", "INT8", "INT4", "ACCUMULATOR_BITS",
           "to_unsigned", "to_signed", "wrap_to_accumulator", "xor_flips"]

#: Width of the systolic-array accumulator modelled throughout the repository
#: (the paper synthesizes an 8-bit multiplier / 24-bit accumulator PE).
ACCUMULATOR_BITS = 24


@dataclass(frozen=True)
class QuantSpec:
    """Symmetric integer quantization format.

    Attributes
    ----------
    bits:
        Number of bits of the operand format (8 for INT8, 4 for INT4).
    accumulator_bits:
        Width of the accumulator that receives the integer dot products.
    """

    bits: int
    accumulator_bits: int = ACCUMULATOR_BITS

    def __post_init__(self):
        if self.bits < 2 or self.bits > 16:
            raise ValueError("operand width must be between 2 and 16 bits")
        if self.accumulator_bits <= self.bits:
            raise ValueError("accumulator must be wider than the operands")

    @property
    def qmax(self) -> int:
        """Largest representable magnitude (symmetric range)."""
        return (1 << (self.bits - 1)) - 1

    @property
    def qmin(self) -> int:
        return -self.qmax

    @property
    def accumulator_max(self) -> int:
        return (1 << (self.accumulator_bits - 1)) - 1

    @property
    def accumulator_mask(self) -> int:
        return (1 << self.accumulator_bits) - 1

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"INT{self.bits}"


INT8 = QuantSpec(bits=8)
INT4 = QuantSpec(bits=4)


# ----------------------------------------------------------------------
# Two's-complement bit-pattern helpers of the accumulator format
# ----------------------------------------------------------------------
def to_unsigned(values: np.ndarray, bits: int = ACCUMULATOR_BITS) -> np.ndarray:
    """Reinterpret signed integers as their unsigned two's-complement pattern."""
    mask = (1 << bits) - 1
    return np.asarray(values, dtype=np.int64) & mask


def to_signed(values: np.ndarray, bits: int = ACCUMULATOR_BITS) -> np.ndarray:
    """Reinterpret unsigned bit patterns as signed two's-complement integers."""
    values = np.asarray(values, dtype=np.int64)
    sign_bit = 1 << (bits - 1)
    mask = (1 << bits) - 1
    values = values & mask
    return np.where(values >= sign_bit, values - (1 << bits), values)


def wrap_to_accumulator(values: np.ndarray, bits: int = ACCUMULATOR_BITS) -> np.ndarray:
    """Wrap arbitrary integers into the signed range of a ``bits``-wide accumulator."""
    return to_signed(to_unsigned(values, bits), bits)


def xor_flips(flat: np.ndarray, flat_indices: np.ndarray, masks: np.ndarray,
              bits: int = ACCUMULATOR_BITS) -> None:
    """XOR ``masks`` into ``flat[flat_indices]`` in place (repeats compose).

    ``flat`` is a 1-D int64 array whose every element already lies in the
    signed ``bits``-wide range, and each mask is a sign-extended pattern of
    that width (:func:`repro.faults.bitflip.flip_masks`, or an element's own
    value to zero it), so every result stays in range.  On such input this
    equals :func:`repro.faults.bitflip.flip_bits` on the touched elements,
    without copying or wrapping the untouched ones.  ``flat_indices`` and
    ``masks`` are non-empty int64 arrays of equal length.
    """
    # In range iff mask + 2^(bits-1) lies in [0, 2^bits) as uint64.
    sign = 1 << (bits - 1)
    if int((masks + sign).view(np.uint64).max()) >= 2 * sign:
        raise ValueError("bit position outside accumulator width")
    if int(flat_indices.view(np.uint64).max()) >= flat.size:
        raise IndexError("element index out of range")
    np.bitwise_xor.at(flat, flat_indices, masks)
