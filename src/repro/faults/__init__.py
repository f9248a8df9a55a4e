"""Fault models and runtime error injection for voltage-underscaled inference."""

from .bitflip import (
    flip_bit,
    flip_bits,
    flip_masks,
    to_signed,
    to_unsigned,
    wrap_to_accumulator,
    xor_flips,
)
from .models import ErrorModel, SingleBitErrorModel, UniformErrorModel, VoltageErrorModel
from .injector import ErrorInjector, InjectionStats, PassthroughInjector

__all__ = [
    "flip_bit",
    "flip_bits",
    "flip_masks",
    "xor_flips",
    "to_signed",
    "to_unsigned",
    "wrap_to_accumulator",
    "ErrorModel",
    "UniformErrorModel",
    "VoltageErrorModel",
    "SingleBitErrorModel",
    "ErrorInjector",
    "InjectionStats",
    "PassthroughInjector",
]
