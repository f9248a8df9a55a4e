"""INT8/INT4 quantization and the quantized GEMM deployment pipeline.

Two execution paths share one arithmetic definition:

* :func:`quantized_matmul` / :class:`QuantizedLinear` — the per-call
  reference pipeline (quantize → INT GEMM → wrap → inject → clamp →
  dequantize);
* :class:`BatchedKernel` — the fused runtime used by deployed agents: the
  same pipeline over a stack of lanes (one :class:`KernelContext` each, a
  single call being a stack of one), with pre-resolved scales/bounds.
"""

from .qtypes import (
    ACCUMULATOR_BITS,
    INT4,
    INT8,
    QuantSpec,
    to_signed,
    to_unsigned,
    wrap_to_accumulator,
)
from .quantizer import (Calibrator, QuantParams, calibration_key,
                        compute_scale, dequantize, quantize)
from .qgemm import GemmHooks, GemmStats, QuantizedLinear, quantized_matmul
from .kernel import (CALIBRATION_STACK_LANES, BatchedKernel, FloatKernel,
                     KernelContext, KernelPlan, KVCache)

__all__ = [
    "ACCUMULATOR_BITS",
    "INT4",
    "INT8",
    "QuantSpec",
    "QuantParams",
    "Calibrator",
    "calibration_key",
    "compute_scale",
    "quantize",
    "dequantize",
    "to_signed",
    "to_unsigned",
    "wrap_to_accumulator",
    "GemmHooks",
    "GemmStats",
    "QuantizedLinear",
    "quantized_matmul",
    "KernelContext",
    "KernelPlan",
    "FloatKernel",
    "KVCache",
    "BatchedKernel",
    "CALIBRATION_STACK_LANES",
]
