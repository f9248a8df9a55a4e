"""Quantized GEMM execution pipeline used by the deployed planner/controller.

The pipeline mirrors the accelerator dataflow of the paper:

``float input -> INT8 quantize -> integer GEMM (24-bit accumulate) ->
[timing-error injection] -> [anomaly detection & clearance] -> dequantize``

Fault injection and anomaly clearance are pluggable hooks so the same engine
serves the unprotected baseline, AD-only, AD+WR and all ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from .qtypes import INT8, QuantSpec, wrap_to_accumulator
from .quantizer import QuantParams, compute_scale, quantize

__all__ = ["GemmStats", "GemmHooks", "QuantizedLinear", "quantized_matmul"]


class _Injector(Protocol):  # pragma: no cover - typing helper
    def inject(self, accumulators: np.ndarray, spec: QuantSpec,
               component: str | None = None) -> np.ndarray: ...

    def draw(self, accumulators: np.ndarray, spec: QuantSpec,
             component: str | None = None
             ) -> tuple[np.ndarray, np.ndarray] | None: ...


@dataclass
class GemmStats:
    """Operation counters for energy / latency accounting."""

    gemm_calls: int = 0
    macs: int = 0
    output_elements: int = 0
    macs_per_component: dict[str, int] = field(default_factory=dict)

    def record(self, component: str | None, macs: int, outputs: int) -> None:
        self.gemm_calls += 1
        self.macs += macs
        self.output_elements += outputs
        if component is not None:
            self.macs_per_component[component] = (
                self.macs_per_component.get(component, 0) + macs
            )

    def reset(self) -> None:
        self.gemm_calls = 0
        self.macs = 0
        self.output_elements = 0
        self.macs_per_component.clear()


@dataclass
class GemmHooks:
    """Pluggable behaviour of the quantized GEMM pipeline.

    Attributes
    ----------
    injector:
        Object with ``inject(acc, spec, component)`` (this reference
        pipeline) and ``draw(acc, spec, component)`` (the kernel runtime)
        methods, usually a :class:`repro.faults.ErrorInjector`.  ``None``
        means fault-free.
    anomaly_clamp:
        Callable ``(acc, bound_int, component) -> acc`` applied after
        injection (usually :class:`repro.core.anomaly.AnomalyDetector`).
        ``None`` disables anomaly detection and clearance.
    stats:
        Shared operation counters (optional).
    """

    injector: _Injector | None = None
    anomaly_clamp: Callable[[np.ndarray, int, str | None], np.ndarray] | None = None
    stats: GemmStats | None = None


def quantized_matmul(x: np.ndarray, weight_q: np.ndarray, x_params: QuantParams,
                     w_params: QuantParams, hooks: GemmHooks | None = None,
                     component: str | None = None,
                     output_bound: float | None = None,
                     spec: QuantSpec = INT8) -> np.ndarray:
    """Quantized ``x @ W`` with 24-bit accumulation and optional hooks.

    ``weight_q`` is the pre-quantized integer weight matrix (in, out).
    ``output_bound`` is the profiled maximum absolute output value (float
    domain) used by anomaly detection; it is converted to the accumulator
    domain internally.
    """
    hooks = hooks or GemmHooks()
    x_q = quantize(x, x_params)
    acc = x_q @ weight_q  # int64 accumulation
    # Model the finite accumulator width (values wrap, as in hardware).
    acc = wrap_to_accumulator(acc, spec.accumulator_bits)

    if hooks.stats is not None:
        macs = int(np.prod(x.shape[:-1])) * weight_q.shape[0] * weight_q.shape[1]
        hooks.stats.record(component, macs, int(acc.size))

    if hooks.injector is not None:
        acc = hooks.injector.inject(acc, spec, component=component)

    combined_scale = x_params.scale * w_params.scale
    if hooks.anomaly_clamp is not None and output_bound is not None:
        bound_acc = int(np.ceil(output_bound / combined_scale))
        acc = hooks.anomaly_clamp(acc, bound_acc, component)

    return acc.astype(np.float64) * combined_scale


class QuantizedLinear:
    """A deployed (frozen) linear layer executed through the quantized pipeline.

    Built from a trained float weight matrix; the input scale comes from
    calibration (static quantization).  The layer stores:

    * ``weight_q`` — INT8/INT4 weights,
    * ``x_params`` — static input quantization scale,
    * ``output_bound`` — profiled |output| maximum used as the anomaly bound.
    """

    def __init__(self, name: str, weight: np.ndarray, bias: np.ndarray | None,
                 x_params: QuantParams, spec: QuantSpec = INT8,
                 output_bound: float | None = None):
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2:
            raise ValueError("QuantizedLinear expects a 2-D weight matrix (in, out)")
        self.name = name
        self.spec = spec
        self.x_params = QuantParams(scale=x_params.scale, spec=spec)
        self.w_params = compute_scale(weight, spec)
        self.weight_q = quantize(weight, self.w_params)
        self.bias = None if bias is None else np.asarray(bias, dtype=np.float64).copy()
        self.output_bound = output_bound
        self.in_features, self.out_features = weight.shape

    @property
    def weight_dequantized(self) -> np.ndarray:
        """Float view of the quantized weights (used by rotation checks)."""
        return self.weight_q.astype(np.float64) * self.w_params.scale

    def __call__(self, x: np.ndarray, hooks: GemmHooks | None = None) -> np.ndarray:
        out = quantized_matmul(
            x, self.weight_q, self.x_params, self.w_params, hooks=hooks,
            component=self.name, output_bound=self.output_bound, spec=self.spec,
        )
        if self.bias is not None:
            out = out + self.bias
        return out

    def replace_weight(self, weight: np.ndarray, x_params: QuantParams | None = None,
                       output_bound: float | None = None) -> None:
        """Re-quantize with a new float weight (used by offline weight rotation)."""
        weight = np.asarray(weight, dtype=np.float64)
        if weight.shape != (self.in_features, self.out_features):
            raise ValueError("replacement weight must keep the original shape")
        self.w_params = compute_scale(weight, self.spec)
        self.weight_q = quantize(weight, self.w_params)
        if x_params is not None:
            self.x_params = QuantParams(scale=x_params.scale, spec=self.spec)
        if output_bound is not None:
            self.output_bound = output_bound
