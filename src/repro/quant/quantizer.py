"""Symmetric per-tensor quantization helpers.

The deployment flow follows the paper (Sec. 3.2, following SmoothQuant):
inputs to GEMM / convolution layers are quantized to INT8 with a *static*
scaling factor determined offline from calibration data, multiplied against
INT8 weights, accumulated in 24-bit integers and re-scaled back to float.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qtypes import INT8, QuantSpec

__all__ = ["QuantParams", "compute_scale", "quantize", "dequantize", "Calibrator"]


@dataclass(frozen=True)
class QuantParams:
    """Scale of a symmetric per-tensor quantizer (zero point is always 0)."""

    scale: float
    spec: QuantSpec = INT8

    def __post_init__(self):
        if self.scale <= 0.0 or not np.isfinite(self.scale):
            raise ValueError("quantization scale must be a positive finite number")


def compute_scale(values: np.ndarray, spec: QuantSpec = INT8,
                  percentile: float = 100.0) -> QuantParams:
    """Derive a symmetric scale from calibration values.

    ``percentile`` < 100 clips the calibration range, which is occasionally
    useful for activation tensors with long tails.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot calibrate a scale from an empty tensor")
    magnitudes = np.abs(values)
    if percentile >= 100.0:
        amax = float(magnitudes.max())
    else:
        amax = float(np.percentile(magnitudes, percentile))
    amax = max(amax, 1e-8)
    return QuantParams(scale=amax / spec.qmax, spec=spec)


def quantize(values: np.ndarray, params: QuantParams) -> np.ndarray:
    """Quantize float values to integers (rounded, clipped to the format range)."""
    values = np.asarray(values, dtype=np.float64)
    q = np.rint(values / params.scale)
    return np.clip(q, params.spec.qmin, params.spec.qmax).astype(np.int64)


def dequantize(q_values: np.ndarray, params: QuantParams) -> np.ndarray:
    """Map integer values back to floats."""
    return np.asarray(q_values, dtype=np.float64) * params.scale


class Calibrator:
    """Accumulates activation statistics to derive static input scales.

    A calibration pass runs the float model over representative inputs and
    feeds every GEMM input/output tensor through :meth:`observe`; afterwards
    :meth:`input_params` / :meth:`output_bound` provide the static scale and
    the anomaly bound used by the deployed INT8 pipeline.
    """

    def __init__(self, spec: QuantSpec = INT8):
        self.spec = spec
        self._input_amax: dict[str, float] = {}
        self._output_amax: dict[str, float] = {}

    def observe(self, name: str, inputs: np.ndarray, outputs: np.ndarray) -> None:
        in_amax = float(np.abs(inputs).max()) if inputs.size else 0.0
        out_amax = float(np.abs(outputs).max()) if outputs.size else 0.0
        self._input_amax[name] = max(self._input_amax.get(name, 0.0), in_amax)
        self._output_amax[name] = max(self._output_amax.get(name, 0.0), out_amax)

    @property
    def layer_names(self) -> list[str]:
        return sorted(self._input_amax)

    def input_params(self, name: str) -> QuantParams:
        if name not in self._input_amax:
            raise KeyError(f"layer {name!r} was never observed during calibration")
        amax = max(self._input_amax[name], 1e-8)
        return QuantParams(scale=amax / self.spec.qmax, spec=self.spec)

    def output_amax(self, name: str) -> float:
        if name not in self._output_amax:
            raise KeyError(f"layer {name!r} was never observed during calibration")
        return max(self._output_amax[name], 1e-8)

    def output_bound(self, name: str, margin: float = 1.0) -> float:
        """Valid-output bound for anomaly detection (in float domain).

        ``margin`` > 1 loosens the bound; the paper uses the INT8 re-quantization
        range (127 x output scale), i.e. the profiled maximum, as the bound.
        """
        return self.output_amax(name) * margin
