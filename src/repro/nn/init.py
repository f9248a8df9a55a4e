"""Weight-initialization helpers.

All initializers take an explicit ``rng`` so model construction is fully
reproducible; resilience experiments repeat trials hundreds of times and the
trained surrogates must be identical across runs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "xavier_uniform",
    "kaiming_uniform",
    "zeros",
    "ones",
    "normal",
    "outlier_channels",
]


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 2:
        fan_in, fan_out = shape[0], shape[1]
    elif len(shape) == 4:
        receptive = shape[2] * shape[3]
        fan_in, fan_out = shape[1] * receptive, shape[0] * receptive
    else:
        fan_in = fan_out = int(np.prod(shape)) if shape else 1
    return max(fan_in, 1), max(fan_out, 1)


def xavier_uniform(shape, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    fan_in, fan_out = _fans(tuple(shape))
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def kaiming_uniform(shape, rng: np.random.Generator) -> np.ndarray:
    fan_in, _ = _fans(tuple(shape))
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)


def ones(shape) -> np.ndarray:
    return np.ones(shape, dtype=np.float64)


def normal(shape, rng: np.random.Generator, std: float = 0.02) -> np.ndarray:
    return rng.normal(0.0, std, size=shape)


def outlier_channels(
    shape: tuple[int, int],
    rng: np.random.Generator,
    outlier_fraction: float = 0.03,
    outlier_scale: float = 12.0,
    base_std: float = 0.02,
) -> np.ndarray:
    """Initialize a weight matrix whose outputs carry systematic outlier channels.

    Large language models are widely reported to develop a small set of output
    channels with activations one to two orders of magnitude larger than the
    rest (SmoothQuant, QuaRot).  The CREATE paper's central model-level finding
    is that these outliers, combined with pre-normalization, make the planner
    fragile.  Our planner surrogate is far smaller than an 8 B-parameter LLM, so
    instead of relying on emergent outliers we bake the phenomenon into the
    projection weights feeding the pre-norm residual stream: a random subset of
    output channels is scaled by ``outlier_scale``.
    """
    if not 0.0 < outlier_fraction < 1.0:
        raise ValueError("outlier_fraction must be in (0, 1)")
    weight = rng.normal(0.0, base_std, size=shape)
    n_out = shape[1]
    n_outliers = max(1, int(round(outlier_fraction * n_out)))
    columns = rng.choice(n_out, size=n_outliers, replace=False)
    weight[:, columns] *= outlier_scale
    return weight
