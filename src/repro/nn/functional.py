"""Stateless numpy helpers shared by the training and deployment paths.

These functions operate on raw :class:`numpy.ndarray` values (not autograd
tensors) and are used by the quantized deployment engine, the entropy
calculation and the evaluation code.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "softmax",
    "log_softmax",
    "relu",
    "silu",
    "gelu",
    "sigmoid",
    "layer_norm",
    "rms_norm",
    "entropy",
    "one_hot",
    "cosine_similarity",
]


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax.

    ``np.maximum.reduce`` / ``np.add.reduce`` are the reductions behind
    ``x.max()`` / ``x.sum()``, without their Python wrappers.
    """
    x = np.asarray(x, dtype=np.float64)
    exps = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    np.exp(exps, out=exps)
    exps /= np.add.reduce(exps, axis=axis, keepdims=True)
    return exps


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def silu(x: np.ndarray) -> np.ndarray:
    return x * sigmoid(x)


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(0.7978845608028654 * (x + 0.044715 * x ** 3)))


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Clip the exponent so corrupted (huge-magnitude) activations cannot overflow;
    # beyond +-60 the sigmoid saturates to 0/1 at double precision anyway.
    return 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))


# The two norms run the reductions of numpy's ``mean`` and ``var``
# (``np.add.reduce`` over the last axis, then a true divide by the count) in
# the same order, without their Python wrappers: on float64 input each equals
# its textbook formula, ``(x - x.mean(-1)) / sqrt(x.var(-1) + eps) * gamma +
# beta`` and ``x / sqrt((x * x).mean(-1) + eps) * gamma``, bit for bit.
def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """LayerNorm over the last axis, used by the deployed controller."""
    count = x.shape[-1]
    centered = x - np.add.reduce(x, axis=-1, keepdims=True) / count
    var = np.add.reduce(centered * centered, axis=-1, keepdims=True)
    var /= count
    var += eps
    np.sqrt(var, out=var)
    centered /= var
    centered *= gamma
    centered += beta
    return centered


def rms_norm(x: np.ndarray, gamma: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """RMSNorm over the last axis, used by the deployed planner."""
    root = np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1]
    root += eps
    np.sqrt(root, out=root)
    out = x / root
    out *= gamma
    return out


def entropy(probabilities: np.ndarray, axis: int = -1, eps: float = 1e-12) -> np.ndarray:
    """Shannon entropy (in nats) of a probability distribution.

    Equals ``-np.sum(p * np.log(p), axis)`` of ``p`` clipped to
    ``[eps, 1]`` bit for bit (clipping is ``maximum`` then ``minimum``, NaN
    passing through), without the wrappers of ``np.clip`` and ``np.sum``.
    """
    p = np.maximum(np.asarray(probabilities, dtype=np.float64), eps)
    np.minimum(p, 1.0, out=p)
    terms = np.log(p)
    np.multiply(p, terms, out=terms)
    return -np.add.reduce(terms, axis=axis)


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (num_classes,), dtype=np.float64)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def cosine_similarity(a: np.ndarray, b: np.ndarray, eps: float = 1e-12) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    return float(np.dot(a, b) / max(denom, eps))
