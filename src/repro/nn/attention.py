"""Multi-head self-attention used by both planner and controller surrogates."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor
from .layers import Linear
from .module import Module

__all__ = ["MultiHeadAttention", "causal_mask"]


def causal_mask(seq_len: int) -> np.ndarray:
    """Additive causal mask: 0 on/below the diagonal, -inf-ish above it."""
    mask = np.triu(np.ones((seq_len, seq_len)), k=1)
    return mask * -1e9


class MultiHeadAttention(Module):
    """Standard multi-head scaled dot-product self-attention.

    The four projections (Q, K, V, O) are kept as distinct :class:`Linear`
    modules because the resilience characterization (paper Sec. 4.1, Fig. 5e-h)
    injects errors into individual network components by name.
    """

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator | None = None,
                 causal: bool = False):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError("dim must be divisible by num_heads")
        rng = rng or np.random.default_rng(0)
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.causal = causal
        self.q_proj = Linear(dim, dim, bias=False, rng=rng)
        self.k_proj = Linear(dim, dim, bias=False, rng=rng)
        self.v_proj = Linear(dim, dim, bias=False, rng=rng)
        self.o_proj = Linear(dim, dim, bias=False, rng=rng)

    def _split_heads(self, x: Tensor, batch: int, seq: int) -> Tensor:
        # (batch, seq, dim) -> (batch, heads, seq, head_dim)
        return x.reshape(batch, seq, self.num_heads, self.head_dim).transpose(1, 2)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        batch, seq, _ = x.shape
        q = self._split_heads(self.q_proj(x), batch, seq)
        k = self._split_heads(self.k_proj(x), batch, seq)
        v = self._split_heads(self.v_proj(x), batch, seq)

        scores = (q @ k.transpose(-1, -2)) * (1.0 / np.sqrt(self.head_dim))
        if self.causal and mask is None:
            mask = causal_mask(seq)
        if mask is not None:
            scores = scores + Tensor(mask)
        weights = scores.softmax(axis=-1)
        context = weights @ v  # (batch, heads, seq, head_dim)
        context = context.transpose(1, 2).reshape(batch, seq, self.dim)
        return self.o_proj(context)
