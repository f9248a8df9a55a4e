"""Minimal reverse-mode automatic differentiation on top of numpy.

The embodied-AI surrogates in this repository (planner language model,
controller policy, entropy predictor) are trained from scratch.  Rather than
hand-deriving gradients for every layer, the training path is built on this
small autograd engine.  Deployment (quantized INT8 inference with fault
injection) does *not* go through autograd — see :mod:`repro.quant` and
:mod:`repro.agents` — mirroring the float-train / int-deploy split of the
paper's platform.

Only the operations needed by the model zoo are implemented; every op records
a backward closure on a tape owned by the output tensor.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables gradient recording."""

    def __enter__(self):
        global _GRAD_ENABLED
        self._prev = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc, tb):
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._prev
        return False


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array plus an optional gradient and backward tape node."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")
    __array_priority__ = 1000

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._backward = None
        self._parents: tuple = ()

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (not a copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @classmethod
    def _make(cls, data: np.ndarray, parents: tuple, backward) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = cls(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode differentiation from this tensor."""
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        # Topological order over the tape.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other_t.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(grad, other_t.data.shape))

        return Tensor._make(data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        return self + (other_t * -1.0)

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) + (self * -1.0)

    def __mul__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other_t.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other_t.data, self.data.shape))
            if other_t.requires_grad:
                other_t._accumulate(_unbroadcast(grad * self.data, other_t.data.shape))

        return Tensor._make(data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        return self * other_t ** -1.0

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other) * self ** -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        exponent = float(exponent)
        data = self.data ** exponent

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1.0))

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Linear algebra / shape ops
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other_t.data

        def backward(grad):
            if self.requires_grad:
                grad_self = grad @ np.swapaxes(other_t.data, -1, -2)
                self._accumulate(_unbroadcast(grad_self, self.data.shape))
            if other_t.requires_grad:
                grad_other = np.swapaxes(self.data, -1, -2) @ grad
                other_t._accumulate(_unbroadcast(grad_other, other_t.data.shape))

        return Tensor._make(data, (self, other_t), backward)

    __matmul__ = matmul

    def transpose(self, axis_a: int = -1, axis_b: int = -2) -> "Tensor":
        data = np.swapaxes(self.data, axis_a, axis_b)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(np.swapaxes(grad, axis_a, axis_b))

        return Tensor._make(data, (self,), backward)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)
        original = self.data.shape

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(data, (self,), backward)

    def __getitem__(self, key) -> "Tensor":
        data = self.data[key]

        def backward(grad):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, key, grad)
                self._accumulate(full)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)
        mask_ref = self.data == self.data.max(axis=axis, keepdims=True)

        def backward(grad):
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis=axis)
            counts = mask_ref.sum(axis=axis, keepdims=True)
            self._accumulate(np.broadcast_to(g, self.data.shape) * mask_ref / counts)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * data)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * data * (1.0 - data))

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * (1.0 - data * data))

        return Tensor._make(data, (self,), backward)

    def silu(self) -> "Tensor":
        sig = 1.0 / (1.0 + np.exp(-self.data))
        data = self.data * sig

        def backward(grad):
            if self.requires_grad:
                self._accumulate(grad * (sig + self.data * sig * (1.0 - sig)))

        return Tensor._make(data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exps = np.exp(shifted)
        data = exps / exps.sum(axis=axis, keepdims=True)

        def backward(grad):
            if self.requires_grad:
                dot = (grad * data).sum(axis=axis, keepdims=True)
                self._accumulate(data * (grad - dot))

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Structural helpers
    # ------------------------------------------------------------------
    @staticmethod
    def concatenate(tensors: list["Tensor"], axis: int = -1) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]

        def backward(grad):
            start = 0
            for t, size in zip(tensors, sizes):
                if t.requires_grad:
                    index = [slice(None)] * grad.ndim
                    index[axis] = slice(start, start + size)
                    t._accumulate(grad[tuple(index)])
                start += size

        return Tensor._make(data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: list["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]
        data = np.stack([t.data for t in tensors], axis=axis)

        def backward(grad):
            parts = np.split(grad, len(tensors), axis=axis)
            for t, part in zip(tensors, parts):
                if t.requires_grad:
                    t._accumulate(np.squeeze(part, axis=axis))

        return Tensor._make(data, tuple(tensors), backward)

    def pad2d(self, padding: int) -> "Tensor":
        """Zero-pad the last two dimensions by ``padding`` on each side."""
        if padding == 0:
            return self
        pad_width = [(0, 0)] * (self.data.ndim - 2) + [(padding, padding), (padding, padding)]
        data = np.pad(self.data, pad_width)

        def backward(grad):
            if self.requires_grad:
                slices = [slice(None)] * (grad.ndim - 2)
                slices += [slice(padding, -padding), slice(padding, -padding)]
                self._accumulate(grad[tuple(slices)])

        return Tensor._make(data, (self,), backward)
