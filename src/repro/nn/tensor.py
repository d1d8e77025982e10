"""Minimal reverse-mode automatic differentiation over numpy arrays.

The paper trains its denoising network (and the baseline generators) with
PyTorch on GPUs.  This module is the CPU substitute: a small, well-tested
autograd engine sufficient for MLPs, message-passing layers and the
embedding lookups used throughout the repository.

Gradients are accumulated into ``Tensor.grad`` by :meth:`Tensor.backward`,
which topologically sorts the recorded tape.  Broadcasting is supported for
elementwise operations; gradients are un-broadcast (summed) back to the
operand shapes.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

Array = np.ndarray


def _as_array(value) -> Array:
    if isinstance(value, np.ndarray):
        return value.astype(np.float64, copy=False)
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with an optional gradient tape entry."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad: bool = False):
        self.data: Array = _as_array(data)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[], None] | None = None
        self._prev: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.item())

    def numpy(self) -> Array:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # ------------------------------------------------------------------
    # Graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: Array,
        parents: tuple["Tensor", ...],
        backward: Callable[["Tensor"], None] | None,
    ) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._prev = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: Array) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other.data

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(-out.grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other.data

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self * other.pow(-1.0)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other) * self.pow(-1.0)

    def pow(self, exponent: float) -> "Tensor":
        out_data = self.data ** exponent

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(
                    out.grad * exponent * self.data ** (exponent - 1.0)
                )

        return Tensor._make(out_data, (self,), backward)

    __pow__ = pow

    # ------------------------------------------------------------------
    # Matrix ops
    # ------------------------------------------------------------------
    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data @ other.data

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                grad = out.grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                grad = np.swapaxes(self.data, -1, -2) @ out.grad
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    def transpose(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(np.swapaxes(out.grad, -1, -2))

        return Tensor._make(np.swapaxes(self.data, -1, -2), (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def reshape(self, *shape: int) -> "Tensor":
        old_shape = self.shape

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad.reshape(old_shape))

        return Tensor._make(self.data.reshape(shape), (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None,
            keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(out: Tensor) -> None:
            if not self.requires_grad:
                return
            grad = out.grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(a % self.ndim for a in axes):
                    grad = np.expand_dims(grad, ax)
            self._accumulate(np.broadcast_to(grad, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None,
             keepdims: bool = False) -> "Tensor":
        count = self.size if axis is None else (
            np.prod([self.shape[a] for a in
                     ((axis,) if isinstance(axis, int) else axis)])
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    # ------------------------------------------------------------------
    # Nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * mask)

        return Tensor._make(self.data * mask, (self,), backward)

    def sigmoid(self) -> "Tensor":
        s = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * s * (1.0 - s))

        return Tensor._make(s, (self,), backward)

    def tanh(self) -> "Tensor":
        t = np.tanh(self.data)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * (1.0 - t * t))

        return Tensor._make(t, (self,), backward)

    def exp(self) -> "Tensor":
        e = np.exp(np.clip(self.data, -60.0, 60.0))

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad * e)

        return Tensor._make(e, (self,), backward)

    def log(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(out.grad / np.maximum(self.data, 1e-12))

        return Tensor._make(np.log(np.maximum(self.data, 1e-12)), (self,), backward)

    # ------------------------------------------------------------------
    # Indexing / combination
    # ------------------------------------------------------------------
    def take_rows(self, index: Array) -> "Tensor":
        """Gather rows (embedding lookup); gradients scatter-add back."""
        index = np.asarray(index, dtype=np.int64)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate(scatter_rows(index, out.grad, len(self.data)))

        return Tensor._make(self.data[index], (self,), backward)

    def concat(self, other: "Tensor", axis: int = -1) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = np.concatenate([self.data, other.data], axis=axis)
        split = self.shape[axis]

        def backward(out: Tensor) -> None:
            left, right = np.split(out.grad, [split], axis=axis)
            if self.requires_grad:
                self._accumulate(left)
            if other.requires_grad:
                other._accumulate(right)

        return Tensor._make(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Array | None = None) -> None:
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that has no grad tape")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        if grad is None:
            if self.size != 1:
                raise RuntimeError("backward() without grad requires a scalar")
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=np.float64).reshape(self.shape)

        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node)


def concat_all(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate many tensors along ``axis`` (left fold of pairwise concat)."""
    tensors = list(tensors)
    out = tensors[0]
    for t in tensors[1:]:
        out = out.concat(t, axis=axis)
    return out


def scatter_rows(index: Array, values: Array, num_rows: int) -> Array:
    """Row scatter-add: ``out[index[k]] += values[k]`` into ``num_rows`` zero rows.

    The backward of a row gather.  ``np.bincount`` adds each bin's weights
    in input order starting from 0.0, exactly as ``np.add.at`` does, so
    the sums are bit-identical to it without its per-element dispatch.
    ``index`` must be non-negative.
    """
    index = np.asarray(index, dtype=np.int64)
    tail = values.shape[index.ndim:]
    width = int(np.prod(tail))
    bins = (index.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
    out = np.bincount(bins, weights=values.reshape(-1),
                      minlength=num_rows * width)
    return out.reshape((num_rows, *tail))


def parameter(shape: tuple[int, ...], rng: np.random.Generator,
              scale: float | None = None) -> Tensor:
    """Trainable tensor with Glorot-style initialisation."""
    if scale is None:
        fan_in = shape[0] if len(shape) > 1 else max(shape[0], 1)
        scale = 1.0 / np.sqrt(fan_in)
    t = Tensor(rng.uniform(-scale, scale, size=shape))
    t.requires_grad = True
    return t
