"""Optimizers for the autograd substrate: SGD and Adam."""

from __future__ import annotations

import itertools

import numpy as np

from .tensor import Tensor


class Optimizer:
    def __init__(self, params: list[Tensor], lr: float):
        self.params = [p for p in params if p.requires_grad]
        if not self.params:
            raise ValueError("optimizer received no trainable parameters")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Plain stochastic gradient descent with optional momentum."""

    def __init__(self, params: list[Tensor], lr: float = 1e-2,
                 momentum: float = 0.0):
        super().__init__(params, lr)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for p, v in zip(self.params, self._velocity):
            if p.grad is None:
                continue
            v *= self.momentum
            v -= self.lr * p.grad
            p.data += v


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction.

    One flat update per step: the parameters' data, ``m`` and ``v`` live
    in single flat buffers (each parameter's ``.data`` is rebound to a
    view of its slice, so a parameter belongs to one optimizer) and the
    gradients are gathered into one buffer.  Every element sees the same
    operations as a per-parameter update, so the result is bit-identical
    to it.  A parameter whose ``grad`` is ``None`` is skipped.
    """

    def __init__(self, params: list[Tensor], lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._data = np.concatenate([p.data for p in self.params], axis=None)
        ends = itertools.accumulate(p.size for p in self.params)
        self._slices = [slice(end - p.size, end)
                        for p, end in zip(self.params, ends)]
        for p, span in zip(self.params, self._slices):
            p.data = self._data[span].reshape(p.shape)
        self._m = np.zeros_like(self._data)
        self._v = np.zeros_like(self._data)
        self._grad = np.empty_like(self._data)
        self._t = 0

    def step(self) -> None:
        self._t += 1
        grads = [p.grad for p in self.params if p.grad is not None]
        if len(grads) == len(self.params):
            np.concatenate(grads, axis=None, out=self._grad)
            self._update(slice(None), self._grad)
            return
        for p, span in zip(self.params, self._slices):
            if p.grad is not None:
                self._update(span, p.grad.reshape(-1))

    def _update(self, span: slice, grad: np.ndarray) -> None:
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self._t
        bias2 = 1.0 - b2 ** self._t
        data, m, v = self._data[span], self._m[span], self._v[span]
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        m *= b1
        m += (1.0 - b1) * grad
        v *= b2
        v += (1.0 - b2) * grad * grad
        data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
