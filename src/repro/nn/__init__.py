"""Numpy autograd substrate: tensors, layers, optimizers, losses."""

from .functional import (
    bce_with_logits,
    mse,
    sigmoid_np,
    softmax_cross_entropy,
    time_features,
)
from .layers import MLP, Embedding, GRUCell, Linear, Module
from .optim import SGD, Adam
from .tensor import Tensor, concat_all, parameter, scatter_rows

__all__ = [
    "MLP",
    "SGD",
    "Adam",
    "Embedding",
    "GRUCell",
    "Linear",
    "Module",
    "Tensor",
    "bce_with_logits",
    "concat_all",
    "mse",
    "parameter",
    "scatter_rows",
    "sigmoid_np",
    "softmax_cross_entropy",
    "time_features",
]
