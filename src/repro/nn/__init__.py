"""A from-scratch numpy deep-learning substrate.

Replaces PyTorch for this reproduction: reverse-mode autograd, LSTM/dense
layers, Adam, and the SAFE survival loss used to train Xatu.
"""

from .autograd import (
    Tensor,
    gradcheck,
    inference_dtype,
    is_grad_enabled,
    no_grad,
    resolve_inference_dtype,
)
from .fused import avg_pool_1d, lstm_sequence, max_pool_1d
from .layers import (
    LSTM,
    AvgPool1D,
    Dense,
    Dropout,
    MaxPool1D,
    Module,
    Sequential,
)
from .losses import binary_cross_entropy, hazard_to_survival, safe_survival_loss
from .optim import SGD, Adam, Optimizer, clip_grad_norm
from .serialization import load_module_into, load_state, save_module

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "inference_dtype",
    "resolve_inference_dtype",
    "gradcheck",
    "lstm_sequence",
    "avg_pool_1d",
    "max_pool_1d",
    "Module",
    "Dense",
    "LSTM",
    "AvgPool1D",
    "MaxPool1D",
    "Dropout",
    "Sequential",
    "binary_cross_entropy",
    "hazard_to_survival",
    "safe_survival_loss",
    "Optimizer",
    "SGD",
    "Adam",
    "clip_grad_norm",
    "save_module",
    "load_state",
    "load_module_into",
]
