"""Minimal neural-network library on top of :mod:`repro.tensor`.

Provides the module/parameter abstraction, common layers, initializers,
losses, the Adam optimizer and the learning-rate schedule used by GNMR
and all the baseline recommenders.
"""

from repro.nn.module import Module, Parameter, ModuleList
from repro.nn.layers import Linear, Embedding, MLP, Dropout, GRUCell
from repro.nn import init
from repro.nn.losses import (
    pairwise_hinge_loss,
    bpr_loss,
    l2_regularization,
    l2_regularization_batch,
)
from repro.nn.optim import Adam
from repro.nn.schedulers import ExponentialDecay

__all__ = [
    "Module",
    "Parameter",
    "ModuleList",
    "Linear",
    "Embedding",
    "MLP",
    "Dropout",
    "GRUCell",
    "init",
    "pairwise_hinge_loss",
    "bpr_loss",
    "l2_regularization",
    "l2_regularization_batch",
    "Adam",
    "ExponentialDecay",
]
