"""A small numpy-based deep-learning substrate (autodiff, layers, optim).

Everything NECS and the neural baselines need, with no dependency beyond
numpy: reverse-mode autodiff (:mod:`.tensor`), layers (:mod:`.layers`),
sequence encoders (:mod:`.rnn`, :mod:`.attention`), graph convolution
(:mod:`.gcn`), optimizers (:mod:`.optim`) and losses (:mod:`.losses`).
"""

from .tensor import Tensor, concat, gather, segment_max, stack, embedding_lookup, where
from .module import Module, Parameter, Sequential
from .layers import Conv1D, Dense, Dropout, Embedding, LayerNorm, MLP, ReLU, Sigmoid, Tanh
from .rnn import LSTMCell, LSTMEncoder
from .attention import TransformerEncoder
from .gcn import GCNEncoder, GraphPack, block_diagonal, normalized_adjacency, pack_graphs
from .optim import Adam, SGD, clip_grad_norm
from .losses import bce_loss, bce_with_logits, huber_loss, mae_loss, mse_loss
from .fused import fused_forward
from . import functional

__all__ = [
    "Tensor", "concat", "gather", "segment_max", "stack", "embedding_lookup", "where",
    "Module", "Parameter", "Sequential",
    "Conv1D", "Dense", "Dropout", "Embedding", "LayerNorm", "MLP",
    "ReLU", "Sigmoid", "Tanh",
    "LSTMCell", "LSTMEncoder", "TransformerEncoder",
    "GCNEncoder", "GraphPack", "block_diagonal", "normalized_adjacency", "pack_graphs",
    "Adam", "SGD", "clip_grad_norm",
    "bce_loss", "bce_with_logits", "huber_loss", "mae_loss", "mse_loss",
    "fused_forward",
    "functional",
]
