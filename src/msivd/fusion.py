"""Fused LLM+GNN binary classifier and its one read-out path.

Code becomes two inputs: the frozen language model's last hidden row of the
round-1 prompt (``lm_row``), and the mini-C CFG with its dataflow node
features (``graph_inputs``). ``fused_vector`` concatenates the row with the
mean-pooled GGNN embedding of the graph; a linear projection onto the yes/no
label pair plus LogSoftmax yields the vulnerable/safe prediction. Code that
the mini-C analyzer cannot parse falls back to a zero graph embedding and the
prediction is flagged. ``train.train_fused`` computes the two inputs once per
sample and ``fused_vector`` on every step; ``predict`` runs the whole path.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .corpus import CodeSample
from .dfa import build_node_features, reaching_definitions
from .dialogue import render_prompt
from .gnn import Ggnn, GgnnConfig
from .lm import ByteTokenizer, LmModel, TransformerConfig
from .minic import ControlFlowGraph, MiniCError, parse_mini_c

__all__ = [
    "Prediction",
    "FusedClassifier",
    "label_nll",
    "fused_input_width",
    "lm_row",
    "graph_inputs",
    "graph_embedding",
    "fused_vector",
    "InferenceBundle",
    "predict",
]

YES_INDEX = 0  # vulnerable
NO_INDEX = 1  # safe


@dataclass
class Prediction:
    label: bool  # True = vulnerable
    score: float  # probability of vulnerable, in (0, 1)
    log_probs: tuple[float, float]  # (yes, no)
    flagged: bool = False


def fused_input_width(lm_config: TransformerConfig, gnn_config: GgnnConfig | None) -> int:
    return lm_config.d_model + (gnn_config.state_dim if gnn_config else 0)


class FusedClassifier:
    """Linear projection from the fused vector onto (yes, no) label logits."""

    def __init__(self, in_dim: int, seed: int = 0, dtype=np.float32):
        rng = np.random.default_rng(seed)
        self.in_dim = in_dim
        self.w = Tensor(rng.normal(0.0, in_dim**-0.5, size=(2, in_dim)).astype(dtype), requires_grad=True)
        self.b = Tensor(np.zeros(2, dtype=dtype), requires_grad=True)

    def parameters(self) -> dict[str, Tensor]:
        return {"clf.w": self.w, "clf.b": self.b}

    def logits(self, fused: Tensor) -> Tensor:
        """The [1 x 2] (yes, no) logit row of a [1 x in_dim] fused row."""
        if fused.shape[-1] != self.in_dim:
            raise ag.ShapeError(f"classifier expects width {self.in_dim}, got {fused.shape[-1]}")
        return ag.add(ag.matmul(fused, ag.transpose(self.w)), self.b)

    def classify(self, fused: Tensor, flagged: bool = False) -> Prediction:
        return _pair_prediction(self.logits(fused).data[0], flagged)


def _pair_prediction(pair, flagged: bool = False) -> Prediction:
    """The prediction from a (yes, no) logit pair, its LogSoftmax taken in
    64-bit floats."""
    lp = np.asarray(pair, dtype=np.float64)
    lp = lp - lp.max()
    lp -= np.log(np.exp(lp).sum())
    return Prediction(
        label=bool(np.argmax(lp) == YES_INDEX),
        score=float(np.exp(lp[YES_INDEX])),
        log_probs=(float(lp[YES_INDEX]), float(lp[NO_INDEX])),
        flagged=flagged,
    )


def label_nll(logits: Tensor, label: bool) -> Tensor:
    """Negative log-likelihood of the true label under the LogSoftmax of a
    [1 x 2] logit row."""
    return ag.cross_entropy(logits, [YES_INDEX if label else NO_INDEX], [1.0])


GraphInputs = tuple[ControlFlowGraph, np.ndarray]  # CFG, node features [n x width]


def lm_row(code: str, lm: LmModel, tokenizer: ByteTokenizer) -> np.ndarray:
    """The frozen LM's [1 x d_model] hidden row at the last position of the
    round-1 prompt."""
    ids = render_prompt(code, tokenizer, lm.config.context_window)
    return lm.forward(ids, last_only=True).hidden.data


def graph_inputs(code: str, width: int) -> GraphInputs | None:
    """The code's CFG and its reaching-definitions node features, ``width``
    wide; None when the mini-C analyzer rejects the code."""
    try:
        cfg = parse_mini_c(code)
    except MiniCError:
        return None
    return cfg, build_node_features(cfg, reaching_definitions(cfg), width=width)


def graph_embedding(graph: GraphInputs | None, gnn: Ggnn) -> Tensor:
    """Mean-pooled [1 x state_dim] GGNN embedding of ``graph``; a zero row
    for the fallback."""
    if graph is None:
        return Tensor(np.zeros((1, gnn.config.state_dim), dtype=np.float32))
    return gnn.forward(*graph)


def fused_vector(row: np.ndarray, graph: GraphInputs | None, gnn: Ggnn | None) -> Tensor:
    """The [1 x n] classifier input: ``row`` followed by the graph
    embedding, or ``row`` alone without a GGNN."""
    hidden = Tensor(row)
    if gnn is None:
        return hidden
    return ag.concat_last_dim([hidden, graph_embedding(graph, gnn)])


@dataclass
class InferenceBundle:
    lm: LmModel
    tokenizer: ByteTokenizer
    classifier: FusedClassifier
    gnn: Ggnn | None = None

    @property
    def context_window(self) -> int:
        return self.lm.config.context_window


def predict(sample: CodeSample, bundle: InferenceBundle) -> Prediction:
    """Read out the frozen LM and the graph, fuse, classify; ``flagged``
    marks the zero-embedding fallback."""
    row = lm_row(sample.code, bundle.lm, bundle.tokenizer)
    graph = None
    if bundle.gnn is not None:
        graph = graph_inputs(sample.code, bundle.gnn.config.state_dim)
    flagged = bundle.gnn is not None and graph is None
    return bundle.classifier.classify(fused_vector(row, graph, bundle.gnn), flagged=flagged)
