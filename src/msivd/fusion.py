"""Fused LLM+GNN binary classifier and its one read-out path.

Code becomes two inputs: the frozen language model's hidden row at the
``<|teacher|>`` marker of the round-1 prompt (``ReadOut``, which caches the
keys and values of the scaffold that every prompt starts with, so a read-out
forwards only the code rows), and the mini-C CFG with its dataflow node
features and in-edge adjacency (``graph_inputs``). ``fused_vector``
concatenates each row with the mean-pooled GGNN embedding of its graph; a
linear projection onto the yes/no label pair plus LogSoftmax yields the
vulnerable/safe prediction. Code that the mini-C analyzer cannot parse falls
back to a zero graph embedding and the prediction is flagged. Everything after the two inputs takes a batch of rows:
``train.train_fused`` computes the inputs once per sample and, on every step,
one ``Ggnn.embed`` and one classifier pass over the mini-batch; ``predict``
runs the whole path on a batch of one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .corpus import CodeSample
from .dfa import build_node_features, reaching_definitions
from .dialogue import prompt_scaffold, render_prompt
from .gnn import Ggnn, GgnnConfig, GraphInputs, adjacency
from .lm import ByteTokenizer, KvPrefix, LmModel, LmOutput, TransformerConfig
from .minic import MiniCError, parse_mini_c

__all__ = [
    "Prediction",
    "FusedClassifier",
    "label_nll",
    "fused_input_width",
    "ReadOut",
    "graph_inputs",
    "graph_embedding",
    "fused_vector",
    "InferenceBundle",
    "predict",
    "predict_pretrained",
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
    """Linear projection from the fused vector onto (yes, no) label logits,
    from ``weights`` keyed by the names of ``table``, or drawn from ``seed``."""

    def __init__(self, in_dim: int, seed: int = 0, weights: dict[str, np.ndarray] | None = None):
        self.in_dim = in_dim
        weights = ag.draw(self.table(in_dim), seed) if weights is None else weights
        self.w, self.b = (Tensor(weights[name], requires_grad=True) for name, _, _ in self.table(in_dim))

    @staticmethod
    def table(in_dim: int) -> list[tuple[str, tuple[int, ...], str]]:
        """Each parameter's checkpoint name, shape and initial draw (``autograd.draw``)."""
        return [("clf.w", (2, in_dim), "fan_in"), ("clf.b", (2,), "zeros")]

    def parameters(self) -> dict[str, Tensor]:
        return {"clf.w": self.w, "clf.b": self.b}

    def logits(self, fused: Tensor) -> Tensor:
        """The [B x 2] (yes, no) logit rows of [B x in_dim] fused rows."""
        if fused.shape[-1] != self.in_dim:
            raise ag.ShapeError(f"classifier expects width {self.in_dim}, got {fused.shape[-1]}")
        return ag.linear(fused, self.w, self.b)

    def classify(self, fused: Tensor, flagged: bool = False) -> Prediction:
        return _pair_prediction(self.logits(fused).data[0], flagged)


def _pair_prediction(pair, flagged: bool = False) -> Prediction:
    """The prediction from a (yes, no) logit pair, its LogSoftmax taken in
    64-bit floats. The score is clamped to the nearest floats inside (0, 1),
    which a saturated pair would otherwise reach; ``log_probs`` stay exact."""
    lp = np.asarray(pair, dtype=np.float64)
    lp = lp - lp.max()
    lp -= np.log(np.exp(lp).sum())
    return Prediction(
        label=bool(np.argmax(lp) == YES_INDEX),
        score=float(np.clip(np.exp(lp[YES_INDEX]), np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))),
        log_probs=(float(lp[YES_INDEX]), float(lp[NO_INDEX])),
        flagged=flagged,
    )


def label_nll(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of the B true labels under the
    LogSoftmax of their [B x 2] logit rows."""
    labels = np.asarray(labels, dtype=bool)
    weights = np.full(labels.shape, 1.0 / labels.size)
    return ag.cross_entropy(logits, np.where(labels, YES_INDEX, NO_INDEX), weights)


class ReadOut:
    """Freezes ``lm``, adapters included, and computes the prompt scaffold's
    per-layer keys and values once; a call returns the ``[1 x d_model]``
    hidden row and ``[1 x V]`` logits at the ``<|teacher|>`` marker of the
    code's round-1 prompt, forwarding only the rows after the scaffold."""

    def __init__(self, lm: LmModel, tokenizer: ByteTokenizer):
        for t in lm.adapter_parameters().values():
            t.requires_grad = False
        self.lm = lm
        self.tokenizer = tokenizer
        ids = np.asarray(prompt_scaffold(tokenizer), dtype=np.int64)
        self.prefix = KvPrefix(ids=ids, kv=lm.forward(ids).kv)

    def __call__(self, code: str) -> LmOutput:
        ids = render_prompt(code, self.tokenizer, self.lm.config.context_window)
        return self.lm.forward(ids, prefix=self.prefix, first_row=len(ids) - 1)


def graph_inputs(code: str, width: int) -> GraphInputs | None:
    """The code's CFG, its reaching-definitions node features, ``width``
    wide, and its in-edge adjacency; None when the mini-C analyzer rejects
    the code."""
    try:
        cfg = parse_mini_c(code)
    except MiniCError:
        return None
    features = build_node_features(cfg, reaching_definitions(cfg), width=width)
    return cfg, features, adjacency(len(cfg.nodes), cfg.edges)


def graph_embedding(graph: GraphInputs | None, gnn: Ggnn) -> Tensor:
    """Mean-pooled [1 x state_dim] GGNN embedding of ``graph``; the zero row
    of ``Ggnn.embed`` for the fallback."""
    return gnn.embed([None]) if graph is None else gnn.forward(*graph)


def fused_vector(rows: np.ndarray, embeddings: Tensor | None) -> Tensor:
    """The [B x in] classifier input: each of the [B x d_model] LM ``rows``
    followed by its graph's row of ``embeddings``, or ``rows`` alone without
    a GGNN."""
    hidden = Tensor(rows)
    return hidden if embeddings is None else ag.concat_last_dim([hidden, embeddings])


@dataclass
class InferenceBundle:
    read_out: ReadOut
    classifier: FusedClassifier
    gnn: Ggnn | None = None

    @property
    def tokenizer(self) -> ByteTokenizer:
        return self.read_out.tokenizer

    @property
    def context_window(self) -> int:
        return self.read_out.lm.config.context_window


def predict(sample: CodeSample, bundle: InferenceBundle) -> Prediction:
    """Read out the frozen LM and the graph, fuse, classify; ``flagged``
    marks the zero-embedding fallback."""
    row = bundle.read_out(sample.code).hidden.data
    if bundle.gnn is None:
        return bundle.classifier.classify(fused_vector(row, None))
    graph = graph_inputs(sample.code, bundle.gnn.config.state_dim)
    return bundle.classifier.classify(fused_vector(row, graph_embedding(graph, bundle.gnn)), flagged=graph is None)


def predict_pretrained(read_out: ReadOut, sample: CodeSample) -> Prediction:
    """Label from the raw yes/no token logits at the answer position (no
    vulnerability-specific training at all)."""
    row = read_out(sample.code).logits.data[0]
    return _pair_prediction((row[ByteTokenizer.YES], row[ByteTokenizer.NO]))
