"""Byte-level tokenizer and a small decoder-only transformer with LoRA.

The base weights are frozen; low-rank adapters on the attention query/value
projections carry all of the fine-tuning signal. Every projection (adapted
or not), MLP, layer norm and the attention is one fused autograd kernel, so a
layer records 10 tape nodes. The task-averaged SIFT loss
over these forwards (the paper's Eq. 2) is ``train.sift_batch_loss``.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor

__all__ = [
    "ByteTokenizer",
    "TransformerConfig",
    "LoraConfig",
    "LmOutput",
    "KvPrefix",
    "LmModel",
]


class ByteTokenizer:
    """256 byte tokens plus reserved specials.

    Byte encoding never produces a special id, so encode/decode round-trips
    any UTF-8 text exactly.
    """

    PAD = 256
    BOS = 257
    EOS = 258
    SYSTEM = 259
    STUDENT = 260
    TEACHER = 261
    YES = 262
    NO = 263

    SPECIAL_SURFACE = {
        PAD: "<|pad|>",
        BOS: "<|bos|>",
        EOS: "<|eos|>",
        SYSTEM: "<|system|>",
        STUDENT: "<|student|>",
        TEACHER: "<|teacher|>",
        YES: "yes",
        NO: "no",
    }

    vocab_size = 264

    def encode(self, text: str) -> list[int]:
        return list(text.encode("utf-8"))

    def decode(self, ids) -> str:
        # "replace" only fires on byte sequences no valid encode() produces,
        # so encode -> decode stays the identity on real text
        parts: list[str] = []
        buf = bytearray()
        for i in ids:
            i = int(i)
            if i < 256:
                buf.append(i)
            else:
                if buf:
                    parts.append(buf.decode("utf-8", errors="replace"))
                    buf = bytearray()
                parts.append(self.SPECIAL_SURFACE[i])
        if buf:
            parts.append(buf.decode("utf-8", errors="replace"))
        return "".join(parts)


@dataclass(frozen=True)
class TransformerConfig:
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    context_window: int = 512

    def __post_init__(self):
        if min(self.d_model, self.n_layers, self.n_heads) < 1 or self.context_window < 8:
            raise ValueError("d_model, n_layers and n_heads must be >= 1, and context_window >= 8")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")


@dataclass(frozen=True)
class LoraConfig:
    rank: int = 8
    alpha: float = 16.0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("LoRA rank must be >= 1")
        if not 0 < self.alpha < np.inf:  # alpha 0 scales every adapter gradient to zero
            raise ValueError(f"LoRA needs a finite alpha > 0: {self.alpha}")


def _layer_table(d: int) -> tuple[tuple[str, tuple[int, ...], str], ...]:
    """The key, shape and initial draw of each parameter of a layer."""
    return (
        ("ln1_g", (d,), "ones"), ("ln1_b", (d,), "zeros"),
        ("wq", (d, d), "fan_in"), ("wk", (d, d), "fan_in"), ("wv", (d, d), "fan_in"), ("wo", (d, d), "fan_in"),
        ("ln2_g", (d,), "ones"), ("ln2_b", (d,), "zeros"),
        ("w1", (4 * d, d), "fan_in"), ("b1", (4 * d,), "zeros"), ("w2", (d, 4 * d), "fan_in"), ("b2", (d,), "zeros"),
    )


@dataclass
class LmOutput:
    logits: Tensor  # [T - first_row x V], the rows of positions first_row .. T-1
    hidden: Tensor  # [T - first_row x d_model] post final layer norm, the same rows
    kv: list[tuple[np.ndarray, np.ndarray]]  # per layer, the [T x d_model] keys and values of every position


@dataclass(frozen=True)
class KvPrefix:
    """Per-layer keys and values of a fixed run of leading token ids under a
    frozen model, so that a forward of ids that start with them computes
    only the rows after them."""

    ids: np.ndarray  # int64 [P]
    kv: list[tuple[np.ndarray, np.ndarray]]  # per layer, [P x d_model] keys and values


class LmModel:
    """Decoder-only transformer over the tokenizer's vocabulary, in float32
    from ``weights`` keyed by the names of ``table``, or drawn from ``seed``.

    Base parameters are created frozen (requires_grad=False); the LoRA
    adapters on the attention query/value projections are the only
    trainable tensors. ``adapters`` maps each adapted projection's name
    (``layer{i}.wq``, ``layer{i}.wv``) to its A [r x d_in], drawn Gaussian,
    and B [d_out x r], zero, so the adapted model starts as the base model;
    each adds ``lora_scale`` = alpha / r times x·Aᵀ·Bᵀ to its projection.
    """

    def __init__(self, config: TransformerConfig, seed: int = 0, lora: LoraConfig = LoraConfig(),
                 weights: dict[str, np.ndarray] | None = None):
        self.config = config
        weights = ag.draw(self.table(config, lora), seed) if weights is None else weights

        def param(name, trainable=False):
            return Tensor(weights[f"lm.{name}"], requires_grad=trainable)

        self.tok_emb, self.pos_emb = param("tok_emb"), param("pos_emb")
        self.layers = [{key: param(f"layer{i}.{key}") for key, _, _ in _layer_table(config.d_model)}
                       for i in range(config.n_layers)]
        self.ln_f_g, self.ln_f_b, self.lm_head = param("ln_f_g"), param("ln_f_b"), param("lm_head")
        self.adapters = {f"layer{i}.{p}": (param(f"layer{i}.{p}.lora_a", True), param(f"layer{i}.{p}.lora_b", True))
                         for i in range(config.n_layers) for p in ("wq", "wv")}
        self.lora_scale = lora.alpha / lora.rank

    @staticmethod
    def table(config: TransformerConfig, lora: LoraConfig) -> Iterator[tuple[str, tuple[int, ...], float | str]]:
        """Each parameter's checkpoint name, shape and initial draw
        (``autograd.draw``) in draw order, lazily: checking a file against it
        stops at the first entry that the file lacks."""
        d, vocab = config.d_model, ByteTokenizer.vocab_size
        yield "lm.tok_emb", (vocab, d), 0.02
        yield "lm.pos_emb", (config.context_window, d), 0.02
        for i in range(config.n_layers):
            for key, shape, init in _layer_table(d):
                yield f"lm.layer{i}.{key}", shape, init
        yield "lm.ln_f_g", (d,), "ones"
        yield "lm.ln_f_b", (d,), "zeros"
        yield "lm.lm_head", (vocab, d), 0.02
        for i in range(config.n_layers):
            for p in ("wq", "wv"):
                yield f"lm.layer{i}.{p}.lora_a", (lora.rank, d), 0.02
                yield f"lm.layer{i}.{p}.lora_b", (d, lora.rank), "zeros"

    # --- parameter access --------------------------------------------------

    def adapter_parameters(self) -> dict[str, Tensor]:
        return {f"lm.{name}.lora_{part}": t for name, pair in self.adapters.items() for part, t in zip("ab", pair)}

    def parameters(self) -> dict[str, Tensor]:
        layers = {f"lm.layer{i}.{key}": t for i, layer in enumerate(self.layers) for key, t in layer.items()}
        return {"lm.tok_emb": self.tok_emb, "lm.pos_emb": self.pos_emb, **layers, "lm.ln_f_g": self.ln_f_g,
                "lm.ln_f_b": self.ln_f_b, "lm.lm_head": self.lm_head, **self.adapter_parameters()}

    # --- forward -------------------------------------------------------------

    def forward(self, token_ids, prefix: KvPrefix | None = None, first_row: int = 0) -> LmOutput:
        """Hidden states and next-token logits of positions ``first_row .. T-1``.

        Every layer but the last runs on all rows; the last computes keys and
        values for every row, and its query, attention, MLP, the final layer
        norm and the head run on rows ``first_row .. T-1`` only. With
        ``prefix`` the ids must start with ``prefix.ids`` and go on past them,
        and rows ``0 .. P-1`` come from the prefix's keys and values, so
        ``P <= first_row`` and every layer runs on rows ``P .. T-1`` only. The
        cached keys and values are constants, so every parameter must be
        frozen.
        """
        ids = np.asarray(token_ids, dtype=np.int64)
        t = ids.shape[0]
        if t == 0:
            raise ag.ShapeError("forward on empty token sequence")
        if t > self.config.context_window:
            raise ag.ShapeError(f"sequence length {t} exceeds context window {self.config.context_window}")
        p = 0
        if prefix is not None:
            p = prefix.ids.shape[0]
            if any(w.requires_grad for w in self.parameters().values()):
                raise ag.TapeError("forward with a K/V prefix needs every parameter frozen")
            if t <= p or not np.array_equal(ids[:p], prefix.ids):
                raise ag.ShapeError(f"the {t} ids do not start with the {p} prefix ids and go on past them")
        if not p <= first_row < t:
            raise ag.ShapeError(f"first_row {first_row} outside [{p}, {t}) for {t} ids after a {p}-id prefix")
        x = ag.add(ag.embedding_lookup(self.tok_emb, ids[p:]), ag.embedding_lookup(self.pos_emb, np.arange(p, t)))

        kv = []
        for i, layer in enumerate(self.layers):
            cut = first_row - p if i == len(self.layers) - 1 else 0
            n = x.shape[0]
            xn = ag.layer_norm(x, layer["ln1_g"], layer["ln1_b"])
            q = ag.lora_linear(ag.slice_rows(xn, cut, n) if cut else xn,
                               layer["wq"], *self.adapters[f"layer{i}.wq"], self.lora_scale)
            k = ag.linear(xn, layer["wk"])
            v = ag.lora_linear(xn, layer["wv"], *self.adapters[f"layer{i}.wv"], self.lora_scale)
            if prefix is not None:
                k, v = (Tensor(np.concatenate([c, new.data])) for c, new in zip(prefix.kv[i], (k, v)))
            kv.append((k.data, v.data))
            attn_out = ag.linear(ag.causal_attention(q, k, v, self.config.n_heads), layer["wo"])
            if cut:
                x = ag.slice_rows(x, cut, n)
            x = ag.add(x, attn_out)
            xn2 = ag.layer_norm(x, layer["ln2_g"], layer["ln2_b"])
            x = ag.add(x, ag.mlp(xn2, layer["w1"], layer["b1"], layer["w2"], layer["b2"]))

        hidden = ag.layer_norm(x, self.ln_f_g, self.ln_f_b)
        logits = ag.linear(hidden, self.lm_head)
        return LmOutput(logits=logits, hidden=hidden, kv=kv)
