"""Byte-level tokenizer and a small decoder-only transformer with LoRA.

The base weights are frozen; low-rank adapters on the attention query/value
projections carry all of the fine-tuning signal. The task-averaged SIFT loss
over these forwards (the paper's Eq. 2) is ``train.sift_batch_loss``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor

__all__ = [
    "ByteTokenizer",
    "TransformerConfig",
    "LoraConfig",
    "LoraAdapter",
    "make_adapter",
    "lora_forward",
    "LmOutput",
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
    vocab_size: int = ByteTokenizer.vocab_size

    def __post_init__(self):
        if min(self.d_model, self.n_layers, self.n_heads, self.context_window) < 1:
            raise ValueError("d_model, n_layers, n_heads and context_window must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")

    @classmethod
    def paper(cls) -> "TransformerConfig":
        """The paper's dimensions: d_model 4096, 8 layers, a 2048-token window."""
        return cls(d_model=4096, n_layers=8, n_heads=32, context_window=2048)


@dataclass(frozen=True)
class LoraConfig:
    rank: int = 8
    alpha: float = 16.0
    init_std: float = 0.02

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("LoRA rank must be >= 1")
        if not (np.isfinite(self.alpha) and 0 <= self.init_std < np.inf):
            raise ValueError(f"LoRA needs a finite alpha and a finite init_std >= 0: {self.alpha}, {self.init_std}")


@dataclass
class LoraAdapter:
    """Low-rank delta for one frozen weight: A is Gaussian, B starts at zero."""

    a: Tensor  # [r x d_in]
    b: Tensor  # [d_out x r]
    rank: int
    alpha: float


def make_adapter(d_in: int, d_out: int, cfg: LoraConfig, rng: np.random.Generator, dtype=np.float32) -> LoraAdapter:
    a = Tensor(rng.normal(0.0, cfg.init_std, size=(cfg.rank, d_in)).astype(dtype), requires_grad=True)
    b = Tensor(np.zeros((d_out, cfg.rank), dtype=dtype), requires_grad=True)
    return LoraAdapter(a=a, b=b, rank=cfg.rank, alpha=cfg.alpha)


def lora_forward(x: Tensor, w0: Tensor, adapter: LoraAdapter | None) -> Tensor:
    """x @ W0^T plus the scaled low-rank path (alpha/r) x A^T B^T.

    W0 stays frozen; only A and B are trainable. With B at its zero
    initialization the output equals the base layer exactly.
    """
    base = ag.matmul(x, ag.transpose(w0))
    if adapter is None:
        return base
    d_out, d_in = w0.shape
    if adapter.a.shape != (adapter.rank, d_in) or adapter.b.shape != (d_out, adapter.rank):
        raise ag.ShapeError(
            f"adapter rank mismatch: A {adapter.a.shape}, B {adapter.b.shape} "
            f"for weight {w0.shape} rank {adapter.rank}"
        )
    delta = ag.matmul(ag.matmul(x, ag.transpose(adapter.a)), ag.transpose(adapter.b))
    return ag.add(base, ag.scale(delta, adapter.alpha / adapter.rank))


@dataclass
class LmOutput:
    logits: Tensor  # [T x V], or [1 x V] for the last position only
    hidden: Tensor  # [T x d_model] post final layer norm, or [1 x d_model]


class LmModel:
    """Decoder-only transformer over the byte vocabulary.

    Base parameters are created frozen (requires_grad=False); when LoRA is
    enabled the adapters are the only trainable tensors.
    """

    def __init__(
        self,
        config: TransformerConfig,
        seed: int = 0,
        lora: LoraConfig | None = LoraConfig(),
        dtype=np.float32,
    ):
        self.config = config
        self.lora_config = lora
        rng = np.random.default_rng(seed)
        d = config.d_model

        def frozen(shape, std):
            return Tensor(rng.normal(0.0, std, size=shape).astype(dtype), requires_grad=False)

        def ones(n):
            return Tensor(np.ones(n, dtype=dtype), requires_grad=False)

        def zeros(n):
            return Tensor(np.zeros(n, dtype=dtype), requires_grad=False)

        self.tok_emb = frozen((config.vocab_size, d), 0.02)
        self.pos_emb = frozen((config.context_window, d), 0.02)
        self.layers = []
        for _ in range(config.n_layers):
            layer = {
                "ln1_g": ones(d), "ln1_b": zeros(d),
                "wq": frozen((d, d), d**-0.5), "wk": frozen((d, d), d**-0.5),
                "wv": frozen((d, d), d**-0.5), "wo": frozen((d, d), d**-0.5),
                "ln2_g": ones(d), "ln2_b": zeros(d),
                "w1": frozen((4 * d, d), d**-0.5), "b1": zeros(4 * d),
                "w2": frozen((d, 4 * d), (4 * d) ** -0.5), "b2": zeros(d),
            }
            self.layers.append(layer)
        self.ln_f_g = ones(d)
        self.ln_f_b = zeros(d)
        self.lm_head = frozen((config.vocab_size, d), 0.02)

        # adapters on the attention query/value projections only
        self.adapters: dict[str, LoraAdapter] = {}
        if lora is not None:
            for i in range(config.n_layers):
                self.adapters[f"layer{i}.wq"] = make_adapter(d, d, lora, rng, dtype)
                self.adapters[f"layer{i}.wv"] = make_adapter(d, d, lora, rng, dtype)

    # --- parameter access --------------------------------------------------

    def base_parameters(self) -> dict[str, Tensor]:
        params = {"tok_emb": self.tok_emb, "pos_emb": self.pos_emb,
                  "ln_f_g": self.ln_f_g, "ln_f_b": self.ln_f_b, "lm_head": self.lm_head}
        for i, layer in enumerate(self.layers):
            for k, t in layer.items():
                params[f"layer{i}.{k}"] = t
        return params

    def adapter_parameters(self) -> dict[str, Tensor]:
        params = {}
        for name, ad in self.adapters.items():
            params[f"{name}.lora_a"] = ad.a
            params[f"{name}.lora_b"] = ad.b
        return params

    def parameters(self) -> dict[str, Tensor]:
        return {**self.base_parameters(), **self.adapter_parameters()}

    # --- forward -------------------------------------------------------------

    def forward(self, token_ids, last_only: bool = False) -> LmOutput:
        """Hidden states and next-token logits for every position, or with
        ``last_only`` for the final position alone.

        With ``last_only`` every layer still computes keys and values over all
        positions, since the final one attends to them, but the last layer's
        query, attention, MLP, the final layer norm and the head run on one row.
        """
        ids = np.asarray(token_ids, dtype=np.int64)
        t = ids.shape[0]
        if t == 0:
            raise ag.ShapeError("forward on empty token sequence")
        if t > self.config.context_window:
            raise ag.ShapeError(f"sequence length {t} exceeds context window {self.config.context_window}")
        x = ag.add(ag.embedding_lookup(self.tok_emb, ids), ag.embedding_lookup(self.pos_emb, np.arange(t)))

        for i, layer in enumerate(self.layers):
            last = last_only and i == len(self.layers) - 1
            xn = ag.layer_norm(x, layer["ln1_g"], layer["ln1_b"])
            q = lora_forward(ag.slice_rows(xn, t - 1, t) if last else xn,
                             layer["wq"], self.adapters.get(f"layer{i}.wq"))
            k = ag.matmul(xn, ag.transpose(layer["wk"]))
            v = lora_forward(xn, layer["wv"], self.adapters.get(f"layer{i}.wv"))
            attn_out = ag.matmul(ag.causal_attention(q, k, v, self.config.n_heads), ag.transpose(layer["wo"]))
            if last:
                x = ag.slice_rows(x, t - 1, t)
            x = ag.add(x, attn_out)

            xn2 = ag.layer_norm(x, layer["ln2_g"], layer["ln2_b"])
            hdn = ag.relu(ag.add(ag.matmul(xn2, ag.transpose(layer["w1"])), layer["b1"]))
            mlp_out = ag.add(ag.matmul(hdn, ag.transpose(layer["w2"])), layer["b2"])
            x = ag.add(x, mlp_out)

        hidden = ag.layer_norm(x, self.ln_f_g, self.ln_f_b)
        logits = ag.matmul(hidden, ag.transpose(self.lm_head))
        return LmOutput(logits=logits, hidden=hidden)
