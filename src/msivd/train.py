"""Two-stage training: multitask SIFT of the LM, then fused classifier training.

Stage one optimizes the LoRA adapters only under the task-averaged dialogue
loss (the paper's Eq. 2, ``sift_batch_loss``). Stage two freezes the language
model entirely and trains the graph network plus the label classifier on the
read-out path of ``fusion``: the LM row and the graph inputs are computed
once per sample, the fused vector on every step. Both stages log one loss row
per optimizer step and are bitwise deterministic for a fixed seed.
"""
from __future__ import annotations

import copy
import json
import logging
import math
import os
import random
import struct
import typing
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field, replace
from functools import cache

import numpy as np

from . import _BLAS_THREADS_SET
from . import autograd as ag
from .autograd import Tensor
from .corpus import CodeSample
from .dialogue import DialogueRecord, RenderedDialogue, render
from .fusion import (
    FusedClassifier,
    InferenceBundle,
    ReadOut,
    fused_input_width,
    fused_vector,
    graph_inputs,
    label_nll,
)
from .gnn import Ggnn, GgnnConfig
from .lm import ByteTokenizer, LmModel, LoraConfig, TransformerConfig

# Unused here: bench/tracer.py looks these names up on this module and patches them.
from .fusion import build_node_features, parse_mini_c, reaching_definitions, render_prompt  # noqa: F401

log = logging.getLogger("msivd.train")

__all__ = [
    "TrainConfig",
    "LossCurve",
    "Checkpoint",
    "CheckpointError",
    "Sgd",
    "TrainingStream",
    "render_training_streams",
    "sift_batch_loss",
    "train_sift",
    "train_fused",
    "save_checkpoint",
    "load_checkpoint",
    "build_lm_from_checkpoint",
    "build_bundle_from_checkpoint",
]

SIFT_MODES = ("multi-round", "single-round", "label-only")

CLIP_NORM = 1.0  # global gradient-norm bound of both stages

CKPT_MAGIC = b"MSIVDCKP"
CKPT_VERSION = 3
CKPT_DTYPES = {"<f4": np.float32, "<f8": np.float64}


@dataclass
class TrainConfig:
    stage: str = "sift"  # sift | fused
    learning_rate: float | None = None  # stage default: 1e-5 sift, 1e-6 fused
    batch_size: int = 4
    epochs: int | None = None  # stage default: 10 sift, 5 fused
    seed: int = 0
    sift_mode: str = "multi-round"
    use_gnn: bool = True
    lm_config: TransformerConfig = field(default_factory=TransformerConfig)
    gnn_config: GgnnConfig = field(default_factory=GgnnConfig)
    lora_config: LoraConfig = field(default_factory=LoraConfig)

    def __post_init__(self):
        if self.stage not in ("sift", "fused"):
            raise ValueError(f"unknown stage {self.stage!r}")
        if self.learning_rate is None:
            self.learning_rate = 1e-5 if self.stage == "sift" else 1e-6
        if self.epochs is None:
            self.epochs = 10 if self.stage == "sift" else 5
        if not 0 < self.learning_rate < math.inf or self.batch_size <= 0 or self.epochs <= 0:
            raise ValueError("learning rate, batch size and epochs must be positive, and the learning rate finite")
        if self.sift_mode not in SIFT_MODES:
            raise ValueError(f"unknown sift_mode {self.sift_mode!r}; have {SIFT_MODES}")

    def snapshot(self) -> dict:
        """JSON-safe view of the full configuration (nested configs included)."""
        return asdict(self)


@dataclass
class LossCurve:
    rows: list[tuple[int, float]] = field(default_factory=list)

    def append(self, step: int, loss: float) -> None:
        self.rows.append((step, float(loss)))

    def losses(self) -> list[float]:
        return [loss for _, loss in self.rows]

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("step,loss\n")
            for step, loss in self.rows:
                fh.write(f"{step},{loss:.9e}\n")


# --- checkpoint container -------------------------------------------------------


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    version: int
    config: dict
    tensors: dict[str, np.ndarray]
    metrics_history: list[dict] = field(default_factory=list)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Binary container: magic, u32 version, u32 header length, JSON header
    (config + tensor directory), raw little-endian float payload."""
    directory = {}
    offset = 0
    payloads = []
    for name in sorted(ckpt.tensors):
        arr = ckpt.tensors[name]
        dtype = "<f8" if arr.dtype == np.float64 else "<f4"
        blob = np.ascontiguousarray(arr).astype(dtype).tobytes()
        directory[name] = {
            "shape": list(arr.shape),
            "dtype": dtype,
            "offset": offset,
            "nbytes": len(blob),
        }
        payloads.append(blob)
        offset += len(blob)
    header = json.dumps(
        {"config": ckpt.config, "tensors": directory, "metrics_history": ckpt.metrics_history},
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", ckpt.version))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for blob in payloads:
            fh.write(blob)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a truncated or malformed file raises CheckpointError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic = raw[:8]
    if magic != CKPT_MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r}")
    if len(raw) < 16:
        raise CheckpointError("checkpoint truncated before the end of its header length")
    version, header_len = struct.unpack_from("<II", raw, 8)
    if version != CKPT_VERSION:
        raise CheckpointError(f"checkpoint version mismatch: file {version}, supported {CKPT_VERSION}")
    payload_start = 16 + header_len
    if len(raw) < payload_start:
        raise CheckpointError("checkpoint truncated inside its header")
    try:
        header = json.loads(raw[16:payload_start].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CheckpointError(f"checkpoint header is not UTF-8 JSON: {exc}") from exc
    if not (
        isinstance(header, dict)
        and isinstance(header.get("config"), dict)
        and isinstance(header.get("tensors"), dict)
        and isinstance(header.get("metrics_history"), list)
    ):
        raise CheckpointError("checkpoint header needs a config, a tensor directory and a metrics history")
    payload = raw[payload_start:]
    return Checkpoint(
        version=version,
        config=header["config"],
        tensors={name: _read_tensor(name, meta, payload) for name, meta in header["tensors"].items()},
        metrics_history=header["metrics_history"],
    )


def _read_tensor(name: str, meta, payload: bytes) -> np.ndarray:
    """One tensor of the directory, checked against its shape and the payload."""
    if not isinstance(meta, dict) or meta.get("dtype") not in CKPT_DTYPES:
        raise CheckpointError(f"tensor {name!r}: dtype must be one of {sorted(CKPT_DTYPES)}")
    shape, offset, nbytes = meta.get("shape"), meta.get("offset"), meta.get("nbytes")
    if not (isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)):
        raise CheckpointError(f"tensor {name!r}: bad shape {shape!r}")
    if not (type(offset) is int and type(nbytes) is int and 0 <= offset and 0 <= nbytes
            and offset + nbytes <= len(payload)):
        raise CheckpointError(f"tensor {name!r}: bytes {offset!r}+{nbytes!r} outside the {len(payload)}-byte payload")
    if nbytes != math.prod(shape) * np.dtype(meta["dtype"]).itemsize:
        raise CheckpointError(f"tensor {name!r}: {nbytes} bytes do not hold shape {shape} of {meta['dtype']}")
    blob = payload[offset : offset + nbytes]
    return np.frombuffer(blob, dtype=meta["dtype"]).reshape(shape).astype(CKPT_DTYPES[meta["dtype"]])


def _apply_state(params: dict[str, Tensor], tensors: dict[str, np.ndarray]) -> None:
    """Copy checkpoint tensors into model parameters, both keyed by checkpoint
    name; every tensor must have a parameter and every parameter a tensor."""
    unknown = sorted(set(tensors) - set(params))
    if unknown:
        raise CheckpointError(f"checkpoint tensors that no model part consumes: {unknown}")
    for key, tensor in params.items():
        if key not in tensors:
            raise CheckpointError(f"checkpoint missing tensor {key!r}")
        arr = tensors[key]
        if tuple(arr.shape) != tensor.shape:
            raise CheckpointError(
                f"dimension mismatch for {key!r}: checkpoint {tuple(arr.shape)}, model {tensor.shape}"
            )
        tensor.data[...] = arr.astype(tensor.data.dtype)


# --- optimizer ---------------------------------------------------------------------


class Sgd:
    """Plain mini-batch gradient descent under a global gradient-norm bound of
    ``CLIP_NORM``; ``step`` logs the clip and returns whether it fired."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def step(self) -> bool:
        grads = [t.grad for t in self.params.values() if t.grad is not None]
        total = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads))
        clipped = total > CLIP_NORM
        if clipped:
            for g in grads:
                g *= g.dtype.type(CLIP_NORM / total)
            log.info("gradient clipping active: norm %.4f -> %.4f", total, CLIP_NORM)
        for t in self.params.values():
            if t.grad is not None:
                t.data -= t.data.dtype.type(self.lr) * t.grad
        return clipped


def _run_epochs(
    n_items: int, config: TrainConfig, optimizer: Sgd, batch_loss: typing.Callable[[list[int]], float]
) -> LossCurve:
    """The mini-batch loop of both stages: each epoch shuffles the item
    indices with the run's seeded generator, then each batch of indices is
    one ``zero_grad``, one ``batch_loss`` (which backpropagates and returns
    the batch's loss), one ``step`` and one curve row."""
    curve = LossCurve()
    order_rng = random.Random(config.seed)
    for _epoch in range(config.epochs):
        order = list(range(n_items))
        order_rng.shuffle(order)
        for start in range(0, n_items, config.batch_size):
            optimizer.zero_grad()
            loss = batch_loss(order[start : start + config.batch_size])
            optimizer.step()
            curve.append(len(curve.rows), loss)
    return curve


# --- stage 1: multitask SIFT ------------------------------------------------------------


@dataclass
class TrainingStream:
    """One dialogue rendered once, with its teacher spans mapped to tasks."""

    rendered: RenderedDialogue
    tasks: list[tuple[int, tuple[int, int]]]  # (task index = round - 1, [start, end) span)


def render_training_streams(
    dialogues: list[DialogueRecord],
    tokenizer: ByteTokenizer,
    config: TrainConfig,
) -> list[TrainingStream]:
    """Each complete dialogue becomes a single training stream.

    Multi-round mode keeps all rounds, the teacher span of round r being
    task r - 1; single-round and label-only modes keep round 1 only.
    Negatives always train their single round under task 0 (detection).
    """
    window = config.lm_config.context_window
    streams: list[TrainingStream] = []
    for d in dialogues:
        if d.label and config.sift_mode == "multi-round":
            rendered = render(d, tokenizer, context_window=window)
        else:
            rendered = render(d, tokenizer, up_to_round=1, context_window=window)
        tasks = list(enumerate(rendered.teacher_spans))
        streams.append(TrainingStream(rendered=rendered, tasks=tasks))
    return streams


def sift_batch_loss(model: LmModel, streams: list[TrainingStream]) -> float:
    """The task-averaged SIFT loss of the paper's Eq. 2 over a batch of
    streams: per task, the summed NLL over all of its spans divided by the
    task's valid-token count, then the plain mean over the tasks present in
    the batch. Duplicating a task's streams leaves the value unchanged.

    Logit row p predicts token p + 1, so a span's target rows are its
    positions shifted back by one, position 0 having none. A target row of
    task k weighs 1 / (count[k] * n_tasks) and every other row 0, which makes
    each stream's share one weighted ``cross_entropy``. Rows before the
    stream's first target row carry no loss, so the forward starts its last
    layer and head there (``first_row``) and the ``cross_entropy`` runs over
    rows first_row .. T-1 only.

    Each stream is forwarded and backpropagated on a worker thread
    (``_stream_grads``), the longest streams handed out first; a worker
    drops its graph before it takes the next stream, so at most one stream
    graph per worker is alive at a time. Once every stream is done, the
    stream gradients are added into the adapters' ``grad`` and the losses
    summed, both in stream order: each adapter gets one gradient per
    stream, as a sequential loop would give it, so the result is bitwise the
    same. If a stream raises, nothing is added and the first such error in
    stream order is raised.
    """
    rows: list[list[tuple[int, int, int]]] = []  # per stream: (task, first row, end row) per span
    counts: dict[int, int] = {}
    for s in streams:
        t = s.rendered.token_ids.shape[0]
        spans = []
        for task, (start, end) in s.tasks:
            lo, hi = max(start, 1) - 1, min(end, t) - 1
            if hi > lo:
                spans.append((task, lo, hi))
                counts[task] = counts.get(task, 0) + hi - lo
        rows.append(spans)
    if not counts:
        raise ValueError("batch contributes zero valid tokens")
    n_tasks = len(counts)

    work = []
    for s, spans in zip(streams, rows):
        if not spans:
            continue
        ids = s.rendered.token_ids
        first = min(lo for _, lo, _ in spans)
        weights = np.zeros(ids.shape[0] - first)
        for task, lo, hi in spans:
            weights[lo - first : hi - first] += 1.0 / (counts[task] * n_tasks)
        work.append((ids, first, weights))
    # longest first, so that no worker is left alone with a long stream at the end
    jobs = {i: _stream_pool().submit(_stream_grads, model, *work[i])
            for i in sorted(range(len(work)), key=lambda i: -len(work[i][0]))}
    wait(jobs.values())
    results = [jobs[i].result() for i in range(len(work))]

    total = 0.0
    for loss, grads in results:
        for ad, (grad_a, grad_b) in zip(model.adapters.values(), grads):
            ag._accum(ad.a, grad_a)
            ag._accum(ad.b, grad_b)
        total += loss
    return total


def _stream_grads(model: LmModel, ids: np.ndarray, first: int, weights: np.ndarray):
    """One stream's weighted ``cross_entropy`` and the gradient of each
    adapter's A and B, in ``model.adapters`` order. The forward runs on a
    copy of ``model`` whose adapters are fresh leaves over the same arrays,
    so streams on other threads never add into the same ``grad``."""
    view = copy.copy(model)
    view.adapters = {
        name: replace(ad, a=Tensor(ad.a.data, ad.a.requires_grad), b=Tensor(ad.b.data, ad.b.requires_grad))
        for name, ad in model.adapters.items()
    }
    loss = ag.cross_entropy(view.forward(ids, first_row=first).logits, np.append(ids[1 + first :], 0), weights)
    ag.backward(loss)
    return loss.item(), [(ad.a.grad, ad.b.grad) for ad in view.adapters.values()]


@cache
def _stream_pool() -> ThreadPoolExecutor:
    """The process's SIFT workers, one per usable CPU, or one when BLAS may
    run threads of its own (see ``msivd/__init__.py``). It is built once and
    kept: a pool per batch spreads the freed graphs over more malloc arenas
    and raises the peak RSS."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return ThreadPoolExecutor(cpus if _BLAS_THREADS_SET else 1, thread_name_prefix="msivd-sift")


if hasattr(os, "register_at_fork"):
    # a forked child has none of the parent's threads: it builds its own pool
    os.register_at_fork(after_in_child=_stream_pool.cache_clear)


def train_sift(dialogues: list[DialogueRecord], config: TrainConfig) -> tuple[Checkpoint, LossCurve]:
    """Fine-tune the LoRA adapters under the task-averaged dialogue loss."""
    if not dialogues:
        raise ValueError("train_sift needs at least one dialogue")
    tokenizer = ByteTokenizer()
    model = LmModel(config.lm_config, seed=config.seed, lora=config.lora_config)
    streams = render_training_streams(dialogues, tokenizer, config)

    n_tasks = 3 if config.sift_mode == "multi-round" else 1
    present = {t for s in streams for t, _ in s.tasks}
    missing = sorted(set(range(n_tasks)) - present)
    if missing:
        raise ValueError(f"empty task group(s): {missing}")

    optimizer = Sgd(model.adapter_parameters(), lr=config.learning_rate)
    curve = _run_epochs(
        len(streams), config, optimizer, lambda batch: sift_batch_loss(model, [streams[i] for i in batch])
    )
    ckpt = Checkpoint(
        version=CKPT_VERSION,
        config={"stage": "sift", "train": config.snapshot()},
        tensors={f"lm.{k}": t.data.copy() for k, t in model.parameters().items()},
        metrics_history=[
            {
                "stage": "sift",
                "mode": config.sift_mode,
                "n_tasks": n_tasks,
                "masked_rounds": n_tasks,
                "steps": len(curve.rows),
                "final_loss": curve.rows[-1][1],
            }
        ],
    )
    return ckpt, curve


def _header_train(ckpt: Checkpoint) -> tuple[dict, int]:
    """The ``train`` section of a checkpoint's config and its seed."""
    train_cfg = ckpt.config.get("train")
    if not isinstance(train_cfg, dict):
        raise CheckpointError(f"checkpoint config needs a 'train' object, got {json.dumps(train_cfg)[:80]}")
    seed = train_cfg.get("seed", 0)
    if type(seed) is not int:
        raise CheckpointError(f"checkpoint train.seed must be an integer, got {json.dumps(seed)[:80]}")
    return train_cfg, seed


def _json_fits(value, hint) -> bool:
    """Whether a decoded JSON value fits a config field type: a bool fits no
    number, an int fits a float, and a tuple field takes a list or tuple of
    its length (of any length for ``tuple[X, ...]``)."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            return False
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return len(value) == len(args) and all(map(_json_fits, value, args))
    if args:  # a union such as ``float | None``
        return any(_json_fits(value, h) for h in args)
    if hint in (int, float):
        return isinstance(value, (int, hint)) and not isinstance(value, bool)
    return isinstance(value, hint)


def _check_json_types(obj: dict, cls, where: str, error: type[Exception]) -> None:
    """Raise ``error`` naming ``where`` and the key when a value of ``obj``
    does not fit the type of its ``cls`` field; keys of no field pass. Error
    messages here echo at most 80 characters of the offending JSON."""
    hints = typing.get_type_hints(cls)
    for key, value in obj.items():
        hint = hints.get(key)
        if hint is not None and not _json_fits(value, hint):
            want = hint.__name__ if isinstance(hint, type) else hint
            raise error(f"{where} key {key!r} must be {want}, got {json.dumps(value)[:80]}")


def _header_config(train_cfg: dict, key: str, cls):
    """``cls`` built from the checkpoint's ``train.<key>`` object, JSON lists
    read back as tuples; a missing object, an unknown key, or a value of the
    wrong type or that ``cls`` rejects raises CheckpointError naming ``key``."""
    fields = train_cfg.get(key)
    if not isinstance(fields, dict):
        raise CheckpointError(f"checkpoint train.{key} must be an object, got {json.dumps(fields)[:80]}")
    _check_json_types(fields, cls, f"checkpoint train.{key}", CheckpointError)
    try:
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in fields.items()})
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint train.{key} {json.dumps(fields)[:80]}: {exc}") from exc


def build_lm_from_checkpoint(ckpt: Checkpoint, expect: TransformerConfig | None = None) -> LmModel:
    train_cfg, seed = _header_train(ckpt)
    lm_cfg = _header_config(train_cfg, "lm_config", TransformerConfig)
    if expect is not None and expect != lm_cfg:
        raise CheckpointError(
            f"dimension mismatch between checkpoint and config: "
            f"checkpoint d_model={lm_cfg.d_model}, config d_model={expect.d_model}"
        )
    lora_cfg = _header_config(train_cfg, "lora_config", LoraConfig) if train_cfg.get("lora_config") else None
    model = LmModel(lm_cfg, seed=seed, lora=lora_cfg)
    _apply_state({f"lm.{k}": t for k, t in model.parameters().items()}, ckpt.tensors)
    return model


# --- stage 2: fused classifier -------------------------------------------------------------


def train_fused(
    samples: list[CodeSample],
    sift_checkpoint: Checkpoint | None,
    config: TrainConfig,
) -> tuple[Checkpoint, LossCurve]:
    """Train the GNN and label classifier against the frozen language model.

    The LM (base and adapters) receives no gradient; its read-out row and
    the graph inputs are computed once per sample and cached for the whole
    loop, so each step runs only the GGNN and the classifier.
    """
    if not samples:
        raise ValueError("train_fused needs at least one sample")
    tokenizer = ByteTokenizer()
    if sift_checkpoint is not None:
        lm = build_lm_from_checkpoint(sift_checkpoint, expect=config.lm_config)
    else:
        lm = LmModel(config.lm_config, seed=config.seed, lora=config.lora_config)
    read_out = ReadOut(lm, tokenizer)
    rows = [read_out(s.code).hidden.data for s in samples]
    gnn: Ggnn | None = None
    graphs = [None] * len(samples)
    if config.use_gnn:
        gnn = Ggnn(config.gnn_config, seed=config.seed)
        graphs = [graph_inputs(s.code, gnn.config.state_dim) for s in samples]
        n_flagged = sum(g is None for g in graphs)
        if n_flagged:
            log.warning("%d/%d samples fell back to zero graph embeddings", n_flagged, len(samples))

    classifier = FusedClassifier(fused_input_width(lm.config, gnn.config if gnn else None), seed=config.seed + 1)
    trainable: dict[str, Tensor] = dict(classifier.parameters())
    if gnn is not None:
        trainable.update(gnn.parameters())
    optimizer = Sgd(trainable, lr=config.learning_rate)

    def batch_loss(batch: list[int]) -> float:
        total = None
        for si in batch:
            fused = fused_vector(rows[si], graphs[si], gnn)
            nll = label_nll(classifier.logits(fused), samples[si].label)
            total = nll if total is None else ag.add(total, nll)
        loss = ag.scale(total, 1.0 / len(batch))
        ag.backward(loss)
        return loss.item()

    curve = _run_epochs(len(samples), config, optimizer, batch_loss)

    tensors = {f"lm.{k}": t.data.copy() for k, t in lm.parameters().items()}
    tensors.update({k: t.data.copy() for k, t in classifier.parameters().items()})
    if gnn is not None:
        tensors.update({k: t.data.copy() for k, t in gnn.parameters().items()})
    ckpt = Checkpoint(
        version=CKPT_VERSION,
        config={"stage": "fused", "train": config.snapshot(), "use_gnn": config.use_gnn},
        tensors=tensors,
        metrics_history=(sift_checkpoint.metrics_history if sift_checkpoint else [])
        + [
            {
                "stage": "fused",
                "use_gnn": config.use_gnn,
                "steps": len(curve.rows),
                "final_loss": curve.rows[-1][1],
            }
        ],
    )
    return ckpt, curve


def build_bundle_from_checkpoint(ckpt: Checkpoint) -> InferenceBundle:
    """Reconstruct the inference bundle (LM + optional GNN + classifier)."""
    if ckpt.config.get("stage") != "fused":
        raise CheckpointError("inference needs a fused-stage checkpoint")
    train_cfg, seed = _header_train(ckpt)
    lm_tensors = {k: v for k, v in ckpt.tensors.items() if k.startswith("lm.")}
    lm = build_lm_from_checkpoint(replace(ckpt, tensors=lm_tensors))
    gnn = None
    if ckpt.config.get("use_gnn", True):
        gnn = Ggnn(_header_config(train_cfg, "gnn_config", GgnnConfig), seed=seed)
    classifier = FusedClassifier(fused_input_width(lm.config, gnn.config if gnn else None), seed=seed + 1)
    heads = dict(classifier.parameters())
    if gnn is not None:
        heads.update(gnn.parameters())
    _apply_state(heads, {k: v for k, v in ckpt.tensors.items() if k not in lm_tensors})
    return InferenceBundle(read_out=ReadOut(lm, ByteTokenizer()), classifier=classifier, gnn=gnn)
