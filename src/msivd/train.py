"""Two-stage training: multitask SIFT of the LM, then fused classifier training.

Stage one optimizes the LoRA adapters only under the task-averaged dialogue
loss (the paper's Eq. 2, ``sift_batch_loss``). Stage two freezes the language
model entirely and trains the graph network plus the label classifier on the
read-out path of ``fusion``: the LM row and the graph inputs are computed
once per sample, and each step runs one batched GGNN pass (``Ggnn.embed``)
and one classifier pass over its mini-batch. Both stages log one loss row per
optimizer step and are bitwise deterministic for a fixed seed.
"""
from __future__ import annotations

import copy
import json
import logging
import math
import os
import random
import struct
import sys
import typing
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field
from functools import cache

import numpy as np

from . import _BLAS_THREADS_SET
from . import autograd as ag
from ._jsontypes import json_fields
from .autograd import Tensor
from .corpus import CodeSample
from .dialogue import MIN_PROMPT_WINDOW, DialogueRecord, RenderedDialogue, render
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
CKPT_VERSION = 7
CKPT_DTYPE = np.dtype("<f4")  # every model is float32, and so is every checkpoint tensor


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.lm_config.context_window < MIN_PROMPT_WINDOW:
            raise ValueError(
                f"context_window must be >= {MIN_PROMPT_WINDOW}, the length of the shortest read-out prompt, "
                f"got {self.lm_config.context_window}"
            )

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
    config: dict  # {"train": TrainConfig.snapshot()} of the run that wrote it
    tensors: dict[str, np.ndarray]
    metrics_history: list[dict] = field(default_factory=list)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Binary container: magic, u32 ``CKPT_VERSION``, u32 header length, JSON
    header (config, tensor directory ``{name: shape}`` and metrics history),
    then the tensors' raw little-endian float32 bytes in directory order. A
    tensor that is not float32 or holds a non-finite value raises
    CheckpointError before the file opens."""
    directory = {}
    payloads = []
    for name in sorted(ckpt.tensors):
        arr = ckpt.tensors[name]
        if arr.dtype != np.float32:
            raise CheckpointError(f"tensor {name!r} is {arr.dtype}, not float32")
        directory[name] = list(arr.shape)
        payloads.append(np.ascontiguousarray(_finite(name, arr)).astype(CKPT_DTYPE).tobytes())
    header = json.dumps(
        {"config": ckpt.config, "tensors": directory, "metrics_history": ckpt.metrics_history},
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<I", CKPT_VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for blob in payloads:
            fh.write(blob)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; a truncated or malformed file, or one whose payload
    holds bytes past its last tensor, raises CheckpointError."""
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
    # ValueError covers JSON, UTF-8 and an integer too long to convert; RecursionError, JSON nested too deeply
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"checkpoint header is not UTF-8 JSON: {exc}") from exc
    if not (
        isinstance(header, dict)
        and isinstance(header.get("config"), dict)
        and isinstance(header.get("tensors"), dict)
        and isinstance(header.get("metrics_history"), list)
    ):
        raise CheckpointError("checkpoint header needs a config, a tensor directory and a metrics history")
    tensors = {}
    offset = payload_start
    for name, shape in header["tensors"].items():
        if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
            raise CheckpointError(f"tensor {name!r}: shape must be a list of sizes >= 0, got {json.dumps(shape)[:80]}")
        count = math.prod(shape)
        if offset + count * CKPT_DTYPE.itemsize > len(raw):
            raise CheckpointError(f"tensor {name!r} of shape {str(shape)[:80]} runs past the end of the payload")
        try:
            arr = np.frombuffer(raw, CKPT_DTYPE, count, offset).reshape(shape)
        except ValueError as exc:  # more than 64 dimensions, or sizes numpy cannot index
            raise CheckpointError(f"tensor {name!r}: no array has shape {str(shape)[:80]}: {exc}") from exc
        tensors[name] = _finite(name, arr.astype(np.float32))
        offset += arr.nbytes
    if offset != len(raw):
        raise CheckpointError(f"checkpoint payload holds {len(raw) - offset} bytes past its last tensor")
    return Checkpoint(config=header["config"], tensors=tensors, metrics_history=header["metrics_history"])


def _finite(name: str, arr: np.ndarray) -> np.ndarray:
    """``arr``, or CheckpointError naming the tensor when it holds a NaN or an infinity."""
    if not np.isfinite(arr).all():
        raise CheckpointError(f"tensor {name!r} holds a non-finite value")
    return arr


# --- optimizer ---------------------------------------------------------------------


class Sgd:
    """Plain mini-batch gradient descent under a global gradient-norm bound of
    ``CLIP_NORM``; ``step`` logs the clip and returns whether it fired, and
    raises FloatingPointError, moving no parameter, on a non-finite norm."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.zero_grad()

    def step(self) -> bool:
        grads = [t.grad for t in self.params.values() if t.grad is not None]
        total = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads))
        if not math.isfinite(total):
            raise FloatingPointError(f"global gradient norm is {total}")
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
    the batch's loss), one ``step`` and one curve row. A non-finite loss or
    gradient norm stops a diverging run with FloatingPointError naming the
    stage and the step, before that step moves any parameter."""
    curve = LossCurve()
    order_rng = random.Random(config.seed)
    for _epoch in range(config.epochs):
        order = list(range(n_items))
        order_rng.shuffle(order)
        for start in range(0, n_items, config.batch_size):
            optimizer.zero_grad()
            loss = batch_loss(order[start : start + config.batch_size])
            try:
                if not math.isfinite(loss):
                    raise FloatingPointError(f"batch loss is {loss}")
                optimizer.step()
            except FloatingPointError as exc:
                raise FloatingPointError(f"{config.stage} step {len(curve.rows)} diverged: {exc}") from None
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
    task r - 1; single-round mode keeps round 1 with its whole answer.
    Label-only mode keeps round 1 up to and including ``<|teacher|>``,
    followed by the one label id (``YES`` for a positive, ``NO`` for a
    negative) as the only teacher span: the pair that
    ``fusion.predict_pretrained`` reads. Negatives always train their single
    round under task 0 (detection). A stream over the window loses ids from
    the left.
    """
    window = config.lm_config.context_window
    streams: list[TrainingStream] = []
    for d in dialogues:
        if config.sift_mode == "label-only":
            whole = render(d, tokenizer, up_to_round=1, context_window=sys.maxsize)
            label = tokenizer.YES if d.label else tokenizer.NO
            ids = np.append(whole.token_ids[: whole.teacher_spans[0][0]], label)[-window:]
            rendered = RenderedDialogue(token_ids=ids, teacher_spans=[(len(ids) - 1, len(ids))])
        elif d.label and config.sift_mode == "multi-round":
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
    (``_stream_grads``), the longest streams handed out first. Backward
    frees a stream's graph as it walks it, so a worker's peak is about one
    forward graph, not the graph plus every intermediate gradient, and none
    of it is left when the worker takes the next stream. The freed memory
    stays in the worker's malloc arena for the next stream instead of going
    back to the kernel (the heap policy in ``msivd/__init__.py``). Once every
    stream is done, the stream gradients are added into the adapters'
    ``grad`` and the losses summed, both in stream order: each adapter gets
    one gradient per stream, as a sequential loop would give it, so the
    result is bitwise the same. If a stream raises, nothing is added and
    the first such error in stream order is raised.
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
        for (a, b), (grad_a, grad_b) in zip(model.adapters.values(), grads):
            ag._accum(a, grad_a)
            ag._accum(b, grad_b)
        total += loss
    return total


def _stream_grads(model: LmModel, ids: np.ndarray, first: int, weights: np.ndarray):
    """One stream's weighted ``cross_entropy`` and the gradients of each
    adapter's A and B, in ``model.adapters`` order. The forward runs on a
    copy of ``model`` whose adapters are fresh leaves over the same arrays,
    so streams on other threads never add into the same ``grad``."""
    view = copy.copy(model)
    view.adapters = {
        name: (Tensor(a.data, a.requires_grad), Tensor(b.data, b.requires_grad))
        for name, (a, b) in model.adapters.items()
    }
    loss = ag.cross_entropy(view.forward(ids, first_row=first).logits, np.append(ids[1 + first :], 0), weights)
    ag.backward(loss)
    return loss.item(), [(a.grad, b.grad) for a, b in view.adapters.values()]


@cache
def _stream_pool() -> ThreadPoolExecutor:
    """The process's SIFT workers, one per usable CPU, or one when BLAS may
    run threads of its own (see ``msivd/__init__.py``). It is built once and
    kept, so each worker's next stream graph reuses the arena memory its
    last one freed: a pool per batch spreads the freed graphs over more
    malloc arenas and raises the peak RSS."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return ThreadPoolExecutor(cpus if _BLAS_THREADS_SET else 1, thread_name_prefix="msivd-sift")


if hasattr(os, "register_at_fork"):
    # a forked child has none of the parent's threads: it builds its own pool
    os.register_at_fork(after_in_child=_stream_pool.cache_clear)


def train_sift(dialogues: list[DialogueRecord], config: TrainConfig) -> tuple[Checkpoint, LossCurve]:
    """Fine-tune the LoRA adapters under the task-averaged dialogue loss."""
    if config.stage != "sift":
        raise ValueError(f"train_sift needs a sift-stage config, got {config.stage!r}")
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
        config={"train": config.snapshot()},
        tensors={k: t.data.copy() for k, t in model.parameters().items()},
        metrics_history=[
            {
                "stage": "sift",
                "mode": config.sift_mode,
                "n_tasks": n_tasks,
                "steps": len(curve.rows),
                "final_loss": curve.rows[-1][1],
            }
        ],
    )
    return ckpt, curve


def _header_config(ckpt: Checkpoint) -> TrainConfig:
    """The ``TrainConfig`` of the run that wrote a checkpoint, nested configs
    included, built from the header's ``train`` section, its only section.
    A missing section or nested config, a key of no field, a value of the
    wrong type or one that a config class rejects raises CheckpointError
    naming its section; a train key that is missing takes its default."""
    train = ckpt.config.get("train")
    json_fields(train, TrainConfig, "checkpoint train", CheckpointError)
    nested = {}
    for key, cls in (("lm_config", TransformerConfig), ("gnn_config", GgnnConfig), ("lora_config", LoraConfig)):
        json_fields(train.get(key), cls, f"checkpoint train.{key}", CheckpointError)
        nested[key] = _built(cls, train[key], f"checkpoint train.{key}")
    config = _built(TrainConfig, train, "checkpoint train", **nested)
    other = sorted(set(ckpt.config) - {"train"})
    if other:
        raise CheckpointError(f"checkpoint config holds {json.dumps(other)[:80]} besides its train section")
    return config


def _built(cls, fields: dict, where: str, **built):
    """``cls`` of the JSON object ``fields``, the configs in ``built`` in place
    of their objects; a key of no field or a value that ``cls`` rejects
    raises CheckpointError naming ``where`` and echoing ``fields``."""
    try:
        return cls(**{**fields, **built})
    except (TypeError, ValueError) as exc:  # TypeError: a key of no field
        raise CheckpointError(f"{where} {json.dumps(fields)[:80]}: {exc}") from exc


def _weights(table, tensors: dict[str, np.ndarray] | None, keys: str) -> dict[str, np.ndarray] | None:
    """A float32 copy of the tensor of each entry of a model's parameter
    ``table``, which the header ``keys`` size, checked one entry at a time;
    None without ``tensors``, for a model that draws its own."""
    if tensors is None:
        return None
    weights = {}
    for name, shape, _ in table:
        arr = tensors.get(name)
        if arr is None:
            raise CheckpointError(f"checkpoint {keys}: the model needs tensor {name!r}, which the file does not hold")
        if arr.shape != shape:
            raise CheckpointError(f"checkpoint {keys}: the model needs {name!r} of shape {str(shape)[:80]}, not {arr.shape}")
        weights[name] = arr.astype(np.float32)
    return weights


def _consumed(tensors: dict[str, np.ndarray], params: dict[str, Tensor]) -> None:
    """Refuse a file that holds a tensor of no name in ``params``."""
    unknown = sorted(set(tensors) - set(params))
    if unknown:
        raise CheckpointError(f"checkpoint tensors that no model part consumes: {unknown}")


def build_lm_from_checkpoint(ckpt: Checkpoint, expect: TrainConfig | None = None) -> LmModel:
    """The LM of ``ckpt``, built under the checkpoint's own header. With
    ``expect``, the config of the run that reads it out, the header's LM
    shape and LoRA settings must be ``expect``'s: one CheckpointError names
    each field that differs, with both values."""
    config = _header_config(ckpt)
    if expect is not None:
        differ = []
        for key in ("lm_config", "lora_config"):
            want = asdict(getattr(expect, key))
            differ += [
                f"{key}.{name}: checkpoint {have!r}, config {want[name]!r}"
                for name, have in asdict(getattr(config, key)).items()
                if have != want[name]
            ]
        if differ:
            raise CheckpointError(f"checkpoint and config build different LMs: {'; '.join(differ)}")
    lm = _lm_from(config, ckpt.tensors)
    _consumed(ckpt.tensors, lm.parameters())
    return lm


def _lm_from(config: TrainConfig, tensors: dict[str, np.ndarray]) -> LmModel:
    """The LM of ``config`` built from its tensors among ``tensors``."""
    table = LmModel.table(config.lm_config, config.lora_config)
    weights = _weights(table, tensors, "train.lm_config and train.lora_config")
    return LmModel(config.lm_config, lora=config.lora_config, weights=weights)


# --- stage 2: fused classifier -------------------------------------------------------------


def train_fused(
    samples: list[CodeSample],
    sift_checkpoint: Checkpoint | None,
    config: TrainConfig,
) -> tuple[Checkpoint, LossCurve]:
    """Train the GNN and label classifier against the frozen language model.

    The LM (base and adapters) receives no gradient; its read-out rows and
    the graph inputs are computed once per sample and cached for the whole
    loop, so each step runs only the GGNN, over the disjoint union of the
    mini-batch's graphs, and the classifier, over the batch's fused rows.
    """
    if config.stage != "fused":
        raise ValueError(f"train_fused needs a fused-stage config, got {config.stage!r}")
    if not samples:
        raise ValueError("train_fused needs at least one sample")
    if sift_checkpoint is not None:
        lm = build_lm_from_checkpoint(sift_checkpoint, expect=config)
    else:
        lm = LmModel(config.lm_config, seed=config.seed, lora=config.lora_config)
    model = _fused_model(config, lm)
    gnn, classifier = model.gnn, model.classifier
    rows = np.concatenate([model.read_out(s.code).hidden.data for s in samples])
    labels = np.array([s.label for s in samples])
    if gnn is not None:
        graphs = [graph_inputs(s.code, gnn.config.state_dim) for s in samples]
        n_flagged = sum(g is None for g in graphs)
        if n_flagged:
            log.warning("%d/%d samples fell back to zero graph embeddings", n_flagged, len(samples))
    heads = _head_parameters(model)
    optimizer = Sgd(heads, lr=config.learning_rate)

    def batch_loss(batch: list[int]) -> float:
        embeddings = None if gnn is None else gnn.embed([graphs[i] for i in batch])
        loss = label_nll(classifier.logits(fused_vector(rows[batch], embeddings)), labels[batch])
        ag.backward(loss)
        return loss.item()

    curve = _run_epochs(len(samples), config, optimizer, batch_loss)

    ckpt = Checkpoint(
        config={"train": config.snapshot()},
        tensors={k: t.data.copy() for k, t in {**lm.parameters(), **heads}.items()},
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


def _fused_model(config: TrainConfig, lm: LmModel, tensors: dict[str, np.ndarray] | None = None) -> InferenceBundle:
    """The fused model of ``config`` over ``lm``, which ``ReadOut`` freezes:
    the GGNN when ``config.use_gnn``, and the classifier, as wide as the LM
    row and the GGNN embedding together, each built from ``tensors``, or
    drawn, the GGNN from ``config.seed`` and the classifier from seed + 1."""
    gnn = None
    if config.use_gnn:
        gnn_weights = _weights(Ggnn.table(config.gnn_config), tensors, "train.gnn_config")
        gnn = Ggnn(config.gnn_config, seed=config.seed, weights=gnn_weights)
    in_dim = fused_input_width(lm.config, gnn.config if gnn else None)
    clf_weights = _weights(FusedClassifier.table(in_dim), tensors, "train.lm_config and train.gnn_config")
    classifier = FusedClassifier(in_dim, seed=config.seed + 1, weights=clf_weights)
    return InferenceBundle(read_out=ReadOut(lm, ByteTokenizer()), classifier=classifier, gnn=gnn)


def _head_parameters(model: InferenceBundle) -> dict[str, Tensor]:
    """The classifier's parameters, then the GGNN's: ``Sgd`` sums the
    gradient norm in this order, so it fixes the bits of a trained model."""
    return {**model.classifier.parameters(), **(model.gnn.parameters() if model.gnn else {})}


def build_bundle_from_checkpoint(ckpt: Checkpoint) -> InferenceBundle:
    """The inference bundle (LM + optional GNN + classifier) built from the
    checkpoint's tensors, every one frozen, so that ``predict`` records no tape."""
    config = _header_config(ckpt)
    if config.stage != "fused":
        raise CheckpointError("inference needs a fused-stage checkpoint")
    bundle = _fused_model(config, _lm_from(config, ckpt.tensors), ckpt.tensors)
    heads = _head_parameters(bundle)
    _consumed(ckpt.tensors, {**bundle.read_out.lm.parameters(), **heads})
    for t in heads.values():
        t.requires_grad = False
    return bundle
