"""The benchmark's three workloads and the inputs each makes from its seed.

Every workload builds its inputs in ``setup`` and then repeats ``op``, one
timed call into the program plus the checks on its output. The inputs are
split into ``units`` (slices of the train split, or predict requests) that
``op`` visits in turn, so every unit repeats within a run. ``round`` is one
pass over all units, the fixed amount of work that the traced run records,
so that per-layer counts repeat exactly for a seed.
"""
from __future__ import annotations

import dataclasses
import json
import math
import random
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import msivd.corpus as corpus
import msivd.dialogue as dialogue
import msivd.evaluation as evaluation
import msivd.fusion as fusion
import msivd.minic as minic
import msivd.synth as synth
import msivd.train as train
from msivd.lm import ByteTokenizer

CORPUS_SIZE = 200  # the desk default: 160 train / 20 eval / 20 test samples


@dataclasses.dataclass
class OpRecord:
    seconds: float  # wall time of the timed call only
    samples: int
    tokens: int
    ok: bool
    unit: int = 0  # which input the op ran; ops of one unit do the same work


def attempt(op) -> OpRecord:
    """One op; a failed operation is counted, not fatal. Only the first
    failure's traceback is printed."""
    global _failures
    try:
        return op()
    except Exception:
        if not _failures:
            traceback.print_exc()
        _failures += 1
        return OpRecord(0.0, 0, 0, False, -1)


_failures = 0


def quantiles(values) -> dict[str, float]:
    q = np.percentile(np.asarray(values, dtype=np.float64), [0, 25, 50, 75, 100])
    return dict(zip(("min", "p25", "p50", "p75", "max"), (float(v) for v in q)))


def _corpus(seed: int):
    samples = synth.make_synthetic_corpus(n=CORPUS_SIZE, seed=seed)
    return samples, *corpus.make_split(samples, corpus.SplitSpec(seed=seed))


def _dialogues(samples):
    return [
        dialogue.build_dialogue(s) if s.label else dialogue.build_negative_dialogue(s)
        for s in samples
    ]


def _fused_config(seed: int, epochs: int) -> train.TrainConfig:
    # The learning rate and batch size of scripts/run_desk_pipeline.py.
    return train.TrainConfig(stage="fused", learning_rate=0.2, batch_size=16, epochs=epochs, seed=seed)


def _same_tensors(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k]) for k in a
    )


class _Rotation:
    """Visits units ``0 .. n_units - 1`` in a fresh seeded order on every pass."""

    def _start_rotation(self, n_units: int) -> None:
        self.n_units = n_units
        self._rng = random.Random(self.seed)
        self._order: list[int] = []

    def next_unit(self) -> int:
        if not self._order:
            self._order = list(range(self.n_units))
            self._rng.shuffle(self._order)
        return self._order.pop()

    def round(self) -> list[OpRecord]:
        self._order = []
        return [attempt(self.op) for _ in range(self.n_units)]


class Sift(_Rotation):
    """Stage 1: ``train.train_sift`` in multi-round mode over the train split,
    one slice of ``SLICE`` dialogues (two mini-batches) per op."""

    BATCH = 8
    SLICE = 16

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def setup(self) -> None:
        _, train_set, _, _ = _corpus(self.seed)
        dialogues = _dialogues(train_set)
        self.config = train.TrainConfig(
            stage="sift", sift_mode="multi-round", learning_rate=5e-3,
            batch_size=self.BATCH, epochs=1, seed=self.seed,
        )
        self.slices = [dialogues[i : i + self.SLICE] for i in range(0, len(dialogues), self.SLICE)]
        tokenizer = ByteTokenizer()
        streams = [train.render_training_streams(sl, tokenizer, self.config) for sl in self.slices]
        self.stream_tokens = [[len(s.rendered.token_ids) for s in sl] for sl in streams]
        self.truncated = sum(int(s.rendered.token_ids[0] != ByteTokenizer.SYSTEM) for sl in streams for s in sl)
        self.reference_curves: dict[int, list[float]] = {}
        self._start_rotation(len(self.slices))

    def op(self) -> OpRecord:
        k = self.next_unit()
        dialogues = self.slices[k]
        start = perf_counter()
        ckpt, curve = train.train_sift(dialogues, self.config)
        seconds = perf_counter() - start
        losses = curve.losses()
        lora_b = [v for name, v in ckpt.tensors.items() if name.endswith(".lora_b")]
        ok = (
            [step for step, _ in curve.rows] == list(range(math.ceil(len(dialogues) / self.BATCH)))
            and all(math.isfinite(x) for x in losses)
            and bool(lora_b)
            and all(np.any(b != 0.0) for b in lora_b)
        )
        ok = ok and losses == self.reference_curves.setdefault(k, losses)  # bitwise repeatable
        return OpRecord(seconds, len(dialogues), sum(self.stream_tokens[k]), ok, k)

    def properties(self) -> dict:
        tokens = [t for sl in self.stream_tokens for t in sl]
        return {
            "streams": len(tokens),
            "slices": len(self.slices),
            "streams_per_op": self.SLICE,
            "batch_size": self.BATCH,
            "tokens_per_stream": quantiles(tokens),
            "truncated_share": self.truncated / len(tokens),
        }


class Fused(_Rotation):
    """Stage 2: ``train.train_fused`` with the GGNN, one slice of ``SLICE``
    train samples (two mini-batches per epoch) per op; ``finish`` trains on
    the whole train split and predicts the held-out test split."""

    EPOCHS = 5
    SLICE = 32

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        _, self.train_set, _, self.test_set = _corpus(self.seed)
        self.config = _fused_config(self.seed, self.EPOCHS)
        self.slices = [self.train_set[i : i + self.SLICE] for i in range(0, len(self.train_set), self.SLICE)]
        tokenizer = ByteTokenizer()
        window = self.config.lm_config.context_window
        self.prompt_tokens = [
            sum(len(dialogue.render_prompt(s.code, tokenizer, window)) for s in sl) for sl in self.slices
        ]
        self.nodes = []
        for s in self.train_set:
            try:
                self.nodes.append(len(minic.parse_mini_c(s.code).nodes))
            except minic.MiniCError:
                pass
        self.references: dict[int, dict] = {}
        self.test_f1 = None
        self._start_rotation(len(self.slices))

    def _train(self, samples):
        """Trains; returns the time of ``train_fused`` alone, the checkpoint
        after a save -> load round trip, and whether the losses are finite
        and the round trip is bitwise."""
        start = perf_counter()
        ckpt, curve = train.train_fused(samples, None, self.config)
        seconds = perf_counter() - start
        path = self.scratch / "fused.ckpt"
        train.save_checkpoint(ckpt, path)
        loaded = train.load_checkpoint(path)
        header = json.loads(json.dumps([ckpt.config, ckpt.metrics_history]))
        ok = _same_tensors(ckpt.tensors, loaded.tensors) and header == [loaded.config, loaded.metrics_history]
        return seconds, loaded, ok and all(math.isfinite(x) for x in curve.losses())

    def op(self) -> OpRecord:
        k = self.next_unit()
        seconds, ckpt, ok = self._train(self.slices[k])
        ok = ok and _same_tensors(ckpt.tensors, self.references.setdefault(k, ckpt.tensors))
        return OpRecord(seconds, self.EPOCHS * len(self.slices[k]), self.prompt_tokens[k], ok, k)

    def finish(self) -> OpRecord:
        """Checks that run once, after the timed loop; their time is not measured."""
        seconds, ckpt, ok = self._train(self.train_set)
        # The held-out split is post-cutoff and shares no sample with train.
        train_ids = {s.sample_id for s in self.train_set}
        cutoff = corpus.SplitSpec().cutoff_date
        ok = ok and all(s.sample_id not in train_ids and s.origin_date >= cutoff for s in self.test_set)
        bundle = train.build_bundle_from_checkpoint(ckpt)
        preds = [fusion.predict(s, bundle) for s in self.test_set]
        counts = evaluation.confusion([s.label for s in self.test_set], [p.label for p in preds])
        self.test_f1 = evaluation.metrics(counts).f1
        return OpRecord(seconds, self.EPOCHS * len(self.train_set), sum(self.prompt_tokens), ok, -1)

    def properties(self) -> dict:
        return {
            "samples": len(self.train_set),
            "slices": len(self.slices),
            "samples_per_op": self.SLICE,
            "epochs": self.EPOCHS,
            "batch_size": self.config.batch_size,
            "graphs": len(self.nodes),
            "fallbacks": len(self.train_set) - len(self.nodes),
            "nodes_per_graph": quantiles(self.nodes),
            "prompt_tokens": sum(self.prompt_tokens),
            "test_samples": len(self.test_set),
            "test_f1": self.test_f1,
        }


# --- the predict request mix ---------------------------------------------------------

MIX_SIZE = 80
REJECTED_SHARE = 0.1
MAX_PADDING = 10
PADDING = (
    "  acc = acc + n * {k};",
    "  if (n > {k}) {{ tmp = n - {k}; }} else {{ tmp = {k}; }}",
    "  while (idx < n) {{ idx = idx + {k}; acc = acc + idx; }}",
)
# mini-C has no ``for``; such inputs take the zero-embedding fallback.
REJECTED = "  for (idx = 0; idx < n; idx = idx + {k}) {{ acc = acc + idx; }}"


def _padded(sample, rng: random.Random, n_pad: int, rejected: bool, tag: int):
    """The sample with ``n_pad`` extra statements after its ``len = ...``
    line, which leaves the label's dataflow (the ``buf`` definitions) alone.
    The statement kinds cycle, so the size of an input depends on ``n_pad``
    and its base sample, and only the constants come from ``rng``."""
    extra = [PADDING[(tag + j) % len(PADDING)].format(k=rng.randint(1, 9)) for j in range(n_pad)]
    if rejected:
        extra.insert(n_pad // 2, REJECTED.format(k=rng.randint(1, 9)))
    lines = sample.code.splitlines()
    code = "\n".join(lines[:3] + extra + lines[3:])
    shift = {}
    if sample.label:
        shift = {"vuln_line_start": sample.vuln_line_start + len(extra),
                 "vuln_line_end": sample.vuln_line_end + len(extra)}
    return dataclasses.replace(sample, sample_id=f"{sample.sample_id}-mix{tag}", code=code, **shift)


def request_mix(samples, test_set, seed: int) -> list[tuple[object, bool]]:
    """(sample, mini-C rejects it) pairs: the test split as is, then padded
    functions with 1 to ``MAX_PADDING`` extra statements in equal numbers,
    a ``REJECTED_SHARE`` of them with a ``for`` loop."""
    rng = random.Random(seed)
    mix = [(s, False) for s in test_set]
    n_rejected = round(REJECTED_SHARE * MIX_SIZE)
    n_padded = MIX_SIZE - len(mix) - n_rejected
    for i in range(n_padded + n_rejected):
        rejected = i >= n_padded
        n_pad = 1 + i % MAX_PADDING
        mix.append((_padded(rng.choice(samples), rng, n_pad, rejected, i), rejected))
    return mix


class Predict(_Rotation):
    """Closed loop, one client: ``fusion.predict`` one request at a time."""

    # The bundle's quality does not change what a request costs, so setup
    # trains it on one mini-batch of the train split.
    BUNDLE_SAMPLES = 16
    BUNDLE_EPOCHS = 1

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        samples, train_set, _, test_set = _corpus(self.seed)
        self.mix = request_mix(samples, test_set, self.seed)
        ckpt, _ = train.train_fused(
            train_set[: self.BUNDLE_SAMPLES], None, _fused_config(self.seed, self.BUNDLE_EPOCHS)
        )
        path = self.scratch / "predict.ckpt"
        train.save_checkpoint(ckpt, path)
        self.bundle = train.build_bundle_from_checkpoint(train.load_checkpoint(path))
        self.reference = [fusion.predict(s, self.bundle) for s, _ in self.mix]
        window = self.bundle.context_window
        self.tokens = [len(dialogue.render_prompt(s.code, self.bundle.tokenizer, window)) for s, _ in self.mix]
        self.window = window
        self._start_rotation(len(self.mix))

    def op(self) -> OpRecord:
        i = self.next_unit()
        sample, rejected = self.mix[i]
        start = perf_counter()
        pred = fusion.predict(sample, self.bundle)
        seconds = perf_counter() - start
        yes, no = pred.log_probs
        ok = (
            0.0 < pred.score < 1.0
            and abs(math.exp(yes) + math.exp(no) - 1.0) < 1e-5
            and pred.flagged == rejected
            and pred == self.reference[i]
        )
        return OpRecord(seconds, 1, self.tokens[i], ok, i)

    def properties(self) -> dict:
        nodes = []
        for s, rejected in self.mix:
            if not rejected:
                nodes.append(len(minic.parse_mini_c(s.code).nodes))
        return {
            "requests_in_mix": len(self.mix),
            "clients": 1,
            "at_window_share": sum(t == self.window for t in self.tokens) / len(self.tokens),
            "rejected_share": sum(r for _, r in self.mix) / len(self.mix),
            "prompt_tokens": quantiles(self.tokens),
            "cfg_nodes": quantiles(nodes),
        }


WORKLOADS = {"sift": Sift, "fused": Fused, "predict": Predict}


def scratch_dir(root: Path):
    """A temporary directory inside the checkout for checkpoint files."""
    base = root / ".bench_results"
    base.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)
