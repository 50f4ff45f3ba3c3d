import dataclasses
import hashlib
import json
import math
import os
import signal
import struct
import sys
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers_fuzz import FUZZ, cases, mutate
from helpers_loss import eq2_reference
from msivd.corpus import make_split, SplitSpec
from msivd.dialogue import build_dialogues, build_negative_dialogue
from msivd.gnn import GgnnConfig
from msivd.lm import LoraConfig, TransformerConfig
from msivd.synth import make_synthetic_corpus
from msivd.train import (
    CKPT_VERSION,
    Checkpoint,
    CheckpointError,
    LossCurve,
    TrainConfig,
    build_bundle_from_checkpoint,
    build_lm_from_checkpoint,
    load_checkpoint,
    render_training_streams,
    save_checkpoint,
    sift_batch_loss,
    train_fused,
    train_sift,
)

TINY_LM = TransformerConfig(d_model=32, n_layers=1, n_heads=2, context_window=384)
TINY_GNN = GgnnConfig(state_dim=16, steps=2)


def tiny_config(**over):
    base = dict(
        stage="sift",
        learning_rate=3e-3,
        batch_size=8,
        epochs=2,
        seed=0,
        lm_config=TINY_LM,
        gnn_config=TINY_GNN,
        lora_config=LoraConfig(rank=4),
    )
    base.update(over)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def small_corpus():
    return make_synthetic_corpus(n=20, seed=3)


# --- config defaults -------------------------------------------------------------


def test_stage_defaults_match_hyperparameter_table():
    sift = TrainConfig(stage="sift")
    fused = TrainConfig(stage="fused")
    assert sift.learning_rate == pytest.approx(1e-5)
    assert fused.learning_rate == pytest.approx(1e-6)
    assert sift.epochs == 10 and fused.epochs == 5
    assert sift.batch_size == 4 and fused.batch_size == 4


def test_invalid_config_rejected():
    for rate in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="learning rate"):
            TrainConfig(stage="sift", learning_rate=rate)
    with pytest.raises(ValueError):
        TrainConfig(stage="nope")
    with pytest.raises(ValueError):
        TrainConfig(sift_mode="bogus")
    # the LM's window must hold the classification prompt: scaffold, one code id and <|teacher|>
    assert TrainConfig(lm_config=TransformerConfig(context_window=188))
    for window in (187, 64, 8):
        with pytest.raises(ValueError, match=f"context_window must be >= 188, .*got {window}"):
            TrainConfig(stage="fused", lm_config=TransformerConfig(context_window=window))


# --- checkpoint container -----------------------------------------------------------


def test_checkpoint_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    ckpt = Checkpoint(
        config={"train": {"seed": 1}},
        tensors={
            "lm.a": rng.standard_normal((3, 4)).astype(np.float32),
            "lm.b": rng.standard_normal(7).astype(np.float32),
        },
        metrics_history=[{"stage": "sift"}],
    )
    p = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, p)
    again = load_checkpoint(p)
    assert struct.unpack_from("<I", p.read_bytes(), 8) == (CKPT_VERSION,)
    assert again.config == ckpt.config
    assert again.metrics_history == ckpt.metrics_history
    for name in ckpt.tensors:
        assert np.array_equal(again.tensors[name], ckpt.tensors[name])
        assert again.tensors[name].tobytes() == ckpt.tensors[name].tobytes()


def test_corrupted_magic_errors(tmp_path):
    p = tmp_path / "bad.ckpt"
    save_checkpoint(Checkpoint({}, {"x": np.zeros(2, dtype=np.float32)}), p)
    raw = bytearray(p.read_bytes())
    raw[:8] = b"NOTMAGIC"
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(p)


def test_version_mismatch_errors(tmp_path):
    """A file of the previous version, or of a later one, is refused."""
    p = tmp_path / "m.ckpt"
    save_checkpoint(Checkpoint({}, {"x": np.zeros(2, dtype=np.float32)}), p)
    for version in (CKPT_VERSION - 1, CKPT_VERSION + 3):
        raw = bytearray(p.read_bytes())
        raw[8:12] = struct.pack("<I", version)
        p.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match=f"version mismatch: file {version}, supported {CKPT_VERSION}"):
            load_checkpoint(p)


def test_save_checkpoint_refuses_a_non_finite_tensor(tmp_path):
    p = tmp_path / "nan.ckpt"
    tensors = {"lm.a": np.zeros(3, dtype=np.float32), "lm.b": np.array([1.0, np.nan], dtype=np.float32)}
    with pytest.raises(CheckpointError, match="'lm.b'.*non-finite"):
        save_checkpoint(Checkpoint({}, tensors), p)
    assert not p.exists()


def test_save_checkpoint_refuses_a_tensor_that_is_not_float32(tmp_path):
    p = tmp_path / "f8.ckpt"
    tensors = {"lm.a": np.zeros(3, dtype=np.float32), "lm.b": np.ones(2, dtype=np.float64)}
    with pytest.raises(CheckpointError, match="'lm.b' is float64, not float32"):
        save_checkpoint(Checkpoint({}, tensors), p)
    assert not p.exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_load_checkpoint_refuses_a_non_finite_tensor(tmp_path, value):
    """The last float of the payload belongs to the last tensor by name."""
    p = tmp_path / "m.ckpt"
    save_checkpoint(Checkpoint({}, {"lm.a": np.zeros(3, dtype=np.float32), "lm.b": np.ones(2, dtype=np.float32)}), p)
    raw = bytearray(p.read_bytes())
    raw[-4:] = np.float32(value).tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="'lm.b'.*non-finite"):
        load_checkpoint(p)


def _sift_checkpoint():
    """An untrained SIFT checkpoint of the tiny LM."""
    from msivd.lm import LmModel

    config = tiny_config()
    model = LmModel(config.lm_config, seed=config.seed, lora=config.lora_config)
    tensors = {k: t.data.copy() for k, t in model.parameters().items()}
    return Checkpoint({"train": config.snapshot()}, tensors)


def _reshape_first(edit):
    """A corruption that replaces the shape of the first tensor of the
    directory with ``edit`` of it; the payload stays as saved."""

    def corrupt(header: dict) -> None:
        first = min(header["tensors"])
        header["tensors"][first] = edit(header["tensors"][first])

    return _rewrite(corrupt)


def _rewrite(edit, tail: bytes = b""):
    """A corruption that edits the JSON header; the payload stays as saved,
    followed by ``tail``."""

    def corrupt(raw: bytes) -> bytes:
        (header_len,) = struct.unpack_from("<I", raw, 12)
        header = json.loads(raw[16 : 16 + header_len])
        edit(header)
        blob = json.dumps(header).encode("utf-8")
        return raw[:12] + struct.pack("<I", len(blob)) + blob + raw[16 + header_len :] + tail

    return corrupt


def _header_bytes(fill: bytes):
    def corrupt(raw: bytes) -> bytes:
        (header_len,) = struct.unpack_from("<I", raw, 12)
        return raw[:16] + fill * header_len + raw[16 + header_len :]

    return corrupt


def _zero_byte_entry(shape):
    """A corruption that adds an entry of ``shape``, whose size is 0, after
    the last tensor of the directory."""
    return _rewrite(lambda h: h["tensors"].update({"lm.extra": shape}))


CORRUPTIONS = {
    "cut-in-version": lambda raw: raw[:10],
    "cut-in-header-length": lambda raw: raw[:14],
    "cut-in-header": lambda raw: raw[: 16 + struct.unpack_from("<I", raw, 12)[0] // 2],
    "non-utf8-header": _header_bytes(b"\xff"),
    "header-not-json": _header_bytes(b"{"),
    "header-nested-too-deeply": lambda raw: raw[:12] + struct.pack("<I", 200_000) + b"[" * 100_000 + b"]" * 100_000,
    "cut-in-payload": lambda raw: raw[:-3],
    "trailing-payload-bytes": lambda raw: raw + bytes(4096),
    "negative-dimension": _reshape_first(lambda shape: [-1, *shape]),
    "shape-past-payload": _reshape_first(lambda shape: [10**9, *shape]),
    "shape-short-of-payload": _reshape_first(lambda shape: shape[1:]),
    "shape-not-a-list": _reshape_first(lambda shape: {"shape": shape, "dtype": "<f4"}),
    "zero-bytes-shape-10e300": _zero_byte_entry([0, 10**300]),
    "zero-bytes-shape-2e63": _zero_byte_entry([0, 2**63]),
    "zero-bytes-shape-2e40x2e40": _zero_byte_entry([0, 2**40, 2**40]),
    "zero-bytes-70-dimensions": _zero_byte_entry([0] * 70),
    "no-tensor-directory": _rewrite(lambda h: h.pop("tensors")),
    "extra-tensor": _rewrite(lambda h: h["tensors"].update({"lm.extra": [2]}), tail=bytes(8)),
}
# what the error of a case must say, where more than one check could catch it
NUMPY_CANNOT_SHAPE = r"tensor 'lm\.extra': no array has shape"
CORRUPTION_MESSAGES = {
    "trailing-payload-bytes": "payload holds 4096 bytes past its last tensor",
    "zero-bytes-shape-10e300": NUMPY_CANNOT_SHAPE,
    "zero-bytes-shape-2e63": NUMPY_CANNOT_SHAPE,
    "zero-bytes-shape-2e40x2e40": NUMPY_CANNOT_SHAPE,
    "zero-bytes-70-dimensions": NUMPY_CANNOT_SHAPE,
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_checkpoint_raises_checkpoint_error(tmp_path, corruption):
    p = tmp_path / "m.ckpt"
    save_checkpoint(_sift_checkpoint(), p)
    build_lm_from_checkpoint(load_checkpoint(p))  # the intact file loads
    p.write_bytes(CORRUPTIONS[corruption](p.read_bytes()))
    with pytest.raises(CheckpointError, match=CORRUPTION_MESSAGES.get(corruption)):
        build_lm_from_checkpoint(load_checkpoint(p))


TRAIN = tiny_config().snapshot()
FUSED = {**TRAIN, "stage": "fused"}
BAD_CONFIGS = {
    "empty": (build_lm_from_checkpoint, {}, "checkpoint train must be a JSON object, got null"),
    "fused-without-train": (build_bundle_from_checkpoint, {"stage": "fused"}, "checkpoint train must be a JSON object"),
    "train-not-object": (build_lm_from_checkpoint, {"train": [1]},
                         r"checkpoint train must be a JSON object, got \[1\]"),
    "ill-typed-dimension": (build_lm_from_checkpoint, {"train": {**TRAIN, "lm_config": {"d_model": "x"}}},
                            r"train\.lm_config"),
    "unknown-lm-setting": (build_lm_from_checkpoint, {"train": {**TRAIN, "lm_config": {"bogus": 1}}},
                           r"train\.lm_config"),
    "unknown-gnn-setting": (build_bundle_from_checkpoint,
                            {"train": {**FUSED, "gnn_config": {"bogus": 1}}},
                            r"train\.gnn_config"),
    "seed-not-integer": (build_lm_from_checkpoint, {"train": {**TRAIN, "seed": "x"}},
                         "checkpoint train key 'seed' must be int, got \"x\""),
    "negative-seed": (build_bundle_from_checkpoint, {"train": {**FUSED, "seed": -1}},
                      r"checkpoint train \{.*: seed must be >= 0, got -1"),
    "float-d-model": (build_lm_from_checkpoint,
                      {"train": {**TRAIN, "lm_config": {**TRAIN["lm_config"], "d_model": 32.0}}},
                      r"train\.lm_config key 'd_model' must be int, got 32\.0"),
    "float-lora-rank": (build_lm_from_checkpoint,
                        {"train": {**TRAIN, "lora_config": {**TRAIN["lora_config"], "rank": 2.0}}},
                        r"train\.lora_config key 'rank' must be int, got 2\.0"),
    "bool-lora-rank": (build_lm_from_checkpoint,
                       {"train": {**TRAIN, "lora_config": {**TRAIN["lora_config"], "rank": True}}},
                       r"train\.lora_config key 'rank' must be int, got true"),
    # the MLP's hidden layer is as wide as the state, so a version-6 header's width is a key of no field
    "mlp-hidden-key": (build_bundle_from_checkpoint,
                       {"train": {**FUSED, "gnn_config": {**TRAIN["gnn_config"], "mlp_hidden": 16}}},
                       r"train\.gnn_config .*unexpected keyword argument 'mlp_hidden'"),
    "gnn-narrower-than-its-features": (build_bundle_from_checkpoint,
                                       {"train": {**FUSED, "gnn_config": {**TRAIN["gnn_config"], "state_dim": 8}}},
                                       r"train\.gnn_config .*state_dim must be >= 16, got 8"),
    "zero-heads": (build_lm_from_checkpoint,
                   {"train": {**TRAIN, "lm_config": {**TRAIN["lm_config"], "n_heads": 0}}},
                   r"train\.lm_config .*n_layers and n_heads must be >= 1"),
    "zero-layers": (build_lm_from_checkpoint,
                    {"train": {**TRAIN, "lm_config": {**TRAIN["lm_config"], "n_layers": 0}}},
                    r"train\.lm_config .*n_layers and n_heads must be >= 1"),
    "nan-lora-alpha": (build_lm_from_checkpoint,
                       {"train": {**TRAIN, "lora_config": {**TRAIN["lora_config"], "alpha": float("nan")}}},
                       r"train\.lora_config .*needs a finite alpha"),
    "huge-lora-rank": (build_lm_from_checkpoint,
                       {"train": {**TRAIN, "lora_config": {**TRAIN["lora_config"], "rank": 10**300}}},
                       r"train\.lora_config: the model needs 'lm\.layer0\.wq\.lora_a' of shape \(\d{79}, not \(4, 32\)"),
    "huge-gnn-state-dim": (build_bundle_from_checkpoint,
                           {"train": {**FUSED, "gnn_config": {**TRAIN["gnn_config"], "state_dim": 10**300}}},
                           r"train\.gnn_config: the model needs tensor 'gnn\.mlp\.w1', which the file does not hold"),
    # past the float range: a load must not compute a draw's std from the header's width
    "gnn-state-dim-past-float": (build_bundle_from_checkpoint,
                                 {"train": {**FUSED, "gnn_config": {**TRAIN["gnn_config"], "state_dim": 10**400}}},
                                 r"train\.gnn_config: the model needs tensor 'gnn\.mlp\.w1'"),
    "negative-gnn-steps": (build_bundle_from_checkpoint,
                           {"train": {**FUSED, "gnn_config": {**TRAIN["gnn_config"], "steps": -1}}},
                           r"train\.gnn_config .*steps must be >= 0"),
    # TrainConfig checks the values of the train section itself
    "zero-batch-size": (build_lm_from_checkpoint, {"train": {**TRAIN, "batch_size": 0}},
                        r"checkpoint train \{.*: learning rate, batch size and epochs must be positive"),
    "unknown-stage": (build_lm_from_checkpoint, {"train": {**TRAIN, "stage": "nope"}},
                      r"checkpoint train \{.*: unknown stage 'nope'"),
    "unknown-sift-mode": (build_lm_from_checkpoint, {"train": {**TRAIN, "sift_mode": "bogus"}},
                          r"checkpoint train \{.*: unknown sift_mode 'bogus'"),
    "negative-learning-rate": (build_lm_from_checkpoint, {"train": {**TRAIN, "learning_rate": -1}},
                               r"checkpoint train \{.*: learning rate, batch size and epochs must be positive"),
    "zero-epochs": (build_lm_from_checkpoint, {"train": {**TRAIN, "epochs": 0}},
                    r"checkpoint train \{.*: learning rate, batch size and epochs must be positive"),
    # a version-5 fused header: stage and use_gnn also outside the train section, which they contradict
    "settings-outside-train": (build_bundle_from_checkpoint,
                               {"stage": "fused", "train": {**FUSED, "use_gnn": False}, "use_gnn": True},
                               r'checkpoint config holds \["stage", "use_gnn"\] besides its train section'),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_header_config_raises_checkpoint_error(tmp_path, case):
    build, config, names = BAD_CONFIGS[case]
    p = tmp_path / "m.ckpt"
    save_checkpoint(dataclasses.replace(_sift_checkpoint(), config=config), p)
    with pytest.raises(CheckpointError, match=names):
        build(load_checkpoint(p))


@pytest.mark.parametrize("key, value, resized", [
    ("vocab_size", 10, ("lm.tok_emb", "lm.lm_head")),
    ("context_window", 64, ("lm.pos_emb",)),
])
def test_header_of_an_lm_that_cannot_read_a_prompt_raises(tmp_path, key, value, resized):
    """A header that describes a 10-id vocabulary or a 64-id window, with
    tensors resized to match, raises CheckpointError naming its config: the
    vocabulary is the tokenizer's, which the header does not record, and a
    window shorter than ``MIN_PROMPT_WINDOW`` cannot hold the read-out
    prompt."""
    ckpt = _sift_checkpoint()
    ckpt.config["train"]["lm_config"][key] = value
    for name in resized:
        ckpt.tensors[name] = ckpt.tensors[name][:value]
    p = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, p)
    with pytest.raises(CheckpointError, match=rf"checkpoint train.*{key}"):
        build_lm_from_checkpoint(load_checkpoint(p))


def _interrupt(signum, frame):
    raise TimeoutError("still building after a second")


@pytest.mark.parametrize("key, size", [("lm_config", "n_layers"), ("gnn_config", "steps")])
def test_absurd_header_size_raises_before_building(tmp_path, key, size):
    """A header asking for 10^300 LM layers or GGNN steps, loaded as
    ``predict`` loads it, with no expected config, raises CheckpointError
    within a second: the loader walks the LM's table, which lists the layers
    lazily, and stops at the first tensor that the file lacks; no tensor
    holds the steps, so GgnnConfig bounds them. An alarm stops a build that
    has not raised by then."""
    train_cfg = {**TRAIN, key: {**TRAIN[key], size: 10**300}}
    p = tmp_path / "m.ckpt"
    save_checkpoint(dataclasses.replace(_sift_checkpoint(), config={"train": {**train_cfg, "stage": "fused"}}), p)
    ckpt = load_checkpoint(p)
    previous = signal.signal(signal.SIGALRM, _interrupt)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(CheckpointError, match=rf"train\.{key}"):
            build_bundle_from_checkpoint(ckpt)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_loaders_build_from_the_file_and_draw_no_random_number(small_corpus, monkeypatch):
    """Both loaders build each model from copies of the file's tensors,
    bitwise, and draw no random number doing so."""
    sift_ckpt = _sift_checkpoint()
    fused_ckpt, _ = train_fused(small_corpus[:4], None, tiny_config(stage="fused", epochs=1))

    def no_generator(*args, **kwargs):
        raise AssertionError("a loader asked for a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    lm = build_lm_from_checkpoint(sift_ckpt)
    bundle = build_bundle_from_checkpoint(fused_ckpt)
    for ckpt, params in ((sift_ckpt, lm.parameters()), (fused_ckpt, {
        **bundle.read_out.lm.parameters(), **bundle.classifier.parameters(), **bundle.gnn.parameters()
    })):
        assert sorted(params) == sorted(ckpt.tensors)
        for name, t in params.items():
            assert t.data.tobytes() == ckpt.tensors[name].tobytes()
            assert not np.shares_memory(t.data, ckpt.tensors[name])


def _saved_header() -> tuple[bytes, dict, bytes]:
    """A saved tiny SIFT checkpoint: its magic and version, its JSON header
    and its payload."""
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        save_checkpoint(_sift_checkpoint(), f"{tmp}/m.ckpt")
        with open(f"{tmp}/m.ckpt", "rb") as fh:
            raw = fh.read()
    (header_len,) = struct.unpack_from("<I", raw, 12)
    return raw[:12], json.loads(raw[16 : 16 + header_len]), raw[16 + header_len :]


CKPT_START, HEADER, CKPT_PAYLOAD = _saved_header()
# every tensor entry has the same fields, so the first one stands for all
FIRST_TENSOR = min(HEADER["tensors"])
HEADER_CASES = [c for c in cases(HEADER) if c[0][0] != "tensors" or c[0][1:2] in ((), (FIRST_TENSOR,))]


@FUZZ
@given(st.sampled_from(HEADER_CASES))
def test_fuzzed_checkpoint_header_raises_checkpoint_error_or_loads(tmp_path, case):
    """A checkpoint whose header has one value broken raises
    CheckpointError, or loads, as ``train-fused`` loads a SIFT checkpoint:
    against the config it expects. A config key that is gone takes its
    default, so a loaded model need not be the one that was saved."""
    header = mutate(HEADER, *case).encode("utf-8")
    p = tmp_path / "m.ckpt"
    p.write_bytes(CKPT_START + struct.pack("<I", len(header)) + header + CKPT_PAYLOAD)
    try:
        build_lm_from_checkpoint(load_checkpoint(p), expect=tiny_config(stage="fused"))
    except CheckpointError:
        pass


def test_loading_into_different_d_model_errors(tmp_path, small_corpus):
    dialogues = build_dialogues(small_corpus[:6])
    ckpt, _ = train_sift(dialogues, tiny_config(epochs=1))
    other = tiny_config(
        stage="fused",
        lm_config=TransformerConfig(d_model=16, n_layers=1, n_heads=2, context_window=384),
    )
    with pytest.raises(CheckpointError, match=r"^checkpoint and config build different LMs: "
                       r"lm_config\.d_model: checkpoint 32, config 16$"):
        train_fused(small_corpus[:6], ckpt, other)


def test_lm_mismatch_names_each_field_that_differs():
    """Only the fields that differ are named, each with both values, also
    when d_model is equal."""
    other = tiny_config(stage="fused", lm_config=dataclasses.replace(TINY_LM, n_layers=2, context_window=512))
    with pytest.raises(CheckpointError) as err:
        build_lm_from_checkpoint(_sift_checkpoint(), expect=other)
    assert str(err.value) == (
        "checkpoint and config build different LMs: "
        "lm_config.n_layers: checkpoint 1, config 2; lm_config.context_window: checkpoint 384, config 512"
    )


@pytest.mark.parametrize("rank, alpha", [(2, 16.0), (8, 4.0)], ids=["alpha", "rank"])
def test_fused_run_refuses_a_sift_checkpoint_of_other_lora_settings(small_corpus, rank, alpha):
    """The fused run reads out the LM under the SIFT checkpoint's LoRA
    scale and writes its own LoRA settings into the fused header, so the two
    must agree: a SIFT run at rank 2 and alpha 4 followed by a fused run at
    alpha 16 would write a bundle that predicts at scale 8 instead of 2."""
    sift = tiny_config(epochs=1, lora_config=LoraConfig(rank=2, alpha=4.0))
    ckpt, _ = train_sift(build_dialogues(small_corpus[:4]), sift)
    fused = tiny_config(stage="fused", lora_config=LoraConfig(rank=rank, alpha=alpha))
    differ = [f"lora_config.{name}: checkpoint {have!r}, config {want!r}"
              for name, have, want in (("rank", 2, rank), ("alpha", 4.0, alpha)) if have != want]
    with pytest.raises(CheckpointError) as err:
        train_fused(small_corpus[:4], ckpt, fused)
    assert str(err.value) == "checkpoint and config build different LMs: " + "; ".join(differ)
    train_fused(small_corpus[:4], ckpt, dataclasses.replace(fused, lora_config=sift.lora_config))


# --- SIFT stage ------------------------------------------------------------------------


def test_sift_smoke_loss_decreases(small_corpus):
    dialogues = build_dialogues(small_corpus)
    config = tiny_config(learning_rate=5e-3, batch_size=len(dialogues), epochs=10)
    ckpt, curve = train_sift(dialogues, config)
    losses = curve.losses()
    assert len(losses) == 10
    assert losses[-1] < losses[0]


def test_sift_base_weights_bitwise_unchanged(small_corpus):
    dialogues = build_dialogues(small_corpus[:8])
    config = tiny_config(epochs=1, batch_size=4, learning_rate=1e-2)
    from msivd.lm import LmModel

    fresh = LmModel(config.lm_config, seed=config.seed, lora=config.lora_config)
    adapters = fresh.adapter_parameters()
    before = {k: hashlib.sha256(t.data.tobytes()).hexdigest()
              for k, t in fresh.parameters().items() if k not in adapters}
    ckpt, _ = train_sift(dialogues, config)
    for k, digest in before.items():
        assert hashlib.sha256(ckpt.tensors[k].tobytes()).hexdigest() == digest
    # adapters did move
    moved = any(
        ckpt.tensors[k].any()
        for k in adapters
        if k.endswith("lora_b")
    )
    assert moved


def test_label_only_mode_masks_one_round(small_corpus):
    dialogues = build_dialogues(small_corpus[:8])
    config = tiny_config(sift_mode="label-only", epochs=1)
    ckpt, _ = train_sift(dialogues, config)
    assert ckpt.metrics_history[0]["n_tasks"] == 1


def test_multi_round_mode_masks_three_rounds(small_corpus):
    dialogues = build_dialogues(small_corpus[:8])
    config = tiny_config(sift_mode="multi-round", epochs=1)
    ckpt, _ = train_sift(dialogues, config)
    assert ckpt.metrics_history[0]["n_tasks"] == 3


def _stream_loss_and_multitask_loss(n_layers):
    from msivd.dialogue import render
    from msivd.lm import ByteTokenizer, LmModel

    corpus = make_synthetic_corpus(n=8, seed=9)
    dialogues = build_dialogues(corpus)
    lm_config = TransformerConfig(d_model=32, n_layers=n_layers, n_heads=2, context_window=1024)
    config = tiny_config(lm_config=lm_config)
    tok = ByteTokenizer()
    model = LmModel(config.lm_config, seed=1, lora=config.lora_config)
    streams = render_training_streams(dialogues, tok, config)
    stream_value = sift_batch_loss(model, streams)

    groups = [[], [], []]
    for d in dialogues:
        for r in range(1, len(d.rounds) + 1):
            rendered = render(d, tok, up_to_round=r, context_window=1024)
            mask = np.zeros(rendered.token_ids.shape[0], dtype=bool)
            start, end = rendered.teacher_spans[r - 1]
            mask[start:end] = True
            groups[r - 1].append((rendered.token_ids, mask))
    assert all(groups)
    return stream_value, eq2_reference(model, groups)


def test_stream_loss_matches_multitask_loss():
    """The per-stream training path equals the Eq. 2 loss with one task per
    round, each round rendered on its own and masked over its own teacher
    span, when nothing is truncated."""
    stream_value, reference = _stream_loss_and_multitask_loss(n_layers=1)
    assert stream_value == pytest.approx(reference, rel=1e-5)


def test_stream_loss_matches_multitask_loss_two_layers():
    """As above with two layers, where the last layer, which runs from the
    first target row on, is not also the first."""
    stream_value, reference = _stream_loss_and_multitask_loss(n_layers=2)
    assert stream_value == pytest.approx(reference, rel=1e-5)


# Largest gap allowed between the adapter gradients of ``sift_batch_loss``
# and those of the full-row loss, relative to the largest gradient entry
# (measured: at most 2.1e-7 in float32 over the three modes, 1 and 2 layers).
FULL_ROW_GRAD_TOL = 1e-5


def _seed4_loss_and_grads(mode, loss_fn):
    """``loss_fn``'s loss and adapter gradients on the 8 seed-4 dialogues in
    ``mode``, on a 2-layer LM whose B factors are random."""
    from msivd.lm import ByteTokenizer, LmModel

    dialogues = build_dialogues(make_synthetic_corpus(n=8, seed=4))
    lm_config = TransformerConfig(d_model=32, n_layers=2, n_heads=2, context_window=512)
    config = tiny_config(sift_mode=mode, lm_config=lm_config)
    streams = render_training_streams(dialogues, ByteTokenizer(), config)
    model = LmModel(lm_config, seed=2, lora=config.lora_config)
    rng = np.random.default_rng(0)
    for _, b in model.adapters.values():
        b.data[:] = rng.normal(0, 0.05, b.shape)
    loss = loss_fn(model, streams)
    return loss, {k: t.grad for k, t in model.adapter_parameters().items()}


@pytest.mark.parametrize("mode", ["multi-round", "single-round", "label-only"])
def test_sift_gradients_match_full_row_loss(mode):
    """With the last layer and the head started at each stream's first target
    row, the loss and every adapter gradient match those of the full-row
    forward within the stated bounds."""
    from helpers_loss import full_row_loss

    loss, grads = _seed4_loss_and_grads(mode, sift_batch_loss)
    full_loss, full_grads = _seed4_loss_and_grads(mode, full_row_loss)
    assert loss == pytest.approx(full_loss, abs=1e-6)
    scale = max(np.abs(g).max() for g in full_grads.values())
    assert scale > 0
    for name, g in full_grads.items():
        assert np.max(np.abs(grads[name] - g)) <= FULL_ROW_GRAD_TOL * scale, name


def test_label_only_and_single_round_train_different_targets():
    """Label-only trains the label id, single-round the whole round-1
    answer, so on one batch they give different losses and adapter
    gradients (both modes once trained the same streams)."""
    label_loss, label_grads = _seed4_loss_and_grads("label-only", sift_batch_loss)
    round_loss, round_grads = _seed4_loss_and_grads("single-round", sift_batch_loss)
    assert label_loss != round_loss
    assert all(not np.array_equal(label_grads[k], round_grads[k]) for k in round_grads)


@pytest.mark.parametrize("window", [512, 200], ids=["whole", "cut"])
def test_label_only_stream_is_the_read_out_prompt_and_its_label(window):
    """A label-only stream is round 1 up to and including ``<|teacher|>``,
    which is the prompt ``predict_pretrained`` reads when nothing is cut,
    followed by the label id, its only teacher span. Over the window it
    loses ids from the left and keeps the marker and the label."""
    from msivd.dialogue import render_prompt
    from msivd.lm import ByteTokenizer

    samples = make_synthetic_corpus(n=8, seed=4)
    lm_config = TransformerConfig(d_model=32, n_layers=1, n_heads=2, context_window=window)
    tok = ByteTokenizer()
    config = tiny_config(sift_mode="label-only", lm_config=lm_config)
    streams = render_training_streams(build_dialogues(samples), tok, config)
    assert {s.label for s in samples} == {True, False}
    for sample, stream in zip(samples, streams):
        ids = stream.rendered.token_ids
        assert ids[-1] == (tok.YES if sample.label else tok.NO)
        assert stream.tasks == [(0, (len(ids) - 1, len(ids)))]
        assert stream.rendered.teacher_spans == [(len(ids) - 1, len(ids))]
        prompt = render_prompt(sample.code, tok, context_window=10_000)
        if len(prompt) < window:
            assert np.array_equal(ids[:-1], prompt)
        else:
            assert len(ids) == window and np.array_equal(ids[:-1], prompt[len(prompt) - window + 1 :])


def test_sift_loss_gradcheck_of_last_layer_adapters_across_a_tile_edge():
    """Finite differences, in float64, of one stream's SIFT loss with respect
    to the last layer's query and value adapters. The first target row is 60
    of 200, so the last layer's 140 query rows span three 64-row attention
    tiles, the last one ragged. The loss forwards from row 60
    as ``sift_batch_loss`` does, and its gradient is the one that
    ``sift_batch_loss`` accumulates."""
    from helpers_lm import cast
    from helpers_loss import task_streams
    from msivd import autograd as ag
    from msivd.lm import LmModel

    t, first = 200, 60
    cfg = TransformerConfig(d_model=8, n_layers=2, n_heads=2, context_window=t)
    model = cast(LmModel(cfg, seed=5, lora=LoraConfig(rank=2)), np.float64)
    rng = np.random.default_rng(5)
    for _, b in model.adapters.values():
        b.data[:] = rng.normal(0, 0.5, b.shape)
    ids = rng.integers(0, 256, size=t)
    mask = np.arange(t) > first
    sift_batch_loss(model, task_streams([[(ids, mask)]]))
    names = ["layer1.wq", "layer1.wv"]
    tensors = [x for n in names for x in model.adapters[n]]
    accumulated = [x.grad.copy() for x in tensors]
    targets = np.append(ids[first + 1 :], 0)
    weights = np.append(np.full(t - first - 1, 1.0 / (t - first - 1)), 0.0)

    def f(*ts):
        for i, n in enumerate(names):
            model.adapters[n] = ts[2 * i : 2 * i + 2]
        return ag.cross_entropy(model.forward(ids, first_row=first).logits, targets, weights)

    clones = [ag.Tensor(x.data.copy(), requires_grad=True) for x in tensors]
    ag.backward(f(*clones))
    assert all(np.array_equal(c.grad, g) for c, g in zip(clones, accumulated))
    assert ag.grad_check(f, tensors, h=1e-5) <= 1e-4  # measured 1.4e-5; the MLP's ReLU kinks limit it


def _desk_model_and_streams(seed):
    """The desk LM (2 layers, a 512 window) with random B factors, so that
    every adapter gets a gradient, and 8 seed-0 multi-round streams."""
    from msivd.lm import ByteTokenizer, LmModel

    config = TrainConfig(stage="sift", sift_mode="multi-round")
    model = LmModel(config.lm_config, seed=seed, lora=config.lora_config)
    rng = np.random.default_rng(seed)
    for _, b in model.adapters.values():
        b.data[:] = rng.normal(0, 0.05, b.shape)
    dialogues = build_dialogues(make_synthetic_corpus(n=8, seed=0))
    return model, render_training_streams(dialogues, ByteTokenizer(), config)


@pytest.mark.parametrize("stress", [False, True], ids=["pool", "8-workers-short-switch"])
def test_sift_batch_loss_bitwise_equals_sequential_loop(monkeypatch, stress):
    """Streams run on worker threads and their gradients are added in stream
    order, so the loss and every adapter gradient are the bytes of one
    sequential loop over the same streams. The stress case runs the batch on
    more workers than cores, with the interpreter switching threads every
    10 microseconds."""
    from concurrent.futures import ThreadPoolExecutor

    from helpers_loss import sequential_sift_loss
    from msivd import train

    results = []
    switch = sys.getswitchinterval()
    with ThreadPoolExecutor(8) as pool:
        if stress:
            monkeypatch.setattr(train, "_stream_pool", lambda: pool)
            sys.setswitchinterval(1e-5)
        try:
            for loss_fn in (sift_batch_loss, sequential_sift_loss):
                model, streams = _desk_model_and_streams(seed=3)
                assert model.config.n_layers == 2 and len(streams) == 8
                loss = loss_fn(model, streams)
                results.append((loss, {k: t.grad.tobytes() for k, t in model.adapter_parameters().items()}))
        finally:
            sys.setswitchinterval(switch)
    (loss, grads), (seq_loss, seq_grads) = results
    assert loss == seq_loss
    assert grads == seq_grads


def test_sift_batch_loss_error_adds_no_gradient():
    """A stream longer than the window raises ShapeError out of the batch,
    and no gradient of the streams that ran is added to the adapters."""
    from helpers_loss import task_streams
    from msivd import autograd as ag
    from msivd.lm import LmModel

    cfg = TransformerConfig(d_model=16, n_layers=2, n_heads=2, context_window=32)
    model = LmModel(cfg, seed=0)
    good = ([1, 2, 3, 4, 5, 6], [False, True, True, True, True, True])
    too_long = ([7] * 40, [False] + [True] * 39)
    with pytest.raises(ag.ShapeError, match="exceeds context window"):
        sift_batch_loss(model, task_streams([[good, good], [too_long]]))
    assert all(t.grad is None for t in model.adapter_parameters().values())


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_sift_batch_loss_in_a_forked_child():
    """A child forked after a batch has none of the parent's worker threads:
    it builds a pool of its own rather than wait forever on the parent's."""
    from helpers_loss import task_streams
    from msivd.lm import LmModel

    model = LmModel(TransformerConfig(d_model=16, n_layers=2, n_heads=2, context_window=32), seed=0)
    streams = task_streams([[([1, 2, 3, 4], [False, True, True, True])] * 3])
    expected = sift_batch_loss(model, streams)
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if sift_batch_loss(model, streams) == expected else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


def test_negative_only_corpus_multiround_errors():
    negs = [s for s in make_synthetic_corpus(n=12, seed=5) if not s.label][:4]
    dialogues = build_dialogues(negs)
    with pytest.raises(ValueError, match="empty task group"):
        train_sift(dialogues, tiny_config(sift_mode="multi-round", epochs=1))


def test_sift_determinism_bytewise(tmp_path, small_corpus):
    dialogues = build_dialogues(small_corpus[:8])
    paths = []
    for run in range(2):
        config = tiny_config(epochs=2, batch_size=4, seed=11)
        ckpt, curve = train_sift(dialogues, config)
        p = tmp_path / f"curve{run}.csv"
        curve.to_csv(p)
        paths.append(p.read_bytes())
        cp = tmp_path / f"m{run}.ckpt"
        save_checkpoint(ckpt, cp)
        paths.append(cp.read_bytes())
    assert paths[0] == paths[2]
    assert paths[1] == paths[3]


# --- fused stage -----------------------------------------------------------------------


def test_fused_lm_bytes_identical_and_step_count(small_corpus):
    dialogues = build_dialogues(small_corpus)
    sift_ckpt, _ = train_sift(dialogues, tiny_config(epochs=1, batch_size=8))
    lm_before = {k: v.tobytes() for k, v in sift_ckpt.tensors.items() if k.startswith("lm.")}

    config = tiny_config(stage="fused", learning_rate=0.2, batch_size=6, epochs=3)
    fused_ckpt, curve = train_fused(small_corpus, sift_ckpt, config)
    for k, blob in lm_before.items():
        assert fused_ckpt.tensors[k].tobytes() == blob
    expected_steps = math.ceil(len(small_corpus) / 6) * 3
    assert len(curve.rows) == expected_steps
    assert [s for s, _ in curve.rows] == list(range(expected_steps))


def test_fused_without_gnn_trains_lm_only_head(small_corpus):
    config = tiny_config(stage="fused", use_gnn=False, learning_rate=0.5, batch_size=10, epochs=5)
    ckpt, curve = train_fused(small_corpus, None, config)
    assert not any(k.startswith("gnn.") for k in ckpt.tensors)
    assert curve.losses()[-1] < curve.losses()[0]


def test_inference_read_out_records_no_tape(small_corpus, monkeypatch):
    """The bundle's LM is frozen, adapters included, so its forward keeps no
    graph alive between requests. So is the pre-trained baseline's, whose
    read-outs all go through the scaffold's K/V prefix."""
    ckpt, _ = train_fused(small_corpus[:4], None, tiny_config(stage="fused", use_gnn=False, epochs=1))
    lm = build_bundle_from_checkpoint(ckpt).read_out.lm
    assert lm.adapter_parameters()
    assert not lm.forward([1, 2, 3]).hidden.requires_grad

    from msivd import evaluation
    from msivd.lm import LmModel

    forwards = []
    forward = LmModel.forward

    def recording_forward(model, ids, prefix=None, first_row=0):
        out = forward(model, ids, prefix=prefix, first_row=first_row)
        forwards.append((bool(model.adapter_parameters()), out.hidden.requires_grad, prefix is not None))
        return out

    monkeypatch.setattr(LmModel, "forward", recording_forward)
    data = evaluation.AblationDataset("tiny", train=small_corpus[:4], eval=[], test=small_corpus[:5])
    evaluation.run_ablation(data, ["pre-trained"], tiny_config(), tiny_config(stage="fused"))
    # one forward builds the prefix, then one read-out per test sample
    assert forwards == [(True, False, False)] + [(True, False, True)] * 5


def test_predict_records_no_tape(small_corpus, monkeypatch):
    """The rebuilt bundle's GGNN and classifier are frozen like its LM, so a
    prediction, parsed or fallback, records no operation."""
    from msivd import autograd as ag
    from msivd.fusion import predict

    ckpt, _ = train_fused(small_corpus[:4], None, tiny_config(stage="fused", epochs=1))
    bundle = build_bundle_from_checkpoint(ckpt)
    recorded = []
    result = ag._result

    def recording_result(data, parents, bw):
        out = result(data, parents, bw)
        recorded.append(out.requires_grad)
        return out

    monkeypatch.setattr(ag, "_result", recording_result)
    rejected = dataclasses.replace(small_corpus[0], code=small_corpus[0].code + "\nfor (i = 0; i < n; i = i + 1) { g(i); }")
    assert [predict(s, bundle).flagged for s in (small_corpus[0], rejected)] == [False, True]
    assert recorded and not any(recorded)


def test_fused_training_with_gnn_repeats_bitwise(small_corpus):
    config = tiny_config(stage="fused", learning_rate=0.2, batch_size=8, epochs=2)
    (first, first_curve), (second, second_curve) = (train_fused(small_corpus, None, config) for _ in range(2))
    assert any(k.startswith("gnn.") for k in first.tensors)
    assert first_curve.rows == second_curve.rows
    assert first.tensors.keys() == second.tensors.keys()
    for name, arr in first.tensors.items():
        assert arr.dtype == second.tensors[name].dtype and arr.tobytes() == second.tensors[name].tobytes(), name


@pytest.mark.parametrize("case", ["gnn", "no-gnn", "mini-c-rejects"])
def test_train_and_predict_read_out_alike(case):
    """The loss logged for one sample, one step, at a negligible learning rate
    is -log p(label) of that sample under predict on the rebuilt bundle."""
    from msivd.fusion import predict

    sample = [s for s in make_synthetic_corpus(n=4, seed=2) if s.label][0]
    if case == "mini-c-rejects":  # mini-C has no for loops
        sample = dataclasses.replace(sample, code=sample.code + "\nfor (i = 0; i < n; i = i + 1) { g(i); }")
    config = tiny_config(stage="fused", use_gnn=case != "no-gnn", learning_rate=1e-12, batch_size=1, epochs=1)
    ckpt, curve = train_fused([sample], None, config)
    pred = predict(sample, build_bundle_from_checkpoint(ckpt))
    assert pred.flagged == (case == "mini-c-rejects")
    log_p = pred.log_probs[0 if sample.label else 1]
    assert curve.losses()[0] == pytest.approx(-log_p, abs=1e-6)


def test_overfit_single_dialogue_reproduces_teacher_answer():
    """LoRA-only training memorizes one short dialogue; greedy decoding then
    reproduces the teacher answer token for token."""
    from helpers_lm import generate_greedy
    from msivd.lm import ByteTokenizer, LmModel, LoraConfig
    from msivd.train import Sgd, render_training_streams, sift_batch_loss

    corpus = make_synthetic_corpus(n=4, seed=1)
    neg = [s for s in corpus if not s.label][0]
    d = build_negative_dialogue(neg)
    tok = ByteTokenizer()
    cfg = TransformerConfig(d_model=32, n_layers=1, n_heads=2, context_window=384)
    lora = LoraConfig(rank=32, alpha=64.0)
    model = LmModel(cfg, seed=0, lora=lora)
    for a, _ in model.adapters.values():
        a.data *= 10.0  # A at ten times its drawn scale, so that 300 steps memorize the answer
    tc = TrainConfig(stage="sift", lm_config=cfg, lora_config=lora, epochs=1, batch_size=1)
    streams = render_training_streams([d], tok, tc)
    opt = Sgd(model.adapter_parameters(), lr=5.0)
    for _ in range(300):
        opt.zero_grad()
        sift_batch_loss(model, streams)
        opt.step()
    answer = tok.encode(d.rounds[0].teacher_text)
    span = streams[0].tasks[0][1]
    prompt = list(streams[0].rendered.token_ids[: span[0]])
    assert generate_greedy(model, prompt, max_new=len(answer)) == answer


def test_split_slack_of_one_sample_absorbed():
    from helpers_corpus import uniform_samples

    samples = uniform_samples(100, post_cutoff=21)
    train, ev, te = make_split(samples, SplitSpec(seed=0))
    assert len(train) == 79
    assert abs(len(ev) - 10) <= 1
    assert len(te) == 10


def test_loss_curve_csv_round_trip(tmp_path):
    curve = LossCurve()
    curve.append(0, 1.5)
    curve.append(1, 0.75)
    p = tmp_path / "loss_curve.csv"
    curve.to_csv(p)
    header, *lines = p.read_text().splitlines()
    assert header == "step,loss"
    rows = [(int(step), float(loss)) for step, loss in (line.split(",") for line in lines)]
    assert rows == [(0, 1.5), (1, 0.75)]


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_sgd_step_refuses_a_non_finite_gradient_norm(bad):
    from msivd.autograd import Tensor
    from msivd.train import Sgd

    t = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    u = Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    t.grad = np.array([0.1, bad, 0.1], dtype=np.float32)
    u.grad = np.full(2, 0.1, dtype=np.float32)
    with pytest.raises(FloatingPointError, match="gradient norm is (nan|inf)"):
        Sgd({"t": t, "u": u}, lr=0.1).step()
    assert np.array_equal(t.data, np.ones(3)) and np.array_equal(u.data, np.ones(2))


def test_diverging_fused_run_stops_naming_stage_and_step(small_corpus):
    """At lr 1e30 the first step blows the weights up and the second loss is
    NaN; the run stops there instead of returning a NaN checkpoint."""
    config = tiny_config(stage="fused", learning_rate=1e30, batch_size=6, epochs=3)
    with pytest.raises(FloatingPointError, match=r"^fused step 1 diverged: batch loss is nan$"):
        train_fused(small_corpus, None, config)


def test_trainers_refuse_a_config_of_the_other_stage(small_corpus):
    """So the stage that a checkpoint's train section records is the stage
    that wrote it."""
    with pytest.raises(ValueError, match="train_sift needs a sift-stage config, got 'fused'"):
        train_sift(build_dialogues(small_corpus), tiny_config(stage="fused"))
    with pytest.raises(ValueError, match="train_fused needs a fused-stage config, got 'sift'"):
        train_fused(small_corpus, None, tiny_config())


def test_non_finite_sift_loss_stops_the_run(small_corpus, monkeypatch):
    import msivd.train as train

    monkeypatch.setattr(train, "sift_batch_loss", lambda model, streams: math.inf)
    with pytest.raises(FloatingPointError, match=r"^sift step 0 diverged: batch loss is inf$"):
        train_sift(build_dialogues(small_corpus), tiny_config())


def test_gradient_clipping_is_logged(caplog):
    import numpy as np

    from msivd.autograd import Tensor
    from msivd.train import Sgd

    t = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
    t.grad = np.full(4, 10.0, dtype=np.float32)
    opt = Sgd({"t": t}, lr=0.1)
    with caplog.at_level("INFO", logger="msivd.train"):
        clipped = opt.step()
    assert clipped
    assert any("clipping" in m for m in caplog.messages)
    # untouched when under the norm
    t.grad = np.full(4, 0.01, dtype=np.float32)
    assert not opt.step()
