import dataclasses
import hashlib
import json
import math
import struct

import numpy as np
import pytest

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


# --- checkpoint container -----------------------------------------------------------


def test_checkpoint_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    ckpt = Checkpoint(
        version=CKPT_VERSION,
        config={"stage": "sift", "train": {"seed": 1}},
        tensors={
            "lm.a": rng.standard_normal((3, 4)).astype(np.float32),
            "lm.b": rng.standard_normal(7).astype(np.float32),
        },
        metrics_history=[{"stage": "sift"}],
    )
    p = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, p)
    again = load_checkpoint(p)
    assert again.version == ckpt.version
    assert again.config == ckpt.config
    assert again.metrics_history == ckpt.metrics_history
    for name in ckpt.tensors:
        assert np.array_equal(again.tensors[name], ckpt.tensors[name])
        assert again.tensors[name].tobytes() == ckpt.tensors[name].tobytes()


def test_corrupted_magic_errors(tmp_path):
    p = tmp_path / "bad.ckpt"
    save_checkpoint(Checkpoint(1, {}, {"x": np.zeros(2, dtype=np.float32)}), p)
    raw = bytearray(p.read_bytes())
    raw[:8] = b"NOTMAGIC"
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(p)


def test_version_mismatch_errors(tmp_path):
    p = tmp_path / "v9.ckpt"
    save_checkpoint(Checkpoint(9, {}, {"x": np.zeros(2, dtype=np.float32)}), p)
    with pytest.raises(CheckpointError, match="version mismatch"):
        load_checkpoint(p)


def _sift_checkpoint():
    """An untrained SIFT checkpoint of the tiny LM."""
    from msivd.lm import LmModel

    config = tiny_config()
    model = LmModel(config.lm_config, seed=config.seed, lora=config.lora_config)
    tensors = {f"lm.{k}": t.data.copy() for k, t in model.parameters().items()}
    return Checkpoint(CKPT_VERSION, {"stage": "sift", "train": config.snapshot()}, tensors)


def _first_entry(header: dict) -> dict:
    return header["tensors"][min(header["tensors"])]


def _rewrite(edit):
    """A corruption that edits the JSON header; the payload stays as saved."""

    def corrupt(raw: bytes) -> bytes:
        (header_len,) = struct.unpack_from("<I", raw, 12)
        header = json.loads(raw[16 : 16 + header_len])
        edit(header)
        blob = json.dumps(header).encode("utf-8")
        return raw[:12] + struct.pack("<I", len(blob)) + blob + raw[16 + header_len :]

    return corrupt


def _header_bytes(fill: bytes):
    def corrupt(raw: bytes) -> bytes:
        (header_len,) = struct.unpack_from("<I", raw, 12)
        return raw[:16] + fill * header_len + raw[16 + header_len :]

    return corrupt


EXTRA = {"lm.extra": {"shape": [2], "dtype": "<f4", "offset": 0, "nbytes": 8}}
CORRUPTIONS = {
    "cut-in-version": lambda raw: raw[:10],
    "cut-in-header-length": lambda raw: raw[:14],
    "cut-in-header": lambda raw: raw[: 16 + struct.unpack_from("<I", raw, 12)[0] // 2],
    "non-utf8-header": _header_bytes(b"\xff"),
    "header-not-json": _header_bytes(b"{"),
    "cut-in-payload": lambda raw: raw[:-3],
    "negative-offset": _rewrite(lambda h: _first_entry(h).update(offset=-4)),
    "offset-past-payload": _rewrite(lambda h: _first_entry(h).update(offset=10**9)),
    "nbytes-not-shape": _rewrite(lambda h: _first_entry(h).update(nbytes=4)),
    "object-dtype": _rewrite(lambda h: _first_entry(h).update(dtype="|O")),
    "no-tensor-directory": _rewrite(lambda h: h.pop("tensors")),
    "extra-tensor": _rewrite(lambda h: h["tensors"].update(EXTRA)),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupt_checkpoint_raises_checkpoint_error(tmp_path, corruption):
    p = tmp_path / "m.ckpt"
    save_checkpoint(_sift_checkpoint(), p)
    build_lm_from_checkpoint(load_checkpoint(p))  # the intact file loads
    p.write_bytes(CORRUPTIONS[corruption](p.read_bytes()))
    with pytest.raises(CheckpointError):
        build_lm_from_checkpoint(load_checkpoint(p))


TRAIN = tiny_config().snapshot()
BAD_CONFIGS = {
    "empty": (build_lm_from_checkpoint, {}, "'train'"),
    "fused-without-train": (build_bundle_from_checkpoint, {"stage": "fused"}, "'train'"),
    "train-not-object": (build_lm_from_checkpoint, {"stage": "sift", "train": [1]}, "'train'"),
    "ill-typed-dimension": (build_lm_from_checkpoint, {"stage": "sift", "train": {**TRAIN, "lm_config": {"d_model": "x"}}},
                            r"train\.lm_config"),
    "unknown-lm-setting": (build_lm_from_checkpoint, {"stage": "sift", "train": {**TRAIN, "lm_config": {"bogus": 1}}},
                           r"train\.lm_config"),
    "unknown-gnn-setting": (build_bundle_from_checkpoint,
                            {"stage": "fused", "train": {**TRAIN, "gnn_config": {"bogus": 1}}},
                            r"train\.gnn_config"),
    "seed-not-integer": (build_lm_from_checkpoint, {"stage": "sift", "train": {**TRAIN, "seed": "x"}}, r"train\.seed"),
    "float-d-model": (build_lm_from_checkpoint,
                      {"stage": "sift", "train": {**TRAIN, "lm_config": {**TRAIN["lm_config"], "d_model": 32.0}}},
                      r"train\.lm_config key 'd_model' must be int, got 32\.0"),
    "float-lora-rank": (build_lm_from_checkpoint,
                        {"stage": "sift", "train": {**TRAIN, "lora_config": {**TRAIN["lora_config"], "rank": 2.0}}},
                        r"train\.lora_config key 'rank' must be int, got 2\.0"),
    "bool-lora-rank": (build_lm_from_checkpoint,
                       {"stage": "sift", "train": {**TRAIN, "lora_config": {**TRAIN["lora_config"], "rank": True}}},
                       r"train\.lora_config key 'rank' must be int, got true"),
    "float-mlp-hidden": (build_bundle_from_checkpoint,
                         {"stage": "fused", "train": {**TRAIN, "gnn_config": {**TRAIN["gnn_config"], "mlp_hidden": [16.0]}}},
                         r"train\.gnn_config key 'mlp_hidden' must be tuple\[int, \.\.\.\], got \[16\.0\]"),
    "zero-heads": (build_lm_from_checkpoint,
                   {"stage": "sift", "train": {**TRAIN, "lm_config": {**TRAIN["lm_config"], "n_heads": 0}}},
                   r"train\.lm_config .*n_layers, n_heads and context_window must be >= 1"),
    "zero-layers": (build_lm_from_checkpoint,
                    {"stage": "sift", "train": {**TRAIN, "lm_config": {**TRAIN["lm_config"], "n_layers": 0}}},
                    r"train\.lm_config .*n_layers, n_heads and context_window must be >= 1"),
    "negative-lora-init-std": (build_lm_from_checkpoint,
                               {"stage": "sift", "train": {**TRAIN, "lora_config": {**TRAIN["lora_config"], "init_std": -1}}},
                               r"train\.lora_config .*finite init_std >= 0"),
    "nan-lora-alpha": (build_lm_from_checkpoint,
                       {"stage": "sift", "train": {**TRAIN, "lora_config": {**TRAIN["lora_config"], "alpha": float("nan")}}},
                       r"train\.lora_config .*needs a finite alpha"),
    "negative-gnn-steps": (build_bundle_from_checkpoint,
                           {"stage": "fused", "train": {**TRAIN, "gnn_config": {**TRAIN["gnn_config"], "steps": -1}}},
                           r"train\.gnn_config .*steps must be >= 0"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_header_config_raises_checkpoint_error(tmp_path, case):
    build, config, names = BAD_CONFIGS[case]
    p = tmp_path / "m.ckpt"
    save_checkpoint(dataclasses.replace(_sift_checkpoint(), config=config), p)
    with pytest.raises(CheckpointError, match=names):
        build(load_checkpoint(p))


def test_loading_into_different_d_model_errors(tmp_path, small_corpus):
    dialogues = build_dialogues(small_corpus[:6])
    ckpt, _ = train_sift(dialogues, tiny_config(epochs=1))
    other = tiny_config(
        stage="fused",
        lm_config=TransformerConfig(d_model=16, n_layers=1, n_heads=2, context_window=384),
    )
    with pytest.raises(CheckpointError, match="dimension mismatch"):
        train_fused(small_corpus[:6], ckpt, other)


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
    before = {k: hashlib.sha256(t.data.tobytes()).hexdigest() for k, t in fresh.base_parameters().items()}
    ckpt, _ = train_sift(dialogues, config)
    for k, digest in before.items():
        assert hashlib.sha256(ckpt.tensors[f"lm.{k}"].tobytes()).hexdigest() == digest
    # adapters did move
    moved = any(
        ckpt.tensors[f"lm.{k}"].any()
        for k in fresh.adapter_parameters()
        if k.endswith("lora_b")
    )
    assert moved


def test_label_only_mode_masks_one_round(small_corpus):
    dialogues = build_dialogues(small_corpus[:8])
    config = tiny_config(sift_mode="label-only", epochs=1)
    ckpt, _ = train_sift(dialogues, config)
    assert ckpt.metrics_history[0]["masked_rounds"] == 1
    assert ckpt.metrics_history[0]["n_tasks"] == 1


def test_multi_round_mode_masks_three_rounds(small_corpus):
    dialogues = build_dialogues(small_corpus[:8])
    config = tiny_config(sift_mode="multi-round", epochs=1)
    ckpt, _ = train_sift(dialogues, config)
    assert ckpt.metrics_history[0]["masked_rounds"] == 3
    assert ckpt.metrics_history[0]["n_tasks"] == 3


def test_stream_loss_matches_multitask_loss():
    """The per-stream training path equals the Eq. 2 loss with one task per
    round, each round rendered on its own and masked over its own teacher
    span, when nothing is truncated."""
    from msivd.dialogue import render
    from msivd.lm import ByteTokenizer, LmModel

    corpus = make_synthetic_corpus(n=8, seed=9)
    dialogues = build_dialogues(corpus)
    config = tiny_config(lm_config=TransformerConfig(d_model=32, n_layers=1, n_heads=2, context_window=1024))
    tok = ByteTokenizer()
    model = LmModel(config.lm_config, seed=1, lora=config.lora_config)
    streams = render_training_streams(dialogues, tok, config)
    stream_value = sift_batch_loss(model, streams)

    groups = [[], [], []]
    for d in dialogues:
        for r in range(1, len(d.rounds) + 1):
            rendered = render(d, tok, up_to_round=r, context_window=1024)
            mask = np.zeros_like(rendered.loss_mask)
            start, end = rendered.teacher_spans[r - 1]
            mask[start:end] = True
            groups[r - 1].append((rendered.token_ids, mask))
    assert all(groups)
    reference = eq2_reference(model, groups)
    assert stream_value == pytest.approx(reference, rel=1e-5)


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


def test_inference_read_out_records_no_tape(small_corpus):
    """The bundle's LM is frozen, adapters included, so its forward keeps no
    graph alive between requests."""
    ckpt, _ = train_fused(small_corpus[:4], None, tiny_config(stage="fused", use_gnn=False, epochs=1))
    lm = build_bundle_from_checkpoint(ckpt).lm
    assert lm.adapter_parameters()
    assert not lm.forward([1, 2, 3], last_only=True).hidden.requires_grad


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
    lora = LoraConfig(rank=32, alpha=64.0, init_std=0.2)
    model = LmModel(cfg, seed=0, lora=lora)
    tc = TrainConfig(stage="sift", lm_config=cfg, lora_config=lora, epochs=1, batch_size=1)
    streams = render_training_streams([d], tok, tc)
    opt = Sgd(model.adapter_parameters(), lr=0.5, momentum=0.9, clip_norm=None)
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


def test_gradient_clipping_is_logged(caplog):
    import numpy as np

    from msivd.autograd import Tensor
    from msivd.train import Sgd

    t = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
    t.grad = np.full(4, 10.0, dtype=np.float32)
    opt = Sgd({"t": t}, lr=0.1, clip_norm=1.0)
    with caplog.at_level("INFO", logger="msivd.train"):
        clipped = opt.step()
    assert clipped
    assert any("clipping" in m for m in caplog.messages)
    # untouched when under the norm
    t.grad = np.full(4, 0.01, dtype=np.float32)
    assert not opt.step()
