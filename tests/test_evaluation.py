import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msivd.evaluation import (
    ConfusionCounts,
    MetricsReport,
    confusion,
    metrics,
    random_baseline,
    run_ablation,
    write_report_json,
)
from msivd.gnn import GgnnConfig
from msivd.lm import LoraConfig, TransformerConfig
from msivd.train import TrainConfig


def test_confusion_example():
    c = confusion([1, 1, 0], [1, 0, 0])
    assert (c.tp, c.fn, c.tn, c.fp) == (1, 1, 1, 0)


def test_confusion_all_correct():
    c = confusion([1, 0, 1], [1, 0, 1])
    assert c.fp == 0 and c.fn == 0


def test_confusion_all_predicted_positive():
    c = confusion([1, 0, 0], [1, 1, 1])
    assert c.tn == 0


def test_confusion_length_mismatch():
    with pytest.raises(ValueError, match="equal"):
        confusion([1, 0], [1])


def test_metrics_example():
    m = metrics(ConfusionCounts(tp=3, fp=1, tn=0, fn=1))
    assert m.precision == pytest.approx(0.75)
    assert m.recall == pytest.approx(0.75)
    assert m.f1 == pytest.approx(0.75)


def test_metrics_zero_tp_flagged():
    m = metrics(ConfusionCounts(tp=0, fp=0, tn=5, fn=0))
    assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)


def test_coin_flip_counts_reproduce_random_row():
    # expected counts for prevalence 0.06 and predict rate 0.5 over 10000 samples
    n = 10_000
    pos = int(0.06 * n)
    counts = ConfusionCounts(tp=pos // 2, fn=pos // 2, fp=(n - pos) // 2, tn=(n - pos) // 2)
    m = metrics(counts)
    assert m.precision == pytest.approx(0.06, abs=1e-9)
    assert m.recall == pytest.approx(0.50, abs=1e-9)
    assert m.f1 == pytest.approx(0.11, abs=0.005)


def test_random_baseline_table_rows():
    low = random_baseline(0.06)
    assert low.precision == pytest.approx(0.06, abs=1e-3)
    assert low.recall == 0.5
    assert low.f1 == pytest.approx(0.11, abs=0.005)
    mid = random_baseline(0.20)
    assert mid.f1 == pytest.approx(0.29, abs=0.005)
    full = random_baseline(1.0)
    assert (full.precision, full.recall) == (1.0, 0.5)
    assert full.f1 == pytest.approx(2 / 3, abs=1e-12)


def test_random_baseline_matches_simulation():
    rng = random.Random(0)
    n = 100_000
    prevalence = 0.2
    labels = [rng.random() < prevalence for _ in range(n)]
    preds = [rng.random() < 0.5 for _ in range(n)]
    emp = metrics(confusion(labels, preds))
    ana = random_baseline(prevalence)
    assert emp.precision == pytest.approx(ana.precision, abs=0.01)
    assert emp.recall == pytest.approx(ana.recall, abs=0.01)
    assert emp.f1 == pytest.approx(ana.f1, abs=0.01)


@settings(max_examples=80)
@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=500),
)
def test_metric_identities(tp, fp, tn, fn):
    m = metrics(ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn))
    assert 0.0 <= m.precision <= 1.0
    assert 0.0 <= m.recall <= 1.0
    assert 0.0 <= m.f1 <= 1.0
    assert m.f1 <= max(m.precision, m.recall) + 1e-12
    if m.precision > 0 and m.recall > 0:
        harmonic = 2 * m.precision * m.recall / (m.precision + m.recall)
        assert m.f1 == pytest.approx(harmonic, abs=1e-12)


def test_report_recomputable_from_counts():
    counts = ConfusionCounts(tp=7, fp=3, tn=15, fn=5)
    report = MetricsReport.from_counts(counts, mode="multi-round-sift", dataset="synthetic")
    again = metrics(ConfusionCounts(tp=report.TP, fp=report.FP, tn=report.TN, fn=report.FN))
    assert (report.precision, report.recall, report.f1) == (
        again.precision, again.recall, again.f1,
    )
    assert report.TP + report.FP + report.TN + report.FN == 7 + 3 + 15 + 5


def test_report_json_field_names(tmp_path):
    import json

    report = MetricsReport.from_counts(
        ConfusionCounts(tp=1, fp=2, tn=3, fn=4), mode="pre-trained", dataset="synthetic"
    )
    p = tmp_path / "report.json"
    write_report_json([report], p)
    (obj,) = json.loads(p.read_text())
    assert set(obj) == {"TP", "FP", "TN", "FN", "precision", "recall", "f1", "mode", "dataset"}


def test_run_ablation_empty_modes():
    cfg = TrainConfig(
        lm_config=TransformerConfig(d_model=16, n_layers=1, n_heads=2, context_window=256),
        gnn_config=GgnnConfig(state_dim=16, steps=1),
        lora_config=LoraConfig(rank=2),
    )
    from msivd.evaluation import AblationDataset

    ds = AblationDataset(name="empty", train=[], eval=[], test=[])
    assert run_ablation(ds, [], cfg, cfg) == []


def test_run_ablation_rejects_unknown_mode():
    cfg = TrainConfig()
    from msivd.evaluation import AblationDataset

    ds = AblationDataset(name="x", train=[], eval=[], test=[])
    with pytest.raises(ValueError, match="unknown ablation mode"):
        run_ablation(ds, ["bogus"], cfg, cfg)


def test_per_category_reports_mirror_type_rows(tmp_path):
    """Single-type runs: filter the corpus per CWE category, one report per
    category with the dataset label carrying the type."""
    from msivd.corpus import CweCategory, make_split, SplitSpec
    from msivd.evaluation import AblationDataset
    from msivd.synth import make_synthetic_corpus

    corpus = make_synthetic_corpus(n=30, seed=7)
    tiny_lm = TransformerConfig(d_model=16, n_layers=1, n_heads=2, context_window=384)
    cfg = TrainConfig(
        stage="sift", lm_config=tiny_lm, gnn_config=GgnnConfig(state_dim=16, steps=1),
        lora_config=LoraConfig(rank=2), epochs=1, batch_size=8, learning_rate=0.01,
    )
    reports = []
    for category in (CweCategory.BUFFER_ERROR, CweCategory.RESOURCE_ERROR):
        subset = [s for s in corpus if s.cwe_category == category]
        if not subset:
            reports.append(None)
            continue
        train, ev, te = make_split(subset, SplitSpec(seed=0))
        ds = AblationDataset(name=f"synthetic:{category.value}", train=train, eval=ev, test=te)
        reports.extend(run_ablation(ds, ["pre-trained"], cfg, cfg))
    named = [r for r in reports if r is not None]
    assert any(r.dataset == "synthetic:BufferError" for r in named)
    for r in named:
        assert r.mode == "pre-trained"
        assert r.TP + r.FP + r.TN + r.FN > 0


def test_modes_sharing_a_sift_run_report_as_if_run_alone(monkeypatch):
    """The two multi-round modes train SIFT once. The plain mode runs second,
    on the checkpoint that the GGNN mode's SIFT run left, and reports
    exactly what a run of that mode alone reports."""
    from msivd import evaluation
    from msivd.corpus import make_split, SplitSpec
    from msivd.evaluation import AblationDataset
    from msivd.synth import make_synthetic_corpus

    train, ev, te = make_split(make_synthetic_corpus(n=30, seed=4), SplitSpec(seed=4))
    ds = AblationDataset(name="synthetic", train=train, eval=ev, test=te)
    tiny_lm = TransformerConfig(d_model=16, n_layers=1, n_heads=2, context_window=384)
    cfg = TrainConfig(
        stage="sift", lm_config=tiny_lm, gnn_config=GgnnConfig(state_dim=16, steps=1),
        lora_config=LoraConfig(rank=2), epochs=1, batch_size=8, learning_rate=0.01,
    )
    sift_modes = []
    train_sift = evaluation.train_sift

    def counted(dialogues, config):
        sift_modes.append(config.sift_mode)
        return train_sift(dialogues, config)

    monkeypatch.setattr(evaluation, "train_sift", counted)
    gnn_report, shared_report = run_ablation(ds, ["multi-round-sift-gnn", "multi-round-sift"], cfg, cfg)
    assert sift_modes == ["multi-round"]
    (alone_report,) = run_ablation(ds, ["multi-round-sift"], cfg, cfg)
    assert shared_report == alone_report
    assert gnn_report.mode == "multi-round-sift-gnn"
