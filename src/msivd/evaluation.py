"""Confusion-matrix metrics, the analytic random baseline, and the ablation harness.

F1 is the standard harmonic mean of precision and recall, the form that
reproduces the paper's random-baseline rows.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace

from .corpus import CodeSample
from .dialogue import build_dialogues, render_prompt
from .fusion import Prediction, _pair_prediction, predict
from .lm import ByteTokenizer, LmModel
from .train import TrainConfig, build_bundle_from_checkpoint, train_fused, train_sift

log = logging.getLogger("msivd.evaluation")

__all__ = [
    "ConfusionCounts",
    "MetricValues",
    "MetricsReport",
    "confusion",
    "metrics",
    "random_baseline",
    "ABLATION_MODES",
    "AblationDataset",
    "run_ablation",
    "write_report_json",
]

ABLATION_MODES = (
    "pre-trained",
    "label-only-ft",
    "single-round-sift",
    "multi-round-sift",
    "multi-round-sift-gnn",
)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricValues:
    precision: float
    recall: float
    f1: float
    zero_division: bool = False


def confusion(labels, predictions) -> ConfusionCounts:
    """Standard binary confusion counts; lengths must match."""
    labels = [bool(x) for x in labels]
    predictions = [bool(x) for x in predictions]
    if len(labels) != len(predictions) or not labels:
        raise ValueError(
            f"confusion needs equal nonzero lengths, got {len(labels)} labels, "
            f"{len(predictions)} predictions"
        )
    tp = sum(1 for l, p in zip(labels, predictions) if l and p)
    fp = sum(1 for l, p in zip(labels, predictions) if not l and p)
    tn = sum(1 for l, p in zip(labels, predictions) if not l and not p)
    fn = sum(1 for l, p in zip(labels, predictions) if l and not p)
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def metrics(counts: ConfusionCounts) -> MetricValues:
    """Precision, recall, F1 from counts; zero denominators give 0 with a flag."""
    if min(counts.tp, counts.fp, counts.tn, counts.fn) < 0:
        raise ValueError("negative confusion counts")
    zero = False
    if counts.tp + counts.fp == 0:
        precision, zero = 0.0, True
    else:
        precision = counts.tp / (counts.tp + counts.fp)
    if counts.tp + counts.fn == 0:
        recall, zero = 0.0, True
    else:
        recall = counts.tp / (counts.tp + counts.fn)
    denom = counts.tp + 0.5 * (counts.fp + counts.fn)
    if denom == 0:
        f1, zero = 0.0, True
    else:
        f1 = counts.tp / denom
    return MetricValues(precision=precision, recall=recall, f1=f1, zero_division=zero)


def random_baseline(prevalence: float, predict_rate: float = 0.5) -> MetricValues:
    """Expected metrics of a predictor that flags each sample with the given
    rate: precision equals the prevalence, recall the predict rate."""
    if not (0.0 <= prevalence <= 1.0 and 0.0 <= predict_rate <= 1.0):
        raise ValueError("prevalence and predict_rate must lie in [0, 1]")
    precision = prevalence
    recall = predict_rate
    if precision + recall == 0:
        return MetricValues(0.0, 0.0, 0.0, zero_division=True)
    f1 = 2.0 * precision * recall / (precision + recall)
    return MetricValues(precision=precision, recall=recall, f1=f1)


@dataclass
class MetricsReport:
    TP: int
    FP: int
    TN: int
    FN: int
    precision: float
    recall: float
    f1: float
    mode: str
    dataset: str

    @classmethod
    def from_counts(cls, counts: ConfusionCounts, mode: str, dataset: str) -> "MetricsReport":
        m = metrics(counts)
        return cls(
            TP=counts.tp, FP=counts.fp, TN=counts.tn, FN=counts.fn,
            precision=m.precision, recall=m.recall, f1=m.f1,
            mode=mode, dataset=dataset,
        )

    def to_obj(self) -> dict:
        return {
            "TP": self.TP, "FP": self.FP, "TN": self.TN, "FN": self.FN,
            "precision": self.precision, "recall": self.recall, "f1": self.f1,
            "mode": self.mode, "dataset": self.dataset,
        }


def write_report_json(reports: list[MetricsReport], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump([r.to_obj() for r in reports], fh, indent=2)
        fh.write("\n")


# --- ablation harness ---------------------------------------------------------------


@dataclass
class AblationDataset:
    name: str
    train: list[CodeSample]
    eval: list[CodeSample]
    test: list[CodeSample]


def predict_pretrained(lm: LmModel, tokenizer: ByteTokenizer, sample: CodeSample) -> Prediction:
    """Label from the raw yes/no token logits at the answer position (no
    vulnerability-specific training at all)."""
    ids = render_prompt(sample.code, tokenizer, lm.config.context_window)
    row = lm.forward(ids, last_only=True).logits.data[-1]
    return _pair_prediction((row[ByteTokenizer.YES], row[ByteTokenizer.NO]))


def _run_mode(
    mode: str,
    dataset: AblationDataset,
    sift_config: TrainConfig,
    fused_config: TrainConfig,
) -> MetricsReport:
    tokenizer = ByteTokenizer()
    if mode == "pre-trained":
        lm = LmModel(sift_config.lm_config, seed=sift_config.seed, lora=sift_config.lora_config)
        preds = [predict_pretrained(lm, tokenizer, s) for s in dataset.test]
    else:
        sift_mode = {
            "label-only-ft": "label-only",
            "single-round-sift": "single-round",
            "multi-round-sift": "multi-round",
            "multi-round-sift-gnn": "multi-round",
        }[mode]
        s_cfg = replace(sift_config, stage="sift", sift_mode=sift_mode)
        sift_ckpt, _ = train_sift(build_dialogues(dataset.train), s_cfg)
        use_gnn = mode == "multi-round-sift-gnn"
        f_cfg = replace(fused_config, stage="fused", use_gnn=use_gnn)
        fused_ckpt, _ = train_fused(dataset.train, sift_ckpt, f_cfg)
        bundle = build_bundle_from_checkpoint(fused_ckpt)
        preds = [predict(s, bundle) for s in dataset.test]
    counts = confusion([s.label for s in dataset.test], [p.label for p in preds])
    return MetricsReport.from_counts(counts, mode=mode, dataset=dataset.name)


def run_ablation(
    dataset: AblationDataset,
    modes: list[str],
    sift_config: TrainConfig,
    fused_config: TrainConfig,
    report_path=None,
) -> list[MetricsReport]:
    """Run each requested ablation mode end-to-end and collect one report per
    mode. A failing mode aborts the run; reports finished so far are still
    persisted when a report path is given."""
    unknown = [m for m in modes if m not in ABLATION_MODES]
    if unknown:
        raise ValueError(f"unknown ablation mode(s) {unknown}; valid: {list(ABLATION_MODES)}")
    reports: list[MetricsReport] = []
    try:
        for mode in modes:
            log.info("ablation mode %s on %s", mode, dataset.name)
            reports.append(_run_mode(mode, dataset, sift_config, fused_config))
    finally:
        if report_path is not None:
            write_report_json(reports, report_path)
    return reports
