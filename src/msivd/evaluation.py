"""Confusion-matrix metrics, the analytic random baseline, and the ablation harness.

F1 is the standard harmonic mean of precision and recall, the form that
reproduces the paper's random-baseline rows.
"""
from __future__ import annotations

import json
import logging
from dataclasses import asdict, dataclass, replace

from .corpus import CodeSample
from .dialogue import build_dialogues
from .fusion import ReadOut, predict, predict_pretrained
from .lm import ByteTokenizer, LmModel
from .train import Checkpoint, TrainConfig, build_bundle_from_checkpoint, train_fused, train_sift

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

# each ablation row: (the SIFT mode of its LM, None for the untrained LM; whether it fuses the GGNN)
ABLATION_MODES = {
    "pre-trained": (None, False),
    "label-only-ft": ("label-only", False),
    "single-round-sift": ("single-round", False),
    "multi-round-sift": ("multi-round", False),
    "multi-round-sift-gnn": ("multi-round", True),
}


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int


@dataclass(frozen=True)
class MetricValues:
    precision: float
    recall: float
    f1: float


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
    """Precision, recall, F1 from counts; a zero denominator gives 0."""
    if min(counts.tp, counts.fp, counts.tn, counts.fn) < 0:
        raise ValueError("negative confusion counts")
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    denom = counts.tp + 0.5 * (counts.fp + counts.fn)
    f1 = counts.tp / denom if denom else 0.0
    return MetricValues(precision=precision, recall=recall, f1=f1)


def random_baseline(prevalence: float) -> MetricValues:
    """Expected metrics of a predictor that flags each sample on a fair coin
    flip: precision equals the prevalence, recall is 0.5."""
    if not 0.0 <= prevalence <= 1.0:
        raise ValueError("prevalence must lie in [0, 1]")
    precision, recall = prevalence, 0.5
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


def write_report_json(reports: list[MetricsReport], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump([asdict(r) for r in reports], fh, indent=2)
        fh.write("\n")


# --- ablation harness ---------------------------------------------------------------


@dataclass
class AblationDataset:
    name: str
    train: list[CodeSample]
    eval: list[CodeSample]
    test: list[CodeSample]


def _run_mode(
    mode: str,
    dataset: AblationDataset,
    sift_ckpt: Checkpoint | None,
    sift_config: TrainConfig,
    fused_config: TrainConfig,
) -> MetricsReport:
    if sift_ckpt is None:
        read_out = ReadOut(LmModel(sift_config.lm_config, seed=sift_config.seed, lora=sift_config.lora_config),
                           ByteTokenizer())
        preds = [predict_pretrained(read_out, s) for s in dataset.test]
    else:
        f_cfg = replace(fused_config, stage="fused", use_gnn=ABLATION_MODES[mode][1])
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
    mode. SIFT runs once for each distinct SIFT mode (``ABLATION_MODES``),
    on the train dialogues built once, when the first mode that needs it
    comes up; every later mode with that SIFT mode shares its checkpoint, so
    a mode reports the same as when run alone. A failing mode aborts the
    run; reports finished so far are still persisted when a report path is
    given."""
    unknown = [m for m in modes if m not in ABLATION_MODES]
    if unknown:
        raise ValueError(f"unknown ablation mode(s) {unknown}; valid: {list(ABLATION_MODES)}")
    reports: list[MetricsReport] = []
    sift_ckpts: dict[str, Checkpoint] = {}
    dialogues = None
    try:
        for mode in modes:
            log.info("ablation mode %s on %s", mode, dataset.name)
            sift_mode = ABLATION_MODES[mode][0]
            if sift_mode is not None and sift_mode not in sift_ckpts:
                dialogues = dialogues or build_dialogues(dataset.train)
                s_cfg = replace(sift_config, stage="sift", sift_mode=sift_mode)
                sift_ckpts[sift_mode], _ = train_sift(dialogues, s_cfg)
            reports.append(_run_mode(mode, dataset, sift_ckpts.get(sift_mode), sift_config, fused_config))
    finally:
        if report_path is not None:
            write_report_json(reports, report_path)
    return reports
