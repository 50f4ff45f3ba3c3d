#!/usr/bin/env python3
"""End-to-end desk experiment: synthetic corpus -> SIFT -> fused -> ablations.

Writes all artifacts (samples, splits, dialogues, checkpoints, loss curves,
report.json) under --out-dir and prints the per-mode metrics table.
"""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from msivd.corpus import SplitSpec, make_split, write_samples_jsonl, write_splits_json
from msivd.dialogue import build_dialogues, serialize_jsonl
from msivd.evaluation import ABLATION_MODES, AblationDataset, run_ablation
from msivd.synth import make_synthetic_corpus
from msivd.train import TrainConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="desk_run")
    parser.add_argument("--n-samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sift-epochs", type=int, default=10)
    parser.add_argument("--fused-epochs", type=int, default=30)
    parser.add_argument("--modes", nargs="*", default=list(ABLATION_MODES))
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()

    corpus = make_synthetic_corpus(n=args.n_samples, seed=args.seed)
    write_samples_jsonl(corpus, out / "samples.jsonl")
    train, eval_set, test_set = make_split(corpus, SplitSpec(seed=args.seed))
    write_splits_json(train, eval_set, test_set, out / "splits.json")
    serialize_jsonl(build_dialogues(corpus), out / "dialogues.jsonl")
    print(f"corpus: {len(train)} train / {len(eval_set)} eval / {len(test_set)} test")

    dataset = AblationDataset(name="synthetic-desk", train=train, eval=eval_set, test=test_set)
    sift_cfg = TrainConfig(
        stage="sift", learning_rate=5e-3, batch_size=len(train),
        epochs=args.sift_epochs, seed=args.seed,
    )
    fused_cfg = TrainConfig(
        stage="fused", learning_rate=0.2, batch_size=16,
        epochs=args.fused_epochs, seed=args.seed,
    )
    reports = run_ablation(dataset, args.modes, sift_cfg, fused_cfg, report_path=out / "report.json")

    print(f"\n{'mode':28s} {'F1':>6s} {'P':>6s} {'R':>6s}")
    for r in reports:
        print(f"{r.mode:28s} {r.f1:6.3f} {r.precision:6.3f} {r.recall:6.3f}")
    print(f"\nartifacts in {out}/ ({time.monotonic() - started:.0f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
