"""Command-line pipeline: ingest, prepare, train, evaluate, predict.

Each command only reads its inputs, calls the library and writes its
artifacts; ``ingest``, for one, hands the parsed records to
``corpus.ingest_records`` and prints the summary of what it returns.

Settings merge three layers: the defaults of the library classes and
functions that own them, an optional JSON config file, then explicit flags
(flags win). Every value is checked where its owner is built, before any
command runs. Every command writes a ``*.provenance.json`` sidecar next to
its primary artifact recording the merged configuration and seed that
produced it.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import inspect
import json
import logging
import os
import sys
from dataclasses import asdict, dataclass
from datetime import date
from pathlib import Path

from ._jsontypes import json_fields
from .corpus import (
    MIX_PRESETS,
    CodeSample,
    CweCategory,
    SplitSpec,
    ingest_records,
    make_split,
    mix_to_ratio,
    parse_nvd_dump,
    read_samples_jsonl,
    write_samples_jsonl,
    write_splits_json,
)
from .dialogue import build_dialogues, parse_jsonl, serialize_jsonl
from .evaluation import ABLATION_MODES, AblationDataset, run_ablation
from .fusion import predict as fusion_predict
from .gnn import GgnnConfig
from .lm import LoraConfig, TransformerConfig
from .train import (
    SIFT_MODES,
    Checkpoint,
    LossCurve,
    TrainConfig,
    build_bundle_from_checkpoint,
    load_checkpoint,
    save_checkpoint,
    train_fused,
    train_sift,
)

log = logging.getLogger("msivd.cli")


@dataclass
class RunConfig:
    """Merged settings for one CLI run; serialized into provenance sidecars.
    Each default is the one of the class or function that owns the setting;
    a rate, batch size or epoch count left unset takes ``TrainConfig``'s."""

    command: str
    seed: int = TrainConfig.seed
    learning_rate: float | None = None
    batch_size: int | None = None
    epochs: int | None = None
    sift_mode: str = TrainConfig.sift_mode
    use_gnn: bool = TrainConfig.use_gnn
    d_model: int = TransformerConfig.d_model
    n_layers: int = TransformerConfig.n_layers
    n_heads: int = TransformerConfig.n_heads
    context_window: int = TransformerConfig.context_window
    gnn_state_dim: int = GgnnConfig.state_dim
    gnn_steps: int = GgnnConfig.steps
    lora_rank: int = LoraConfig.rank
    lora_alpha: float = LoraConfig.alpha
    window_tokens: int = inspect.signature(ingest_records).parameters["window_tokens"].default
    mix_preset: str | None = None
    cutoff: str = SplitSpec.cutoff_date.isoformat()
    ratios: tuple[float, float, float] = SplitSpec.ratios

    def train_config(self, stage: str) -> TrainConfig:
        given = {k: v for k in ("learning_rate", "batch_size", "epochs") if (v := getattr(self, k)) is not None}
        return TrainConfig(
            stage=stage,
            **given,
            seed=self.seed,
            sift_mode=self.sift_mode,
            use_gnn=self.use_gnn,
            lm_config=TransformerConfig(
                d_model=self.d_model, n_layers=self.n_layers, n_heads=self.n_heads,
                context_window=self.context_window,
            ),
            gnn_config=GgnnConfig(state_dim=self.gnn_state_dim, steps=self.gnn_steps),
            lora_config=LoraConfig(rank=self.lora_rank, alpha=self.lora_alpha),
        )

    def split_spec(self) -> SplitSpec:
        return SplitSpec(ratios=self.ratios, cutoff_date=self.cutoff, seed=self.seed)


class UsageError(Exception):
    """Bad invocation (exit code 2)."""


def _merge_run_config(command: str, args: argparse.Namespace) -> RunConfig:
    field_names = RunConfig.__dataclass_fields__
    settings: dict = {"command": command}
    config_path = getattr(args, "config", None)
    if config_path:
        file_cfg = _read_json_object(config_path, "config file")
        settable = set(field_names) - {"command"}
        unknown = sorted(set(file_cfg) - settable)
        if unknown:
            raise UsageError(f"config file {config_path} has unknown keys {unknown}; valid: {sorted(settable)}")
        # "command" is no file key, but RunConfig has no default for it
        json_fields({"command": command, **file_cfg}, RunConfig, f"config file {config_path}", UsageError)
        settings.update(file_cfg)
    for key, value in vars(args).items():
        if key in field_names and value is not None:
            settings[key] = value
    if "ratios" in settings and not isinstance(settings["ratios"], tuple):
        settings["ratios"] = tuple(settings["ratios"])
    run = RunConfig(**settings)
    # each owner checks its own values: build every config class, and call
    # the ingest functions on no data
    try:
        run.train_config("sift")
        run.split_spec()
        ingest_records([], window_tokens=run.window_tokens)
        if run.mix_preset is not None:
            mix_to_ratio([], [], preset=run.mix_preset)
    except ValueError as exc:  # CorpusError included
        raise UsageError(f"invalid settings: {exc}") from exc
    return run


def _write_provenance(artifact: Path, run: RunConfig) -> None:
    sidecar = artifact.parent / (artifact.name + ".provenance.json")
    with open(sidecar, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"command": run.command, "seed": run.seed, "config": asdict(run)}, fh, indent=2)
        fh.write("\n")


def _require_file(path_str: str, what: str) -> Path:
    path = Path(path_str)
    if not path.is_file():
        raise UsageError(f"{what} not found: {path}")
    return path


def _read_json_object(path_str: str, what: str) -> dict:
    """The JSON object a file holds; a file that is missing, is not JSON or
    holds another JSON value raises UsageError naming it."""
    path = _require_file(path_str, what)
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    # ValueError covers JSON, UTF-8 and an integer too long to convert; RecursionError, JSON nested too deeply
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"{what} {path} is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise UsageError(f"{what} {path} must hold a JSON object, not {type(obj).__name__}")
    return obj


def _parse_ratios(text: str) -> tuple[float, float, float]:
    try:
        parts = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"ratios must be three comma-separated reals, got {text!r}")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"ratios must have three components, got {len(parts)}")
    return parts


# --- commands ----------------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace, run: RunConfig) -> int:
    dump_path = _require_file(args.nvd_dump, "NVD dump")
    records = parse_nvd_dump(dump_path.read_bytes())
    result = ingest_records(records, window_tokens=run.window_tokens, seed=run.seed, cpp_only=args.cpp_only)
    if run.mix_preset:
        kept = mix_to_ratio(result.positives, result.negatives, preset=run.mix_preset, seed=run.seed)
    else:
        kept = sorted(result.positives + result.negatives, key=lambda s: s.sample_id)

    out = Path(args.out)
    write_samples_jsonl(kept, out)
    _write_provenance(out, run)
    summary = {
        "records_parsed": len(records),
        "records_with_patch_links": result.records_with_patch_links,
        "samples_kept": len(kept),
        "positives_kept": sum(s.label for s in kept),
        "negatives_kept": sum(not s.label for s in kept),
        "dropped": result.dropped,
        "skipped_non_cpp": result.skipped_non_cpp,
    }
    print(json.dumps(summary, indent=2))
    return 0


def cmd_prepare(args: argparse.Namespace, run: RunConfig) -> int:
    samples_path = _require_file(args.samples, "samples file")
    samples = read_samples_jsonl(samples_path)
    train, eval_set, test_set = make_split(samples, run.split_spec())

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    splits_path = out_dir / "splits.json"
    write_splits_json(train, eval_set, test_set, splits_path)

    dialogues = build_dialogues(samples)
    dialogues_path = out_dir / "dialogues.jsonl"
    serialize_jsonl(dialogues, dialogues_path)
    for artifact in (splits_path, dialogues_path):
        _write_provenance(artifact, run)
    print(json.dumps({"train": len(train), "eval": len(eval_set), "test": len(test_set)}))
    return 0


def _read_splits(path_str: str) -> dict[str, str]:
    """The sample id -> split map of a splits file; a value other than
    "train", "eval" or "test" raises UsageError naming its sample."""
    splits = _read_json_object(path_str, "splits file")
    for sample_id, where in splits.items():
        if where not in ("train", "eval", "test"):
            raise UsageError(
                f"splits file {path_str} sample {sample_id!r} must be \"train\", \"eval\" or \"test\", "
                f"got {json.dumps(where)[:80]}"
            )
    return splits


def _load_dataset(samples_path: str, splits_path: str, name: str) -> AblationDataset:
    samples = read_samples_jsonl(_require_file(samples_path, "samples file"))
    splits = _read_splits(splits_path)
    parts: dict[str, list[CodeSample]] = {"train": [], "eval": [], "test": []}
    for s in samples:
        if s.sample_id in splits:
            parts[splits[s.sample_id]].append(s)
    return AblationDataset(name=name, train=parts["train"], eval=parts["eval"], test=parts["test"])


def _save_training(out: Path, ckpt: Checkpoint, curve: LossCurve, run: RunConfig) -> None:
    """Write a trained checkpoint, its loss curve and its provenance side by
    side, and print the run's step count and final loss."""
    save_checkpoint(ckpt, out)
    curve.to_csv(out.parent / (out.name + ".loss_curve.csv"))
    _write_provenance(out, run)
    print(json.dumps({"steps": len(curve.rows), "final_loss": curve.rows[-1][1]}))


def cmd_train_sift(args: argparse.Namespace, run: RunConfig) -> int:
    dialogues = parse_jsonl(_require_file(args.dialogues, "dialogues file"))
    splits = _read_splits(args.splits)
    dialogues = [d for d in dialogues if splits.get(d.sample_id) == "train"]
    ckpt, curve = train_sift(dialogues, run.train_config("sift"))
    _save_training(Path(args.out), ckpt, curve, run)
    return 0


def cmd_train_fused(args: argparse.Namespace, run: RunConfig) -> int:
    dataset = _load_dataset(args.samples, args.splits, name="cli")
    sift_ckpt = load_checkpoint(_require_file(args.sift_ckpt, "SIFT checkpoint")) if args.sift_ckpt else None
    ckpt, curve = train_fused(dataset.train, sift_ckpt, run.train_config("fused"))
    _save_training(Path(args.out), ckpt, curve, run)
    return 0


def cmd_eval(args: argparse.Namespace, run: RunConfig) -> int:
    dataset = _load_dataset(args.samples, args.splits, name=args.dataset_name)
    sift_config = run.train_config("sift")
    fused_config = run.train_config("fused")
    out = Path(args.out)
    reports = run_ablation(dataset, [args.mode], sift_config, fused_config, report_path=out)
    _write_provenance(out, run)
    print(json.dumps([asdict(r) for r in reports]))
    return 0


def cmd_predict(args: argparse.Namespace, run: RunConfig) -> int:
    code_path = _require_file(args.code, "code file")
    code = code_path.read_text(encoding="utf-8")
    ckpt = load_checkpoint(_require_file(args.ckpt, "checkpoint"))
    bundle = build_bundle_from_checkpoint(ckpt)
    sample = CodeSample(
        sample_id=code_path.name,
        code=code,
        label=False,
        cwe_id="CWE-unknown",
        cwe_category=CweCategory.OTHER,
        description="",
        origin_date=date(2023, 1, 1),
    )
    if args.dump_cfg:
        _dump_cfg(code, Path(args.dump_cfg))
    pred = fusion_predict(sample, bundle)
    print(
        json.dumps(
            {
                "sample_id": sample.sample_id,
                "label": pred.label,
                "score": pred.score,
                "flagged": pred.flagged,
            }
        )
    )
    return 0


def _dump_cfg(code: str, prefix: Path) -> None:
    from .dfa import reach_to_json, reaching_definitions
    from .minic import MiniCError, parse_mini_c, to_dot

    try:
        cfg = parse_mini_c(code)
    except MiniCError as exc:
        log.warning("cannot dump CFG: %s", exc)
        return
    reach = reaching_definitions(cfg)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    dot_path = prefix.with_suffix(".dot")
    json_path = prefix.with_suffix(".json")
    dot_path.write_text(to_dot(cfg), encoding="utf-8")
    json_path.write_text(reach_to_json(cfg, reach), encoding="utf-8")


# --- argument wiring --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msivd",
        description="Multitask self-instructed vulnerability detection pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, default=None)

    p_ingest = sub.add_parser("ingest", help="parse a vulnerability dump into samples.jsonl")
    add_common(p_ingest)
    p_ingest.add_argument("--nvd-dump", required=True)
    p_ingest.add_argument("--out", default="samples.jsonl")
    p_ingest.add_argument("--cpp-only", action="store_true")
    p_ingest.add_argument("--mix-preset", dest="mix_preset", choices=sorted(MIX_PRESETS))
    p_ingest.set_defaults(func=cmd_ingest)

    p_prepare = sub.add_parser("prepare", help="split samples and build dialogues")
    add_common(p_prepare)
    p_prepare.add_argument("--samples", required=True)
    p_prepare.add_argument("--cutoff", default=None)
    p_prepare.add_argument("--ratios", type=_parse_ratios, default=None)
    p_prepare.add_argument("--out-dir", default=".")
    p_prepare.set_defaults(func=cmd_prepare)

    p_sift = sub.add_parser("train-sift", help="multitask dialogue fine-tuning (stage 1)")
    add_common(p_sift)
    p_sift.add_argument("--dialogues", required=True)
    p_sift.add_argument("--splits", required=True)
    p_sift.add_argument("--out", default="sift.ckpt")
    p_sift.add_argument("--sift-mode", dest="sift_mode", choices=SIFT_MODES, default=None)
    p_sift.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p_sift.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p_sift.add_argument("--epochs", type=int, default=None)
    p_sift.set_defaults(func=cmd_train_sift)

    p_fused = sub.add_parser("train-fused", help="fused LLM+GNN classifier training (stage 2)")
    add_common(p_fused)
    p_fused.add_argument("--samples", required=True)
    p_fused.add_argument("--splits", required=True)
    p_fused.add_argument("--sift-ckpt")
    p_fused.add_argument("--out", default="fused.ckpt")
    p_fused.add_argument("--no-gnn", dest="use_gnn", action="store_false", default=None)
    p_fused.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p_fused.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p_fused.add_argument("--epochs", type=int, default=None)
    p_fused.set_defaults(func=cmd_train_fused)

    p_eval = sub.add_parser("eval", help="run one ablation mode end-to-end")
    add_common(p_eval)
    p_eval.add_argument("--mode", required=True, choices=ABLATION_MODES)
    p_eval.add_argument("--samples", required=True)
    p_eval.add_argument("--splits", required=True)
    p_eval.add_argument("--out", default="report.json")
    p_eval.add_argument("--dataset-name", default="dataset")
    p_eval.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p_eval.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p_eval.add_argument("--epochs", type=int, default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_predict = sub.add_parser("predict", help="classify one code file")
    add_common(p_predict)
    p_predict.add_argument("--code", required=True)
    p_predict.add_argument("--ckpt", required=True)
    p_predict.add_argument("--dump-cfg", dest="dump_cfg", help="prefix for CFG .dot/.json debug dumps")
    p_predict.set_defaults(func=cmd_predict)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=os.environ.get("MSIVD_LOG", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        run = _merge_run_config(args.command, args)
        return args.func(args, run)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure contract: nonzero exit with message
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
