import argparse
import json
import sys
from datetime import date
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers_corpus import VULN_PRE, VULN_POST, fixture_dump, fixture_entry
from helpers_fuzz import FUZZ, cases, mutate
from msivd.cli import RunConfig, UsageError, _merge_run_config, main
from msivd.corpus import read_samples_jsonl
from msivd.synth import make_synthetic_corpus, safe_code, vulnerable_code
from msivd.corpus import write_samples_jsonl


TINY_TRAIN = {
    "d_model": 32,
    "n_layers": 1,
    "n_heads": 2,
    "context_window": 384,
    "gnn_state_dim": 16,
    "gnn_steps": 2,
    "lora_rank": 2,
    "learning_rate": 0.05,
    "batch_size": 8,
    "epochs": 1,
}


def make_dump(tmp_path, n=6):
    entries = []
    for i in range(n):
        entries.append(
            fixture_entry(
                cve_id=f"CVE-2022-{1000 + i}",
                fix_commit_date="2022-06-01" if i < n - 2 else "2023-03-01",
                patches=[
                    {
                        "path": f"src/mod_{i}.c",
                        "pre_code": VULN_PRE,
                        "post_code": VULN_POST,
                        "changed_ranges": [[4, 4]],
                    }
                ],
            )
        )
    p = tmp_path / "dump.json"
    p.write_bytes(fixture_dump(entries))
    return p


def test_ingest_writes_samples_and_summary(tmp_path, capsys):
    dump = make_dump(tmp_path)
    out = tmp_path / "samples.jsonl"
    code = main(["ingest", "--nvd-dump", str(dump), "--out", str(out)])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["records_parsed"] == 6
    assert summary["samples_kept"] == summary["positives_kept"] + summary["negatives_kept"]
    assert "dropped" in summary
    samples = read_samples_jsonl(out)
    assert len(samples) == summary["samples_kept"]
    assert (tmp_path / "samples.jsonl.provenance.json").is_file()


def test_ingest_cpp_only_drops_other_languages(tmp_path, capsys):
    entries = [
        fixture_entry(
            cve_id="CVE-2022-1",
            patches=[
                {"path": "a.c", "pre_code": VULN_PRE, "post_code": VULN_POST, "changed_ranges": [[4, 4]]},
                {"path": "b.py", "pre_code": VULN_PRE, "post_code": VULN_POST, "changed_ranges": [[4, 4]]},
            ],
        )
    ]
    dump = tmp_path / "dump.json"
    dump.write_bytes(fixture_dump(entries))
    out = tmp_path / "samples.jsonl"
    assert main(["ingest", "--nvd-dump", str(dump), "--out", str(out), "--cpp-only"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["skipped_non_cpp"] == 1
    assert all("b.py" not in s.sample_id for s in read_samples_jsonl(out))


def test_ingest_missing_file_exits_2(tmp_path, capsys):
    assert main(["ingest", "--nvd-dump", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_prepare_deterministic_and_splits(tmp_path, capsys):
    corpus = make_synthetic_corpus(n=40, seed=1)
    samples_path = tmp_path / "samples.jsonl"
    write_samples_jsonl(corpus, samples_path)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        code = main([
            "prepare", "--samples", str(samples_path), "--out-dir", str(out),
            "--seed", "9", "--ratios", "0.8,0.1,0.1",
        ])
        assert code == 0
    assert (out1 / "splits.json").read_bytes() == (out2 / "splits.json").read_bytes()
    assert (out1 / "dialogues.jsonl").read_bytes() == (out2 / "dialogues.jsonl").read_bytes()
    splits = json.loads((out1 / "splits.json").read_text())
    assert set(splits.values()) == {"train", "eval", "test"}
    assert (out1 / "splits.json.provenance.json").is_file()


def test_prepare_bad_ratios_usage_error(tmp_path, capsys):
    corpus = make_synthetic_corpus(n=20, seed=1)
    samples_path = tmp_path / "samples.jsonl"
    write_samples_jsonl(corpus, samples_path)
    code = main([
        "prepare", "--samples", str(samples_path), "--out-dir", str(tmp_path / "o"),
        "--ratios", "0.8,0.3,0.1",
    ])
    assert code == 2
    assert "sum to 1" in capsys.readouterr().err


@pytest.mark.parametrize("ratios", ["nan,0.5,0.5", "0.5,nan,0.5"])
def test_prepare_non_finite_ratios_usage_error(tmp_path, capsys, ratios):
    samples_path = tmp_path / "samples.jsonl"
    write_samples_jsonl(make_synthetic_corpus(n=20, seed=1), samples_path)
    code = main(["prepare", "--samples", str(samples_path), "--out-dir", str(tmp_path / "o"), "--ratios", ratios])
    assert code == 2
    assert "non-finite split ratio" in capsys.readouterr().err


def test_ingest_non_utf8_dump_is_corpus_error(tmp_path, capsys):
    dump = tmp_path / "dump.json"
    dump.write_bytes(b'{"records": ["\xff"]}')
    assert main(["ingest", "--nvd-dump", str(dump), "--out", str(tmp_path / "s.jsonl")]) == 1
    assert "not UTF-8" in capsys.readouterr().err


def test_default_cutoff_is_2023_01_01(tmp_path):
    corpus = make_synthetic_corpus(n=40, seed=2)
    samples_path = tmp_path / "samples.jsonl"
    write_samples_jsonl(corpus, samples_path)
    out = tmp_path / "out"
    assert main(["prepare", "--samples", str(samples_path), "--out-dir", str(out)]) == 0
    splits = json.loads((out / "splits.json").read_text())
    by_id = {s.sample_id: s for s in corpus}
    for sid, part in splits.items():
        if part in ("eval", "test"):
            assert by_id[sid].origin_date >= date(2023, 1, 1)


@pytest.mark.parametrize(
    "content, message",
    [
        ({"epochs": 1, "task_grouping": "round", "command": "eval"}, "unknown keys ['command', 'task_grouping']"),
        ([1, 2], "must hold a JSON object, not list"),
        ("x", "must hold a JSON object, not str"),
        ({"ratios": 5}, "key 'ratios' must be tuple[float, float, float], got 5"),
        ({"ratios": [0.8, 0.2]}, "key 'ratios' must be tuple[float, float, float], got [0.8, 0.2]"),
        ({"epochs": "ten"}, "key 'epochs' must be int | None, got \"ten\""),
        ({"seed": True}, "key 'seed' must be int, got true"),
        ({"lora_alpha": False}, "key 'lora_alpha' must be float, got false"),
        ({"use_gnn": 1}, "key 'use_gnn' must be bool, got 1"),
        ({"batch_size": 0}, "invalid settings: learning rate, batch size and epochs must be positive"),
        ({"d_model": 65}, "invalid settings: d_model 65 not divisible by n_heads 4"),
        ({"learning_rate": float("nan")}, "invalid settings: learning rate, batch size and epochs must be positive"),
        ({"learning_rate": float("inf")}, "invalid settings: learning rate, batch size and epochs must be positive"),
        ({"n_heads": 0}, "invalid settings: d_model, n_layers and n_heads must be >= 1, and context_window >= 8"),
        ({"context_window": 0}, "invalid settings: d_model, n_layers and n_heads must be >= 1, and context_window >= 8"),
        ({"gnn_steps": -1}, "invalid settings: GGNN steps must be >= 0"),
        ({"lora_alpha": float("nan")}, "invalid settings: LoRA needs a finite alpha"),
        ({"seed": -1}, "invalid settings: seed must be >= 0, got -1"),
        ({"gnn_steps": 65}, "invalid settings: GGNN steps must be >= 0 and at most 64, got 65"),
        ({"profile": "paper"}, "unknown keys ['profile']"),
        ({"gnn_state_dim": 8}, "invalid settings: GGNN state_dim must be >= 16, got 8"),
        ({"context_window": 64}, "invalid settings: context_window must be >= 188, the length of the shortest "
                                 "read-out prompt, got 64"),
    ],
    ids=["unknown_keys", "array", "string", "ratios_int", "ratios_short", "epochs_str", "bool_seed",
         "bool_float", "int_bool", "batch_size_zero", "d_model_indivisible", "learning_rate_nan",
         "learning_rate_inf", "n_heads_zero", "context_window_zero", "gnn_steps_negative", "lora_alpha_nan",
         "seed_negative", "gnn_steps_past_bound", "profile_key", "gnn_narrower_than_its_features",
         "context_window_under_the_prompt"],
)
def test_bad_config_file_usage_error(tmp_path, capsys, content, message):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(content))
    out = tmp_path / "samples.jsonl"
    code = main(["ingest", "--nvd-dump", str(make_dump(tmp_path)), "--out", str(out), "--config", str(cfg_path)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_ill_typed_value_echo_is_cut(tmp_path, capsys):
    """A value nested 990 lists deep is echoed as its first 80 characters of
    JSON, both from a --config file (exit 2) and from a checkpoint header.
    The recursion limit is raised so that pytest's own frames leave the
    program the stack depth that it has when run from the command line."""
    from msivd.train import CheckpointError, build_lm_from_checkpoint, load_checkpoint, save_checkpoint
    from test_train import _sift_checkpoint

    cfg_path = tmp_path / "config.json"
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2000)
    try:
        nested = json.loads("[" * 990 + "]" * 990)
        cfg_path.write_text(json.dumps({"epochs": nested}))
        code = main(["ingest", "--nvd-dump", str(make_dump(tmp_path)), "--out", str(tmp_path / "s.jsonl"),
                     "--config", str(cfg_path)])
        ckpt = _sift_checkpoint()
        ckpt.config["train"]["lm_config"]["d_model"] = nested
        save_checkpoint(ckpt, tmp_path / "m.ckpt")
        with pytest.raises(CheckpointError) as info:
            build_lm_from_checkpoint(load_checkpoint(tmp_path / "m.ckpt"))
    finally:
        sys.setrecursionlimit(limit)
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: config file {cfg_path} key 'epochs' must be int | None, got {'[' * 80}"
    assert str(info.value) == f"checkpoint train.lm_config key 'd_model' must be int, got {'[' * 80}"


def test_config_file_with_every_key_accepted(tmp_path):
    """Numbers may be JSON integers where the field is a float, and optional
    fields may be null."""
    settings = {
        "seed": 3, "learning_rate": 1, "batch_size": None, "epochs": 2,
        "sift_mode": "single-round", "use_gnn": False, "d_model": 32, "n_layers": 1, "n_heads": 2,
        "context_window": 384, "gnn_state_dim": 16, "gnn_steps": 0, "lora_rank": 4, "lora_alpha": 8,
        "window_tokens": 2048, "mix_preset": None, "cutoff": "2023-01-01", "ratios": [1, 0, 0],
    }
    assert set(settings) == set(RunConfig.__dataclass_fields__) - {"command"}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(settings))
    out = tmp_path / "samples.jsonl"
    assert main(["ingest", "--nvd-dump", str(make_dump(tmp_path)), "--out", str(out), "--config", str(cfg_path)]) == 0
    prov = json.loads((tmp_path / "samples.jsonl.provenance.json").read_text())
    assert prov["config"] == {"command": "ingest", **settings}


FULL_CONFIG = {
    "seed": 3, "learning_rate": 0.5, "batch_size": 4, "epochs": 2,
    "sift_mode": "single-round", "use_gnn": False, "d_model": 32, "n_layers": 1, "n_heads": 2,
    "context_window": 384, "gnn_state_dim": 16, "gnn_steps": 0, "lora_rank": 4, "lora_alpha": 8.0,
    "window_tokens": 2048, "mix_preset": "bigvul", "cutoff": "2023-01-01", "ratios": [0.8, 0.1, 0.1],
}


@FUZZ
@given(st.sampled_from(cases(FULL_CONFIG)))
def test_fuzzed_config_file_is_usage_error_or_merges(tmp_path, case):
    """A --config file with one value broken is a UsageError, or merges
    into the run's settings."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(mutate(FULL_CONFIG, *case), encoding="utf-8")
    args = argparse.Namespace(config=str(cfg_path))
    try:
        run = _merge_run_config("ingest", args)
    except UsageError:
        return
    assert run.command == "ingest"


SCHEMA = json.loads((Path(__file__).resolve().parents[1] / "schemas" / "run_config.schema.json").read_text("utf-8"))


def _outside_schema_bounds(properties: dict) -> list[tuple[str, str, object]]:
    """(key, bound, value) for a value of each key just outside each of its
    bounds, and for a lower bound also -5: below a ``minimum`` or at an
    ``exclusiveMinimum``, above a ``maximum``, outside an ``enum``, not a
    date under ``format: date``. An array's item bounds give the run's
    default array with its first item replaced."""
    cases = []
    for key, spec in properties.items():
        item = spec.get("items")
        if item is not None:
            default = list(getattr(RunConfig, key))
            cases += [(key, f"items.{bound}", [value] + default[1:])
                      for _, bound, value in _outside_schema_bounds({key: item})]
            continue
        values = {
            "minimum": lambda m: [m - 1, -5],
            "exclusiveMinimum": lambda m: [m, -5],
            "maximum": lambda m: [m + 1],
            "enum": lambda names: ["not-" + "|".join(map(str, names))],
            "format": lambda fmt: ["banana"] if fmt == "date" else [],
        }
        for bound, derive in values.items():
            if bound in spec:
                cases += [(key, bound, v) for v in dict.fromkeys(derive(spec[bound]))]
    return cases


SCHEMA_BOUND_CASES = _outside_schema_bounds(SCHEMA["properties"])


def test_config_schema_lists_exactly_the_config_file_keys():
    from msivd.train import SIFT_MODES

    assert set(SCHEMA["properties"]) == set(RunConfig.__dataclass_fields__) - {"command"}
    assert SCHEMA["properties"]["sift_mode"]["enum"] == list(SIFT_MODES)
    bounds = {bound.removeprefix("items.") for _, bound, _ in SCHEMA_BOUND_CASES}
    assert bounds == {"minimum", "exclusiveMinimum", "maximum", "enum", "format"}


@pytest.mark.parametrize("key, bound, value", SCHEMA_BOUND_CASES,
                         ids=[f"{key}.{bound}={json.dumps(value)}" for key, bound, value in SCHEMA_BOUND_CASES])
def test_config_value_outside_a_schema_bound_is_usage_error(tmp_path, capsys, key, bound, value):
    """The program's bounds are the schema's: a --config value outside one is
    a usage error whichever command runs, before that command reads its input."""
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({key: value}))
    out = tmp_path / "samples.jsonl"
    code = main(["ingest", "--nvd-dump", str(make_dump(tmp_path)), "--out", str(out), "--config", str(cfg_path)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "error: invalid settings: " in err
    assert not out.exists()


def test_unknown_eval_mode_lists_valid(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--mode", "bogus", "--samples", "s", "--splits", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "multi-round-sift-gnn" in err


def test_train_sift_requires_splits(tmp_path, capsys):
    """``prepare`` writes a dialogue for every sample, eval and test
    included, so SIFT without the splits file would train on all of them."""
    with pytest.raises(SystemExit) as exc:
        main(["train-sift", "--dialogues", str(tmp_path / "dialogues.jsonl"), "--out", str(tmp_path / "m.ckpt")])
    assert exc.value.code == 2
    assert "--splits" in capsys.readouterr().err
    assert not (tmp_path / "m.ckpt").exists()


def test_bad_dialogues_file_error_is_one_bounded_line(tmp_path, capsys):
    """A dialogues file whose line holds a huge ill-typed value exits 1 with
    one error line that echoes 80 characters of it."""
    dialogues = tmp_path / "dialogues.jsonl"
    dialogues.write_text(json.dumps({"sample_id": "x", "system": "s", "rounds": [], "label": [[0] * 50] * 40}) + "\n")
    splits = tmp_path / "splits.json"
    splits.write_text(json.dumps({"train": ["x"], "eval": [], "test": []}))
    code = main(["train-sift", "--dialogues", str(dialogues), "--splits", str(splits), "--out", str(tmp_path / "m.ckpt")])
    assert code == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line == f"error: {dialogues}: line 1: dialogue key 'label' must be bool, got {'[[' + '0, ' * 26}"


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """Full CLI pipeline on a small corpus: ingest-equivalent samples,
    prepare, train-sift, train-fused."""
    root = tmp_path_factory.mktemp("pipeline")
    corpus = make_synthetic_corpus(n=40, seed=3)
    samples_path = root / "samples.jsonl"
    write_samples_jsonl(corpus, samples_path)
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(TINY_TRAIN))
    assert main(["prepare", "--samples", str(samples_path), "--out-dir", str(root)]) == 0
    assert main([
        "train-sift", "--dialogues", str(root / "dialogues.jsonl"),
        "--splits", str(root / "splits.json"),
        "--out", str(root / "sift.ckpt"), "--config", str(cfg_path),
    ]) == 0
    assert main([
        "train-fused", "--samples", str(samples_path),
        "--splits", str(root / "splits.json"),
        "--sift-ckpt", str(root / "sift.ckpt"),
        "--out", str(root / "fused.ckpt"), "--config", str(cfg_path),
        "--learning-rate", "0.2", "--epochs", "10",
    ]) == 0
    return root


def test_pipeline_artifacts_exist(pipeline_dir):
    """Each training command writes its loss curve next to its checkpoint,
    one row per optimizer step of its own stage."""
    from msivd.train import load_checkpoint

    steps = {}
    for name in ("sift.ckpt", "fused.ckpt"):
        history = load_checkpoint(pipeline_dir / name).metrics_history
        steps[name] = history[-1]["steps"]
        lines = (pipeline_dir / f"{name}.loss_curve.csv").read_text().splitlines()
        assert lines[0] == "step,loss"
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(steps[name]))
        assert (pipeline_dir / f"{name}.provenance.json").is_file()
    assert steps["sift.ckpt"] != steps["fused.ckpt"]


def test_predict_emits_one_line_json(pipeline_dir, tmp_path, capsys):
    code_file = tmp_path / "f.c"
    import random

    code_file.write_text(safe_code(random.Random(0), 7))
    rc = main(["predict", "--code", str(code_file), "--ckpt", str(pipeline_dir / "fused.ckpt")])
    assert rc == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    obj = json.loads(out[0])
    assert set(obj) == {"sample_id", "label", "score", "flagged"}
    assert obj["sample_id"] == "f.c"
    assert obj["flagged"] is False


def test_predict_dump_cfg_writes_dot_and_json(pipeline_dir, tmp_path, capsys):
    code_file = tmp_path / "g.c"
    import random

    code_file.write_text(vulnerable_code(random.Random(1), 3)[0])
    rc = main([
        "predict", "--code", str(code_file), "--ckpt", str(pipeline_dir / "fused.ckpt"),
        "--dump-cfg", str(tmp_path / "cfgdump"),
    ])
    assert rc == 0
    capsys.readouterr()
    dot = (tmp_path / "cfgdump.dot").read_text()
    assert dot.startswith("digraph")
    reach = json.loads((tmp_path / "cfgdump.json").read_text())
    assert all({"id", "kind", "in", "out"} <= set(n) for n in reach["nodes"])


def test_corrupt_checkpoint_is_runtime_failure(pipeline_dir, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
    code_file = tmp_path / "h.c"
    code_file.write_text("x = 1;")
    rc = main(["predict", "--code", str(code_file), "--ckpt", str(bad)])
    assert rc == 1
    assert "magic" in capsys.readouterr().err


def test_diverging_training_exits_1_and_writes_no_checkpoint(pipeline_dir, tmp_path, capsys):
    out = tmp_path / "fused.ckpt"
    code = main(["train-fused", "--samples", str(pipeline_dir / "samples.jsonl"),
                 "--splits", str(pipeline_dir / "splits.json"), "--out", str(out),
                 "--config", str(pipeline_dir / "config.json"), "--learning-rate", "1e30"])
    assert code == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: fused step ") and line.endswith(" diverged: batch loss is nan")
    assert not out.exists()


@pytest.mark.parametrize("content, message", [
    (b"{not json", "is not valid JSON"),
    (b"\xff\xfe", "is not valid JSON"),
    (b"[1, 2]", "must hold a JSON object, not list"),
    (b"[" * 100_000 + b"]" * 100_000, "is not valid JSON: maximum recursion depth"),
], ids=["not_json", "not_utf8", "array", "nested_too_deeply"])
@pytest.mark.parametrize("command", ["train-sift", "train-fused"])
def test_bad_splits_file_usage_error(pipeline_dir, tmp_path, capsys, command, content, message):
    splits = tmp_path / "splits.json"
    splits.write_bytes(content)
    out = tmp_path / "m.ckpt"
    inputs = {"train-sift": ["--dialogues", str(pipeline_dir / "dialogues.jsonl")],
              "train-fused": ["--samples", str(pipeline_dir / "samples.jsonl")]}[command]
    code = main([command, *inputs, "--splits", str(splits), "--out", str(out),
                 "--config", str(pipeline_dir / "config.json")])
    assert code == 2
    assert f"splits file {splits} {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [["train"] * 40, "valid", None], ids=["list", "other_string", "null"])
@pytest.mark.parametrize("command", ["train-sift", "train-fused", "eval"])
def test_bad_splits_value_usage_error(pipeline_dir, tmp_path, capsys, command, value):
    """A splits value other than "train", "eval" or "test" is a usage error
    naming its sample and echoing at most 80 characters of it, whichever
    command reads the file."""
    splits = json.loads((pipeline_dir / "splits.json").read_text())
    sample_id = sorted(splits)[1]
    splits[sample_id] = value
    splits_path = tmp_path / "splits.json"
    splits_path.write_text(json.dumps(splits))
    out = tmp_path / "out"
    inputs = {"train-sift": ["--dialogues", str(pipeline_dir / "dialogues.jsonl")],
              "train-fused": ["--samples", str(pipeline_dir / "samples.jsonl")],
              "eval": ["--mode", "pre-trained", "--samples", str(pipeline_dir / "samples.jsonl")]}[command]
    code = main([command, *inputs, "--splits", str(splits_path), "--out", str(out),
                 "--config", str(pipeline_dir / "config.json")])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (f"error: splits file {splits_path} sample {sample_id!r} must be "
                    f"\"train\", \"eval\" or \"test\", got {json.dumps(value)[:80]}")
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
def test_bad_learning_rate_flag_usage_error(pipeline_dir, tmp_path, capsys, value):
    out = tmp_path / "sift.ckpt"
    code = main(["train-sift", "--dialogues", str(pipeline_dir / "dialogues.jsonl"),
                 "--splits", str(pipeline_dir / "splits.json"), "--out", str(out),
                 "--config", str(pipeline_dir / "config.json"), f"--learning-rate={value}", "--epochs", "1"])
    assert code == 2
    assert "invalid settings: learning rate" in capsys.readouterr().err
    assert not out.exists()


def test_eval_single_mode_writes_report(pipeline_dir, tmp_path, capsys):
    cfg_path = pipeline_dir / "config.json"
    out = tmp_path / "report.json"
    rc = main([
        "eval", "--mode", "pre-trained",
        "--samples", str(pipeline_dir / "samples.jsonl"),
        "--splits", str(pipeline_dir / "splits.json"),
        "--out", str(out), "--config", str(cfg_path),
        "--dataset-name", "synthetic",
    ])
    assert rc == 0
    (report,) = json.loads(out.read_text())
    assert report["mode"] == "pre-trained"
    assert report["dataset"] == "synthetic"
    assert report["TP"] + report["FP"] + report["TN"] + report["FN"] > 0


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "case, dump, flags",
    [
        ("default", "ingest_dump.json", []),
        ("cpp_only", "ingest_dump.json", ["--cpp-only"]),
        ("window", "ingest_dump.json", ["--config", str(GOLDEN / "ingest_window.config.json")]),
    ],
)
def test_ingest_matches_golden(tmp_path, capsys, caplog, case, dump, flags):
    """Samples, summary and skip log of `msivd ingest` on committed dumps.

    The fixture dump has multi-patch records, a .py path, a patch without
    post code, one without changed ranges, a positive for each drop reason
    and malformed entries. The window config is small enough that a focus
    is trimmed and windows grow up first and down first."""
    out = tmp_path / "samples.jsonl"
    with caplog.at_level("INFO", logger="msivd.corpus"):
        assert main(["ingest", "--nvd-dump", str(GOLDEN / dump), "--out", str(out), *flags]) == 0
    assert out.read_bytes() == (GOLDEN / f"ingest_{case}.samples.jsonl").read_bytes()
    assert capsys.readouterr().out == (GOLDEN / f"ingest_{case}.summary.json").read_text(encoding="utf-8")
    logged = [f"{r.levelname}: {r.getMessage()}" for r in caplog.records if r.name == "msivd.corpus"]
    assert logged == (GOLDEN / dump).with_suffix(".log").read_text(encoding="utf-8").splitlines()


@pytest.mark.parametrize(
    "dump, flags",
    [
        ("ingest_dump.json", []),
        ("ingest_dump.json", ["--cpp-only"]),
        ("ingest_dump.json", ["--config", str(GOLDEN / "ingest_window.config.json")]),
        ("wrong_typed_description", []),
    ],
    ids=["default", "cpp_only", "window", "wrong_typed_description"],
)
def test_ingest_output_reads_back_as_written(tmp_path, capsys, dump, flags):
    """Every samples file that `ingest` writes reads back to the samples it
    holds: written again, they give the same bytes. An entry whose
    description is not a string is skipped, not written."""
    path = GOLDEN / dump
    if dump == "wrong_typed_description":
        path = tmp_path / "dump.json"
        path.write_bytes(fixture_dump([fixture_entry(cve_id="CVE-2022-1", description=5),
                                       fixture_entry(cve_id="CVE-2022-2")]))
    out, again = tmp_path / "samples.jsonl", tmp_path / "again.jsonl"
    assert main(["ingest", "--nvd-dump", str(path), "--out", str(out), *flags]) == 0
    write_samples_jsonl(read_samples_jsonl(out), again)
    assert again.read_bytes() == out.read_bytes()
    assert json.loads(capsys.readouterr().out)["samples_kept"] == len(out.read_text().splitlines()) > 0


def test_ingest_output_of_the_golden_dump_prepares(tmp_path, capsys):
    """Every positive that `ingest` writes carries a fix, so `prepare` can
    build its dialogue; blank-fix positives are dropped and counted."""
    samples = tmp_path / "samples.jsonl"
    assert main(["ingest", "--nvd-dump", str(GOLDEN / "ingest_dump.json"), "--out", str(samples)]) == 0
    summary = json.loads(capsys.readouterr().out)
    out = tmp_path / "prepared"
    assert main(["prepare", "--samples", str(samples), "--out-dir", str(out), "--ratios", "0.6,0.2,0.2"]) == 0
    assert summary["dropped"]["NoFix"] == 2
    kept = read_samples_jsonl(samples)
    assert len((out / "dialogues.jsonl").read_text().splitlines()) == len(kept)
    assert all(s.fix_code.strip() for s in kept if s.label)


def test_ingest_skips_a_record_with_a_changed_range_outside_its_file(tmp_path, capsys, caplog):
    bad = [[50, 60]], [[1]]
    entries = [
        fixture_entry(
            cve_id=f"CVE-2022-{i}",
            patches=[{"path": "a.c", "pre_code": VULN_PRE, "post_code": VULN_POST, "changed_ranges": ranges}],
        )
        for i, ranges in enumerate([[[4, 4]], *bad, [[4, 4]]])
    ]
    dump = tmp_path / "dump.json"
    dump.write_bytes(fixture_dump(entries))
    out = tmp_path / "samples.jsonl"
    with caplog.at_level("WARNING", logger="msivd.corpus"):
        assert main(["ingest", "--nvd-dump", str(dump), "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["records_parsed"] == 2
    assert sorted(s.sample_id for s in read_samples_jsonl(out)) == [
        "CVE-2022-0:a.c:neg", "CVE-2022-0:a.c:pos", "CVE-2022-3:a.c:neg", "CVE-2022-3:a.c:pos",
    ]
    assert [m for m in caplog.messages if "changed" in m] == [
        "skipping CVE-2022-1: a.c: changed range [50, 60] is not a line pair within 1-7",
        "skipping CVE-2022-2: patch key 'changed_ranges' must be list[tuple[int, int]], got [[1]]",
    ]
