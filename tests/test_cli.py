import json
from datetime import date
from pathlib import Path

import pytest

from helpers_corpus import VULN_PRE, VULN_POST, fixture_dump, fixture_entry
from msivd.cli import RunConfig, main
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


def test_profile_env_var_selects_paper_defaults(tmp_path, monkeypatch, capsys):
    corpus = make_synthetic_corpus(n=20, seed=5)
    samples_path = tmp_path / "samples.jsonl"
    write_samples_jsonl(corpus, samples_path)
    out = tmp_path / "out"
    monkeypatch.setenv("MSIVD_PROFILE", "paper")
    assert main(["prepare", "--samples", str(samples_path), "--out-dir", str(out)]) == 0
    prov = json.loads((out / "splits.json.provenance.json").read_text())
    assert prov["config"]["profile"] == "paper"


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
        ({"n_heads": 0}, "invalid settings: d_model, n_layers, n_heads and context_window must be >= 1"),
        ({"context_window": 0}, "invalid settings: d_model, n_layers, n_heads and context_window must be >= 1"),
        ({"gnn_steps": -1}, "invalid settings: GGNN steps must be >= 0"),
        ({"lora_alpha": float("nan")}, "invalid settings: LoRA needs a finite alpha"),
    ],
    ids=["unknown_keys", "array", "string", "ratios_int", "ratios_short", "epochs_str", "bool_seed",
         "bool_float", "int_bool", "batch_size_zero", "d_model_indivisible", "learning_rate_nan",
         "learning_rate_inf", "n_heads_zero", "context_window_zero", "gnn_steps_negative", "lora_alpha_nan"],
)
def test_bad_config_file_usage_error(tmp_path, capsys, content, message):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(content))
    out = tmp_path / "samples.jsonl"
    code = main(["ingest", "--nvd-dump", str(make_dump(tmp_path)), "--out", str(out), "--config", str(cfg_path)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_file_with_every_key_accepted(tmp_path):
    """Numbers may be JSON integers where the field is a float, and optional
    fields may be null."""
    settings = {
        "profile": "desk", "seed": 3, "learning_rate": 1, "batch_size": None, "epochs": 2,
        "sift_mode": "single-round", "use_gnn": False, "d_model": 32, "n_layers": 1, "n_heads": 2,
        "context_window": 384, "gnn_state_dim": 8, "gnn_steps": 0, "lora_rank": 4, "lora_alpha": 8,
        "window_tokens": 2048, "mix_preset": None, "cutoff": "2023-01-01", "ratios": [1, 0, 0],
    }
    assert set(settings) == set(RunConfig.__dataclass_fields__) - {"command"}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(settings))
    out = tmp_path / "samples.jsonl"
    assert main(["ingest", "--nvd-dump", str(make_dump(tmp_path)), "--out", str(out), "--config", str(cfg_path)]) == 0
    prov = json.loads((tmp_path / "samples.jsonl.provenance.json").read_text())
    assert prov["config"] == {"command": "ingest", **settings}


def test_config_schema_lists_exactly_the_config_file_keys():
    schema_path = Path(__file__).resolve().parents[1] / "schemas" / "run_config.schema.json"
    schema = json.loads(schema_path.read_text(encoding="utf-8"))
    assert set(schema["properties"]) == set(RunConfig.__dataclass_fields__) - {"command"}


def test_unknown_eval_mode_lists_valid(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--mode", "bogus", "--samples", "s", "--splits", "x"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "multi-round-sift-gnn" in err


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
    assert (pipeline_dir / "sift.ckpt").is_file()
    assert (pipeline_dir / "fused.ckpt").is_file()
    assert (pipeline_dir / "loss_curve.csv").read_text().startswith("step,loss\n")
    assert (pipeline_dir / "sift.ckpt.provenance.json").is_file()


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


@pytest.mark.parametrize("content, message", [
    (b"{not json", "is not valid JSON"),
    (b"\xff\xfe", "is not valid JSON"),
    (b"[1, 2]", "must hold a JSON object, not list"),
], ids=["not_json", "not_utf8", "array"])
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
