"""The names bench/tracer.py patches must exist, and its op list must match
BENCHMARK.json, or ``bench/run.py --trace 1`` aborts."""
import importlib.util
import json
from pathlib import Path

import msivd
import msivd.autograd
import msivd.corpus
import msivd.dialogue
import msivd.fusion
import msivd.gnn
import msivd.lm
import msivd.synth
import msivd.train

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer_module = _load_tracer()


def _namespaces():
    modules = (msivd.autograd, msivd.corpus, msivd.dialogue, msivd.fusion, msivd.gnn, msivd.lm, msivd.synth,
               msivd.train)
    classes = (msivd.lm.LmModel, msivd.gnn.Ggnn, msivd.fusion.FusedClassifier, msivd.train.Sgd)
    return {owner: dict(vars(owner)) for owner in (*modules, *classes)}


def test_tracer_patches_and_restores_every_name():
    tracer = tracer_module.Tracer()
    before = _namespaces()
    try:
        tracer.start(msivd)
        assert _namespaces() != before
        tracer.stop()
        assert _namespaces() == before
    finally:
        # a start that fails on a missing name leaves its first patches behind
        for owner, attrs in before.items():
            for name, value in attrs.items():
                if vars(owner).get(name) is not value:
                    setattr(owner, name, value)


def test_tracer_op_list_matches_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"].split(".")[1] for m in spec["per_layer"]
                if m["name"].startswith("autograd.") and m["name"].count(".") == 2]
    declared = [op for op in dict.fromkeys(declared) if op != "backward"]
    assert tracer_module.autograd_ops(msivd.autograd) == declared
