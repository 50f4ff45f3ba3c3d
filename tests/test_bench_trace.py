"""One traced run through the hooks of bench/tracer.py: its count hooks read
``out.sweeps`` and ``args[0].nodes`` of ``reaching_definitions``, the
``.nodes`` of ``Ggnn.forward``'s graph and the ids given to
``LmModel.forward``, so a change to any of those call shapes fails here."""
import dataclasses
import importlib.util
from pathlib import Path

import msivd
from msivd import dialogue, fusion, synth, train

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_predict_and_sift_reach_every_count_hook():
    samples = synth.make_synthetic_corpus(n=8, seed=0)
    ckpt, _ = train.train_fused(
        samples[:4], None, train.TrainConfig(stage="fused", learning_rate=0.2, batch_size=4, epochs=1)
    )
    bundle = train.build_bundle_from_checkpoint(ckpt)
    lines = samples[4].code.splitlines()
    rejected = dataclasses.replace(
        samples[4], code="\n".join(lines[:3] + ["  for (i = 0; i < n; i = i + 1) { x = i; }"] + lines[3:])
    )
    dialogues = [dialogue.build_dialogue(s) if s.label else dialogue.build_negative_dialogue(s) for s in samples[5:]]
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    tracer.start(msivd)
    try:
        fusion.predict(samples[4], bundle)
        fusion.predict(rejected, bundle)
        train.train_sift(dialogues, train.TrainConfig(stage="sift", learning_rate=5e-3, batch_size=3, epochs=1))
    finally:
        tracer.stop()
    m = tracer.metrics(tracer_module.autograd_ops(msivd.autograd))
    assert m["minic.parse.calls"] == 2
    assert m["fusion.fallback_share"] == 0.5
    assert m["dfa.reach.sweeps_per_node"] > 0
    assert m["gnn.forward.nodes"] > 0
    assert m["lm.forward.tokens"] > 0
