import dataclasses
import math

import numpy as np
import pytest

from msivd import autograd as ag
from msivd.autograd import Tensor
from msivd.dialogue import render_prompt
from msivd.fusion import (
    FusedClassifier,
    InferenceBundle,
    Prediction,
    ReadOut,
    fused_input_width,
    fused_vector,
    graph_embedding,
    graph_inputs,
    label_nll,
    predict,
)
from msivd.gnn import Ggnn, GgnnConfig
from msivd.lm import ByteTokenizer, LmModel, LoraConfig, TransformerConfig
from msivd.synth import make_synthetic_corpus
from msivd.train import TrainConfig, build_bundle_from_checkpoint, train_fused

TINY = TransformerConfig(d_model=32, n_layers=1, n_heads=2, context_window=384)
# Largest gap allowed between a read-out through the scaffold's cached K/V
# and a full forward of the same ids, on the hidden row (measured: 7.2e-7
# over the bench predict mix's prompts, 1.7e-6 on random ids).
READ_OUT_TOL = 1e-5
# The same bound on the vulnerable-class score (measured: 1.3e-7 over the
# label-parity samples); the logistic slope is at most 1/4.
SCORE_TOL = 1e-5


def test_fuse_widths():
    rng = np.random.default_rng(0)
    row = rng.normal(0, 1, (1, 8)).astype(np.float32)
    gnn = Ggnn(GgnnConfig(state_dim=16, steps=1), seed=0)
    assert fused_vector(row, graph_embedding(graph_inputs("x = 1; use(x);", 16), gnn)).shape == (1, 24)
    assert fused_vector(row, graph_embedding(None, gnn)).shape == (1, 24)
    assert fused_vector(row, None).shape == (1, 8)
    rows = np.concatenate([row, 2 * row, 3 * row])
    assert fused_vector(rows, gnn.embed([None, graph_inputs("x = 1; use(x);", 16), None])).shape == (3, 24)


def test_read_out_is_last_hidden_row_of_prompt():
    model = LmModel(TINY, seed=0)
    code = "x = 1; use(x);"
    tok = ByteTokenizer()
    read_out = ReadOut(model, tok)
    assert not any(t.requires_grad for t in model.parameters().values())
    out = read_out(code)
    row = out.hidden.data
    assert row.shape == (1, TINY.d_model) and out.logits.shape == (1, ByteTokenizer.vocab_size)
    # the cached read-out multiplies [T - P]-row blocks where the full one
    # multiplies [T]-row blocks, so BLAS sums in another order
    full = model.forward(render_prompt(code, tok, TINY.context_window))
    assert np.max(np.abs(row - full.hidden.data[-1:])) <= READ_OUT_TOL
    assert np.max(np.abs(out.logits.data - full.logits.data[-1:])) <= READ_OUT_TOL
    gnn = Ggnn(GgnnConfig(state_dim=16, steps=1), seed=0)
    assert np.array_equal(fused_vector(row, graph_embedding(None, gnn)).data[:, : TINY.d_model], row)


@pytest.mark.parametrize("in_dim", [8, 4352])
def test_classifier_table_lists_exactly_the_parameters(in_dim):
    """The table names every parameter, in order, with its shape; every
    parameter is float32 and requires grad."""
    params = FusedClassifier(in_dim, seed=1).parameters()
    assert [(name, shape) for name, shape, _ in FusedClassifier.table(in_dim)] == [
        (name, t.shape) for name, t in params.items()
    ]
    assert all(t.dtype == np.float32 and t.requires_grad for t in params.values())


def test_paper_profile_dimension_bookkeeping():
    from helpers_gnn import PAPER_GGNN
    from helpers_lm import PAPER_LM

    assert fused_input_width(PAPER_LM, PAPER_GGNN) == 4096 + 256 == 4352
    # 8 LM layers + the GGNN's 3 (two MLP linears around one state-wide hidden layer, and the GRU)
    assert PAPER_LM.n_layers == 8
    assert PAPER_GGNN.state_dim == 256


def test_classify_symmetric_logits():
    clf = FusedClassifier(in_dim=4, seed=0)
    clf.w.data[:] = 0
    clf.b.data[:] = 0
    pred = clf.classify(Tensor(np.ones((1, 4), dtype=np.float32)))
    assert pred.score == pytest.approx(0.5, abs=1e-6)
    assert pred.log_probs[0] == pytest.approx(math.log(0.5), abs=1e-6)
    assert pred.log_probs[1] == pytest.approx(math.log(0.5), abs=1e-6)


def test_classify_argmax_label():
    clf = FusedClassifier(in_dim=2, seed=0)
    clf.w.data[:] = np.array([[3.0, 0.0], [1.0, 0.0]], dtype=np.float32)
    clf.b.data[:] = 0
    pred = clf.classify(Tensor(np.array([[1.0, 0.0]], dtype=np.float32)))
    assert pred.label is True  # logits (3, 1) -> vulnerable
    assert pred.score > 0.5


@pytest.mark.parametrize("pair, score", [
    ((0.0, -8018.5), np.nextafter(1.0, 0.0)),
    ((-8018.5, 0.0), np.nextafter(0.0, 1.0)),
], ids=["yes_saturated", "no_saturated"])
def test_saturated_score_stays_inside_the_open_interval(pair, score):
    """A saturated logit pair gives the nearest float inside (0, 1) as its
    score; the log-probabilities stay exact."""
    clf = FusedClassifier(in_dim=2, seed=0)
    clf.w.data[:] = 0
    clf.b.data[:] = pair
    pred = clf.classify(Tensor(np.ones((1, 2), dtype=np.float32)))
    assert 0.0 < pred.score < 1.0
    assert pred.score == score
    assert pred.log_probs == pair
    assert pred.label is (pair[0] > pair[1])


def test_classify_shift_invariance():
    clf = FusedClassifier(in_dim=3, seed=1)
    x = Tensor(np.array([[0.4, -0.2, 1.0]], dtype=np.float32))
    before = clf.classify(x)
    clf.b.data += 2.5  # shifts both logits equally
    after = clf.classify(x)
    assert before.label == after.label
    assert before.score == pytest.approx(after.score, abs=1e-6)
    assert math.exp(after.log_probs[0]) + math.exp(after.log_probs[1]) == pytest.approx(1.0, abs=1e-6)


def test_classifier_width_check():
    clf = FusedClassifier(in_dim=8, seed=0)
    with pytest.raises(ag.ShapeError, match="width"):
        clf.logits(Tensor(np.zeros((1, 5), dtype=np.float32)))


def test_label_nll_matches_log_softmax():
    clf = FusedClassifier(in_dim=2, seed=2)
    x = Tensor(np.array([[1.0, -1.0]], dtype=np.float32))
    logits = clf.logits(x)
    assert logits.shape == (1, 2)
    lp = ag.log_softmax(logits).data[0]
    assert label_nll(clf.logits(x), [True]).item() == pytest.approx(-lp[0], abs=1e-6)
    assert label_nll(clf.logits(x), [False]).item() == pytest.approx(-lp[1], abs=1e-6)


def test_label_nll_of_a_batch_is_the_mean_row_nll():
    clf = FusedClassifier(in_dim=3, seed=4)
    x = Tensor(np.random.default_rng(4).normal(0, 1, (5, 3)).astype(np.float32))
    labels = [True, False, False, True, True]
    lp = ag.log_softmax(clf.logits(x)).data
    want = -np.mean([lp[i, 0 if y else 1] for i, y in enumerate(labels)])
    assert label_nll(clf.logits(x), labels).item() == pytest.approx(want, abs=1e-6)


def test_prediction_probabilities_normalized():
    clf = FusedClassifier(in_dim=4, seed=3)
    pred = clf.classify(Tensor(np.array([[0.1, 0.2, 0.3, 0.4]], dtype=np.float32)))
    assert math.exp(pred.log_probs[0]) + math.exp(pred.log_probs[1]) == pytest.approx(1.0, abs=1e-6)


def test_graph_embedding_flags_unparseable_code():
    gnn = Ggnn(GgnnConfig(state_dim=16, steps=1), seed=0)
    assert graph_inputs("int *p = malloc(8);", 16) is None
    emb = graph_embedding(None, gnn)
    assert np.array_equal(emb.data, np.zeros((1, 16), dtype=np.float32))
    graph = graph_inputs("x = 1; use(x);", 16)
    assert graph is not None
    assert graph_embedding(graph, gnn).shape == (1, 16)


@pytest.fixture(scope="module")
def overfit_bundle():
    corpus = make_synthetic_corpus(n=200, seed=2)
    cfg = TrainConfig(
        stage="fused", use_gnn=False, learning_rate=0.2, batch_size=16, epochs=30, seed=0,
        lm_config=TransformerConfig(), lora_config=LoraConfig(),
    )
    ckpt, _ = train_fused(corpus, None, cfg)
    return corpus, build_bundle_from_checkpoint(ckpt)


def test_lm_only_overfit_smoke(overfit_bundle):
    from msivd.evaluation import confusion, metrics

    corpus, bundle = overfit_bundle
    preds = [predict(s, bundle) for s in corpus]
    m = metrics(confusion([s.label for s in corpus], [p.label for p in preds]))
    assert m.f1 >= 0.95


def test_predict_deterministic(overfit_bundle):
    corpus, bundle = overfit_bundle
    a = predict(corpus[0], bundle)
    b = predict(corpus[0], bundle)
    assert a == b


def test_predict_negative_samples_mostly_safe(overfit_bundle):
    corpus, bundle = overfit_bundle
    negatives = [s for s in corpus if not s.label]
    preds = [predict(s, bundle) for s in negatives]
    assert sum(not p.label for p in preds) >= 0.9 * len(negatives)


def test_predict_sets_flag_on_unparseable_code(overfit_bundle):
    from datetime import date

    from msivd.corpus import CodeSample, CweCategory

    corpus, bundle_lm_only = overfit_bundle
    # build a GNN-backed bundle so the parse fallback is exercised
    gnn = Ggnn(GgnnConfig(state_dim=16, steps=1), seed=0)
    clf = FusedClassifier(in_dim=bundle_lm_only.read_out.lm.config.d_model + 16, seed=0)
    bundle = InferenceBundle(read_out=bundle_lm_only.read_out, classifier=clf, gnn=gnn)
    bad = CodeSample(
        sample_id="bad", code="void f(char *p) { p[0] = 1; }", label=False,
        cwe_id="CWE-787", cwe_category=CweCategory.BUFFER_ERROR, description="",
        origin_date=date(2022, 1, 1),
    )
    assert predict(bad, bundle).flagged is True
    # nesting past mini-C's limit takes the same fallback, not a RecursionError
    deep = dataclasses.replace(bad, code="x = " + "(" * 400 + "1" + ")" * 400 + ";")
    assert predict(deep, bundle).flagged is True
    good = [s for s in corpus if not s.label][0]
    assert predict(good, bundle).flagged is False


def _straddling_gnn_bundle(read_out, samples) -> InferenceBundle:
    """A GGNN bundle over ``read_out`` whose classifier bias is moved so that
    the full-forward read-outs of ``samples`` fall on both sides of 0.5, with
    the widest margin the samples allow around the middle."""
    bundle = InferenceBundle(
        read_out=read_out, gnn=Ggnn(GgnnConfig(state_dim=16, steps=1), seed=3),
        classifier=FusedClassifier(in_dim=read_out.lm.config.d_model + 16, seed=3),
    )
    margins = np.sort([np.subtract(*_full_read_out(s, bundle).log_probs) for s in samples])
    mid = len(margins) // 4 + int(np.argmax(np.diff(margins[len(margins) // 4 : 3 * len(margins) // 4])))
    bundle.classifier.b.data[0] -= (margins[mid] + margins[mid + 1]) / 2
    return bundle


def _full_read_out(sample, bundle) -> Prediction:
    """``predict`` with the LM row from a forward of the whole prompt."""
    ids = render_prompt(sample.code, bundle.tokenizer, bundle.context_window)
    row = bundle.read_out.lm.forward(ids).hidden.data[-1:]
    graph = graph_inputs(sample.code, bundle.gnn.config.state_dim)
    return bundle.classifier.classify(fused_vector(row, graph_embedding(graph, bundle.gnn)), flagged=graph is None)


def _long_samples(corpus):
    """Samples whose prompts fill the window, one with a ``for`` loop that
    mini-C rejects."""
    body = "".join(f"  acc = acc + n * {k};\n" for k in range(40))
    long = [dataclasses.replace(s, sample_id=f"{s.sample_id}-long", code=s.code + "\n" + body)
            for s in corpus[:6] if not s.label]
    rejected = dataclasses.replace(long[0], sample_id="rejected", code=long[0].code + "for (;;) { }\n")
    return long + [rejected]


def test_cached_and_full_read_outs_give_the_same_labels(overfit_bundle):
    """Scores straddle 0.5, so a read-out that moved the LM row past the
    tolerance could flip a label; prompts that fill the window are included."""
    corpus, lm_only = overfit_bundle
    samples = corpus[:40] + _long_samples(corpus)
    assert any(len(render_prompt(s.code, lm_only.tokenizer, 512)) == 512 for s in samples)
    bundle = _straddling_gnn_bundle(lm_only.read_out, samples)
    full = [_full_read_out(s, bundle) for s in samples]
    cached = [predict(s, bundle) for s in samples]
    assert {p.label for p in full} == {True, False}
    assert any(p.flagged for p in full) and not all(p.flagged for p in full)
    assert min(abs(p.score - 0.5) for p in full) > SCORE_TOL
    assert [p.label for p in cached] == [p.label for p in full]
    assert [p.flagged for p in cached] == [p.flagged for p in full]
    assert max(abs(c.score - f.score) for c, f in zip(cached, full)) <= SCORE_TOL


def test_predict_forwards_only_the_rows_after_the_scaffold(overfit_bundle, monkeypatch):
    """Under ``predict`` the first layer projects, and attends from, the
    T - P rows after the scaffold; keys span all T positions."""
    corpus, bundle = overfit_bundle
    sample = corpus[0]
    t = len(render_prompt(sample.code, bundle.tokenizer, bundle.context_window))
    p = len(bundle.read_out.prefix.ids)
    seen = []
    attend = ag.causal_attention

    def recording_attention(q, k, v, n_heads):
        seen.append(("attention", q.shape[0], k.shape[0]))
        return attend(q, k, v, n_heads)

    def recording(kernel):  # the rows of every matrix product: LM projections and MLP, GGNN, classifier
        def run(x, *weights):
            seen.append(("matmul", x.shape[0]))
            return kernel(x, *weights)

        return run

    monkeypatch.setattr(ag, "causal_attention", recording_attention)
    for name in ("matmul", "linear", "lora_linear", "mlp"):
        monkeypatch.setattr(ag, name, recording(getattr(ag, name)))
    predict(sample, bundle)
    first = seen.index(("attention", t - p, t))
    assert first >= 3 and seen[:first] == [("matmul", t - p)] * first
    assert [e for e in seen if e[0] == "attention"] == [("attention", t - p, t), ("attention", 1, t)]
    assert max(e[1] for e in seen if e[0] == "matmul") == t - p
