import math

import numpy as np
import pytest

from msivd import autograd as ag
from msivd.autograd import Tensor
from msivd.dialogue import render_prompt
from msivd.fusion import (
    FusedClassifier,
    InferenceBundle,
    fused_input_width,
    fused_vector,
    graph_embedding,
    graph_inputs,
    label_nll,
    lm_row,
    predict,
)
from msivd.gnn import Ggnn, GgnnConfig
from msivd.lm import ByteTokenizer, LmModel, LoraConfig, TransformerConfig
from msivd.synth import make_synthetic_corpus
from msivd.train import TrainConfig, build_bundle_from_checkpoint, train_fused

TINY = TransformerConfig(d_model=32, n_layers=1, n_heads=2, context_window=384)


def test_fuse_widths():
    rng = np.random.default_rng(0)
    row = rng.normal(0, 1, (1, 8)).astype(np.float32)
    gnn = Ggnn(GgnnConfig(state_dim=16, steps=1), seed=0)
    assert fused_vector(row, graph_inputs("x = 1; use(x);", 16), gnn).shape == (1, 24)
    assert fused_vector(row, None, gnn).shape == (1, 24)
    assert fused_vector(row, None, None).shape == (1, 8)


def test_lm_row_is_last_hidden_row_of_prompt():
    model = LmModel(TINY, seed=0)
    code = "x = 1; use(x);"
    tok = ByteTokenizer()
    ids = render_prompt(code, tok, TINY.context_window)
    last = model.forward(ids, last_only=True).hidden.data
    row = lm_row(code, model, tok)
    assert row.shape == (1, TINY.d_model)
    assert np.array_equal(row, last)
    # the one-row read-out sums in another order than the full forward
    assert np.max(np.abs(row - model.forward(ids).hidden.data[-1:])) <= 1e-5
    gnn = Ggnn(GgnnConfig(state_dim=4, steps=1), seed=0)
    assert np.array_equal(fused_vector(row, None, gnn).data[:, : TINY.d_model], last)


def test_paper_profile_dimension_bookkeeping():
    lm_cfg = TransformerConfig.paper()
    gnn_cfg = GgnnConfig.paper()
    assert fused_input_width(lm_cfg, gnn_cfg) == 4096 + 256 == 4352
    # 8 LM layers + the GGNN's 3 (two MLP linears around one hidden layer, and the GRU)
    assert lm_cfg.n_layers == 8
    assert gnn_cfg.mlp_hidden == (256,)


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
    assert label_nll(clf.logits(x), True).item() == pytest.approx(-lp[0], abs=1e-6)
    assert label_nll(clf.logits(x), False).item() == pytest.approx(-lp[1], abs=1e-6)


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
    clf = FusedClassifier(in_dim=bundle_lm_only.lm.config.d_model + 16, seed=0)
    bundle = InferenceBundle(lm=bundle_lm_only.lm, tokenizer=ByteTokenizer(), classifier=clf, gnn=gnn)
    bad = CodeSample(
        sample_id="bad", code="void f(char *p) { p[0] = 1; }", label=False,
        cwe_id="CWE-787", cwe_category=CweCategory.BUFFER_ERROR, description="",
        origin_date=date(2022, 1, 1),
    )
    assert predict(bad, bundle).flagged is True
    good = [s for s in corpus if not s.label][0]
    assert predict(good, bundle).flagged is False
