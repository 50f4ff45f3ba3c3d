import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_lm import generate_greedy
from helpers_loss import eq2_reference, task_streams
from msivd import autograd as ag
from msivd.autograd import Tensor, backward
from msivd.lm import (
    ByteTokenizer,
    LmModel,
    LmOutput,
    LoraAdapter,
    LoraConfig,
    TransformerConfig,
    lora_forward,
    make_adapter,
)
from msivd.train import sift_batch_loss

TINY = TransformerConfig(d_model=16, n_layers=1, n_heads=2, context_window=64)


# --- tokenizer ---------------------------------------------------------------


def test_yes_no_are_single_reserved_ids():
    tok = ByteTokenizer()
    assert tok.YES == 262 and tok.NO == 263
    assert tok.decode([tok.YES]) == "yes"
    assert tok.decode([tok.NO]) == "no"
    # byte encoding never yields the specials
    assert all(i < 256 for i in tok.encode("yes no <|teacher|>"))


@settings(max_examples=200)
@given(st.text())
def test_tokenizer_round_trip(text):
    tok = ByteTokenizer()
    assert tok.decode(tok.encode(text)) == text


def test_empty_string_encodes_empty():
    assert ByteTokenizer().encode("") == []


# --- LoRA ----------------------------------------------------------------------


def test_zero_init_adapter_equals_base_exactly():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(0, 1, (5, 8)).astype(np.float32))
    w0 = Tensor(rng.normal(0, 0.3, (6, 8)).astype(np.float32))
    ad = make_adapter(8, 6, LoraConfig(rank=2), rng)
    assert np.array_equal(lora_forward(x, w0, ad).data, lora_forward(x, w0, None).data)


def test_lora_matches_dense_materialization():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(0, 1, (4, 8)).astype(np.float32))
    w0 = Tensor(rng.normal(0, 0.3, (6, 8)).astype(np.float32))
    ad = make_adapter(8, 6, LoraConfig(rank=3, alpha=16.0), rng)
    ad.b.data[:] = rng.normal(0, 0.3, ad.b.shape).astype(np.float32)
    dense = w0.data + (ad.alpha / ad.rank) * (ad.b.data @ ad.a.data)
    assert np.max(np.abs(lora_forward(x, w0, ad).data - x.data @ dense.T)) <= 1e-5


def test_gradient_reaches_adapters_not_base():
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(0, 1, (4, 8)).astype(np.float32))
    w0 = Tensor(rng.normal(0, 0.3, (6, 8)).astype(np.float32), requires_grad=False)
    ad = make_adapter(8, 6, LoraConfig(rank=2), rng)
    backward(ag.sum_all(lora_forward(x, w0, ad)))
    assert w0.grad is None
    assert ad.a.grad is not None and ad.b.grad is not None


def test_rank_mismatch_errors():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(0, 1, (4, 8)).astype(np.float32))
    w0 = Tensor(rng.normal(0, 0.3, (6, 8)).astype(np.float32))
    ad = make_adapter(8, 6, LoraConfig(rank=2), rng)
    ad.a = Tensor(np.zeros((3, 8), dtype=np.float32), requires_grad=True)
    with pytest.raises(ag.ShapeError, match="rank mismatch"):
        lora_forward(x, w0, ad)


def test_lora_layer_gradcheck():
    rng = np.random.default_rng(4)
    x64 = Tensor(rng.normal(0, 1, (3, 4)), requires_grad=True, dtype=np.float64)
    w0 = Tensor(rng.normal(0, 0.3, (5, 4)), dtype=np.float64)
    a = Tensor(rng.normal(0, 0.2, (2, 4)), requires_grad=True, dtype=np.float64)
    b = Tensor(rng.normal(0, 0.2, (5, 2)), requires_grad=True, dtype=np.float64)

    def f(x_, a_, b_):
        return ag.sum_all(ag.sigmoid(lora_forward(x_, w0, LoraAdapter(a=a_, b=b_, rank=2, alpha=16.0))))

    assert ag.grad_check(f, [x64, a, b], h=1e-4) <= 1e-4


# --- transformer forward ---------------------------------------------------------


def test_forward_shapes():
    cfg = TransformerConfig(d_model=64, n_layers=2, n_heads=4, context_window=64, vocab_size=300)
    model = LmModel(cfg, seed=0)
    out = model.forward(list(range(16)))
    assert out.logits.shape == (16, 300)
    assert out.hidden.shape == (16, 64)


def test_causal_mask_is_exact():
    model = LmModel(TINY, seed=1)
    ids = [1, 2, 3, 4, 5, 6]
    base = model.forward(ids).logits.data
    perturbed = model.forward([1, 2, 3, 4, 99, 6]).logits.data
    assert np.array_equal(base[:4], perturbed[:4])
    assert not np.array_equal(base[4], perturbed[4])


def test_zero_init_lora_model_matches_base_model():
    with_lora = LmModel(TINY, seed=2, lora=LoraConfig(rank=4))
    base = LmModel(TINY, seed=2, lora=None)
    ids = [7, 8, 9]
    a = with_lora.forward(ids).logits.data
    b = base.forward(ids).logits.data
    assert np.max(np.abs(a - b)) <= 1e-6


def test_overlength_errors():
    model = LmModel(TINY, seed=3)
    with pytest.raises(ag.ShapeError, match="context window"):
        model.forward(list(range(TINY.context_window + 1)))


def test_base_weights_never_require_grad():
    model = LmModel(TINY, seed=4)
    assert all(not t.requires_grad for t in model.base_parameters().values())
    assert all(t.requires_grad for t in model.adapter_parameters().values())


def test_paper_profile_pins_dimensions():
    cfg = TransformerConfig.paper()
    assert (cfg.d_model, cfg.n_layers, cfg.context_window) == (4096, 8, 2048)


# --- task-averaged SIFT loss (Eq. 2) over the LM ------------------------------------


class _FixedLogits:
    """Stub model: forward returns preset logits regardless of input."""

    def __init__(self, logits):
        self._logits = np.asarray(logits, dtype=np.float64)

    def forward(self, ids):
        t = len(ids)
        logits = Tensor(np.tile(self._logits, (t, 1)), requires_grad=True)
        return LmOutput(logits=logits, hidden=logits)


def _item(n_tokens):
    ids = [0] * n_tokens
    mask = [False] + [True] * (n_tokens - 1)
    return ids, mask


def test_single_task_reduces_to_cross_entropy():
    model = LmModel(TINY, seed=5, dtype=np.float64)
    ids = [10, 11, 12, 13]
    mask = [False, False, True, True]
    loss = sift_batch_loss(model, task_streams([[(ids, mask)]]))
    out = model.forward(ids)
    ref = ag.cross_entropy(ag.slice_rows(out.logits, 0, 3), ids[1:], [0.0, 0.5, 0.5])
    assert abs(loss - ref.item()) <= 1e-9


def test_mean_of_task_means():
    # task 1: per-token NLL exactly 1.0; task 2: exactly 3.0
    p1 = math.exp(-1.0)
    p3 = math.exp(-3.0)
    m1 = _FixedLogits(np.log([p1, 1 - p1]))
    m3 = _FixedLogits(np.log([p3, 1 - p3]))

    l1 = sift_batch_loss(m1, task_streams([[_item(3)]]))
    l3 = sift_batch_loss(m3, task_streams([[_item(3)]]))
    assert l1 == pytest.approx(1.0, abs=1e-9)
    assert l3 == pytest.approx(3.0, abs=1e-9)

    class _TwoTask:
        def forward(self, ids):
            # first id selects which distribution this sample sees
            return (m1 if ids[0] == 0 else m3).forward(ids)

    ids1, mask1 = _item(3)
    ids3 = [1] + [0] * 4
    mask3 = [False] + [True] * 4
    combined = sift_batch_loss(_TwoTask(), task_streams([[(ids1, mask1)], [(ids3, mask3)]]))
    assert combined == pytest.approx(2.0, abs=1e-9)


def test_duplication_invariance():
    model = LmModel(TINY, seed=6, dtype=np.float64)
    a = ([1, 2, 3, 4], [False, True, True, False])
    b = ([5, 6, 7], [False, False, True])
    c = ([8, 9, 10], [False, True, True])
    base = sift_batch_loss(model, task_streams([[a, b], [c]]))
    doubled = sift_batch_loss(model, task_streams([[a, b, a, b], [c]]))
    assert abs(base - doubled) <= 1e-9
    assert abs(base - eq2_reference(model, [[a, b], [c]])) <= 1e-9


def test_zero_token_task_errors():
    model = LmModel(TINY, seed=7)
    empty = ([3, 4], [False, False])
    with pytest.raises(ValueError, match="zero valid tokens"):
        sift_batch_loss(model, task_streams([[empty]]))
    # beside a task with tokens, a zero-token task is left out of the mean
    live = ([1, 2], [False, True])
    assert sift_batch_loss(model, task_streams([[live], [empty]])) == sift_batch_loss(model, task_streams([[live]]))


# --- generation --------------------------------------------------------------------


def test_generate_zero_new_tokens():
    model = LmModel(TINY, seed=9)
    assert generate_greedy(model, [1, 2, 3], max_new=0) == []


def test_generate_deterministic():
    model = LmModel(TINY, seed=10)
    a = generate_greedy(model, [1, 2, 3], max_new=8)
    b = generate_greedy(model, [1, 2, 3], max_new=8)
    assert a == b


def test_attention_block_gradcheck():
    """One attention block (single head) against finite differences."""
    rng = np.random.default_rng(11)
    t, d = 4, 3
    x = Tensor(rng.normal(0, 0.5, (t, d)), requires_grad=True, dtype=np.float64)
    wq = Tensor(rng.normal(0, 0.4, (d, d)), requires_grad=True, dtype=np.float64)
    wk = Tensor(rng.normal(0, 0.4, (d, d)), requires_grad=True, dtype=np.float64)
    wv = Tensor(rng.normal(0, 0.4, (d, d)), requires_grad=True, dtype=np.float64)
    wo = Tensor(rng.normal(0, 0.4, (d, d)), requires_grad=True, dtype=np.float64)
    mask = np.triu(np.full((t, t), -np.inf), k=1)

    def f(x_, wq_, wk_, wv_, wo_):
        q = ag.matmul(x_, ag.transpose(wq_))
        k = ag.matmul(x_, ag.transpose(wk_))
        v = ag.matmul(x_, ag.transpose(wv_))
        scores = ag.add(ag.scale(ag.matmul(q, ag.transpose(k)), d**-0.5), Tensor(mask, dtype=np.float64))
        att = ag.matmul(ag.softmax(scores), v)
        return ag.sum_all(ag.tanh(ag.matmul(att, ag.transpose(wo_))))

    assert ag.grad_check(f, [x, wq, wk, wv, wo], h=1e-4) <= 1e-4


def _next_token_loss(model, ids):
    out = model.forward(ids)
    n = len(ids) - 1
    return ag.cross_entropy(out.logits, ids[1:] + [0], [1 / n] * n + [0.0])


def test_model_forward_gradcheck_through_adapter():
    """Finite differences through LmModel.forward with respect to layer 0's
    query adapter; with two layers, the gradient also passes through layer 1's
    attention keys."""
    rng = np.random.default_rng(12)
    model = LmModel(replace(TINY, n_layers=2), seed=12, lora=LoraConfig(rank=2), dtype=np.float64)
    adapter = model.adapters["layer0.wq"]
    adapter.b.data[:] = rng.normal(0, 0.5, adapter.b.shape)
    ids = [3, 1, 4, 1, 5, 9]

    def f(a_, b_):
        model.adapters["layer0.wq"] = LoraAdapter(a=a_, b=b_, rank=adapter.rank, alpha=adapter.alpha)
        return _next_token_loss(model, ids)

    assert ag.grad_check(f, [adapter.a, adapter.b], h=1e-5) <= 1e-4


# --- last-position read-out ---------------------------------------------------------


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("t", [1, 7, 512])
def test_last_only_matches_last_row_of_full_forward(t, n_layers):
    cfg = replace(TINY, n_layers=n_layers, context_window=512)
    model = LmModel(cfg, seed=14)
    ids = np.random.default_rng(t).integers(0, cfg.vocab_size, size=t)
    full = model.forward(ids)
    last = model.forward(ids, last_only=True)
    assert last.hidden.shape == (1, cfg.d_model)
    assert last.logits.shape == (1, cfg.vocab_size)
    assert np.max(np.abs(last.hidden.data[0] - full.hidden.data[-1])) <= 1e-5
    assert np.max(np.abs(last.logits.data[0] - full.logits.data[-1])) <= 1e-5


def test_last_only_runs_final_layer_and_head_on_one_row(monkeypatch):
    """Earlier layers attend with all T query rows, the final layer with one;
    the LM head multiplies one row. Slicing a full forward at the end fails."""
    cfg = replace(TINY, n_layers=3)
    model = LmModel(cfg, seed=15)
    rows = {"queries": [], "keys": [], "head": []}
    attend, matmul = ag.causal_attention, ag.matmul

    def recording_attention(q, k, v, n_heads):
        rows["queries"].append(q.shape[0])
        rows["keys"].append(k.shape[0])
        return attend(q, k, v, n_heads)

    def recording_matmul(a, b):
        out = matmul(a, b)
        if out.shape[-1] == cfg.vocab_size:
            rows["head"].append(out.shape[0])
        return out

    monkeypatch.setattr(ag, "causal_attention", recording_attention)
    monkeypatch.setattr(ag, "matmul", recording_matmul)

    def rows_of(last_only):
        for calls in rows.values():
            calls.clear()
        model.forward(list(range(1, 8)), last_only=last_only)
        return rows

    assert rows_of(True) == {"queries": [7, 7, 1], "keys": [7, 7, 7], "head": [1]}
    assert rows_of(False) == {"queries": [7, 7, 7], "keys": [7, 7, 7], "head": [7]}


def test_last_only_gradcheck_through_adapters():
    """Finite differences through ``forward(last_only=True)`` with respect to
    the final layer's query and value adapters, whose rows the read-out cuts
    to one and keeps whole, and layer 0's query adapter."""
    rng = np.random.default_rng(16)
    model = LmModel(replace(TINY, n_layers=2), seed=16, lora=LoraConfig(rank=2), dtype=np.float64)
    names = ["layer0.wq", "layer1.wq", "layer1.wv"]
    adapters = [model.adapters[n] for n in names]
    for ad in adapters:
        ad.b.data[:] = rng.normal(0, 0.5, ad.b.shape)
    ids = [3, 1, 4, 1, 5, 9]

    def f(*tensors):
        for name, ad, a_, b_ in zip(names, adapters, tensors[::2], tensors[1::2]):
            model.adapters[name] = LoraAdapter(a=a_, b=b_, rank=ad.rank, alpha=ad.alpha)
        return ag.cross_entropy(model.forward(ids, last_only=True).logits, [2], [1.0])

    params = [t for ad in adapters for t in (ad.a, ad.b)]
    assert ag.grad_check(f, params, h=1e-5) <= 1e-4


def _tape_size(loss) -> int:
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_tape_size_does_not_grow_with_heads():
    ids = [1, 2, 3, 4, 5, 6, 7, 8]
    sizes = {h: _tape_size(_next_token_loss(LmModel(replace(TINY, n_heads=h), seed=13), ids)) for h in (1, 4)}
    assert sizes[1] == sizes[4]
