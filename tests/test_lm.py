import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_lm import PAPER_LM, cast, generate_greedy
from helpers_loss import eq2_reference, task_streams
from msivd import autograd as ag
from msivd.autograd import Tensor, backward
from msivd.lm import (
    ByteTokenizer,
    KvPrefix,
    LmModel,
    LmOutput,
    LoraConfig,
    TransformerConfig,
)
from msivd.dialogue import prompt_scaffold
from msivd.fusion import ReadOut
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
    """Every adapter starts with a Gaussian A and a zero B, so each adapted
    projection's output is the base projection's."""
    rng = np.random.default_rng(0)
    model = LmModel(replace(TINY, n_layers=2), seed=0, lora=LoraConfig(rank=2))
    assert sorted(model.adapters) == ["layer0.wq", "layer0.wv", "layer1.wq", "layer1.wv"]
    x = Tensor(rng.normal(0, 1, (5, 16)).astype(np.float32))
    for name, (a, b) in model.adapters.items():
        assert a.shape == (2, 16) and b.shape == (16, 2) and a.data.all() and not b.data.any()
        layer, proj = name.split(".")
        w0 = model.layers[int(layer[len("layer"):])][proj]
        assert np.array_equal(ag.lora_linear(x, w0, a, b, model.lora_scale).data, ag.linear(x, w0).data)


@pytest.mark.parametrize("t, d", [(5, 8), (512, 64)])
def test_zero_b_is_bitwise_the_base_linear(t, d):
    """The fused LoRA kernel adds s·(x·Aᵀ)·Bᵀ to x·W0ᵀ; with B = 0 that sum
    leaves every byte of the base layer's output as it is."""
    rng = np.random.default_rng(t)
    x = Tensor(rng.normal(0, 1, (t, d)).astype(np.float32))
    w0 = Tensor(rng.normal(0, d**-0.5, (d, d)).astype(np.float32))
    a = Tensor(rng.normal(0, 0.5, (8, d)).astype(np.float32), requires_grad=True)
    b = Tensor(np.zeros((d, 8), dtype=np.float32), requires_grad=True)
    assert ag.lora_linear(x, w0, a, b, 2.0).data.tobytes() == ag.linear(x, w0).data.tobytes()


def test_lora_matches_dense_materialization():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(0, 1, (4, 8)).astype(np.float32))
    w0 = Tensor(rng.normal(0, 0.3, (6, 8)).astype(np.float32))
    a = Tensor(rng.normal(0, 0.02, (3, 8)).astype(np.float32))
    b = Tensor(rng.normal(0, 0.3, (6, 3)).astype(np.float32))
    scale = 16.0 / 3
    dense = w0.data + scale * (b.data @ a.data)
    assert np.max(np.abs(ag.lora_linear(x, w0, a, b, scale).data - x.data @ dense.T)) <= 1e-5


def _base_parameters(model: LmModel) -> dict:
    adapters = model.adapter_parameters()
    return {k: t for k, t in model.parameters().items() if k not in adapters}


def test_gradient_reaches_adapters_not_base():
    model = LmModel(TINY, seed=2, lora=LoraConfig(rank=2))
    backward(ag.sum_all(model.forward([1, 2, 3]).logits))
    assert all(t.grad is None for t in _base_parameters(model).values())
    assert all(t.grad is not None for t in model.adapter_parameters().values())


def test_rank_mismatch_errors():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(0, 1, (4, 8)).astype(np.float32))
    w0 = Tensor(rng.normal(0, 0.3, (6, 8)).astype(np.float32))
    a = Tensor(np.zeros((3, 8), dtype=np.float32), requires_grad=True)
    b = Tensor(np.zeros((6, 2), dtype=np.float32), requires_grad=True)
    with pytest.raises(ag.ShapeError, match="do not fit weight"):
        ag.lora_linear(x, w0, a, b, 1.0)


def test_lora_layer_gradcheck():
    rng = np.random.default_rng(4)
    x64 = Tensor(rng.normal(0, 1, (3, 4)), requires_grad=True, dtype=np.float64)
    w0 = Tensor(rng.normal(0, 0.3, (5, 4)), dtype=np.float64)
    a = Tensor(rng.normal(0, 0.2, (2, 4)), requires_grad=True, dtype=np.float64)
    b = Tensor(rng.normal(0, 0.2, (5, 2)), requires_grad=True, dtype=np.float64)

    def f(x_, a_, b_):
        return ag.sum_all(ag.sigmoid(ag.lora_linear(x_, w0, a_, b_, 16.0 / 2)))

    assert ag.grad_check(f, [x64, a, b], h=1e-4) <= 1e-4


# --- transformer forward ---------------------------------------------------------


def test_forward_shapes():
    cfg = TransformerConfig(d_model=64, n_layers=2, n_heads=4, context_window=64)
    model = LmModel(cfg, seed=0)
    out = model.forward(list(range(16)))
    assert out.logits.shape == (16, ByteTokenizer.vocab_size) == (16, 264)
    assert out.hidden.shape == (16, 64)


def test_causal_mask_is_exact():
    model = LmModel(TINY, seed=1)
    ids = [1, 2, 3, 4, 5, 6]
    base = model.forward(ids).logits.data
    perturbed = model.forward([1, 2, 3, 4, 99, 6]).logits.data
    assert np.array_equal(base[:4], perturbed[:4])
    assert not np.array_equal(base[4], perturbed[4])


def test_zero_init_lora_model_matches_base_model():
    """As built, the adapters leave the logits bitwise those of the base
    model: the same model with every A zeroed too, whose adapter path adds
    exact zeros."""
    with_lora = LmModel(TINY, seed=2, lora=LoraConfig(rank=4))
    ids = [7, 8, 9]
    a = with_lora.forward(ids).logits.data
    for lora_a, _ in with_lora.adapters.values():
        lora_a.data[:] = 0.0
    b = with_lora.forward(ids).logits.data
    assert np.array_equal(a, b)


def test_overlength_errors():
    model = LmModel(TINY, seed=3)
    with pytest.raises(ag.ShapeError, match="context window"):
        model.forward(list(range(TINY.context_window + 1)))


def test_base_weights_never_require_grad():
    model = LmModel(TINY, seed=4)
    assert all(not t.requires_grad for t in _base_parameters(model).values())
    assert all(t.requires_grad for t in model.adapter_parameters().values())


@pytest.mark.parametrize("config, rank", [
    (TINY, 4),
    (TransformerConfig(d_model=24, n_layers=3, n_heads=3, context_window=40), 5),
])
def test_table_lists_exactly_the_parameters(config, rank):
    """The table names every parameter, in order, with its shape; every
    parameter is float32, and only the adapters require grad."""
    lora = LoraConfig(rank=rank)
    model = LmModel(config, seed=1, lora=lora)
    params = model.parameters()
    assert [(name, shape) for name, shape, _ in LmModel.table(config, lora)] == [
        (name, t.shape) for name, t in params.items()
    ]
    assert all(t.dtype == np.float32 for t in params.values())
    assert [name for name, t in params.items() if t.requires_grad] == list(model.adapter_parameters())
    assert len(model.adapter_parameters()) == 4 * config.n_layers


def test_paper_profile_pins_dimensions():
    """The paper's LM is a config only: with the desk's LoRA its table holds
    1.6 G values, 6.5 GB in float32."""
    assert (PAPER_LM.d_model, PAPER_LM.n_layers, PAPER_LM.context_window) == (4096, 8, 2048)
    assert sum(math.prod(shape) for _, shape, _ in LmModel.table(PAPER_LM, LoraConfig())) * 4 == 6_490_062_848


# --- task-averaged SIFT loss (Eq. 2) over the LM ------------------------------------


class _FixedLogits:
    """Stub model: forward returns preset logits regardless of input."""

    adapters = {}

    def __init__(self, logits):
        self._logits = np.asarray(logits, dtype=np.float64)

    def forward(self, ids, first_row=0):
        logits = Tensor(np.tile(self._logits, (len(ids) - first_row, 1)), requires_grad=True)
        return LmOutput(logits=logits, hidden=logits, kv=[])


def _item(n_tokens):
    ids = [0] * n_tokens
    mask = [False] + [True] * (n_tokens - 1)
    return ids, mask


def test_single_task_reduces_to_cross_entropy():
    model = cast(LmModel(TINY, seed=5), np.float64)
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
        adapters = {}

        def forward(self, ids, first_row=0):
            # first id selects which distribution this sample sees
            return (m1 if ids[0] == 0 else m3).forward(ids, first_row)

    ids1, mask1 = _item(3)
    ids3 = [1] + [0] * 4
    mask3 = [False] + [True] * 4
    combined = sift_batch_loss(_TwoTask(), task_streams([[(ids1, mask1)], [(ids3, mask3)]]))
    assert combined == pytest.approx(2.0, abs=1e-9)


def test_duplication_invariance():
    model = cast(LmModel(TINY, seed=6), np.float64)
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


def test_generate_records_no_tape(monkeypatch):
    """Decoding a model whose adapters still train keeps no graph: every
    forward's logits have no parents and need no gradient."""
    model = LmModel(TINY, seed=10)
    assert all(t.requires_grad for t in model.adapter_parameters().values())
    logits = []
    forward = LmModel.forward

    def recording_forward(self, ids, prefix=None):
        out = forward(self, ids, prefix=prefix)
        logits.append(out.logits)
        return out

    monkeypatch.setattr(LmModel, "forward", recording_forward)
    generate_greedy(model, [1, 2, 3], max_new=4)
    assert len(logits) == 4
    assert not any(t.requires_grad or t._parents for t in logits)


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
    model = cast(LmModel(replace(TINY, n_layers=2), seed=12, lora=LoraConfig(rank=2)), np.float64)
    a, b = model.adapters["layer0.wq"]
    b.data[:] = rng.normal(0, 0.5, b.shape)
    ids = [3, 1, 4, 1, 5, 9]

    def f(a_, b_):
        model.adapters["layer0.wq"] = (a_, b_)
        return _next_token_loss(model, ids)

    assert ag.grad_check(f, [a, b], h=1e-5) <= 1e-4


def _tape_nodes(out: Tensor) -> int:
    """Recorded operations reachable from ``out``."""
    seen, stack = set(), [out]
    while stack:
        t = stack.pop()
        if id(t) not in seen and t._bw is not None:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)


def test_each_layer_records_ten_tape_nodes():
    """Per layer: two layer norms, the q/k/v and output projections, attention,
    the MLP and two residual adds; around them the two embeddings and their
    add, the final layer norm and the head. Every parameter is made
    trainable, so that every operation is recorded."""
    nodes = []
    for n in (1, 2, 3):
        model = LmModel(replace(TINY, n_layers=n), seed=16)
        for t in model.parameters().values():
            t.requires_grad = True
        nodes.append(_tape_nodes(model.forward(list(range(1, 20))).logits))
    assert nodes == [5 + 10, 5 + 20, 5 + 30]


# --- last-position read-out ---------------------------------------------------------


def _frozen(model: LmModel) -> LmModel:
    for t in model.adapter_parameters().values():
        t.requires_grad = False
    return model


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("t", [1, 7, 512])
def test_last_only_matches_last_row_of_full_forward(t, n_layers):
    """The one-row read-out under a prefix of the first t - 1 ids (none for
    t = 1) matches the last row of the full forward."""
    cfg = replace(TINY, n_layers=n_layers, context_window=512)
    model = _frozen(LmModel(cfg, seed=14))
    ids = np.random.default_rng(t).integers(0, ByteTokenizer.vocab_size, size=t)
    empty = np.zeros((0, cfg.d_model), dtype=np.float32)
    kv = model.forward(ids[:-1]).kv if t > 1 else [(empty, empty)] * n_layers
    full = model.forward(ids)
    last = model.forward(ids, prefix=KvPrefix(ids=ids[:-1], kv=kv), first_row=t - 1)
    assert last.hidden.shape == (1, cfg.d_model)
    assert last.logits.shape == (1, ByteTokenizer.vocab_size)
    assert np.max(np.abs(last.hidden.data[0] - full.hidden.data[-1])) <= 1e-5
    assert np.max(np.abs(last.logits.data[0] - full.logits.data[-1])) <= 1e-5


def test_last_only_runs_final_layer_and_head_on_one_row(monkeypatch):
    """Under a prefix of P ids, earlier layers attend with the T - P query
    rows after it; the final layer attends with the T - first_row rows from
    ``first_row`` on, one for the read-out, and the LM head multiplies those.
    Every layer attends over all T keys."""
    cfg = replace(TINY, n_layers=3)
    model = _frozen(LmModel(cfg, seed=15))
    ids = list(range(1, 8))
    prefix = KvPrefix(ids=np.asarray(ids[:4]), kv=model.forward(ids[:4]).kv)
    rows = {"queries": [], "keys": [], "head": []}
    attend = ag.causal_attention

    def recording_attention(q, k, v, n_heads):
        rows["queries"].append(q.shape[0])
        rows["keys"].append(k.shape[0])
        return attend(q, k, v, n_heads)

    def recording(kernel):
        def run(x, *weights):
            out = kernel(x, *weights)
            if out.shape[-1] == ByteTokenizer.vocab_size:
                rows["head"].append(out.shape[0])
            return out

        return run

    monkeypatch.setattr(ag, "causal_attention", recording_attention)
    for name in ("linear", "lora_linear", "mlp"):
        monkeypatch.setattr(ag, name, recording(getattr(ag, name)))

    def rows_of(prefix, first_row):
        for calls in rows.values():
            calls.clear()
        model.forward(ids, prefix=prefix, first_row=first_row)
        return rows

    assert rows_of(prefix, 6) == {"queries": [3, 3, 1], "keys": [7, 7, 7], "head": [1]}
    assert rows_of(prefix, 4) == {"queries": [3, 3, 3], "keys": [7, 7, 7], "head": [3]}
    assert rows_of(None, 0) == {"queries": [7, 7, 7], "keys": [7, 7, 7], "head": [7]}
    assert rows_of(None, 5) == {"queries": [7, 7, 2], "keys": [7, 7, 7], "head": [2]}


# Largest gap allowed between the rows of a forward from ``first_row`` and
# the same rows of the full forward, per dtype (measured over the cases
# below: at most 1.9e-15 in float64 and 1.3e-6 in float32).
FIRST_ROW_TOL = {np.float64: 1e-12, np.float32: 1e-5}


@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["f64", "f32"])
@pytest.mark.parametrize("with_prefix", [False, True], ids=["no_prefix", "prefix"])
@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("r", [0, 1, 127, 128, 129, 299])
def test_first_row_matches_rows_of_full_forward(r, n_layers, with_prefix, dtype):
    """At T = 300, the forward from row r gives rows r .. T-1 of the full
    forward and every position's keys and values, without a prefix and
    under one of min(r, 100) ids."""
    t = 300
    cfg = replace(TINY, n_layers=n_layers, context_window=t)
    model = cast(LmModel(cfg, seed=18), dtype)
    rng = np.random.default_rng(r)
    for _, b in model.adapters.values():
        b.data[:] = rng.normal(0, 0.3, b.shape)
    ids = rng.integers(0, ByteTokenizer.vocab_size, size=t)
    prefix = None
    if with_prefix:
        _frozen(model)
        p = min(r, 100)
        empty = np.zeros((0, cfg.d_model), dtype=dtype)
        kv = model.forward(ids[:p]).kv if p else [(empty, empty)] * n_layers
        prefix = KvPrefix(ids=ids[:p], kv=kv)
    full = model.forward(ids)
    part = model.forward(ids, prefix=prefix, first_row=r)
    assert part.hidden.shape == (t - r, cfg.d_model)
    assert part.logits.shape == (t - r, ByteTokenizer.vocab_size)
    tol = FIRST_ROW_TOL[dtype]
    assert np.max(np.abs(part.hidden.data - full.hidden.data[r:])) <= tol
    assert np.max(np.abs(part.logits.data - full.logits.data[r:])) <= tol
    for (k, v), (fk, fv) in zip(part.kv, full.kv):
        assert k.shape == fk.shape == (t, cfg.d_model)
        assert np.max(np.abs(k - fk)) <= tol and np.max(np.abs(v - fv)) <= tol


@pytest.mark.parametrize(
    "p, first_row",
    [(0, -1), (0, 7), (0, 8), (4, 3), (4, 0), (4, 8)],
    ids=["negative", "at_t", "past_t", "below_prefix", "zero_under_prefix", "past_t_under_prefix"],
)
def test_first_row_outside_its_range_raises(p, first_row):
    model = _frozen(LmModel(TINY, seed=19))
    ids = np.arange(1, 8)
    prefix = KvPrefix(ids=ids[:p], kv=model.forward(ids[:p]).kv) if p else None
    with pytest.raises(ag.ShapeError, match="first_row"):
        model.forward(ids, prefix=prefix, first_row=first_row)


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


# Largest traced peak of one backward over a 512-id SIFT stream at desk
# dimensions, as a multiple of what the forward leaves allocated. Measured
# 1.07-1.15 at first rows 0, 167 and 400 while backward frees the tape as it
# walks it; keeping the whole tape and every intermediate gradient until the
# end measured 1.44-1.52.
BACKWARD_PEAK_RATIO = 1.25


def test_backward_peak_stays_near_the_forward_graph():
    model = LmModel(TransformerConfig(), seed=0, lora=LoraConfig())
    ids = np.random.default_rng(0).integers(0, 256, size=512)
    first = 167
    weights = np.full(ids.size - first, 1.0 / (ids.size - first))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = ag.cross_entropy(model.forward(ids, first_row=first).logits, np.append(ids[1 + first :], 0), weights)
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert all(b.grad is not None for _, b in model.adapters.values())
    assert peak <= BACKWARD_PEAK_RATIO * held, (peak, held)


# --- shared K/V prefix --------------------------------------------------------------

SCAFFOLD = np.asarray(prompt_scaffold(ByteTokenizer()), dtype=np.int64)
# Largest gap allowed between a forward through a K/V prefix and a full
# forward of the same ids, on the hidden row (measured: at most 1.7e-6 over
# seeds 0-2 and lengths 187-512, d_model 16 and 64).
PREFIX_TOL = 1e-5


def _prefixed(n_layers=2, seed=17):
    model = LmModel(replace(TINY, n_layers=n_layers, context_window=512), seed=seed)
    return model, ReadOut(model, ByteTokenizer()).prefix


@pytest.mark.parametrize("n_layers", [1, 2])
@pytest.mark.parametrize("t", [len(SCAFFOLD) + 1, 320, 512])
def test_prefix_forward_matches_full_forward(t, n_layers):
    """Past the scaffold, random ids to the given length: the prefix forward
    gives the full forward's last row and its keys and values within the
    tolerance, and repeats bitwise."""
    model, prefix = _prefixed(n_layers)
    p = len(SCAFFOLD)
    tail = np.random.default_rng(t).integers(0, 256, size=t - p)
    ids = np.concatenate([SCAFFOLD, tail])
    full = model.forward(ids)
    cached = model.forward(ids, prefix=prefix, first_row=t - 1)
    assert cached.hidden.shape == (1, model.config.d_model)
    assert np.max(np.abs(cached.hidden.data - full.hidden.data[-1:])) <= PREFIX_TOL
    assert np.max(np.abs(cached.logits.data - full.logits.data[-1:])) <= PREFIX_TOL
    for (k, v), (fk, fv) in zip(cached.kv, full.kv):
        assert k.shape == fk.shape == (t, model.config.d_model)
        assert np.max(np.abs(k - fk)) <= PREFIX_TOL and np.max(np.abs(v - fv)) <= PREFIX_TOL
    again = model.forward(ids, prefix=prefix, first_row=t - 1)
    assert np.array_equal(cached.hidden.data, again.hidden.data)
    assert np.array_equal(cached.logits.data, again.logits.data)


def test_prefix_forward_needs_every_parameter_frozen():
    model, prefix = _prefixed()
    ids = np.append(SCAFFOLD, 7)
    model.adapters["layer1.wv"][1].requires_grad = True
    with pytest.raises(ag.TapeError, match="frozen"):
        model.forward(ids, prefix=prefix, first_row=len(ids) - 1)
    model.adapters["layer1.wv"][1].requires_grad = False
    model.tok_emb.requires_grad = True
    with pytest.raises(ag.TapeError, match="frozen"):
        model.forward(ids, prefix=prefix, first_row=len(ids) - 1)


@pytest.mark.parametrize(
    "ids",
    [
        pytest.param(SCAFFOLD, id="no_row_after_prefix"),
        pytest.param(SCAFFOLD[:-1], id="shorter_than_prefix"),
        pytest.param(np.append(SCAFFOLD[1:], [7, 7]), id="shifted_prefix"),
        pytest.param(np.concatenate([[ByteTokenizer.BOS], SCAFFOLD[1:], [7]]), id="first_id_differs"),
    ],
)
def test_prefix_forward_rejects_ids_that_do_not_extend_it(ids):
    model, prefix = _prefixed()
    with pytest.raises(ag.ShapeError, match="prefix ids"):
        model.forward(ids, prefix=prefix, first_row=len(ids) - 1)
