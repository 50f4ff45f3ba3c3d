import gc
import math
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_attention import per_head_attention
from helpers_gnn import gru_update
from msivd import autograd as ag
from msivd.autograd import Tensor
from msivd.dialogue import build_dialogues
from msivd.lm import ByteTokenizer, LmModel, LoraConfig, TransformerConfig
from msivd.synth import make_synthetic_corpus
from msivd.train import TrainConfig, render_training_streams, sift_batch_loss


def rand(shape, rng, scale=1.0, dtype=np.float32, requires_grad=True):
    return Tensor(rng.standard_normal(shape) * scale, requires_grad=requires_grad, dtype=dtype)


def test_matmul_shape():
    rng = np.random.default_rng(0)
    out = ag.matmul(rand((2, 3), rng), rand((3, 4), rng))
    assert out.shape == (2, 4)


def test_matmul_shape_mismatch_names_both_shapes():
    rng = np.random.default_rng(0)
    with pytest.raises(ag.ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        ag.matmul(rand((2, 3), rng), rand((4, 5), rng))


@pytest.mark.parametrize("op", [ag.add, ag.mul], ids=["add", "mul"])
def test_broadcast_mismatch_names_both_shapes(op):
    rng = np.random.default_rng(0)
    with pytest.raises(ag.ShapeError, match=rf"{op.__name__} .*\(2, 3\).*\(4,\)"):
        op(rand((2, 3), rng), rand((4,), rng))


def test_concat_last_dim_widths():
    rng = np.random.default_rng(0)
    out = ag.concat_last_dim([rand((5, 8), rng), rand((5, 4), rng)])
    assert out.shape == (5, 12)


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4))
def test_concat_width_is_sum_of_widths(widths):
    rng = np.random.default_rng(7)
    ts = [Tensor(rng.standard_normal((3, w))) for w in widths]
    assert ag.concat_last_dim(ts).shape == (3, sum(widths))


def test_sigmoid_at_zero():
    assert ag.sigmoid(Tensor([0.0])).item() == pytest.approx(0.5)


def test_softmax_uniform_rows():
    out = ag.softmax(Tensor(np.zeros((2, 4))))
    assert np.allclose(out.data, 0.25)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    out = ag.softmax(Tensor(rng.standard_normal((6, 9))))
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)


def test_log_softmax_exponentiates_to_one():
    rng = np.random.default_rng(2)
    out = ag.log_softmax(Tensor(rng.standard_normal((3, 5))))
    assert np.allclose(np.exp(out.data).sum(axis=-1), 1.0, atol=1e-6)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((4, 6)).astype(np.float32)
    a = ag.softmax(Tensor(x)).data
    b = ag.softmax(Tensor(x + 3.7)).data
    assert np.allclose(a, b, atol=1e-6)


def test_softmax_handles_minus_inf():
    x = np.array([[0.0, -np.inf, 0.0]])
    out = ag.softmax(Tensor(x))
    assert out.data[0, 1] == 0.0
    assert out.data[0, 0] == pytest.approx(0.5)


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((3, 4)))
    loss = ag.cross_entropy(logits, [0, 1, 2], [1 / 3] * 3)
    assert loss.item() == pytest.approx(math.log(4), abs=1e-6)


def test_cross_entropy_known_probs():
    # two rows with target probabilities 0.5 and 0.25
    logits = np.log(np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25]]))
    loss = ag.cross_entropy(Tensor(logits), [0, 0], [0.5, 0.5])
    assert loss.item() == pytest.approx((math.log(2) + math.log(4)) / 2, abs=1e-6)


def test_cross_entropy_zero_weight_excludes_rows():
    logits = np.log(np.array([[0.5, 0.5], [0.25, 0.75]]))
    loss = ag.cross_entropy(Tensor(logits), [0, 0], [1.0, 0.0])
    assert loss.item() == pytest.approx(math.log(2), abs=1e-6)


def test_cross_entropy_all_zero_weights_error():
    with pytest.raises(ag.ShapeError, match="all weights are zero"):
        ag.cross_entropy(Tensor(np.zeros((2, 3))), [0, 1], [0.0, 0.0])


def test_cross_entropy_is_weighted_sum_of_row_nll():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((5, 7))
    targets = [3, 0, 6, 6, 1]
    weights = np.array([0.25, 0.0, 1.5, 0.125, 2.0])
    logp = x - x.max(axis=-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))
    want = -(weights * logp[np.arange(5), targets]).sum()
    assert abs(ag.cross_entropy(Tensor(x), targets, weights).item() - want) <= 1e-12


def test_cross_entropy_zero_weight_rows_get_zero_gradient():
    rng = np.random.default_rng(12)
    x = rand((4, 6), rng)
    ag.backward(ag.cross_entropy(x, [1, 5, 0, 2], [0.0, 0.5, 0.0, 2.0]))
    assert np.all(x.grad[[0, 2]] == 0.0)
    assert np.all(x.grad[[1, 3]] != 0.0)


def test_backward_sum_is_ones():
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    ag.backward(ag.sum_all(x))
    assert np.array_equal(x.grad, np.ones((2, 3), dtype=np.float32))


def test_backward_elementwise_square():
    x = Tensor([1.0, 2.0], requires_grad=True)
    ag.backward(ag.sum_all(ag.mul(x, x)))
    assert np.allclose(x.grad, [2.0, 4.0])


def test_second_backward_errors():
    x = Tensor([1.0], requires_grad=True)
    loss = ag.sum_all(ag.mul(x, x))
    ag.backward(loss)
    with pytest.raises(ag.TapeError, match="consumed"):
        ag.backward(loss)


def test_second_backward_errors_after_a_rule_raised():
    """The loss is consumed before the walk starts, so a rule that raises
    partway leaves a tape that a second call refuses."""
    x = Tensor([1.0, -2.0], requires_grad=True)

    def failing_rule(g):
        raise ArithmeticError("rule failed")

    loss = ag.sum_all(ag.relu(ag._result(x.data * 2, (x,), failing_rule)))
    with pytest.raises(ArithmeticError, match="rule failed"):
        ag.backward(loss)
    with pytest.raises(ag.TapeError, match="consumed"):
        ag.backward(loss)


def test_backward_frees_intermediates_as_it_walks():
    """An array that only the tape holds is freed once backward returns,
    while the loss is still held."""
    rng = np.random.default_rng(5)
    x, w = rand((4, 3), rng), rand((3, 5), rng)
    hidden = ag.matmul(x, w)
    ref = weakref.ref(hidden.data)
    loss = ag.sum_all(ag.relu(hidden))
    del hidden
    assert ref() is not None
    ag.backward(loss)
    assert ref() is None
    assert loss.data.shape == ()


def test_only_leaves_keep_grad():
    """Like PyTorch's default for non-leaf tensors: after backward the leaves
    hold their gradient, and neither an intermediate nor the loss does."""
    x = Tensor([[1.0, -2.0, 3.0]], requires_grad=True)
    w = Tensor([[2.0], [1.0], [-1.0]], requires_grad=True)
    frozen = Tensor([[0.5]])
    hidden = ag.matmul(x, w)
    loss = ag.sum_all(ag.mul(ag.add(hidden, frozen), ag.add(hidden, frozen)))
    ag.backward(loss)
    h = (x.data @ w.data + frozen.data).item()  # -3.5
    assert np.array_equal(x.grad, 2 * h * w.data.T)
    assert np.array_equal(w.grad, 2 * h * x.data.T)
    assert hidden.grad is None and loss.grad is None


def test_matmul_sigmoid_chain_matches_finite_differences():
    rng = np.random.default_rng(4)
    x = rand((3, 4), rng)
    w = rand((4, 2), rng)

    def f(x64, w64):
        return ag.sum_all(ag.sigmoid(ag.matmul(x64, w64)))

    assert ag.grad_check(f, [x, w], h=1e-3) <= 1e-4


KERNEL_CASES = {
    "matmul": lambda rng: (
        lambda a, b: ag.sum_all(ag.matmul(a, b)),
        [rand((3, 4), rng), rand((4, 2), rng)],
    ),
    "transpose": lambda rng: (
        lambda a: ag.sum_all(ag.mul(ag.transpose(a), ag.transpose(a))),
        [rand((3, 4), rng)],
    ),
    "add_broadcast": lambda rng: (
        lambda a, b: ag.sum_all(ag.sigmoid(ag.add(a, b))),
        [rand((3, 4), rng), rand((4,), rng)],
    ),
    "mul": lambda rng: (
        lambda a, b: ag.sum_all(ag.mul(a, b)),
        [rand((3, 4), rng), rand((3, 4), rng)],
    ),
    "scale": lambda rng: (
        lambda a: ag.sum_all(ag.scale(a, 1.7)),
        [rand((3, 4), rng)],
    ),
    "sigmoid": lambda rng: (
        lambda a: ag.sum_all(ag.sigmoid(a)),
        [rand((3, 4), rng)],
    ),
    "tanh": lambda rng: (
        lambda a: ag.sum_all(ag.tanh(a)),
        [rand((3, 4), rng)],
    ),
    "relu": lambda rng: (
        # keep inputs away from the kink at 0
        lambda a: ag.sum_all(ag.relu(a)),
        [Tensor(rng.standard_normal((3, 4)) + np.sign(rng.standard_normal((3, 4))) * 0.5, requires_grad=True)],
    ),
    "concat_last_dim": lambda rng: (
        lambda a, b: ag.sum_all(ag.sigmoid(ag.concat_last_dim([a, b]))),
        [rand((2, 3), rng), rand((2, 5), rng)],
    ),
    "slice_last_dim": lambda rng: (
        lambda a: ag.sum_all(ag.sigmoid(ag.slice_last_dim(a, 1, 3))),
        [rand((3, 5), rng)],
    ),
    "slice_rows": lambda rng: (
        lambda a: ag.sum_all(ag.sigmoid(ag.slice_rows(a, 0, 2))),
        [rand((4, 3), rng)],
    ),
    "select_row": lambda rng: (
        lambda a: ag.sum_all(ag.sigmoid(ag.select_row(a, 1))),
        [rand((3, 4), rng)],
    ),
    "embedding_lookup": lambda rng: (
        lambda t: ag.sum_all(ag.sigmoid(ag.embedding_lookup(t, [0, 2, 2, 1]))),
        [rand((4, 3), rng)],
    ),
    "layer_norm": lambda rng: (
        lambda x, g, b: ag.sum_all(ag.sigmoid(ag.layer_norm(x, g, b))),
        [rand((3, 5), rng), rand((5,), rng, scale=0.3), rand((5,), rng, scale=0.3)],
    ),
    "softmax": lambda rng: (
        lambda a: ag.sum_all(ag.mul(ag.softmax(a), a)),
        [rand((3, 4), rng)],
    ),
    "log_softmax": lambda rng: (
        lambda a: ag.sum_all(ag.mul(ag.log_softmax(a), a)),
        [rand((3, 4), rng)],
    ),
    "cross_entropy": lambda rng: (
        lambda a: ag.cross_entropy(a, [1, 0, 2, 3], [0.7, 0.0, 1.9, 0.3]),
        [rand((4, 4), rng)],
    ),
    # the GGNN's GRU step, one tape node; every input requires grad
    "gru": lambda rng: (
        lambda h, m, w, u, b: ag.sum_all(ag.sigmoid(ag.gru(h, m, w, u, b))),
        [rand((3, 4), rng), rand((3, 4), rng), rand((12, 4), rng, scale=0.5), rand((12, 4), rng, scale=0.5),
         rand((12,), rng, scale=0.1)],
    ),
}


def _attention_case(tq, tk, n_heads):
    def case(rng):
        w = Tensor(rng.standard_normal((tq, 4)), dtype=np.float64)
        return (
            lambda q, k, v: ag.sum_all(ag.mul(ag.causal_attention(q, k, v, n_heads), w)),
            [rand((tq, 4), rng), rand((tk, 4), rng), rand((tk, 4), rng)],
        )

    return case


KERNEL_CASES.update({f"causal_attention_t{t}_h{h}": _attention_case(t, t, h) for t in (1, 5) for h in (1, 2)})
KERNEL_CASES.update(
    {f"causal_attention_tq{tq}_tk5_h{h}": _attention_case(tq, 5, h) for tq in (1, 3) for h in (1, 2)}
)


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_kernel_gradients(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    f, xs = KERNEL_CASES[name](rng)
    assert ag.grad_check(f, xs, h=1e-3) <= 1e-4


def _mlp_case(rng):
    """Row 0 of the input is small and every hidden bias is below -1, so all
    of row 0's pre-activations are negative; the other rows mix both signs."""
    x = rand((4, 5), rng)
    x.data[0] *= 0.1
    w1, w2 = rand((6, 5), rng), rand((3, 6), rng)
    b1 = Tensor(-1.0 - np.abs(rng.standard_normal(6)) * 0.2, requires_grad=True, dtype=np.float64)
    pre = x.data.astype(np.float64) @ w1.data.T.astype(np.float64) + b1.data
    assert (pre[0] < 0).all() and (pre[1:] > 0).any() and (pre[1:] < 0).any()
    return (
        lambda x_, w1_, b1_, w2_, b2_: ag.sum_all(ag.sigmoid(ag.mlp(x_, w1_, b1_, w2_, b2_))),
        [x, w1, b1, w2, rand((3,), rng)],
    )


def _lora_case(w0_frozen):
    def case(rng):
        w0 = rand((5, 4), rng, scale=0.5, dtype=np.float64, requires_grad=not w0_frozen)
        xs = [rand((3, 4), rng), rand((2, 4), rng, scale=0.5), rand((5, 2), rng, scale=0.5)]
        if w0_frozen:
            return lambda x, a, b: ag.sum_all(ag.sigmoid(ag.lora_linear(x, w0, a, b, 1.5))), xs
        return lambda x, w, a, b: ag.sum_all(ag.sigmoid(ag.lora_linear(x, w, a, b, 1.5))), [xs[0], w0, *xs[1:]]

    return case


def _linear_frozen_w_case(rng):
    w = rand((5, 4), rng, dtype=np.float64, requires_grad=False)
    return lambda x, b: ag.sum_all(ag.sigmoid(ag.linear(x, w, b))), [rand((3, 4), rng), rand((5,), rng)]


# The fused kernels of the LM: one tape node each for a projection (adapted or
# not) and the MLP. The step is 1e-5, as for attention across tiles.
FUSED_CASES = {
    "linear": lambda rng: (
        lambda x, w, b: ag.sum_all(ag.sigmoid(ag.linear(x, w, b))),
        [rand((3, 4), rng), rand((5, 4), rng), rand((5,), rng)],
    ),
    "linear_no_bias": lambda rng: (
        lambda x, w: ag.sum_all(ag.sigmoid(ag.linear(x, w))),
        [rand((3, 4), rng), rand((5, 4), rng)],
    ),
    "linear_frozen_w": _linear_frozen_w_case,
    "lora_linear_frozen_w0": _lora_case(w0_frozen=True),
    "lora_linear_trainable_w0": _lora_case(w0_frozen=False),
    "mlp": _mlp_case,
}


@pytest.mark.parametrize("name", sorted(FUSED_CASES))
def test_fused_kernel_gradients(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    f, xs = FUSED_CASES[name](rng)
    assert ag.grad_check(f, xs, h=1e-5) <= 1e-4


def _unreachable_after(build) -> int:
    """Objects the cyclic GC finds once ``build()`` has returned and dropped
    everything it made; an acyclic tape is freed by reference counting and
    leaves none."""
    gc.disable()
    try:
        gc.collect()
        build()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("name", sorted(KERNEL_CASES) + sorted(FUSED_CASES))
def test_backward_leaves_no_cyclic_garbage(name):
    def build():
        f, xs = {**KERNEL_CASES, **FUSED_CASES}[name](np.random.default_rng(0))
        ag.backward(f(*xs))

    assert _unreachable_after(build) == 0


def test_lm_forward_leaves_no_cyclic_garbage():
    model = LmModel(TransformerConfig(), seed=0, lora=LoraConfig())
    ids = np.random.default_rng(0).integers(0, ByteTokenizer.vocab_size, 200)
    assert _unreachable_after(lambda: model.forward(ids)) == 0


def test_linear_function_is_near_exact():
    rng = np.random.default_rng(5)
    x = rand((4,), rng)

    def f(a):
        return ag.sum_all(ag.scale(a, 3.0))

    assert ag.grad_check(f, [x], h=1e-3) <= 1e-8


def test_grad_check_tol_raises():
    x = Tensor([1.0], requires_grad=True)

    def broken(a):
        # lie about the gradient by detaching the square
        return ag.sum_all(ag.mul(Tensor(a.data.copy()), a))

    with pytest.raises(AssertionError, match="grad_check failed"):
        ag.grad_check(broken, [x], h=1e-3, tol=1e-4)


def test_frozen_input_receives_no_grad():
    rng = np.random.default_rng(6)
    w = rand((3, 3), rng, requires_grad=False)
    x = rand((2, 3), rng)
    ag.backward(ag.sum_all(ag.matmul(x, w)))
    assert w.grad is None
    assert x.grad is not None


def test_float32_default_and_float64_optin():
    assert Tensor([1.0]).dtype == np.float32
    assert Tensor([1.0], dtype=np.float64).dtype == np.float64


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5))
def test_determinism_bitwise(n, m):
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    a1, b1 = rand((n, m), rng1), rand((m, n), rng1)
    a2, b2 = rand((n, m), rng2), rand((m, n), rng2)
    o1 = ag.softmax(ag.matmul(a1, b1))
    o2 = ag.softmax(ag.matmul(a2, b2))
    assert np.array_equal(o1.data, o2.data)


# --- causal_attention against the per-head composition ------------------------------


def _attention_grads(attend, tq, d, n_heads, k_requires_grad=True, tk=None, dtype=np.float32):
    """Output and q/k/v gradients of ``attend`` under one fixed upstream gradient."""
    rng = np.random.default_rng(8)
    q, k, v = (rand((t, d), rng, dtype=dtype) for t in (tq, tk or tq, tk or tq))
    k.requires_grad = k_requires_grad
    upstream = Tensor(rng.standard_normal((tq, d)), dtype=dtype)
    out = attend(q, k, v, n_heads)
    ag.backward(ag.sum_all(ag.mul(out, upstream)))
    return out.data, q.grad, k.grad, v.grad


def test_causal_attention_matches_per_head_composition_float32():
    """The tiled kernel sums in another order than the whole masked block,
    so float32 parity holds within 1e-5, not bitwise."""
    tiled = _attention_grads(ag.causal_attention, 512, 64, 4)
    reference = _attention_grads(per_head_attention, 512, 64, 4)
    assert tiled[0].dtype == np.float32
    for a, b in zip(tiled, reference):
        assert np.max(np.abs(a - b)) <= 1e-5


# Query-row tiles are ag._TILE rows: one row short of, at and past the first
# and the second tile edge, one row past the fourth, a ragged last tile,
# suffix queries straddling an edge, and one query.
_T = ag._TILE
TILE_EDGE_SHAPES = [(t, t) for t in (_T - 1, _T, _T + 1, 2 * _T - 1, 2 * _T, 2 * _T + 1, 4 * _T + 1, 300)]
TILE_EDGE_SHAPES += [(2 * _T + 1, 2 * _T + 5), (1, 1), (1, 300)]


@pytest.mark.parametrize("tq, tk", TILE_EDGE_SHAPES, ids=[f"tq{tq}_tk{tk}" for tq, tk in TILE_EDGE_SHAPES])
def test_causal_attention_matches_per_head_composition_at_tile_edges(tq, tk):
    tiled = _attention_grads(ag.causal_attention, tq, 8, 2, tk=tk, dtype=np.float64)
    reference = _attention_grads(per_head_attention, tq, 8, 2, tk=tk, dtype=np.float64)
    for a, b in zip(tiled, reference):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-12


@pytest.mark.parametrize("tq, tk", [(131, 131), (129, 133)], ids=["t131", "tq129_tk133"])
def test_causal_attention_gradients_across_tiles(tq, tk):
    """Gradcheck past one tile. The step is 1e-5: at 1e-3 the finite
    difference error of these ~130-row cases is already about half the 1e-4
    bound (5e-5), at 1e-5 it is about 1e-6."""
    f, xs = _attention_case(tq, tk, 2)(np.random.default_rng(tq * 1000 + tk))
    assert ag.grad_check(f, xs, h=1e-5) <= 1e-4


def test_causal_attention_repeats_bitwise():
    """Two runs give the same bytes: the kernel's output and gradients over
    several tiles, and one SIFT batch's loss and adapter gradients on fresh
    models."""
    first, second = (_attention_grads(ag.causal_attention, 300, 64, 4) for _ in range(2))
    for a, b in zip(first, second):
        assert a.tobytes() == b.tobytes()

    config = TrainConfig(stage="sift", sift_mode="multi-round")
    streams = render_training_streams(build_dialogues(make_synthetic_corpus(n=4, seed=0)), ByteTokenizer(), config)
    assert max(len(s.rendered.token_ids) for s in streams) > 2 * ag._TILE
    runs = []
    for _ in range(2):
        model = LmModel(config.lm_config, seed=0, lora=config.lora_config)
        loss = sift_batch_loss(model, streams)
        runs.append((loss, [t.grad.tobytes() for t in model.adapter_parameters().values()]))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
@pytest.mark.parametrize("tq, tk", [(1, 1), (5, 5), (2 * ag._TILE + 1,) * 2], ids=["t1", "t5", "past_two_tiles"])
def test_causal_attention_query_of_one_key_gets_exactly_zero_grad(tq, tk, dtype):
    """Query row 0 sees one key and puts probability exactly 1 on it,
    whatever its score, so its q gradient is exactly 0, and at T=1 so is the
    k gradient. The kernel's row term Σⱼ dP′ᵢⱼ Eᵢⱼ cancels dP′ bit for bit
    there; FlashAttention-2's cheaper dO·O row term leaves rounding residue."""
    _, q_grad, k_grad, v_grad = _attention_grads(ag.causal_attention, tq, 64, 4, tk=tk, dtype=dtype)
    assert q_grad.dtype == k_grad.dtype == dtype
    assert np.all(q_grad[0] == 0.0)
    assert np.all(k_grad == 0.0) if tk == 1 else np.all(k_grad[0] != 0.0)
    assert np.all(v_grad[0] != 0.0)


def test_causal_attention_frozen_key_gets_no_grad():
    for t in (6, 300):
        out, q_grad, k_grad, v_grad = _attention_grads(ag.causal_attention, t, 8, 2)
        frozen = _attention_grads(ag.causal_attention, t, 8, 2, k_requires_grad=False)
        assert k_grad is not None and frozen[2] is None
        assert np.array_equal(frozen[0], out)
        assert np.array_equal(frozen[1], q_grad)
        assert np.array_equal(frozen[3], v_grad)


@pytest.mark.parametrize(
    "shapes, n_heads, match",
    [
        (((2, 3, 4),) * 3, 2, "T x d"),
        (((3, 4), (3, 4), (2, 4)), 2, "shapes differ"),
        (((3, 4), (3, 4), (3, 6)), 2, "shapes differ"),
        (((4, 4), (3, 4), (3, 4)), 2, "more query rows"),
        (((3, 4), (3, 6), (3, 6)), 2, "widths differ"),
        (((3, 6),) * 3, 4, "not divisible"),
        (((0, 4),) * 3, 2, "zero rows"),
    ],
    ids=[
        "not_2d", "shapes_differ", "kv_widths_differ", "more_queries_than_keys", "qk_widths_differ",
        "width_not_divisible", "zero_rows",
    ],
)
def test_causal_attention_rejects_bad_shapes(shapes, n_heads, match):
    rng = np.random.default_rng(9)
    with pytest.raises(ag.ShapeError, match=match):
        ag.causal_attention(*(rand(s, rng) for s in shapes), n_heads)


@pytest.mark.parametrize(
    "t, tq",
    [pytest.param(5, tq, id=str(tq)) for tq in (1, 3, 5)]
    + [pytest.param(300, tq, id=f"t300_tq{tq}") for tq in (1, 129, 172, 300)],
)
def test_causal_attention_suffix_queries_match_last_rows(t, tq):
    """Tq queries over Tk keys are the last Tq positions: their output equals
    the last Tq rows of full self-attention over the same keys, also where
    the two calls cut their query tiles at different positions."""
    rng = np.random.default_rng(10)
    q, k, v = (rand((t, 8), rng, dtype=np.float64) for _ in range(3))
    full = ag.causal_attention(q, k, v, 2).data
    suffix = ag.causal_attention(ag.slice_rows(q, t - tq, t), k, v, 2).data
    assert suffix.shape == (tq, 8)
    assert np.max(np.abs(suffix - full[t - tq:])) <= 1e-12


# --- fused linear, LoRA and MLP kernels against the composed ops --------------------


def _composed_linear(x, w, b):
    return ag.add(ag.matmul(x, ag.transpose(w)), b)


def _composed_lora(x, w0, a, b, s):
    delta = ag.matmul(ag.matmul(x, ag.transpose(a)), ag.transpose(b))
    return ag.add(ag.matmul(x, ag.transpose(w0)), ag.scale(delta, s))


def _composed_mlp(x, w1, b1, w2, b2):
    return _composed_linear(ag.relu(_composed_linear(x, w1, b1)), w2, b2)


T, D, R = 512, 64, 8
# (fused, composed, input shapes and init scales): the LM's shapes and init at
# d_model 64 (the GRU's composed reference is the GGNN's old per-op cell, with
# 512 node states); every input requires grad, so every branch of backward runs
PARITY_CASES = {
    "linear": (ag.linear, _composed_linear, [((T, D), 1.0), ((D, D), D**-0.5), ((D,), 0.1)]),
    "lora_linear": (
        lambda *xs: ag.lora_linear(*xs, 1.5),
        lambda *xs: _composed_lora(*xs, 1.5),
        [((T, D), 1.0), ((D, D), D**-0.5), ((R, D), 0.02), ((D, R), 0.3)],
    ),
    "mlp": (
        ag.mlp,
        _composed_mlp,
        [((T, D), 1.0), ((4 * D, D), D**-0.5), ((4 * D,), 0.1), ((D, 4 * D), (4 * D) ** -0.5), ((D,), 0.1)],
    ),
    "gru": (ag.gru, gru_update, [((T, D), 1.0), ((T, D), 1.0), ((3 * D, D), D**-0.5), ((3 * D, D), D**-0.5), ((3 * D,), 0.1)]),
}


def _output_and_grads(kernel, shapes, frozen=()):
    rng = np.random.default_rng(11)
    xs = [rand(shape, rng, scale=scale, requires_grad=i not in frozen) for i, (shape, scale) in enumerate(shapes)]
    out = kernel(*xs)
    upstream = Tensor(rng.standard_normal(out.shape), dtype=np.float32)
    ag.backward(ag.sum_all(ag.mul(out, upstream)))
    return out.data, [x.grad for x in xs]


@pytest.mark.parametrize("name", sorted(PARITY_CASES))
def test_fused_kernel_matches_composed_ops_float32(name):
    """At T = 512, d = 64 the fused kernel's output and the gradients of all
    its inputs stay within 1e-5 of the composed matmul/transpose/add/scale/relu
    (and mul/sigmoid/tanh) graph in float32."""
    fused, composed, shapes = PARITY_CASES[name]
    out, grads = _output_and_grads(fused, shapes)
    ref_out, ref_grads = _output_and_grads(composed, shapes)
    assert out.dtype == np.float32
    assert np.max(np.abs(out - ref_out)) <= 1e-5
    for g, ref in zip(grads, ref_grads):
        assert g.shape == ref.shape and g.dtype == np.float32
        assert np.max(np.abs(g - ref)) <= 1e-5


@pytest.mark.parametrize("name", sorted(PARITY_CASES))
def test_fused_kernel_frozen_weights_get_no_grad(name):
    """With every input but x frozen, as in the LM's base layers, the weights
    end with no gradient and x's gradient is unchanged."""
    fused, _, shapes = PARITY_CASES[name]
    _, grads = _output_and_grads(fused, shapes)
    _, frozen = _output_and_grads(fused, shapes, frozen=range(1, len(shapes)))
    assert all(g is None for g in frozen[1:])
    assert np.array_equal(frozen[0], grads[0])


@pytest.mark.parametrize(
    "kernel, shapes, match",
    [
        (ag.linear, [(3, 4), (5, 3)], "linear needs"),
        (ag.linear, [(2, 3, 4), (5, 4)], "linear needs"),
        (ag.linear, [(3, 4), (5, 4), (4,)], "linear bias"),
        (lambda x, w, a, b: ag.lora_linear(x, w, a, b, 1.0), [(3, 4), (5, 4), (2, 5), (5, 2)], "adapter shapes"),
        (lambda x, w, a, b: ag.lora_linear(x, w, a, b, 1.0), [(3, 4), (5, 4), (2, 4), (5, 3)], "adapter shapes"),
        (ag.mlp, [(3, 4), (6, 4), (6,), (2, 5), (2,)], "second layer"),
        (ag.mlp, [(3, 4), (6, 4), (6,), (2, 6), (3,)], "second layer"),
        (ag.mlp, [(3, 4), (6, 4), (5,), (2, 6), (2,)], "mlp bias"),
        (ag.gru, [(3, 4), (3, 5), (12, 4), (12, 4), (12,)], "gru needs"),
        (ag.gru, [(3, 4), (3, 4), (12, 4), (8, 4), (12,)], "gru weights"),
        (ag.gru, [(3, 4), (3, 4), (12, 4), (12, 4), (4,)], "gru weights"),
    ],
    ids=["linear_inner", "linear_3d", "linear_bias", "lora_a", "lora_b", "mlp_w2", "mlp_b2", "mlp_b1",
         "gru_message", "gru_u", "gru_bias"],
)
def test_fused_kernels_reject_bad_shapes(kernel, shapes, match):
    rng = np.random.default_rng(13)
    with pytest.raises(ag.ShapeError, match=match):
        kernel(*(rand(s, rng) for s in shapes))
