import gc
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_attention import per_head_attention
from msivd import autograd as ag
from msivd.autograd import Tensor
from msivd.lm import ByteTokenizer, LmModel, LoraConfig, TransformerConfig


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


@pytest.mark.parametrize("name", sorted(KERNEL_CASES))
def test_backward_leaves_no_cyclic_garbage(name):
    def build():
        f, xs = KERNEL_CASES[name](np.random.default_rng(0))
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


def _attention_grads(attend, t, d, n_heads, k_requires_grad=True):
    """Output and q/k/v gradients of ``attend`` under one fixed upstream gradient."""
    rng = np.random.default_rng(8)
    q, k, v = (rand((t, d), rng) for _ in range(3))
    k.requires_grad = k_requires_grad
    upstream = Tensor(rng.standard_normal((t, d)).astype(np.float32))
    out = attend(q, k, v, n_heads)
    ag.backward(ag.sum_all(ag.mul(out, upstream)))
    return out.data, q.grad, k.grad, v.grad


def test_causal_attention_matches_per_head_composition_bitwise():
    fused = _attention_grads(ag.causal_attention, 512, 64, 4)
    reference = _attention_grads(per_head_attention, 512, 64, 4)
    assert fused[0].dtype == np.float32
    for a, b in zip(fused, reference):
        assert np.array_equal(a, b)


def test_causal_attention_frozen_key_gets_no_grad():
    out, q_grad, k_grad, v_grad = _attention_grads(ag.causal_attention, 6, 8, 2)
    frozen = _attention_grads(ag.causal_attention, 6, 8, 2, k_requires_grad=False)
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


@pytest.mark.parametrize("tq", [1, 3, 5])
def test_causal_attention_suffix_queries_match_last_rows(tq):
    """Tq queries over Tk keys are the last Tq positions: their output equals
    the last Tq rows of full self-attention over the same keys."""
    rng = np.random.default_rng(10)
    q, k, v = (rand((5, 8), rng, dtype=np.float64) for _ in range(3))
    full = ag.causal_attention(q, k, v, 2).data
    suffix = ag.causal_attention(ag.slice_rows(q, 5 - tq, 5), k, v, 2).data
    assert suffix.shape == (tq, 8)
    assert np.max(np.abs(suffix - full[5 - tq:])) <= 1e-12
