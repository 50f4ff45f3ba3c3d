"""Dense tensors with recorded reverse-mode gradients.

Storage is 32-bit by default; gradient verification runs the same kernels on
64-bit tensors for headroom. Summation order inside every kernel is fixed
(numpy row-major), so identical inputs give bitwise-identical outputs.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "TapeError",
    "matmul",
    "transpose",
    "add",
    "mul",
    "scale",
    "sigmoid",
    "tanh",
    "relu",
    "concat_last_dim",
    "slice_last_dim",
    "slice_rows",
    "expand_row",
    "select_row",
    "embedding_lookup",
    "layer_norm",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "sum_all",
    "backward",
    "grad_check",
]


class ShapeError(ValueError):
    """Raised when kernel inputs have incompatible shapes."""


class TapeError(RuntimeError):
    """Raised on misuse of the recorded operation tape."""


class Tensor:
    """A dense float array plus an optional gradient buffer.

    Operations on tensors record their backward rule; ``backward`` on a
    scalar result replays the recorded tape once, accumulating into the
    ``grad`` buffer of every ``requires_grad`` tensor it reaches. A rule is
    passed its output's gradient and holds only its inputs, so a graph has no
    cycle and reference counting frees it when its last tensor goes.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_bw", "_consumed")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if dtype is not None:
            arr = np.asarray(data, dtype=dtype)
        elif isinstance(data, (np.ndarray, np.floating)) and data.dtype in (np.float32, np.float64):
            arr = np.asarray(data)
        else:
            arr = np.asarray(data, dtype=np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._bw = None
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def _result(data: np.ndarray, parents: tuple[Tensor, ...], bw) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._bw = bw
    return out


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=True)
    else:
        t.grad += g


def _sum_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the original operand shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes must broadcast."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    try:
        out = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"matmul batch dims differ: {a.shape} @ {b.shape}") from exc

    def bw(g):
        if a.requires_grad:
            _accum(a, _sum_to_shape(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        if b.requires_grad:
            _accum(b, _sum_to_shape(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

    return _result(out, (a, b), bw)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.ndim < 2:
        raise ShapeError(f"transpose needs >=2-d operand, got {a.shape}")
    out = np.swapaxes(a.data, -1, -2)

    def bw(g):
        _accum(a, np.swapaxes(g, -1, -2))

    return _result(out, (a,), bw)


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as exc:
        raise ShapeError(f"{op} shapes incompatible: {a.shape} vs {b.shape}") from exc


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    out = a.data + b.data

    def bw(g):
        _accum(a, _sum_to_shape(g, a.shape))
        _accum(b, _sum_to_shape(g, b.shape))

    return _result(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")
    out = a.data * b.data

    def bw(g):
        _accum(a, _sum_to_shape(g * b.data, a.shape))
        _accum(b, _sum_to_shape(g * a.data, b.shape))

    return _result(out, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = a.data * a.data.dtype.type(c)

    def bw(g):
        _accum(a, g * a.data.dtype.type(c))

    return _result(out, (a,), bw)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)

    def bw(g):
        _accum(a, g * out * (1.0 - out))

    return _result(out, (a,), bw)


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)

    def bw(g):
        _accum(a, g * (1.0 - out * out))

    return _result(out, (a,), bw)


def relu(a: Tensor) -> Tensor:
    out = np.maximum(a.data, 0)

    def bw(g):
        _accum(a, g * (a.data > 0))

    return _result(out, (a,), bw)


def concat_last_dim(tensors) -> Tensor:
    ts = list(tensors)
    if not ts:
        raise ShapeError("concat_last_dim of zero tensors")
    lead = ts[0].shape[:-1]
    for t in ts[1:]:
        if t.shape[:-1] != lead:
            raise ShapeError(
                f"concat_last_dim leading dims differ: {ts[0].shape} vs {t.shape}"
            )
    out = np.concatenate([t.data for t in ts], axis=-1)

    def bw(g):
        off = 0
        for t in ts:
            w = t.shape[-1]
            _accum(t, g[..., off : off + w])
            off += w

    return _result(out, tuple(ts), bw)


def slice_last_dim(a: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start <= stop <= a.shape[-1]):
        raise ShapeError(f"slice_last_dim [{start}:{stop}] out of range for {a.shape}")
    out = a.data[..., start:stop].copy()

    def bw(g):
        full = np.zeros_like(a.data)
        full[..., start:stop] = g
        _accum(a, full)

    return _result(out, (a,), bw)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    if not (0 <= start <= stop <= a.shape[0]):
        raise ShapeError(f"slice_rows [{start}:{stop}] out of range for {a.shape}")
    out = a.data[start:stop].copy()

    def bw(g):
        full = np.zeros_like(a.data)
        full[start:stop] = g
        _accum(a, full)

    return _result(out, (a,), bw)


def expand_row(a: Tensor) -> Tensor:
    """View a 1-d vector [n] as a single-row matrix [1 x n]."""
    if a.ndim != 1:
        raise ShapeError(f"expand_row needs a 1-d vector, got {a.shape}")
    out = a.data.reshape(1, -1).copy()

    def bw(g):
        _accum(a, g.reshape(-1))

    return _result(out, (a,), bw)


def select_row(a: Tensor, index: int) -> Tensor:
    if not (0 <= index < a.shape[0]):
        raise ShapeError(f"select_row {index} out of range for {a.shape}")
    out = a.data[index].copy()

    def bw(g):
        full = np.zeros_like(a.data)
        full[index] = g
        _accum(a, full)

    return _result(out, (a,), bw)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    ids = np.asarray(ids, dtype=np.int64)
    if table.ndim != 2:
        raise ShapeError(f"embedding table must be 2-d, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(f"ids out of range for table of {table.shape[0]} rows")
    out = table.data[ids]

    def bw(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        _accum(table, full)

    return _result(out, (table,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm params must be ({d},), got {gain.shape}/{bias.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + x.data.dtype.type(eps))
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def bw(g):
        lead = tuple(range(g.ndim - 1))
        _accum(gain, (g * xhat).sum(axis=lead))
        _accum(bias, g.sum(axis=lead))
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _accum(x, inv * (dxhat - m1 - xhat * m2))

    return _result(out, (x, gain, bias), bw)


def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction.

    Rows may contain -inf entries (attention masking); those positions get
    exactly zero weight.
    """
    m = np.max(x.data, axis=-1, keepdims=True)
    e = np.exp(x.data - m)
    out = e / e.sum(axis=-1, keepdims=True)

    def bw(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        _accum(x, out * (g - dot))

    return _result(out, (x,), bw)


# Not in __all__: bench/tracer.py traces exactly __all__, pinned to BENCHMARK.json; its time shows under lm.self_s.
def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Multi-head causal attention of [Tq x d] queries over [Tk x d] keys and
    values, Tq <= Tk; the output is [Tq x d].

    Query row i sits at position Tk - Tq + i, so with Tq < Tk the queries are
    the last Tq positions of the sequence. Head h reads the h-th block of
    d / n_heads columns of q, k and v and computes
    softmax(q_h k_hᵀ / sqrt(d / n_heads) + mask) v_h, where the mask is -inf
    on keys after the query's position; the head outputs fill the same column
    blocks of the result. Only the attention probabilities are kept for
    backward.
    """
    if q.ndim != 2 or k.ndim != 2:
        raise ShapeError(f"causal_attention needs [T x d] inputs, got {q.shape}, {k.shape}")
    if v.shape != k.shape:
        raise ShapeError(f"causal_attention k/v shapes differ: {k.shape}, {v.shape}")
    (tq, d), tk = q.shape, k.shape[0]
    if k.shape[1] != d:
        raise ShapeError(f"causal_attention q/k widths differ: {q.shape}, {k.shape}")
    if tq > tk:
        raise ShapeError(f"causal_attention has more query rows than keys: {q.shape}, {k.shape}")
    if tq == 0:
        raise ShapeError("causal_attention on zero rows")
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"causal_attention width {d} not divisible by n_heads {n_heads}")
    dh = d // n_heads
    c = q.data.dtype.type(1.0 / math.sqrt(dh))

    def split(x):  # [T x d] -> [H x T x dh]
        return x.reshape(x.shape[0], n_heads, dh).transpose(1, 0, 2)

    def merge(x):  # [H x T x dh] -> [T x d]
        return x.transpose(1, 0, 2).reshape(x.shape[1], d)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    p = np.matmul(qh, np.swapaxes(kh, -1, -2))
    p *= c
    p += np.triu(np.full((tq, tk), -np.inf, dtype=p.dtype), k=tk - tq + 1)
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = merge(np.matmul(p, vh))

    def bw(g):
        g = split(g)
        if v.requires_grad:
            _accum(v, merge(np.matmul(np.swapaxes(p, -1, -2), g)))
        if q.requires_grad or k.requires_grad:
            ds = np.matmul(g, np.swapaxes(vh, -1, -2))
            ds -= (ds * p).sum(axis=-1, keepdims=True)
            ds *= p
            ds *= c
            if q.requires_grad:
                _accum(q, merge(np.matmul(ds, kh)))
            if k.requires_grad:
                _accum(k, merge(np.swapaxes(np.matmul(np.swapaxes(qh, -1, -2), ds), -1, -2)))

    return _result(out, (q, k, v), bw)


def log_softmax(x: Tensor) -> Tensor:
    m = np.max(x.data, axis=-1, keepdims=True)
    shifted = x.data - m
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    out = shifted - lse

    def bw(g):
        sm = np.exp(out)
        _accum(x, g - sm * g.sum(axis=-1, keepdims=True))

    return _result(out, (x,), bw)


def cross_entropy(logits: Tensor, targets, weights) -> Tensor:
    """Weighted negative log-likelihood Σᵢ wᵢ·(−log softmax(logitsᵢ)[targetᵢ]).

    ``logits`` is [T x V]; ``targets`` holds T token ids and ``weights`` T
    row weights. A row of weight 0 adds nothing and gets zero gradient; at
    least one weight must be nonzero.
    """
    targets = np.asarray(targets, dtype=np.int64)
    weights = np.asarray(weights, dtype=logits.data.dtype)
    if logits.ndim != 2:
        raise ShapeError(f"cross_entropy expects [T x V] logits, got {logits.shape}")
    t = logits.shape[0]
    if targets.shape != (t,) or weights.shape != (t,):
        raise ShapeError(
            f"cross_entropy length mismatch: logits {logits.shape}, "
            f"targets {targets.shape}, weights {weights.shape}"
        )
    if targets.size and (targets.min() < 0 or targets.max() >= logits.shape[1]):
        raise ShapeError(f"targets out of range for vocab {logits.shape[1]}")
    if not weights.any():
        raise ShapeError("cross_entropy: all weights are zero")

    rows = np.arange(t)
    logp = logits.data - np.max(logits.data, axis=-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))
    out = np.asarray(-(weights * logp[rows, targets]).sum(), dtype=logits.data.dtype)

    def bw(g):
        d = np.exp(logp)
        d[rows, targets] -= 1.0
        d *= (weights * g)[:, None]
        _accum(logits, d)

    return _result(out, (logits,), bw)


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum(), dtype=a.data.dtype)

    def bw(g):
        _accum(a, np.full_like(a.data, float(g)))

    return _result(out, (a,), bw)


def backward(loss: Tensor) -> None:
    """Run the recorded tape in reverse from a scalar loss.

    Each recorded operation is visited once, after all that read its output,
    and its rule is called with that output's gradient; afterwards the tape
    is consumed and a second call on the same loss raises.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss._consumed:
        raise TapeError("backward called twice on a consumed tape")
    if not loss.requires_grad:
        raise TapeError("loss does not require grad; nothing recorded")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._bw is not None:
            node._bw(node.grad)
    loss._consumed = True


def grad_check(f, xs, h: float = 1e-3, tol: float | None = None) -> float:
    """Compare analytic gradients of ``f`` against central differences.

    ``f`` maps the given tensors to a scalar Tensor. The check clones every
    input to 64-bit, so pass tensors whose values ``f`` reads directly (model
    parameters included). Returns the maximum relative error
    ``|a - n| / (|a| + |n| + 1e-12)``; raises AssertionError when ``tol`` is
    given and exceeded.
    """
    if isinstance(xs, Tensor):
        xs = [xs]
    clones = [Tensor(x.data.astype(np.float64), requires_grad=True) for x in xs]
    loss = f(*clones)
    backward(loss)
    analytic = [
        c.grad if c.grad is not None else np.zeros_like(c.data) for c in clones
    ]

    max_err = 0.0
    for ci, c in enumerate(clones):
        flat = c.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f(*clones).item()
            flat[i] = orig - h
            fm = f(*clones).item()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * h)
            a = float(analytic[ci].reshape(-1)[i])
            err = abs(a - numeric) / (abs(a) + abs(numeric) + 1e-12)
            max_err = max(max_err, err)
    if tol is not None and max_err > tol:
        raise AssertionError(f"grad_check failed: max relative error {max_err:.3e} > {tol:.3e}")
    return max_err
