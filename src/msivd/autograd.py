"""Dense tensors with recorded reverse-mode gradients.

Storage is 32-bit by default; gradient verification runs the same kernels on
64-bit tensors for headroom. Summation order inside every kernel is fixed
(numpy row-major), so identical inputs give bitwise-identical outputs.
``backward`` frees the recorded graph as it walks it, so its peak memory
stays near what the forward left allocated; afterwards only leaves (tensors
that no recorded operation produced) keep a ``grad``.
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
    cycle. ``backward`` drops each operation's rule, inputs and gradient once
    it has run the rule, so an intermediate tensor's data goes as soon as the
    walk is past it and nothing else holds it. Only leaves keep ``grad``, as
    PyTorch does for non-leaf tensors by default.
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


def draw(table, seed: int) -> dict[str, np.ndarray]:
    """The float32 value of each ``(name, shape, init)`` entry of a parameter
    table, in order: "zeros" and "ones" draw nothing; a float, or "fan_in" for
    ``shape[-1] ** -0.5``, is the std of a Gaussian drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    fills = {"zeros": 0.0, "ones": 1.0}
    return {
        name: np.full(shape, fills[init], np.float32) if init in fills
        else rng.normal(0.0, shape[-1] ** -0.5 if init == "fan_in" else init, shape).astype(np.float32)
        for name, shape, init in table
    }


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


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError as exc:
        raise ShapeError(f"add shapes incompatible: {a.shape} vs {b.shape}") from exc

    def bw(g):
        if a.requires_grad:
            _accum(a, _sum_to_shape(g, a.shape))
        if b.requires_grad:
            _accum(b, _sum_to_shape(g, b.shape))

    return _result(out, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data * b.data
    except ValueError as exc:
        raise ShapeError(f"mul shapes incompatible: {a.shape} vs {b.shape}") from exc

    def bw(g):
        if a.requires_grad:
            _accum(a, _sum_to_shape(g * b.data, a.shape))
        if b.requires_grad:
            _accum(b, _sum_to_shape(g * a.data, b.shape))

    return _result(out, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = a.data * a.data.dtype.type(c)

    def bw(g):
        _accum(a, g * a.data.dtype.type(c))

    return _result(out, (a,), bw)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e) at x >= 0 and e / (1 + e) below, e = exp(-|x|): no overflow,
    and 3.6x faster than boolean indexing on a 400 x 16 float32 array."""
    e = np.exp(-np.abs(x))
    den = 1.0 + e
    out = np.divide(1.0, den)
    np.divide(e, den, out=out, where=x < 0)
    return out


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)

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


_LAYER_NORM_EPS = 1e-5  # added to the variance under the square root


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then apply
    ``gain`` and ``bias``. Row means are BLAS mat-vecs with a 1/d vector:
    3.6x faster than numpy's mean over a 64-wide last axis (512 x 64
    float32, one BLAS thread)."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(f"layer_norm params must be ({d},), got {gain.shape}/{bias.shape}")
    mean = np.full(d, 1.0 / d, dtype=x.data.dtype)

    def row_mean(a):
        return np.matmul(a, mean)[..., None]

    xc = x.data - row_mean(x.data)
    inv = 1.0 / np.sqrt(row_mean(xc * xc) + x.data.dtype.type(_LAYER_NORM_EPS))
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def bw(g):
        lead = tuple(range(g.ndim - 1))
        if gain.requires_grad:
            _accum(gain, (g * xhat).sum(axis=lead))
        if bias.requires_grad:
            _accum(bias, g.sum(axis=lead))
        if x.requires_grad:
            dxhat = g * gain.data
            _accum(x, inv * (dxhat - row_mean(dxhat) - xhat * row_mean(dxhat * xhat)))

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


# Query rows per attention tile, and the -inf upper triangle of a tile's diagonal block.
# 64 rows measured fastest on a 2-core Xeon with one OpenBLAS thread: forward plus
# backward of 512 rows (d 64, 4 heads, float32) took 7% longer at 32 rows, 14% at 128
# and 49% at 256.
_TILE = 64
_DIAGONAL_MASK = np.triu(np.full((_TILE, _TILE), -np.inf, dtype=np.float32), k=1)
_DIAGONAL_MASK.flags.writeable = False


# Not in __all__: bench/tracer.py traces exactly __all__, pinned to BENCHMARK.json; its time shows under lm.self_s.
def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Multi-head causal attention of [Tq x d] queries over [Tk x d] keys and
    values, Tq <= Tk; the output is [Tq x d].

    Query row i sits at position Tk - Tq + i, so with Tq < Tk the queries are
    the last Tq positions of the sequence. Head h reads the h-th block of
    d / n_heads columns of q, k and v and computes
    softmax(q_h k_hᵀ / sqrt(d / n_heads) + mask) v_h, where the mask is -inf
    on keys after the query's position; the head outputs fill the same column
    blocks of the result.

    The heads are copied once into contiguous [H x T x dh] blocks (keys as
    [H x dh x Tk]), the 1/sqrt(d / n_heads) scale folded into the queries,
    so every batched matmul reads unit-stride operands; with one tile of
    queries only the queries are copied. Query rows go in tiles of
    ``_TILE`` (FlashAttention's tiling, without its online softmax). Tile
    [s, e) scores only the keys [0, Tk - Tq + e) that some row of it can
    see, so the masked triangle beyond the tile is never computed; inside
    that range only the tile's square diagonal block holds masked keys, and
    it gets the -inf upper triangle of one cached read-only array. The
    scores stay unnormalized, E = exp(S - rowmax), and only the [tile x dh]
    output is divided by the row sums l, a BLAS mat-vec with a ones vector
    (FlashAttention-2's deferred normalization). Backward keeps each tile's
    E and l; it divides the tile's upstream rows by l instead, takes the row
    terms Σⱼ dP′ᵢⱼ Eᵢⱼ as a batched mat-vec, so a row that sees one key gets
    a q/k gradient of exactly 0, writes the tile's dQ rows and accumulates
    dK and dV over the tile's key prefix, for the inputs that require grad.
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
    dtype = q.data.dtype
    c = dtype.type(1.0 / math.sqrt(dh))

    def split(x):  # [T x d] -> [H x T x dh], a view
        return x.reshape(x.shape[0], n_heads, dh).transpose(1, 0, 2)

    def merge(x):  # [H x T x dh] -> [T x d]
        return x.transpose(1, 0, 2).reshape(x.shape[1], d)

    # One tile reads k and v once, and copying them costs more than unit strides
    # save there: one query over 400 keys took 32 us on views, 82 us on copies (same host).
    layout = np.ascontiguousarray if tq > _TILE else np.asarray
    qh = np.ascontiguousarray(split(q.data * c))
    kt = layout(split(k.data).transpose(0, 2, 1))
    kh = np.swapaxes(kt, -1, -2)
    vh = layout(split(v.data))
    ones = np.ones(tk, dtype=dtype)
    tiles = []  # (s, e, E [H x (e - s) x (Tk - Tq + e)], l [H x (e - s) x 1])
    out = np.empty((tq, d), dtype=dtype)
    oh = split(out)
    for s in range(0, tq, _TILE):
        e = min(s + _TILE, tq)
        n = tk - tq + e
        p = np.matmul(qh[:, s:e], kt[:, :, :n])
        p[:, :, n - (e - s):] += _DIAGONAL_MASK[: e - s, : e - s]
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        rows = np.matmul(p, ones[:n])[..., None]
        np.divide(np.matmul(p, vh[:, :n]), rows, out=oh[:, s:e])
        tiles.append((s, e, p, rows))

    def bw(g):
        g = split(g)
        dq = np.empty_like(qh) if q.requires_grad else None
        dk = np.zeros(kh.shape, dtype=dtype) if k.requires_grad else None
        dv = np.zeros_like(vh) if v.requires_grad else None
        for s, e, p, rows in tiles:
            n = tk - tq + e
            gt = g[:, s:e] / rows  # dO / l: P = E / l
            if dv is not None:
                dv[:, :n] += np.matmul(np.swapaxes(p, -1, -2), gt)
            if dq is not None or dk is not None:
                ds = np.matmul(gt, np.swapaxes(vh[:, :n], -1, -2))  # dP′ = dP / l
                rt = np.matmul(ds[..., None, :], p[..., :, None])[..., 0]  # row terms Σⱼ dP′ᵢⱼ Eᵢⱼ
                rt /= rows
                ds -= rt
                ds *= p
                if dq is not None:
                    dq[:, s:e] = np.matmul(ds, kh[:, :n])
                if dk is not None:
                    dk[:, :n] += np.matmul(np.swapaxes(ds, -1, -2), qh[:, s:e])
        if dq is not None:
            dq *= c
        for t, dt in ((q, dq), (k, dk), (v, dv)):
            if dt is not None:
                _accum(t, merge(dt))

    return _result(out, (q, k, v), bw)


def _check_weight(kernel: str, x: Tensor, w: Tensor, b: Tensor | None = None) -> None:
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"{kernel} needs [T x d_in] @ [d_out x d_in]ᵀ, got {x.shape}, {w.shape}")
    if b is not None and b.shape != (w.shape[0],):
        raise ShapeError(f"{kernel} bias must be ({w.shape[0]},), got {b.shape}")


# Not in __all__, like causal_attention and for its reason; neither are lora_linear, mlp and gru.
def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x·wᵀ + b for [T x d_in] x and a [d_out x d_in] weight, one tape node."""
    _check_weight("linear", x, w, b)
    out = np.matmul(x.data, w.data.T)
    if b is not None:
        out += b.data

    def bw(g):
        if x.requires_grad:
            _accum(x, np.matmul(g, w.data))
        if w.requires_grad:
            _accum(w, np.matmul(g.T, x.data))
        if b is not None and b.requires_grad:
            _accum(b, g.sum(axis=0))

    return _result(out, (x, w) if b is None else (x, w, b), bw)


def lora_linear(x: Tensor, w0: Tensor, a: Tensor, b: Tensor, s: float) -> Tensor:
    """x·w0ᵀ + s·(x·aᵀ)·bᵀ for a [d_out x d_in] weight w0 and its rank-r
    adapter, a [r x d_in] and b [d_out x r], one tape node. Backward keeps
    only x and the [T x r] product x·aᵀ."""
    _check_weight("lora_linear", x, w0)
    if a.ndim != 2 or a.shape[1] != w0.shape[1] or b.shape != (w0.shape[0], a.shape[0]):
        raise ShapeError(f"lora_linear adapter shapes {a.shape}, {b.shape} do not fit weight {w0.shape}")
    s = x.data.dtype.type(s)
    xa = np.matmul(x.data, a.data.T)
    out = np.matmul(x.data, w0.data.T)
    delta = np.matmul(xa, b.data.T)
    delta *= s
    out += delta

    def bw(g):
        gs = g * s
        gxa = np.matmul(gs, b.data)  # d(loss)/d(x·aᵀ)
        if x.requires_grad:
            dx = np.matmul(g, w0.data)
            dx += np.matmul(gxa, a.data)
            _accum(x, dx)
        if w0.requires_grad:
            _accum(w0, np.matmul(g.T, x.data))
        if a.requires_grad:
            _accum(a, np.matmul(gxa.T, x.data))
        if b.requires_grad:
            _accum(b, np.matmul(gs.T, xa))

    return _result(out, (x, w0, a, b), bw)


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """relu(x·w1ᵀ + b1)·w2ᵀ + b2, one tape node. The ReLU and both biases
    are applied in place; backward keeps only x and the post-ReLU hidden."""
    _check_weight("mlp", x, w1, b1)
    if w2.ndim != 2 or w2.shape[1] != w1.shape[0] or b2.shape != (w2.shape[0],):
        raise ShapeError(f"mlp second layer {w2.shape}, {b2.shape} does not take the {w1.shape[0]}-wide hidden")
    hidden = np.matmul(x.data, w1.data.T)
    hidden += b1.data
    np.maximum(hidden, 0, out=hidden)
    out = np.matmul(hidden, w2.data.T)
    out += b2.data

    def bw(g):
        if w2.requires_grad:
            _accum(w2, np.matmul(g.T, hidden))
        if b2.requires_grad:
            _accum(b2, g.sum(axis=0))
        gh = np.matmul(g, w2.data)
        gh *= hidden > 0
        if x.requires_grad:
            _accum(x, np.matmul(gh, w1.data))
        if w1.requires_grad:
            _accum(w1, np.matmul(gh.T, x.data))
        if b1.requires_grad:
            _accum(b1, gh.sum(axis=0))

    return _result(out, (x, w1, b1, w2, b2), bw)


def gru(h: Tensor, m: Tensor, w: Tensor, u: Tensor, b: Tensor) -> Tensor:
    """One GRU step of [N x d] states ``h`` under [N x d] messages ``m``, one
    tape node: z = σ(m·w_zᵀ + h·u_zᵀ + b_z), r = σ(m·w_rᵀ + h·u_rᵀ + b_r),
    c = tanh(m·w_cᵀ + (r ⊙ h)·u_cᵀ + b_c), out = (1 − z) ⊙ h + z ⊙ c. The
    gates' weights are packed z, r, c into [3d x d] ``w`` and ``u`` and [3d] ``b``."""
    if h.shape != m.shape or h.ndim != 2:
        raise ShapeError(f"gru needs [N x d] states and messages of one shape, got {h.shape}, {m.shape}")
    d = h.shape[1]
    if w.shape != (3 * d, d) or u.shape != (3 * d, d) or b.shape != (3 * d,):
        raise ShapeError(f"gru weights must be ({3 * d}, {d}) and bias ({3 * d},), got {w.shape}, {u.shape}, {b.shape}")
    gates = np.matmul(m.data, w.data.T)
    gates += b.data
    gates[:, : 2 * d] += np.matmul(h.data, u.data[: 2 * d].T)
    z, r = _sigmoid(gates[:, :d]), _sigmoid(gates[:, d : 2 * d])
    rh = r * h.data
    c = np.tanh(gates[:, 2 * d :] + np.matmul(rh, u.data[2 * d :].T))
    out = h.data + z * (c - h.data)

    def bw(g):
        dc = g * z * (1 - c * c)
        drh = np.matmul(dc, u.data[2 * d :])
        dzr = np.concatenate([g * (c - h.data) * z * (1 - z), drh * h.data * r * (1 - r)], axis=1)
        dgates = np.concatenate([dzr, dc], axis=1)
        if h.requires_grad:
            _accum(h, g * (1 - z) + drh * r + np.matmul(dzr, u.data[: 2 * d]))
        if m.requires_grad:
            _accum(m, np.matmul(dgates, w.data))
        if w.requires_grad:
            _accum(w, np.matmul(dgates.T, m.data))
        if u.requires_grad:
            _accum(u, np.concatenate([np.matmul(dzr.T, h.data), np.matmul(dc.T, rh)]))
        if b.requires_grad:
            _accum(b, dgates.sum(axis=0))

    return _result(out, (h, m, w, u, b), bw)


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
    and its rule is called with that output's gradient. Before the call the
    operation's rule, inputs and gradient are taken off its output, so the
    rule's saved buffers and the gradient go when it returns: the walk frees
    the graph as it goes, and afterwards only leaves hold a ``grad`` (the
    loss and every intermediate tensor hold None). The loss is marked
    consumed before the walk starts, so a second call on it raises, even
    after a rule raised partway.
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

    loss._consumed = True
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._bw is None:
            continue
        bw, g = node._bw, node.grad
        node._bw, node._parents, node.grad = None, (), None
        bw(g)


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
