"""The GGNN's formulas composed from autograd's elementwise ops, one graph at
a time: the reference that ``autograd.gru``, ``autograd.mlp`` and the batched
``Ggnn.embed`` are checked against. The packed GRU parameters are read through
``slice_rows``, so gradients of the reference reach the same tensors."""
import numpy as np

from msivd import autograd as ag
from msivd.autograd import Tensor
from msivd.gnn import GgnnConfig, adjacency

# The paper's GGNN: 256-wide states, so also one 256-wide MLP hidden layer.
# Bookkeeping only, as ``helpers_lm.PAPER_LM``.
PAPER_GGNN = GgnnConfig(state_dim=256)


def with_adjacency(cfg, features):
    """The graph inputs of ``cfg`` and its node features, as
    ``fusion.graph_inputs`` builds them."""
    return cfg, features, adjacency(len(cfg.nodes), cfg.edges)


def linear(x, w, b):
    return ag.add(ag.matmul(x, ag.transpose(w)), b)


def mlp_forward(x, w1, b1, w2, b2):
    """ReLU MLP with one hidden layer; the final layer is linear."""
    return linear(ag.relu(linear(x, w1, b1)), w2, b2)


def gru_update(state, message, w, u, b):
    """Standard GRU cell applied row-wise: update/reset gates, candidate,
    blend; the gates' weights are the z, r, candidate row blocks of w, u, b."""
    d = state.shape[1]
    wz, wr, wh, uz, ur, uh, bz, br, bh = (ag.slice_rows(p, i * d, (i + 1) * d) for p in (w, u, b) for i in range(3))
    z = ag.sigmoid(ag.add(ag.add(ag.matmul(message, ag.transpose(wz)), ag.matmul(state, ag.transpose(uz))), bz))
    r = ag.sigmoid(ag.add(ag.add(ag.matmul(message, ag.transpose(wr)), ag.matmul(state, ag.transpose(ur))), br))
    cand = ag.tanh(
        ag.add(ag.add(ag.matmul(message, ag.transpose(wh)), ag.matmul(ag.mul(r, state), ag.transpose(uh))), bh)
    )
    keep = ag.add(Tensor(np.ones(z.shape, dtype=z.dtype)), ag.scale(z, -1.0))  # 1 - z
    return ag.add(ag.mul(keep, state), ag.mul(z, cand))


def reference_embedding(gnn, graph):
    """[1 x state_dim] embedding of one graph by the composed formulas; a
    zero row for the fallback."""
    dtype = gnn.mlp[0].dtype
    if graph is None:
        return Tensor(np.zeros((1, gnn.config.state_dim), dtype=dtype))
    cfg, features, _ = graph
    n = len(cfg.nodes)
    h = Tensor(np.asarray(features, dtype=dtype))
    adj_t = Tensor(adjacency(n, cfg.edges).astype(dtype))
    for _ in range(gnn.config.steps):
        h = gru_update(h, ag.matmul(adj_t, mlp_forward(h, *gnn.mlp)), *gnn.gru)
    return ag.matmul(Tensor(np.full((1, n), 1.0 / n, dtype=dtype)), h)


def tape_nodes(out) -> int:
    """Recorded operations reachable from ``out``, ``out`` included."""
    seen, stack = set(), [out]
    while stack:
        t = stack.pop()
        if t._bw is not None and id(t) not in seen:
            seen.add(id(t))
            stack.extend(t._parents)
    return len(seen)
