"""Gated graph network over CFG nodes carrying dataflow features.

A batch of graphs runs as one disjoint union: the node features stack, each
graph's in-edge counts (``adjacency``, built once with its features) form
one block-diagonal adjacency, and a [B x N] mean-pool matrix turns the final
node states into one row per graph. Each propagation step is three tape
nodes: the message MLP (``autograd.mlp``, its one hidden layer as wide as
the state) on every node state, the sum of the messages along in-edges (one
``matmul`` with the adjacency) and a GRU step (``autograd.gru``).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .dfa import N_CELLS
from .minic import ControlFlowGraph

__all__ = [
    "GgnnConfig",
    "Ggnn",
    "adjacency",
]

# CFG, node features [n x state_dim], in-edge counts [n x n] (``adjacency``)
GraphInputs = tuple[ControlFlowGraph, np.ndarray, np.ndarray]

# GgnnConfig's bound on ``steps``: no tensor holds the step count, so a
# checkpoint's payload cannot bound the work a forward does
MAX_STEPS = 64


@dataclass(frozen=True)
class GgnnConfig:
    state_dim: int = 16
    steps: int = 5

    def __post_init__(self):
        if self.state_dim < N_CELLS:  # the node features hold N_CELLS dataflow cells
            raise ValueError(f"GGNN state_dim must be >= {N_CELLS}, got {str(self.state_dim)[:80]}")
        if not 0 <= self.steps <= MAX_STEPS:
            raise ValueError(f"GGNN steps must be >= 0 and at most {MAX_STEPS}, got {str(self.steps)[:80]}")


def adjacency(n: int, edges: list[tuple[int, int]]) -> np.ndarray:
    """Dense in-edge counts of an ``n``-node graph: entry [dst, src] is the
    number of (src, dst) edges, so duplicate edges count twice (multiset
    semantics)."""
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    bad = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
    if bad.size:
        src, dst = pairs[bad[0]]
        raise ValueError(f"edge ({src}, {dst}) references missing node (n={n})")
    adj_t = np.zeros((n, n), dtype=np.float32)
    np.add.at(adj_t, (pairs[:, 1], pairs[:, 0]), 1.0)
    return adj_t


class Ggnn:
    """Message-passing network producing one embedding per graph, float32
    parameters; ``embed`` computes in the dtype of its parameters."""

    def __init__(self, config: GgnnConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        d = config.state_dim

        def mat(rows, cols):
            return rng.normal(0.0, cols**-0.5, size=(rows, cols)).astype(np.float32)

        def param(data):
            return Tensor(data, requires_grad=True)

        w1, w2 = mat(d, d), mat(d, d)
        self.mlp = (param(w1), param(np.zeros(d, np.float32)), param(w2), param(np.zeros(d, np.float32)))
        wz, uz, wr, ur, wc, uc = (mat(d, d) for _ in range(6))
        self.gru = (param(np.concatenate([wz, wr, wc])), param(np.concatenate([uz, ur, uc])),
                    param(np.zeros(3 * d, np.float32)))

    def parameters(self) -> dict[str, Tensor]:
        names = ("gnn.mlp.w1", "gnn.mlp.b1", "gnn.mlp.w2", "gnn.mlp.b2", "gnn.gru.w", "gnn.gru.u", "gnn.gru.b")
        return dict(zip(names, self.mlp + self.gru))

    def embed(self, graphs: list[GraphInputs | None]) -> Tensor:
        """The [B x state_dim] embeddings of B graphs: ``steps`` rounds of
        aggregate+update over their disjoint union, then each graph's mean
        node state. A None graph (the parse fallback) has no nodes and an
        all-zero pool row, so its embedding is exactly zero."""
        d, dtype = self.config.state_dim, self.mlp[0].dtype
        sizes = [0 if graph is None else len(graph[0].nodes) for graph in graphs]
        total = sum(sizes)
        h = Tensor(np.zeros((total, d), dtype=dtype))
        adj_t = np.zeros((total, total), dtype=dtype)
        pool = np.zeros((len(graphs), total), dtype=dtype)
        start = 0
        for i, (graph, n) in enumerate(zip(graphs, sizes)):
            if graph is None:
                continue
            _, features, graph_adj = graph
            if features.shape[0] != n:
                raise ValueError(f"features rows {features.shape[0]} != node count {n}")
            if graph_adj.shape != (n, n):
                raise ValueError(f"adjacency shape {graph_adj.shape} != node count {n}")
            if features.shape[1] != d:
                raise ValueError(f"feature width {features.shape[1]} != state dim {d}")
            h.data[start : start + n] = features
            adj_t[start : start + n, start : start + n] = graph_adj
            pool[i, start : start + n] = 1.0 / n
            start += n
        adj = Tensor(adj_t)
        for _ in range(self.config.steps):
            h = ag.gru(h, ag.matmul(adj, ag.mlp(h, *self.mlp)), *self.gru)
        return ag.matmul(Tensor(pool), h)

    def forward(self, cfg: ControlFlowGraph, features: np.ndarray, adj_t: np.ndarray) -> Tensor:
        """The [1 x state_dim] embedding of one graph: ``embed`` of a batch of one."""
        return self.embed([(cfg, features, adj_t)])
