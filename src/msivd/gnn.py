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
    parameters from ``weights`` keyed by ``table``'s names, or drawn from
    ``seed``; ``embed`` computes in the dtype of its parameters."""

    def __init__(self, config: GgnnConfig, seed: int = 0, weights: dict[str, np.ndarray] | None = None):
        self.config = config
        if weights is None:
            weights = ag.draw(self.table(config), seed)
            # the GRU's six matrices are drawn wz, uz, wr, ur, wc, uc and pack as [wz; wr; wc] and [uz; ur; uc]
            gates = np.concatenate([weights["gnn.gru.w"], weights["gnn.gru.u"]]).reshape(6, -1, config.state_dim)
            weights["gnn.gru.w"], weights["gnn.gru.u"] = (np.concatenate(gates[i::2]) for i in (0, 1))
        params = [Tensor(weights[name], requires_grad=True) for name, _, _ in self.table(config)]
        self.mlp, self.gru = tuple(params[:4]), tuple(params[4:])

    @staticmethod
    def table(config: GgnnConfig) -> list[tuple[str, tuple[int, ...], str]]:
        """Each parameter's checkpoint name, shape and initial draw (``autograd.draw``)."""
        d = config.state_dim
        return [("gnn.mlp.w1", (d, d), "fan_in"), ("gnn.mlp.b1", (d,), "zeros"),
                ("gnn.mlp.w2", (d, d), "fan_in"), ("gnn.mlp.b2", (d,), "zeros"),
                ("gnn.gru.w", (3 * d, d), "fan_in"), ("gnn.gru.u", (3 * d, d), "fan_in"),
                ("gnn.gru.b", (3 * d,), "zeros")]

    def parameters(self) -> dict[str, Tensor]:
        return {name: t for (name, _, _), t in zip(self.table(self.config), self.mlp + self.gru)}

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
