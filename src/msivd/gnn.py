"""Gated graph network over CFG nodes carrying dataflow features.

Messages are MLP-transformed neighbor states summed along edge direction;
node updates run a standard GRU cell; the graph embedding is the mean-pooled
final node state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .minic import ControlFlowGraph

__all__ = [
    "GgnnConfig",
    "GruParams",
    "Ggnn",
    "adjacency",
    "mlp_aggregate",
    "gru_update",
]


@dataclass(frozen=True)
class GgnnConfig:
    state_dim: int = 16
    steps: int = 5
    mlp_hidden: tuple[int, ...] = (16,)

    def __post_init__(self):
        if self.state_dim <= 0 or any(h <= 0 for h in self.mlp_hidden):
            raise ValueError("GGNN dims must be positive")
        if self.steps < 0:
            raise ValueError(f"GGNN steps must be >= 0, got {self.steps}")

    @classmethod
    def paper(cls) -> "GgnnConfig":
        """The paper's dimensions: 256-wide states and one 256-wide MLP hidden layer."""
        return cls(state_dim=256, mlp_hidden=(256,))


@dataclass
class GruParams:
    wz: Tensor
    uz: Tensor
    bz: Tensor
    wr: Tensor
    ur: Tensor
    br: Tensor
    wh: Tensor
    uh: Tensor
    bh: Tensor

    def tensors(self) -> dict[str, Tensor]:
        return {k: getattr(self, k) for k in ("wz", "uz", "bz", "wr", "ur", "br", "wh", "uh", "bh")}


def mlp_forward(x: Tensor, layers: list[tuple[Tensor, Tensor]]) -> Tensor:
    """ReLU MLP; the final layer is linear."""
    h = x
    for i, (w, b) in enumerate(layers):
        h = ag.add(ag.matmul(h, ag.transpose(w)), b)
        if i < len(layers) - 1:
            h = ag.relu(h)
    return h


def adjacency(n: int, edges: list[tuple[int, int]], dtype=np.float32) -> np.ndarray:
    """Dense in-edge counts of an ``n``-node graph: entry [dst, src] is the
    number of (src, dst) edges, so duplicate edges count twice (multiset
    semantics)."""
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    bad = np.flatnonzero(((pairs < 0) | (pairs >= n)).any(axis=1))
    if bad.size:
        src, dst = pairs[bad[0]]
        raise ValueError(f"edge ({src}, {dst}) references missing node (n={n})")
    adj_t = np.zeros((n, n), dtype=dtype)
    np.add.at(adj_t, (pairs[:, 1], pairs[:, 0]), 1.0)
    return adj_t


def mlp_aggregate(
    states: Tensor,
    adj_t: np.ndarray,
    mlp_layers: list[tuple[Tensor, Tensor]],
) -> Tensor:
    """Per-node incoming message: sum over in-neighbors of MLP(state), with
    the in-neighbors given as ``adjacency`` counts; isolated nodes get a zero
    message."""
    transformed = mlp_forward(states, mlp_layers)
    return ag.matmul(Tensor(adj_t), transformed)


def gru_update(state: Tensor, message: Tensor, p: GruParams) -> Tensor:
    """Standard GRU cell applied row-wise: update/reset gates, candidate, blend."""
    if state.shape != message.shape:
        raise ag.ShapeError(f"gru dims differ: state {state.shape} vs message {message.shape}")
    z = ag.sigmoid(ag.add(ag.add(ag.matmul(message, ag.transpose(p.wz)), ag.matmul(state, ag.transpose(p.uz))), p.bz))
    r = ag.sigmoid(ag.add(ag.add(ag.matmul(message, ag.transpose(p.wr)), ag.matmul(state, ag.transpose(p.ur))), p.br))
    cand = ag.tanh(
        ag.add(ag.add(ag.matmul(message, ag.transpose(p.wh)), ag.matmul(ag.mul(r, state), ag.transpose(p.uh))), p.bh)
    )
    keep = ag.add(Tensor(np.ones(z.shape, dtype=z.dtype)), ag.scale(z, -1.0))  # 1 - z
    return ag.add(ag.mul(keep, state), ag.mul(z, cand))


class Ggnn:
    """Message-passing network producing one embedding per graph."""

    def __init__(self, config: GgnnConfig, seed: int = 0, dtype=np.float32):
        self.config = config
        rng = np.random.default_rng(seed)
        d = config.state_dim

        def mat(rows, cols, std):
            return Tensor(rng.normal(0.0, std, size=(rows, cols)).astype(dtype), requires_grad=True)

        def vec(n):
            return Tensor(np.zeros(n, dtype=dtype), requires_grad=True)

        dims = [d, *config.mlp_hidden, d]
        self.mlp_layers = [
            (mat(dims[i + 1], dims[i], dims[i] ** -0.5), vec(dims[i + 1])) for i in range(len(dims) - 1)
        ]
        self.gru = GruParams(
            wz=mat(d, d, d**-0.5), uz=mat(d, d, d**-0.5), bz=vec(d),
            wr=mat(d, d, d**-0.5), ur=mat(d, d, d**-0.5), br=vec(d),
            wh=mat(d, d, d**-0.5), uh=mat(d, d, d**-0.5), bh=vec(d),
        )

    def parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {}
        for i, (w, b) in enumerate(self.mlp_layers):
            params[f"gnn.mlp{i}.w"] = w
            params[f"gnn.mlp{i}.b"] = b
        for name, t in self.gru.tensors().items():
            params[f"gnn.gru.{name}"] = t
        return params

    def forward(self, cfg: ControlFlowGraph, features: np.ndarray) -> Tensor:
        """Run ``steps`` rounds of aggregate+update and mean-pool the node
        states into one [1 x state_dim] row."""
        n = len(cfg.nodes)
        if features.shape[0] != n:
            raise ValueError(f"features rows {features.shape[0]} != node count {n}")
        if features.shape[1] != self.config.state_dim:
            raise ValueError(f"feature width {features.shape[1]} != state dim {self.config.state_dim}")
        h = Tensor(np.asarray(features, dtype=self.mlp_layers[0][0].dtype))
        adj_t = adjacency(n, cfg.edges, dtype=h.dtype)
        for _ in range(self.config.steps):
            msg = mlp_aggregate(h, adj_t, self.mlp_layers)
            h = gru_update(h, msg, self.gru)
        return ag.matmul(Tensor(np.full((1, n), 1.0 / n, dtype=h.dtype)), h)
