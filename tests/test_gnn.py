import numpy as np
import pytest

from msivd import autograd as ag
from msivd.autograd import Tensor
from msivd.gnn import Ggnn, GgnnConfig, GruParams, adjacency, gru_update, mlp_aggregate, mlp_forward
from msivd.minic import CfgNode, ControlFlowGraph


def chain_cfg(n):
    nodes = [CfgNode(id=0, kind="entry")]
    nodes += [CfgNode(id=i, kind="assign", defines="x") for i in range(1, n - 1)]
    nodes.append(CfgNode(id=n - 1, kind="exit"))
    edges = [(i, i + 1) for i in range(n - 1)]
    return ControlFlowGraph(nodes=nodes, edges=edges, entry=0, exit=n - 1)


def tiny_mlp(rng, dim, dtype=np.float32):
    w1 = Tensor(rng.normal(0, 0.4, (dim, dim)).astype(dtype), requires_grad=True)
    b1 = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)
    w2 = Tensor(rng.normal(0, 0.4, (dim, dim)).astype(dtype), requires_grad=True)
    b2 = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)
    return [(w1, b1), (w2, b2)]


def zero_gru(dim, dtype=np.float32):
    z = lambda *s: Tensor(np.zeros(s, dtype=dtype), requires_grad=True)
    return GruParams(
        wz=z(dim, dim), uz=z(dim, dim), bz=z(dim),
        wr=z(dim, dim), ur=z(dim, dim), br=z(dim),
        wh=z(dim, dim), uh=z(dim, dim), bh=z(dim),
    )


def test_no_edges_gives_zero_messages():
    rng = np.random.default_rng(0)
    states = Tensor(rng.normal(0, 1, (4, 3)).astype(np.float32))
    msgs = mlp_aggregate(states, adjacency(4, []), tiny_mlp(rng, 3))
    assert np.array_equal(msgs.data, np.zeros((4, 3), dtype=np.float32))


def test_duplicate_edge_counts_twice():
    rng = np.random.default_rng(1)
    states = Tensor(rng.normal(0, 1, (3, 4)).astype(np.float32))
    mlp = tiny_mlp(rng, 4)
    assert adjacency(3, [(1, 2), (1, 2)])[2, 1] == 2.0
    once = mlp_aggregate(states, adjacency(3, [(1, 2)]), mlp)
    twice = mlp_aggregate(states, adjacency(3, [(1, 2), (1, 2)]), mlp)
    assert np.abs(once.data[2]).max() > 1e-3  # nonzero, so a dropped duplicate shows
    assert np.allclose(twice.data[2], 2 * once.data[2], atol=1e-6)


def test_chain_message_matches_dense_unroll():
    rng = np.random.default_rng(2)
    states = Tensor(rng.normal(0, 1, (3, 4)).astype(np.float32))
    mlp = tiny_mlp(rng, 4)
    msgs = mlp_aggregate(states, adjacency(3, [(0, 1), (1, 2)]), mlp)
    # hand-unrolled dense reference for node 2: MLP(state_1)
    s1 = states.data[1]
    h = np.maximum(s1 @ mlp[0][0].data.T + mlp[0][1].data, 0)
    ref = h @ mlp[1][0].data.T + mlp[1][1].data
    assert np.allclose(msgs.data[2], ref, atol=1e-5)
    assert np.allclose(msgs.data[0], 0.0)


def test_edge_referencing_missing_node_errors():
    with pytest.raises(ValueError, match=r"edge \(0, 5\) references missing node"):
        adjacency(2, [(0, 1), (0, 5), (-1, 0)])
    with pytest.raises(ValueError, match=r"edge \(-1, 0\) references missing node"):
        adjacency(2, [(-1, 0)])


def test_gru_zero_params_halves_state():
    rng = np.random.default_rng(4)
    h = Tensor(rng.normal(0, 1, (3, 5)).astype(np.float32))
    msg = Tensor(rng.normal(0, 1, (3, 5)).astype(np.float32))
    out = gru_update(h, msg, zero_gru(5))
    assert np.allclose(out.data, 0.5 * h.data, atol=1e-6)


def test_gru_output_dims():
    rng = np.random.default_rng(5)
    h = Tensor(rng.normal(0, 1, (2, 16)).astype(np.float32))
    m = Tensor(rng.normal(0, 1, (2, 16)).astype(np.float32))
    g = Ggnn(GgnnConfig(state_dim=16), seed=0)
    assert gru_update(h, m, g.gru).shape == (2, 16)


def test_gru_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    dim = 3
    h = Tensor(rng.normal(0, 0.5, (2, dim)), requires_grad=True, dtype=np.float64)
    msg = Tensor(rng.normal(0, 0.5, (2, dim)), requires_grad=True, dtype=np.float64)
    params = [Tensor(rng.normal(0, 0.4, (dim, dim)), requires_grad=True, dtype=np.float64) for _ in range(6)]
    biases = [Tensor(rng.normal(0, 0.1, (dim,)), requires_grad=True, dtype=np.float64) for _ in range(3)]

    def f(h_, m_, wz, uz, wr, ur, wh, uh, bz, br, bh):
        p = GruParams(wz=wz, uz=uz, bz=bz, wr=wr, ur=ur, br=br, wh=wh, uh=uh, bh=bh)
        return ag.sum_all(gru_update(h_, m_, p))

    err = ag.grad_check(f, [h, msg, *params, *biases], h=1e-4)
    assert err <= 1e-4


def test_forward_zero_steps_mean_pools_features():
    cfg = chain_cfg(3)
    g = Ggnn(GgnnConfig(state_dim=4, steps=0), seed=0)
    feats = np.arange(12, dtype=np.float32).reshape(3, 4)
    out = g.forward(cfg, feats)
    assert out.shape == (1, 4)
    assert np.allclose(out.data, feats.mean(axis=0, keepdims=True), atol=1e-6)


def test_single_node_zero_steps_identity():
    cfg = ControlFlowGraph(
        nodes=[CfgNode(id=0, kind="entry"), CfgNode(id=1, kind="exit")],
        edges=[(0, 1)], entry=0, exit=1,
    )
    g = Ggnn(GgnnConfig(state_dim=4, steps=0), seed=1)
    feats = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]], dtype=np.float32)
    out = g.forward(cfg, feats)
    assert np.allclose(out.data, feats[0], atol=1e-6)


def test_permutation_invariance_of_pooled_embedding():
    rng = np.random.default_rng(7)
    n = 5
    nodes = [CfgNode(id=0, kind="entry")] + [CfgNode(id=i, kind="assign", defines="x") for i in range(1, n - 1)] + [CfgNode(id=n - 1, kind="exit")]
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]
    cfg = ControlFlowGraph(nodes=nodes, edges=edges, entry=0, exit=n - 1)
    feats = rng.normal(0, 1, (n, 8)).astype(np.float32)
    g = Ggnn(GgnnConfig(state_dim=8, steps=3), seed=2)
    base = g.forward(cfg, feats).data

    perm = [2, 0, 4, 1, 3]  # new id of old node i
    inv = np.argsort(perm)
    nodes_p = [CfgNode(id=perm[n_.id], kind=n_.kind, defines=n_.defines) for n_ in nodes]
    nodes_p.sort(key=lambda nd: nd.id)
    edges_p = [(perm[s], perm[d]) for s, d in edges]
    cfg_p = ControlFlowGraph(nodes=nodes_p, edges=edges_p, entry=perm[0], exit=perm[n - 1])
    feats_p = feats[inv]
    permuted = g.forward(cfg_p, feats_p).data
    assert np.allclose(base, permuted, atol=1e-6)


def test_two_step_forward_matches_dense_unroll():
    rng = np.random.default_rng(8)
    cfg = chain_cfg(3)
    dim = 4
    g = Ggnn(GgnnConfig(state_dim=dim, steps=2), seed=3)
    feats = rng.normal(0, 1, (3, dim)).astype(np.float32)
    out = g.forward(cfg, feats).data

    # dense reference with the same parameters
    def np_mlp(x):
        h = x
        for i, (w, b) in enumerate(g.mlp_layers):
            h = h @ w.data.T + b.data
            if i < len(g.mlp_layers) - 1:
                h = np.maximum(h, 0)
        return h

    def np_sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    adj_t = np.zeros((3, 3), dtype=np.float32)
    for s, d in cfg.edges:
        adj_t[d, s] += 1
    h = feats.copy()
    p = g.gru
    for _ in range(2):
        m = adj_t @ np_mlp(h)
        z = np_sigmoid(m @ p.wz.data.T + h @ p.uz.data.T + p.bz.data)
        r = np_sigmoid(m @ p.wr.data.T + h @ p.ur.data.T + p.br.data)
        cand = np.tanh(m @ p.wh.data.T + (r * h) @ p.uh.data.T + p.bh.data)
        h = (1 - z) * h + z * cand
    assert np.allclose(out, h.mean(axis=0), atol=1e-5)


def test_zero_weight_closed_form_decay():
    cfg = chain_cfg(4)
    k = 3
    g = Ggnn(GgnnConfig(state_dim=4, steps=k), seed=4)
    for w, b in g.mlp_layers:
        w.data[:] = 0
        b.data[:] = 0
    for t in g.gru.tensors().values():
        t.data[:] = 0
    feats = np.arange(16, dtype=np.float32).reshape(4, 4)
    out = g.forward(cfg, feats)
    assert np.allclose(out.data, (0.5**k) * feats.mean(axis=0), atol=1e-6)


def test_two_step_ggnn_gradients():
    rng = np.random.default_rng(9)
    cfg = chain_cfg(3)
    dim = 3
    feats = rng.normal(0, 0.5, (3, dim))

    w1 = Tensor(rng.normal(0, 0.4, (dim, dim)), requires_grad=True, dtype=np.float64)
    b1 = Tensor(np.zeros(dim), requires_grad=True, dtype=np.float64)
    gmats = [Tensor(rng.normal(0, 0.4, (dim, dim)), requires_grad=True, dtype=np.float64) for _ in range(6)]
    gvecs = [Tensor(np.zeros(dim), requires_grad=True, dtype=np.float64) for _ in range(3)]

    adj_t = np.zeros((3, 3))
    for s, d in cfg.edges:
        adj_t[d, s] += 1

    def f(w1_, b1_, wz, uz, wr, ur, wh, uh, bz, br, bh):
        p = GruParams(wz=wz, uz=uz, bz=bz, wr=wr, ur=ur, br=br, wh=wh, uh=uh, bh=bh)
        h = Tensor(feats, dtype=np.float64)
        for _ in range(2):
            m = ag.matmul(Tensor(adj_t, dtype=np.float64), mlp_forward(h, [(w1_, b1_)]))
            h = gru_update(h, m, p)
        return ag.sum_all(h)

    err = ag.grad_check(f, [w1, b1, *gmats, *gvecs], h=1e-4)
    assert err <= 1e-4


def test_paper_profile_layer_bookkeeping():
    cfg = GgnnConfig.paper()
    assert cfg.state_dim == 256
    # two MLP linears around one hidden layer, plus the GRU: 3 layers
    assert cfg.mlp_hidden == (256,)


def test_width_mismatch_without_projection_errors():
    g = Ggnn(GgnnConfig(state_dim=6, steps=1), seed=6)
    with pytest.raises(ValueError, match="state dim"):
        g.forward(chain_cfg(3), np.ones((3, 4), dtype=np.float32))
