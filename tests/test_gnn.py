import math

import numpy as np
import pytest

from msivd import autograd as ag
from msivd.autograd import Tensor
from helpers_gnn import PAPER_GGNN, reference_embedding, tape_nodes, with_adjacency
from msivd.gnn import Ggnn, GgnnConfig, adjacency
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
    return w1, b1, w2, b2


def zero_gru(dim, dtype=np.float32):
    z = lambda *s: Tensor(np.zeros(s, dtype=dtype), requires_grad=True)
    return z(3 * dim, dim), z(3 * dim, dim), z(3 * dim)


def packed_gru(rng, dim, bias_std=0.0):
    """Float64 GRU parameters drawn as six [dim x dim] gate matrices in the
    order wz, uz, wr, ur, wh, uh and three biases, packed z, r, candidate."""
    wz, uz, wr, ur, wh, uh = (rng.normal(0, 0.4, (dim, dim)) for _ in range(6))
    biases = [rng.normal(0, bias_std, (dim,)) if bias_std else np.zeros(dim) for _ in range(3)]
    return (Tensor(np.concatenate(p), requires_grad=True, dtype=np.float64)
            for p in ([wz, wr, wh], [uz, ur, uh], biases))


def mlp_aggregate(states, adj_t, mlp):
    """One step's messages as ``Ggnn.embed`` computes them."""
    return ag.matmul(Tensor(adj_t), ag.mlp(states, *mlp))


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
    w1, b1, w2, b2 = (t.data for t in mlp)
    h = np.maximum(s1 @ w1.T + b1, 0)
    ref = h @ w2.T + b2
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
    out = ag.gru(h, msg, *zero_gru(5))
    assert np.allclose(out.data, 0.5 * h.data, atol=1e-6)


def test_gru_output_dims():
    rng = np.random.default_rng(5)
    h = Tensor(rng.normal(0, 1, (2, 16)).astype(np.float32))
    m = Tensor(rng.normal(0, 1, (2, 16)).astype(np.float32))
    g = Ggnn(GgnnConfig(state_dim=16), seed=0)
    assert ag.gru(h, m, *g.gru).shape == (2, 16)


def test_gru_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    dim = 3
    h = Tensor(rng.normal(0, 0.5, (2, dim)), requires_grad=True, dtype=np.float64)
    msg = Tensor(rng.normal(0, 0.5, (2, dim)), requires_grad=True, dtype=np.float64)
    w, u, b = packed_gru(rng, dim, bias_std=0.1)

    def f(h_, m_, w_, u_, b_):
        return ag.sum_all(ag.gru(h_, m_, w_, u_, b_))

    err = ag.grad_check(f, [h, msg, w, u, b], h=1e-4)
    assert err <= 1e-4


def test_forward_zero_steps_mean_pools_features():
    cfg = chain_cfg(3)
    g = Ggnn(GgnnConfig(state_dim=16, steps=0), seed=0)
    feats = np.arange(48, dtype=np.float32).reshape(3, 16)
    out = g.forward(*with_adjacency(cfg, feats))
    assert out.shape == (1, 16)
    assert np.allclose(out.data, feats.mean(axis=0, keepdims=True), atol=1e-6)


def test_single_node_zero_steps_identity():
    cfg = ControlFlowGraph(
        nodes=[CfgNode(id=0, kind="entry"), CfgNode(id=1, kind="exit")],
        edges=[(0, 1)], entry=0, exit=1,
    )
    g = Ggnn(GgnnConfig(state_dim=16, steps=0), seed=1)
    feats = np.tile(np.arange(1.0, 17.0, dtype=np.float32), (2, 1))
    out = g.forward(*with_adjacency(cfg, feats))
    assert np.allclose(out.data, feats[0], atol=1e-6)


def test_permutation_invariance_of_pooled_embedding():
    rng = np.random.default_rng(7)
    n = 5
    nodes = [CfgNode(id=0, kind="entry")] + [CfgNode(id=i, kind="assign", defines="x") for i in range(1, n - 1)] + [CfgNode(id=n - 1, kind="exit")]
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)]
    cfg = ControlFlowGraph(nodes=nodes, edges=edges, entry=0, exit=n - 1)
    feats = rng.normal(0, 1, (n, 16)).astype(np.float32)
    g = Ggnn(GgnnConfig(state_dim=16, steps=3), seed=2)
    base = g.forward(*with_adjacency(cfg, feats)).data

    perm = [2, 0, 4, 1, 3]  # new id of old node i
    inv = np.argsort(perm)
    nodes_p = [CfgNode(id=perm[n_.id], kind=n_.kind, defines=n_.defines) for n_ in nodes]
    nodes_p.sort(key=lambda nd: nd.id)
    edges_p = [(perm[s], perm[d]) for s, d in edges]
    cfg_p = ControlFlowGraph(nodes=nodes_p, edges=edges_p, entry=perm[0], exit=perm[n - 1])
    feats_p = feats[inv]
    permuted = g.forward(*with_adjacency(cfg_p, feats_p)).data
    assert np.allclose(base, permuted, atol=1e-6)


def test_two_step_forward_matches_dense_unroll():
    rng = np.random.default_rng(8)
    cfg = chain_cfg(3)
    dim = 16
    g = Ggnn(GgnnConfig(state_dim=dim, steps=2), seed=3)
    feats = rng.normal(0, 1, (3, dim)).astype(np.float32)
    out = g.forward(*with_adjacency(cfg, feats)).data

    # dense reference with the same parameters
    w1, b1, w2, b2 = (t.data for t in g.mlp)

    def np_mlp(x):
        return np.maximum(x @ w1.T + b1, 0) @ w2.T + b2

    def np_sigmoid(x):
        return 1.0 / (1.0 + np.exp(-x))

    adj_t = np.zeros((3, 3), dtype=np.float32)
    for s, d in cfg.edges:
        adj_t[d, s] += 1
    h = feats.copy()
    (wz, wr, wh), (uz, ur, uh), (bz, br, bh) = (np.split(t.data, 3) for t in g.gru)
    for _ in range(2):
        m = adj_t @ np_mlp(h)
        z = np_sigmoid(m @ wz.T + h @ uz.T + bz)
        r = np_sigmoid(m @ wr.T + h @ ur.T + br)
        cand = np.tanh(m @ wh.T + (r * h) @ uh.T + bh)
        h = (1 - z) * h + z * cand
    assert np.allclose(out, h.mean(axis=0), atol=1e-5)


def test_zero_weight_closed_form_decay():
    cfg = chain_cfg(4)
    k = 3
    g = Ggnn(GgnnConfig(state_dim=16, steps=k), seed=4)
    for t in g.parameters().values():
        t.data[:] = 0
    feats = np.arange(64, dtype=np.float32).reshape(4, 16)
    out = g.forward(*with_adjacency(cfg, feats))
    assert np.allclose(out.data, (0.5**k) * feats.mean(axis=0), atol=1e-6)


def test_two_step_ggnn_gradients():
    rng = np.random.default_rng(9)
    cfg = chain_cfg(3)
    dim = 3
    feats = rng.normal(0, 0.5, (3, dim))

    w1 = Tensor(rng.normal(0, 0.4, (dim, dim)), requires_grad=True, dtype=np.float64)
    b1 = Tensor(np.zeros(dim), requires_grad=True, dtype=np.float64)
    w2 = Tensor(rng.normal(0, 0.4, (dim, dim)), requires_grad=True, dtype=np.float64)
    b2 = Tensor(np.zeros(dim), requires_grad=True, dtype=np.float64)
    w, u, b = packed_gru(rng, dim)

    adj_t = np.zeros((3, 3))
    for s, d in cfg.edges:
        adj_t[d, s] += 1

    def f(w1_, b1_, w2_, b2_, w_, u_, b_):
        h = Tensor(feats, dtype=np.float64)
        for _ in range(2):
            m = ag.matmul(Tensor(adj_t, dtype=np.float64), ag.mlp(h, w1_, b1_, w2_, b2_))
            h = ag.gru(h, m, w_, u_, b_)
        return ag.sum_all(h)

    err = ag.grad_check(f, [w1, b1, w2, b2, w, u, b], h=1e-4)
    assert err <= 1e-4


def test_paper_profile_layer_bookkeeping():
    """The paper's GGNN, 3 layers (two MLP linears around one hidden layer as
    wide as its 256-wide states, and a GRU over them), holds 8·256² + 5·256
    parameters."""
    assert sum(math.prod(shape) for _, shape, _ in Ggnn.table(PAPER_GGNN)) == 525_568


@pytest.mark.parametrize("config", [GgnnConfig(state_dim=16, steps=2), GgnnConfig(state_dim=17, steps=0)])
def test_table_lists_exactly_the_parameters(config):
    """The table names every parameter, in order, with its shape; every
    parameter is float32 and requires grad."""
    params = Ggnn(config, seed=1).parameters()
    assert [(name, shape) for name, shape, _ in Ggnn.table(config)] == [(n, t.shape) for n, t in params.items()]
    assert all(t.dtype == np.float32 and t.requires_grad for t in params.values())


def test_gru_matrices_pack_in_draw_order():
    """After the MLP's two matrices the GRU's six are drawn wz, uz, wr, ur,
    wc, uc, and they pack as [wz; wr; wc] and [uz; ur; uc]."""
    d = 16
    rng = np.random.default_rng(3)
    mats = [rng.normal(0.0, d**-0.5, size=(d, d)).astype(np.float32) for _ in range(8)]
    params = Ggnn(GgnnConfig(state_dim=d), seed=3).parameters()
    assert params["gnn.mlp.w2"].data.tobytes() == mats[1].tobytes()
    assert params["gnn.gru.w"].data.tobytes() == np.concatenate(mats[2::2]).tobytes()
    assert params["gnn.gru.u"].data.tobytes() == np.concatenate(mats[3::2]).tobytes()


def test_width_mismatch_without_projection_errors():
    g = Ggnn(GgnnConfig(state_dim=17, steps=1), seed=6)
    with pytest.raises(ValueError, match="state dim"):
        g.forward(*with_adjacency(chain_cfg(3), np.ones((3, 16), dtype=np.float32)))


def test_config_refuses_states_narrower_than_the_feature_cells():
    """Every node feature holds ``dfa.N_CELLS`` dataflow cells, so a state
    narrower than that could not take them."""
    from msivd.dfa import N_CELLS

    assert GgnnConfig(state_dim=N_CELLS).state_dim == 16
    for width in (N_CELLS - 1, 8, 1, 0, -3):
        with pytest.raises(ValueError, match=f"state_dim must be >= 16, got {width}"):
            GgnnConfig(state_dim=width)



# --- the batched pass against the per-graph composed reference ---------------------


def _parity_batch(width):
    """Two parsed desk graphs, the parse fallback, and a hand-made graph with
    an isolated node (2) and a duplicate edge (0 -> 1 twice)."""
    from msivd.fusion import graph_inputs
    from msivd.synth import make_synthetic_corpus

    parsed = [graph_inputs(s.code, width) for s in make_synthetic_corpus(n=2, seed=5)]
    assert all(g is not None for g in parsed)
    nodes = [CfgNode(id=0, kind="entry"), CfgNode(id=1, kind="assign", defines="x"),
             CfgNode(id=2, kind="assign", defines="y"), CfgNode(id=3, kind="exit")]
    odd = ControlFlowGraph(nodes=nodes, edges=[(0, 1), (0, 1), (1, 3)], entry=0, exit=3)
    feats = np.random.default_rng(10).normal(0, 1, (4, width)).astype(np.float32)
    return [parsed[0], None, with_adjacency(odd, feats), parsed[1]]


def _rows_and_grads(g, rows, upstream):
    """The [B x d] rows stacked from the blocks that ``rows()`` returns,
    and the gradient of every GGNN parameter under the loss Σ rows ⊙ upstream."""
    for t in g.parameters().values():
        t.zero_grad()
    out = rows()
    loss, start = None, 0
    for row in out:
        term = ag.sum_all(ag.mul(row, Tensor(upstream[start : start + row.shape[0]])))
        start += row.shape[0]
        loss = term if loss is None or not loss.requires_grad else ag.add(loss, term)
    ag.backward(loss)
    return np.concatenate([row.data for row in out]), {k: t.grad for k, t in g.parameters().items()}


def test_embed_matches_per_graph_reference_float32():
    """Output and every parameter gradient of one batched pass stay within
    1e-5 of the composed formulas run graph by graph; the fallback's row is
    exactly zero."""
    g = Ggnn(GgnnConfig(), seed=11)
    batch = _parity_batch(g.config.state_dim)
    upstream = np.random.default_rng(12).normal(0, 1, (len(batch), g.config.state_dim)).astype(np.float32)
    out, grads = _rows_and_grads(g, lambda: [g.embed(batch)], upstream)
    ref, ref_grads = _rows_and_grads(g, lambda: [reference_embedding(g, gr) for gr in batch], upstream)
    assert out.dtype == np.float32 and out.shape == (4, g.config.state_dim)
    assert not out[1].any()
    assert np.max(np.abs(out - ref)) <= 1e-5
    for name, grad in grads.items():
        assert grad.dtype == np.float32 and grad.shape == ref_grads[name].shape
        assert np.max(np.abs(grad - ref_grads[name])) <= 1e-5, name


def test_embed_rows_equal_one_graph_forwards():
    """A graph's row does not depend on the other graphs of its batch."""
    g = Ggnn(GgnnConfig(steps=3), seed=13)
    batch = _parity_batch(g.config.state_dim)
    rows = g.embed(batch).data
    for i, graph in enumerate(batch):
        alone = g.embed([graph]).data if graph is None else g.forward(*graph).data
        assert np.allclose(rows[i : i + 1], alone, rtol=0, atol=1e-6)


@pytest.mark.parametrize("steps", [0, 1, 5])
def test_embed_records_at_most_three_tape_nodes_per_step(steps):
    """Message MLP, aggregation and GRU per step, plus the mean pool."""
    g = Ggnn(GgnnConfig(steps=steps), seed=14)
    out = g.embed(_parity_batch(g.config.state_dim))
    assert tape_nodes(out) <= 3 * steps + 1


def test_embed_rejects_features_that_do_not_fit():
    """Features or an adjacency of another node count, and, where a graph's
    inputs are built, an edge to a missing node."""
    g = Ggnn(GgnnConfig(state_dim=16, steps=1), seed=6)
    good = with_adjacency(chain_cfg(3), np.ones((3, 16), dtype=np.float32))
    with pytest.raises(ValueError, match="features rows 4 != node count 3"):
        g.embed([good, (chain_cfg(3), np.ones((4, 16), dtype=np.float32), good[2])])
    with pytest.raises(ValueError, match=r"adjacency shape \(1, 1\) != node count 3"):
        g.embed([good, (*good[:2], np.ones((1, 1), dtype=np.float32))])
    with pytest.raises(ValueError, match=r"edge \(0, 3\) references missing node \(n=3\)"):
        g.embed([good, with_adjacency(ControlFlowGraph(nodes=chain_cfg(3).nodes, edges=[(0, 3)], entry=0, exit=2),
                                      np.ones((3, 16), dtype=np.float32)), good])
