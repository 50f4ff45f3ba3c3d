import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_dfa import enumerate_reaching, predecessors, random_cfg
from msivd.dfa import (
    build_node_features,
    definitions,
    gen_kill,
    reaching_definitions,
)
from msivd.minic import ControlFlowGraph, MiniCError, parse_mini_c, to_dot


# --- parsing ---------------------------------------------------------------


def test_two_assignments_linear_cfg():
    cfg = parse_mini_c("x = 1; x = 2;")
    assert len(cfg.nodes) == 4
    kinds = [n.kind for n in cfg.nodes]
    assert kinds == ["entry", "assign", "assign", "exit"]
    assert sorted(cfg.edges) == [(0, 1), (1, 2), (2, 3)]


def test_if_else_diamond():
    cfg = parse_mini_c("if (c) x = 1; else x = 2;")
    branch = [n for n in cfg.nodes if n.kind == "branch"]
    assert len(branch) == 1
    b = branch[0].id
    # two distinct paths entry -> exit
    assert len(cfg.successors(b)) == 2
    assert len(predecessors(cfg, cfg.exit)) == 2


def test_while_has_back_edge():
    cfg = parse_mini_c("while (c) x = x + 1;")
    head = [n for n in cfg.nodes if n.kind == "loop_head"][0]
    body = [n for n in cfg.nodes if n.kind == "assign"][0]
    assert (body.id, head.id) in cfg.edges


def test_function_wrapper_and_declarations():
    cfg = parse_mini_c("int f(int n) { int x = n + 1; return x; }")
    kinds = [n.kind for n in cfg.nodes]
    assert kinds == ["entry", "assign", "return", "exit"]
    assert cfg.nodes[1].defines == "x"
    assert "n" in cfg.nodes[1].uses


def test_call_statement_records_api():
    cfg = parse_mini_c("y = read(n); use(y);")
    defining = cfg.nodes[1]
    assert defining.kind == "call" and defining.defines == "y"
    assert "read" in defining.calls
    bare = cfg.nodes[2]
    assert bare.kind == "call" and bare.defines is None


def test_syntax_error_reports_line_and_col():
    with pytest.raises(MiniCError) as exc:
        parse_mini_c("x = 1;\ny = = 2;")
    assert exc.value.line == 2
    assert "expected" in str(exc.value) or "unexpected" in str(exc.value)


def test_unsupported_construct_is_explicit():
    with pytest.raises(MiniCError, match="unsupported"):
        parse_mini_c("int x = a[3];")
    with pytest.raises(MiniCError, match="unsupported"):
        parse_mini_c("for (;;) x = 1;")


def test_code_after_return_is_pruned_and_graph_still_valid():
    cfg = parse_mini_c("{ return x; }")
    cfg.validate()
    assert [n.kind for n in cfg.nodes] == ["entry", "return", "exit"]


def test_dot_dump_mentions_every_node():
    cfg = parse_mini_c("x = 1; if (x) y = 2;")
    dot = to_dot(cfg)
    for n in cfg.nodes:
        assert f"n{n.id}" in dot


# --- gen/kill ----------------------------------------------------------------


def test_kill_covers_other_defs_of_same_variable():
    cfg = parse_mini_c("x = 1; x = 2; x = 3;")
    gen, kill = gen_kill(cfg)
    d = [n.id for n in cfg.nodes if n.kind == "assign"]
    assert gen[d[0]] == {f"d{d[0]}"}
    assert kill[d[0]] == {f"d{d[1]}", f"d{d[2]}"}


def test_branch_node_has_empty_gen_kill():
    cfg = parse_mini_c("if (c) x = 1;")
    gen, kill = gen_kill(cfg)
    b = [n.id for n in cfg.nodes if n.kind == "branch"][0]
    assert gen[b] == set() and kill[b] == set()


def test_distinct_variables_have_disjoint_kill_sets():
    cfg = parse_mini_c("x = 1; y = 2;")
    gen, kill = gen_kill(cfg)
    ids = [n.id for n in cfg.nodes if n.kind == "assign"]
    assert kill[ids[0]] == set() and kill[ids[1]] == set()


# --- reaching definitions ----------------------------------------------------


def test_second_definition_kills_first():
    cfg = parse_mini_c("x = 1; x = 2;")
    reach = reaching_definitions(cfg)
    d1, d2 = [n.id for n in cfg.nodes if n.kind == "assign"]
    assert reach.out_sets[d2] == {f"d{d2}"}
    assert reach.in_sets[d2] == {f"d{d1}"}


def test_if_else_join_sees_both_definitions():
    cfg = parse_mini_c("if (c) x = 1; else x = 2; use(x);")
    reach = reaching_definitions(cfg)
    oracle_in, oracle_out = enumerate_reaching(cfg)
    join = [n for n in cfg.nodes if n.kind == "call"][0].id
    defs = {f"d{n.id}" for n in cfg.nodes if n.defines == "x"}
    assert defs <= reach.in_sets[join]
    assert reach.in_sets[join] == oracle_in[join]


def test_loop_head_accumulates_pre_and_in_loop_defs():
    cfg = parse_mini_c("x = 0; while (c) x = x + 1;")
    reach = reaching_definitions(cfg)
    oracle_in, _ = enumerate_reaching(cfg)
    head = [n for n in cfg.nodes if n.kind == "loop_head"][0].id
    assert len(reach.in_sets[head]) == 2
    assert reach.in_sets[head] == oracle_in[head]


def test_fixpoint_one_more_sweep_changes_nothing():
    cfg = parse_mini_c("x = 0; while (c) { x = x + 1; y = x; } use(y);")
    reach = reaching_definitions(cfg)
    gen, kill = gen_kill(cfg)
    for n in cfg.nodes:
        new_in = frozenset().union(*(reach.out_sets[p] for p in predecessors(cfg, n.id)) or [frozenset()])
        assert new_in == reach.in_sets[n.id]
        assert frozenset(gen[n.id]) | (new_in - kill[n.id]) == reach.out_sets[n.id]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_oracle_equivalence_random_cfgs(seed):
    rng = random.Random(seed)
    cfg = random_cfg(rng)
    reach = reaching_definitions(cfg)
    oracle_in, oracle_out = enumerate_reaching(cfg)
    assert reach.in_sets == oracle_in
    assert reach.out_sets == oracle_out


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_adding_an_edge_never_shrinks_in_sets(seed):
    rng = random.Random(seed)
    cfg = random_cfg(rng)
    before = reaching_definitions(cfg)
    interior = [n.id for n in cfg.nodes if n.id != cfg.entry]
    src = rng.choice([n.id for n in cfg.nodes if n.id != cfg.exit])
    dst = rng.choice(interior)
    if (src, dst) in cfg.edges:
        return
    bigger = ControlFlowGraph(
        nodes=list(cfg.nodes), edges=sorted(set(cfg.edges) | {(src, dst)}),
        entry=cfg.entry, exit=cfg.exit,
    )
    after = reaching_definitions(bigger)
    for nid in before.in_sets:
        assert before.in_sets[nid] <= after.in_sets[nid]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=99))
def test_worklist_order_independence(seed, shuffle_seed):
    """A chaotic-iteration solver with randomized order reaches the same fixpoint."""
    rng = random.Random(seed)
    cfg = random_cfg(rng)
    reference = reaching_definitions(cfg)

    order_rng = random.Random(shuffle_seed)
    gen, kill = gen_kill(cfg)
    out = {n.id: set() for n in cfg.nodes}
    ins = {n.id: set() for n in cfg.nodes}
    changed = True
    while changed:
        changed = False
        ids = [n.id for n in cfg.nodes]
        order_rng.shuffle(ids)
        for nid in ids:
            new_in = set()
            for p in predecessors(cfg, nid):
                new_in |= out[p]
            new_out = gen[nid] | (new_in - kill[nid])
            if new_in != ins[nid] or new_out != out[nid]:
                ins[nid], out[nid] = new_in, new_out
                changed = True
    assert {k: frozenset(v) for k, v in ins.items()} == reference.in_sets
    assert {k: frozenset(v) for k, v in out.items()} == reference.out_sets


# --- node features -------------------------------------------------------------


def _reach(code):
    cfg = parse_mini_c(code)
    return cfg, reaching_definitions(cfg)


def test_empty_in_set_gives_zero_vector():
    cfg, reach = _reach("x = 1;")
    feats = build_node_features(cfg, reach, width=16)
    assert np.array_equal(feats[0], np.zeros(16))  # entry row


def test_equal_in_sets_give_identical_vectors():
    cfg, reach = _reach("x = 1; use(x); use(x);")
    feats = build_node_features(cfg, reach, width=16)
    rows = [i for i, n in enumerate(cfg.nodes) if n.kind == "call"]
    assert np.array_equal(feats[rows[0]], feats[rows[1]])


def test_saturation_beyond_top_k():
    # 10 assign defs of distinct variables alternate between the 2 slots
    code = "; ".join(f"v{i} = {i}" for i in range(10)) + "; use(v0);"
    cfg, reach = _reach(code)
    feats = build_node_features(cfg, reach, width=16)
    use_row = [i for i, n in enumerate(cfg.nodes) if n.kind == "call"][0]
    # 5 defs per slot saturate the 4 thermometer cells of each slot's assign
    # bucket (cells 0-3 and 8-11); the call buckets (4-7, 12-15) stay empty
    expected = np.zeros(16, dtype=np.float32)
    expected[0:4] = expected[8:12] = 1.0
    assert np.array_equal(feats[use_row], expected)


def test_width_too_small_errors():
    cfg, reach = _reach("x = 1;")
    with pytest.raises(ValueError, match="width"):
        build_node_features(cfg, reach, width=3)


def test_definitions_unique_ids():
    cfg = parse_mini_c("x = 1; y = 2; x = 3;")
    defs = definitions(cfg)
    assert len({d.def_id for d in defs}) == len(defs) == 3
