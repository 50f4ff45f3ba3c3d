"""Independent oracles for the dataflow tests.

The reaching-definitions oracle enumerates entry paths directly, tracking the
last definition of each variable along the walk; it never consults the
worklist solver. Visits per node are capped at 2, which covers any
simple-path prefix (entry to def) joined with a simple-path suffix (def to
target), so the enumeration finds every reachable definition.
"""
from __future__ import annotations

import random

from msivd.minic import CfgNode, ControlFlowGraph


def predecessors(cfg: ControlFlowGraph, node_id: int) -> list[int]:
    return [s for s, d in cfg.edges if d == node_id]


def enumerate_reaching(cfg: ControlFlowGraph, max_visits: int = 2):
    """Brute-force IN/OUT sets by walking all bounded entry paths."""
    in_sets = {n.id: set() for n in cfg.nodes}
    out_sets = {n.id: set() for n in cfg.nodes}
    succs = {n.id: sorted(d for s, d in cfg.edges if s == n.id) for n in cfg.nodes}
    defines = {n.id: n.defines for n in cfg.nodes}

    def walk(node: int, visits: dict[int, int], last_def: dict[str, str]):
        # standing at `node`: last_def includes node's own definition
        here = dict(last_def)
        if defines[node] is not None:
            here[defines[node]] = f"d{node}"
        out_sets[node].update(here.values())
        for nxt in succs[node]:
            if visits.get(nxt, 0) >= max_visits:
                continue
            in_sets[nxt].update(here.values())
            visits[nxt] = visits.get(nxt, 0) + 1
            walk(nxt, visits, here)
            visits[nxt] -= 1

    walk(cfg.entry, {cfg.entry: 1}, {})
    return (
        {k: frozenset(v) for k, v in in_sets.items()},
        {k: frozenset(v) for k, v in out_sets.items()},
    )


def random_cfg(rng: random.Random, max_nodes: int = 8, max_vars: int = 3) -> ControlFlowGraph:
    """A small random CFG: linear backbone plus a few extra edges.

    Node 0 is entry, the last node exit; interior nodes are assigns/calls over
    a small variable pool or def-free branches. Extra edges may go forward or
    backward but never into entry or out of exit.
    """
    n = rng.randint(3, max_nodes)
    variables = [f"v{i}" for i in range(rng.randint(1, max_vars))]
    nodes = [CfgNode(id=0, kind="entry")]
    for i in range(1, n - 1):
        roll = rng.random()
        if roll < 0.55:
            nodes.append(CfgNode(id=i, kind="assign", defines=rng.choice(variables)))
        elif roll < 0.75:
            nodes.append(CfgNode(id=i, kind="call", defines=rng.choice(variables)))
        else:
            nodes.append(CfgNode(id=i, kind="branch"))
    nodes.append(CfgNode(id=n - 1, kind="exit"))

    edges = {(i, i + 1) for i in range(n - 1)}
    for _ in range(rng.randint(0, 3)):
        src = rng.randint(1, n - 2)
        dst = rng.randint(1, n - 1)
        edges.add((src, dst))
    return ControlFlowGraph(nodes=nodes, edges=sorted(edges), entry=0, exit=n - 1)
