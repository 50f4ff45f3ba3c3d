"""Reaching-definitions analysis and abstract dataflow node features.

The analysis is the standard forward may-analysis: a definition of a variable
reaches a program point when some CFG path from the defining statement to
that point contains no redefinition of the same variable. Node features
encode each node's incoming definition set as a bounded bag bucketed by
(variable slot, defining-statement kind), which is what the graph network
consumes.

A definition is named by the id of the node that makes it, so gen/kill and
the IN/OUT sets hold node ids; only ``reach_to_json`` prints them, as
``d<id>``.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from .minic import ControlFlowGraph

__all__ = [
    "ReachSets",
    "gen_kill",
    "reaching_definitions",
    "build_node_features",
    "reach_to_json",
]

# statement kinds that can define a variable
DEFINING_KINDS = ("assign", "call")

# Feature layout: N_SLOTS variable slots x DEFINING_KINDS, TOP_K thermometer
# cells per (slot, kind) bucket.
N_SLOTS = 2
TOP_K = 4
N_CELLS = N_SLOTS * len(DEFINING_KINDS) * TOP_K


def gen_kill(cfg: ControlFlowGraph) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
    """Per-node gen/kill sets: gen is the node's own def, kill the other
    definitions of the same variable."""
    by_var: dict[str, set[int]] = {}
    for n in cfg.nodes:
        if n.defines is not None:
            by_var.setdefault(n.defines, set()).add(n.id)
    gen: dict[int, set[int]] = {n.id: set() for n in cfg.nodes}
    kill: dict[int, set[int]] = {n.id: set() for n in cfg.nodes}
    for n in cfg.nodes:
        if n.defines is not None:
            gen[n.id] = {n.id}
            kill[n.id] = by_var[n.defines] - {n.id}
    return gen, kill


@dataclass
class ReachSets:
    in_sets: dict[int, frozenset[int]]
    out_sets: dict[int, frozenset[int]]
    sweeps: int = 0


def reaching_definitions(cfg: ControlFlowGraph) -> ReachSets:
    """Least fixpoint via a FIFO worklist seeded in node-id order.

    Any processing order converges to the same fixpoint; FIFO with id
    tie-breaking keeps runs deterministic.
    """
    gen, kill = gen_kill(cfg)
    n_nodes = len(cfg.nodes)
    preds: list[list[int]] = [[] for _ in range(n_nodes)]
    succs: list[list[int]] = [[] for _ in range(n_nodes)]
    for s, d in cfg.edges:
        preds[d].append(s)
        succs[s].append(d)
    for lst in succs:
        lst.sort()

    in_sets: list[set[int]] = [set() for _ in range(n_nodes)]
    out_sets: list[set[int]] = [set() for _ in range(n_nodes)]
    work = deque(range(n_nodes))
    queued = set(work)
    sweeps = 0
    while work:
        nid = work.popleft()
        queued.discard(nid)
        sweeps += 1
        new_in: set[int] = set()
        for p in preds[nid]:
            new_in |= out_sets[p]
        new_out = gen[nid] | (new_in - kill[nid])
        in_sets[nid] = new_in
        if new_out != out_sets[nid]:
            out_sets[nid] = new_out
            for s in succs[nid]:
                if s not in queued:
                    work.append(s)
                    queued.add(s)
    return ReachSets(
        in_sets={nid: frozenset(v) for nid, v in enumerate(in_sets)},
        out_sets={nid: frozenset(v) for nid, v in enumerate(out_sets)},
        sweeps=sweeps,
    )


def build_node_features(cfg: ControlFlowGraph, reach: ReachSets, width: int) -> np.ndarray:
    """Encode each node's IN set as a fixed-width multi-hot vector.

    Buckets are (variable slot, defining-statement kind); each bucket holds
    ``TOP_K`` thermometer cells, so counts beyond TOP_K saturate. Variable
    slots are assigned by first-definition order modulo ``N_SLOTS``. Cells
    past the first ``N_CELLS`` stay zero.
    """
    if width < N_CELLS:
        raise ValueError(f"feature width {width} < required {N_CELLS} cells")

    var_order = dict.fromkeys(n.defines for n in cfg.nodes if n.defines is not None)
    slot = {v: i % N_SLOTS for i, v in enumerate(var_order)}
    kind_idx = {k: i for i, k in enumerate(DEFINING_KINDS)}

    feats = np.zeros((len(cfg.nodes), width), dtype=np.float32)
    for n in cfg.nodes:
        counts: dict[tuple[int, int], int] = {}
        for d in reach.in_sets[n.id]:
            definer = cfg.nodes[d]
            if definer.kind not in kind_idx:
                continue
            key = (slot[definer.defines], kind_idx[definer.kind])
            counts[key] = counts.get(key, 0) + 1
        for (s, k), c in counts.items():
            base = (s * len(DEFINING_KINDS) + k) * TOP_K
            feats[n.id, base : base + min(c, TOP_K)] = 1.0
    return feats


def reach_to_json(cfg: ControlFlowGraph, reach: ReachSets) -> str:
    """IN/OUT sets as a JSON document (debugging dump); definitions print as
    ``d<id>`` of their defining node."""
    doc = {
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind,
                "defines": n.defines,
                "in": sorted(f"d{d}" for d in reach.in_sets[n.id]),
                "out": sorted(f"d{d}" for d in reach.out_sets[n.id]),
            }
            for n in cfg.nodes
        ]
    }
    return json.dumps(doc, indent=2) + "\n"
