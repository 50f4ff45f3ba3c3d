"""Reaching-definitions analysis and abstract dataflow node features.

The analysis is the standard forward may-analysis: a definition of a variable
reaches a program point when some CFG path from the defining statement to
that point contains no redefinition of the same variable. Node features
encode each node's incoming definition set as a bounded bag bucketed by
(variable slot, defining-statement kind), which is what the graph network
consumes.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from .minic import ControlFlowGraph

__all__ = [
    "Definition",
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


@dataclass(frozen=True)
class Definition:
    def_id: str
    variable: str
    node: int


def definitions(cfg: ControlFlowGraph) -> list[Definition]:
    """One definition per node that writes a variable, id'd by node."""
    defs = []
    for n in cfg.nodes:
        if n.defines is not None:
            defs.append(Definition(def_id=f"d{n.id}", variable=n.defines, node=n.id))
    return defs


def gen_kill(cfg: ControlFlowGraph) -> tuple[dict[int, set[str]], dict[int, set[str]]]:
    """Per-node gen/kill sets: gen is the node's own def, kill the other
    definitions of the same variable."""
    defs = definitions(cfg)
    by_var: dict[str, set[str]] = {}
    for d in defs:
        by_var.setdefault(d.variable, set()).add(d.def_id)
    gen: dict[int, set[str]] = {n.id: set() for n in cfg.nodes}
    kill: dict[int, set[str]] = {n.id: set() for n in cfg.nodes}
    for d in defs:
        gen[d.node] = {d.def_id}
        kill[d.node] = by_var[d.variable] - {d.def_id}
    return gen, kill


@dataclass
class ReachSets:
    in_sets: dict[int, frozenset[str]]
    out_sets: dict[int, frozenset[str]]
    sweeps: int = 0


def reaching_definitions(cfg: ControlFlowGraph) -> ReachSets:
    """Least fixpoint via a FIFO worklist seeded in node-id order.

    Any processing order converges to the same fixpoint; FIFO with id
    tie-breaking keeps runs deterministic.
    """
    gen, kill = gen_kill(cfg)
    preds: dict[int, list[int]] = {n.id: [] for n in cfg.nodes}
    succs: dict[int, list[int]] = {n.id: [] for n in cfg.nodes}
    for s, d in cfg.edges:
        preds[d].append(s)
        succs[s].append(d)
    for lst in preds.values():
        lst.sort()
    for lst in succs.values():
        lst.sort()

    in_sets: dict[int, set[str]] = {n.id: set() for n in cfg.nodes}
    out_sets: dict[int, set[str]] = {n.id: set() for n in cfg.nodes}
    work = deque(sorted(n.id for n in cfg.nodes))
    queued = set(work)
    sweeps = 0
    while work:
        nid = work.popleft()
        queued.discard(nid)
        sweeps += 1
        new_in: set[str] = set()
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
        in_sets={k: frozenset(v) for k, v in in_sets.items()},
        out_sets={k: frozenset(v) for k, v in out_sets.items()},
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

    defs = {d.def_id: d for d in definitions(cfg)}
    var_order: list[str] = []
    for n in sorted(cfg.nodes, key=lambda n: n.id):
        if n.defines is not None and n.defines not in var_order:
            var_order.append(n.defines)
    slot = {v: i % N_SLOTS for i, v in enumerate(var_order)}
    kind_idx = {k: i for i, k in enumerate(DEFINING_KINDS)}

    feats = np.zeros((len(cfg.nodes), width), dtype=np.float32)
    for row, n in enumerate(cfg.nodes):
        counts: dict[tuple[int, int], int] = {}
        for def_id in reach.in_sets[n.id]:
            d = defs[def_id]
            k = cfg.node(d.node).kind
            if k not in kind_idx:
                continue
            key = (slot[d.variable], kind_idx[k])
            counts[key] = counts.get(key, 0) + 1
        for (s, k), c in counts.items():
            base = (s * len(DEFINING_KINDS) + k) * TOP_K
            feats[row, base : base + min(c, TOP_K)] = 1.0
    return feats


def reach_to_json(cfg: ControlFlowGraph, reach: ReachSets) -> str:
    """IN/OUT sets as a JSON document (debugging dump)."""
    doc = {
        "nodes": [
            {
                "id": n.id,
                "kind": n.kind,
                "defines": n.defines,
                "in": sorted(reach.in_sets[n.id]),
                "out": sorted(reach.out_sets[n.id]),
            }
            for n in cfg.nodes
        ]
    }
    return json.dumps(doc, indent=2) + "\n"
