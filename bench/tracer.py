"""Outside-in span tracer for the desk pipeline.

Nothing in ``src/`` is changed. Each traced name is replaced on the module or
class where its caller looks it up (``msivd.train.parse_mini_c``, not only
``msivd.minic.parse_mini_c``) and restored by ``stop``. Spans are kept in
memory and written out when the run ends.

A layer's self time is the time of its spans minus the part covered by their
children. Autograd ops are counted, not recorded as spans: a fused-stage
round makes about a million of them. GC pauses are children of whatever span
was running and make up the ``runtime`` layer.
"""
from __future__ import annotations

import gc
from collections import defaultdict
from time import perf_counter

LAYERS = ("corpus", "dialogue", "minic", "dfa", "autograd", "lm", "gnn", "fusion", "train", "runtime")

# Names in msivd.autograd.__all__ that are not ops.
NOT_OPS = {"Tensor", "ShapeError", "TapeError", "backward", "grad_check"}


def autograd_ops(ag) -> list[str]:
    return [name for name in ag.__all__ if name not in NOT_OPS]


class GcClock:
    """Counts cyclic-GC collections and their pause time via ``gc.callbacks``."""

    def __init__(self, on_pause=None):
        self.collections = 0
        self.pause_s = 0.0
        self._on_pause = on_pause
        self._t0 = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._t0 = perf_counter()
            return
        dur = perf_counter() - self._t0
        self.collections += 1
        self.pause_s += dur
        if self._on_pause is not None:
            self._on_pause(dur)

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


class Tracer:
    """Wraps the program's public functions; ``start``/``stop`` toggle it."""

    def __init__(self):
        self.spans: list[tuple] = []  # (trace_id, span_id, parent_id, name, start, end)
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.window_s = 0.0
        self.gc = GcClock(on_pause=self._gc_pause)
        self._stack: list[list] = []  # frames: [span_id, child_s, trace_id]
        self._ids = [0, 0]  # last span id, last trace id
        self._patches: list[tuple] = []
        self._started = 0.0

    # --- switching on and off ----------------------------------------------

    def start(self, msivd) -> None:
        """Patch every traced name; ``msivd`` is the imported package."""
        ag, corpus, dialogue, fusion, gnn, lm, synth, train = (
            msivd.autograd, msivd.corpus, msivd.dialogue, msivd.fusion,
            msivd.gnn, msivd.lm, msivd.synth, msivd.train,
        )
        system = lm.ByteTokenizer.SYSTEM

        def tokens(st, args, out):
            ids = out.token_ids if hasattr(out, "token_ids") else out
            st["tokens"] += len(ids)
            st["truncated"] += int(ids[0] != system)

        span = self._span
        for op in autograd_ops(ag):
            self._op(ag, op)
        span(ag, "backward", "autograd.backward")
        span(synth, "make_synthetic_corpus", "corpus.build",
             lambda st, a, out: st.__setitem__("samples", st["samples"] + len(out)))
        span(corpus, "make_split", "corpus.split")
        span(dialogue, "build_dialogue", "dialogue.build")
        span(dialogue, "build_negative_dialogue", "dialogue.build")
        span(lm.LmModel, "forward", "lm.forward",
             lambda st, a, out: st.__setitem__("tokens", st["tokens"] + len(a[1])))
        span(gnn.Ggnn, "forward", "gnn.forward",
             lambda st, a, out: st.__setitem__("nodes", st["nodes"] + len(a[1].nodes)))
        span(fusion.FusedClassifier, "classify", "fusion.classify")
        span(fusion.FusedClassifier, "logits", "fusion.logits")
        span(fusion, "predict", "fusion.predict")
        span(fusion, "graph_embedding", "fusion.graph_embedding")
        span(train, "label_nll", "fusion.label_nll")
        for owner in (train, fusion):
            span(owner, "render_prompt", "dialogue.render", tokens)
            span(owner, "parse_mini_c", "minic.parse")
            span(owner, "reaching_definitions", "dfa.reach", self._count_sweeps)
            span(owner, "build_node_features", "dfa.features")
        span(train, "render", "dialogue.render", tokens)
        span(train, "render_training_streams", "train.render_streams")
        span(train, "sift_batch_loss", "train.sift_batch_loss")
        span(train.Sgd, "step", "train.sgd.step",
             lambda st, a, out: st.__setitem__("clipped", st["clipped"] + bool(out)))
        span(train.Sgd, "zero_grad", "train.sgd.zero_grad")
        span(train, "train_sift", "train.train_sift")
        span(train, "train_fused", "train.train_fused")
        span(train, "build_lm_from_checkpoint", "train.build_lm")
        span(train, "build_bundle_from_checkpoint", "train.build_bundle")
        span(train, "save_checkpoint", "train.checkpoint.save")
        span(train, "load_checkpoint", "train.checkpoint.load")
        gc.callbacks.append(self.gc)
        self._started = perf_counter()

    def stop(self) -> None:
        self.window_s += perf_counter() - self._started
        gc.callbacks.remove(self.gc)
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, owner, attr, name, count=None) -> None:
        fn = getattr(owner, attr)
        layer = name.split(".", 1)[0]
        stack, spans, self_s, ids = self._stack, self.spans, self.self_s, self._ids
        st = self.stats[name]

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is None:
                ids[1] += 1
            ids[0] += 1
            frame = [ids[0], 0.0, parent[2] if parent else ids[1]]
            stack.append(frame)
            ok = False
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                self_s[layer] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                spans.append((frame[2], frame[0], parent[0] if parent else None, name, start, end))
                st["calls"] += 1
                st["busy_s"] += dur
                if not ok:
                    st["failed"] += 1
                elif count is not None:
                    count(st, args, out)

        self._patch(owner, attr, wrapper)

    def _op(self, owner, attr) -> None:
        fn = getattr(owner, attr)
        stack, self_s = self._stack, self.self_s
        st = self.stats["autograd." + attr]

        def wrapper(*args, **kwargs):
            frame = [None, 0.0, None]  # collects GC pauses inside the op
            stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
            self_s["autograd"] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            st["calls"] += 1
            st["forward_s"] += dur
            st["out_bytes"] += out.data.nbytes
            return out

        self._patch(owner, attr, wrapper)

    @staticmethod
    def _count_sweeps(st, args, out) -> None:
        st["sweeps"] += out.sweeps
        st["nodes"] += len(args[0].nodes)

    def _gc_pause(self, dur: float) -> None:
        self.self_s["runtime"] += dur
        if self._stack:
            self._stack[-1][1] += dur

    # --- read-out --------------------------------------------------------------

    def metrics(self, ops: list[str]) -> dict[str, float]:
        """Per-layer metrics over everything traced so far."""
        s = self.stats
        m: dict[str, float] = {}
        for op in ops:
            for field in ("calls", "forward_s", "out_bytes"):
                m[f"autograd.{op}.{field}"] = s[f"autograd.{op}"][field]
        for name, fields in (
            ("autograd.backward", ("calls", "busy_s")),
            ("lm.forward", ("calls", "busy_s", "tokens")),
            ("gnn.forward", ("calls", "busy_s", "nodes")),
            ("minic.parse", ("calls", "busy_s", "failed")),
            ("dfa.reach", ("calls", "busy_s")),
            ("fusion.classify", ("calls", "busy_s")),
            ("dialogue.render", ("calls", "busy_s", "tokens")),
        ):
            for field in fields:
                m[f"{name}.{field}"] = s[name][field]
        m["dfa.reach.sweeps_per_node"] = _ratio(s["dfa.reach"]["sweeps"], s["dfa.reach"]["nodes"])
        m["dfa.features.busy_s"] = s["dfa.features"]["busy_s"]
        m["fusion.fallback_share"] = _ratio(s["minic.parse"]["failed"], s["minic.parse"]["calls"])
        sgd = s["train.sgd.step"]
        m["train.sgd.steps"] = sgd["calls"]
        m["train.sgd.busy_s"] = sgd["busy_s"]
        m["train.sgd.clip_share"] = _ratio(sgd["clipped"], sgd["calls"])
        m["train.lm_cache.busy_s"] = self._child_time("lm.forward", "train.train_fused")
        m["train.checkpoint.save_s"] = s["train.checkpoint.save"]["busy_s"]
        m["train.checkpoint.load_s"] = s["train.checkpoint.load"]["busy_s"]
        m["dialogue.truncated_share"] = _ratio(s["dialogue.render"]["truncated"], s["dialogue.render"]["calls"])
        m["corpus.build.busy_s"] = s["corpus.build"]["busy_s"]
        m["corpus.samples"] = s["corpus.build"]["samples"]
        m["runtime.gc.collections"] = self.gc.collections
        m["runtime.gc.pause_s"] = self.gc.pause_s
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self.self_s[layer]
        unattributed = self.window_s - sum(self.self_s.values())
        m["unattributed_s"] = unattributed
        m["unattributed_share"] = _ratio(unattributed, self.window_s)
        return m

    def _child_time(self, child: str, parent: str) -> float:
        names = {span_id: name for _, span_id, _, name, _, _ in self.spans}
        return sum(
            end - start
            for _, _, parent_id, name, start, end in self.spans
            if name == child and names.get(parent_id) == parent
        )

    def span_records(self) -> list[dict]:
        t0 = min((sp[4] for sp in self.spans), default=0.0)
        return [
            {"trace": tr, "span": sp, "parent": pa, "name": name,
             "start_s": round(start - t0, 7), "end_s": round(end - t0, 7)}
            for tr, sp, pa, name, start, end in self.spans
        ]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
