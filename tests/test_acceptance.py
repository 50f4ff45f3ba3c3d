"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""
import random
import time
import zlib
from contextlib import contextmanager
from datetime import date

import numpy as np

from helpers_corpus import uniform_samples
from helpers_dfa import enumerate_reaching, random_cfg
from helpers_loss import eq2_reference, task_streams
from msivd import autograd as ag
from msivd.autograd import Tensor
from msivd.corpus import (
    CodeSample,
    CweCategory,
    DropReason,
    SplitSpec,
    apply_exclusion_filters,
    make_split,
)
from msivd.dfa import reaching_definitions
from msivd.dialogue import build_dialogues
from msivd.evaluation import (
    ABLATION_MODES,
    AblationDataset,
    confusion,
    metrics,
    random_baseline,
    run_ablation,
)
from msivd.fusion import fused_input_width, predict
from msivd.gnn import GgnnConfig, GruParams, gru_update, mlp_forward
from msivd.lm import (
    LmModel,
    LoraAdapter,
    LoraConfig,
    TransformerConfig,
    lora_forward,
)
from msivd.synth import make_synthetic_corpus
from msivd.train import (
    CKPT_VERSION,
    Checkpoint,
    TrainConfig,
    build_bundle_from_checkpoint,
    load_checkpoint,
    save_checkpoint,
    sift_batch_loss,
    train_fused,
    train_sift,
)
from test_autograd import KERNEL_CASES


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {name}: PASS")


def test_random_baseline_reproduction():
    with criterion("random-baseline-reproduction"):
        start = time.monotonic()
        low = random_baseline(0.06)
        assert abs(low.f1 - 0.11) <= 0.005
        assert abs(low.precision - 0.06) <= 0.001
        assert low.recall == 0.50
        mid = random_baseline(0.20)
        assert abs(mid.f1 - 0.29) <= 0.005
        assert time.monotonic() - start < 1.0


def test_dataflow_oracle_equivalence():
    with criterion("dataflow-oracle-equivalence"):
        start = time.monotonic()
        for seed in range(200):
            rng = random.Random(seed)
            cfg = random_cfg(rng, max_nodes=8, max_vars=3)
            reach = reaching_definitions(cfg)
            oracle_in, oracle_out = enumerate_reaching(cfg)
            assert reach.in_sets == oracle_in, f"IN mismatch at seed {seed}"
            assert reach.out_sets == oracle_out, f"OUT mismatch at seed {seed}"
        assert time.monotonic() - start < 10.0


def test_gradient_suite():
    with criterion("gradient-suite"):
        start = time.monotonic()
        # every autograd kernel
        for name in sorted(KERNEL_CASES):
            rng = np.random.default_rng(zlib.crc32(name.encode()))
            f, xs = KERNEL_CASES[name](rng)
            err = ag.grad_check(f, xs, h=1e-3)
            assert err <= 1e-4, f"kernel {name}: {err}"

        # GRU cell
        rng = np.random.default_rng(101)
        dim = 3
        h = Tensor(rng.normal(0, 0.5, (2, dim)), requires_grad=True, dtype=np.float64)
        m = Tensor(rng.normal(0, 0.5, (2, dim)), requires_grad=True, dtype=np.float64)
        mats = [Tensor(rng.normal(0, 0.4, (dim, dim)), requires_grad=True, dtype=np.float64) for _ in range(6)]
        vecs = [Tensor(rng.normal(0, 0.1, dim), requires_grad=True, dtype=np.float64) for _ in range(3)]

        def gru_f(h_, m_, wz, uz, wr, ur, wh, uh, bz, br, bh):
            p = GruParams(wz=wz, uz=uz, bz=bz, wr=wr, ur=ur, br=br, wh=wh, uh=uh, bh=bh)
            return ag.sum_all(gru_update(h_, m_, p))

        assert ag.grad_check(gru_f, [h, m, *mats, *vecs], h=1e-4) <= 1e-4

        # one attention block
        t, d = 4, 3
        x = Tensor(rng.normal(0, 0.5, (t, d)), requires_grad=True, dtype=np.float64)
        wq, wk, wv, wo = (
            Tensor(rng.normal(0, 0.4, (d, d)), requires_grad=True, dtype=np.float64) for _ in range(4)
        )
        mask = np.triu(np.full((t, t), -np.inf), k=1)

        def attn_f(x_, wq_, wk_, wv_, wo_):
            q = ag.matmul(x_, ag.transpose(wq_))
            k = ag.matmul(x_, ag.transpose(wk_))
            v = ag.matmul(x_, ag.transpose(wv_))
            scores = ag.add(ag.scale(ag.matmul(q, ag.transpose(k)), d**-0.5), Tensor(mask, dtype=np.float64))
            return ag.sum_all(ag.tanh(ag.matmul(ag.matmul(ag.softmax(scores), v), ag.transpose(wo_))))

        assert ag.grad_check(attn_f, [x, wq, wk, wv, wo], h=1e-4) <= 1e-4

        # LoRA layer
        x2 = Tensor(rng.normal(0, 1, (3, 4)), requires_grad=True, dtype=np.float64)
        w0 = Tensor(rng.normal(0, 0.3, (5, 4)), dtype=np.float64)
        a = Tensor(rng.normal(0, 0.2, (2, 4)), requires_grad=True, dtype=np.float64)
        b = Tensor(rng.normal(0, 0.2, (5, 2)), requires_grad=True, dtype=np.float64)

        def lora_f(x_, a_, b_):
            ad = LoraAdapter(a=a_, b=b_, rank=2, alpha=16.0)
            return ag.sum_all(ag.sigmoid(lora_forward(x_, w0, ad)))

        assert ag.grad_check(lora_f, [x2, a, b], h=1e-4) <= 1e-4

        # 2-step unrolled GGNN
        feats = rng.normal(0, 0.5, (3, dim))
        adj_t = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=np.float64)
        w1 = Tensor(rng.normal(0, 0.4, (dim, dim)), requires_grad=True, dtype=np.float64)
        b1 = Tensor(np.zeros(dim), requires_grad=True, dtype=np.float64)
        gmats = [Tensor(rng.normal(0, 0.4, (dim, dim)), requires_grad=True, dtype=np.float64) for _ in range(6)]
        gvecs = [Tensor(np.zeros(dim), requires_grad=True, dtype=np.float64) for _ in range(3)]

        def ggnn_f(w1_, b1_, wz, uz, wr, ur, wh, uh, bz, br, bh):
            p = GruParams(wz=wz, uz=uz, bz=bz, wr=wr, ur=ur, br=br, wh=wh, uh=uh, bh=bh)
            state = Tensor(feats, dtype=np.float64)
            for _ in range(2):
                msg = ag.matmul(Tensor(adj_t, dtype=np.float64), mlp_forward(state, [(w1_, b1_)]))
                state = gru_update(state, msg, p)
            return ag.sum_all(state)

        assert ag.grad_check(ggnn_f, [w1, b1, *gmats, *gvecs], h=1e-4) <= 1e-4
        assert time.monotonic() - start < 60.0


def test_lora_zero_init_equivalence():
    with criterion("lora-zero-init-equivalence"):
        start = time.monotonic()
        cfg = TransformerConfig()  # desk profile
        with_lora = LmModel(cfg, seed=7, lora=LoraConfig())
        base = LmModel(cfg, seed=7, lora=None)
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(50):
            t = int(rng.integers(4, 24))
            ids = rng.integers(0, cfg.vocab_size, size=t)
            a = with_lora.forward(ids).logits.data
            b = base.forward(ids).logits.data
            worst = max(worst, float(np.max(np.abs(a - b))))
        assert worst <= 1e-6
        assert time.monotonic() - start < 5.0


def test_eq2_multitask_loss_laws():
    with criterion("eq2-multitask-loss-laws"):
        model = LmModel(
            TransformerConfig(d_model=16, n_layers=1, n_heads=2, context_window=64),
            seed=3,
            dtype=np.float64,
        )
        # reduction to single-task cross-entropy
        ids = [10, 11, 12, 13, 14]
        mask = [False, False, True, True, False]
        single = sift_batch_loss(model, task_streams([[(ids, mask)]]))
        out = model.forward(ids)
        ref = ag.cross_entropy(ag.slice_rows(out.logits, 0, 4), ids[1:], [0.0, 0.5, 0.5, 0.0])
        assert abs(single - ref.item()) <= 1e-9

        # mean of per-task mean-token NLL
        tasks = [
            [([1, 2, 3, 4], [False, True, True, False]), ([5, 6, 7], [False, False, True])],
            [([8, 9, 10, 11], [False, True, True, True])],
            [([12, 13], [False, True])],
        ]
        combined = sift_batch_loss(model, task_streams(tasks))
        assert abs(combined - eq2_reference(model, tasks)) <= 1e-9

        # invariance to duplicating one task's samples
        doubled = [tasks[0] + tasks[0], tasks[1], tasks[2]]
        assert abs(sift_batch_loss(model, task_streams(doubled)) - combined) <= 1e-9


def test_dimension_bookkeeping():
    with criterion("dimension-bookkeeping"):
        lm_cfg = TransformerConfig.paper()
        gnn_cfg = GgnnConfig.paper()
        assert fused_input_width(lm_cfg, gnn_cfg) == 4096 + 256 == 4352
        # 8 LM layers + the GGNN's 3 (two MLP linears around one hidden layer, and the GRU)
        assert lm_cfg.n_layers == 8
        assert gnn_cfg.mlp_hidden == (256,)
        assert lm_cfg.context_window == 2048


def test_end_to_end_desk_training():
    with criterion("end-to-end-desk-training"):
        start = time.monotonic()
        corpus = make_synthetic_corpus(n=200, seed=0)
        train, eval_set, test_set = make_split(corpus, SplitSpec(seed=0))
        dialogues = build_dialogues(train)

        sift_cfg = TrainConfig(
            stage="sift", learning_rate=5e-3, batch_size=len(dialogues), epochs=10, seed=0,
        )
        sift_ckpt, sift_curve = train_sift(dialogues, sift_cfg)
        losses = sift_curve.losses()
        assert len(losses) >= 10
        assert all(losses[i + 1] < losses[i] for i in range(9)), losses[:10]

        fused_cfg = TrainConfig(
            stage="fused", learning_rate=0.2, batch_size=16, epochs=30, seed=0,
        )
        fused_ckpt, _ = train_fused(train, sift_ckpt, fused_cfg)
        bundle = build_bundle_from_checkpoint(fused_ckpt)
        preds = [predict(s, bundle) for s in test_set]
        m = metrics(confusion([s.label for s in test_set], [p.label for p in preds]))
        assert m.f1 >= 0.95, f"held-out F1 {m.f1}"
        assert time.monotonic() - start < 600.0


def test_ablation_harness_all_modes():
    with criterion("ablation-harness"):
        corpus = make_synthetic_corpus(n=30, seed=4)
        train, eval_set, test_set = make_split(corpus, SplitSpec(seed=4))
        dataset = AblationDataset(name="synthetic-desk", train=train, eval=eval_set, test=test_set)
        tiny_lm = TransformerConfig(d_model=32, n_layers=1, n_heads=2, context_window=384)
        tiny_gnn = GgnnConfig(state_dim=16, steps=2)
        sift_cfg = TrainConfig(
            stage="sift", learning_rate=0.01, batch_size=8, epochs=1, seed=0,
            lm_config=tiny_lm, gnn_config=tiny_gnn, lora_config=LoraConfig(rank=2),
        )
        fused_cfg = TrainConfig(
            stage="fused", learning_rate=0.2, batch_size=8, epochs=5, seed=0,
            lm_config=tiny_lm, gnn_config=tiny_gnn, lora_config=LoraConfig(rank=2),
        )
        reports = run_ablation(dataset, list(ABLATION_MODES), sift_cfg, fused_cfg)
        assert [r.mode for r in reports] == list(ABLATION_MODES)
        for r in reports:
            assert r.dataset == "synthetic-desk"
            assert r.TP + r.FP + r.TN + r.FN == len(test_set)
            for value in (r.precision, r.recall, r.f1):
                assert 0.0 <= value <= 1.0

        # round-masking contract of the two SIFT shapes
        dialogues = build_dialogues(train)
        multi_ckpt, _ = train_sift(dialogues, sift_cfg)
        assert multi_ckpt.metrics_history[0]["masked_rounds"] == 3
        from dataclasses import replace

        label_ckpt, _ = train_sift(dialogues, replace(sift_cfg, sift_mode="label-only"))
        assert label_ckpt.metrics_history[0]["masked_rounds"] == 1


def test_corpus_laws():
    with criterion("corpus-laws"):
        samples = uniform_samples(100, post_cutoff=20)
        train, eval_set, test_set = make_split(samples, SplitSpec(seed=5))
        cutoff = date(2023, 1, 1)
        assert all(s.origin_date >= cutoff for s in eval_set + test_set)
        assert all(s.origin_date < cutoff for s in train)
        ids = [set(s.sample_id for s in part) for part in (train, eval_set, test_set)]
        assert not (ids[0] & ids[1]) and not (ids[0] & ids[2]) and not (ids[1] & ids[2])
        assert abs(len(train) - 80) <= 1
        assert abs(len(eval_set) - 10) <= 1
        assert abs(len(test_set) - 10) <= 1

        def fixture(code, label=True):
            n = len(code.splitlines())
            return CodeSample(
                sample_id="f", code=code, label=label, cwe_id="CWE-787",
                cwe_category=CweCategory.BUFFER_ERROR, description="d",
                origin_date=date(2022, 1, 1),
                vuln_line_start=1 if label else None,
                vuln_line_end=min(1, n) if label else None,
                fix_code="x" if label else None,
            )

        assert apply_exclusion_filters(fixture("int f(\n a,\n b,\n c,\n d);"), 0.1) is DropReason.INCOMPLETE
        assert apply_exclusion_filters(
            fixture("int f() {\n a = 1;\n b = 2;\n c = 3;\n return a;\n}"), 0.8
        ) is DropReason.MASS_REWRITE
        assert apply_exclusion_filters(fixture("int f() {\n x = 1;\n}"), 0.1) is DropReason.TOO_SHORT
        assert apply_exclusion_filters(
            fixture("int f() {\n a = 1;\n b = 2;\n c = 3;\n return a;\n}"), 0.0
        ) is DropReason.NO_CHANGE
        keeper = fixture("int f() {\n" + "\n".join(f" v{i} = {i};" for i in range(10)) + "\n return v0;\n}")
        assert apply_exclusion_filters(keeper, 0.1) is None


def test_checkpoint_and_determinism(tmp_path):
    with criterion("checkpoint-and-determinism"):
        # bitwise round-trip
        rng = np.random.default_rng(1)
        ckpt = Checkpoint(
            version=CKPT_VERSION,
            config={"stage": "sift", "train": {"seed": 0}},
            tensors={"lm.w": rng.standard_normal((5, 3)).astype(np.float32)},
            metrics_history=[],
        )
        p = tmp_path / "c.ckpt"
        save_checkpoint(ckpt, p)
        again = load_checkpoint(p)
        assert again.tensors["lm.w"].tobytes() == ckpt.tensors["lm.w"].tobytes()

        # identical seed -> identical loss_curve.csv bytes
        corpus = make_synthetic_corpus(n=12, seed=6)
        dialogues = build_dialogues(corpus)
        blobs = []
        for run in range(2):
            cfg = TrainConfig(
                stage="sift", learning_rate=0.01, batch_size=4, epochs=2, seed=21,
                lm_config=TransformerConfig(d_model=32, n_layers=1, n_heads=2, context_window=384),
                lora_config=LoraConfig(rank=2),
            )
            _, curve = train_sift(dialogues, cfg)
            path = tmp_path / f"loss_curve_{run}.csv"
            curve.to_csv(path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]
