"""The process policy that importing ``msivd`` sets: BLAS threads and the
glibc heap thresholds. Each case runs in a fresh interpreter, since both
rules act once, at import, and depend on the environment and on what was
imported before."""
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
GLIBC = platform.libc_ver()[0] == "glibc"
FAULTS_PER_STREAM = 100  # measured 2.4-2.9 with the heap policy, 1,099-1,166 without

# Two warm batches of SIFT, then the minor page faults of four more, per
# stream. Each batch has 8 streams of 400-511 random ids on the desk LM.
FAULT_PROBE = """
import json, resource
import msivd
import numpy as np
from msivd.dialogue import RenderedDialogue
from msivd.lm import ByteTokenizer, LmModel
from msivd.train import TrainConfig, TrainingStream, sift_batch_loss

config = TrainConfig(stage="sift")
model = LmModel(config.lm_config, seed=0, lora=config.lora_config)
rng = np.random.default_rng(0)

def batch():
    streams = []
    for _ in range(8):
        t = int(rng.integers(400, 512))
        span = (int(0.45 * t), t)
        ids = rng.integers(0, ByteTokenizer.vocab_size, t)
        streams.append(TrainingStream(rendered=RenderedDialogue(ids, [span]), tasks=[(0, span)]))
    return streams

warm, timed = [batch() for _ in range(2)], [batch() for _ in range(4)]
for streams in warm:
    sift_batch_loss(model, streams)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for streams in timed:
    sift_batch_loss(model, streams)
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(json.dumps(faults / sum(len(s) for s in timed)))
"""


def _run(code: str, **env_vars: str):
    """Run ``code`` in a fresh interpreter whose environment sets none of
    the variables either rule reads, apart from ``env_vars``; return the
    JSON value of its last output line."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in BLAS_VARS and not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"
    }
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(env_vars)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


# --- BLAS threads ---------------------------------------------------------

POOL_PROBE = """
import json, os
{first}
import msivd
from msivd import train
print(json.dumps({{"env": {{v: os.environ.get(v) for v in {vars}}},
                  "workers": train._stream_pool()._max_workers,
                  "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()}}))
"""


def test_import_pins_blas_to_one_thread():
    """With none of the variables set, importing msivd sets all three to 1,
    and SIFT runs one worker per usable CPU."""
    got = _run(POOL_PROBE.format(first="", vars=BLAS_VARS))
    assert got["env"] == {v: "1" for v in BLAS_VARS}
    assert got["workers"] == got["cpus"]


def test_callers_blas_thread_count_wins():
    got = _run(POOL_PROBE.format(first="", vars=BLAS_VARS), OPENBLAS_NUM_THREADS="3")
    assert got["env"] == {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def test_numpy_loaded_first_keeps_sift_to_one_worker():
    """numpy imported before msivd, with no variable set, may already run
    BLAS threads of its own; SIFT then keeps to one worker."""
    got = _run(POOL_PROBE.format(first="import numpy", vars=BLAS_VARS))
    assert got["workers"] == 1


# --- glibc heap policy ----------------------------------------------------


@pytest.mark.skipif(not GLIBC, reason="the heap policy is set on glibc only")
def test_freed_stream_graphs_stay_in_the_process():
    """A stream's freed graph is reused by the next stream, not handed back
    to the kernel and faulted in again."""
    assert _run(FAULT_PROBE) < FAULTS_PER_STREAM


@pytest.mark.skipif(not GLIBC, reason="the heap policy is set on glibc only")
def test_callers_malloc_setting_wins():
    """A malloc threshold in the environment leaves the policy unset, so a
    small trim threshold faults the graphs back in on every stream."""
    assert _run(FAULT_PROBE, MALLOC_TRIM_THRESHOLD_="131072") > FAULTS_PER_STREAM
