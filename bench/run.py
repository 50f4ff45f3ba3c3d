#!/usr/bin/env python3
"""Desk-pipeline benchmark: the ``sift``, ``fused`` and ``predict`` workloads.

Run from the repository root:

    python3 bench/run.py --workload sift --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 1

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced round plus the tracing overhead against untraced
rounds of the same process. ``--workload all`` runs each workload in a
process of its own, one after the other. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record (input properties, environment, spans) goes to
``.bench_results/``. See bench/README.md for what each number means.
"""
from __future__ import annotations

import os

# Pinned before numpy loads: the OpenBLAS default is one thread per core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("sift", "fused", "predict")
# Set-ups repeat until both limits are passed, half before and half after the
# timed loop, so a burst of load on the machine hits fewer of them.
SETUP_MIN_S = 1.5
SETUP_MIN_N = 3
WARM_UP_S = 1.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import msivd from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "msivd" / "__init__.py").is_file():
        raise SystemExit(f"bench: no program to measure, {src / 'msivd'} is missing")
    sys.path.insert(0, str(src))
    import msivd

    for module in ("autograd", "corpus", "dialogue", "evaluation", "fusion", "gnn", "lm", "minic", "synth", "train"):
        importlib.import_module(f"msivd.{module}")
    if Path(msivd.__file__).resolve().parent != (src / "msivd").resolve():
        raise SystemExit(f"bench: imported msivd from {msivd.__file__}, expected {src}")
    return msivd


def declared_metrics() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure(wl, seconds: float) -> list:
    """Repeat ``wl.op`` until the run ends as near ``seconds`` as the mean op
    length allows."""
    import workloads

    records = []
    start = perf_counter()
    while True:
        records.append(workloads.attempt(wl.op))
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(records) / 2 >= seconds:
            return records


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def unit_seconds(records) -> dict[int, float]:
    """Each unit's median op time. Units differ in size (a predict request
    of 300 or 512 tokens), so rates are taken over one pass of all units,
    and a burst of load on the machine moves a median less than a mean."""
    times: dict[int, list[float]] = {}
    for r in records:
        times.setdefault(r.unit, []).append(r.seconds)
    return {unit: statistics.median(ts) for unit, ts in times.items()}


def end_to_end(records, setup_times) -> dict[str, float]:
    """``records`` holds the successful ops only, at least one."""
    seconds = unit_seconds(records)
    work = {r.unit: r for r in records}
    pass_s = sum(seconds.values())
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "samples_per_s": sum(work[u].samples for u in seconds) / pass_s,
        "tokens_per_s": sum(work[u].tokens for u in seconds) / pass_s,
        "op_ms_p50": percentile([r.seconds * 1e3 for r in records], 50),
        "op_ms_p99": percentile([r.seconds * 1e3 for r in records], 99),
    }


def trace_overhead(traced, untraced) -> float:
    """Traced over untraced time of the units both ran, minus 1."""
    plain = unit_seconds(untraced)
    both = [r for r in traced if r.unit in plain]
    return sum(r.seconds for r in both) / sum(plain[r.unit] for r in both) - 1.0


def timed_setups(workload, seed: int, scratch: Path, min_s: float, min_n: int):
    """Set-ups, each timed, until ``min_s`` seconds and ``min_n`` set-ups
    have passed; returns the last workload object and the times."""
    times = []
    wl = None
    while sum(times) < min_s or len(times) < min_n:
        # A fresh object on a collected heap: repeated set-ups must not pile
        # the garbage of the one before into the peak RSS.
        wl = None
        gc.collect()
        wl = workload(seed, scratch)
        start = perf_counter()
        wl.setup()
        times.append(perf_counter() - start)
    return wl, times


def warm_up(wl) -> list:
    """Ops for ``WARM_UP_S`` before timing: first calls are slower."""
    import workloads

    records = []
    start = perf_counter()
    while not records or perf_counter() - start < WARM_UP_S:
        records.append(workloads.attempt(wl.op))
    return records


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    msivd = import_program()
    import workloads
    from tracer import GcClock, Tracer, autograd_ops

    declared = declared_metrics()
    extra: dict = {}
    workload = workloads.WORKLOADS[name]
    with workloads.scratch_dir(ROOT) as scratch, GcClock() as gc_clock:
        if not trace:
            wl, setup_times = timed_setups(workload, seed, Path(scratch), SETUP_MIN_S, SETUP_MIN_N)
            checked = warm_up(wl)
            records = measure(wl, seconds)
            setup_times += timed_setups(workload, seed, Path(scratch), SETUP_MIN_S, SETUP_MIN_N)[1]
            if hasattr(wl, "finish"):
                checked.append(workloads.attempt(wl.finish))
            good = [r for r in records if r.ok]
            metrics = end_to_end(good, setup_times) if good else {}
            extra["setup_times_s"] = setup_times
        else:
            wl = workload(seed, Path(scratch))
            tracer = Tracer()
            tracer.start(msivd)
            wl.setup()
            tracer.stop()
            checked = warm_up(wl)
            tracer.start(msivd)
            traced = wl.round()
            tracer.stop()
            untraced = measure(wl, max(seconds - tracer.window_s, 0.0))
            records = traced + untraced
            good = [r for r in untraced if r.ok]
            metrics = tracer.metrics(autograd_ops(msivd.autograd)) if good else {}
            if good:
                metrics["trace_overhead_share"] = trace_overhead(traced, good)
            extra["spans"] = tracer.span_records()
            extra["traced_window_s"] = tracer.window_s
        extra["ops"] = [[r.unit, r.seconds, r.samples, r.tokens, r.ok] for r in records]
        gc_stats = {"collections": gc_clock.collections, "pause_s": gc_clock.pause_s}
        checked += records

    kind = "per_layer" if trace else "end_to_end"
    failed = sum(not r.ok for r in checked)
    if not failed and set(metrics) != set(declared[kind]):
        raise SystemExit(
            f"bench: metrics differ from BENCHMARK.json {kind}: "
            f"extra {sorted(set(metrics) - set(declared[kind]))}, "
            f"missing {sorted(set(declared[kind]) - set(metrics))}"
        )
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "failed_share": failed / len(checked),
        "metrics": {k: {"value": float(v), "unit": declared[kind][k]} for k, v in metrics.items()},
        "run": wl.properties(),
        "gc": gc_stats,
        "environment": environment(),
        **extra,
    }


def report(result: dict) -> None:
    """Human-readable lines, then the one-line JSON result."""
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"ops {result['attempted']}  failed_share {result['failed_share']:.4f}")
    for k, m in result["metrics"].items():
        print(f"  {k:40s} {m['value']:16.6f} {m['unit']}")
    print("run " + json.dumps(result["run"], sort_keys=True))
    print("gc " + json.dumps(result["gc"]))
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    out = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(out), flush=True)


def write_record(result: dict) -> None:
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")


def run_all(args) -> int:
    """One process per workload, since ``ru_maxrss`` is a per-process peak."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print("\n".join(lines))
            print(f"bench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    write_record(result)
    report(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
