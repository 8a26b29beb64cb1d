"""Shellwave benchmark runner.

    python3 bench/run.py --workload ensemble --seed 0 --seconds 28 --trace 0
    python3 bench/run.py     # every workload, one untraced and one traced run each

A run starts fresh worker processes one at a time: set-up probes that only
import, parse and warm up (untraced runs), then one worker that runs passes
of the workload for ``--seconds``.  Untraced runs report the end-to-end
metrics of BENCHMARK.json, traced runs its per-layer metrics.  Every metric is
printed by name with its unit; the full record, with a machine block, goes to
bench/out/.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit status is 0 only if
every operation passed the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKER = BENCH / "worker.py"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

PROBES = 7  # set-up probes per untraced run; the worker's own set-up is one more sample
TIME_LIMIT = 170.0  # seconds one run may take, all processes included
# One BLAS thread: the kernels here are small, and extra threads only add noise.
BLAS_THREADS = "1"
THREAD_ENV = {v: BLAS_THREADS for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
WORKER_ENV = {**os.environ, **THREAD_ENV}


class BenchError(RuntimeError):
    pass


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics():
    """{"end_to_end" | "per_layer": {name: unit}} from BENCHMARK.json."""
    spec = benchmark_spec()
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def summary(values):
    """Median, quartiles and sample count of one metric's samples."""
    values = list(values)
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1
                 else (med, med, med))
    return {"value": med, "q1": q1, "q3": q3, "samples": len(values)}


def end_to_end_metrics(setup_samples, res):
    return {
        "pass_s": summary(res["pass_s"]),
        "setup_s": summary(setup_samples),
        "peak_rss_mb": summary([res["peak_rss_mb"]]),
    }


def per_layer_metrics(res):
    layers = res["layers"]
    out = {name: summary(m[name] for m in layers) for name in layers[0]}
    traced = statistics.median(res["traced_pass_s"])
    untraced = statistics.median(res["pass_s"])
    out["trace.overhead_frac"] = {"value": traced / untraced - 1.0, "samples": len(layers)}
    out["fail_frac"] = {"value": len(res["failures"]) / res["attempted"], "samples": res["attempted"]}
    return out


def spawn(args, deadline):
    """Run one worker to completion; returns (its JSON result, spawn time)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to start {args}")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args], cwd=ROOT, env=WORKER_ENV,
            stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish within {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with status {proc.returncode}")
    return json.loads(lines[-1]), spawned


def _read_first(paths, parse):
    for p in paths:
        try:
            return parse(Path(p).read_text())
        except (OSError, ValueError):
            continue
    return None


def machine(seed, worker_versions):
    cpu = _read_first(["/proc/cpuinfo"], lambda t: next(
        (ln.split(":", 1)[1].strip() for ln in t.splitlines() if ln.startswith("model name")), None))
    physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    cgroup = _read_first(["/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes"],
                         lambda t: None if t.strip() == "max" else int(t))
    # an unlimited cgroup reports "max" (v2) or a huge number (v1)
    limit = physical if cgroup is None else min(cgroup, physical)
    commit = "unknown"  # a checkout without .git, or no git to ask
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or "unknown",
        "memory_limit_bytes": limit,
        **worker_versions,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": commit,
        "workload_seed": seed,
    }


def run_one(workload, seed, seconds, trace):
    """One run of one workload; returns its record, also written to bench/out/."""
    deadline = time.monotonic() + TIME_LIMIT
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(PROBES):
            probe, spawned = spawn(base + ["--probe"], deadline)
            setups.append(probe["ready"] - spawned)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    spans = OUT / f"{workload}-seed{seed}.spans.json"
    try:
        res, spawned = spawn(base + ["--seconds", str(seconds), "--trace", str(trace),
                                     "--workdir", str(workdir), "--spans", str(spans)], deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(res["ready"] - spawned)
    metrics = per_layer_metrics(res) if trace else end_to_end_metrics(setups, res)

    units = declared_metrics()["per_layer" if trace else "end_to_end"]
    if set(metrics) != set(units):
        raise BenchError(f"metrics {sorted(set(metrics) ^ set(units))} are emitted "
                         "but not declared, or declared but not emitted")
    metrics = {name: {**metrics[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "machine": machine(seed, res["versions"]),
        "metrics": metrics,
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "failures": res["failures"],
        "reference_checked": res["reference_checked"],
        "trace_problems": res["trace_problems"],
        "samples": {"setup_s": setups, "pass_s": res["pass_s"],
                    "traced_pass_s": res["traced_pass_s"]},
    }
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def report(record):
    w = record["workload"]
    for name, m in record["metrics"].items():
        n = m["samples"]
        detail = f"{n} sample{'s' if n != 1 else ''}"
        if "q1" in m and n > 1:
            detail = f"median of {detail}, quartiles {m['q1']:.6g} .. {m['q3']:.6g}"
        print(f"{w:<10} {name:<32} {m['value']:>14.6g} {m['unit']:<6} ({detail})")
    print(f"{w:<10} {'operations':<32} {record['attempted']:>14d} attempted, "
          f"{record['failed']} failed, reference "
          f"{'checked' if record['reference_checked'] else 'not recorded for this seed'}")
    for line in record["failures"][:20] + record["trace_problems"]:
        print(f"{w:<10} FAILED {line}")


def main(argv=None):
    ap = argparse.ArgumentParser(description="shellwave benchmark")
    ap.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run; default run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics; default both")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "shellwave" / "__init__.py").is_file():
        print(f"benchmark: no shellwave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    seconds = benchmark_spec()["run_seconds"] if args.seconds is None else args.seconds
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.trace is None else (args.trace,)
    records = []
    try:
        for w in names:
            for trace in modes:
                records.append(run_one(w, args.seed, seconds, trace))
                report(records[-1])
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1

    prefix = len(records) > 1
    metrics = {
        (f"{r['workload']}.{name}" if prefix else name): {"value": m["value"], "unit": m["unit"]}
        for r in records for name, m in r["metrics"].items()
    }
    correct = all(r["failed"] == 0 and not r["trace_problems"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
