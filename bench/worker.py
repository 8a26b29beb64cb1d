"""One benchmark process: set shellwave up once, then run passes of a workload.

run.py starts this script in a fresh interpreter for every run:

    python3 bench/worker.py --workload bounds --seed 0 --seconds 30 --trace 0 --workdir DIR
    python3 bench/worker.py --workload bounds --probe    # set up, report, exit

One operation is one ``shellwave.cli.run_scenario`` call for a single target,
which is what ``shellwave --target X --seed s --out DIR`` does.  A pass runs
every operation of the workload once, in order, with one client and no think
time; passes repeat the same per-operation seeds.  The last line of standard
output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

import workloads  # noqa: E402  (BENCH is sys.path[0] when run as a script)
from tracer import Span, Tracer, span_metrics  # noqa: E402

# Lower limits on the passes of one run.  Past them, a run starts another pass
# only if it is expected to end less than half a pass after --seconds, so runs
# last about --seconds on average and a slow machine cannot stretch them much.
MIN_PASSES = 2  # untraced passes per untraced run
MIN_TRACE_PAIRS = 1  # (untraced, traced) pass pairs per traced run


def import_cli():
    """Import shellwave from the sources next to the benchmark, never elsewhere."""
    if not (SRC / "shellwave" / "__init__.py").is_file():
        raise SystemExit(f"worker: no shellwave sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import shellwave.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"worker: imported shellwave from {cli.__file__}, not from {SRC}")
    return cli


def warm_up():
    """One small call per layer, so first-call costs land in set-up, not in a pass."""
    import numpy as np
    from shellwave import energies, gronwall, lattice, lp, modelsys

    bg = lattice.desitter_background()
    part = lp.make_partition(-8, 12, 3)
    lat = lattice.build_lattice(2, 4)
    rng = np.random.default_rng(0)
    lp.refined_poincare_defect(part, 1, 1.0, lattice.random_field(lat, rng), 0.5, bg)
    modelsys.constant_mode_run(4.0, 1.0, 0.0, 0.05, 1.0)
    energies.verify_theorem_ratio("first", part, bg, resolutions=(2, 4), n_draws=2)
    gronwall.gronwall_like_bound(gronwall.random_instance(rng, k_max=2, grid_count=16))


def build_ops(base, targets, seed, workdir):
    """One single-target scenario per operation, each writing its own bundle."""
    return [
        dataclasses.replace(
            base, targets=(t,), seed=workloads.op_seed(seed, i, len(targets)),
            out_dir=str(Path(workdir) / f"op{i}-{t}"),
        )
        for i, t in enumerate(targets)
    ]


def run_pass(cli, ops, tracer=None):
    """Run every operation once; returns (wall seconds, error text or None per op).

    Each operation's output directory is emptied first, outside the timed
    region, so that its bundle holds only what this pass wrote.
    ``cli.run_scenario`` is looked up on every call so that an installed
    tracer's wrapper is the one called.
    """
    for scn in ops:
        shutil.rmtree(scn.out_dir, ignore_errors=True)
    errors = []
    start = time.perf_counter()
    for i, scn in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        try:
            cli.run_scenario(scn, quiet=True)
            errors.append(None)
        except Exception as exc:  # a failed operation is counted, not fatal
            errors.append(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - start, errors


def read_bundle(out_dir):
    """{relative path: bytes} of every file an operation wrote."""
    root = Path(out_dir)
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class Gate:
    """Correctness of every operation in every pass.

    An operation fails if it raised, if its verdict did not pass, if its
    bundle differs from the one the same operation wrote in the first pass,
    or if its headline values differ from the recorded reference.
    """

    def __init__(self, reference=None):
        self.reference = reference  # {target: headline}, or None
        self.attempted = 0
        self.failures: list[str] = []
        self._first: dict[int, dict] = {}

    def check(self, pass_no, ops, errors):
        """Judge one pass; returns the bytes its operations wrote."""
        written = 0
        for i, (scn, err) in enumerate(zip(ops, errors)):
            self.attempted += 1
            target = scn.targets[0]
            if err is not None:
                reasons = [err]
            else:
                bundle = read_bundle(scn.out_dir)
                written += sum(len(b) for b in bundle.values())
                reasons = self._reasons(i, target, bundle)
            if reasons:
                self.failures.append(f"pass {pass_no} op {i} ({target}): " + "; ".join(reasons))
        return written

    def _reasons(self, i, target, bundle):
        verdict = json.loads(bundle["verdicts.json"])[target]
        reasons = []
        if verdict.get("passed") is not True:
            reasons.append("verdict has passed: false")
        if self._first.setdefault(i, bundle) != bundle:
            reasons.append("bundle differs from the first pass")
        if self.reference is not None:
            got = workloads.headline(target, verdict)
            reasons += workloads.compare_headline(got, self.reference[target])
        return reasons

    @property
    def failed(self):
        return len(self.failures)


def measure(cli, ops, seconds, gate, tracer=None):
    """Closed loop of passes for about ``seconds``; traced runs alternate
    untraced and traced passes so that both see the same machine state."""
    out = {"pass_s": [], "traced_pass_s": [], "layers": [], "trace_problems": []}
    deadline = time.perf_counter() + seconds
    n = 0
    while True:
        traced = tracer is not None and n % 2 == 1
        if traced:
            first = len(tracer.spans)
            with tracer.installed():
                wall, errors = run_pass(cli, ops, tracer)
        else:
            wall, errors = run_pass(cli, ops)
        written = gate.check(n, ops, errors)
        if traced:
            metrics, problems = span_metrics(tracer.spans, first, wall)
            metrics["cli.bytes_written"] = written
            out["layers"].append(metrics)
            out["traced_pass_s"].append(wall)
            out["trace_problems"] += [f"pass {n}: {p}" for p in problems]
        else:
            out["pass_s"].append(wall)
        n += 1
        if tracer is None:
            if n < MIN_PASSES:
                continue
            step = statistics.median(out["pass_s"])
        else:
            if n < 2 * MIN_TRACE_PAIRS or n % 2:
                continue
            step = out["pass_s"][-1] + out["traced_pass_s"][-1]
        if time.perf_counter() + step / 2 > deadline:
            return out


def versions():
    import numpy
    import scipy

    config = getattr(numpy.__config__, "CONFIG", {})
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0, help="0: the minimum passes only")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path)
    ap.add_argument("--spans", type=Path, help="write the traced run's spans here")
    ap.add_argument("--probe", action="store_true", help="set up, report and exit")
    args = ap.parse_args(argv)

    cli = import_cli()
    spec = workloads.WORKLOADS[args.workload]
    base = cli.parse_config(workloads.scenario_text(args.workload))
    warm_up()
    ready = time.monotonic()
    if args.probe:
        print(json.dumps({"ready": ready}))
        return 0

    ops = build_ops(base, spec["targets"], args.seed, args.workdir)
    reference = workloads.load_reference().get(args.workload, {}).get(str(args.seed))
    gate = Gate(reference)
    tracer = Tracer() if args.trace else None
    out = measure(cli, ops, args.seconds, gate, tracer)
    if tracer is not None and args.spans is not None:
        args.spans.write_text(json.dumps({"fields": list(Span._fields),
                                          "spans": [list(s) for s in tracer.spans]}))
    out.update(
        ready=ready,
        attempted=gate.attempted,
        failures=gate.failures,
        reference_checked=reference is not None,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        versions=versions(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
