"""Record the headline verdict values that the correctness gate compares against.

    python3 bench/record_reference.py

Runs one pass of every workload at workload seeds 0 .. REFERENCE_SEEDS-1
(workloads.py) and writes
bench/reference.json.  Run it only on a commit whose numbers are trusted: the
benchmark then fails any later commit whose headline values move by more than
workloads.REL_TOL.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


def main():
    os.environ.update(run.THREAD_ENV)  # before numpy loads, as in a benchmark run
    cli = worker.import_cli()
    ref = {}
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        for name, spec in workloads.WORKLOADS.items():
            ref[name] = {}
            base = cli.parse_config(workloads.scenario_text(name))
            for seed in range(workloads.REFERENCE_SEEDS):
                ops = worker.build_ops(base, spec["targets"], seed, workdir / name)
                _, errors = worker.run_pass(cli, ops)
                gate = worker.Gate()
                gate.check(0, ops, errors)
                if gate.failures:
                    raise SystemExit(f"{name} seed {seed}: {gate.failures}")
                ref[name][str(seed)] = {}
                for scn in ops:
                    target = scn.targets[0]
                    verdict = json.loads(worker.read_bundle(scn.out_dir)["verdicts.json"])[target]
                    ref[name][str(seed)][target] = workloads.headline(target, verdict)
                print(f"{name} seed {seed}: recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
