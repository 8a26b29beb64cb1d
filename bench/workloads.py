"""The benchmark's workloads, per-operation seeds and correctness reference.

This module imports nothing from shellwave, so run.py can read it without
paying for numpy or scipy.  Why each workload exists is written up in
README.md next to this file.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEEDS = 10  # reference.json covers workload seeds 0 .. REFERENCE_SEEDS-1

# The lattice, background, partition and system sections of the package's
# default scenario; only [verify] differs between workloads.
_BASE = """\
[scenario]
name = bench-{name}
targets = verify-all
seed = 0

[lattice]
n = 2
l_max = 32

[background]
kind = desitter

[partition]
k_min = -8
k_max = 12
smoothness = 3

[system]
n_regular = 2
family = first
top_order = 2
tau_seed = 1e-4

[verify]
"""

# Each workload keeps the layer mix of its targets at the default scenario
# but is sized so that one pass takes seconds, not a minute: the default
# theorem ensembles (resolutions 32/64/128) need about 49 s for one pass,
# longer than one benchmark run may last.
WORKLOADS = {
    "ensemble": {
        "targets": ("forward-first", "backward-second"),
        "verify": "n_draws = 50\nresolutions = 16, 32, 48\n",
    },
    "trajectory": {
        "targets": ("toy-shells", "roundtrip", "singular-split"),
        "verify": "n_draws = 50\nresolutions = 32, 64, 128\n",
    },
    "bounds": {
        "targets": ("lp-props", "gronwall", "poincare"),
        "verify": "resolutions = 32, 64, 128\nn_fields = 150\ngronwall_count = 60\n",
    },
}


def scenario_text(workload):
    """The config file a user would pass with ``shellwave --config``."""
    return _BASE.format(name=workload) + WORKLOADS[workload]["verify"]


def op_seed(workload_seed, index, n_ops):
    """Scenario seed of operation ``index``; distinct across workload seeds."""
    return workload_seed * n_ops + index


# ------------------------------------------------------- headline values

# Key paths into one target's verdict; "*" matches every key or index.
HEADLINES = {
    "forward-first": ("variants.*.max_ratios.*", "variants.*.median_ratios.*"),
    "backward-second": ("variants.*.max_ratios.*", "variants.*.median_ratios.*"),
    "poincare": ("constants.*.*",),
    "lp-props": ("checks.*.constant",),
    "gronwall": ("worst_defect_rel", "preset_defect_rel", "worst_discrete_gap"),
    "toy-shells": ("branches.*.slope",),
    "singular-split": ("parts.blowup.sup_statistic",),
    "roundtrip": (),
}

# ROADMAP's promise: ratios and constants stay within 1e-12 relative.  The
# absolute floor only matters for values at round-off level, such as a
# partition-of-unity defect of 2e-16 or a Gronwall defect of 0.
REL_TOL = 1e-12
ABS_FLOOR = 1e-14


def _walk(node, parts, prefix, out):
    if not parts:
        out[prefix] = float(node)
        return
    head, rest = parts[0], parts[1:]
    if isinstance(node, dict):
        keys = sorted(node) if head == "*" else [head]
        for k in keys:
            _walk(node[k], rest, f"{prefix}.{k}" if prefix else k, out)
    else:
        idx = range(len(node)) if head == "*" else [int(head)]
        for i in idx:
            _walk(node[i], rest, f"{prefix}.{i}" if prefix else str(i), out)


def headline(target, verdict):
    """Flat {path: value} of the values the reference pins for one target."""
    out = {}
    for pattern in HEADLINES[target]:
        _walk(verdict, pattern.split("."), "", out)
    return out


def compare_headline(got, want):
    """Describe each difference between two headline dicts; empty if none."""
    problems = []
    for key in sorted(set(got) | set(want)):
        if key not in got or key not in want:
            problems.append(f"{key}: present in only one of result and reference")
            continue
        a, b = got[key], want[key]
        if not (math.isfinite(a) and abs(a - b) <= max(REL_TOL * abs(b), ABS_FLOOR)):
            problems.append(f"{key}: {a!r} vs reference {b!r}")
    return problems


def load_reference():
    """{workload: {seed string: {target: headline}}}; empty if not recorded."""
    if not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text())
