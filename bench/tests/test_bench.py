"""Checks of the benchmark itself: the tracer's bindings, repeatable counts,
declared metric names and the correctness gate's failure accounting.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

cli = worker.import_cli()

# A few cheap targets that between them call into every traced layer.
SMALL = cli.parse_config(
    workloads.scenario_text("bounds").split("[lattice]")[0]
    + "[lattice]\nn = 2\nl_max = 6\n\n[verify]\n"
    + "n_draws = 4\nresolutions = 4, 8\nn_fields = 5\ngronwall_count = 3\n"
)
SMALL_TARGETS = ("forward-first", "roundtrip", "lp-props", "gronwall", "poincare")


def _bindings():
    return {
        (name, attr): id(value)
        for name, mod in list(sys.modules.items())
        if name == "shellwave" or name.startswith("shellwave.")
        for attr, value in vars(mod).items()
    }


def test_tracer_restores_every_binding():
    before = _bindings()
    t = tracer.Tracer()
    with t.installed():
        during = _bindings()
    changed = {key for key in before if during[key] != before[key]}
    for key in [("shellwave.energies", "fundamental_matrices"),
                ("shellwave.modelsys", "fundamental_matrices"),
                ("shellwave.modelsys", "solve_ivp"),
                ("shellwave.cli", "run_scenario"),
                ("shellwave", "run_scenario"),
                ("shellwave.lp", "eigenvalue_at")]:
        assert key in changed
    assert _bindings() == before

    with pytest.raises(ZeroDivisionError):
        with t.installed():
            1 / 0
    assert _bindings() == before


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two traced runs of the small scenario at one seed, each in its own tracer."""
    runs = []
    for label in ("a", "b"):
        ops = worker.build_ops(SMALL, SMALL_TARGETS, 3, tmp_path_factory.mktemp(label))
        gate = worker.Gate()
        res = worker.measure(cli, ops, 0.0, gate, tracer.Tracer())
        res.update(attempted=gate.attempted, failures=gate.failures)
        runs.append(res)
    return runs


def test_counts_repeat_exactly(traced_runs):
    counts = [n for n, unit in run.declared_metrics()["per_layer"].items() if unit == "count"]
    layers = [m for res in traced_runs for m in res["layers"]]
    assert len(layers) == 2 * worker.MIN_TRACE_PAIRS  # traced passes of both runs
    for name in counts:
        assert len({m[name] for m in layers}) == 1, name
    first = layers[0]
    assert first["modelsys.rhs_evals"] > 0
    assert first["gronwall.instances"] == 3 + 1  # random instances plus the preset
    assert first["lp.defect_calls"] > 0
    assert all(first[f"{layer}.calls"] > 0 for layer in tracer.LAYERS)


def test_traced_runs_pass_their_gates(traced_runs):
    for res in traced_runs:
        assert res["failures"] == []
        assert res["trace_problems"] == []
        assert all(0.0 < m["trace.coverage"] <= 1.0 for m in res["layers"])


def _span(name, start, end, parent):
    return tracer.Span(name, start, end, parent, 0, None, None)


def test_coverage_leaves_out_time_outside_the_computing_layers():
    # cli.run_scenario holds 1 s; lp and gronwall spans inside it cover 0.6 s,
    # the rest is cli's own (untraced helpers, bundle I/O).
    spans = [_span("cli.run_scenario", 0.0, 1.0, -1),
             _span("lp.verify_refined_poincare", 0.1, 0.4, 0),
             _span("lp.refined_poincare_defect", 0.2, 0.3, 1),
             _span("gronwall.gronwall_like_bound", 0.5, 0.8, 0)]
    m, problems = tracer.span_metrics(spans, 0, 1.0)
    assert problems == []
    assert m["trace.coverage"] == pytest.approx(0.6)
    assert m["cli.self_s"] == pytest.approx(0.4)

    m, problems = tracer.span_metrics(spans[:1], 0, 1.0)
    assert m["trace.coverage"] == 0.0 and problems == []


def test_self_check_reports_spans_longer_than_the_pass():
    m, problems = tracer.span_metrics([_span("cli.run_scenario", 0.0, 2.0, -1)], 0, 1.0)
    assert any("more than the wall" in p for p in problems)


def test_every_emitted_metric_is_declared(traced_runs):
    declared = run.declared_metrics()
    res = {**traced_runs[0], "peak_rss_mb": 1.0}
    assert set(run.end_to_end_metrics([1.0], res)) == set(declared["end_to_end"])
    assert set(run.per_layer_metrics(res)) == set(declared["per_layer"])


class StubCli:
    """Writes a one-target verdicts.json; misbehaves for one chosen target."""

    def __init__(self, bad_target, how):
        self.bad_target, self.how = bad_target, how
        self.calls = 0

    def run_scenario(self, scn, quiet=False):
        self.calls += 1
        target = scn.targets[0]
        bad = target == self.bad_target
        if bad and self.how == "raise":
            raise RuntimeError("stub failure")
        verdict = {"passed": not (bad and self.how == "verdict")}
        if bad and self.how == "unstable":
            verdict["call"] = self.calls
        out = Path(scn.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "verdicts.json").write_text(json.dumps({target: verdict}))
        return {target: verdict}, verdict["passed"]


@pytest.mark.parametrize("how", ["verdict", "raise", "unstable"])
def test_failing_operation_counts_in_fail_frac(tmp_path, how):
    targets = ("lp-props", "roundtrip", "toy-shells")  # no headline values to compare
    ops = worker.build_ops(SMALL, targets, 0, tmp_path)
    gate = worker.Gate()
    res = worker.measure(StubCli("roundtrip", how), ops, 0.0, gate, tracer.Tracer())
    res.update(attempted=gate.attempted, failures=gate.failures)
    n_pass = 2 * worker.MIN_TRACE_PAIRS
    assert gate.attempted == len(targets) * n_pass
    # an unstable bundle matches itself in the first pass and fails after it
    bad_passes = n_pass - 1 if how == "unstable" else n_pass
    assert gate.failed == bad_passes
    assert run.per_layer_metrics(res)["fail_frac"]["value"] == bad_passes / gate.attempted


def test_each_pass_reads_only_what_it_wrote(tmp_path):
    ops = worker.build_ops(SMALL, ("roundtrip",), 0, tmp_path)
    stale = Path(ops[0].out_dir) / "series" / "stale.csv"
    stale.parent.mkdir(parents=True)
    stale.write_text("left by an earlier pass\n")
    _, errors = worker.run_pass(StubCli(None, None), ops)
    assert errors == [None]
    assert set(worker.read_bundle(ops[0].out_dir)) == {"verdicts.json"}


def test_reference_mismatch_is_a_failure(tmp_path):
    ops = worker.build_ops(SMALL, ("roundtrip", "gronwall"), 0, tmp_path)
    _, errors = worker.run_pass(cli, ops)
    verdict = json.loads((Path(ops[1].out_dir) / "verdicts.json").read_text())["gronwall"]
    want = workloads.headline("gronwall", verdict)
    gate = worker.Gate({"roundtrip": {}, "gronwall": want})
    gate.check(0, ops, errors)
    assert gate.failed == 0

    gate = worker.Gate({"roundtrip": {}, "gronwall": {**want, "worst_defect_rel": 0.5}})
    gate.check(0, ops, errors)
    assert gate.failed == 1 and "worst_defect_rel" in gate.failures[0]


def test_refuses_to_run_without_the_sources(tmp_path):
    root = BENCH.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "bounds", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_headline_tolerance_is_relative_above_round_off():
    c = 0.1372614730835596  # a Poincare constant of the reference
    assert workloads.compare_headline({"k": c * (1 + 5e-13)}, {"k": c}) == []
    assert workloads.compare_headline({"k": c * (1 + 5e-12)}, {"k": c}) != []
    assert workloads.compare_headline({"k": 4.4e-16}, {"k": 2.2e-16}) == []
    assert workloads.compare_headline({"k": 1e-13}, {"k": 0.0}) != []
