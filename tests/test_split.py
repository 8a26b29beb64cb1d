"""The singular-split target: pinned integrated outputs and the shared solve."""

import json
from pathlib import Path

import numpy as np

from shellwave import cli, energies, modelsys, parse_config

# The benchmark's trajectory scenario (bench/workloads.py) at seed 0, reduced
# to the target under test.
TRAJECTORY = """\
[scenario]
name = bench-trajectory
targets = singular-split
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
n_draws = 50
resolutions = 32, 64, 128
"""

GOLDENS = json.loads((Path(__file__).with_name("split_goldens.json")).read_text())


def _run_split(text):
    return cli._RUNNERS["singular-split"](parse_config(text))


def test_split_outputs_match_goldens():
    # Values that depend on the integration, bit for bit.  The benchmark's
    # headline (the blow-up sup statistic) is taken at the seed time, where
    # every run equals its seed, so it cannot see a change in the solves.
    verdict, series = _run_split(TRAJECTORY)
    parts = verdict["parts"]
    assert verdict["passed"]
    assert parts["reconstruction"]["rel_error"] == GOLDENS["reconstruction_rel_error"]
    assert parts["blowup"]["worst_drift_per_decade"] == GOLDENS["worst_drift_per_decade"]
    assert [list(r) for r in series["blowup"][1:]] == GOLDENS["blowup_rows"]
    assert parts["epsilon_ladder"]["discrepancies"] == GOLDENS["epsilon_discrepancies"]


def test_split_solves_do_not_grow_with_draws(monkeypatch):
    # every draw of the blow-up ensemble shares one augmented solve
    calls = []
    propagate = modelsys._propagate

    def counted(*args):
        calls.append(args[0])
        return propagate(*args)

    monkeypatch.setattr(modelsys, "_propagate", counted)
    counts = {}
    for n_draws in (40, 60):
        calls.clear()
        text = TRAJECTORY.replace("l_max = 32", "l_max = 4").replace(
            "n_draws = 50", f"n_draws = {n_draws}")
        verdict, series = _run_split(text)
        assert verdict["parts"]["blowup"]["n_draws"] == len(series["blowup"]) - 1 == n_draws // 2
        counts[n_draws] = len(calls)
    # (a) P and F for the split and again for the direct run, (b) one P for
    # every draw (unforced), (c) two runs of P, (d) four rungs of P
    assert counts == {40: 11, 60: 11}


def test_blowup_fails_with_linear_log_normalization(monkeypatch):
    # negative control: over 1 + |log tau| in place of 1 + log^2 tau the
    # statistic keeps growing like |log tau|, and the drift gate must see it
    weights = energies._blowup_weights

    def mutant(bg, lam0, taus, top_order):
        log = np.log(taus)
        return weights(bg, lam0, taus, top_order) * ((1.0 + log**2) / (1.0 + np.abs(log)))[:, None]

    monkeypatch.setattr(energies, "_blowup_weights", mutant)
    text = TRAJECTORY.replace("l_max = 32", "l_max = 4").replace("seed = 0", "seed = 3")
    verdict, _ = _run_split(text)
    blowup = verdict["parts"]["blowup"]
    assert blowup["worst_drift_per_decade"] > blowup["limit"]
    assert not blowup["passed"] and not verdict["passed"]
