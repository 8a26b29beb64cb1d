import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shellwave
from shellwave import (
    Scenario,
    constant_background,
    make_partition,
    parse_config,
    run_scenario,
    verify_refined_poincare,
)
from shellwave import cli, modelsys
from shellwave.cli import _SECTION_KEYS, TARGETS, ConfigError, main

GOLDEN = """\
[scenario]
name = bench
targets = gronwall, lp-props
seed = 7
out = /tmp/bench-out

[lattice]
n = 3
l_max = 12

[background]
kind = constant
value = 1.5

[partition]
k_min = -6
k_max = 10
smoothness = 2
shift = 0.5

[system]
n_regular = 3
family = second
top_order = 1
tau_seed = 1e-5   # seeding time

[verify]
n_draws = 12
resolutions = 8, 16
n_fields = 40
gronwall_count = 15
"""


def test_parse_golden_config():
    scn = parse_config(GOLDEN)
    assert scn.name == "bench"
    assert scn.targets == ("gronwall", "lp-props")
    assert scn.seed == 7
    assert scn.out_dir == "/tmp/bench-out"
    assert (scn.n_sphere, scn.l_max) == (3, 12)
    assert scn.background_kind == "constant"
    assert scn.background_value == 1.5
    assert (scn.k_min, scn.k_max, scn.smoothness, scn.shift) == (-6, 10, 2, 0.5)
    assert (scn.n_regular, scn.family, scn.top_order) == (3, "second", 1)
    assert scn.tau_seed == 1e-5
    assert (scn.n_draws, scn.resolutions) == (12, (8, 16))
    assert (scn.n_fields, scn.gronwall_count) == (40, 15)


def test_parse_default_config():
    scn = parse_config("")
    assert scn.targets == ("verify-all",)
    assert scn.expanded_targets() == TARGETS
    assert scn.l_max == 32
    assert scn.background().name == "desitter"


def test_hash_inside_a_value_is_not_a_comment():
    scn = parse_config("[scenario]\nout = /tmp/a#b\nname = run#1\n")
    assert (scn.out_dir, scn.name) == ("/tmp/a#b", "run#1")
    # after whitespace a # starts a comment, as in the golden config's tau_seed line
    scn = parse_config("# header\n[scenario]\n  # indented\nname = run #1\nout = /tmp/a\t#b\n")
    assert (scn.out_dir, scn.name) == ("/tmp/a", "run")
    assert scn.config_hash() == parse_config("[scenario]\nname = run\n").config_hash()


def test_expanded_targets_dedup():
    scn = Scenario(targets=("gronwall", "verify-all", "gronwall"))
    expanded = scn.expanded_targets()
    assert expanded.count("gronwall") == 1
    assert set(expanded) == set(TARGETS)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[nonsense]\n", "line 1: unknown section"),
        ("[lattice]\nn = 2\n[lattice]\n", "line 3: duplicate section"),
        ("[lattice]\njust some words\n", "line 2: expected 'key = value'"),
        ("n = 2\n", "line 1: key outside any section"),
        ("[lattice]\nhue = 3\n", "line 2: unknown key 'hue'"),
        ("[lattice]\nn = 2\nn = 3\n", "line 3: repeated key 'n'"),
        ("[scenario]\ntargets = warp\n", "unknown target 'warp'"),
        ("[system]\nfamily = zeroth\n", "family must be"),
        ("[background]\nkind = banana\n", "line 2: background kind"),
        ("[lattice]\nn = 0\n", "line 2: sphere dimension"),
        ("[partition]\nk_min = 2\n", "line 2: k_min must be negative"),
        ("[partition]\nk_max = 0\n", "line 2: k_max must be positive"),
        ("[verify]\nn_draws = 0\n", "line 2: n_draws must be"),
        ("[verify]\nresolutions = 8\n", "line 2: need at least two resolutions"),
        ("[scenario]\nname = x\ntargets = gronwall, warp\n", "line 3: unknown target 'warp'"),
        ("[system]\nn_regular = 1\nfamily = zeroth\n", "line 3: family must be"),
        ("[system]\ncouple = 0 1 0.5 1\n", "line 2: unknown key 'couple'"),
        ("[lattice]\nn = abc\n", "line 2: bad value 'abc' for n"),
        ("[scenario]\nseed = 1e400\n", "line 2: bad value inf for seed"),
        ("[background]\nkind = constant\nvalue = big\n", "line 3: bad value 'big' for value"),
        ("[verify]\nresolutions = 8, x\n", "line 2: bad value '8, x' for resolutions"),
        ("[lattice]\nl_max = -1\n", "line 2: l_max must be >= 1"),
        ("[lattice]\nl_max = 0\n", "line 2: l_max must be >= 1"),
        ("[verify]\nresolutions = 0, 8\n", "line 2: need at least two resolutions to compare, each >= 1"),
        ("[partition]\nsmoothness = 0\n", "line 2: smoothness must be >= 1"),
        ("[partition]\nshift = -0.75\n", "line 2: shift must lie in"),
        ("[system]\nn_regular = 0\n", "line 2: n_regular must be >= 1"),
        ("[system]\ntop_order = -1\n", "line 2: top_order must be >= 0"),
        ("[system]\ntau_seed = 1.0\n", "line 2: tau_seed must lie in (0, 1)"),
        ("[system]\ntau_seed = 0\n", "line 2: tau_seed must lie in (0, 1)"),
        ("[verify]\nresolutions = 8, -16\n", "line 2: need at least two resolutions"),
        # a repeated lattice gives drift factors of exactly 1: nothing compared
        ("[verify]\nresolutions = 32, 32\n",
         "line 2: need at least two resolutions to compare, each >= 1, in strictly increasing"),
        ("[verify]\nresolutions = 16, 32, 8\n", "line 2: need at least two resolutions"),
        ("[verify]\nresolutions = 32, 64.5\n", "line 2: bad value '32, 64.5' for resolutions"),
        ("[verify]\nn_fields = 0\n", "line 2: n_fields must be >= 1"),
        ("[verify]\ngronwall_count = 0\n", "line 2: gronwall_count must be >= 1"),
        ("[background]\nvalue = 0\n", "line 2: background value must be positive"),
        ("[background]\nvalue = nan\n", "line 2: background value must be positive"),
        ("[lattice]\nl_max = 2.5\n", "line 2: bad value 2.5 for l_max"),
        ("[verify]\nn_draws = 3.9\n", "line 2: bad value 3.9 for n_draws"),
        ("[lattice]\nn = true\n", "line 2: bad value True for n"),
        ("[partition]\nk_min = false\n", "line 2: bad value False for k_min"),
        ("[scenario]\nseed = -1\n", "line 2: seed must be >= 0"),
    ],
)
def test_parse_rejections(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


def test_resolutions_read_as_integers():
    # each entry goes through the integer reader, like l_max
    scn = parse_config("[verify]\nresolutions = 32, 64.0\n")
    assert scn.resolutions == (32, 64)
    assert all(type(r) is int for r in scn.resolutions)


# well-formed, out-of-range and unreadable values for every key
_VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats(-2.0, 2.0).map(repr),
    st.sampled_from(["abc", "", "1e400", "-inf", "nan", "true", "false", "2.5", "3.9", "4.0",
                     "8, 16", "8, x", "3, 0.5", "-1, 4", "16, 8", "8, 8", "8, 16.0", "first",
                     "second", "constant", "verify-all", "gronwall, warp"]),
)

# integer config key -> Scenario field
_INT_FIELDS = {"seed": "seed", "n": "n_sphere", "l_max": "l_max", "k_min": "k_min",
               "k_max": "k_max", "smoothness": "smoothness", "n_regular": "n_regular",
               "top_order": "top_order", "n_draws": "n_draws", "n_fields": "n_fields",
               "gronwall_count": "gronwall_count"}


@st.composite
def _config_texts(draw):
    lines, given_values = [], {}
    for section in draw(st.lists(st.sampled_from(sorted(_SECTION_KEYS)), unique=True)):
        lines.append(f"[{section}]")
        for key in draw(st.lists(st.sampled_from(sorted(_SECTION_KEYS[section])), unique=True)):
            given_values[key] = draw(_VALUES)
            lines.append(f"{key} = {given_values[key]}")
    return "\n".join(lines) + "\n", given_values


@settings(max_examples=300, deadline=None)
@given(case=_config_texts())
def test_parse_config_accepts_or_raises_config_error(case):
    text, given_values = case
    try:
        scn = parse_config(text)
    except ConfigError as exc:
        assert str(exc).startswith("line "), str(exc)
        return
    assert scn.n_sphere >= 1 and scn.l_max >= 1 and scn.n_regular >= 1 and scn.seed >= 0
    assert 0.0 < scn.tau_seed < 1.0 and abs(scn.shift) <= 0.5
    res = scn.resolutions
    assert len(res) >= 2 and min(res) >= 1 and all(type(r) is int for r in res)
    assert all(a < b for a, b in zip(res, res[1:]))
    assert scn.family in ("first", "second")
    # an accepted integer key holds exactly the number written, never a
    # truncated fraction or a boolean read as 0/1
    for key, raw in given_values.items():
        if key in _INT_FIELDS:
            assert float(raw) == getattr(scn, _INT_FIELDS[key]), (key, raw)


@pytest.mark.parametrize("text", ["[lattice]\nn = abc\n", "[lattice]\nl_max = -1\n",
                                  "[lattice]\nl_max = 0\n",
                                  "[lattice]\nl_max = 2.5\n", "[scenario]\nseed = -1\n"])
def test_main_rejects_bad_value_with_exit_2(tmp_path, capsys, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as err:
        main(["--config", str(cfg)])
    assert err.value.code == 2
    assert "line 2:" in capsys.readouterr().err


# constant backgrounds whose eigenvalues at tau = 0.5 (l(l+n-1)/value^2)
# leave lp-props or poincare no mode: no cell k >= 0, or every mode below or
# above the partition's cell range
_NO_MODE = [
    ("100", "l_max = 8", "poincare", "poincare needs a finite top eigenvalue >= 1"),
    ("100000", "l_max = 2", "lp-props", "lp-props needs an eigenvalue at tau = 0.5"),
    ("1e-6", "l_max = 8", "lp-props", "lp-props needs an eigenvalue at tau = 0.5"),
    ("1e-12", "l_max = 8", "poincare", "poincare needs a finite top eigenvalue >= 1 and a mode"),
]


def _spectrum_config(path, value, lattice, targets):
    path.write_text(
        f"[scenario]\ntargets = {targets}\nout = {path.parent / 'run'}\n"
        f"[lattice]\n{lattice}\n"
        f"[background]\nkind = constant\nvalue = {value}\n"
        "[verify]\nresolutions = 8, 16\nn_fields = 4\ngronwall_count = 2\n"
    )
    return path


@pytest.mark.parametrize("value,lattice,target,fragment", _NO_MODE)
def test_main_rejects_background_without_modes(tmp_path, capsys, value, lattice, target,
                                               fragment):
    cfg = _spectrum_config(tmp_path / "c.cfg", value, lattice, target)
    with pytest.raises(SystemExit) as err:
        main(["--config", str(cfg), "--quiet"])
    assert err.value.code == 2
    assert f"line 6: {fragment}" in capsys.readouterr().err
    # the same background runs a target that reads no eigenvalue window
    cfg = _spectrum_config(tmp_path / "g.cfg", value, lattice, "gronwall")
    assert main(["--config", str(cfg), "--quiet"]) == 0
    # naming the target on the command line is checked as well
    with pytest.raises(SystemExit) as err:
        main(["--config", str(cfg), "--quiet", "--target", target])
    assert err.value.code == 2


def test_refined_poincare_names_resolution_without_cells():
    with pytest.raises(ValueError, match="l_max=8: the top eigenvalue"):
        verify_refined_poincare(make_partition(-8, 12), constant_background(100.0),
                                resolutions=(8, 16), n_fields=2)


def test_refined_poincare_names_resolution_with_every_mode_above_cells():
    # eigenvalues l(l+1) * 1e24 lie above cell 12, so every constant would be 0
    with pytest.raises(ValueError, match="l_max=2: every mode lies above the cells 0..12"):
        verify_refined_poincare(make_partition(-8, 12), constant_background(1e-12),
                                resolutions=(2, 4), n_fields=2)
    with pytest.raises(ConfigError, match="line 1: .* every mode lies above the cells 0..12"):
        parse_config("[background]\nkind = constant\nvalue = 1e-12\n"
                     "[verify]\nresolutions = 2, 4\n[scenario]\ntargets = poincare\n")


@pytest.mark.parametrize("target", ["roundtrip", "forward-first"])
@pytest.mark.parametrize("value", ["1e-200", "1e-155", "inf"])
def test_main_rejects_background_with_underflowing_square(tmp_path, capsys, target, value):
    # eigenvalues are l(l+n-1) / value^2; a square below the smallest normal
    # float made them infinite (roundtrip raised, forward-first did not end)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        f"[scenario]\ntargets = {target}\nout = {tmp_path / 'run'}\n[lattice]\nl_max = 4\n"
        f"[background]\nkind = constant\nvalue = {value}\n[verify]\nresolutions = 2, 4\n"
    )
    with pytest.raises(SystemExit) as err:
        main(["--config", str(cfg), "--quiet"])
    assert err.value.code == 2
    assert ("line 8: background value must be positive and finite, and its square must not "
            "underflow") in capsys.readouterr().err
    # gronwall reads no eigenvalue, so only the underflow rule applies to it
    ok = parse_config("[scenario]\ntargets = gronwall\n[background]\nkind = constant\n"
                      "value = 1e-150\n")
    assert ok.background_value == 1e-150


def _ode_config(path, value, target):
    path.write_text(
        f"[scenario]\ntargets = {target}\nout = {path.parent / 'run'}\n[lattice]\nl_max = 4\n"
        f"[background]\nkind = constant\nvalue = {value}\n"
        "[verify]\nresolutions = 2, 4\nn_draws = 2\ngronwall_count = 2\n"
    )
    return path


@pytest.mark.parametrize("value", ["1e-3", "1e-6"])
def test_main_rejects_spectra_too_fast_to_integrate(tmp_path, capsys, value):
    # frequencies 2 sqrt(lambda) grow like 1 / value; at 1e-3 forward-first
    # ran for 32 s, at 1e-6 it did not finish
    cfg = _ode_config(tmp_path / "c.cfg", value, "forward-first")
    with pytest.raises(SystemExit) as err:
        main(["--config", str(cfg), "--quiet"])
    assert err.value.code == 2
    assert "line 6: forward-first would integrate frequencies" in capsys.readouterr().err
    # a target that integrates nothing runs; naming an ODE target is checked
    cfg = _ode_config(tmp_path / "g.cfg", value, "gronwall")
    assert main(["--config", str(cfg), "--quiet"]) == 0
    with pytest.raises(SystemExit) as err:
        main(["--config", str(cfg), "--quiet", "--target", "roundtrip"])
    assert err.value.code == 2
    assert "roundtrip would integrate frequencies" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["forward-first", "backward-second", "roundtrip",
                                    "singular-split"])
def test_frequency_limit_reads_each_targets_largest_lattice(target):
    # top frequency 2 sqrt(l (l + 1)) / value on the largest lattice the
    # target builds: max resolution, l_max capped at 16, or at least 8
    largest = {"forward-first": 64, "backward-second": 64, "roundtrip": 16,
               "singular-split": 8}[target]
    value = 2.0 * math.sqrt(largest * (largest + 1)) / 4096.0
    text = (f"[scenario]\ntargets = {target}\n[lattice]\nl_max = 32\n"
            "[background]\nkind = constant\nvalue = {value!r}\n"
            "[verify]\nresolutions = 32, 64\n")
    if target == "singular-split":
        text = text.replace("l_max = 32", "l_max = 2")
    assert parse_config(text.format(value=value * (1.0 + 1e-9))).background_value > value
    with pytest.raises(ConfigError, match=f"line 5: {target} would integrate"):
        parse_config(text.format(value=value * (1.0 - 1e-9)))


def test_frequency_limit_set_by_resolutions_names_verify_line():
    # de Sitter at l_max 1200: 4 sqrt(1200 * 1201), about 4802; two draws keep
    # the ensemble under the size limit, which 50 draws (2.15 GiB) exceed
    with pytest.raises(ConfigError, match="line 3: forward-first would integrate .* 4802"):
        parse_config("[scenario]\ntargets = forward-first\n[verify]\nresolutions = 600, 1200\n"
                     "n_draws = 2\n")


def test_bench_scenarios_pass_the_frequency_limit():
    # the bench's de Sitter scenarios top out at 4 sqrt(128 * 129), about 514
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.pop(0)
    for name in workloads.WORKLOADS:
        parse_config(workloads.scenario_text(name))


@pytest.mark.parametrize("target", ["roundtrip", "singular-split"])
def test_main_rejects_a_tau_seed_the_series_cannot_reach(tmp_path, capsys, target):
    # at tau_seed 0.1 the seed's series remainder is 5.8e-4 on roundtrip's
    # lattice and 3.2e-6 on the split's, above the 1e-9 the runs trust; the
    # target raised at run time with a traceback and exit 1
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[scenario]\ntargets = {target}\nout = {tmp_path / 'run'}\n"
                   "[system]\ntau_seed = 0.1\n")
    with pytest.raises(SystemExit) as err:
        main(["--config", str(cfg), "--quiet"])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert f"line 4: {target} cannot seed its first-family runs" in message
    assert "Traceback" not in message and not (tmp_path / "run").exists()
    # a reachable seed time and the defaults parse; a target that seeds
    # nothing runs at any tau_seed
    assert parse_config(f"[scenario]\ntargets = {target}\n[system]\ntau_seed = 0.05\n")
    assert parse_config(f"[scenario]\ntargets = {target}\n").tau_seed == 1e-4
    cfg.write_text(f"[scenario]\nout = {tmp_path / 'run'}\n[system]\ntau_seed = 0.3\n")
    assert main(["--config", str(cfg), "--quiet", "--target", "gronwall"]) == 0


@pytest.mark.parametrize("target,lattice", [
    ("forward-first", "n = 6"), ("backward-second", "n = 6"), ("poincare", "n = 6"),
    ("lp-props", "n = 6\nl_max = 128"), ("roundtrip", "n = 20"), ("singular-split", "n = 20"),
    ("lp-props", "n = 1000"),
])
def test_main_rejects_draws_above_the_size_limit(tmp_path, capsys, target, lattice):
    # forward-first's ensemble at n = 6 would take 20,913 GiB at l_max 128;
    # at n = 1000 the slot count exceeds an int64
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"[scenario]\ntargets = {target}\nout = {tmp_path / 'run'}\n"
                   f"[lattice]\n{lattice}\n")
    with pytest.raises(SystemExit) as err:
        main(["--config", str(cfg), "--quiet"])
    assert err.value.code == 2
    assert f"line 4: {target} would draw" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_paper_dimensions_parse_at_resolutions_that_fit():
    # n = 4 at resolutions 8/16/24 draws 61 MB per ensemble, and its lp-props
    # field at l_max 32 takes 0.9 MB; the default scenario parses too
    scn = parse_config("[lattice]\nn = 4\n[verify]\nresolutions = 8, 16, 24\n")
    assert (scn.n_sphere, scn.resolutions) == (4, (8, 16, 24))
    assert parse_config("") == Scenario()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), l_max=st.integers(1, 4), resolutions=st.sampled_from(
           ["1, 2", "2, 4", "3, 6"]), target=st.sampled_from(["lp-props", "poincare"]),
       kind=st.sampled_from(["constant", "desitter"]), exponent=st.floats(-12.0, 12.0))
def test_main_runs_or_rejects_spectra(n, l_max, resolutions, target, kind, exponent):
    # parse, then run: a verdict (exit 0 or 1) or a parse error (exit 2), never
    # a traceback
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "c.cfg"
        cfg.write_text(
            f"[scenario]\ntargets = {target}\nout = {tmp}/run\n"
            f"[lattice]\nn = {n}\nl_max = {l_max}\n"
            f"[background]\nkind = {kind}\nvalue = {10.0 ** exponent!r}\n"
            f"[verify]\nresolutions = {resolutions}\nn_fields = 4\n"
        )
        try:
            code = main(["--config", str(cfg), "--quiet"])
        except SystemExit as exc:
            assert exc.code == 2
        else:
            assert code in (0, 1)


def test_main_rejects_grid_refine_below_one(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--target", "gronwall", "--grid-refine", "0"])
    assert err.value.code == 2
    assert "--grid-refine must be >= 1" in capsys.readouterr().err


def test_main_rejects_negative_seed(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--target", "lp-props", "--seed", "-1"])
    assert err.value.code == 2
    assert "--seed must be >= 0" in capsys.readouterr().err


def test_config_hash_ignores_output_location():
    a = Scenario(out_dir="here")
    b = Scenario(out_dir="there")
    assert a.config_hash() == b.config_hash()
    assert Scenario(seed=1).config_hash() != a.config_hash()


def _tiny_scenario(out_dir):
    return Scenario(
        name="tiny", targets=("gronwall", "lp-props"), seed=3, out_dir=str(out_dir),
        l_max=8, resolutions=(8, 16), n_draws=4, n_fields=8, gronwall_count=5,
    )


def test_run_scenario_writes_bundle(tmp_path):
    scn = _tiny_scenario(tmp_path / "out")
    verdicts, ok = run_scenario(scn, quiet=True)
    assert ok
    assert verdicts["all_passed"]
    assert verdicts["gronwall"]["passed"]
    assert verdicts["lp-props"]["passed"]
    on_disk = json.loads((tmp_path / "out" / "verdicts.json").read_text())
    assert on_disk == verdicts
    summary = (tmp_path / "out" / "summary.txt").read_text()
    assert "gronwall: PASS" in summary
    assert "overall: PASS" in summary
    assert (tmp_path / "out" / "series" / "lp_props.csv").exists()


def test_run_scenario_deterministic(tmp_path):
    v1, _ = run_scenario(_tiny_scenario(tmp_path / "a"), quiet=True)
    v2, _ = run_scenario(_tiny_scenario(tmp_path / "b"), quiet=True)
    assert v1 == v2
    ja = (tmp_path / "a" / "verdicts.json").read_bytes()
    jb = (tmp_path / "b" / "verdicts.json").read_bytes()
    assert ja == jb
    sa = (tmp_path / "a" / "summary.txt").read_bytes()
    sb = (tmp_path / "b" / "summary.txt").read_bytes()
    assert sa == sb


def test_main_exit_codes(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "[scenario]\ntargets = gronwall\nseed = 2\n"
        f"out = {tmp_path / 'run'}\n"
        "[verify]\ngronwall_count = 5\n"
    )
    assert main(["--config", str(cfg), "--quiet"]) == 0
    assert (tmp_path / "run" / "verdicts.json").exists()
    with pytest.raises(SystemExit) as err:
        main(["--config", str(cfg), "--target", "warp"])
    assert err.value.code == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("[warp]\n")
    with pytest.raises(SystemExit) as err:
        main(["--config", str(bad)])
    assert err.value.code == 2


def test_main_target_and_seed_overrides(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "[scenario]\ntargets = lp-props\nseed = 2\n"
        f"out = {tmp_path / 'x'}\n"
        "[lattice]\nl_max = 8\n"
        "[verify]\ngronwall_count = 5\n"
    )
    code = main(["--config", str(cfg), "--target", "gronwall",
                 "--seed", "9", "--out", str(tmp_path / "y"), "--quiet"])
    assert code == 0
    verdicts = json.loads((tmp_path / "y" / "verdicts.json").read_text())
    assert verdicts["seed"] == 9
    assert "gronwall" in verdicts and "lp-props" not in verdicts


def _check_help(cmd, cwd, env=None):
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, env=env,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    assert "scenario" in out.stdout
    assert "--grid-refine" in out.stdout


def test_console_script_help(tmp_path):
    # The child finds the package this test imported, installed or on
    # PYTHONPATH, and a runpy double-import warning fails it.
    package_root = str(Path(shellwave.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [package_root, inherited]))}
    _check_help([sys.executable, "-W", "error::RuntimeWarning", "-m", "shellwave",
                 "--help"], cwd=tmp_path, env=env)


def test_console_script_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["shellwave"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is main


@pytest.mark.skipif(shutil.which("shellwave") is None,
                    reason="no shellwave console script on PATH")
def test_installed_console_script_help(tmp_path):
    _check_help(["shellwave", "--help"], cwd=tmp_path)


def _roundtrip_scenario(out_dir, n_regular=2):
    return Scenario(name="rt", targets=("roundtrip",), seed=4, out_dir=str(out_dir), l_max=4,
                    n_regular=n_regular)


@pytest.mark.parametrize("n_regular", [2, 3])
def test_roundtrip_passes_every_run(tmp_path, n_regular):
    # the target runs the scenario's number of regular columns
    verdicts, ok = run_scenario(_roundtrip_scenario(tmp_path, n_regular), quiet=True)
    assert ok
    runs = verdicts["roundtrip"]["runs"]
    assert len(runs) == 4 and all(run["passed"] for run in runs.values())


def test_roundtrip_fails_with_perturbed_extraction(tmp_path, monkeypatch):
    # negative control: O recovered off by a relative 1e-5, ten times the
    # decoupled tolerance, must fail the verdict; the extraction map's O row
    # is scaled, so every degree's composed round trip carries the error
    real = modelsys._extraction_maps

    def perturbed(config, lattice, bg, tau):
        maps = real(config, lattice, bg, tau)
        maps[:, 0] *= 1.0 + 1e-5
        return maps

    monkeypatch.setattr(modelsys, "_extraction_maps", perturbed)
    verdicts, ok = run_scenario(_roundtrip_scenario(tmp_path), quiet=True)
    assert not ok
    assert not verdicts["roundtrip"]["passed"]
    for family in ("first", "second"):
        run = verdicts["roundtrip"]["runs"][f"{family}_decoupled"]
        assert run["max_mode_rel_error"] > 10.0 * run["tolerance"] * 0.99
        assert not run["passed"]


def test_main_rejects_unreadable_config_with_exit_2(tmp_path, capsys):
    # a missing file, a directory and a non-UTF-8 file each name the path
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"[scenario]\nname = \xff\xfe\n")
    for path in (tmp_path / "missing.cfg", tmp_path, binary):
        with pytest.raises(SystemExit) as err:
            main(["--config", str(path), "--quiet"])
        assert err.value.code == 2
        assert f"cannot read --config {path}" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["targets =", "targets = ,", "targets = , ,"])
def test_empty_target_list_is_rejected(tmp_path, capsys, line):
    # an empty list ran nothing and reported overall: PASS
    with pytest.raises(ConfigError, match="line 3: targets must name at least one target"):
        parse_config(f"[scenario]\nname = x\n{line}\n")
    with pytest.raises(SystemExit) as err:
        main(["--target", "", "--out", str(tmp_path), "--quiet"])
    assert err.value.code == 2
    assert "--target must name at least one target" in capsys.readouterr().err


def _too_fast_config(path):
    # forward-first, in the default verify-all, would meet 2 sqrt(20) / 1e-3
    path.write_text(
        "[lattice]\nl_max = 4\n[background]\nkind = constant\nvalue = 1e-3\n"
        "[verify]\nresolutions = 2, 4\ngronwall_count = 2\n"
        f"[scenario]\nout = {path.parent / 'run'}\n"
    )
    return path


def test_target_override_rescues_a_file_whose_targets_fail_the_spectrum_check(tmp_path,
                                                                               capsys):
    cfg = _too_fast_config(tmp_path / "c.cfg")
    assert main(["--config", str(cfg), "--quiet", "--target", "gronwall"]) == 0
    verdicts = json.loads((tmp_path / "run" / "verdicts.json").read_text())
    assert verdicts["gronwall"]["passed"] and "forward-first" not in verdicts
    # the file's own target list still fails, naming its [background] line
    with pytest.raises(SystemExit) as err:
        main(["--config", str(cfg), "--quiet"])
    assert err.value.code == 2
    assert "line 3: forward-first would integrate frequencies" in capsys.readouterr().err


def test_flags_are_read_like_file_values(tmp_path, capsys):
    cfg = _too_fast_config(tmp_path / "c.cfg")
    for flags, message in [(["--seed", "abc"], "bad value 'abc' for --seed"),
                           (["--seed", "2.5"], "bad value 2.5 for --seed"),
                           (["--target", "gronwall,warp"], "unknown target 'warp'")]:
        with pytest.raises(SystemExit) as err:
            main(["--config", str(cfg), "--quiet", "--target", "gronwall", *flags])
        assert err.value.code == 2
        assert message in capsys.readouterr().err
    # a bad file value is not rescued by the flag that overrides it
    cfg.write_text("[scenario]\nseed = -1\n")
    with pytest.raises(SystemExit) as err:
        main(["--config", str(cfg), "--quiet", "--target", "gronwall", "--seed", "3"])
    assert err.value.code == 2
    assert "line 2: seed must be >= 0" in capsys.readouterr().err
