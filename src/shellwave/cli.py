"""Config-driven verification runner.

A scenario file is sectioned ``key = value`` text; every target named in it
maps to exactly one verifier and the bundle written to the output directory
(summary.txt, verdicts.json, series/*.csv) is byte-identical for identical
(config, seed).  Exit status is 0 iff every executed verdict passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .energies import (
    _ensemble_floats,
    shell_decay_check,
    singular_blowup_check,
    verify_theorem_ratio,
)
from .gronwall import verify_gronwall_lemma
from .lattice import (
    build_lattice,
    constant_background,
    desitter_background,
    eigenvalue_at,
    make_time_grid,
    sphere_multiplicity,
)
from .lp import (
    _coverage_mask,
    _poincare_cells,
    check_lp_properties,
    make_partition,
    verify_refined_poincare,
)
from .modelsys import (
    Forcing,
    SystemConfig,
    data_to_state_maps,
    epsilon_construction_check,
    random_coupling,
    roundtrip_data,
    seeded_runs,
    split_singular_component,
)

__all__ = ["Scenario", "parse_config", "run_scenario", "main", "TARGETS"]

# the time slice on which lp-props and poincare read the spectrum
_SLICE_TAU = 0.5

# the largest lattices roundtrip and singular-split build (see _largest_draws)
_ROUNDTRIP_L_MAX = 16
_SPLIT_L_MAX = 12
_SPLIT_FIXED_L_MAX = 8
_LADDER_L_MAX = 6

# the top frequency 2 sqrt(lambda) the ODE targets may meet: the toy's top
# shell, so the highest at which the integrator is checked against the oracle
_MAX_OMEGA = 2.0**12

# the most memory a target's draws may take at once: 1 GiB
_MAX_DRAW_BYTES = 2**30

@dataclass(frozen=True)
class Scenario:
    """Validated run description; field order never affects the hash."""

    name: str = "default"
    targets: tuple[str, ...] = ("verify-all",)
    seed: int = 0
    out_dir: str = "reports"
    n_sphere: int = 2
    l_max: int = 32
    background_kind: str = "desitter"
    background_value: float = 2.0
    k_min: int = -8
    k_max: int = 12
    smoothness: int = 3
    shift: float = 0.0
    n_regular: int = 2
    family: str = "first"
    top_order: int = 2
    tau_seed: float = 1e-4
    n_draws: int = 50
    resolutions: tuple[int, ...] = (32, 64, 128)
    n_fields: int = 500
    gronwall_count: int = 200
    grid_refine: int = 1

    def config_hash(self):
        # the output location does not affect what gets computed
        payload = json.dumps(
            {k: v for k, v in sorted(self.__dict__.items()) if k != "out_dir"},
            sort_keys=True,
            default=list,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def background(self):
        if self.background_kind == "desitter":
            return desitter_background()
        return constant_background(self.background_value)

    def partition(self):
        return make_partition(self.k_min, self.k_max, self.smoothness, self.shift)

    def expanded_targets(self):
        """The targets in the order named, verify-all expanded, each once."""
        return tuple(dict.fromkeys(x for t in self.targets
                                   for x in (TARGETS if t == "verify-all" else (t,))))


class ConfigError(ValueError):
    pass


def _parse_scalar(raw):
    raw = raw.strip()
    try:
        if raw.lower() in ("true", "false"):
            return raw.lower() == "true"
        if any(ch in raw for ch in ".eE") and not raw.lstrip("+-").isdigit():
            return float(raw)
        return int(raw)
    except ValueError:
        return raw


def _integer(raw):
    value = _parse_scalar(raw)
    # int() would truncate 2.5 to 2 and read true as 1
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _real(raw):
    return float(_parse_scalar(raw))


def _split_list(raw):
    return tuple(x.strip() for x in raw.split(",") if x.strip())


def _targets(raw):
    targets = _split_list(raw)
    valid = TARGETS + ("verify-all",)
    for t in targets:
        if t not in valid:
            raise ConfigError(f"unknown target {t!r}; valid: {', '.join(valid)}")
    return targets


def _resolutions(raw):
    return tuple(_integer(x) for x in _split_list(raw))


# section -> key -> (Scenario field, reader of the value's text, range check,
# message naming the {key} when the check fails); a key left out keeps the
# Scenario default, which passes every check
_SECTION_KEYS = {
    "scenario": {
        "name": ("name", str, None, None),
        "targets": ("targets", _targets, bool, "{key} must name at least one target"),
        "seed": ("seed", _integer, lambda v: v >= 0, "{key} must be >= 0"),
        "out": ("out_dir", str, None, None),
    },
    "lattice": {
        "n": ("n_sphere", _integer, lambda v: v >= 1, "sphere dimension {key} must be >= 1"),
        # a degree-0 lattice has no positive eigenvalue, so no dyadic cell sees it
        "l_max": ("l_max", _integer, lambda v: v >= 1, "{key} must be >= 1"),
    },
    "background": {
        "kind": ("background_kind", str, lambda v: v in ("desitter", "constant"),
                 "background {key} must be 'desitter' or 'constant'"),
        # eigenvalues scale as 1 / value^2, so that square must not underflow
        "value": ("background_value", _real,
                  lambda v: 0.0 < v < math.inf and v * v >= sys.float_info.min,
                  "background {key} must be positive and finite, and its square must not "
                  f"underflow (>= {sys.float_info.min:.4g})"),
    },
    "partition": {
        "k_min": ("k_min", _integer, lambda v: v < 0, "{key} must be negative"),
        "k_max": ("k_max", _integer, lambda v: v > 0, "{key} must be positive"),
        "smoothness": ("smoothness", _integer, lambda v: v >= 1, "{key} must be >= 1"),
        "shift": ("shift", _real, lambda v: abs(v) <= 0.5, "{key} must lie in [-1/2, 1/2]"),
    },
    "system": {
        "n_regular": ("n_regular", _integer, lambda v: v >= 1, "{key} must be >= 1"),
        "family": ("family", str, lambda v: v in ("first", "second"),
                   "{key} must be 'first' or 'second'"),
        "top_order": ("top_order", _integer, lambda v: v >= 0, "{key} must be >= 0"),
        "tau_seed": ("tau_seed", _real, lambda v: 0.0 < v < 1.0, "{key} must lie in (0, 1)"),
    },
    "verify": {
        "n_draws": ("n_draws", _integer, lambda v: v >= 1, "{key} must be >= 1"),
        "resolutions": ("resolutions", _resolutions,
                        lambda r: len(r) >= 2 and r[0] >= 1
                        and all(a < b for a, b in zip(r, r[1:])),
                        "need at least two resolutions to compare, each >= 1, in strictly "
                        "increasing order"),
        "n_fields": ("n_fields", _integer, lambda v: v >= 1, "{key} must be >= 1"),
        "gronwall_count": ("gronwall_count", _integer, lambda v: v >= 1, "{key} must be >= 1"),
    },
}

# command-line flag -> the [scenario] key it overrides
_FLAG_KEYS = {"--seed": "seed", "--out": "out", "--target": "targets"}


def parse_config(text):
    """Parse sectioned key = value text into a Scenario.

    A ``#`` starts a comment at the start of a line or after whitespace, so
    ``out = /tmp/a#b`` keeps its ``#``.  Unknown sections or keys, duplicate
    sections, repeated keys, values that do not read as their type and
    out-of-range values are all rejected with the line number.
    """
    return _parse(text, {})


_COMMENT = re.compile(r"(?:^|\s)#")


def _parse(text, flags):
    """parse_config, with command-line values {flag: text or None} read after the file's.

    A flag's value goes through its key's reader and check, and only then is
    the spectrum checked, once, on the scenario the run would use.
    """
    section = None
    section_lines = {}
    given = {}  # (section, key) -> (text, message prefix, name)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTION_KEYS:
                raise ConfigError(f"line {line_no}: unknown section [{section}]")
            if section in section_lines:
                raise ConfigError(f"line {line_no}: duplicate section [{section}]")
            section_lines[section] = line_no
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"line {line_no}: key outside any section")
        key, _, raw_val = line.partition("=")
        key = key.strip()
        if key not in _SECTION_KEYS[section]:
            raise ConfigError(f"line {line_no}: unknown key {key!r} in section [{section}]")
        if (section, key) in given:
            raise ConfigError(f"line {line_no}: repeated key {key!r} in [{section}]")
        given[section, key] = (raw_val.strip(), f"line {line_no}: ", key)
    from_flags = {("scenario", _FLAG_KEYS[flag]): (raw, "", flag)
                  for flag, raw in flags.items() if raw is not None}

    fields = {}
    for source in (given, from_flags):
        for section, keys in _SECTION_KEYS.items():
            for key, (field, read, ok, need) in keys.items():
                if (section, key) not in source:
                    continue
                raw, where, name = source[section, key]
                try:
                    value = read(raw)
                except ConfigError as exc:
                    raise ConfigError(f"{where}{exc}") from None
                except (ValueError, OverflowError):
                    bad = _parse_scalar(raw)
                    raise ConfigError(f"{where}bad value {bad!r} for {name}") from None
                if ok is not None and not ok(value):
                    raise ConfigError(f"{where}{need.format(key=name)}, got {value!r}")
                fields[field] = value
    scn = Scenario(**fields)
    # each problem names the first set section among those whose keys can
    # cause it; the defaults cause none
    for check, sections in ((_size_problem, ("lattice", "verify", "system")),
                            (_spectrum_problem, ("background", "lattice", "partition", "verify")),
                            (_seed_problem, ("system", "background", "lattice"))):
        problem = check(scn)
        if problem:
            line_no = next(section_lines[s] for s in sections if s in section_lines)
            raise ConfigError(f"line {line_no}: {problem}")
    return scn


def _blowup_draws(scn):
    """The number of O rows singular-split's blow-up statistic draws."""
    return max(20, scn.n_draws // 2)


def _largest_draws(scn):
    """Per target: what its largest draws hold at once, each as the degree of
    its lattice and a float count (one corpus field, one data vector (O, h,
    phi0_1..phi0_I) per slot, or the blow-up's O rows).  A theorem ensemble
    holds at its top resolution what ``_ensemble_floats`` counts.  The largest
    lattice a target builds is the first one named."""
    top = max(scn.resolutions)

    def slots(l_max):  # in Python ints, so that no count overflows
        return sum(sphere_multiplicity(scn.n_sphere, l) for l in range(l_max + 1))

    split_l_max = max(min(scn.l_max, _SPLIT_L_MAX), _SPLIT_FIXED_L_MAX, _LADDER_L_MAX)
    roundtrip_l_max = min(scn.l_max, _ROUNDTRIP_L_MAX)
    return {"lp-props": ((scn.l_max, slots(scn.l_max)),),
            "forward-first": ((top, _ensemble_floats("first", scn.n_regular + 1, slots(top),
                                                     top, scn.n_draws)),),
            "backward-second": ((top, _ensemble_floats("second", scn.n_regular + 1, slots(top),
                                                       top, scn.n_draws)),),
            "roundtrip": ((roundtrip_l_max, (scn.n_regular + 2) * slots(roundtrip_l_max)),),
            "singular-split": ((split_l_max, 3 * slots(split_l_max)),
                               (_SPLIT_FIXED_L_MAX,
                                _blowup_draws(scn) * slots(_SPLIT_FIXED_L_MAX))),
            "poincare": ((top, slots(top)),)}


def _size_problem(scn):
    """Why a target would hold draws above _MAX_DRAW_BYTES at once, or None."""
    for t, arrays in _largest_draws(scn).items():
        for l_max, floats in arrays:
            if t in scn.expanded_targets() and 8 * floats > _MAX_DRAW_BYTES:
                return (f"{t} would draw {8 * floats:,} bytes at once on S^{scn.n_sphere} at "
                        f"l_max = {l_max}, above the {_MAX_DRAW_BYTES:,} allowed")
    return None


def _spectrum_problem(scn):
    """Why lp-props or poincare would have no mode to check, why an ODE target
    would meet a frequency above _MAX_OMEGA, or None."""
    targets, bg, part = scn.expanded_targets(), scn.background(), scn.partition()
    if "lp-props" in targets:
        lam = eigenvalue_at(bg, build_lattice(scn.n_sphere, scn.l_max).lam0, _SLICE_TAU)
        if not np.any(_coverage_mask(part, lam)):
            return (f"lp-props needs an eigenvalue at tau = {_SLICE_TAU} inside the cell range "
                    f"[{4.0 ** (part.k_min + part.shift):.3g}, "
                    f"{4.0 ** (part.k_max + part.shift):.3g}]; this background and lattice "
                    f"give [{lam[1]:.3g}, {lam[-1]:.3g}]")
    if "poincare" in targets:
        # a finer lattice adds modes, so the coarsest one decides
        r = min(scn.resolutions)
        lam = eigenvalue_at(bg, build_lattice(scn.n_sphere, r).lam0, _SLICE_TAU)
        try:
            _poincare_cells(part, lam)
        except ValueError as exc:
            return (f"poincare needs a finite top eigenvalue >= 1 and a mode in a cell k >= 0 "
                    f"at tau = {_SLICE_TAU} at every resolution; at l_max = {r} {exc}")
    for t in (t for t in ("forward-first", "backward-second", "roundtrip", "singular-split")
              if t in targets):
        l_max = _largest_draws(scn)[t][0][0]
        # lambda(tau) = lambda0 / f(tau)^2 peaks where f is least
        omega = 2.0 * math.sqrt(build_lattice(scn.n_sphere, l_max).lam0[-1]) / bg.f_min
        if omega > _MAX_OMEGA:
            return (f"{t} would integrate frequencies 2 sqrt(lambda) up to {omega:.4g} "
                    f"(l_max = {l_max}, min f = {bg.f_min:.4g} on tau in [0, 1]), above "
                    f"the {_MAX_OMEGA:g} the integrator is checked at")
    return None


def _seed_problem(scn):
    """Why roundtrip or singular-split could not seed a run at tau_seed, or None.

    Each run's seed map is built decoupled, on its lattice, against half the
    series remainder its rtol allows: the targets' random diagonal couplings
    move the remainder by a few percent.  The regular columns of a family
    share one series, so one stands for all.
    """
    for target, family, rtol, l_max in (
            ("roundtrip", "first", 1e-11, min(scn.l_max, _ROUNDTRIP_L_MAX)),
            ("roundtrip", "second", 1e-11, min(scn.l_max, _ROUNDTRIP_L_MAX)),
            ("singular-split", "first", 1e-11, min(scn.l_max, _SPLIT_L_MAX)),
            ("singular-split", "second", SystemConfig.rtol, _SPLIT_FIXED_L_MAX)):
        if target in scn.expanded_targets():
            try:
                data_to_state_maps(SystemConfig(n_regular=1, system=family, rtol=rtol / 2),
                                   build_lattice(scn.n_sphere, l_max), scn.background(),
                                   scn.tau_seed)
            except ValueError as exc:
                return f"{target} cannot seed its {family}-family runs at l_max = {l_max}: {exc}"
    return None


# ------------------------------------------------------------- the targets


def _bounded_field(lattice, rng, decay=3.0):
    """Coefficients with magnitude in [0.5, 1.5] so per-mode ratios make sense."""
    mag = rng.uniform(0.5, 1.5, lattice.n_slots)
    sign = rng.choice([-1.0, 1.0], lattice.n_slots)
    return mag * sign * lattice.damping(decay)


def _verdict(key, reports, **shared):
    """The verdict over named reports: each report's fields under its name."""
    return {"passed": all(rep.passed for rep in reports.values()),
            key: {name: asdict(rep) for name, rep in reports.items()}, **shared}


def _target_lp_props(scn):
    report = check_lp_properties(scn.partition(), build_lattice(scn.n_sphere, scn.l_max),
                                 scn.background(), tau=_SLICE_TAU, n_fields=32, seed=scn.seed)
    rows = [("check", "constant", "threshold", "passed")]
    rows += [(name, c.constant, c.threshold, int(c.passed)) for name, c in report.checks.items()]
    return asdict(report), {"lp_props": rows}


def _target_toy_shells(scn):
    rows = [("branch", "degree", "amplitude")]
    branches = {}
    for branch in ("J", "Y"):
        branches[branch], amplitudes = shell_decay_check(branch=branch)
        rows += [(branch, l, a) for l, a in amplitudes.items()]
    worst = max(branches.values(), key=lambda rep: rep.max_oracle_deviation)
    return _verdict("branches", branches, max_oracle_deviation=worst.max_oracle_deviation,
                    deviation_limit=worst.deviation_limit), {"toy_shells": rows}


def _theorem_target(scn, system):
    bg, part = scn.background(), scn.partition()
    variants = {}
    rows = [("variant", "l_max", "max_ratio", "median_ratio")]
    for label, scale in (("decoupled", 0.0), ("coupled", 0.1)):
        rep = variants[label] = verify_theorem_ratio(
            system, part, bg, resolutions=scn.resolutions, n_draws=scn.n_draws,
            n_regular=scn.n_regular, top_order=scn.top_order,
            coupling_scale=scale, seed=scn.seed, n_sphere=scn.n_sphere,
        )
        rows += [(label, *row) for row in zip(rep.resolutions, rep.max_ratios, rep.median_ratios)]
    return _verdict("variants", variants, n_draws=scn.n_draws), {f"theorem_{system}": rows}


def _target_roundtrip(scn):
    bg = scn.background()
    lattice = build_lattice(scn.n_sphere, min(scn.l_max, _ROUNDTRIP_L_MAX))
    rng = np.random.default_rng(scn.seed)
    runs = {}
    for family in ("first", "second"):
        for label, scale, tol in (("decoupled", 0.0, 1e-6), ("coupled", 0.1, 1e-4)):
            cs, cp = random_coupling(scn.n_regular, family, rng, scale) if scale else (None, None)
            config = SystemConfig(
                n_regular=scn.n_regular, system=family, top_order=scn.top_order,
                coupling_scale=cs, coupling_psi=cp, tau_seed=scn.tau_seed,
                rtol=1e-11, atol=1e-13,
            )
            # the data vectors (O, h, phi0_1..phi0_I) of every slot
            data = np.array([_bounded_field(lattice, rng) for _ in range(scn.n_regular + 2)])
            rec, contamination = roundtrip_data(config, lattice, bg, data)
            err = float(np.max(np.abs(rec - data) / np.abs(data)))
            runs[f"{family}_{label}"] = {
                "max_mode_rel_error": err,
                "tolerance": tol,
                "contamination": contamination,
                "passed": err <= tol,
            }
    verdict = {"passed": all(run["passed"] for run in runs.values()), "l_max": lattice.l_max,
               "runs": runs}
    rows = [("run", "max_mode_rel_error", "tolerance", "passed")]
    rows += [(k, v["max_mode_rel_error"], v["tolerance"], int(v["passed"])) for k, v in runs.items()]
    return verdict, {"roundtrip": rows}


def _target_singular_split(scn):
    bg = scn.background()
    part = scn.partition()
    rng = np.random.default_rng(scn.seed)
    sub = {}
    series = {}

    # (a) reconstruction, with cross couplings and forcing in play
    lattice = build_lattice(scn.n_sphere, min(scn.l_max, _SPLIT_L_MAX))
    cs, cp = random_coupling(1, "first", rng, 0.05)
    config = SystemConfig(
        n_regular=1, system="first", top_order=scn.top_order,
        coupling_scale=cs, coupling_psi=cp,
        forcings=(Forcing(amplitude=0.2, center=0.4, width=0.1), Forcing()),
        tau_seed=scn.tau_seed, rtol=1e-11, atol=1e-13,
    )
    data = np.array([_bounded_field(lattice, rng) for _ in range(3)])  # O, h, phi0
    grid = make_time_grid(config.tau_seed, 1.0, count=40 * scn.grid_refine + 1)
    log_branch, renormalized = split_singular_component(config, lattice, bg, data, grid, part)
    direct = seeded_runs(config, lattice, bg, [data], grid)[0, :, 0]
    num = np.max(np.abs(log_branch[:, 0] + renormalized[:, 0] - direct))
    den = np.max(np.abs(direct))
    recon_err, tol = float(num / den), 1e-9
    sub["reconstruction"] = {"rel_error": recon_err, "tolerance": tol, "passed": recon_err <= tol}

    # (b) log-branch growth statistic over >= 20 draws
    lat_blow = build_lattice(scn.n_sphere, _SPLIT_FIXED_L_MAX)
    blow_cfg = SystemConfig(
        n_regular=1, system="first", top_order=1, tau_seed=1e-7, rtol=1e-10, atol=1e-12,
    )
    blow_grid = make_time_grid(1e-6, 1.0, count=120 * scn.grid_refine + 1)
    n_draws = _blowup_draws(scn)
    o_rows = [_bounded_field(lat_blow, rng, decay=6.0) for _ in range(n_draws)]
    reports = singular_blowup_check(blow_cfg, lat_blow, bg, part, o_rows, blow_grid)
    # per draw: the sup of the statistic and its worst drift per decade
    stats = [(rep.sup_value, max(rep.drifts, default=0.0)) for rep in reports]
    sub["blowup"] = {
        "n_draws": n_draws, "sup_statistic": max(sup for sup, _ in stats),
        "worst_drift_per_decade": max(drift for _, drift in stats),
        "limit": reports[0].drift_limit, "passed": all(rep.passed for rep in reports),
    }
    series["blowup"] = [("draw", "sup_statistic", "max_drift")] + [
        (d, *stat) for d, stat in enumerate(stats)]

    # (c) second-family regular block ignores singular data bit for bit
    lat2 = build_lattice(scn.n_sphere, _SPLIT_FIXED_L_MAX)
    cs2, cp2 = random_coupling(2, "second", rng, 0.1)
    cfg2 = SystemConfig(n_regular=2, system="second", top_order=scn.top_order,
                        coupling_scale=cs2, coupling_psi=cp2, tau_seed=scn.tau_seed)
    phis = [_bounded_field(lat2, rng) for _ in range(2)]
    d_a, d_b = (np.array([_bounded_field(lat2, rng), _bounded_field(lat2, rng), *phis])
                for _ in range(2))
    # both draws compose one propagator solve; the regular rows are the
    # regular columns' values and tau * derivatives
    run_a, run_b = seeded_runs(cfg2, lat2, bg, [d_a, d_b])
    n2 = cfg2.n_columns
    regular = np.r_[1:n2, n2 + 1 : 2 * n2]
    bit_identical = bool(np.array_equal(run_a[:, regular], run_b[:, regular]))
    sub["second_family_isolation"] = {"bit_identical": bit_identical, "passed": bit_identical}

    # (d) cutoff-stability ladder
    lat_eps = build_lattice(scn.n_sphere, _LADDER_L_MAX)
    eps_cfg = SystemConfig(n_regular=1, system="first", top_order=scn.top_order,
                           rtol=1e-11, atol=1e-13)
    eps_data = np.array([_bounded_field(lat_eps, rng) for _ in range(3)])
    # 1e-3 sits deep enough in the asymptotic regime for the hard ratio gate
    eps_rep = epsilon_construction_check(eps_cfg, lat_eps, bg, eps_data, eps=1e-3)
    sub["epsilon_ladder"] = asdict(eps_rep)

    passed = all(entry["passed"] for entry in sub.values())
    return {"passed": passed, "parts": sub}, series


def _target_gronwall(scn):
    return asdict(verify_gronwall_lemma(seed=scn.seed, count=scn.gronwall_count,
                                        grid_count=256, k_max=12)), {}


def _target_poincare(scn):
    rep = verify_refined_poincare(
        scn.partition(), scn.background(), resolutions=scn.resolutions, deltas=(0.1, 1.0, 10.0),
        n_fields=scn.n_fields, tau=_SLICE_TAU, seed=scn.seed, n_sphere=scn.n_sphere,
    )
    rows = [("delta", "l_max", "constant")]
    rows += [(d, r, c) for d, row in zip(rep.deltas, rep.constants)
             for r, c in zip(rep.resolutions, row)]
    return asdict(rep), {"poincare": rows}


_RUNNERS = {
    "lp-props": _target_lp_props,
    "toy-shells": _target_toy_shells,
    "forward-first": lambda scn: _theorem_target(scn, "first"),
    "backward-second": lambda scn: _theorem_target(scn, "second"),
    "roundtrip": _target_roundtrip,
    "singular-split": _target_singular_split,
    "gronwall": _target_gronwall,
    "poincare": _target_poincare,
}

TARGETS = tuple(_RUNNERS)


def run_scenario(scn, quiet=False):
    """Execute the scenario's targets and write the artifact bundle.

    Returns (verdicts dict, all_passed).  Target failures raise with the
    target named; verdict failures do not raise, they fail the exit status.
    """
    out_dir = Path(scn.out_dir)
    series_dir = out_dir / "series"
    series_dir.mkdir(parents=True, exist_ok=True)
    verdicts = {"scenario": scn.name, "config_hash": scn.config_hash(), "seed": scn.seed}
    all_passed = True
    lines = [f"scenario {scn.name} (hash {scn.config_hash()}, seed {scn.seed})"]
    for target in scn.expanded_targets():
        try:
            verdict, series = _RUNNERS[target](scn)
        except Exception as exc:
            raise RuntimeError(f"target {target!r} failed: {exc}") from exc
        verdicts[target] = verdict
        ok = bool(verdict.get("passed", False))
        all_passed = all_passed and ok
        lines.append(f"{target}: {'PASS' if ok else 'FAIL'}")
        if not quiet:
            print(lines[-1])
        for name, rows in series.items():
            path = series_dir / f"{name}.csv"
            text = "\n".join(",".join(f"{c:.17g}" if isinstance(c, float) else str(c)
                                       for c in row) for row in rows)
            path.write_text(text + "\n")
    verdicts["all_passed"] = all_passed
    (out_dir / "verdicts.json").write_text(json.dumps(verdicts, sort_keys=True, indent=2) + "\n")
    lines.append(f"overall: {'PASS' if all_passed else 'FAIL'}")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n")
    if not quiet:
        print(lines[-1])
    return verdicts, all_passed


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="shellwave",
        description="spectral-shell verification scenarios (config-driven)",
    )
    parser.add_argument("--config", type=Path, default=None, help="scenario file")
    parser.add_argument("--seed", default=None, help="override scenario seed")
    parser.add_argument("--out", default=None, help="override output directory")
    parser.add_argument("--target", action="append", default=None,
                        help="run this target (repeatable); overrides the config list")
    parser.add_argument("--grid-refine", type=int, default=1,
                        help="multiply verification grid densities")
    parser.add_argument("--quiet", action="store_true", help="suppress progress lines")
    args = parser.parse_args(argv)
    if args.grid_refine < 1:
        parser.error(f"--grid-refine must be >= 1, got {args.grid_refine}")
    try:
        text = args.config.read_text() if args.config else ""
    except (OSError, UnicodeDecodeError) as exc:
        parser.error(f"cannot read --config {args.config}: {exc}")
    flags = {"--seed": args.seed, "--out": args.out,
             "--target": None if args.target is None else ",".join(args.target)}
    try:
        scn = _parse(text, flags)
    except ConfigError as exc:
        parser.error(str(exc))
    scn = replace(scn, grid_refine=args.grid_refine)
    _, all_passed = run_scenario(scn, quiet=args.quiet)
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
