"""End-to-end acceptance runs, one test per shipped guarantee.

Each test prints a single pass/fail line under pytest -v and runs the full
stated protocol; sizes are not reduced here, so the module takes about a
minute in total.
"""

import math

import mpmath
import numpy as np
import pytest

from shellwave import (
    SystemConfig,
    build_lattice,
    check_lp_properties,
    constant_mode_run,
    epsilon_construction_check,
    make_time_grid,
    random_coupling,
    roundtrip_data,
    seeded_runs,
    shell_decay_check,
    singular_blowup_check,
    split_singular_component,
    verify_gronwall_lemma,
    verify_refined_poincare,
    verify_theorem_ratio,
)
from tests.conftest import bounded_data, bounded_field


def test_criterion_1_toy_shell_decay():
    # dyadic amplitude decay 2^(-l/2) on shells l = 4..12, both branches
    for branch in ("J", "Y"):
        rep = shell_decay_check(l_lo=4, l_hi=12, branch=branch,
                                slope_target=-0.5, tolerance=0.025)
        assert rep.passed, (branch, rep.slope)
        assert abs(rep.slope + 0.5) <= 0.025


def test_criterion_2_bessel_oracle_agreement(bg):
    # constant-coefficient runs against the closed forms, lam up to 1e4;
    # errors are measured against the local envelope, which never vanishes
    mpmath.mp.dps = 30
    tau_seed = 1e-3
    taus = np.geomspace(tau_seed, 1.0, 41)
    worst = 0.0
    for lam in (1.0, 10.0, 100.0, 1e3, 1e4):
        om = 2.0 * math.sqrt(lam)
        for kind, f0, f1 in (("J", mpmath.besselj, mpmath.besselj),
                             ("Y", mpmath.bessely, mpmath.bessely)):
            u0 = float(f0(0, om * tau_seed))
            du0 = float(-om * f1(1, om * tau_seed))
            _, u, _ = constant_mode_run(4.0 * lam, u0, du0, tau_seed, 1.0, taus=taus)
            ref = np.array([float(f0(0, om * t)) for t in taus])
            env = np.array(
                [math.hypot(float(f0(0, om * t)), float(f1(1, om * t))) for t in taus]
            )
            worst = max(worst, float(np.max(np.abs(u - ref) / env)))
    assert worst <= 1e-8, worst


def test_criterion_3_singular_blowup_bounded(part, bg):
    # (1 + log^2 tau)-normalized growth, < 10% drift per decade below 1e-3,
    # across 20 random draws of the log-branch datum
    lat = build_lattice(2, 8)
    rng = np.random.default_rng(2024)
    cfg = SystemConfig(n_regular=1, top_order=1, tau_seed=1e-7,
                       rtol=1e-10, atol=1e-12)
    grid = make_time_grid(1e-6, 1.0, count=121)
    # the O rows of 20 data draws (O, h, phi0)
    o_rows = [bounded_data(lat, rng, 1, decay=6.0)[0] for _ in range(20)]
    reports = singular_blowup_check(cfg, lat, bg, part, o_rows, grid)
    assert len(reports) == len(o_rows)
    for draw, rep in enumerate(reports):
        assert rep.drift_limit == 0.10
        assert rep.passed, (draw, rep.drifts)
        assert math.isfinite(rep.sup_value)


def test_criterion_4_forward_energy_ratio(part, bg):
    # sup-ratio finite and stable under resolution doubling, 50 draws,
    # decoupled and coupled at scale 0.1
    for scale in (0.0, 0.1):
        rep = verify_theorem_ratio("first", part, bg, resolutions=(32, 64, 128),
                                   n_draws=50, coupling_scale=scale, seed=11)
        assert rep.passed, (scale, rep.max_ratios)
        for f in rep.doubling_factors:
            assert f < 2.0


def test_criterion_5_backward_ratio_and_roundtrip(part, bg):
    for scale in (0.0, 0.1):
        rep = verify_theorem_ratio("second", part, bg, resolutions=(32, 64, 128),
                                   n_draws=50, coupling_scale=scale, seed=13)
        assert rep.passed, (scale, rep.max_ratios)

    # data recovery through a forward-then-backward round trip
    lat = build_lattice(2, 16)
    rng = np.random.default_rng(99)
    for family in ("first", "second"):
        for scale, tol in ((0.0, 1e-6), (0.1, 1e-4)):
            cs, cp = (None, None)
            if scale:
                cs, cp = random_coupling(2, family, rng, scale)
            cfg = SystemConfig(n_regular=2, system=family, coupling_scale=cs,
                               coupling_psi=cp, rtol=1e-11, atol=1e-13)
            data = bounded_data(lat, rng, 2)
            rec, _ = roundtrip_data(cfg, lat, bg, data)
            rel = np.max(np.abs(rec - data) / np.abs(data), axis=1)
            assert np.all(rel <= tol), (family, scale, rel)


def test_criterion_6_lp_property_suite(part, bg):
    names = ("partition_of_unity", "bessel_constant", "finite_band",
             "almost_orthogonality", "log_grad_bound", "commutator_bound")
    constants = {}
    for l_max in (16, 32):
        report = check_lp_properties(part, build_lattice(2, l_max), bg,
                                     tau=0.5, n_fields=32, seed=5)
        assert report.all_passed
        checks = {c.name: c for c in report.checks}
        assert tuple(checks) == names
        for name in names:
            assert checks[name].passed, (l_max, name)
        constants[l_max] = {n: checks[n].constant for n in names}
    # the ensemble constants must not blow up when the lattice doubles
    for name in ("almost_orthogonality", "log_grad_bound"):
        lo, hi = constants[16][name], constants[32][name]
        assert max(lo, hi) / max(min(lo, hi), 1e-300) < 2.0, name


def test_criterion_7_refined_poincare(part, bg):
    rep = verify_refined_poincare(part, bg, resolutions=(32, 64, 128),
                                  deltas=(0.1, 1.0, 10.0), n_fields=500,
                                  tau=0.5, seed=21)
    assert rep.passed
    for row in rep.drift_factors:
        for f in row:
            assert f < 2.0
    for row in rep.constants:
        for c in row:
            assert math.isfinite(c) and c > 0.0


def test_criterion_8_gronwall_lemma():
    verdict = verify_gronwall_lemma(seed=0, count=200, grid_count=256, k_max=12)
    assert verdict.passed
    assert verdict.worst_defect_rel >= -1e-10
    assert verdict.preset_defect_rel >= -1e-10
    assert verdict.worst_discrete_gap <= 1e-12


def test_criterion_9_decomposition_exactness(part, bg):
    # (a) the two evolved components reassemble the direct singular column
    lat = build_lattice(2, 8)
    rng = np.random.default_rng(55)
    cs, cp = random_coupling(1, "first", rng, 0.05)
    cfg = SystemConfig(n_regular=1, coupling_scale=cs, coupling_psi=cp,
                       tau_seed=1e-5, rtol=1e-11, atol=1e-13)
    data = bounded_data(lat, rng, 1)
    grid = make_time_grid(1e-4, 1.0, count=41)
    ty, tj = split_singular_component(cfg, lat, bg, data, grid, part)
    direct = seeded_runs(cfg, lat, bg, [data], grid)[0, :, 0]
    num = np.max(np.abs(ty[:, 0] + tj[:, 0] - direct))
    assert num / np.max(np.abs(direct)) <= 1e-9

    # (b) backward-family regular block ignores the singular data bit for bit
    cfg2 = SystemConfig(n_regular=2, system="second")
    phis = [bounded_field(lat, rng) for _ in range(2)]
    draws = [np.array([bounded_field(lat, rng), bounded_field(lat, rng), *phis])
             for _ in range(2)]
    runs = seeded_runs(cfg2, lat, bg, draws).reshape(2, -1, 2, cfg2.n_columns, lat.n_slots)
    assert np.array_equal(runs[0, :, :, 1:], runs[1, :, :, 1:])

    # (c) cutoff-regularized runs contract by >= 3 per halving; 1e-3 sits deep
    # enough in the asymptotic regime for the hard ratio gate
    cfg3 = SystemConfig(n_regular=1, rtol=1e-11, atol=1e-13)
    rep = epsilon_construction_check(cfg3, lat, bg, bounded_data(lat, rng, 1), eps=1e-3, rungs=3)
    assert rep.passed
    assert rep.monotone
    for r in rep.ratios:
        assert r >= 3.0
