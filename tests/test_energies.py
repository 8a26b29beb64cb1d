import math
import tracemalloc

import numpy as np
import pytest

from shellwave import energies, modelsys
from shellwave import (
    Forcing,
    SystemConfig,
    build_lattice,
    constant_background,
    desitter_background,
    fit_power_exponent,
    make_time_grid,
    random_coupling,
    random_field,
    shell_decay_check,
    singular_blowup_check,
    split_singular_component,
    verify_theorem_ratio,
)
from shellwave.energies import _default_forcing, _ensemble_ratios, _gram_tables
from tests.conftest import bounded_data, bounded_field, zero_data
from tests.oracles import (
    ModeState,
    blowup_check,
    data_energy_first,
    data_energy_second,
    energy_first,
    energy_second,
    ensemble_ratios,
    forcing_energy_first,
    forcing_energy_second,
    integrate,
    renormalized,
    seed_state,
    slot_lam0,
)


# ----------------------------------------------------------------- fitting


def test_fit_dyadic_exact():
    ks = np.arange(4, 10, dtype=float)
    slope, resid = fit_power_exponent(ks, 5.0 * 2.0 ** (0.5 * ks))
    assert slope == pytest.approx(0.5, abs=1e-12)
    assert resid < 1e-12


def test_fit_validation():
    xs = np.array([1.0, 2.0, 3.0, 4.0])
    ys = np.ones(4)
    with pytest.raises(ValueError, match="at least 4 samples"):
        fit_power_exponent(xs[:3], ys[:3])
    with pytest.raises(ValueError, match="positive"):
        fit_power_exponent(xs, np.array([1.0, -1.0, 1.0, 1.0]))


# --------------------------------------------------------------- toy decay


def test_shell_decay_short_ladder():
    rep, amplitudes = shell_decay_check(l_lo=4, l_hi=8)
    assert rep.passed
    assert rep.slope == pytest.approx(-0.5, abs=rep.tolerance)
    assert rep.max_oracle_deviation < 1e-6
    assert rep.deviation_limit == 1e-6
    assert list(amplitudes) == [4, 5, 6, 7, 8]
    amps = list(amplitudes.values())
    assert all(a > b for a, b in zip(amps[:-1], amps[1:]))


@pytest.mark.parametrize("branch", ["J", "Y"])
def test_shell_decay_fails_against_the_other_branch(monkeypatch, branch):
    # negative control: the endpoint reference envelope of the other branch
    # keeps the slope near -1/2, so only the oracle gate can catch it
    real = energies._oracle_envelope
    other = {"J": "Y", "Y": "J"}

    def swapped(kind, omega, tau):
        return real(other[kind] if tau == 1.0 else kind, omega, tau)

    monkeypatch.setattr(energies, "_oracle_envelope", swapped)
    rep, _ = shell_decay_check(l_lo=4, l_hi=8, branch=branch)
    assert abs(rep.slope - rep.target) <= rep.tolerance
    assert rep.max_oracle_deviation > rep.deviation_limit
    assert not rep.passed


# the default toy's slopes (degrees 4..12, seeded at tau = 0.05); they do
# not depend on the scenario seed
GOLDEN_TOY_SLOPES = {"J": -0.498684443277434, "Y": -0.5013374912576504}


@pytest.mark.parametrize("branch", list(GOLDEN_TOY_SLOPES))
def test_shell_decay_slope_golden(branch):
    rep, _ = shell_decay_check(branch=branch)
    assert rep.slope == pytest.approx(GOLDEN_TOY_SLOPES[branch], rel=1e-12, abs=0.0)


def test_shell_decay_validation():
    with pytest.raises(ValueError):
        shell_decay_check(branch="I")
    with pytest.raises(ValueError):
        shell_decay_check(l_lo=4, l_hi=6)


# ------------------------------------------------------------- blowup rate


# the blow-up target's system: decoupled, unforced, seeded at 1e-7
BLOWUP_CFG = SystemConfig(n_regular=1, top_order=1, tau_seed=1e-7, rtol=1e-10, atol=1e-12)


@pytest.fixture(scope="module")
def blowup_run(part, bg):
    lat = build_lattice(2, 4)
    rng = np.random.default_rng(101)
    o_row = bounded_field(lat, rng, decay=6.0)
    grid = make_time_grid(1e-6, 1.0, count=97)
    return lat, grid, o_row


def test_blowup_statistic_settles(part, bg, blowup_run):
    lat, grid, o_row = blowup_run
    (rep,) = singular_blowup_check(BLOWUP_CFG, lat, bg, part, [o_row], grid)
    assert rep.passed
    assert math.isfinite(rep.sup_value)
    assert len(rep.decade_sups) >= 3
    for d in rep.drifts:
        assert d < 0.10
    assert np.all(np.diff(rep.taus) > 0)


def test_blowup_rejects_zero_data(part, bg, blowup_run):
    lat, grid, o_row = blowup_run
    rows = [o_row, np.zeros(lat.n_slots)]
    with pytest.raises(ValueError, match="zero"):
        singular_blowup_check(BLOWUP_CFG, lat, bg, part, rows, grid)


def test_blowup_rejects_rows_it_cannot_read(part, bg, blowup_run):
    # the per-degree solve carries column 0 alone, and each row is one draw
    lat, grid, o_row = blowup_run
    cs = np.zeros((2, 2))
    cs[0, 1] = 0.05
    coupled = SystemConfig(n_regular=1, top_order=1, coupling_scale=cs, tau_seed=1e-7)
    with pytest.raises(ValueError, match="couples only to itself"):
        singular_blowup_check(coupled, lat, bg, part, [o_row], grid)
    with pytest.raises(ValueError, match="slot coefficients"):
        singular_blowup_check(BLOWUP_CFG, lat, bg, part, o_row, grid)
    with pytest.raises(ValueError, match="slot coefficients"):
        singular_blowup_check(BLOWUP_CFG, lat, bg, part, [o_row[1:]], grid)


def test_blowup_needs_two_decades(part, bg, small_lattice):
    rng = np.random.default_rng(7)
    cfg = SystemConfig(n_regular=1, top_order=1)
    grid = make_time_grid(1e-4, 1.0, count=17)
    with pytest.raises(ValueError, match="decade"):
        singular_blowup_check(cfg, small_lattice, bg, part,
                              [bounded_field(small_lattice, rng)], grid)


@pytest.mark.parametrize("background", ["desitter", "constant"])
@pytest.mark.parametrize("l_max", [4, 8])
def test_blowup_reports_match_slot_level_statistic(part, background, l_max):
    # per degree, O_s g_l(tau) against the split's log-branch trajectory
    # weighed slot by slot and time by time; the two solves step on blocks of
    # different sizes, so they agree to well below the solver tolerance
    bg = desitter_background() if background == "desitter" else constant_background(1.5)
    lat = build_lattice(2, l_max)
    rng = np.random.default_rng(l_max)
    o_rows = [bounded_field(lat, rng, decay=6.0) for _ in range(3)]
    grid = make_time_grid(1e-6, 1.0, count=121)
    reports = singular_blowup_check(BLOWUP_CFG, lat, bg, part, o_rows, grid)
    assert len(reports) == len(o_rows)
    for o, rep in zip(o_rows, reports):
        # the log-branch column reads O alone
        data = np.array([o, np.zeros_like(o), np.zeros_like(o)])
        log_branch, _ = split_singular_component(BLOWUP_CFG, lat, bg, data, grid, part)
        taus = modelsys._eval_taus(BLOWUP_CFG.tau_seed, 1.0, grid)
        want = blowup_check(lat, bg, taus, log_branch[:, 0], o, top_order=1,
                            drift_limit=rep.drift_limit)
        assert np.array_equal(rep.taus, want.taus)
        assert rep.passed == want.passed
        got = np.array([rep.sup_value, *rep.decade_sups, *rep.drifts])
        ref = np.array([want.sup_value, *want.decade_sups, *want.drifts])
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-11


def test_blowup_check_works_in_a_small_multiple_of_its_rows(part, bg):
    # 2,000 rows of O on l_max 8, read at 121 times over 4 decades: the decade
    # sups come one decade at a time, so no working array outgrows the table
    # of statistics; a (rows, decades, times) broadcast peaked at 7.8x the rows
    lat = build_lattice(2, 8)
    rows = np.random.default_rng(5).standard_normal((2000, lat.n_slots)) * lat.damping(6.0)
    grid = make_time_grid(1e-6, 1.0, count=121)
    singular_blowup_check(BLOWUP_CFG, lat, bg, part, rows[:2], grid)  # lazy set-up
    tracemalloc.start()
    try:
        singular_blowup_check(BLOWUP_CFG, lat, bg, part, rows, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * rows.nbytes  # measured 2.7x


# ------------------------------------------------------ energy functionals


def test_data_energy_first_hand_value(part, bg):
    # single zero-degree slot: every weight is (1+0)^(M+1) = 1 and ell(0) = 0
    lat = build_lattice(2, 0)
    data = np.array([[2.0], [0.25], [1.0]])  # O, h, phi0
    assert data_energy_first(lat, part, bg, data, top_order=2) == pytest.approx(4.0 + 0.0625 + 1.0)


def test_data_energy_first_quadratic(part, bg, small_lattice):
    data = bounded_data(small_lattice, np.random.default_rng(9), 1)

    def energy(d):
        return data_energy_first(small_lattice, part, bg, d, 2)

    assert energy(2.0 * data) == pytest.approx(4.0 * energy(data), rel=1e-12)


def test_energy_first_zero_and_positive(part, bg, small_lattice):
    cfg = SystemConfig(n_regular=1)
    dead = zero_data(small_lattice, 1)
    traj = integrate(cfg, small_lattice, bg, seed_state(cfg, small_lattice, bg, dead), 1.0)
    taus, es = energy_first(traj)
    assert np.all(es == 0.0)
    rng = np.random.default_rng(13)
    live = bounded_data(small_lattice, rng, 1)
    traj2 = integrate(cfg, small_lattice, bg, seed_state(cfg, small_lattice, bg, live), 1.0)
    _, es2 = energy_first(traj2)
    assert np.all(es2 > 0.0)
    assert np.all(np.isfinite(es2))


def test_forcing_energy_first_budget(bg, small_lattice):
    taus = np.linspace(1e-4, 1.0, 33)
    quiet = SystemConfig(n_regular=1)
    assert np.all(forcing_energy_first(quiet, small_lattice, bg, taus) == 0.0)
    loud = SystemConfig(
        n_regular=1,
        forcings=(Forcing(amplitude=0.5, center=0.4, width=0.1), Forcing()),
    )
    budget = forcing_energy_first(loud, small_lattice, bg, taus)
    assert budget[0] == 0.0
    assert np.all(np.diff(budget) >= 0.0)
    assert budget[-1] > 0.0


def test_energy_second_requires_descending(part, bg, small_lattice):
    cfg = SystemConfig(n_regular=1, system="second")
    data = bounded_data(small_lattice, np.random.default_rng(15), 1)
    traj = integrate(cfg, small_lattice, bg, seed_state(cfg, small_lattice, bg, data), 1.0)
    with pytest.raises(ValueError, match="descending|down"):
        energy_second(traj)


def test_energy_second_backward_run(part, bg, small_lattice):
    rng = np.random.default_rng(17)
    cfg = SystemConfig(n_regular=1, system="second")
    n_cols = cfg.n_columns
    state = ModeState(
        tau=1.0,
        values=rng.standard_normal((n_cols, small_lattice.n_slots)),
        derivs=rng.standard_normal((n_cols, small_lattice.n_slots)),
    )
    grid = make_time_grid(1e-3, 1.0, count=25)
    traj = integrate(cfg, small_lattice, bg, state,
                     1e-3, grid=grid)
    assert traj.taus[0] > traj.taus[-1]
    taus, es = energy_second(traj)
    assert np.all(np.isfinite(es))
    assert np.all(es > 0.0)


def test_data_energy_second_hand_value(bg):
    lat = build_lattice(2, 1)
    n_slots = lat.n_slots  # degree 0 plus three degree-1 slots
    values = np.zeros((2, n_slots))
    derivs = np.zeros((2, n_slots))
    values[0, 0] = 1.5
    derivs[1, 1] = 2.0
    state = ModeState(tau=1.0, values=values, derivs=derivs)
    m = 1
    lam1 = 2.0 / bg.f(1.0) ** 2  # degree-1 eigenvalue at tau = 1
    expect = 1.5**2 * (1.0 + 0.0) ** (m + 1.5) + 2.0**2 * (1.0 + lam1) ** (m + 0.5)
    assert data_energy_second(state, bg, lat, m) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        data_energy_second(ModeState(tau=0.5, values=values, derivs=derivs), bg, lat, m)


def test_forcing_energy_second_budget(bg, small_lattice):
    taus = np.linspace(1.0, 1e-3, 21)
    loud = SystemConfig(
        n_regular=1, system="second",
        forcings=(Forcing(amplitude=0.4, center=0.5, width=0.1), Forcing()),
    )
    budget = forcing_energy_second(loud, small_lattice, bg, taus)
    assert budget[0] == 0.0
    assert np.all(np.diff(budget) >= 0.0)
    with pytest.raises(ValueError, match="descending"):
        forcing_energy_second(loud, small_lattice, bg, taus[::-1])


# ------------------------------------------------------- theorem ensembles


def test_theorem_report_small_smoke(part, bg):
    rep = verify_theorem_ratio("first", part, bg, resolutions=(8, 16), n_draws=6,
                               coupling_scale=0.0, seed=4)
    assert rep.passed
    assert len(rep.max_ratios) == 2
    assert all(math.isfinite(r) for r in rep.max_ratios)
    for f in rep.doubling_factors:
        assert f < 2.0
    # medians never exceed maxima
    for med, mx in zip(rep.median_ratios, rep.max_ratios):
        assert med <= mx
    again = verify_theorem_ratio("first", part, bg, resolutions=(8, 16), n_draws=6,
                                 coupling_scale=0.0, seed=4)
    assert again.max_ratios == rep.max_ratios


def test_theorem_coupled_variant_and_validation(part, bg):
    rep = verify_theorem_ratio("second", part, bg, resolutions=(8, 16), n_draws=4,
                               coupling_scale=0.1, seed=2)
    assert rep.passed
    with pytest.raises(ValueError):
        verify_theorem_ratio("third", part, bg)


@pytest.mark.parametrize("system", ["first", "second"])
def test_ensemble_ratio_matches_trajectory_energy(part, bg, system):
    # one draw through the per-degree kernel against the slot-level path:
    # integrate, then the trajectory energy over data norm plus forcing budget
    lat = build_lattice(2, 8)
    rng = np.random.default_rng(21)
    cs, cp = random_coupling(2, system, rng, 0.1)
    cfg = SystemConfig(n_regular=2, system=system, coupling_scale=cs, coupling_psi=cp,
                       forcings=tuple(_default_forcing(i) for i in range(3)),
                       rtol=1e-11, atol=1e-13)
    n_cols = cfg.n_columns
    damp = ((1.0 + slot_lam0(lat)) ** -3.5)[:, None]
    if system == "first":
        taus = np.geomspace(cfg.tau_seed, 1.0, 25)
        draw = rng.standard_normal((lat.n_slots, n_cols + 1)) * damp
        # a draw holds (O, frak_h, phi0_1, phi0_2) per slot; the seed reads h
        data = renormalized(lat, part, bg, draw.T, inverse=True)
        traj = integrate(cfg, lat, bg, seed_state(cfg, lat, bg, data), 1.0, grid=taus)
        _, energy = energy_first(traj)
        budget = data_energy_first(lat, part, bg, data, cfg.top_order)
        budget = budget + forcing_energy_first(cfg, lat, bg, taus)
    else:
        taus = np.geomspace(1.0, 1e-3, 25)
        draw = rng.standard_normal((lat.n_slots, 2 * n_cols)) * damp
        state = ModeState(tau=1.0, values=draw[:, :n_cols].T, derivs=draw[:, n_cols:].T)
        traj = integrate(cfg, lat, bg, state, 1e-3, grid=taus[::-1])
        _, energy = energy_second(traj)
        budget = data_energy_second(state, bg, lat, cfg.top_order)
        budget = budget + forcing_energy_second(cfg, lat, bg, taus)
    assert np.array_equal(traj.taus, taus)
    ratios = _ensemble_ratios(cfg, lat, bg, part, *_gram_tables(lat, draw[None]), taus)
    assert ratios.shape == (1, len(taus))
    # the whole series: the backward maximum sits at tau = 1, before any propagation
    np.testing.assert_allclose(ratios[0], energy / budget, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("system", ["first", "second"])
def test_ensemble_kernel_matches_per_degree_contraction(part, bg, system, monkeypatch):
    # the forms P^T W P met through each draw's Gram matrix and slot sum,
    # against the contraction degree by degree and draw by draw, with the
    # coupling, the forcing and so the cross term 2 c.S in play
    table, calls = energies._energy_weights, []
    monkeypatch.setattr(energies, "_energy_weights",
                        lambda *args: calls.append(args) or table(*args))
    lat = build_lattice(2, 8)
    rng = np.random.default_rng(23)
    cs, cp = random_coupling(2, system, rng, 0.1)
    cfg = SystemConfig(n_regular=2, system=system, coupling_scale=cs, coupling_psi=cp,
                       forcings=tuple(_default_forcing(i) for i in range(3)))
    if system == "first":
        taus, entries = np.geomspace(cfg.tau_seed, 1.0, 17), cfg.n_columns + 1
    else:
        taus, entries = np.geomspace(1.0, 1e-3, 17), 2 * cfg.n_columns
    draws = rng.standard_normal((4, lat.n_slots, entries)) * lat.damping(7.0)[None, :, None]
    np.testing.assert_allclose(_ensemble_ratios(cfg, lat, bg, part, *_gram_tables(lat, draws),
                                                taus),
                               ensemble_ratios(cfg, lat, bg, part, draws, taus),
                               rtol=1e-12, atol=0.0)
    assert len(calls) == 1  # one weight table on the (degree, time) grid


@pytest.mark.parametrize("top_order", [0, 1, 2, 3])
def test_forward_tail_weights_are_exactly_zero(top_order):
    # the ensemble kernel skips an energy row whose weights are all zero; the
    # forward family's tail row is such a row on any (lambda, tau) grid, so
    # skipping it drops no term, while the backward family's tail is kept
    rng = np.random.default_rng(29)
    lam, tau = rng.uniform(0.0, 1e4, (40, 1)), rng.uniform(1e-4, 1.0, 30)
    first, _ = energies._energy_weights("first", top_order, 3, lam, tau)
    second, _ = energies._energy_weights("second", top_order, 3, lam, tau)
    assert np.all(first[1] == 0.0) and np.all(first[0, :, 1:] > 0.0)
    assert np.any(second[1] != 0.0)


# energies at the five grid times of a coupled, forced run on S^2 with
# l_max 4, recorded from the per-degree composition in integrate; a
# slot-level solve at the same tolerances reads within 2.1e-10 relative
GOLDEN_ENERGIES = {
    "first": (2221.8254512551284, 2233.0800943557106, 2402.8990527118026,
              5006.370334315143, 5.450547971385824),
    "second": (3523.8754179355437, 5606161.300657268, 5028091.816304992,
               4590581.819530005, 4539842.881366106),
}


@pytest.mark.parametrize("system", list(GOLDEN_ENERGIES))
def test_trajectory_energies_golden(part, bg, system):
    lat = build_lattice(2, 4)
    rng = np.random.default_rng(31)
    cs, cp = random_coupling(2, system, rng, 0.1)
    cfg = SystemConfig(n_regular=2, system=system, coupling_scale=cs, coupling_psi=cp,
                       forcings=tuple(_default_forcing(i) for i in range(3)))
    if system == "first":
        data = np.array([random_field(lat, rng, decay=3.0).coeffs for _ in range(4)])
        traj = integrate(cfg, lat, bg, seed_state(cfg, lat, bg, data), 1.0,
                         grid=make_time_grid(cfg.tau_seed, 1.0, count=5))
        _, energy = energy_first(traj)
    else:
        state = ModeState(tau=1.0, values=rng.standard_normal((3, lat.n_slots)),
                          derivs=rng.standard_normal((3, lat.n_slots)))
        traj = integrate(cfg, lat, bg, state, 1e-3, grid=make_time_grid(1e-3, 1.0, count=5))
        _, energy = energy_second(traj)
    np.testing.assert_allclose(energy, GOLDEN_ENERGIES[system], rtol=1e-12, atol=0.0)


# max and median ratios at resolutions (8, 16), 6 draws, seed 0, recorded
# before the two families shared one ensemble kernel
GOLDEN_RATIOS = {
    ("first", 0.0): ((1.0070903190432665, 1.000630491846715),
                     (0.6384719897570353, 0.7994599511265325)),
    ("first", 0.1): ((0.9093755482083244, 0.629652008255474),
                     (0.5528583776692789, 0.5791385262749495)),
    ("second", 0.0): ((1.804575630825511, 1.5440899270786688),
                      (1.1286788370318153, 1.0537492951309697)),
    ("second", 0.1): ((1.4766360334778015, 1.7946907958112464),
                      (1.1666470048717863, 1.1136028753527225)),
}


@pytest.mark.parametrize("system,scale", list(GOLDEN_RATIOS))
def test_theorem_ratios_golden(part, bg, system, scale):
    rep = verify_theorem_ratio(system, part, bg, resolutions=(8, 16), n_draws=6,
                               coupling_scale=scale, seed=0)
    max_ref, med_ref = GOLDEN_RATIOS[(system, scale)]
    np.testing.assert_allclose(rep.max_ratios, max_ref, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(rep.median_ratios, med_ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("system,entries", [("first", 4), ("second", 6)])
def test_chunked_ensemble_reports_the_one_shot_numbers(part, bg, system, entries,
                                                       monkeypatch):
    # the draws come from one Generator in one order whatever the chunk, so
    # one chunk of all draws, uneven chunks (3, 3, 2 draws on the 25 slots of
    # l_max 4, so a chunk that drew too many would shift l_max 8's draws) and
    # one draw per chunk report the same bits
    gram_tables, chunks = energies._gram_tables, []
    monkeypatch.setattr(energies, "_gram_tables", lambda lattice, draws: chunks.append(
        (lattice.l_max, len(draws))) or gram_tables(lattice, draws))
    reports = []
    for budget, want in ((2**40, [(4, 8), (8, 8)]),
                         (3 * 8 * 25 * entries, [(4, 3), (4, 3), (4, 2)] + [(8, 1)] * 8),
                         (1, [(4, 1)] * 8 + [(8, 1)] * 8)):
        monkeypatch.setattr(energies, "_CHUNK_BYTES", budget)
        chunks.clear()
        reports.append(verify_theorem_ratio(system, part, bg, resolutions=(4, 8), n_draws=8,
                                            coupling_scale=0.1, seed=3))
        assert chunks == want
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_ensemble_memory_does_not_grow_with_its_draws(part, bg):
    # 50 backward draws on the 4225 slots of l_max 64 take 9.67 MiB at once;
    # folded into the Gram tables a chunk at a time, the whole check stays
    # below that (measured 15.9 MiB one-shot, 6.2 MiB in chunks, 2.8 MiB
    # with the forms built one degree at a time, 2.6 MiB with the
    # propagators held once)
    verify_theorem_ratio("second", part, bg, resolutions=(4, 8), n_draws=2)  # lazy set-up
    tracemalloc.start()
    try:
        verify_theorem_ratio("second", part, bg, resolutions=(16, 64), n_draws=50,
                             coupling_scale=0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 4225 * 6 * 8


@pytest.mark.parametrize("resolutions", [(8,), ()])
def test_theorem_ratio_needs_two_resolutions(part, bg, resolutions):
    with pytest.raises(ValueError, match="two resolutions"):
        verify_theorem_ratio("first", part, bg, resolutions=resolutions, n_draws=2)


@pytest.mark.parametrize("resolutions", [(8, 8), (16, 8), (4, 8, 8)])
def test_theorem_ratio_needs_increasing_resolutions(part, bg, resolutions):
    # a repeated lattice has doubling factor exactly 1, which says nothing
    with pytest.raises(ValueError, match="resolutions must strictly increase"):
        verify_theorem_ratio("first", part, bg, resolutions=resolutions, n_draws=2)
