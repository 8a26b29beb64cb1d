import dataclasses
import gc
import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp

from shellwave import (
    ConformalBackground,
    Field,
    Forcing,
    SystemConfig,
    TimeGrid,
    bessel_oracle,
    build_lattice,
    constant_background,
    constant_mode_run,
    data_to_state_maps,
    desitter_background,
    eigenvalue_at,
    epsilon_construction_check,
    forced_profile,
    frobenius_basis,
    fundamental_matrices,
    log_grad_weights,
    make_asymptotic_data,
    make_time_grid,
    random_coupling,
    roundtrip_data,
    seeded_runs,
    split_singular_component,
)
from shellwave import modelsys
from shellwave.energies import _oracle_envelope
from tests.conftest import bounded_field, zero_like
from tests.oracles import (
    ModeState,
    extract_asymptotic_data,
    integrate,
    mode_rhs,
    roundtrip_chain,
    seed_pairs,
    seed_state,
    split_seeds,
)


# ------------------------------------------------------------ bessel oracle

# Abramowitz & Stegun table values, J0/Y0 at integer and half arguments
AS_TABLE = [
    ("J", 0.5, 0.9384698072408130),
    ("J", 1.0, 0.7651976865579666),
    ("J", 2.0, 0.2238907791412357),
    ("J", 5.0, -0.1775967713143383),
    ("Y", 0.5, -0.4445187335067066),
    ("Y", 1.0, 0.0882569642156769),
    ("Y", 2.0, 0.5103756726497451),
    ("Y", 5.0, -0.3085176252490338),
]


def test_bessel_oracle_frozen_table():
    # bessel_oracle(kind, lam, tau) evaluates the branch at x = 2 sqrt(lam) tau,
    # so lam = 1, tau = x/2 hits the plain argument
    for kind, x, expect in AS_TABLE:
        got = bessel_oracle(kind, 1.0, x / 2.0)
        assert got == pytest.approx(expect, abs=2e-15), (kind, x)


def test_bessel_oracle_against_mpmath():
    mpmath.mp.dps = 30
    xs = [0.05, 0.3, 1.0, 4.0, 11.0, 11.9, 12.1, 13.0, 25.0, 80.0, 200.0, 400.0]
    worst = 0.0
    for x in xs:
        for kind, ref_fn in (("J", mpmath.besselj), ("Y", mpmath.bessely)):
            ref = float(ref_fn(0, x))
            got = bessel_oracle(kind, 1.0, x / 2.0)
            worst = max(worst, abs(got - ref) / max(abs(ref), 1e-3))
    assert worst <= 1e-10


def test_bessel_oracle_series_asymptotic_seam():
    # both evaluation routes must hold full accuracy right at the switchover
    mpmath.mp.dps = 25
    for kind in ("J", "Y"):
        fn = mpmath.besselj if kind == "J" else mpmath.bessely
        assert bessel_oracle(kind, 1.0, 5.9995) == pytest.approx(
            float(fn(0, 11.999)), abs=1e-10)
        assert bessel_oracle(kind, 1.0, 6.0005) == pytest.approx(
            float(fn(0, 12.001)), abs=1e-10)


def test_bessel_oracle_origin_and_errors():
    assert bessel_oracle("J", 4.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        bessel_oracle("Y", 4.0, 0.0)
    with pytest.raises(ValueError):
        bessel_oracle("K", 1.0, 0.5)


def test_bessel_oracle_vectorized():
    taus = np.array([0.25, 0.5, 1.0])
    vals = bessel_oracle("J", 1.0, taus)
    assert vals.shape == (3,)
    assert vals[1] == pytest.approx(0.7651976865579666, abs=1e-14)


# --------------------------------------------------------- frobenius bases


def test_q_series_frozen(bg):
    basis = frobenius_basis(1.0, bg, order=4)
    # q = 4 lam0 / f^2 = lam0 * (16 - 128 tau^2 + 768 tau^4 - ...)
    assert basis.q[0] == pytest.approx(16.0)
    assert basis.q[1] == pytest.approx(-128.0)
    assert basis.q[2] == pytest.approx(768.0)
    basis2 = frobenius_basis(3.0, bg, order=2)
    assert basis2.q[0] == pytest.approx(48.0)


def test_frobenius_drag_plus_matches_j0_y0_series():
    # constant f = 1 gives q = 4 lam0; lam0 = 1 is J0(2 tau) / Y0-type aux
    cb = constant_background(1.0)
    basis = frobenius_basis(1.0, cb, order=6)
    # main = sum (-1)^m tau^(2m) / (m!)^2
    for m in range(5):
        assert basis.main_poly[m] == pytest.approx((-1.0) ** m / math.factorial(m) ** 2, rel=1e-13)
    # aux correction carries the harmonic numbers: b_m = (-1)^(m+1) H_m/(m!)^2
    assert basis.aux_poly[1] == pytest.approx(1.0)
    assert basis.aux_poly[2] == pytest.approx(-3.0 / 8.0)
    assert basis.aux_poly[3] == pytest.approx((1.0 + 0.5 + 1.0 / 3.0) / 36.0, rel=1e-13)


EULER = float(np.euler_gamma)


def test_frobenius_aux_is_scaled_y0():
    # aux = main log tau + w must equal (pi/2) Y0(2 tau) - gamma J0(2 tau):
    # the argument 2 tau turns the usual log(x/2) of Y0 into a plain log tau
    cb = constant_background(1.0)
    basis = frobenius_basis(1.0, cb, order=14)
    for tau in (0.05, 0.2, 0.6):
        y0 = float(mpmath.bessely(0, 2.0 * tau))
        j0 = float(mpmath.besselj(0, 2.0 * tau))
        got = basis.aux(tau)[0]
        assert got == pytest.approx(math.pi / 2.0 * y0 - EULER * j0, abs=1e-11), tau


def test_frobenius_drag_minus_matches_tau_j1():
    # aux branch with roots {0, 2}: tau J1(2 tau) normalized to tau^2 leading term
    cb = constant_background(1.0)
    basis = frobenius_basis(1.0, cb, order=10, drag_sign=-1)
    assert basis.aux_poly[1] == pytest.approx(1.0)
    assert basis.aux_poly[2] == pytest.approx(-0.5)
    assert basis.aux_poly[3] == pytest.approx(1.0 / 12.0, rel=1e-13)
    assert basis.log_coupling == pytest.approx(-2.0)
    for tau in (0.1, 0.4):
        ref = tau * float(mpmath.besselj(1, 2.0 * tau))
        assert basis.aux(tau)[0] == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("drag", [1, -1])
def test_frobenius_solves_equation(bg, drag):
    # residual of u'' + drag u'/tau + q(tau) u at series order 12, via FD
    lam0 = 6.0
    basis = frobenius_basis(lam0, bg, order=12, drag_sign=drag)
    h = 1e-5
    for branch in ("main", "aux"):
        fn = getattr(basis, branch)
        for tau in (0.02, 0.05):
            up, _ = fn(tau + h)
            um, _ = fn(tau - h)
            u0, du = fn(tau)
            d2 = (up - 2 * u0 + um) / (h * h)
            qv = sum(c * tau ** (2 * i) for i, c in enumerate(basis.q))
            resid = d2 + drag * du / tau + qv * u0
            scale = abs(qv * u0) + abs(du / tau) + 1.0
            assert abs(resid) / scale < 5e-5, (branch, tau)


def test_frobenius_derivative_consistent(bg):
    basis = frobenius_basis(4.0, bg, order=12)
    h = 1e-6
    for tau in (0.03, 0.1):
        v_p = basis.main(tau + h)[0]
        v_m = basis.main(tau - h)[0]
        assert basis.main(tau)[1] == pytest.approx((v_p - v_m) / (2 * h), rel=1e-7)
        a_p = basis.aux(tau + h)[0]
        a_m = basis.aux(tau - h)[0]
        assert basis.aux(tau)[1] == pytest.approx((a_p - a_m) / (2 * h), rel=1e-6)


@pytest.mark.parametrize("drag", [1, -1])
@pytest.mark.parametrize("psi", [0, 1, 2])
def test_vector_basis_matches_scalar(bg, drag, psi):
    # one basis over every degree (lam0 = 0 included) is the per-degree bases, bit for bit
    lat = build_lattice(2, 6)
    for scale in (0.3, -0.2):
        vec = frobenius_basis(lat.lam0, bg, order=12, drag_sign=drag, diag_psi=psi,
                              diag_scale=scale)
        for l, lam0 in enumerate(lat.lam0):
            one = frobenius_basis(lam0, bg, order=12, drag_sign=drag, diag_psi=psi,
                                  diag_scale=scale)
            for name in ("q", "main_poly", "aux_poly"):
                assert np.array_equal(getattr(vec, name)[:, l], getattr(one, name)), name
            assert np.array_equal(vec.log_coupling[l], one.log_coupling)
            for tau in (1e-4, 0.05, 0.3):
                for branch in ("main", "aux"):
                    got, want = getattr(vec, branch)(tau), getattr(one, branch)(tau)
                    assert np.array_equal(got[0][l], want[0]), (branch, tau)
                    assert np.array_equal(got[1][l], want[1]), (branch, tau)
                assert np.array_equal(vec.truncation_defect(tau)[l], one.truncation_defect(tau))


def test_frobenius_validation(bg):
    with pytest.raises(ValueError):
        frobenius_basis(1.0, bg, order=1)
    with pytest.raises(ValueError):
        frobenius_basis(1.0, bg, drag_sign=0)


# ------------------------------------------------------------ configuration


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(n_regular=0)
    with pytest.raises(ValueError):
        SystemConfig(n_regular=1, system="third")
    with pytest.raises(ValueError):
        SystemConfig(n_regular=1, tau_seed=1.5)
    with pytest.raises(ValueError):
        SystemConfig(n_regular=1, coupling_scale=np.zeros((3, 3)))
    bad_psi = np.zeros((2, 2), dtype=int)
    bad_psi[0, 1] = 5
    with pytest.raises(ValueError):
        SystemConfig(n_regular=1, coupling_psi=bad_psi)


@pytest.mark.parametrize("tols", [dict(rtol=1e-14), dict(rtol=0.0), dict(atol=-1e-12)])
def test_config_rejects_tolerances_the_solver_cannot_meet(tols):
    # checked once, at construction: rtol below 100 machine epsilons and a
    # negative atol fail before any solve
    with pytest.raises(ValueError, match="rtol >= 100 \\* machine epsilon and atol >= 0"):
        SystemConfig(n_regular=1, **tols)


def test_config_accepts_the_tolerance_floor():
    SystemConfig(n_regular=1, rtol=100 * np.finfo(float).eps, atol=0.0)


def test_second_family_rejects_feedback_to_singular():
    scale = np.zeros((3, 3))
    scale[2, 0] = 0.1
    with pytest.raises(ValueError, match="forbids coupling of regular rows"):
        SystemConfig(n_regular=2, system="second", coupling_scale=scale)
    # the first family allows the same entry
    SystemConfig(n_regular=2, system="first", coupling_scale=scale)


def test_random_coupling_respects_family():
    rng = np.random.default_rng(0)
    mat, psi = random_coupling(3, "second", rng, 0.2)
    assert np.all(mat[1:, 0] == 0.0)
    assert np.all((psi >= 0) & (psi <= 2))
    mat1, _ = random_coupling(2, "first", rng, 0.5)
    assert np.max(np.abs(mat1)) <= 0.5


def test_forcing_validation():
    with pytest.raises(ValueError, match="width must be positive"):
        Forcing(amplitude=1.0, width=0.0)
    with pytest.raises(ValueError):
        SystemConfig(n_regular=2, forcings=(Forcing(),))


def test_asymptotic_data_requires_one_finite_part(small_lattice, part, bg):
    z = zero_like(small_lattice)
    with pytest.raises(ValueError):
        make_asymptotic_data(small_lattice, part, bg, O=z)
    with pytest.raises(ValueError):
        make_asymptotic_data(small_lattice, part, bg, O=z, h=z, frak_h=z)


def test_renormalize_round_trips(small_lattice, part, bg):
    # frak_h = h - 2 ell O with ell the log-derivative weights at tau = 0;
    # giving that frak_h instead reproduces h
    rng = np.random.default_rng(0)
    O = bounded_field(small_lattice, rng)
    h = bounded_field(small_lattice, rng)
    data = make_asymptotic_data(small_lattice, part, bg, O=O, h=h, phis=())
    ell = log_grad_weights(part, eigenvalue_at(bg, small_lattice.lam0[small_lattice.slot_l], 0.0))
    assert np.allclose(data.frak_h.coeffs, h.coeffs - 2.0 * ell * O.coeffs, atol=1e-15)
    data2 = make_asymptotic_data(small_lattice, part, bg, O=O, frak_h=data.frak_h)
    assert np.allclose(data2.h_field.coeffs, h.coeffs, atol=1e-14)


def test_renormalize_zero_mode_is_identity(small_lattice, part, bg):
    # ell(0) = 0: a zero-mode-only O leaves h untouched
    coeffs = np.zeros(small_lattice.n_slots)
    coeffs[small_lattice.slots_of_degree(0)] = 2.0
    O = Field(lattice=small_lattice, coeffs=coeffs)
    rng = np.random.default_rng(1)
    h = bounded_field(small_lattice, rng)
    data = make_asymptotic_data(small_lattice, part, bg, O=O, h=h)
    assert np.array_equal(data.frak_h.coeffs, h.coeffs)
    back = make_asymptotic_data(small_lattice, part, bg, O=O, frak_h=h)
    assert np.array_equal(back.h_field.coeffs, h.coeffs)


# ----------------------------------------------------------------- seeding


def test_seed_state_log_conventions(part, bg):
    lat = build_lattice(2, 2)
    tau_s = 1e-4
    unit = np.zeros(lat.n_slots)
    sl = lat.slots_of_degree(1)
    unit[sl.start] = 1.0
    O = Field(lattice=lat, coeffs=unit)
    cfg = SystemConfig(n_regular=1, tau_seed=tau_s)
    lam_at0 = 4.0 * 2.0  # lam0 = 2 quadrupled at tau = 0
    ell = log_grad_weights(part, np.array([lam_at0]))[0]

    # frak_h = 0: the finite part is the 2 ell correction
    d1 = make_asymptotic_data(lat, part, bg, O=O, frak_h=zero_like(lat), phis=[zero_like(lat)])
    s1 = seed_state(cfg, lat, bg, d1)
    # expansions hold up to the tau^2 log^2 tau correction, here ~1e-6
    expect1 = 2.0 * math.log(tau_s) + 2.0 * ell
    assert s1.values[0, sl.start] == pytest.approx(expect1, abs=1e-5)

    # raw h = 0: no correction survives
    d2 = make_asymptotic_data(lat, part, bg, O=O, h=zero_like(lat), phis=[zero_like(lat)])
    s2 = seed_state(cfg, lat, bg, d2)
    assert s2.values[0, sl.start] == pytest.approx(2.0 * math.log(tau_s), abs=1e-5)

    # either way the derivative is 2 O / tau to leading order
    assert s1.derivs[0, sl.start] == pytest.approx(2.0 / tau_s, rel=1e-5)


def test_seed_state_zero_mode_exact(part, bg):
    # lam0 = 0 solves u'' + u'/tau = 0 exactly: column is 2 O log tau + h
    lat = build_lattice(2, 0)
    O = Field(lattice=lat, coeffs=np.array([1.0]))
    h = Field(lattice=lat, coeffs=np.array([0.25]))
    cfg = SystemConfig(n_regular=1, tau_seed=1e-4, rtol=1e-12, atol=1e-14)
    data = make_asymptotic_data(lat, part, bg, O=O, h=h, phis=[zero_like(lat)])
    state = seed_state(cfg, lat, bg, data)
    assert state.values[0, 0] == pytest.approx(2.0 * math.log(1e-4) + 0.25, rel=1e-12)
    traj = integrate(cfg, lat, bg, state, 1.0)
    # at tau = 1 the log vanishes: phi = h, tau phi' = 2 O
    assert traj.values[-1, 0, 0] == pytest.approx(0.25, abs=1e-9)
    assert traj.derivs[-1, 0, 0] == pytest.approx(2.0, rel=1e-9)


def test_seed_rejects_large_tau(part, bg, small_lattice):
    cfg = SystemConfig(n_regular=1, tau_seed=0.3)
    rng = np.random.default_rng(0)
    data = make_asymptotic_data(
        small_lattice, part, bg, O=bounded_field(small_lattice, rng),
        h=bounded_field(small_lattice, rng), phis=[bounded_field(small_lattice, rng)],
    )
    with pytest.raises(ValueError, match="tau"):
        seeded_runs(cfg, small_lattice, bg, [data])


def test_seed_data_shape_mismatch(part, bg, small_lattice):
    cfg = SystemConfig(n_regular=2)
    rng = np.random.default_rng(0)
    data = make_asymptotic_data(
        small_lattice, part, bg, O=bounded_field(small_lattice, rng),
        h=bounded_field(small_lattice, rng), phis=[bounded_field(small_lattice, rng)],
    )
    with pytest.raises(ValueError, match="regular columns"):
        seeded_runs(cfg, small_lattice, bg, [data])


@pytest.mark.parametrize("background", ["desitter", "constant"])
@pytest.mark.parametrize("system", ["first", "second"])
@pytest.mark.parametrize("n_regular", [1, 2])
def test_seeds_equal_slot_level_oracle(part, background, system, n_regular):
    # one per-degree map seeds every slot; each factor 2 in it is exact, so
    # the seeds keep the bits of the slot-level formulas
    bg = desitter_background() if background == "desitter" else constant_background(1.5)
    for l_max in (0, 3, 16):
        lat = build_lattice(2, l_max)
        rng = np.random.default_rng(l_max)
        cs, cp = random_coupling(n_regular, system, rng, 0.1)
        cfg = SystemConfig(n_regular=n_regular, system=system, coupling_scale=cs,
                           coupling_psi=cp, tau_seed=1e-4)
        data = make_asymptotic_data(lat, part, bg, O=bounded_field(lat, rng),
                                    h=bounded_field(lat, rng),
                                    phis=[bounded_field(lat, rng) for _ in range(n_regular)])
        state, want = seed_state(cfg, lat, bg, data), seed_pairs(cfg, lat, bg, data)
        assert np.array_equal(state.values, want[:, 0])
        assert np.array_equal(state.derivs, want[:, 1])
        if system == "second":
            continue
        # a run's first row is its seed: P is the identity and F is 0 there
        tau0 = cfg.tau_seed
        grid = make_time_grid(tau0, 1.0, count=5)
        runs = split_singular_component(cfg, lat, bg, data, grid, part)
        for run, (value, deriv) in zip(runs, split_seeds(cfg, lat, bg, data, part)):
            assert np.array_equal(run[0, 0], value)
            assert np.array_equal(run[0, 1], tau0 * deriv)


# ------------------------------------------------------------- integration


def test_constant_run_matches_oracle(bg):
    # raw coefficient 4 lam integrates the same mode the oracle evaluates at lam
    lam = 25.0
    tau0, tau1 = 0.05, 1.0
    taus = np.linspace(tau0, tau1, 7)
    mpmath.mp.dps = 25
    j_v = float(mpmath.besselj(0, 2 * math.sqrt(lam) * tau0))
    j_d = float(-2 * math.sqrt(lam) * mpmath.besselj(1, 2 * math.sqrt(lam) * tau0))
    got = constant_mode_run(4.0 * lam, j_v, j_d, tau0, tau1, taus=taus)
    for t, u in zip(got[0], got[1]):
        ref = bessel_oracle("J", lam, t)
        assert u == pytest.approx(ref, abs=1e-9), t


def _scipy_scalar_run(lam, u0, du0, tau_from, tau_to, taus, rtol=1e-11, atol=1e-13):
    # the reference: scipy's DOP853 on the same log-chart system
    def rhs(s, y):
        tau = math.exp(s)
        return np.array([y[1], -tau * tau * lam * y[0]])

    sol = solve_ivp(rhs, (math.log(tau_from), math.log(tau_to)), [u0, tau_from * du0],
                    method="DOP853", t_eval=np.log(taus), rtol=rtol, atol=atol)
    assert sol.success
    return sol.y[0], sol.y[1] / taus, sol.nfev


def _toy_seed(branch, degree, tau):
    # the oracle seed shell_decay_check starts member `degree` from
    omega = 2.0**degree
    _, u, up = _oracle_envelope(branch, omega, tau)
    return 4.0**degree, omega, u, omega * up


@pytest.mark.parametrize("branch", ["J", "Y"])
@pytest.mark.parametrize("degree", [4, 8, 12])
def test_scalar_kernel_takes_scipy_steps(branch, degree):
    lam, omega, u0, du0 = _toy_seed(branch, degree, 0.05)
    taus = np.array([0.05, 1.0])
    ref_u, ref_du, ref_nfev = _scipy_scalar_run(lam, u0, du0, 0.05, 1.0, taus)
    sol = modelsys.solve_ivp(modelsys._scalar_kernel(lam, u0, 0.05 * du0, 1e-11, 1e-13),
                             math.log(0.05), 0.0, np.log(taus))
    assert sol.nfev == ref_nfev
    env = np.hypot(ref_u, ref_du / omega)
    np.testing.assert_array_less(np.abs(sol.y[:, 0] - ref_u) / env, 1e-13)
    np.testing.assert_array_less(np.abs(sol.y[:, 1] / taus - ref_du) / omega / env, 1e-13)


TOY_GOLDENS = json.loads(Path(__file__).with_name("toy_goldens.json").read_text())["members"]


def test_toy_runs_match_goldens(monkeypatch):
    # the endpoint (u, theta) and RHS count of every shell_decay_check member,
    # bit for bit: the scalar kernel's Python-float sums under solve_ivp
    nfevs = _count_solves(monkeypatch)
    for member in TOY_GOLDENS:
        lam, _, u0, du0 = _toy_seed(member["branch"], member["degree"], 0.05)
        _, u, du = constant_mode_run(lam, u0, du0, 0.05, 1.0, taus=np.array([0.05, 1.0]))
        assert (u[-1], du[-1], nfevs[-1]) == (member["u"], member["theta"], member["nfev"]), member
    assert len(nfevs) == len(TOY_GOLDENS) == 18


@pytest.mark.parametrize("branch", ["J", "Y"])
@pytest.mark.parametrize("degree", [3, 7])
@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("grid", ["default", "interior"])
def test_constant_run_matches_scipy(branch, degree, backward, grid):
    lam, omega, u0, du0 = _toy_seed(branch, degree, 1.0 if backward else 0.05)
    tau_from, tau_to = (1.0, 0.05) if backward else (0.05, 1.0)
    taus = None if grid == "default" else np.geomspace(tau_from, tau_to, 41)
    got_taus, u, du = constant_mode_run(lam, u0, du0, tau_from, tau_to, taus=taus)
    assert len(got_taus) == (33 if taus is None else 41)
    assert got_taus[0] == tau_from and got_taus[-1] == tau_to
    ref_u, ref_du, _ = _scipy_scalar_run(lam, u0, du0, tau_from, tau_to, got_taus)
    env = np.hypot(ref_u, ref_du / omega)
    np.testing.assert_array_less(np.abs(u - ref_u) / env, 1e-13)
    np.testing.assert_array_less(np.abs(du - ref_du) / omega / env, 1e-13)


def test_constant_run_rejects_times_outside_the_run():
    with pytest.raises(ValueError, match="evaluation times"):
        constant_mode_run(4.0, 1.0, 0.0, 0.05, 1.0, taus=np.array([1.0, 0.05]))
    with pytest.raises(ValueError, match="evaluation times"):
        constant_mode_run(4.0, 1.0, 0.0, 0.05, 0.5, taus=np.array([0.05, 1.0]))


def test_second_family_solution_freed_on_return(part, bg, small_lattice):
    # a run leaves no cyclic garbage: its solves are freed by reference
    # counting when they return
    cfg = SystemConfig(n_regular=1, system="second",
                       forcings=(Forcing(1.0), Forcing(0.5)))
    rng = np.random.default_rng(0)
    data = make_asymptotic_data(
        small_lattice, part, bg, O=bounded_field(small_lattice, rng),
        h=bounded_field(small_lattice, rng), phis=[bounded_field(small_lattice, rng)],
    )
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        seeded_runs(cfg, small_lattice, bg, [data])
        gc.collect()
        held = [type(o).__name__ for o in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert held == []


def test_integrate_linearity(part, bg, small_lattice):
    rng = np.random.default_rng(7)
    cs, cp = random_coupling(1, "first", rng, 0.1)
    cfg = SystemConfig(n_regular=1, coupling_scale=cs, coupling_psi=cp,
                       rtol=1e-12, atol=1e-14)
    grid = make_time_grid(cfg.tau_seed, 1.0, count=9)
    d1 = make_asymptotic_data(small_lattice, part, bg, O=bounded_field(small_lattice, rng),
                              h=bounded_field(small_lattice, rng),
                              phis=[bounded_field(small_lattice, rng)])
    d2 = make_asymptotic_data(small_lattice, part, bg, O=bounded_field(small_lattice, rng),
                              h=bounded_field(small_lattice, rng),
                              phis=[bounded_field(small_lattice, rng)])
    a, b = 2.0, -0.5

    def mix(f1, f2):
        return f1.with_coeffs(a * f1.coeffs + b * f2.coeffs)

    combo = make_asymptotic_data(
        small_lattice, part, bg,
        O=mix(d1.O_field, d2.O_field),
        h=mix(d1.h_field, d2.h_field),
        phis=[mix(d1.phi0_fields[0], d2.phi0_fields[0])],
    )
    t1, t2, tc = seeded_runs(cfg, small_lattice, bg, [d1, d2, combo], grid)
    lin = a * t1 + b * t2
    # the values rows, then the tau * derivative rows
    for rows in (slice(0, cfg.n_columns), slice(cfg.n_columns, None)):
        scale = np.max(np.abs(tc[:, rows]))
        assert np.max(np.abs(tc[:, rows] - lin[:, rows])) / scale <= 1e-10


def test_stored_derivative_matches_finite_difference(part, bg):
    # centered differences of phi converge to the stored phi' at O(dt^2)
    lat = build_lattice(2, 3)
    rng = np.random.default_rng(3)
    cfg = SystemConfig(n_regular=1, rtol=1e-12, atol=1e-14)
    data = make_asymptotic_data(lat, part, bg, O=bounded_field(lat, rng),
                                h=bounded_field(lat, rng), phis=[bounded_field(lat, rng)])
    state = seed_state(cfg, lat, bg, data)

    def fd_error(n_pts):
        traj = integrate(cfg, lat, bg, state, 0.9, grid=TimeGrid(np.linspace(0.5, 0.9, n_pts)))
        # the trajectory starts at the seed time; keep the uniform segment
        keep = traj.taus >= 0.5 - 1e-12
        vals, ders, ts = traj.values[keep], traj.derivs[keep], traj.taus[keep]
        dt = ts[1] - ts[0]
        fd = (vals[2:] - vals[:-2]) / (2 * dt)
        return np.max(np.abs(fd - ders[1:-1]))

    e1 = fd_error(41)
    e2 = fd_error(81)
    # halving the step should cut the error by about four
    assert e1 / e2 > 3.0
    assert e2 < 1e-3


def test_integrate_zero_data_stays_zero(part, bg, small_lattice):
    cfg = SystemConfig(n_regular=2)
    data = make_asymptotic_data(small_lattice, part, bg, O=zero_like(small_lattice),
                                h=zero_like(small_lattice),
                                phis=[zero_like(small_lattice)] * 2)
    assert np.max(np.abs(seeded_runs(cfg, small_lattice, bg, [data]))) == 0.0


def test_roundtrip_recovery(part, bg):
    lat = build_lattice(2, 4)
    rng = np.random.default_rng(11)
    cfg = SystemConfig(n_regular=1, rtol=1e-11, atol=1e-13)
    data = make_asymptotic_data(lat, part, bg, O=bounded_field(lat, rng),
                                h=bounded_field(lat, rng), phis=[bounded_field(lat, rng)])
    rec, _ = roundtrip_data(cfg, lat, bg, data)
    want = np.array([data.O_field.coeffs, data.h_field.coeffs, data.phi0_fields[0].coeffs])
    assert np.max(np.abs(rec - want) / np.abs(want)) <= 1e-6


@pytest.mark.parametrize("system, tau_seed", [("first", 0.06), ("second", 0.055)])
def test_roundtrip_recovers_data_seeded_near_the_series_limit(part, bg, system, tau_seed):
    # at rtol 1e-10 these seed times pass the series-remainder check, and the
    # extraction map is the exact inverse of the seed's branch map there; an
    # extraction that read some degrees off the two-term expansion instead
    # recovered these data with relative errors of 37 and 8.1
    lat = build_lattice(2, 16)
    rng = np.random.default_rng(3)
    cfg = SystemConfig(n_regular=2, system=system, tau_seed=tau_seed, rtol=1e-10, atol=1e-12)
    data = make_asymptotic_data(lat, part, bg, O=bounded_field(lat, rng),
                                h=bounded_field(lat, rng),
                                phis=[bounded_field(lat, rng) for _ in range(2)])
    rec, _ = roundtrip_data(cfg, lat, bg, data)
    want = modelsys._data_vectors(cfg, data)
    assert np.max(np.abs(rec - want) / np.abs(want)) <= 1e-6


def test_extract_pure_regular_has_no_log_branch(part, bg, small_lattice):
    rng = np.random.default_rng(13)
    cfg = SystemConfig(n_regular=1, rtol=1e-11, atol=1e-13)
    data = make_asymptotic_data(small_lattice, part, bg, O=zero_like(small_lattice),
                                h=bounded_field(small_lattice, rng),
                                phis=[bounded_field(small_lattice, rng)])
    state = seed_state(cfg, small_lattice, bg, data)
    rec, diag = extract_asymptotic_data(cfg, small_lattice, bg, state, part)
    assert np.max(np.abs(rec.O_field.coeffs)) <= 1e-10
    assert diag["singular_contamination"] <= 1e-10


@pytest.mark.parametrize("family", ["first", "second"])
def test_extract_inverts_seed_directly(part, bg, family):
    # no integration in between, so the 2x2 solves must undo the seed to round-off
    lat = build_lattice(2, 6)
    rng = np.random.default_rng(23)
    cs, cp = random_coupling(2, family, rng, 0.1)
    cfg = SystemConfig(n_regular=2, system=family, coupling_scale=cs, coupling_psi=cp,
                       rtol=1e-11, atol=1e-13)
    data = make_asymptotic_data(lat, part, bg, O=bounded_field(lat, rng),
                                h=bounded_field(lat, rng),
                                phis=[bounded_field(lat, rng) for _ in range(2)])
    rec, diag = extract_asymptotic_data(cfg, lat, bg, seed_state(cfg, lat, bg, data), part)
    assert diag["ill_conditioned_degrees"] == 0
    pairs = [(rec.O_field, data.O_field), (rec.h_field, data.h_field),
             *zip(rec.phi0_fields, data.phi0_fields)]
    for got, want in pairs:
        assert np.max(np.abs(got.coeffs - want.coeffs) / np.abs(want.coeffs)) <= 1e-12


def test_extract_warns_when_series_cannot_reach(part, bg):
    lat = build_lattice(2, 8)
    rng = np.random.default_rng(17)
    cfg = SystemConfig(n_regular=1, rtol=1e-10, atol=1e-12)
    data = make_asymptotic_data(lat, part, bg, O=bounded_field(lat, rng),
                                h=bounded_field(lat, rng), phis=[bounded_field(lat, rng)])
    traj = integrate(cfg, lat, bg, seed_state(cfg, lat, bg, data), 0.3)
    with pytest.warns(RuntimeWarning, match="ill-conditioned"):
        rec, diag = extract_asymptotic_data(cfg, lat, bg, traj.state_at(-1), part)
    assert diag["ill_conditioned_degrees"] > 0


@pytest.mark.parametrize("system", ["first", "second"])
@pytest.mark.parametrize("n_regular", [1, 2])
def test_extraction_after_seeding_is_the_data_selection(bg, system, n_regular):
    # per degree the extraction map inverts the seed map column by column: the
    # data rows read the data vector back, the regular aux-branch rows read 0
    for l_max in (0, 3, 16):
        lat = build_lattice(2, l_max)
        cs, cp = random_coupling(n_regular, system, np.random.default_rng(l_max), 0.1)
        cfg = SystemConfig(n_regular=n_regular, system=system, coupling_scale=cs,
                           coupling_psi=cp)
        tau, n_data = cfg.tau_seed, cfg.n_columns + 1
        extract = modelsys._extraction_maps(cfg, lat, bg, tau)
        got = extract @ data_to_state_maps(cfg, lat, bg, tau)
        assert got.shape == (l_max + 1, 2 * cfg.n_columns, n_data)
        assert np.max(np.abs(got[:, :n_data] - np.eye(n_data))) <= 1e-12
        # the second family's aux branch is tau^2, so its rows weigh about 1 / tau^2
        aux_rows = extract[:, n_data:]
        assert np.max(np.abs(got[:, n_data:])) <= 1e-12 * np.max(np.abs(aux_rows))


def test_extraction_rejects_a_time_the_series_cannot_reach(bg):
    # at tau = 0.2 the series cannot reach degrees 2..8, so extraction there
    # raises the seeding error rather than reading any degree off another
    # expansion
    cfg = SystemConfig(n_regular=2, rtol=1e-10, atol=1e-12)
    with pytest.raises(ValueError, match="tau_seed=0.2 too large: series remainder"):
        modelsys._extraction_maps(cfg, build_lattice(2, 8), bg, 0.2)


def _abel_defect(system, background, n_regular, tau):
    """Worst |det / exact - 1| of the branch maps, derivative rows times tau.

    Each column solves u'' + sign u' / tau + q u = 0, so by Abel's identity
    tau W(aux, main) = tau (aux main' - main aux') is C tau^(1 - sign), and
    the series' leading terms fix it: -1 on the +1 drag (aux ~ log tau) and
    -2 tau^2 on the -1 drag (aux ~ tau^2).  With the factor 2 on O and the column order (O, h,
    phi0_1..phi0_I, a_1..a_I), det = 2 (-1)^(I+1), times (2 tau^2)^I on the
    second family, for every degree, background and diagonal coupling.
    """
    bg = desitter_background() if background == "desitter" else constant_background(1.5)
    exact = 2.0 * (-1.0) ** (n_regular + 1) * ((2.0 * tau * tau) ** n_regular
                                               if system == "second" else 1.0)
    worst = 0.0
    for l_max in (0, 16, 128):
        cs, cp = random_coupling(n_regular, system, np.random.default_rng(l_max), 0.1)
        cfg = SystemConfig(n_regular=n_regular, system=system, coupling_scale=cs,
                           coupling_psi=cp)
        maps = modelsys._branch_maps(cfg, build_lattice(2, l_max), bg, tau)
        maps[:, cfg.n_columns:] *= tau
        worst = max(worst, float(np.max(np.abs(np.linalg.det(maps) / exact - 1.0))))
    return worst


_ABEL_CASES = [(bg_kind, n, tau) for bg_kind in ("desitter", "constant") for n in (1, 2)
               for tau in (1e-4, 1e-5)]


@pytest.mark.parametrize("background, n_regular, tau", _ABEL_CASES)
@pytest.mark.parametrize("system", ["first", "second"])
def test_branch_maps_obey_abels_identity(system, background, n_regular, tau):
    # measured at most 5.1e-15
    assert _abel_defect(system, background, n_regular, tau) <= 1e-13


def _halved_log_correction(*args, **kwargs):
    """``frobenius_basis`` with the log term of its second recursion halved."""
    basis = frobenius_basis(*args, **kwargs)
    q, order = basis.q, basis.order
    if basis.drag_sign == 1:  # the log branch's correction: b_m gains -4 m a_m
        a, b = basis.main_poly, np.zeros(q.shape)
        for m in range(1, order + 1):
            acc = sum(q[j] * b[m - 1 - j] for j in range(m))
            b[m] = (-2.0 * m * a[m] - acc) / (4.0 * m * m)
        return dataclasses.replace(basis, aux_poly=b)
    e, c, p = basis.aux_poly, basis.log_coupling, np.zeros(q.shape)
    p[0] = 1.0  # the main branch's resonant term: p_m gains -2 c (2m - 1) e_m
    for m in range(2, order + 1):
        acc = sum(q[j] * p[m - 1 - j] for j in range(m))
        p[m] = (-acc - c * (2 * m - 1) * e[m]) / (4.0 * m * (m - 1))
    return dataclasses.replace(basis, main_poly=p)


@pytest.mark.parametrize("system", ["first", "second"])
def test_abels_identity_fails_with_a_halved_log_correction(monkeypatch, system):
    # negative control: every case of the identity test fails, measured 7.3e-7
    # to 2.0e-3
    monkeypatch.setattr(modelsys, "frobenius_basis", _halved_log_correction)
    assert all(_abel_defect(system, *case) > 1e-13 for case in _ABEL_CASES)


@pytest.mark.parametrize("system", ["first", "second"])
@pytest.mark.parametrize("scale", [0.0, 0.1], ids=["decoupled", "coupled"])
def test_roundtrip_matches_the_slot_level_chain(part, bg, system, scale):
    # M_l = X_l P_l(tau_s <- 1) P_l(1 <- tau_s) S_l on each slot against the
    # seed, the two runs and the extraction applied slot by slot
    lat = build_lattice(2, 6)
    rng = np.random.default_rng(61)
    cs, cp = random_coupling(2, system, rng, scale)
    cfg = SystemConfig(n_regular=2, system=system, coupling_scale=cs, coupling_psi=cp,
                       rtol=1e-11, atol=1e-13)
    data = make_asymptotic_data(lat, part, bg, O=bounded_field(lat, rng),
                                h=bounded_field(lat, rng),
                                phis=[bounded_field(lat, rng) for _ in range(2)])
    rec, contamination = roundtrip_data(cfg, lat, bg, data)
    chain, chain_diag = roundtrip_chain(cfg, lat, bg, data, part)
    want = np.array([chain.O_field.coeffs, chain.h_field.coeffs,
                     *(p.coeffs for p in chain.phi0_fields)])
    assert np.max(np.abs(rec - want) / np.abs(want)) <= 1e-12
    assert chain_diag["ill_conditioned_degrees"] == 0
    assert contamination == pytest.approx(chain_diag["singular_contamination"], rel=0.0, abs=1e-12)


def test_roundtrip_rejects_forcing(part, bg, small_lattice):
    cfg = SystemConfig(n_regular=1, forcings=(Forcing(0.3), Forcing()))
    data = make_asymptotic_data(small_lattice, part, bg, O=zero_like(small_lattice),
                                h=zero_like(small_lattice), phis=[zero_like(small_lattice)])
    with pytest.raises(ValueError, match="unforced"):
        roundtrip_data(cfg, small_lattice, bg, data)


@pytest.mark.parametrize("forcings", [(), tuple(Forcing(a) for a in (0.3, -0.2, 0.1))],
                         ids=["unforced", "forced"])
def test_second_family_regulars_ignore_singular_data(part, bg, small_lattice, forcings):
    rng = np.random.default_rng(19)
    cs, cp = random_coupling(2, "second", rng, 0.1)
    cfg = SystemConfig(n_regular=2, system="second", coupling_scale=cs, coupling_psi=cp,
                       forcings=forcings)
    phis = [bounded_field(small_lattice, rng) for _ in range(2)]
    draws = [make_asymptotic_data(small_lattice, part, bg, O=bounded_field(small_lattice, rng),
                                  h=bounded_field(small_lattice, rng), phis=phis)
             for _ in range(2)]
    runs = seeded_runs(cfg, small_lattice, bg, draws).reshape(2, -1, 2, cfg.n_columns,
                                                              small_lattice.n_slots)
    # (draw, time, values or tau * derivs, column, slot)
    assert np.array_equal(runs[0, :, :, 1:], runs[1, :, :, 1:])
    # column 0 does depend on its own data
    assert not np.array_equal(runs[0, :, 0, 0], runs[1, :, 0, 0])
    # because the regular rows of P started from column 0 are exactly 0
    props = fundamental_matrices(cfg, small_lattice, bg, cfg.tau_seed,
                                 np.geomspace(cfg.tau_seed, 1.0, 5))
    n = cfg.n_columns
    regular, col0 = np.r_[1:n, n + 1 : 2 * n], [0, n]
    assert np.any(props[..., col0]) and not np.any(props[:, :, regular][..., col0])


# ------------------------------------------------------- split & epsilon


def test_split_reconstructs_and_tags_branches(part, bg):
    lat = build_lattice(2, 4)
    rng = np.random.default_rng(23)
    cs, cp = random_coupling(1, "first", rng, 0.05)
    cfg = SystemConfig(n_regular=1, coupling_scale=cs, coupling_psi=cp,
                       tau_seed=1e-5, rtol=1e-11, atol=1e-13)
    data = make_asymptotic_data(lat, part, bg, O=bounded_field(lat, rng),
                                h=bounded_field(lat, rng), phis=[bounded_field(lat, rng)])
    grid = make_time_grid(1e-4, 1.0, count=61)
    ty, tj = split_singular_component(cfg, lat, bg, data, grid, part)
    direct = seeded_runs(cfg, lat, bg, [data], grid)[0, :, 0]
    num = np.max(np.abs(ty[:, 0] + tj[:, 0] - direct))
    den = np.max(np.abs(direct))
    assert num / den <= 1e-9
    # the log branch is 2 O (log tau + ell) + O(tau^2 log^2 tau)
    taus = modelsys._eval_taus(cfg.tau_seed, 1.0, grid)
    assert len(taus) == len(ty) == len(direct)
    small = taus < 1e-3
    ell = log_grad_weights(part, eigenvalue_at(bg, lat.lam0[lat.slot_l], 0.0))
    expect = (2.0 * data.O_field.coeffs[None, :] * (np.log(taus[small])[:, None] + ell))
    drift = np.max(np.abs(ty[small, 0] - expect))
    assert drift <= 1e-4
    assert np.max(np.abs(tj[small, 0])) <= 10.0 * np.max(np.abs(data.frak_h.coeffs))


def test_split_requires_partition(part, bg, small_lattice):
    rng = np.random.default_rng(29)
    cfg = SystemConfig(n_regular=1)
    data = make_asymptotic_data(small_lattice, part, bg, O=bounded_field(small_lattice, rng),
                                h=bounded_field(small_lattice, rng),
                                phis=[bounded_field(small_lattice, rng)])
    grid = make_time_grid(1e-3, 1.0, count=9)
    with pytest.raises(TypeError, match="part"):
        split_singular_component(cfg, small_lattice, bg, data, grid)


def test_split_rejects_second_family(part, bg, small_lattice):
    # one first-family augmented run cannot carry the -1/tau regular drag
    rng = np.random.default_rng(30)
    cfg = SystemConfig(n_regular=1, system="second")
    data = make_asymptotic_data(small_lattice, part, bg, O=bounded_field(small_lattice, rng),
                                h=bounded_field(small_lattice, rng),
                                phis=[bounded_field(small_lattice, rng)])
    grid = make_time_grid(1e-3, 1.0, count=9)
    with pytest.raises(ValueError, match="first system family"):
        split_singular_component(cfg, small_lattice, bg, data, grid, part)


def test_epsilon_check_rejects_second_family(part, bg, small_lattice):
    # the -1/tau drag keeps successive rung differences near constant there
    rng = np.random.default_rng(32)
    cfg = SystemConfig(n_regular=1, system="second")
    data = make_asymptotic_data(small_lattice, part, bg, O=bounded_field(small_lattice, rng),
                                h=bounded_field(small_lattice, rng),
                                phis=[bounded_field(small_lattice, rng)])
    with pytest.raises(ValueError, match="first system family"):
        epsilon_construction_check(cfg, small_lattice, bg, data, eps=1e-2)


def test_expansion_state_is_exact_at_zero_eigenvalue(part, bg, small_lattice):
    # Premise of the cutoff ladder: on lambda = 0 slots of a decoupled,
    # unforced run, 2 O log tau + h and phi0 solve the system exactly, so a
    # run started from the two-term expansion ends at (h, 2 O) and phi0.
    lat = small_lattice
    rng = np.random.default_rng(34)
    cfg = SystemConfig(n_regular=2, rtol=1e-11, atol=1e-13)
    oc, hc = bounded_field(lat, rng).coeffs, bounded_field(lat, rng).coeffs
    phis = [bounded_field(lat, rng).coeffs for _ in range(2)]
    cut = 1e-3
    values = np.array([2.0 * oc * math.log(cut) + hc] + phis)
    derivs = np.zeros_like(values)
    derivs[0] = 2.0 * oc / cut
    run = integrate(cfg, lat, bg, ModeState(tau=cut, values=values, derivs=derivs), 1.0)
    zero = lat.lam0[lat.slot_l] == 0.0
    assert np.count_nonzero(zero) >= 1 and run.taus[-1] == 1.0
    assert np.max(np.abs(run.values[-1, 0, zero] - hc[zero])) <= 1e-9
    assert np.max(np.abs(run.derivs[-1, 0, zero] - 2.0 * oc[zero])) <= 1e-9
    for i, phi in enumerate(phis, start=1):
        assert np.max(np.abs(run.values[-1, i, zero] - phi[zero])) <= 1e-9
        assert np.max(np.abs(run.derivs[-1, i, zero])) <= 1e-9


def test_epsilon_check_zero_data(part, bg, small_lattice):
    # every rung of zero data ends at 0: no discrepancy, nothing measured
    cfg = SystemConfig(n_regular=1)
    data = make_asymptotic_data(small_lattice, part, bg, O=zero_like(small_lattice),
                                h=zero_like(small_lattice), phis=[zero_like(small_lattice)])
    with pytest.raises(ValueError, match="identically zero"):
        epsilon_construction_check(cfg, small_lattice, bg, data, eps=1e-2)


def test_epsilon_check_rejects_degree_zero_data(part, bg):
    # on lambda = 0 the two-term expansion is exact, so every rung ends at the
    # same state and the ladder would grade round-off (it read 3.6e-15,
    # 7.1e-15, 1.1e-14 and failed)
    lat = build_lattice(2, 6)
    cfg = SystemConfig(n_regular=1, rtol=1e-11, atol=1e-13)
    o_field = zero_like(lat).with_coeffs(np.where(lat.lam0[lat.slot_l] == 0.0, 1.0, 0.0))
    data = make_asymptotic_data(lat, part, bg, O=o_field, h=zero_like(lat), phis=[zero_like(lat)])
    with pytest.raises(ValueError, match="identically zero on the modes with lambda > 0"):
        epsilon_construction_check(cfg, lat, bg, data, eps=1e-3)
    # with the degree-1 slots as well the ladder measures the cutoff again
    o_field = o_field.with_coeffs(np.where(lat.slot_l <= 1, 1.0, 0.0))
    data = make_asymptotic_data(lat, part, bg, O=o_field, h=zero_like(lat), phis=[zero_like(lat)])
    assert epsilon_construction_check(cfg, lat, bg, data, eps=1e-3).discrepancies[0] > 1e-9


def test_epsilon_check_range(part, bg, small_lattice):
    rng = np.random.default_rng(31)
    cfg = SystemConfig(n_regular=1)
    data = make_asymptotic_data(small_lattice, part, bg, O=bounded_field(small_lattice, rng),
                                h=bounded_field(small_lattice, rng),
                                phis=[bounded_field(small_lattice, rng)])
    with pytest.raises(ValueError):
        epsilon_construction_check(cfg, small_lattice, bg, data, eps=0.5)


def test_epsilon_ladder_soft_at_centi(part, bg):
    # the documented 1e-2 example: ratio should sit near the asymptotic 3.02
    lat = build_lattice(2, 4)
    rng = np.random.default_rng(37)
    cfg = SystemConfig(n_regular=1, rtol=1e-11, atol=1e-13)
    data = make_asymptotic_data(lat, part, bg, O=bounded_field(lat, rng),
                                h=bounded_field(lat, rng), phis=[bounded_field(lat, rng)])
    rep = epsilon_construction_check(cfg, lat, bg, data, eps=1e-2)
    assert rep.monotone
    for r in rep.ratios:
        assert 2.7 <= r <= 3.6


# ------------------------------------------------------------- propagators


def _end_state(lat, rng, n_cols):
    """A state at tau = 1, where the backward family starts."""
    return ModeState(tau=1.0,
                     values=np.array([bounded_field(lat, rng).coeffs for _ in range(n_cols)]),
                     derivs=np.array([bounded_field(lat, rng).coeffs for _ in range(n_cols)]))


def _reference_rhs(config, lam0, bg, source, n):
    """The log-chart right-hand side with each stage's arrays allocated anew.

    The same formula and operation order as ``modelsys._propagate``, on the
    stacked (values, thetas) state of ``n`` entries per column.
    """
    n_cols = config.n_columns
    one_minus_sign = (1.0 - config.drag_signs)[:, None]

    def rhs(s, y):
        tau = math.exp(s)
        f = bg.f(tau)
        k = bg.f_prime_over_tau(tau) / f
        lam = lam0 / (f * f)
        v = y[: n_cols * n].reshape(n_cols, n)
        th = y[n_cols * n :].reshape(n_cols, n)
        amat = config.coupling_scale * np.array([1.0, k, tau * tau * k])[config.coupling_psi]
        drive = (amat @ v) * np.sqrt(lam)
        if source is not None:
            drive = drive + source(tau)
        dth = one_minus_sign * th + (tau * tau) * (drive - 4.0 * lam * v)
        return np.concatenate([th.ravel(), dth.ravel()])

    return rhs


@pytest.mark.parametrize("system", ["first", "second"])
def test_integrate_matches_a_slot_level_solve(part, bg, system):
    # integrate composes the per-degree propagators; the reference is one
    # plain DOP853 solve of every slot's stacked state, coupled and forced:
    # the first family forward from the seed, the second backward from tau = 1
    lat = build_lattice(2, 3)
    rng = np.random.default_rng(41)
    cs, cp = random_coupling(1, system, rng, 0.1)
    forcings = (Forcing(amplitude=0.3, center=0.5, width=0.1),
                Forcing(amplitude=0.2, center=0.3, width=0.1))
    cfg = SystemConfig(n_regular=1, system=system, coupling_scale=cs, coupling_psi=cp,
                       forcings=forcings, rtol=1e-11, atol=1e-13)
    if system == "first":
        data = make_asymptotic_data(lat, part, bg, O=bounded_field(lat, rng),
                                    h=bounded_field(lat, rng), phis=[bounded_field(lat, rng)])
        state, tau_end = seed_state(cfg, lat, bg, data), 1.0
    else:
        state, tau_end = _end_state(lat, rng, cfg.n_columns), 1e-3
    grid = make_time_grid(min(state.tau, tau_end), max(state.tau, tau_end), count=9)
    run = integrate(cfg, lat, bg, state, tau_end, grid=grid)

    def source(tau):
        return np.array([f.profile(tau) for f in forcings])[:, None]

    sol = solve_ivp(_reference_rhs(cfg, lat.lam0[lat.slot_l], bg, source, lat.n_slots),
                    (math.log(state.tau), math.log(tau_end)),
                    np.concatenate([state.values, state.tau * state.derivs]).ravel(),
                    method="DOP853", t_eval=np.log(run.taus), rtol=cfg.rtol, atol=cfg.atol)
    assert sol.success
    want = sol.y.T.reshape(len(run.taus), 2, cfg.n_columns, lat.n_slots)
    scale = np.max(np.abs(want[:, 0]))
    assert np.max(np.abs(run.values - want[:, 0])) / scale <= 1e-8
    assert np.max(np.abs(run.derivs * run.taus[:, None, None] - want[:, 1])) / scale <= 1e-8


# ------------------------------------------------------------ block solver


def _reference_propagate(nfevs):
    """``modelsys._propagate`` with the allocating RHS under plain DOP853.

    Each stage is stepped by scipy's own ``rk_step``; every solve appends its
    ``nfev`` to ``nfevs``.
    """

    def propagate(config, lam0, bg, source, start, tau_from, taus):
        n = start.shape[1]
        sol = solve_ivp(_reference_rhs(config, lam0, bg, source, n),
                        (math.log(tau_from), math.log(taus[-1])), start.ravel(),
                        method="DOP853", t_eval=np.log(taus), rtol=config.rtol,
                        atol=config.atol)
        assert sol.success
        nfevs.append(sol.nfev)
        return sol.y.T.reshape(len(taus), 2 * config.n_columns, n)

    return propagate


def _count_solves(monkeypatch):
    """Wrap the ``solve_ivp`` name modelsys calls; returns the list of nfevs."""
    nfevs, solve = [], modelsys.solve_ivp

    def counting(*args, **kwargs):
        sol = solve(*args, **kwargs)
        nfevs.append(sol.nfev)
        return sol

    monkeypatch.setattr(modelsys, "solve_ivp", counting)
    return nfevs


def _solver_case(case, part, bg):
    """The arrays one kind of block solve returns, for the reference comparison."""
    lat = build_lattice(2, 4)
    rng = np.random.default_rng(53)
    system = "first" if case in ("forward", "backward") else "second"
    cs, cp = random_coupling(1, system, rng, 0.0 if case == "propagators" else 0.1)
    cfg = SystemConfig(
        n_regular=1, system=system, coupling_scale=cs, coupling_psi=cp,
        forcings=(Forcing(amplitude=0.3, center=0.5, width=0.1),
                  Forcing(amplitude=-0.2, center=0.3, width=0.1)),
    )
    if case == "propagators":
        # decoupled: the drive is 0 for the propagators and the source alone
        # for the forced response, with the second family's drag flip in both
        taus = make_time_grid(cfg.tau_seed, 1.0, count=9).taus
        return (fundamental_matrices(cfg, lat, bg, cfg.tau_seed, taus),
                forced_profile(cfg, lat, bg, cfg.tau_seed, taus))
    if case == "backward":
        run = integrate(cfg, lat, bg, _end_state(lat, rng, cfg.n_columns), 1e-2)
    else:
        data = make_asymptotic_data(lat, part, bg, O=bounded_field(lat, rng),
                                    h=bounded_field(lat, rng), phis=[bounded_field(lat, rng)])
        run = integrate(cfg, lat, bg, seed_state(cfg, lat, bg, data), 1.0)
    return run.values, run.derivs


@pytest.mark.parametrize("case", ["forward", "backward", "second", "propagators"])
def test_block_solver_matches_scipy_dop853_bit_for_bit(monkeypatch, part, bg, case):
    # the in-place stages take scipy's steps with scipy's arithmetic: equal
    # arrays and equal RHS counts, for integrate's two solves and for the
    # per-degree builders alone
    nfevs = _count_solves(monkeypatch)
    got = _solver_case(case, part, bg)
    ref_nfevs = []
    monkeypatch.setattr(modelsys, "_propagate", _reference_propagate(ref_nfevs))
    want = _solver_case(case, part, bg)
    assert nfevs == ref_nfevs and nfevs
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


def test_dop853_tableau_is_scipys():
    # the in-package tableau, laid out as scipy's DOP853 keeps it
    a = np.zeros((16, 16))
    for s, row in enumerate(modelsys._DOP853_A):
        a[s, :s] = row
    c = np.array(modelsys._DOP853_C)
    assert np.array_equal(a[:12, :12], DOP853.A)
    assert np.array_equal(np.array(modelsys._DOP853_B), DOP853.B)
    assert np.array_equal(c[:12], DOP853.C)
    assert np.array_equal(np.array(modelsys._DOP853_E3), DOP853.E3)
    assert np.array_equal(np.array(modelsys._DOP853_E5), DOP853.E5)
    assert np.array_equal(np.array(modelsys._DOP853_D), DOP853.D)
    assert np.array_equal(a[13:], DOP853.A_EXTRA)
    assert np.array_equal(c[13:], DOP853.C_EXTRA)
    assert modelsys._DOP_EXPONENT == -1 / (DOP853.error_estimator_order + 1)


def test_propagate_rejects_an_empty_span(small_lattice, bg):
    # tau_from equal to the last requested time leaves nothing to integrate
    with pytest.raises(ValueError, match="evaluation times"):
        fundamental_matrices(SystemConfig(n_regular=1), small_lattice, bg, 0.5, np.array([0.5]))
    with pytest.raises(ValueError, match="evaluation times"):
        fundamental_matrices(SystemConfig(n_regular=1), small_lattice, bg, 0.5,
                             np.array([0.7, 0.6, 1.0]))


def test_propagate_reports_a_failed_solve(monkeypatch, small_lattice):
    # f = 0.5 - tau^2 vanishes at tau = 0.71, where lambda = lam0 / f^2 blows
    # up: the step size collapses below the spacing of floats.  The background
    # rejects such an f, so its check is bypassed to reach the solver.
    monkeypatch.setattr(ConformalBackground, "__post_init__", lambda self: None)
    vanishing = ConformalBackground(name="vanishing", f_even=(0.5, -1.0))
    taus = np.geomspace(1e-3, 1.0, 5)
    with pytest.raises(RuntimeError, match=r"integration failed between tau=0\.001 and 1: "
                       r"Required step size .*; try a larger tau_seed"):
        fundamental_matrices(SystemConfig(n_regular=1), small_lattice, vanishing, 1e-3, taus)


def test_block_solves_reach_the_module_solve_ivp(monkeypatch, part, bg, small_lattice):
    # the benchmark's modelsys.solves, rhs_evals and solve_s wrap this name;
    # forced runs of data make two solves, the propagators and the forced
    # part, and a toy run one, on the scalar kernel
    nfevs = _count_solves(monkeypatch)
    cfg = SystemConfig(n_regular=1, forcings=(Forcing(0.3), Forcing()))
    rng = np.random.default_rng(59)
    data = make_asymptotic_data(small_lattice, part, bg, O=bounded_field(small_lattice, rng),
                                h=bounded_field(small_lattice, rng),
                                phis=[bounded_field(small_lattice, rng)])
    taus = np.geomspace(cfg.tau_seed, 1.0, 5)
    calls = {
        "seeded_runs": (2, lambda: seeded_runs(cfg, small_lattice, bg, [data, data])),
        "fundamental_matrices": (1, lambda: fundamental_matrices(cfg, small_lattice, bg,
                                                                 cfg.tau_seed, taus)),
        "forced_profile": (1, lambda: forced_profile(cfg, small_lattice, bg, cfg.tau_seed,
                                                     taus)),
        "constant_mode_run": (1, lambda: constant_mode_run(4.0, 1.0, 0.0, 0.05, 1.0)),
    }
    for name, (solves, call) in calls.items():
        before = len(nfevs)
        call()
        assert len(nfevs) == before + solves and min(nfevs[before:]) > 0, name

@pytest.mark.parametrize("system", ["first", "second"])
def test_integrate_matches_mode_rhs_by_finite_differences(part, bg, system):
    # central differences of a log-chart run, in physical time, against the
    # public physical-time right-hand side, coupled and forced
    lat = build_lattice(2, 3)
    rng = np.random.default_rng(47)
    cs, cp = random_coupling(1, system, rng, 0.1)
    cfg = SystemConfig(
        n_regular=1, system=system, coupling_scale=cs, coupling_psi=cp,
        forcings=(Forcing(amplitude=0.3, center=0.5, width=0.1),
                  Forcing(amplitude=0.2, center=0.45, width=0.1)),
        rtol=1e-11, atol=1e-13,
    )
    h = 1e-3
    run = integrate(cfg, lat, bg, _end_state(lat, rng, cfg.n_columns), 0.5 - h,
                    grid=TimeGrid(taus=[0.5 - h, 0.5, 0.5 + h]))
    assert np.array_equal(run.taus, [1.0, 0.5 + h, 0.5, 0.5 - h])
    expected = mode_rhs(cfg, lat, bg, 0.5, run.values[2], run.derivs[2])
    for series, want in zip((run.values, run.derivs), expected):
        got = (series[1] - series[3]) / (2.0 * h)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-4


def test_data_to_state_maps_match_seed(part, bg):
    lat = build_lattice(2, 3)
    rng = np.random.default_rng(43)
    cfg = SystemConfig(n_regular=2)
    data = make_asymptotic_data(lat, part, bg, O=bounded_field(lat, rng),
                                h=bounded_field(lat, rng),
                                phis=[bounded_field(lat, rng) for _ in range(2)])
    state = seed_state(cfg, lat, bg, data)
    maps = data_to_state_maps(cfg, lat, bg, cfg.tau_seed, part)
    n_cols = cfg.n_columns
    for l in range(lat.l_max + 1):
        sl = lat.slots_of_degree(l)
        for s in range(sl.start, sl.stop):
            vec = np.concatenate([
                [data.O_field.coeffs[s], data.frak_h.coeffs[s]],
                [p.coeffs[s] for p in data.phi0_fields],
            ])
            y = maps[l] @ vec
            assert np.allclose(y[:n_cols], state.values[:, s], rtol=1e-12, atol=1e-12)
            assert np.allclose(y[n_cols:], cfg.tau_seed * state.derivs[:, s],
                               rtol=1e-12, atol=1e-12)


# ------------------------------------------------------------ state objects


def test_mode_state_validation(small_lattice):
    with pytest.raises(ValueError):
        ModeState(tau=0.5, values=np.zeros((2, 3)), derivs=np.zeros((2, 4)))


def test_trajectory_helpers(part, bg, small_lattice):
    rng = np.random.default_rng(47)
    cfg = SystemConfig(n_regular=1)
    data = make_asymptotic_data(small_lattice, part, bg, O=bounded_field(small_lattice, rng),
                                h=bounded_field(small_lattice, rng),
                                phis=[bounded_field(small_lattice, rng)])
    grid = make_time_grid(cfg.tau_seed, 1.0, count=5)
    traj = integrate(cfg, small_lattice, bg, seed_state(cfg, small_lattice, bg, data),
                     1.0, grid=grid)
    assert traj.taus.shape == (5,)
    assert traj.values.shape == traj.derivs.shape == (5, 2, small_lattice.n_slots)
    st = traj.state_at(2)
    assert st.tau == pytest.approx(grid.taus[2])
    assert np.array_equal(st.values, traj.values[2])
    assert np.array_equal(st.derivs, traj.derivs[2])
