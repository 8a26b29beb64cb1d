import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellwave import (
    ConformalBackground,
    Field,
    build_lattice,
    constant_background,
    desitter_background,
    eigenvalue_at,
    eigenvalue_rate,
    make_time_grid,
    random_field,
    sphere_eigenvalue,
    sphere_multiplicity,
)
from shellwave.modelsys import _psi_at, _series_inv
from tests.oracles import graded_sobolev_norm, slot_lam0


def sobolev_norm(field, s, tau, bg):
    """The fractional norm sqrt(sum (1 + lambda(tau))^s c^2): no derivative order."""
    return graded_sobolev_norm(field, 0, s, tau, bg)


# ------------------------------------------------------------ frozen values


def test_eigenvalue_frozen():
    assert sphere_eigenvalue(2, 0) == 0.0
    assert sphere_eigenvalue(2, 1) == 2.0
    assert sphere_eigenvalue(2, 3) == 12.0
    assert sphere_eigenvalue(3, 2) == 8.0
    assert sphere_eigenvalue(3, 4) == 24.0
    assert sphere_eigenvalue(1, 7) == 49.0


def test_multiplicity_frozen():
    # circle: one constant, two modes per nonzero degree
    assert sphere_multiplicity(1, 0) == 1
    assert sphere_multiplicity(1, 5) == 2
    # 2-sphere: 2l + 1
    assert sphere_multiplicity(2, 0) == 1
    assert sphere_multiplicity(2, 1) == 3
    assert sphere_multiplicity(2, 3) == 7
    assert sphere_multiplicity(2, 10) == 21
    # 3-sphere: (l + 1)^2
    assert sphere_multiplicity(3, 2) == 9
    assert sphere_multiplicity(3, 3) == 16


def test_multiplicity_dimension_identity():
    # summing multiplicities gives the dimension of harmonics of degree <= L,
    # which is C(n+L, n) + C(n+L-1, n)
    for n in (1, 2, 3, 4):
        for L in (0, 1, 2, 5, 9):
            total = sum(sphere_multiplicity(n, l) for l in range(L + 1))
            expect = math.comb(n + L, n) + math.comb(n + L - 1, n)
            assert total == expect


def test_multiplicity_validation():
    with pytest.raises(ValueError):
        sphere_multiplicity(2, -1)


# --------------------------------------------------------------- the lattice


def test_lattice_layout():
    lat = build_lattice(2, 4)
    assert lat.lam0.tolist() == [0.0, 2.0, 6.0, 12.0, 20.0]
    assert lat.n_slots == sum(sphere_multiplicity(2, l) for l in range(5))
    assert lat.n_slots == 25
    # slots of a degree form one contiguous block with the right eigenvalue
    sl = lat.slots_of_degree(3)
    assert sl.stop - sl.start == 7
    assert np.all(slot_lam0(lat)[sl] == 12.0)
    assert lat.offsets.tolist() == [0, 1, 4, 9, 16, 25]


def test_lattice_modes_iteration():
    # the per-degree arrays hold each degree's (eigenvalue, multiplicity)
    lat = build_lattice(3, 2)
    seen = list(zip(lat.lam0.tolist(), lat.mult.tolist()))
    assert len(seen) == 3
    assert seen[0] == (0.0, 1)
    assert seen[2] == (2.0 * 4.0, 9)


def test_lattice_validation():
    with pytest.raises(ValueError):
        build_lattice(0, 4)
    with pytest.raises(ValueError):
        build_lattice(2, -1)


# ------------------------------------------------------------- backgrounds


def test_desitter_frozen_values(bg):
    assert bg.f(0.0) == 0.5
    assert bg.f(1.0) == 2.5
    assert bg.f_prime_over_tau(0.0) == 4.0
    assert bg.f_prime_over_tau(0.7) == 4.0
    assert bg.kappa(0.0) == 8.0
    assert bg.kappa(1.0) == pytest.approx(1.6, rel=1e-15)


def test_desitter_psi_weights(bg):
    # the coupling profiles (1, kappa, tau^2 kappa) the log-chart RHS reads
    w0, w1, w2 = _psi_at(bg, 0.5, bg.f(0.5))
    assert w0 == 1.0
    assert w1 == pytest.approx(bg.kappa(0.5), rel=1e-15)
    assert w2 == pytest.approx(0.25 * bg.kappa(0.5), rel=1e-15)


def test_constant_background_flat():
    cb = constant_background(2.0)
    for tau in (0.0, 0.3, 1.0):
        assert cb.f(tau) == 2.0
        assert cb.kappa(tau) == 0.0
        assert cb.f_prime(tau) == 0.0


def test_background_validation():
    with pytest.raises(ValueError):
        constant_background(0.0)


@pytest.mark.parametrize("f_even", [(0.5, -1.0), (0.5, -0.5), (1.0, -4.0, 4.0)],
                         ids=["inside", "at_one", "touching"])
def test_background_rejects_f_vanishing_on_the_interval(f_even):
    # lambda = lam0 / f^2 is infinite where f = 0: 0.5 - tau^2 vanishes at
    # tau = 0.71, 0.5 - 0.5 tau^2 at tau = 1, where a solve only crawls, and
    # (1 - 2 tau^2)^2 touches 0 at its interior minimum, tau = 0.71
    with pytest.raises(ValueError, match=r"f must stay positive on \[0, 1\]"):
        ConformalBackground(name="vanishing", f_even=f_even)
    assert desitter_background().f_even == (0.5, 2.0)
    assert constant_background(1.3).f_even == (1.3,)


def test_background_minimum_is_exact():
    # found once from the ends and the real critical points of f in u = tau^2;
    # 1 - tau^2 + tau^4 dips to 0.75 at tau = sqrt(0.5), between the 257
    # samples the frequency check used to read
    dip = ConformalBackground(name="dip", f_even=(1.0, -1.0, 1.0))
    assert dip.f_min == 0.75
    assert np.min(dip.f(np.linspace(0.0, 1.0, 257))) > 0.75
    assert desitter_background().f_min == 0.5
    assert constant_background(1.3).f_min == 1.3


_PROFILES = [desitter_background(), constant_background(1.5),
             ConformalBackground(name="three", f_even=(0.5, 2.0, -0.3))]
_FLOAT_TAUS = [0.0, 1e-7, 0.3, 1.0] + [
    float(t) for t in np.random.default_rng(11).uniform(0.0, 1.0, 16)]


@pytest.mark.parametrize("profile", _PROFILES, ids=lambda p: p.name)
def test_background_on_a_float_matches_the_array_path(profile):
    # the log-chart RHS relies on this: a float in, a float out, same bits
    for tau in _FLOAT_TAUS:
        arr = np.asarray(tau)
        for name in ("f", "f_prime_over_tau", "kappa", "f_prime"):
            on_float = getattr(profile, name)(tau)
            on_array = getattr(profile, name)(arr)
            assert type(on_float) is float, name
            assert on_float.hex() == float(on_array).hex(), (name, tau)
        on_float, on_array = eigenvalue_at(profile, 6.0, tau), eigenvalue_at(profile, 6.0, arr)
        assert isinstance(on_float, float)
        assert float(on_float).hex() == float(on_array).hex()


@pytest.mark.parametrize("profile", _PROFILES, ids=lambda p: p.name)
def test_background_array_path_is_horner(profile):
    taus = np.array(_FLOAT_TAUS)
    u = taus * taus
    f = np.zeros_like(u)
    for c in reversed(profile.f_even):
        f = f * u + np.float64(c)
    fpt = np.zeros_like(u)
    for j in range(len(profile.f_even) - 1, 0, -1):
        fpt = fpt * u + np.float64(2 * j * profile.f_even[j])
    assert np.array_equal(profile.f(taus), f)
    assert np.array_equal(profile.f_prime_over_tau(taus), fpt)
    assert np.array_equal(profile.kappa(taus), fpt / f)
    assert np.array_equal(profile.f_prime(taus), fpt * taus)


def test_eigenvalue_at_frozen(bg):
    # f(0) = 1/2 quadruples every eigenvalue at the singular end
    assert eigenvalue_at(bg, 8.0, 0.0) == 32.0
    assert eigenvalue_at(bg, 8.0, 1.0) == pytest.approx(8.0 / 6.25, rel=1e-15)


def test_eigenvalue_rate_matches_derivative(bg):
    lam0 = 12.0
    for tau in (0.2, 0.5, 0.9):
        h = 1e-6
        fd = (eigenvalue_at(bg, lam0, tau + h) - eigenvalue_at(bg, lam0, tau - h)) / (2 * h)
        assert eigenvalue_rate(bg, lam0, tau) == pytest.approx(fd, rel=1e-8)


def test_inverse_f_squared_series(bg):
    # 1/f(tau)^2 = 4 - 32 tau^2 + 192 tau^4 - ... for f = 1/2 + 2 tau^2
    coeffs = _series_inv(np.convolve(bg.f_even, bg.f_even), 6)
    assert coeffs[0] == pytest.approx(4.0)
    assert coeffs[1] == pytest.approx(-32.0)
    assert coeffs[2] == pytest.approx(192.0)
    tau = 0.05
    val = sum(c * tau ** (2 * i) for i, c in enumerate(coeffs))
    assert val == pytest.approx(1.0 / bg.f(tau) ** 2, abs=1e-10)


# ------------------------------------------------------------------- fields


def test_field_shape_validation(small_lattice):
    with pytest.raises(ValueError):
        Field(lattice=small_lattice, coeffs=np.zeros(3))


def test_random_field_decay(small_lattice):
    rng = np.random.default_rng(1)
    f = random_field(small_lattice, rng, decay=8.0)
    lo = np.sqrt(np.mean(f.coeffs[small_lattice.slots_of_degree(1)] ** 2))
    hi = np.sqrt(np.mean(f.coeffs[small_lattice.slots_of_degree(6)] ** 2))
    assert hi < lo


@pytest.mark.parametrize("n, l_maxes", [(2, (4, 33, 128)), (4, (4, 17, 32)), (6, (4, 12))])
@pytest.mark.parametrize("decay", [1.0, 3.0, 7.0])
def test_damping_equals_per_slot_power(n, l_maxes, decay):
    # raised once per degree and repeated, it keeps the per-slot pow's bits
    for l_max in l_maxes:
        lat = build_lattice(n, l_max)
        want = (1.0 + slot_lam0(lat)) ** (-0.5 * decay)
        assert np.array_equal(lat.damping(decay), want), l_max


def test_sobolev_norm_hand_value(small_lattice, bg):
    coeffs = np.zeros(small_lattice.n_slots)
    sl = small_lattice.slots_of_degree(2)  # lam0 = 6
    coeffs[sl.start] = 3.0
    f = Field(lattice=small_lattice, coeffs=coeffs)
    # at tau = 0 the weight is (1 + 4*lam0)^s since f(0) = 1/2
    assert sobolev_norm(f, 1.0, 0.0, bg) == pytest.approx(3.0 * 5.0, rel=1e-14)
    assert sobolev_norm(f, 0.0, 0.0, bg) == pytest.approx(3.0, rel=1e-14)
    assert sobolev_norm(f, 0.5, 0.0, bg) == pytest.approx(3.0 * 5.0**0.5, rel=1e-14)


def test_graded_norm_hand_value(small_lattice, bg):
    coeffs = np.zeros(small_lattice.n_slots)
    sl = small_lattice.slots_of_degree(1)  # lam0 = 2, lambda(0) = 8
    coeffs[sl.start] = 2.0
    f = Field(lattice=small_lattice, coeffs=coeffs)
    # weight lambda^m (1 + lambda)^s
    expect = 2.0 * 8.0 ** (1.5 / 2.0) * 9.0 ** (0.25)
    assert graded_sobolev_norm(f, 1.5, 0.5, 0.0, bg) == pytest.approx(expect, rel=1e-13)


@settings(max_examples=25, deadline=None)
@given(
    # tiny scales underflow inside the squared sums; that is float reality,
    # not a property violation
    scale=st.floats(-3.0, 3.0).filter(lambda s: s == 0.0 or abs(s) > 1e-100),
    seed=st.integers(0, 50),
)
def test_norm_homogeneity(scale, seed):
    lat = build_lattice(2, 4)
    bg = desitter_background()
    rng = np.random.default_rng(seed)
    f = random_field(lat, rng)
    scaled = Field(lattice=lat, coeffs=scale * f.coeffs)
    assert sobolev_norm(scaled, 1.5, 0.5, bg) == pytest.approx(
        abs(scale) * sobolev_norm(f, 1.5, 0.5, bg), rel=1e-12, abs=1e-300
    )


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 50))
def test_norm_triangle(seed):
    lat = build_lattice(2, 4)
    bg = desitter_background()
    rng = np.random.default_rng(seed)
    a = random_field(lat, rng)
    b = random_field(lat, rng)
    lhs = sobolev_norm(Field(lattice=lat, coeffs=a.coeffs + b.coeffs), 2.0, 0.5, bg)
    assert lhs <= sobolev_norm(a, 2.0, 0.5, bg) + sobolev_norm(b, 2.0, 0.5, bg) + 1e-12


# ---------------------------------------------------------------- time grid


def test_time_grid_geometric():
    g = make_time_grid(1e-4, 1.0, count=5)
    assert g[0] == 1e-4
    assert g[-1] == 1.0
    ratios = g[1:] / g[:-1]
    assert np.allclose(ratios, ratios[0])


def test_time_grid_validation():
    with pytest.raises(ValueError):
        make_time_grid(0.0, 1.0, count=5)
    with pytest.raises(ValueError):
        make_time_grid(0.5, 0.5, count=5)
    with pytest.raises(ValueError):
        make_time_grid(1e-3, 1.0, count=1)
