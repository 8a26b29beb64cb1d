import math

import numpy as np
import pytest

from shellwave import (
    Field,
    LPPartition,
    build_lattice,
    constant_background,
    eigenvalue_at,
    graded_sobolev_norm,
    heat_flow,
    log_grad_weights,
    log_nabla,
    lp_project,
    lp_sobolev_norm,
    make_partition,
    multiplier_values,
    r_k,
    random_field,
    refined_poincare_defect,
    check_lp_properties,
    commutator_time_pk,
    verify_refined_poincare,
)
from shellwave.lp import LOG_GRAD_ETA


# ------------------------------------------------------------ bump geometry


def test_partition_of_unity_exact(part):
    grid = np.geomspace(4.0**part.k_min, 4.0**part.k_max, 5000)
    total = np.zeros_like(grid)
    for k in part.ks:
        m = part.bump(grid * 4.0 ** (-k))
        total += m * m
    assert np.max(np.abs(total - 1.0)) <= 1e-13


def test_bump_center_and_support(part):
    assert part.bump(np.array([1.0]))[0] == pytest.approx(1.0, abs=1e-15)
    assert part.bump(np.array([0.25]))[0] == 0.0
    assert part.bump(np.array([4.0]))[0] == 0.0
    assert part.bump(np.array([0.0]))[0] == 0.0
    inside = part.bump(np.array([0.5, 2.0]))
    assert np.all(inside > 0.0) and np.all(inside < 1.0)


def test_bump_prime_matches_finite_difference(part):
    mus = np.array([0.3, 0.5, 0.9, 1.1, 2.0, 3.5])
    h = 1e-7
    fd = (part.bump(mus + h) - part.bump(mus - h)) / (2 * h)
    exact = part.bump_prime(mus)
    assert np.max(np.abs(exact - fd)) <= 1e-5 * (1.0 + np.max(np.abs(exact)))


def test_make_partition_validation():
    with pytest.raises(ValueError):
        make_partition(1, 8)
    with pytest.raises(ValueError):
        make_partition(-4, 8, smoothness=0)
    with pytest.raises(ValueError):
        make_partition(-4, 8, shift=0.7)


# ------------------------------------------------------- multiplier algebra


def test_multiplier_kind_relations(part):
    lam = np.geomspace(0.3, 4.0**10, 200)
    for k in (-2, 0, 3, 7):
        mu = lam * 4.0 ** (-k)
        plain = multiplier_values(part, "plain", k, lam)
        dot = multiplier_values(part, "dot", k, lam)
        tilde = multiplier_values(part, "tilde", k, lam)
        under = multiplier_values(part, "underline", k, lam)
        under_t = multiplier_values(part, "underline_tilde", k, lam)
        assert np.allclose(dot * mu, plain, atol=1e-14)
        assert np.allclose(under**2, plain, atol=1e-14)
        assert np.allclose(under_t**2, np.abs(tilde), atol=1e-14)
        assert np.allclose(tilde, -part.bump_prime(mu), atol=1e-15)


def test_multiplier_unknown_kind_and_cell(part):
    with pytest.raises(ValueError):
        multiplier_values(part, "bogus", 0, np.array([1.0]))
    with pytest.raises(ValueError):
        multiplier_values(part, "plain", part.k_max + 1, np.array([1.0]))


def test_staggered_families_disjoint_far_cells(part):
    other = make_partition(part.k_min, part.k_max, part.smoothness, shift=0.5)
    lam = np.geomspace(1e-3, 4.0**11, 3000)
    for k in (0, 2, 5):
        m1 = multiplier_values(part, "plain", k, lam)
        for l in part.ks:
            if abs(k - l) >= 3:
                m2 = multiplier_values(other, "plain", l, lam)
                assert np.max(np.abs(m1 * m2)) == 0.0


# ---------------------------------------------------------- flows & weights


def test_lp_project_single_mode(part, small_lattice, bg):
    # a mode at the center of its cell passes through the plain projection
    coeffs = np.zeros(small_lattice.n_slots)
    sl = small_lattice.slots_of_degree(1)  # lam0 = 2
    coeffs[sl.start] = 1.0
    f = Field(lattice=small_lattice, coeffs=coeffs)
    # f(tau)^2 = 1/2 puts lambda(tau) = 4 at the center of cell 1
    tau = math.sqrt((math.sqrt(0.5) - 0.5) / 2.0)
    proj = lp_project(part, "plain", 1, f, tau, bg)
    assert proj.coeffs[sl.start] == pytest.approx(1.0, abs=1e-12)
    far = lp_project(part, "plain", 5, f, tau, bg)
    assert far.coeffs[sl.start] == 0.0


def test_heat_flow_halving(small_lattice):
    cb = constant_background(1.0)
    coeffs = np.zeros(small_lattice.n_slots)
    sl = small_lattice.slots_of_degree(1)  # lam0 = 2 everywhere on the block
    coeffs[sl.start] = 1.0
    f = Field(lattice=small_lattice, coeffs=coeffs)
    z = math.log(2.0) / 2.0
    out = heat_flow(f, z, 0.5, cb)
    assert out.coeffs[sl.start] == pytest.approx(0.5, rel=1e-14)
    # semigroup property
    two = heat_flow(heat_flow(f, z, 0.5, cb), z, 0.5, cb)
    direct = heat_flow(f, 2 * z, 0.5, cb)
    assert np.allclose(two.coeffs, direct.coeffs, atol=1e-15)
    with pytest.raises(ValueError):
        heat_flow(f, -0.1, 0.5, cb)


def test_log_grad_weights_centers(part):
    # a mode at the center of cell k sees exactly k log 2
    for k in (0, 1, 4, 9):
        val = log_grad_weights(part, np.array([4.0**k]))[0]
        assert val == pytest.approx(k * math.log(2.0), abs=1e-12)
    # zero frequency and deep-subunit frequencies see nothing
    assert log_grad_weights(part, np.array([0.0]))[0] == 0.0
    assert log_grad_weights(part, np.array([4.0**-5]))[0] == 0.0


def test_log_nabla_zero_mode(part, small_lattice, bg):
    coeffs = np.ones(small_lattice.n_slots)
    f = Field(lattice=small_lattice, coeffs=coeffs)
    out = log_nabla(part, f, 0.5, bg)
    assert np.all(out.coeffs[small_lattice.slots_of_degree(0)] == 0.0)


def test_r_k_center_cancellation(part, small_lattice, bg):
    coeffs = np.zeros(small_lattice.n_slots)
    sl = small_lattice.slots_of_degree(1)
    coeffs[sl.start] = 1.0
    f = Field(lattice=small_lattice, coeffs=coeffs)
    tau = math.sqrt((math.sqrt(0.5) - 0.5) / 2.0)  # lambda(tau) = 4 = center of cell 1
    out = r_k(part, 1, f, tau, bg)
    assert abs(out.coeffs[sl.start]) <= 1e-12


# -------------------------------------------------------------- shell norms


def test_lp_sobolev_norm_range(part, small_lattice, bg):
    rng = np.random.default_rng(0)
    f = Field(lattice=small_lattice, coeffs=rng.standard_normal(small_lattice.n_slots))
    with pytest.raises(ValueError):
        lp_sobolev_norm(part, f, 4.0, 0.5, bg)
    with pytest.raises(ValueError):
        lp_sobolev_norm(part, f, -0.5, 0.5, bg)


def test_lp_sobolev_norm_equivalence(part, bg):
    # shell norm and spectral norm agree up to cell-width factors, stably
    lat = build_lattice(2, 24)
    rng = np.random.default_rng(1)
    for a in (1.0, 2.0, 3.5):
        ratios = []
        for _ in range(10):
            c = rng.standard_normal(lat.n_slots)
            f = Field(lattice=lat, coeffs=c)
            lam = eigenvalue_at(bg, lat.lam0_slot, 0.5)
            spectral = math.sqrt(float(np.dot(1.0 + lam**a, c * c)))
            ratios.append(lp_sobolev_norm(part, f, a, 0.5, bg) / spectral)
        ratios = np.array(ratios)
        assert np.all(ratios > 4.0 ** (-a))
        assert np.all(ratios < 4.0**a)
        assert ratios.max() / ratios.min() < 2.0


def test_lp_norm_dominates_l2(part, small_lattice, bg):
    rng = np.random.default_rng(2)
    f = Field(lattice=small_lattice, coeffs=rng.standard_normal(small_lattice.n_slots))
    assert lp_sobolev_norm(part, f, 1.0, 0.5, bg) >= f.l2_norm()


# -------------------------------------------------------------- commutators


def test_commutator_constant_background(part, small_lattice):
    cb = constant_background(1.5)
    rng = np.random.default_rng(3)
    f = Field(lattice=small_lattice, coeffs=rng.standard_normal(small_lattice.n_slots))
    out = commutator_time_pk(part, 2, f, 0.4, cb)
    assert np.all(out.coeffs == 0.0)


def test_commutator_e4_degenerates_at_zero(part, small_lattice, bg):
    f = Field(lattice=small_lattice, coeffs=np.ones(small_lattice.n_slots))
    with pytest.raises(ValueError):
        commutator_time_pk(part, 1, f, 0.0, bg, time_vector="e4")
    with pytest.raises(ValueError):
        commutator_time_pk(part, 1, f, 0.5, bg, time_vector="sideways")


def test_commutator_uniform_bound(part, bg):
    # |[e4, P_k]F| <= kappa(tau) sup_mu mu |M'(mu)| |F| for every k at once
    lat = build_lattice(2, 20)
    rng = np.random.default_rng(4)
    tau = 0.5
    sup_grid = np.geomspace(0.25, 4.0, 4001)
    bound = bg.kappa(tau) * float(np.max(sup_grid * np.abs(part.bump_prime(sup_grid))))
    for _ in range(5):
        f = Field(lattice=lat, coeffs=rng.standard_normal(lat.n_slots))
        for k in (-1, 0, 3, 8):
            out = commutator_time_pk(part, k, f, tau, bg, time_vector="e4")
            assert out.l2_norm() <= bound * f.l2_norm() * (1.0 + 1e-9)


# ---------------------------------------------------------- inequality suite


def test_refined_poincare_defect_edge_cases(part, small_lattice, bg):
    z = Field(lattice=small_lattice, coeffs=np.zeros(small_lattice.n_slots))
    assert refined_poincare_defect(part, 3, 1.0, z, 0.5, bg) == 0.0
    f = Field(lattice=small_lattice, coeffs=np.ones(small_lattice.n_slots))
    with pytest.raises(ValueError):
        refined_poincare_defect(part, 3, 0.0, f, 0.5, bg)
    with pytest.raises(ValueError):
        refined_poincare_defect(part, 3, (1.0, -1.0), f, 0.5, bg)
    with pytest.raises(ValueError):
        refined_poincare_defect(part, part.k_max + 2, 1.0, f, 0.5, bg)


def test_refined_poincare_defect_finite(part, bg):
    lat = build_lattice(2, 24)
    rng = np.random.default_rng(5)
    f = Field(lattice=lat, coeffs=rng.standard_normal(lat.n_slots))
    for k in (1, 3, 6):
        for delta in (0.1, 1.0, 10.0):
            val = refined_poincare_defect(part, k, delta, f, 0.5, bg)
            assert np.isfinite(val) and val >= 0.0


def test_check_lp_properties_all_pass(part, bg):
    lat = build_lattice(2, 24)
    rep = check_lp_properties(part, lat, bg, tau=0.5, n_fields=16, seed=0)
    names = [c.name for c in rep.checks]
    assert names == [
        "partition_of_unity",
        "bessel_constant",
        "finite_band",
        "almost_orthogonality",
        "log_grad_bound",
        "commutator_bound",
    ]
    for c in rep.checks:
        assert c.passed, f"{c.name}: {c.constant} vs {c.threshold}"
    assert rep.all_passed
    assert rep.meta["eta"] == LOG_GRAD_ETA
    assert rep["finite_band"].name == "finite_band"
    with pytest.raises(KeyError):
        rep["nope"]


def test_check_lp_properties_json_roundtrip(part, bg):
    import json

    lat = build_lattice(2, 12)
    rep = check_lp_properties(part, lat, bg, tau=0.5, n_fields=4, seed=1)
    payload = json.loads(rep.to_json())
    assert payload["all_passed"] == rep.all_passed
    assert len(payload["checks"]) == 6


def test_verify_refined_poincare_small(part, bg):
    rep = verify_refined_poincare(
        part, bg, resolutions=(8, 16), deltas=(0.1, 1.0), n_fields=40, seed=0
    )
    assert rep.passed
    assert len(rep.constants) == 2
    assert len(rep.constants[0]) == 2
    for row in rep.drift_factors:
        for d in row:
            assert d < 2.0


@pytest.mark.parametrize("resolutions", [(8,), ()])
def test_verify_refined_poincare_needs_two_resolutions(part, bg, resolutions):
    with pytest.raises(ValueError, match="two resolutions"):
        verify_refined_poincare(part, bg, resolutions=resolutions, n_fields=4)


# ------------------------------------------- golden pins and negative controls

# constants at l_max 24, 16 fields, tau 0.5, seed 0 and at resolutions 8/16,
# 40 fields, seed 0, recorded before the shell sums ran on the degree axis
GOLDEN_LP_PROPS = {
    "finite_band": 0.7178127445970586,
    "almost_orthogonality": 7.579250662516074,
    "log_grad_bound": 1.7388626164294503,
    "commutator_bound": 4.218733209693327,
}
GOLDEN_LP_ROUNDOFF = {"partition_of_unity": 1.1102230246251565e-15,
                      "bessel_constant": 2.220446049250313e-16}
GOLDEN_POINCARE = ((0.13524860008776493, 0.13520125614621442),
                   (1.3451115056221443, 1.3455338045389018),
                   (9.873195385804921, 9.9145960881033))


def test_check_lp_properties_golden(part, bg):
    rep = check_lp_properties(part, build_lattice(2, 24), bg, tau=0.5, n_fields=16, seed=0)
    for name, want in GOLDEN_LP_PROPS.items():
        np.testing.assert_allclose(rep[name].constant, want, rtol=1e-12, atol=0.0)
    for name, want in GOLDEN_LP_ROUNDOFF.items():
        np.testing.assert_allclose(rep[name].constant, want, rtol=0.0, atol=1e-14)


def test_verify_refined_poincare_golden(part, bg):
    rep = verify_refined_poincare(part, bg, resolutions=(8, 16), deltas=(0.1, 1.0, 10.0),
                                  n_fields=40, seed=0)
    np.testing.assert_allclose(rep.constants, GOLDEN_POINCARE, rtol=1e-12, atol=0.0)


def test_lp_props_fail_with_perturbed_bump(part, bg, monkeypatch):
    # a bump 1e-6 too tall breaks the partition of unity and the shell sums
    bump = LPPartition.bump
    monkeypatch.setattr(LPPartition, "bump", lambda self, mu: bump(self, mu) * (1.0 + 1e-6))
    rep = check_lp_properties(part, build_lattice(2, 24), bg, tau=0.5, n_fields=16, seed=0)
    assert not rep.all_passed
    assert not rep["partition_of_unity"].passed
    assert not rep["bessel_constant"].passed


# ------------------------------------------------ slot-level oracles

def _shell_sq(part, k, f, tau, bg):
    return lp_project(part, "plain", k, f, tau, bg).l2_norm() ** 2


def _grad_sq(part, k, f, tau, bg):
    return graded_sobolev_norm(lp_project(part, "plain", k, f, tau, bg), 1, 0.0, tau, bg) ** 2


def test_refined_poincare_defect_matches_slot_sum(part, bg):
    lat = build_lattice(2, 20)
    rng = np.random.default_rng(41)
    for _ in range(6):
        f = random_field(lat, rng, decay=float(rng.uniform(0.0, 2.0)))
        tau = float(rng.uniform(0.05, 1.0))
        for k in (-2, 0, 1, 3, 6):
            deltas = (0.1, 1.0, 10.0)
            wants = []
            for delta in deltas:
                rhs = (_grad_sq(part, k, f, tau, bg) / (delta * 4.0**k)
                       + delta * sum(2.0 ** (-9 * k + 7 * l) * _grad_sq(part, l, f, tau, bg)
                                     for l in range(0, k))
                       + f.l2_norm() ** 2 / (delta * 16.0**k))
                wants.append(_shell_sq(part, k, f, tau, bg) / rhs)
                got = refined_poincare_defect(part, k, delta, f, tau, bg)
                assert isinstance(got, float)
                assert got == pytest.approx(wants[-1], rel=1e-13, abs=0.0)
            # a sequence of deltas gives one constant per delta
            got = refined_poincare_defect(part, k, deltas, f, tau, bg)
            np.testing.assert_allclose(got, wants, rtol=1e-13, atol=0.0)


def test_lp_sobolev_norm_matches_slot_sum(part, bg):
    lat = build_lattice(3, 12)
    rng = np.random.default_rng(43)
    for _ in range(6):
        f = random_field(lat, rng, decay=float(rng.uniform(0.0, 2.0)))
        tau = float(rng.uniform(0.05, 1.0))
        for a in (0.0, 1.0, 2.5, 3.9):
            want = math.sqrt(f.l2_norm() ** 2 + sum(4.0 ** (a * k) * _shell_sq(part, k, f, tau, bg)
                                                    for k in part.ks))
            assert lp_sobolev_norm(part, f, a, tau, bg) == pytest.approx(want, rel=1e-13, abs=0.0)
