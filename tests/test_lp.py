import math

import numpy as np
import pytest

from shellwave import (
    Field,
    LPPartition,
    build_lattice,
    constant_background,
    eigenvalue_at,
    eigenvalue_rate,
    log_grad_weights,
    make_partition,
    random_field,
    refined_poincare_defect,
    check_lp_properties,
    verify_refined_poincare,
)
from shellwave import lp
from shellwave.lp import LOG_GRAD_ETA, _coverage_mask, _shell_table
from tests.oracles import graded_sobolev_norm, shell_project, slot_lam0


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


def test_direct_construction_is_the_make_partition_path():
    # the constructor validates its fields and derives the smoothstep itself,
    # so a directly built partition evaluates, with make_partition's bits
    direct, made = LPPartition(k_min=-2, k_max=2, smoothness=3), make_partition(-2, 2, 3)
    mu = np.geomspace(0.1, 10.0, 101)
    assert np.array_equal(direct.bump(mu), made.bump(mu))
    assert np.array_equal(direct.bump_prime(mu), made.bump_prime(mu))
    with pytest.raises(ValueError, match="k_min < 0 < k_max"):
        LPPartition(k_min=3, k_max=-3, smoothness=0, shift=9.0)


# ------------------------------------------------------- multiplier algebra


def test_multiplier_kind_relations(part):
    # the two multiplier kinds every reduction reads, the bump M and its
    # derivative M', are the shell table's rows bit for bit
    lam = np.geomspace(0.3, 4.0**10, 200)
    plain, prime = _shell_table(part, lam), _shell_table(part, lam, prime=True)
    for k in (-2, 0, 3, 7):
        mu = lam * 4.0 ** (-k)
        assert np.array_equal(plain[k - part.k_min], part.bump(mu))
        assert np.array_equal(prime[k - part.k_min], part.bump_prime(mu))


def test_staggered_families_disjoint_far_cells(part):
    other = make_partition(part.k_min, part.k_max, part.smoothness, shift=0.5)
    lam = np.geomspace(1e-3, 4.0**11, 3000)
    for k in (0, 2, 5):
        m1 = part.bump(lam * 4.0 ** (-k))
        for l in part.ks:
            if abs(k - l) >= 3:
                m2 = other.bump(lam * 4.0 ** (-l))
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
    proj = shell_project(part, 1, f, tau, bg)
    assert proj.coeffs[sl.start] == pytest.approx(1.0, abs=1e-12)
    far = shell_project(part, 5, f, tau, bg)
    assert far.coeffs[sl.start] == 0.0


def test_log_grad_weights_centers(part):
    # a mode at the center of cell k sees exactly k log 2
    for k in (0, 1, 4, 9):
        val = log_grad_weights(part, np.array([4.0**k]))[0]
        assert val == pytest.approx(k * math.log(2.0), abs=1e-12)
    # zero frequency and deep-subunit frequencies see nothing
    assert log_grad_weights(part, np.array([0.0]))[0] == 0.0
    assert log_grad_weights(part, np.array([4.0**-5]))[0] == 0.0


def test_log_nabla_zero_mode(part, small_lattice, bg):
    # the log-derivative weights kill the constant mode on every slice
    lam0 = slot_lam0(small_lattice)
    ell = log_grad_weights(part, eigenvalue_at(bg, lam0, 0.5))
    assert np.all(ell[small_lattice.slots_of_degree(0)] == 0.0)


def test_r_k_center_cancellation(part, small_lattice, bg):
    # the cross term r_k = 2 M(lambda 4^-k) (ell(lambda) - log 2^k) vanishes on
    # a lattice mode at the center of cell k: there M = 1 and ell = log 2^k
    sl = small_lattice.slots_of_degree(1)
    tau = math.sqrt((math.sqrt(0.5) - 0.5) / 2.0)  # lambda(tau) = 4 = center of cell 1
    lam = eigenvalue_at(bg, slot_lam0(small_lattice)[sl], tau)
    cross = 2.0 * part.bump(lam / 4.0) * (log_grad_weights(part, lam) - math.log(2.0))
    assert np.max(np.abs(cross)) <= 1e-12


# -------------------------------------------------------------- commutators


def test_commutator_constant_background(part):
    # a frozen profile moves no eigenvalue, so the time commutator is 0
    cb = constant_background(1.5)
    rep = check_lp_properties(part, build_lattice(2, 20), cb, tau=0.4, n_fields=8, seed=3)
    comm = rep.checks["commutator_bound"]
    assert comm.constant == 0.0 and comm.threshold == 0.0 and comm.passed


def test_commutator_uniform_bound(part, bg):
    # |[e4, P_k]F| <= kappa(tau) sup_mu mu |M'(mu)| |F| for every k at once;
    # the suite's corpus constant is the worst ratio of the slot-level
    # commutator -M'(mu) 4^-k (dlambda/dtau) / (2 tau) over its fields and cells
    lat = build_lattice(2, 20)
    tau, seed, n_fields = 0.5, 4, 5
    sup_grid = np.geomspace(0.25, 4.0, 4001)
    bound = bg.kappa(tau) * float(np.max(sup_grid * np.abs(part.bump_prime(sup_grid))))
    lam = eigenvalue_at(bg, slot_lam0(lat), tau)
    rate = eigenvalue_rate(bg, slot_lam0(lat), tau)
    covered = np.repeat(_coverage_mask(part, eigenvalue_at(bg, lat.lam0, tau)), lat.mult)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_fields):
        c = np.where(covered, random_field(lat, rng, decay=1.0).coeffs, 0.0)
        for k in part.ks:
            comm = -part.bump_prime(lam * 4.0 ** (-k)) * 4.0 ** (-k) * rate / (2.0 * tau) * c
            ratio = np.linalg.norm(comm) / np.linalg.norm(c)
            assert ratio <= bound * (1.0 + 1e-9)
            worst = max(worst, ratio)
    rep = check_lp_properties(part, lat, bg, tau=tau, n_fields=n_fields, seed=seed)
    assert rep.checks["commutator_bound"].constant == pytest.approx(worst, rel=1e-12, abs=0.0)


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
    assert list(rep.checks) == [
        "partition_of_unity",
        "bessel_constant",
        "finite_band",
        "almost_orthogonality",
        "log_grad_bound",
        "commutator_bound",
    ]
    for name, c in rep.checks.items():
        assert c.passed, f"{name}: {c.constant} vs {c.threshold}"
    assert rep.passed
    assert rep.meta["eta"] == LOG_GRAD_ETA


def test_check_lp_properties_rejects_an_empty_corpus(part, bg):
    # no field means no corpus constant: the suite raises rather than pass
    lat = build_lattice(2, 12)
    with pytest.raises(ValueError, match="none of the 0 corpus fields"):
        check_lp_properties(part, lat, bg, tau=0.5, n_fields=0)
    assert check_lp_properties(part, lat, bg, tau=0.5, n_fields=1).meta["n_fields"] == 1


@pytest.mark.parametrize("tau", [0.0, -0.5])
def test_check_lp_properties_rejects_a_non_positive_tau(part, bg, tau):
    # the commutator carries 1 / tau; at tau = 0 it once read 0 and passed
    with pytest.raises(ValueError, match="tau must be positive"):
        check_lp_properties(part, build_lattice(2, 12), bg, tau=tau, n_fields=8)


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


@pytest.mark.parametrize("resolutions", [(8, 8), (16, 8), (8, 16, 16)])
def test_verify_refined_poincare_needs_increasing_resolutions(part, bg, resolutions):
    # a repeated lattice has drift factor exactly 1, which says nothing
    with pytest.raises(ValueError, match="resolutions must strictly increase"):
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
    checks = rep.checks
    for name, want in GOLDEN_LP_PROPS.items():
        np.testing.assert_allclose(checks[name].constant, want, rtol=1e-12, atol=0.0)
    for name, want in GOLDEN_LP_ROUNDOFF.items():
        np.testing.assert_allclose(checks[name].constant, want, rtol=0.0, atol=1e-14)


def test_verify_refined_poincare_golden(part, bg):
    rep = verify_refined_poincare(part, bg, resolutions=(8, 16), deltas=(0.1, 1.0, 10.0),
                                  n_fields=40, seed=0)
    np.testing.assert_allclose(rep.constants, GOLDEN_POINCARE, rtol=1e-12, atol=0.0)


def test_lp_props_fail_with_perturbed_bump(part, bg, monkeypatch):
    # a bump 1e-6 too tall breaks the partition of unity and the shell sums
    bump = LPPartition.bump
    monkeypatch.setattr(LPPartition, "bump", lambda self, mu: bump(self, mu) * (1.0 + 1e-6))
    rep = check_lp_properties(part, build_lattice(2, 24), bg, tau=0.5, n_fields=16, seed=0)
    assert not rep.passed
    assert not rep.checks["partition_of_unity"].passed
    assert not rep.checks["bessel_constant"].passed


@pytest.mark.parametrize("shift", [-0.5, 0.0, 0.25, 0.5])
def test_log_grad_weights_obey_the_closed_form_bound(shift):
    # the squared bumps at lambda sum to at most 1 over cells k below
    # log_4 lambda - shift + 1, so ell <= max(0, log(lambda) / 2 + (1 - shift) log 2)
    part = make_partition(-8, 12, 3, shift=shift)
    lam = np.concatenate([[0.0], np.geomspace(1e-6, 4.0**14, 20001)])
    bound = np.maximum(0.0, 0.5 * np.log(np.maximum(lam, 1e-300)) + (1.0 - shift) * math.log(2.0))
    assert np.all(log_grad_weights(part, lam) <= bound * (1.0 + 1e-12))


def _log_grad_k_cubed(part, lam):
    """ell with k^3 in place of k log 2."""
    lam = np.asarray(lam, dtype=float)
    return sum(part.bump(lam * 4.0 ** (-k)) ** 2 * float(k) ** 3
               for k in range(max(0, part.k_min), part.k_max + 1))


@pytest.mark.parametrize("mutant", [lambda part, lam: 1000.0 * log_grad_weights(part, lam),
                                    _log_grad_k_cubed], ids=["times_1000", "k_cubed"])
def test_log_grad_bound_fails_with_perturbed_weights(part, bg, monkeypatch, mutant):
    # negative control: the threshold is the closed-form bound, not the max of
    # the same ratio over the lattice, so a wrong ell fails the check; the
    # threshold is 2.947 here, the mutants read about 1860 and 48
    monkeypatch.setattr(lp, "log_grad_weights", mutant)
    rep = check_lp_properties(part, build_lattice(2, 32), bg, tau=0.5, n_fields=32, seed=0)
    check = rep.checks["log_grad_bound"]
    assert check.threshold == pytest.approx(2.94697651305725, rel=1e-9)
    assert not check.passed and not rep.passed


# ------------------------------------------------ slot-level oracles

def _shell_sq(part, k, f, tau, bg):
    return float(np.sum(shell_project(part, k, f, tau, bg).coeffs ** 2))


def _grad_sq(part, k, f, tau, bg):
    return graded_sobolev_norm(shell_project(part, k, f, tau, bg), 1, 0.0, tau, bg) ** 2


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
                       + float(np.sum(f.coeffs**2)) / (delta * 16.0**k))
                wants.append(_shell_sq(part, k, f, tau, bg) / rhs)
                got = refined_poincare_defect(part, k, delta, f, tau, bg)
                assert isinstance(got, float)
                assert got == pytest.approx(wants[-1], rel=1e-13, abs=0.0)
            # a sequence of deltas gives one constant per delta
            got = refined_poincare_defect(part, k, deltas, f, tau, bg)
            np.testing.assert_allclose(got, wants, rtol=1e-13, atol=0.0)

