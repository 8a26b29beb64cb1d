import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellwave import gronwall
from shellwave import (
    GronwallInstance,
    discrete_gronwall_bound,
    discrete_recursion,
    gronwall_like_bound,
    make_preset_instance,
    random_instance,
    saturate_recursion,
    verify_gronwall_lemma,
)
from tests.oracles import majorant_full

# ------------------------------------------------------------ discrete form


def test_discrete_frozen_values():
    b = np.array([1.0, 0.0, 0.0])
    c = np.array([1.0, 1.0, 7.0])  # c[2] multiplies nothing below level 3
    assert np.allclose(discrete_recursion(b, c), [1.0, 1.0, 2.0])
    assert np.allclose(discrete_gronwall_bound(b, c), [1.0, 1.0, 2.0])


def test_discrete_closed_equals_recursion_sampled():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        b = 10.0 ** rng.uniform(-2, 2, size=n)
        c = 10.0 ** rng.uniform(-2, 1, size=n)
        closed = discrete_gronwall_bound(b, c)
        rec = discrete_recursion(b, c)
        assert np.max(np.abs(closed - rec) / np.maximum(rec, 1e-300)) <= 1e-12


@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=8),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_discrete_agreement_property(b_list, data):
    c_list = data.draw(
        st.lists(st.floats(min_value=0.0, max_value=5.0),
                 min_size=len(b_list), max_size=len(b_list))
    )
    closed = discrete_gronwall_bound(b_list, c_list)
    rec = discrete_recursion(b_list, c_list)
    assert np.allclose(closed, rec, rtol=1e-12, atol=1e-12)


def test_discrete_validation():
    with pytest.raises(ValueError):
        discrete_recursion([1.0, -1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        discrete_gronwall_bound([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        discrete_recursion(np.ones((2, 2)), np.ones((2, 2)))


# ------------------------------------------------------------- mixed form


def _simple_instance(n_lev=3, n_t=33, c_value=1.0, a_value=1.0, b_value=0.5):
    taus = np.linspace(0.25, 1.0, n_t)
    A = np.full((n_lev, n_t), a_value)
    b = np.full(n_lev, b_value)
    c = np.full((n_lev, n_t), c_value)
    return GronwallInstance(taus=taus, x=0, k_max=n_lev - 1, A=A, b=b, c=c)


def test_instance_validation():
    good = _simple_instance()
    with pytest.raises(ValueError, match="end at 1"):
        GronwallInstance(taus=np.linspace(0.2, 0.9, 8), x=0, k_max=2,
                         A=good.A[:, :8], b=good.b, c=good.c[:, :8])
    with pytest.raises(ValueError):
        GronwallInstance(taus=good.taus[::-1], x=0, k_max=2, A=good.A, b=good.b, c=good.c)
    with pytest.raises(ValueError, match="nonnegative"):
        GronwallInstance(taus=good.taus, x=0, k_max=2, A=-good.A, b=good.b, c=good.c)
    with pytest.raises(ValueError, match="empty level range"):
        GronwallInstance(taus=good.taus, x=3, k_max=2, A=good.A, b=good.b, c=good.c)
    with pytest.raises(ValueError):
        GronwallInstance(taus=good.taus, x=0, k_max=2, A=good.A, b=good.b[:2], c=good.c)


def test_no_feedback_means_bound_equals_data():
    inst = _simple_instance(c_value=0.0)
    res = gronwall_like_bound(inst)
    assert np.array_equal(res.u_star, inst.A)
    assert np.array_equal(res.u_bound, inst.A)
    assert res.defect == 0.0


def test_first_fed_level_is_exact():
    # with one feeding level the majorant and the maximal solution coincide:
    # u_1(a) = A + b int_a^1 c A, and the right-endpoint sums match term by term
    inst = _simple_instance(n_lev=2, c_value=2.0, a_value=1.5, b_value=0.7)
    res = gronwall_like_bound(inst)
    assert np.allclose(res.u_bound[1], res.u_star[1], rtol=0.0, atol=1e-14)
    # and the value agrees with the telescoped right sum b c A (1 - tau_a)
    taus = inst.taus
    expect = 1.5 + 0.7 * 2.0 * 1.5 * (1.0 - taus)
    assert np.allclose(res.u_star[1], expect, rtol=1e-13)


def test_majorant_never_below_saturation():
    rng = np.random.default_rng(11)
    for _ in range(10):
        inst = random_instance(rng, k_max=5, grid_count=49)
        res = gronwall_like_bound(inst)
        assert res.defect >= -1e-12 * max(res.scale, 1.0)


def test_preset_instance_bound_holds():
    inst = make_preset_instance(k_max=10, grid_count=128)
    res = gronwall_like_bound(inst)
    assert res.defect >= -1e-12 * res.scale
    assert np.all(np.isfinite(res.u_bound))
    # the cutoff sources really do span many decades
    assert np.max(inst.c) / np.min(inst.c[inst.c > 0]) > 1e12


def test_saturation_linear_and_monotone_in_data():
    rng = np.random.default_rng(13)
    inst = random_instance(rng, k_max=4, grid_count=33)
    u = saturate_recursion(inst)
    double = GronwallInstance(taus=inst.taus, x=inst.x, k_max=inst.k_max,
                              A=2.0 * inst.A, b=inst.b, c=inst.c)
    assert np.allclose(saturate_recursion(double), 2.0 * u, rtol=1e-12)
    bumped = GronwallInstance(taus=inst.taus, x=inst.x, k_max=inst.k_max,
                              A=inst.A + 0.3, b=inst.b, c=inst.c)
    assert np.all(saturate_recursion(bumped) >= u - 1e-14)


def test_bound_linear_in_data():
    rng = np.random.default_rng(17)
    inst = random_instance(rng, k_max=4, grid_count=33)
    res = gronwall_like_bound(inst)
    double = GronwallInstance(taus=inst.taus, x=inst.x, k_max=inst.k_max,
                              A=2.0 * inst.A, b=inst.b, c=inst.c)
    res2 = gronwall_like_bound(double)
    assert np.allclose(res2.u_bound, 2.0 * res.u_bound, rtol=1e-12)


def test_saturation_sweep_budget():
    # one ascending sweep is the whole budget: every row already equals
    # A + b * tail(c . u) over the levels under it, bit for bit
    insts = [_simple_instance(n_lev=4, c_value=1.0),
             random_instance(np.random.default_rng(19), k_max=4, grid_count=33)]
    for inst in insts:
        u = saturate_recursion(inst)
        assert np.all(u >= inst.A)
        for lev in range(u.shape[0]):
            integrand = np.einsum("lt,lt->t", inst.c[:lev], u[:lev])
            tail = gronwall._right_tail(inst.taus, integrand)
            assert np.array_equal(u[lev], inst.A[lev] + inst.b[lev] * tail), lev


# ----------------------------------------------------------------- verdict


def test_verify_small_ensemble():
    verdict = verify_gronwall_lemma(seed=5, count=20, grid_count=64, k_max=6)
    assert verdict.passed
    assert verdict.n_instances == 20
    assert verdict.worst_defect_rel >= -1e-10
    assert verdict.preset_defect_rel >= -1e-10
    assert verdict.worst_discrete_gap <= 1e-12


def test_verify_rejects_empty():
    with pytest.raises(ValueError):
        verify_gronwall_lemma(count=0)


# ------------------------------------- golden pin, negative control, oracle

# verdict at seed 0, count 5, grid 64, k_max 6, recorded before the majorant
# ran as one recurrence over levels
GOLDEN_VERDICT = (0.0, 0.0, 4.0762262890420665e-16)


def test_verify_gronwall_golden():
    v = verify_gronwall_lemma(seed=0, count=5, grid_count=64, k_max=6)
    got = (v.worst_defect_rel, v.preset_defect_rel, v.worst_discrete_gap)
    np.testing.assert_allclose(got, GOLDEN_VERDICT, rtol=1e-12, atol=1e-14)
    assert v.passed


def test_verify_fails_without_product_weights(monkeypatch):
    # with every prod (1 + int b c) set to 1 the majorant drops below the
    # maximal solution, and the verdict must see it
    monkeypatch.setattr(gronwall, "_right_cum", lambda taus, g: np.zeros_like(g))
    v = verify_gronwall_lemma(seed=0, count=5, grid_count=64, k_max=6)
    assert not v.passed
    assert v.worst_defect_rel < -1e-10 and v.preset_defect_rel < -1e-10


def test_majorant_matches_nested_sum_formula():
    rng = np.random.default_rng(19)
    inst = random_instance(rng, k_max=3, grid_count=12)
    taus, A, b, c = inst.taus, inst.A, inst.b, inst.c
    dt = np.diff(taus, prepend=taus[0])  # dt[i] = tau_i - tau_{i-1}; dt[0] is never read

    def int_bc(j, a, i):  # right-endpoint int_{tau_a}^{tau_i} b_j c_j
        return sum(dt[m] * b[j] * c[j, m] for m in range(a + 1, i + 1))

    want = A.copy()
    for k in range(A.shape[0]):
        for a in range(taus.size):
            for i in range(a + 1, taus.size):
                for l in range(k):
                    prod = 1.0
                    for j in range(l + 1, k):
                        prod *= 1.0 + int_bc(j, a, i)
                    want[k, a] += b[k] * dt[i] * c[l, i] * A[l, i] * prod
    np.testing.assert_allclose(gronwall_like_bound(inst).u_bound, want, rtol=1e-13, atol=0.0)


def test_majorant_bits_match_full_array_oracle():
    # the triangle-only reduce sums in the full array's order: same bits
    rng = np.random.default_rng(23)
    insts = [make_preset_instance()] + [random_instance(rng) for _ in range(20)]
    for inst in insts:
        assert inst.taus.size == 256
        assert np.array_equal(gronwall_like_bound(inst).u_bound, majorant_full(inst))


def _uneven_instance(rng, k_max, grid_count):
    # a non-geometric grid: sorted uniform nodes in (0.01, 1), ending at 1
    taus = np.sort(rng.uniform(0.01, 1.0, grid_count))
    taus[-1] = 1.0
    shape = (k_max + 1, grid_count)
    return GronwallInstance(taus=taus, x=0, k_max=k_max, A=rng.uniform(0.1, 10.0, shape),
                            b=10.0 ** rng.uniform(-2.0, 0.5, k_max + 1),
                            c=rng.uniform(0.0, 20.0, shape))


@pytest.mark.parametrize("grid_count", [2, 3, 65, 130])
@pytest.mark.parametrize("k_max", [0, 1, 5])
def test_majorant_bits_on_edge_shapes(grid_count, k_max):
    # grids shorter than, equal to a multiple of, and off a multiple of the
    # block width, plus one with no fed level and one with a single fed level
    rng = np.random.default_rng(grid_count * 10 + k_max)
    insts = [random_instance(rng, k_max=k_max, grid_count=grid_count),
             _uneven_instance(rng, k_max, grid_count)]
    for inst in insts:
        got = gronwall_like_bound(inst).u_bound
        assert np.array_equal(got, majorant_full(inst))
        assert np.array_equal(got[0], inst.A[0])
        assert np.array_equal(got[:, -1], inst.A[:, -1])
