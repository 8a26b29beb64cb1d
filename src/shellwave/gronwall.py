"""Comparison bounds of nested-sum type, discrete and continuous-discrete.

The mixed form bounds a family u(k, tau) that feeds each level k from the
levels below it through a time integral from tau up to 1:

    u(k, tau) <= A(k, tau) + b(k) * int_tau^1 sum_{l=x}^{k-1} c(l, t) u(l, t) dt.

The explicit majorant replaces u under the integral by A times the product
weights prod_j (1 + int b_j c_j); the maximal solution of the inequality
(computed by monotone saturation) can never exceed it.  All time integrals
use right-endpoint sums on the instance grid, identically on both sides.
That choice is load-bearing: a tail sum excludes its own base node, so every
unrolled path of the recursion moves strictly forward in time, while the
product weights use inclusive cumulatives and therefore dominate the path
sums term by term.  The comparison is then exact on the grid at any
resolution, not merely up to quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GronwallInstance",
    "BoundResult",
    "GronwallVerdict",
    "discrete_gronwall_bound",
    "discrete_recursion",
    "gronwall_like_bound",
    "saturate_recursion",
    "make_preset_instance",
    "random_instance",
    "verify_gronwall_lemma",
]


@dataclass(frozen=True, eq=False)
class GronwallInstance:
    """Sampled data of one inequality instance.

    Levels run x..k_max and index the rows of A and c; taus ascend inside
    (0, 1] and must end at 1, where the integrals anchor.
    """

    taus: np.ndarray
    x: int
    k_max: int
    A: np.ndarray  # (n_levels, n_taus)
    b: np.ndarray  # (n_levels,)
    c: np.ndarray  # (n_levels, n_taus)

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        c = np.asarray(self.c, dtype=float)
        for name, arr in (("taus", taus), ("A", A), ("b", b), ("c", c)):
            object.__setattr__(self, name, arr)
        if self.k_max < self.x:
            raise ValueError(f"empty level range [{self.x}, {self.k_max}]")
        n_lev = self.k_max - self.x + 1
        if taus.ndim != 1 or taus.size < 2:
            raise ValueError("need a 1-d grid with at least two samples")
        if np.any(np.diff(taus) <= 0.0) or taus[0] <= 0.0 or taus[-1] != 1.0:
            raise ValueError("grid must ascend strictly inside (0, 1] and end at 1")
        if A.shape != (n_lev, taus.size) or c.shape != A.shape or b.shape != (n_lev,):
            raise ValueError("A, c must be (n_levels, n_taus) and b (n_levels,)")
        if np.any(A < 0.0) or np.any(b < 0.0) or np.any(c < 0.0):
            raise ValueError("A, b, c must be nonnegative")


@dataclass(frozen=True, eq=False)
class BoundResult:
    u_bound: np.ndarray
    u_star: np.ndarray
    defect: float  # min over the grid of (u_bound - u_star), signed, as computed
    scale: float


@dataclass(frozen=True)
class GronwallVerdict:
    n_instances: int
    worst_defect_rel: float
    preset_defect_rel: float
    worst_discrete_gap: float
    passed: bool


# ----------------------------------------------------------- discrete form


def _check_nonneg_pair(b, c):
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if b.shape != c.shape or b.ndim != 1:
        raise ValueError("b and c must be 1-d sequences of equal length")
    if np.any(b < 0.0) or np.any(c < 0.0):
        raise ValueError("entries must be nonnegative")
    return b, c


def discrete_gronwall_bound(b, c):
    """Closed form u_k = b_k + sum_{m<k} b_m c_m prod_{j=m+1}^{k-1} (1 + c_j)."""
    b, c = _check_nonneg_pair(b, c)
    out = np.empty_like(b)
    for k in range(b.size):
        acc = b[k]
        prod = 1.0
        # walk m downward so the product extends one factor at a time
        for m in range(k - 1, -1, -1):
            acc += b[m] * c[m] * prod
            prod *= 1.0 + c[m]
        out[k] = acc
    return out


def discrete_recursion(b, c):
    """Direct recursion u_k = b_k + sum_{m<k} c_m u_m; equals the closed form."""
    b, c = _check_nonneg_pair(b, c)
    out = np.empty_like(b)
    for k in range(b.size):
        out[k] = b[k] + float(np.dot(c[:k], out[:k]))
    return out


# ----------------------------------------------------- continuous-discrete


def _right_tail(taus, g):
    """T[a] = sum_{i>a} (tau_i - tau_{i-1}) g_i; the base node is excluded."""
    seg = np.diff(taus) * g[..., 1:]
    out = np.zeros_like(g)
    # running sums from the last node back, written into out[..., :-1]
    np.cumsum(seg[..., ::-1], axis=-1, out=out[..., -2::-1])
    return out


def _right_cum(taus, g):
    """C[t] = sum_{0<i<=t} (tau_i - tau_{i-1}) g_i, inclusive at t."""
    seg = np.diff(taus) * g[..., 1:]
    out = np.zeros_like(g)
    out[..., 1:] = np.cumsum(seg, axis=-1)
    return out


def saturate_recursion(inst):
    """Maximal solution of the inequality, by one ascending in-place sweep.

    Level x never feeds from below: level lev reads only the levels under
    it, which the sweep has already made final, so every row comes out equal
    to A + b * tail(c . u) after one sweep.
    """
    u = inst.A.copy()
    for lev in range(1, u.shape[0]):
        integrand = np.einsum("lt,lt->t", inst.c[:lev], u[:lev])
        u[lev] = inst.A[lev] + inst.b[lev] * _right_tail(inst.taus, integrand)
    return u


# Base-point columns per block of the majorant; a block's rows then stay in
# cache across the level recurrence.
_BLOCK = 64


def gronwall_like_bound(inst):
    """Explicit majorant with product weights, compared against saturation.

    bound(k, tau_a) = A(k, tau_a) + b_k * int_{tau_a}^1 sum_{l=x}^{k-1}
        c(l, t) A(l, t) prod_{j=l+1}^{k-1} (1 + int_{tau_a}^t b_j c_j) dt.

    The level recurrence carries U[r, a] = S(a, t) for t > a only, with time
    reversed down the rows (r = n_t - 1 - t), where S(a, t) is the sum over
    l < k of c A(l, t) prod_j (1 + int_{tau_a}^t b_j c_j).  Each level's tail
    sum is then one reduce over rows of (dt masked to t > a) * U; a reduce
    along the outer axis adds rows in order, so every column sums from
    t = n_t - 1 down to a + 1, the order of ``_right_tail``'s running sum,
    and the masked rows after it add +0.0.  The base points go in blocks of
    ``_BLOCK`` columns, each forming only the rows t > a0 of its first column.
    """
    n_lev, n_t = inst.A.shape
    taus = inst.taus
    bc_cum = _right_cum(taus, inst.b[:, None] * inst.c)  # (n_lev, n_t)
    one_rev = (1.0 + bc_cum)[:, ::-1, None]  # (n_lev, row r, 1)
    cA_rev = (inst.c * inst.A)[:, ::-1, None]
    dt_rev = np.diff(taus)[::-1, None]  # row r < n_t - 1 holds tau_t - tau_{t-1}
    bound = inst.A.copy()
    for a0 in range(0, n_t - 1, _BLOCK):
        a1 = min(a0 + _BLOCK, n_t)
        rows = n_t - 1 - a0  # the rows t > a0
        # weight dt at t > a, 0 at a0 < t <= a
        weight = dt_rev[:rows] * (np.arange(rows)[:, None] < n_t - 1 - np.arange(a0, a1))
        U = np.zeros((rows, a1 - a0))
        for lev in range(1, n_lev):
            U *= one_rev[lev - 1, :rows] - bc_cum[lev - 1, a0:a1]
            U += cA_rev[lev - 1, :rows]
            bound[lev, a0:a1] += inst.b[lev] * np.add.reduce(weight * U, axis=0)
    u_star = saturate_recursion(inst)
    defect = float(np.min(bound - u_star))
    scale = float(np.max(u_star))
    return BoundResult(u_bound=bound, u_star=u_star, defect=defect, scale=scale)


# ----------------------------------------------------- instances & verdict


def make_preset_instance(k_max=12, grid_count=256):
    """The shell-weighted family b_k = 2^(-8k)/10 with cutoff sources.

    c(k, tau) = tau^-3 2^(6k) on {2^k tau >= 1} makes every int b c order one
    despite c spanning thirty decades, which is exactly the regime the mixed
    bound is for.  The grid is geometric from tau = 2^-(k_max+1), below where
    any level's source switches on, to 1.
    """
    tau_min = 2.0 ** (-(k_max + 1))
    taus = np.geomspace(tau_min, 1.0, grid_count)
    taus[-1] = 1.0
    levels = np.arange(0, k_max + 1)
    b = 0.1 * 2.0 ** (-8.0 * levels)
    c = np.zeros((levels.size, taus.size))
    for i, k in enumerate(levels):
        active = (2.0**k) * taus >= 1.0
        c[i, active] = taus[active] ** (-3.0) * 2.0 ** (6.0 * k)
    A = np.ones_like(c)
    return GronwallInstance(taus=taus, x=0, k_max=k_max, A=A, b=b, c=c)


def _piecewise_positive(rng, taus, scale_lo, scale_hi):
    knots = np.sort(rng.uniform(taus[0], 1.0, size=4))
    knots[0], knots[-1] = taus[0], 1.0
    amp = 10.0 ** rng.uniform(scale_lo, scale_hi)
    vals = amp * rng.uniform(0.1, 1.0, size=knots.size)
    return np.interp(taus, knots, vals)


def random_instance(rng, k_max=12, grid_count=256):
    """Positive piecewise-linear A and c with log-uniform scales, log-uniform b.

    The grid is geometric from tau = 1e-3 to 1.
    """
    taus = np.geomspace(1e-3, 1.0, grid_count)
    taus[-1] = 1.0
    n_lev = k_max + 1
    A = np.stack([_piecewise_positive(rng, taus, -2.0, 2.0) for _ in range(n_lev)])
    c = np.stack([_piecewise_positive(rng, taus, -2.0, 1.0) for _ in range(n_lev)])
    b = 10.0 ** rng.uniform(-3.0, 0.0, size=n_lev)
    return GronwallInstance(taus=taus, x=0, k_max=k_max, A=A, b=b, c=c)


def verify_gronwall_lemma(seed=0, count=200, grid_count=256, k_max=12):
    """Random-instance comparison of majorant against saturated solution.

    Every instance (count random ones plus the shell preset) must satisfy
    bound >= oracle up to -1e-10 of the instance scale; the discrete closed
    form must match its recursion to 1e-12 on as many random sequences.
    """
    if count < 1:
        raise ValueError("need at least one instance")
    rng = np.random.default_rng(seed)
    worst_rel = np.inf
    for _ in range(count):
        inst = random_instance(rng, k_max=k_max, grid_count=grid_count)
        res = gronwall_like_bound(inst)
        worst_rel = min(worst_rel, res.defect / max(res.scale, 1e-300))
    preset = gronwall_like_bound(make_preset_instance(k_max=k_max, grid_count=grid_count))
    preset_rel = preset.defect / max(preset.scale, 1e-300)

    gap = 0.0
    for _ in range(count):
        n = int(rng.integers(3, 14))
        b = 10.0 ** rng.uniform(-2.0, 2.0, size=n)
        c = 10.0 ** rng.uniform(-2.0, 1.0, size=n)
        closed = discrete_gronwall_bound(b, c)
        rec = discrete_recursion(b, c)
        gap = max(gap, float(np.max(np.abs(closed - rec) / np.maximum(rec, 1e-300))))

    passed = worst_rel >= -1e-10 and preset_rel >= -1e-10 and gap <= 1e-12
    return GronwallVerdict(
        n_instances=count,
        worst_defect_rel=float(worst_rel),
        preset_defect_rel=float(preset_rel),
        worst_discrete_gap=float(gap),
        passed=passed,
    )
