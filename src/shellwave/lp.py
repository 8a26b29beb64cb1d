"""Dyadic frequency calculus realized at multiplier level.

A partition cell k carries the bump M(lambda(tau) 4^-k); the bump is built
from a polynomial smoothstep fed through sin(pi/2 *), so that the squares of
neighboring cells sum to one exactly (sin^2 + cos^2) instead of just to
rounding.  All derived projections (tilde, dot, underline, underline-tilde)
are closed-form transforms of the same bump, and every operator in this
module acts on a field as a per-slot weight.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .lattice import build_lattice, eigenvalue_at, eigenvalue_rate, random_field

__all__ = [
    "LPPartition",
    "PropertyCheck",
    "PropertyReport",
    "PoincareReport",
    "make_partition",
    "multiplier_values",
    "heat_flow",
    "lp_project",
    "log_nabla",
    "r_k",
    "lp_sobolev_norm",
    "commutator_time_pk",
    "refined_poincare_defect",
    "check_lp_properties",
    "verify_refined_poincare",
    "LOG_GRAD_ETA",
]

PROJECTION_KINDS = ("plain", "tilde", "dot", "underline", "underline_tilde")

# Exponent gap in the log-derivative smoothing bound; fixed, not tunable.
LOG_GRAD_ETA = 0.1


def _smoothstep_coeffs(order):
    """Polynomial smoothstep of the given order as coefficients of x^(order+1+j).

    S(0)=0, S(1)=1, derivatives through ``order`` vanish at both ends, and
    S(x) + S(1-x) = 1.
    """
    n = order
    return np.array(
        [
            math.comb(n + j, j) * math.comb(2 * n + 1, n - j) * (-1) ** j
            for j in range(n + 1)
        ],
        dtype=float,
    )


@dataclass(frozen=True, eq=False)
class LPPartition:
    """Dyadic-in-4 partition of the positive frequency axis.

    Cell k is centered at lambda = 4^(k+shift) and supported where
    |log_4 lambda - k - shift| < 1.  ``smoothness`` is the continuity class of
    the bump.
    """

    k_min: int
    k_max: int
    smoothness: int
    shift: float = 0.0
    _step: np.ndarray = dc_field(repr=False, default=None)

    @property
    def ks(self):
        return range(self.k_min, self.k_max + 1)

    def _step_eval(self, x):
        # S(x) for x in [0, 1], vectorized; caller guarantees the range.
        out = np.zeros_like(x)
        for c in self._step[::-1]:
            out = out * x + c
        return out * x ** (self.smoothness + 1)

    def _step_deriv(self, x):
        p = self._step
        n = self.smoothness
        out = np.zeros_like(x)
        for j in range(len(p) - 1, -1, -1):
            out = out * x + p[j] * (n + 1 + j)
        return out * x**n

    def bump(self, mu):
        """M(mu): 1 at the cell center mu = 4^shift, 0 outside [4^(shift-1), 4^(shift+1)]."""
        mu = np.asarray(mu, dtype=float)
        out = np.zeros_like(mu)
        pos = mu > 0.0
        v = np.zeros_like(mu)
        v[pos] = np.log(mu[pos]) / math.log(4.0) - self.shift
        inside = pos & (np.abs(v) < 1.0)
        out[inside] = np.sin(0.5 * math.pi * self._step_eval(1.0 - np.abs(v[inside])))
        return out

    def bump_prime(self, mu):
        """dM/dmu, exact (chain rule through the log coordinate)."""
        mu = np.asarray(mu, dtype=float)
        out = np.zeros_like(mu)
        pos = mu > 0.0
        v = np.zeros_like(mu)
        v[pos] = np.log(mu[pos]) / math.log(4.0) - self.shift
        inside = pos & (np.abs(v) < 1.0) & (np.abs(v) > 0.0)
        a = np.abs(v[inside])
        dv = (
            np.cos(0.5 * math.pi * self._step_eval(1.0 - a))
            * 0.5
            * math.pi
            * self._step_deriv(1.0 - a)
            * (-np.sign(v[inside]))
        )
        out[inside] = dv / (mu[inside] * math.log(4.0))
        return out


def make_partition(k_min, k_max, smoothness=3, shift=0.0):
    """Build the partition; the cell range must straddle zero.

    ``shift`` displaces every cell center by the same fraction of a cell (in
    log_4 scale) and exists so that a second, staggered family can be played
    against the first in orthogonality checks.
    """
    if not k_min < 0 < k_max:
        raise ValueError(f"need k_min < 0 < k_max, got [{k_min}, {k_max}]")
    if smoothness < 1:
        raise ValueError(f"smoothness must be >= 1, got {smoothness}")
    if not -0.5 <= shift <= 0.5:
        raise ValueError(f"shift must lie in [-1/2, 1/2], got {shift}")
    return LPPartition(
        k_min=int(k_min),
        k_max=int(k_max),
        smoothness=int(smoothness),
        shift=float(shift),
        _step=_smoothstep_coeffs(int(smoothness)),
    )


def _check_k(part, k):
    if not part.k_min <= k <= part.k_max:
        raise ValueError(f"cell index {k} outside [{part.k_min}, {part.k_max}]")


def multiplier_values(part, kind, k, lam):
    """Per-eigenvalue weight of the kind-projection at cell k.

    plain            M(mu)
    tilde            -M'(mu)            (the z m(z) symbol; sign-indefinite)
    dot              M(mu)/mu           (so 4^k P_k = (-Lap) P-dot_k exactly)
    underline        sqrt(M(mu))
    underline_tilde  sqrt(|M'(mu)|)
    with mu = lam 4^-k.
    """
    _check_k(part, k)
    lam = np.asarray(lam, dtype=float)
    mu = lam * 4.0 ** (-k)
    if kind == "plain":
        return part.bump(mu)
    if kind == "tilde":
        return -part.bump_prime(mu)
    if kind == "dot":
        m = part.bump(mu)
        out = np.zeros_like(m)
        nz = mu > 0.0
        out[nz] = m[nz] / mu[nz]
        return out
    if kind == "underline":
        return np.sqrt(part.bump(mu))
    if kind == "underline_tilde":
        return np.sqrt(np.abs(part.bump_prime(mu)))
    raise ValueError(f"unknown projection kind {kind!r}; expected one of {PROJECTION_KINDS}")


def lp_project(part, kind, k, field, tau, bg):
    """Apply the kind-projection of cell k to a field on the tau-slice."""
    lam = eigenvalue_at(bg, field.lattice.lam0_slot, tau)
    w = multiplier_values(part, kind, k, lam)
    return field.with_coeffs(w * field.coeffs)


def heat_flow(field, z, tau, bg):
    """Heat semigroup weight exp(-z lambda(tau)) per slot; z >= 0."""
    if z < 0.0:
        raise ValueError(f"heat time must be nonnegative, got {z}")
    lam = eigenvalue_at(bg, field.lattice.lam0_slot, tau)
    return field.with_coeffs(np.exp(-z * lam) * field.coeffs)


def log_grad_weights(part, lam):
    """ell(lambda) = sum_{k>=0} M(lambda 4^-k)^2 log 2^k."""
    lam = np.asarray(lam, dtype=float)
    out = np.zeros_like(lam)
    for k in range(max(0, part.k_min), part.k_max + 1):
        m = part.bump(lam * 4.0 ** (-k))
        out += m * m * (k * math.log(2.0))
    return out


def log_nabla(part, field, tau, bg):
    """Logarithmic-derivative multiplier; kills lambda = 0 and cell-0 centers."""
    lam = eigenvalue_at(bg, field.lattice.lam0_slot, tau)
    return field.with_coeffs(log_grad_weights(part, lam) * field.coeffs)


def r_k(part, k, field, tau, bg):
    """Cross term 2 M(lambda 4^-k) (ell(lambda) - log 2^k).

    Vanishes on a mode sitting exactly at the center of cell k, where the
    local value of ell is log 2^k.
    """
    _check_k(part, k)
    lam = eigenvalue_at(bg, field.lattice.lam0_slot, tau)
    m = part.bump(lam * 4.0 ** (-k))
    w = 2.0 * m * (log_grad_weights(part, lam) - k * math.log(2.0))
    return field.with_coeffs(w * field.coeffs)


def lp_sobolev_norm(part, field, a, tau, bg):
    """Shell-summed norm  sqrt( sum_k 4^(a k) |P_k F|^2 + |F|^2 ).

    Equivalent to the spectral fractional norm only for 0 <= a < 4 (the cell
    width eats larger exponents), so larger a is rejected.
    """
    if not 0.0 <= a < 4.0:
        raise ValueError(f"shell exponent must satisfy 0 <= a < 4, got {a}")
    lam = eigenvalue_at(bg, field.lattice.lam0_slot, tau)
    total = float(np.dot(field.coeffs, field.coeffs))
    for k in part.ks:
        m = part.bump(lam * 4.0 ** (-k))
        pk = m * field.coeffs
        total += 4.0 ** (a * k) * float(np.dot(pk, pk))
    return math.sqrt(total)


def commutator_time_pk(part, k, field, tau, bg, time_vector="e4"):
    """Commutator of cell-k projection with a time derivative, exactly.

    The projection weight M(lambda(tau) 4^-k) is the only tau-dependence, so
    the commutator is the weight  -M'(mu) 4^-k dlambda/dtau  (orientation:
    projection outermost).  ``time_vector`` chooses between d/dtau ("tau") and
    the rescaled direction (1/(2 tau)) d/dtau ("e4"); the latter needs tau > 0.
    Identically zero on constant-f backgrounds.
    """
    _check_k(part, k)
    lat = field.lattice
    lam = eigenvalue_at(bg, lat.lam0_slot, tau)
    rate = eigenvalue_rate(bg, lat.lam0_slot, tau)
    w = -part.bump_prime(lam * 4.0 ** (-k)) * 4.0 ** (-k) * rate
    if time_vector == "e4":
        if tau <= 0.0:
            raise ValueError("the rescaled time direction degenerates at tau = 0")
        w = w / (2.0 * tau)
    elif time_vector != "tau":
        raise ValueError(f"unknown time vector {time_vector!r}; expected 'tau' or 'e4'")
    return field.with_coeffs(w * field.coeffs)


def refined_poincare_defect(part, k, delta, field, tau, bg):
    """Empirical constant of the shell-localized low-frequency inequality.

    Compares |P_k F|^2 against
        (1/delta) 2^-2k |grad P_k F|^2
      + delta sum_{0 <= l < k} 2^(-9k+7l) |grad P_l F|^2
      + (1/delta) 2^-4k |F|^2
    and returns LHS / RHS (0 for the zero field).  The returned value is the
    constant the inequality would need, so stability under refinement is the
    thing to watch, not its absolute size.
    """
    _check_k(part, k)
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    lam = eigenvalue_at(bg, field.lattice.lam0_slot, tau)
    c2 = field.coeffs * field.coeffs
    mk = part.bump(lam * 4.0 ** (-k))
    lhs = float(np.dot(mk * mk, c2))
    if lhs == 0.0:
        return 0.0
    rhs = (1.0 / delta) * 2.0 ** (-2 * k) * float(np.dot(mk * mk * lam, c2))
    for l in range(0, k):
        ml = part.bump(lam * 4.0 ** (-l))
        rhs += delta * 2.0 ** (-9 * k + 7 * l) * float(np.dot(ml * ml * lam, c2))
    rhs += (1.0 / delta) * 2.0 ** (-4 * k) * float(np.sum(c2))
    return lhs / rhs


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    constant: float
    threshold: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class PropertyReport:
    checks: tuple[PropertyCheck, ...]
    meta: dict

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_json(self):
        payload = {
            "meta": self.meta,
            "checks": [
                {
                    "name": c.name,
                    "constant": c.constant,
                    "threshold": c.threshold,
                    "passed": c.passed,
                    "note": c.note,
                }
                for c in self.checks
            ],
            "all_passed": self.all_passed,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def csv_rows(self):
        """One row per check: (name, constant, threshold, passed)."""
        return [(c.name, c.constant, c.threshold, int(c.passed)) for c in self.checks]


def _coverage_mask(part, lam):
    """Modes whose dyadic window is fully inside the cell range."""
    ok = lam > 0.0
    u = np.full_like(lam, -np.inf)
    u[ok] = np.log(lam[ok]) / math.log(4.0) - part.shift
    return ok & (u >= part.k_min) & (u <= part.k_max)


def check_lp_properties(part, lattice, bg, tau, n_fields=32, seed=0):
    """Empirical constants for the multiplier-calculus inequalities.

    Runs a seeded random corpus through: exact partition of unity on a fine
    frequency grid, the two-sided frequency-localization identities (summed
    shells reproduce the full square norm), the single-shell derivative bound,
    staggered-family almost-orthogonality with 2^(4|k-l|) weights, the
    log-derivative smoothing bound with exponent gap 1/10, and uniformity in k
    of the time-commutator norm.  Thresholds are computed support bounds, not
    tuned numbers.
    """
    rng = np.random.default_rng(seed)
    lam = eigenvalue_at(bg, lattice.lam0_slot, tau)
    covered = _coverage_mask(part, lam)
    if not np.any(covered):
        raise ValueError("no lattice mode is covered by the cell range at this tau")
    checks = []

    # partition of unity on a fine grid spanning the covered window
    grid = np.geomspace(4.0 ** (part.k_min + part.shift), 4.0 ** (part.k_max + part.shift), 4096)
    pou = np.zeros_like(grid)
    for k in part.ks:
        m = part.bump(grid * 4.0 ** (-k))
        pou += m * m
    pou_defect = float(np.max(np.abs(pou - 1.0)))
    checks.append(
        PropertyCheck("partition_of_unity", pou_defect, 1e-12, pou_defect <= 1e-12)
    )

    fields = []
    for _ in range(n_fields):
        f = random_field(lattice, rng, decay=1.0)
        c = f.coeffs.copy()
        c[~covered] = 0.0
        if not np.any(c):
            continue
        fields.append(f.with_coeffs(c))

    # summed shells against the plain square norm
    bessel_dev = 0.0
    for f in fields:
        total = 0.0
        for k in part.ks:
            m = part.bump(lam * 4.0 ** (-k))
            pk = m * f.coeffs
            total += float(np.dot(pk, pk))
        bessel_dev = max(bessel_dev, abs(total / float(np.dot(f.coeffs, f.coeffs)) - 1.0))
    checks.append(PropertyCheck("bessel_constant", bessel_dev, 1e-10, bessel_dev <= 1e-10))

    # single-shell derivative bound; threshold = sup sqrt(mu) M(mu) over the support
    sup_grid = np.geomspace(4.0 ** (part.shift - 1.0), 4.0 ** (part.shift + 1.0), 4001)
    band_bound = float(np.max(np.sqrt(sup_grid) * part.bump(sup_grid)))
    band_emp = 0.0
    for f in fields:
        nf = f.l2_norm()
        for k in part.ks:
            m = part.bump(lam * 4.0 ** (-k))
            grad = float(np.sqrt(np.dot(lam * m * m, f.coeffs * f.coeffs)))
            band_emp = max(band_emp, grad / (2.0**k * nf))
    checks.append(
        PropertyCheck(
            "finite_band", band_emp, band_bound * (1.0 + 1e-9), band_emp <= band_bound * (1.0 + 1e-9)
        )
    )

    # staggered second family: shells three or more cells apart must vanish
    other = make_partition(part.k_min, part.k_max, part.smoothness, shift=part.shift + 0.5 if part.shift <= 0.0 else part.shift - 0.5)
    ortho_emp = 0.0
    disjoint_max = 0.0
    for f in fields:
        nf = f.l2_norm()
        m2 = {l: other.bump(lam * 4.0 ** (-l)) for l in other.ks}
        for k in part.ks:
            m1 = part.bump(lam * 4.0 ** (-k))
            for l in other.ks:
                cross = float(np.sqrt(np.dot((m1 * m2[l]) ** 2, f.coeffs * f.coeffs)))
                if abs(k - l) >= 3:
                    disjoint_max = max(disjoint_max, cross)
                ortho_emp = max(ortho_emp, 2.0 ** (4 * abs(k - l)) * cross / nf)
    ortho_ok = ortho_emp <= 256.0 and disjoint_max == 0.0
    checks.append(
        PropertyCheck(
            "almost_orthogonality",
            ortho_emp,
            256.0,
            ortho_ok,
            note=f"max separated-shell overlap {disjoint_max:.3e}",
        )
    )

    # log-derivative smoothing; per-mode bound is attained by concentration
    ell = log_grad_weights(part, lam)
    log_bound = float(np.max(ell / (1.0 + lam) ** (0.5 * LOG_GRAD_ETA)))
    log_emp = 0.0
    for f in fields:
        num = float(np.sqrt(np.dot(ell * ell, f.coeffs * f.coeffs)))
        den = float(np.sqrt(np.dot((1.0 + lam) ** LOG_GRAD_ETA, f.coeffs * f.coeffs)))
        log_emp = max(log_emp, num / den)
    checks.append(
        PropertyCheck(
            "log_grad_bound", log_emp, log_bound * (1.0 + 1e-9), log_emp <= log_bound * (1.0 + 1e-9)
        )
    )

    # time-commutator uniformity in k
    rate = eigenvalue_rate(bg, lattice.lam0_slot, tau)
    comm_bound = float(
        bg.kappa(tau) * np.max(sup_grid * np.abs(part.bump_prime(sup_grid)))
    )
    comm_emp = 0.0
    if tau > 0.0:
        for f in fields:
            nf = f.l2_norm()
            for k in part.ks:
                w = -part.bump_prime(lam * 4.0 ** (-k)) * 4.0 ** (-k) * rate / (2.0 * tau)
                comm_emp = max(comm_emp, float(np.sqrt(np.dot(w * w, f.coeffs * f.coeffs))) / nf)
    checks.append(
        PropertyCheck(
            "commutator_bound",
            comm_emp,
            comm_bound * (1.0 + 1e-9),
            comm_emp <= comm_bound * (1.0 + 1e-9),
        )
    )

    meta = {
        "n": lattice.n,
        "l_max": lattice.l_max,
        "tau": float(tau),
        "seed": int(seed),
        "n_fields": len(fields),
        "k_min": part.k_min,
        "k_max": part.k_max,
        "smoothness": part.smoothness,
        "shift": part.shift,
        "eta": LOG_GRAD_ETA,
    }
    return PropertyReport(checks=tuple(checks), meta=meta)


@dataclass(frozen=True)
class PoincareReport:
    """Empirical constants of the shell-localized inequality per (delta, l_max)."""

    deltas: tuple[float, ...]
    resolutions: tuple[int, ...]
    constants: tuple[tuple[float, ...], ...]  # [delta][resolution]
    drift_factors: tuple[tuple[float, ...], ...]
    n_fields: int
    passed: bool


def verify_refined_poincare(part, bg, resolutions=(32, 64, 128), deltas=(0.1, 1.0, 10.0),
                            n_fields=500, tau=0.5, seed=0, n_sphere=2):
    """Corpus sweep of refined_poincare_defect across lattice resolutions.

    For each resolution a seeded corpus of rough random fields is paired with
    random nonnegative cells; the per-delta max constant must stay finite and
    move by less than a factor 2 between consecutive resolutions, so at least
    two resolutions are needed.
    """
    if any(d <= 0.0 for d in deltas):
        raise ValueError("deltas must be positive")
    if len(resolutions) < 2:
        raise ValueError(f"need at least two resolutions to compare, got {tuple(resolutions)}")
    constants = {d: [] for d in deltas}
    for l_max in resolutions:
        lattice = build_lattice(n_sphere, l_max)
        rng = np.random.default_rng(seed)
        lam = eigenvalue_at(bg, lattice.lam0_slot, tau)
        k_hi = min(part.k_max, int(math.floor(math.log(float(np.max(lam)), 4.0))))
        worst = {d: 0.0 for d in deltas}
        for _ in range(n_fields):
            f = random_field(lattice, rng, decay=1.0)
            k = int(rng.integers(0, k_hi + 1))
            for d in deltas:
                worst[d] = max(worst[d], refined_poincare_defect(part, k, d, f, tau, bg))
        for d in deltas:
            constants[d].append(worst[d])
    drift = []
    passed = True
    for d in deltas:
        row = constants[d]
        factors = tuple(max(a, b) / min(a, b) for a, b in zip(row[:-1], row[1:]))
        drift.append(factors)
        passed = passed and all(np.isfinite(row)) and all(x < 2.0 for x in factors)
    return PoincareReport(
        deltas=tuple(deltas),
        resolutions=tuple(resolutions),
        constants=tuple(tuple(constants[d]) for d in deltas),
        drift_factors=tuple(drift),
        n_fields=n_fields,
        passed=passed,
    )
