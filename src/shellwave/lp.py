"""Dyadic frequency calculus realized at multiplier level.

A partition cell k carries the bump M(lambda(tau) 4^-k); the bump is built
from a polynomial smoothstep fed through sin(pi/2 *), so that the squares of
neighboring cells sum to one exactly (sin^2 + cos^2) instead of just to
rounding.  A bump sees a mode only through its degree, so every weight here
is a function of the degree, and every shell-summed reduction reads two
degree-axis arrays: the shell table M[k, l] = M(lambda_l 4^-k) (or M', for
the time commutator) and the field's per-degree power sum_{slots of l} c^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .lattice import (
    _check_resolutions,
    build_lattice,
    eigenvalue_at,
    eigenvalue_rate,
    random_field,
)

__all__ = [
    "LPPartition",
    "PropertyCheck",
    "PropertyReport",
    "PoincareReport",
    "make_partition",
    "log_grad_weights",
    "refined_poincare_defect",
    "check_lp_properties",
    "verify_refined_poincare",
    "LOG_GRAD_ETA",
]

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
        # |log_4 mu - shift| (inf for mu <= 0), overwritten by the bump value;
        # one array of mu's size, since shell tables pass large ones
        out = np.full_like(mu, np.inf)
        np.log(mu, out=out, where=mu > 0.0)
        out /= math.log(4.0)
        out -= self.shift
        np.abs(out, out=out)
        inside = out < 1.0
        out[inside] = np.sin(0.5 * math.pi * self._step_eval(1.0 - out[inside]))
        out[~inside] = 0.0
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


def _shell_table(part, lam, prime=False):
    """M[k - k_min, i] = M(lam_i 4^-k) (or M') over every cell of the partition.

    Each entry is the same float multiply as the single-cell weight
    M(lam_i 4^-k), bit for bit.
    """
    mu = np.asarray(lam, dtype=float) * 4.0 ** (-np.asarray(part.ks)[:, None])
    return part.bump_prime(mu) if prime else part.bump(mu)


def _degree_power(lattice, coeffs):
    """Per-degree power sum_{slots of l} c^2 along the last axis."""
    return np.add.reduceat(coeffs * coeffs, lattice.offsets[:-1], axis=-1)


def log_grad_weights(part, lam):
    """ell(lambda) = sum_{k>=0} M(lambda 4^-k)^2 log 2^k."""
    lam = np.asarray(lam, dtype=float)
    out = np.zeros_like(lam)
    for k in range(max(0, part.k_min), part.k_max + 1):
        m = part.bump(lam * 4.0 ** (-k))
        out += m * m * (k * math.log(2.0))
    return out


def refined_poincare_defect(part, k, delta, field, tau, bg):
    """Empirical constant of the shell-localized low-frequency inequality.

    Compares |P_k F|^2 against
        (1/delta) 2^-2k |grad P_k F|^2
      + delta sum_{0 <= l < k} 2^(-9k+7l) |grad P_l F|^2
      + (1/delta) 2^-4k |F|^2
    and returns LHS / RHS (0 for the zero field).  The returned value is the
    constant the inequality would need, so stability under refinement is the
    thing to watch, not its absolute size.  A sequence of deltas gives an
    array, one constant per delta.
    """
    _check_k(part, k)
    deltas = np.asarray(delta, dtype=float)
    if np.any(deltas <= 0.0):
        raise ValueError(f"delta must be positive, got {delta}")
    lat = field.lattice
    power = _degree_power(lat, field.coeffs)
    lam = eigenvalue_at(bg, lat.lam0, tau)
    # shells l < k with l >= 0 feed the middle term, then shell k itself
    js = np.arange(min(k, 0), k + 1)
    w = _shell_table(part, lam)[js - part.k_min] ** 2
    shell = w[-1] @ power  # |P_k F|^2
    grad = (w * lam) @ power  # |grad P_j F|^2
    low = np.dot(2.0 ** (7 * js[:-1] - 9 * k), grad[:-1])
    rhs = (2.0 ** (-2 * k) * grad[-1] + 2.0 ** (-4 * k) * np.sum(power)) / deltas + deltas * low
    out = np.divide(shell, rhs, out=np.zeros(rhs.shape), where=shell != 0.0)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PropertyCheck:
    constant: float
    threshold: float
    passed: bool


@dataclass(frozen=True)
class PropertyReport:
    passed: bool
    checks: dict  # name -> PropertyCheck, in the order they ran
    meta: dict


def _coverage_mask(part, lam):
    """Modes whose dyadic window is fully inside the cell range."""
    ok = lam > 0.0
    u = np.full_like(lam, -np.inf)
    u[ok] = np.log(lam[ok]) / math.log(4.0) - part.shift
    return ok & (u >= part.k_min) & (u <= part.k_max)


def _within_roundoff(constant, bound):
    """A check that the empirical constant stays below a computed sup bound."""
    threshold = bound * (1.0 + 1e-9)
    return PropertyCheck(constant, threshold, constant <= threshold)


def check_lp_properties(part, lattice, bg, tau, n_fields=32, seed=0):
    """Empirical constants for the multiplier-calculus inequalities.

    Runs a seeded random corpus through: exact partition of unity on a fine
    frequency grid, the two-sided frequency-localization identities (summed
    shells reproduce the full square norm), the single-shell derivative bound,
    staggered-family almost-orthogonality with 2^(4|k-l|) weights, the
    log-derivative smoothing bound with exponent gap 1/10, and uniformity in k
    of the time-commutator norm.  Thresholds are computed support bounds, not
    tuned numbers.  Every corpus check reads the per-degree power of the
    fields (row f of ``power``) against a shell table.
    """
    if not tau > 0.0:  # the time commutator carries 1 / tau
        raise ValueError(f"tau must be positive, got {tau}")
    rng = np.random.default_rng(seed)
    lam = eigenvalue_at(bg, lattice.lam0, tau)
    covered = _coverage_mask(part, lam)
    if not np.any(covered):
        raise ValueError("no lattice mode is covered by the cell range at this tau")
    ks = np.asarray(part.ks)
    checks = {}

    # partition of unity on a fine grid spanning the covered window
    grid = np.geomspace(4.0 ** (part.k_min + part.shift), 4.0 ** (part.k_max + part.shift), 4096)
    pou_defect = float(np.max(np.abs(np.sum(_shell_table(part, grid) ** 2, axis=0) - 1.0)))
    checks["partition_of_unity"] = PropertyCheck(pou_defect, 1e-12, pou_defect <= 1e-12)

    # the corpus restricted to covered modes, kept only as per-degree power
    power = []
    for _ in range(n_fields):
        p = _degree_power(lattice, random_field(lattice, rng, decay=1.0).coeffs)
        p[~covered] = 0.0
        if np.any(p):
            power.append(p)
    if not power:
        raise ValueError(f"none of the {n_fields} corpus fields has power on a covered mode")
    power = np.array(power)
    total = np.sum(power, axis=1)
    nf = np.sqrt(total)[:, None]
    w = _shell_table(part, lam) ** 2

    # summed shells against the plain square norm
    bessel_dev = float(np.max(np.abs(np.einsum("kl,fl->f", w, power) / total - 1.0), initial=0.0))
    checks["bessel_constant"] = PropertyCheck(bessel_dev, 1e-10, bessel_dev <= 1e-10)

    # single-shell derivative bound; threshold = sup sqrt(mu) M(mu) over the support
    sup_grid = np.geomspace(4.0 ** (part.shift - 1.0), 4.0 ** (part.shift + 1.0), 4001)
    band_bound = float(np.max(np.sqrt(sup_grid) * part.bump(sup_grid)))
    grad = np.sqrt(np.einsum("kl,fl->fk", w * lam, power))
    band_emp = float(np.max(grad / (2.0**ks * nf), initial=0.0))
    checks["finite_band"] = _within_roundoff(band_emp, band_bound)

    # staggered second family: shells three or more cells apart must vanish
    other = make_partition(part.k_min, part.k_max, part.smoothness,
                           shift=part.shift + 0.5 if part.shift <= 0.0 else part.shift - 0.5)
    cross = np.sqrt(np.einsum("kd,ld,fd->fkl", w, _shell_table(other, lam) ** 2, power))
    gap = np.abs(ks[:, None] - ks[None, :])
    disjoint_max = float(np.max(cross[:, gap >= 3], initial=0.0))
    ortho_emp = float(np.max(2.0 ** (4 * gap) * cross / nf[:, :, None], initial=0.0))
    ortho_ok = ortho_emp <= 256.0 and disjoint_max == 0.0
    checks["almost_orthogonality"] = PropertyCheck(ortho_emp, 256.0, ortho_ok)

    # log-derivative smoothing against the closed-form bound: the squared bumps
    # at lambda sum to at most 1 over cells k < log_4 lambda - shift + 1, so
    # ell(lambda) <= max(0, log(lambda) / 2 + (1 - shift) log 2)
    ell_max = 0.5 * np.log(np.maximum(1.0, lam * 4.0 ** (1.0 - part.shift)))
    log_bound = float(np.max(ell_max / (1.0 + lam) ** (0.5 * LOG_GRAD_ETA)))
    ell = log_grad_weights(part, lam)
    num = np.sqrt(power @ (ell * ell))
    den = np.sqrt(power @ (1.0 + lam) ** LOG_GRAD_ETA)
    log_emp = float(np.max(num / den, initial=0.0))
    checks["log_grad_bound"] = _within_roundoff(log_emp, log_bound)

    # time-commutator uniformity in k
    comm_bound = float(bg.kappa(tau) * np.max(sup_grid * np.abs(part.bump_prime(sup_grid))))
    rate = eigenvalue_rate(bg, lattice.lam0, tau)
    wc = -_shell_table(part, lam, prime=True) * 4.0 ** (-ks[:, None]) * rate / (2.0 * tau)
    comm = np.sqrt(np.einsum("kl,fl->fk", wc * wc, power))
    comm_emp = float(np.max(comm / nf, initial=0.0))
    checks["commutator_bound"] = _within_roundoff(comm_emp, comm_bound)

    meta = {
        "n": lattice.n,
        "l_max": lattice.l_max,
        "tau": float(tau),
        "seed": int(seed),
        "n_fields": len(power),
        "k_min": part.k_min,
        "k_max": part.k_max,
        "smoothness": part.smoothness,
        "shift": part.shift,
        "eta": LOG_GRAD_ETA,
    }
    return PropertyReport(passed=all(c.passed for c in checks.values()), checks=checks, meta=meta)


@dataclass(frozen=True)
class PoincareReport:
    """Empirical constants of the shell-localized inequality per (delta, l_max)."""

    deltas: tuple[float, ...]
    resolutions: tuple[int, ...]
    constants: tuple[tuple[float, ...], ...]  # [delta][resolution]
    drift_factors: tuple[tuple[float, ...], ...]
    n_fields: int
    passed: bool


def _poincare_cells(part, lam):
    """The cells k_lo..k_hi a Poincare corpus draws from, each k >= 0.

    k_hi is the top cell whose center the spectrum reaches, capped at k_max;
    k_lo is the first cell from 0 up that holds a mode, so that every corpus
    constant is positive.  A spectrum that leaves no such cell (top eigenvalue
    below 1, or every mode above cell k_hi) raises ValueError.
    """
    top = float(np.max(lam))
    if not 1.0 <= top < math.inf:
        raise ValueError(f"the top eigenvalue is {top:.3g}, not a finite value >= 1, "
                         "so no cell k >= 0 holds a mode")
    k_hi = min(part.k_max, int(math.floor(math.log(top, 4.0))))
    cells = _shell_table(part, lam)[-part.k_min : k_hi - part.k_min + 1]  # k = 0..k_hi
    occupied = np.flatnonzero(np.any(cells > 0.0, axis=1))
    if occupied.size == 0:
        raise ValueError(f"every mode lies above the cells 0..{k_hi}: the lowest positive "
                         f"eigenvalue is {float(np.min(lam[lam > 0.0])):.3g}")
    return int(occupied[0]), k_hi


def verify_refined_poincare(part, bg, resolutions=(32, 64, 128), deltas=(0.1, 1.0, 10.0),
                            n_fields=500, tau=0.5, seed=0, n_sphere=2):
    """Corpus sweep of refined_poincare_defect across lattice resolutions.

    For each resolution a seeded corpus of rough random fields is paired with
    random cells k >= 0 that hold a mode (see _poincare_cells; a spectrum
    without one raises ValueError).  The per-delta max constant must stay
    finite and move by less than a factor 2 between consecutive resolutions,
    so at least two strictly increasing resolutions are needed.
    """
    if any(d <= 0.0 for d in deltas):
        raise ValueError("deltas must be positive")
    _check_resolutions(resolutions)
    constants = []
    for l_max in resolutions:
        lattice = build_lattice(n_sphere, l_max)
        rng = np.random.default_rng(seed)
        try:
            k_lo, k_hi = _poincare_cells(part, eigenvalue_at(bg, lattice.lam0, tau))
        except ValueError as exc:
            raise ValueError(f"l_max={l_max}: {exc} (tau={tau:g})") from None
        # the draws interleave fields and cells; keep only the running maxima
        worst = np.zeros(len(deltas))
        for _ in range(n_fields):
            field = random_field(lattice, rng, decay=1.0)
            k = int(rng.integers(k_lo, k_hi + 1))
            worst = np.maximum(worst, refined_poincare_defect(part, k, deltas, field, tau, bg))
        constants.append(worst)
    constants = np.transpose(constants)  # [delta][resolution]
    lo, hi = constants[:, :-1], constants[:, 1:]
    drift = np.maximum(lo, hi) / np.minimum(lo, hi)
    return PoincareReport(
        deltas=tuple(deltas),
        resolutions=tuple(resolutions),
        constants=tuple(map(tuple, constants.tolist())),
        drift_factors=tuple(map(tuple, drift.tolist())),
        n_fields=n_fields,
        passed=bool(np.all(np.isfinite(constants)) and np.all(drift < 2.0)),
    )
