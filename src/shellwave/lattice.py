"""Diagonal spectral lattice on the round sphere, with conformal backgrounds.

Everything downstream works in a fixed eigenbasis of the round Laplacian on
S^n, so a field is just one coefficient per eigenmode slot.  A conformal
background rescales the metric by f(tau)^2, which moves every eigenvalue to
lambda(tau) = lambda0 / f(tau)^2 and nothing else.  That is the whole model:
operators are multipliers, norms are weighted sums of squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "Lattice",
    "ConformalBackground",
    "Field",
    "build_lattice",
    "desitter_background",
    "constant_background",
    "eigenvalue_at",
    "eigenvalue_rate",
    "sphere_eigenvalue",
    "sphere_multiplicity",
    "random_field",
    "make_time_grid",
]


def sphere_eigenvalue(n, l):
    """Laplace eigenvalue l*(l+n-1) of degree-l harmonics on the unit S^n."""
    return float(l * (l + n - 1))


def sphere_multiplicity(n, l):
    """Dimension of the degree-l spherical-harmonic space on S^n.

    Closed form C(n+l, n) - C(n+l-2, n); the second term is absent for l < 2.
    """
    if l < 0:
        raise ValueError(f"degree must be nonnegative, got {l}")
    dim = math.comb(n + l, n)
    if l >= 2:
        dim -= math.comb(n + l - 2, n)
    return dim


@dataclass(frozen=True, eq=False)
class Lattice:
    """Fixed eigenbasis bookkeeping for S^n truncated at degree l_max.

    Arrays indexed by degree run over l = 0..l_max; arrays indexed by slot run
    over one entry per harmonic, degree by degree.  Multipliers depend only on
    the degree, so the lattice stores nothing per slot: ``np.repeat(a, mult)``
    spreads a per-degree array over the slots.
    """

    n: int
    l_max: int
    lam0: np.ndarray
    mult: np.ndarray
    offsets: np.ndarray

    @property
    def n_slots(self):
        return int(self.offsets[-1])

    def slots_of_degree(self, l):
        """Slice of the slot axis belonging to degree l."""
        return slice(int(self.offsets[l]), int(self.offsets[l + 1]))

    def damping(self, decay):
        """Per-slot (1 + lam0)^(-decay/2), raised once per degree."""
        return np.repeat((1.0 + self.lam0) ** (-0.5 * decay), self.mult)


def _check_resolutions(resolutions):
    """Reject a list of l_max values that cannot show drift under refinement."""
    res = tuple(resolutions)
    if len(res) < 2:
        raise ValueError(f"need at least two resolutions to compare, got {res}")
    if any(a >= b for a, b in zip(res[:-1], res[1:])):
        raise ValueError(f"resolutions must strictly increase, got {res}")


def build_lattice(n, l_max):
    """Build the truncated spectral lattice for S^n.

    Parameters
    ----------
    n : int
        Sphere dimension, >= 1.
    l_max : int
        Largest harmonic degree kept, >= 0.
    """
    if n < 1:
        raise ValueError(f"sphere dimension must be >= 1, got {n}")
    if l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max}")
    degrees = np.arange(l_max + 1)
    lam0 = np.array([sphere_eigenvalue(n, l) for l in degrees], dtype=float)
    mult = np.array([sphere_multiplicity(n, l) for l in degrees], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(mult)])
    return Lattice(
        n=int(n),
        l_max=int(l_max),
        lam0=lam0,
        mult=mult,
        offsets=offsets,
    )


@dataclass(frozen=True)
class ConformalBackground:
    """Conformal factor profile f(tau) = sum_j f_even[j] tau^(2j).

    Only even profiles that stay positive on [0, 1] are admitted, so that
    f'(tau)/tau extends smoothly to tau = 0; kappa(tau) = f'(tau)/(tau f(tau))
    and lambda = lam0 / f^2 are then finite on the closed interval and the
    three coupling weights {1, kappa, tau^2 kappa} are well defined everywhere.
    """

    name: str
    f_even: tuple[float, ...]
    # the least value of f on [0, 1], found once at construction
    f_min: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.f_even:
            raise ValueError("f_even must have at least the constant term")
        # f is a polynomial in u = tau^2; its minimum on [0, 1] sits at an end
        # or at a real critical point inside, and lambda = lam0 / f^2 needs it > 0
        poly = np.polynomial.Polynomial(self.f_even)
        crit = poly.deriv().roots()
        inner = crit.real[(crit.imag == 0.0) & (crit.real > 0.0) & (crit.real < 1.0)]
        u = np.concatenate([[0.0, 1.0], inner])
        at = int(np.argmin(poly(u)))
        object.__setattr__(self, "f_min", float(poly(u[at])))
        if self.f_min <= 0.0:
            raise ValueError(f"f must stay positive on [0, 1], but it reaches "
                             f"{self.f_min:.3g} at tau = {math.sqrt(u[at]):.3g}")

    def f(self, tau):
        return _even_horner(self.f_even, tau)

    def f_prime(self, tau):
        if not isinstance(tau, float):
            tau = np.asarray(tau, dtype=float)
        return self.f_prime_over_tau(tau) * tau

    def f_prime_over_tau(self, tau):
        return _even_horner(self._f_prime_over_tau_even, tau)

    @cached_property
    def _f_prime_over_tau_even(self):
        # d/dtau sum c_j tau^(2j) = tau * sum 2j c_j tau^(2j-2); smooth at 0.
        return tuple(2 * j * c for j, c in enumerate(self.f_even))[1:]

    def kappa(self, tau):
        """f'(tau) / (tau f(tau)), extended continuously to tau = 0."""
        return self.f_prime_over_tau(tau) / self.f(tau)


def _even_horner(coeffs, tau):
    """sum_j coeffs[j] tau^(2j) by Horner's rule.

    A Python float in gives a float out, with the bits of the numpy path: the
    log-chart RHS evaluates the background at one float tau per stage, where
    0-d array overhead would cost more than the state arithmetic.
    """
    if isinstance(tau, float):
        u, out = tau * tau, 0.0
    else:
        tau = np.asarray(tau, dtype=float)
        u = tau * tau
        out = np.zeros_like(u)
    for c in reversed(coeffs):
        out = out * u + c
    return out


def desitter_background():
    """The shrinking-sphere profile f(tau) = 1/2 + 2 tau^2."""
    return ConformalBackground(name="desitter", f_even=(0.5, 2.0))


def constant_background(f0=1.0):
    """Frozen profile f = f0; kappa vanishes identically."""
    return ConformalBackground(name=f"constant({f0})", f_even=(float(f0),))


def eigenvalue_at(bg, lam0, tau):
    """Rescaled eigenvalue lambda(tau) = lam0 / f(tau)^2."""
    f = bg.f(tau)
    return np.asarray(lam0, dtype=float) / (f * f)


def eigenvalue_rate(bg, lam0, tau):
    """d lambda / d tau = -2 lam0 f'(tau) / f(tau)^3."""
    f = bg.f(tau)
    return -2.0 * np.asarray(lam0, dtype=float) * bg.f_prime(tau) / (f * f * f)


@dataclass(frozen=True, eq=False)
class Field:
    """One real coefficient per lattice slot; nothing writes into ``coeffs`` in place."""

    lattice: Lattice
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if self.coeffs.shape != (self.lattice.n_slots,):
            raise ValueError(
                f"coeffs shape {self.coeffs.shape} does not match "
                f"{self.lattice.n_slots} lattice slots"
            )


def random_field(lattice, rng, decay=1.0):
    """Gaussian coefficients damped by (1 + lam0)^(-decay/2) per slot."""
    c = rng.standard_normal(lattice.n_slots)
    c *= lattice.damping(decay)
    return Field(lattice=lattice, coeffs=c)


def make_time_grid(tau_min, tau_max=1.0, count=33):
    """Log-spaced times, which suit the collapsing end: a strictly increasing
    float array in (0, 1]."""
    if not 0.0 < tau_min < tau_max <= 1.0:
        raise ValueError(f"need 0 < tau_min < tau_max <= 1, got [{tau_min}, {tau_max}]")
    if count < 2:
        raise ValueError("count must be at least 2")
    taus = np.geomspace(tau_min, tau_max, count)
    # guard the endpoints against geomspace rounding
    taus[0], taus[-1] = tau_min, tau_max
    if np.any(np.diff(taus) <= 0.0):
        raise ValueError(f"{count} times do not increase strictly on [{tau_min}, {tau_max}]")
    return taus
