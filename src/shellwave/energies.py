"""Energy functionals, decay measurements and boundedness verdicts.

The two theorem-style checks compare a time-dependent energy against the
asymptotic-data norm plus the accumulated forcing, over ensembles of random
draws and several lattice resolutions.

Each energy functional is defined once, in the weight tables
``_energy_weights`` (per column, weights on value^2 and derivative^2, plus the
backward family's integrand accumulated from tau up to 1) and
``_data_weights``; the forcing budgets and the one ensemble kernel of both
families read them.  Ensembles never re-integrate per draw: per degree a draw
reduces to its Gram matrix and slot sum against the propagators of
:mod:`.modelsys`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lattice import _check_resolutions, build_lattice, eigenvalue_at
from .lp import _degree_power
from .modelsys import (
    Forcing,
    SystemConfig,
    _eval_taus,
    bessel_oracle,
    constant_mode_run,
    data_to_state_maps,
    forced_profile,
    fundamental_matrices,
    random_coupling,
)

__all__ = [
    "DecayReport",
    "BlowupReport",
    "TheoremReport",
    "fit_power_exponent",
    "shell_decay_check",
    "singular_blowup_check",
    "forcing_energy_first",
    "forcing_energy_second",
    "verify_theorem_ratio",
]


# ------------------------------------------------------------------ fitting


def fit_power_exponent(xs, ys):
    """Least-squares dyadic rate a of y ~ C 2^(a x) over shell indices x.

    Returns a and the largest residual in log y.  Requires at least four
    samples and positive ordinates; a fit through fewer shells says nothing
    about a rate.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.size < 4:
        raise ValueError(f"need at least 4 samples for a rate fit, got {xs.size}")
    if np.any(ys <= 0.0):
        raise ValueError("ordinates must be positive")
    lx = xs * math.log(2.0)
    ly = np.log(ys)
    a = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(a, ly, rcond=None)
    fitted = a @ coef
    resid = float(np.max(np.abs(ly - fitted)))
    return float(coef[0]), resid


# --------------------------------------------------------------- toy decay


@dataclass(frozen=True)
class DecayReport:
    slope: float
    target: float
    tolerance: float
    max_oracle_deviation: float
    deviation_limit: float
    passed: bool


def _oracle_envelope(kind, omega, tau):
    """Branch value, x-derivative and envelope at argument x = omega * tau.

    bessel_oracle(kind, 1, x/2) evaluates the branch at plain argument x; the
    derivative uses a central step, accurate far beyond the slope tolerance.
    """
    x = omega * tau
    h = 1e-4
    u = bessel_oracle(kind, 1.0, 0.5 * x)
    up = (bessel_oracle(kind, 1.0, 0.5 * (x + h))
          - bessel_oracle(kind, 1.0, 0.5 * (x - h))) / (2.0 * h)
    return math.sqrt(u * u + up * up), u, up


# relative distance allowed between an integrated amplitude and its oracle
_ORACLE_DEVIATION_LIMIT = 1e-6


def shell_decay_check(l_lo=4, l_hi=12, branch="J",
                      slope_target=-0.5, tolerance=0.025):
    """Dyadic decay of the calibration mode family u'' + u'/tau + 4^l u = 0.

    Each member is seeded from the oracle at tau = 0.05 and integrated to
    tau = 1; the phase-free amplitude there must fall off like 2^(-l/2).
    The integrator endpoints are also checked against the oracle envelope:
    each amplitude must lie within a relative 1e-6 of it.  Returns the
    report and the amplitudes by degree.
    """
    if branch not in ("J", "Y"):
        raise ValueError(f"branch must be 'J' or 'Y', got {branch!r}")
    degrees = list(range(l_lo, l_hi + 1))
    if len(degrees) < 4:
        raise ValueError("need at least four dyadic members for a slope")
    tau_seed = 0.05
    amps, devs = [], []
    for l in degrees:
        lam = 4.0**l  # equation coefficient; solutions oscillate at omega = 2^l
        omega = 2.0**l
        _, u0, up0 = _oracle_envelope(branch, omega, tau_seed)
        du0 = omega * up0  # d/dtau = omega * d/dx
        taus, u, du = constant_mode_run(lam, u0, du0, tau_seed, 1.0,
                                        taus=np.array([tau_seed, 1.0]))
        amp = math.sqrt(u[-1] ** 2 + (du[-1] / omega) ** 2)
        ref, _, _ = _oracle_envelope(branch, omega, 1.0)
        amps.append(amp)
        devs.append(abs(amp - ref) / ref)
    slope, _ = fit_power_exponent(np.array(degrees, dtype=float), np.array(amps))
    worst = float(max(devs))
    passed = abs(slope - slope_target) <= tolerance and worst <= _ORACLE_DEVIATION_LIMIT
    report = DecayReport(slope=slope, target=slope_target, tolerance=tolerance,
                         max_oracle_deviation=worst, deviation_limit=_ORACLE_DEVIATION_LIMIT,
                         passed=passed)
    return report, dict(zip(degrees, amps))


# ------------------------------------------------------------- blowup rate


@dataclass(frozen=True)
class BlowupReport:
    taus: np.ndarray
    values: np.ndarray
    sup_value: float
    decade_sups: tuple[float, ...]
    drifts: tuple[float, ...]
    drift_limit: float
    passed: bool


# the per-decade drift the normalized log-branch growth must settle under
_DRIFT_LIMIT = 0.10


def _blowup_weights(bg, lam0, taus, top_order):
    """Per (time, degree): the graded H^1 weight (1 + lambda) sum_{g <= M} lambda^g
    through the top derivative order M, over the log growth 1 + log^2 tau."""
    lam = eigenvalue_at(bg, lam0, taus[:, None])
    graded = sum(lam**g for g in range(top_order + 1)) * (1.0 + lam)
    return graded / (1.0 + np.log(taus) ** 2)[:, None]


def singular_blowup_check(config, lattice, bg, part, o_rows, grid):
    """Normalized growth of the log-branch component, one report per row of ``o_rows``.

    The log-branch column is homogeneous, couples only to itself and starts
    from O times the O column of ``data_to_state_maps``, so on a slot of
    degree l it is O_s g_l(tau), with g_l from one per-degree solve on
    ``config``.  The statistic weighs g_l^2 with ``_blowup_weights`` and the
    degree power Pi_l of O, and divides by O's part of the forward data norm
    (``_data_weights``), sum_l (1 + lambda_l(0))^(M+1) Pi_l.  It is read at
    the seed time and the grid times above it, and must settle to a
    per-decade drift under the report's ``drift_limit`` below tau = 1e-3,
    over at least two full decades.
    """
    if np.any(config.coupling_scale[0, 1:] != 0.0):
        raise ValueError("the log-branch column couples only to itself, not to regular columns")
    o_rows = np.asarray(o_rows, dtype=float)
    if o_rows.ndim != 2 or o_rows.shape[1] != lattice.n_slots:
        raise ValueError(f"need rows of {lattice.n_slots} slot coefficients, got {o_rows.shape}")
    tau_seed = config.tau_seed
    n_decades = int(math.floor(math.log10(1e-3 / tau_seed) + 1e-9))
    if n_decades < 2:
        raise ValueError(
            f"grid reaches only tau={tau_seed:g}; need at least two full decades "
            "below 1e-3 to measure drift"
        )
    taus = _eval_taus(tau_seed, 1.0, grid)
    his = 1e-3 / 10.0 ** np.arange(n_decades)[:, None]
    decades = (taus >= his / 10.0) & (taus <= his)  # (n_decades, n_times)
    if not np.all(np.any(decades, axis=1)):
        raise ValueError("need a grid time in every decade below 1e-3")
    power = _degree_power(lattice, o_rows)  # (n_draws, n_degrees)
    data_sq = power @ _data_weights("first", config.top_order, config.n_columns, bg,
                                    lattice.lam0)[0]
    if np.any(data_sq == 0.0):
        raise ValueError("log-branch data is identically zero")

    props = fundamental_matrices(config, lattice, bg, tau_seed, taus)
    o_column = data_to_state_maps(config, lattice, bg, tau_seed, part)[:, :, 0]
    g = np.einsum("ltj,lj->tl", props[:, :, 0], o_column)
    vals = (power @ (_blowup_weights(bg, lattice.lam0, taus, config.top_order) * g * g).T
            / data_sq[:, None])
    sups = np.where(decades, vals[:, None], -np.inf).max(axis=2)  # (n_draws, n_decades)
    drifts = np.abs(sups[:, :-1] - sups[:, 1:]) / sups[:, 1:]
    finite = np.all(np.isfinite(vals), axis=1)
    return [BlowupReport(taus=taus, values=row, sup_value=float(np.max(row)),
                         decade_sups=tuple(s.tolist()), drifts=tuple(d.tolist()),
                         drift_limit=_DRIFT_LIMIT, passed=bool(ok and np.all(d < _DRIFT_LIMIT)))
            for row, s, d, ok in zip(vals, sups, drifts, finite)]


# ------------------------------------------------------ energy functionals


def _energy_weights(system, top_order, n_cols, lam, tau):
    """The weight table of both families' energy functionals.

    ``lam`` and ``tau`` broadcast to one shape.  Returns ``(weights,
    forcing)``.  ``weights`` has shape (2, 2, n_cols, *shape): row 0 the
    pointwise energy, row 1 the integrand the backward family accumulates
    from tau up to 1 (zero for the forward family), each weighing the squares
    of every column's values and tau-derivatives.  ``forcing`` weighs the
    square of every column's forcing in the integrand of the forcing budget.
    """
    m = top_order
    lam, tau = np.broadcast_arrays(np.asarray(lam, dtype=float), np.asarray(tau, dtype=float))
    one = 1.0 + lam
    weights = np.zeros((2, 2, n_cols) + lam.shape)
    point, tail = weights
    if system == "first":
        grad_half = lam**m * one**0.5
        point[0, 0] = tau**2 * lam**m * one**1.5
        point[1, 0] = tau**2 * grad_half
        point[0, 1:] = tau * lam * grad_half + one ** (m + 1)
        point[1, 1:] = tau * grad_half
        forcing = sum(lam**g for g in range(m + 1)) + tau * grad_half
    else:
        # sum over g <= M of lambda^g (1 + lambda)^(1/2): the graded H^(1/2) weight
        graded_half = one**0.5 * sum(lam**g for g in range(m + 1))
        point[0, 0] = tau * one ** (m + 0.5) + tau**2 * one ** (m + 1.5)
        point[1, 0] = tau**2 * (lam**m * one**0.5 + sum(lam**g for g in range(m)))
        point[0, 1:] = one ** (m + 1.5)
        point[1, 1:] = graded_half
        tail[0, 0] = tau * one ** (m + 1)
        tail[1, 1:] = graded_half / tau
        forcing = tau * graded_half
    return weights, forcing


def _data_weights(system, top_order, n_cols, bg, lam0):
    """Weights of the data norm on the squares of one data vector's entries.

    Forward family: (O, frak_h, phi0_1..phi0_I), each in H^(M+1) at tau = 0.
    Backward family: the state at tau = 1, (values, derivs) of every column
    in H^(M+3/2) and H^(M+1/2).  Returns shape (k, *lam0.shape).
    """
    m = top_order
    if system == "first":
        one = 1.0 + eigenvalue_at(bg, lam0, 0.0)
        return np.stack([one ** (m + 1)] * (n_cols + 1))
    one = 1.0 + eigenvalue_at(bg, lam0, 1.0)
    return np.stack([one ** (m + 1.5)] * n_cols + [one ** (m + 0.5)] * n_cols)


def _cumtrapz(taus, integrand):
    """Trapezoid integral along the grid from its first time; time is the last axis."""
    steps = np.abs(np.diff(taus))
    parts = 0.5 * steps * (integrand[..., 1:] + integrand[..., :-1])
    return np.concatenate([np.zeros_like(integrand[..., :1]), np.cumsum(parts, axis=-1)],
                          axis=-1)


def _forcing_budget(config, lattice, bg, taus, system):
    """Time-integrated forcing squares along the grid from its first time."""
    taus = np.asarray(taus, dtype=float)
    lam = eigenvalue_at(bg, lattice.lam0[None, :], taus[:, None])
    _, weight = _energy_weights(system, config.top_order, config.n_columns,
                                lam, taus[:, None])
    # summed over columns per time; every slot of every degree is forced alike
    forcing_sq = np.zeros(len(taus))
    for f in config.forcing_list():
        forcing_sq += np.array([f.profile(tau) for tau in taus]) ** 2
    return _cumtrapz(taus, (weight * forcing_sq[:, None]) @ lattice.mult)


def forcing_energy_first(config, lattice, bg, taus):
    """Cumulative forcing budget from the start of the grid.

    Per column: the L^2 squares of the graded forcings through order M plus
    the tau-weighted H^(1/2) square at the top order, both time-integrated.
    """
    return _forcing_budget(config, lattice, bg, taus, "first")


def forcing_energy_second(config, lattice, bg, taus):
    """Accumulated tau-weighted H^(1/2) forcing squares from tau up to 1."""
    taus = np.asarray(taus, dtype=float)
    if len(taus) > 1 and taus[0] < taus[-1]:
        raise ValueError("backward forcing budget expects a descending grid")
    return _forcing_budget(config, lattice, bg, taus, "second")


# ------------------------------------------------------- theorem ensembles


@dataclass(frozen=True)
class TheoremReport:
    resolutions: tuple[int, ...]
    max_ratios: tuple[float, ...]
    median_ratios: tuple[float, ...]
    doubling_factors: tuple[float, ...]
    passed: bool


def _ensemble_ratios(config, lattice, bg, part, draws, taus):
    """Energy / (data + forcing) of every draw at every time; (n_draws, n_times).

    Forward family: a draw holds per-slot asymptotic data (O, frak_h,
    phi0_1..phi0_I) and taus ascend from the seed time.  Backward family: a
    draw holds the per-slot (values, derivs) state at tau = 1 and taus
    descend from 1.  All slots of degree l share the propagator P (with the
    data-to-seed map folded in) and the forced response f, so a draw enters
    only through its Gram matrix G = sum_s x_s x_s^T and slot sum S:
    sum_s (P x_s + f)^2 = diag(P G P^T) + 2 diag(P S) f + m_l f^2.
    """
    system, n_cols, m = config.system, config.n_columns, config.top_order
    props = fundamental_matrices(config, lattice, bg, taus[0], taus)
    if system == "first":
        props = props @ data_to_state_maps(config, lattice, bg, taus[0], part)[:, None]
        budget = forcing_energy_first(config, lattice, bg, taus)
    else:
        budget = forcing_energy_second(config, lattice, bg, taus)
    forced = forced_profile(config, lattice, bg, taus[0], taus)
    data_w = _data_weights(system, m, n_cols, bg, lattice.lam0)
    acc = np.zeros((2, draws.shape[0], len(taus)))  # pointwise energy, tail integrand
    data_sq = np.zeros(draws.shape[0])
    for l in range(lattice.l_max + 1):
        x = draws[:, lattice.slots_of_degree(l), :]
        gram = np.einsum("nsa,nsb->nab", x, x)
        p, f = props[l], forced[l]  # (n_times, d, k), (n_times, d)
        # slot sums of squared (values, tau * derivs), (n_draws, n_times, d)
        sq = (np.einsum("ntak,tak->nta", p @ gram[:, None], p)
              + 2.0 * np.einsum("tak,nk->nta", p, x.sum(axis=1)) * f
              + lattice.mult[l] * f * f)
        lam = eigenvalue_at(bg, lattice.lam0[l], taus)
        weights, _ = _energy_weights(system, m, n_cols, lam, taus)
        weights[:, 1] /= taus**2  # the kernel carries tau * derivs
        acc += np.einsum("nta,jat->jnt", sq, weights.reshape(2, 2 * n_cols, -1))
        data_sq += np.einsum("naa,a->n", gram, data_w[:, l])
    energies = acc[0] + _cumtrapz(taus, acc[1])
    return energies / (data_sq[:, None] + budget[None, :])


def verify_theorem_ratio(system, part, bg, resolutions=(32, 64, 128), n_draws=50,
                         n_regular=2, top_order=2, coupling_scale=0.0, seed=0,
                         n_sphere=2):
    """Boundedness of energy / (data + forcing) over random ensembles.

    For the forward family draws are asymptotic data at the singular time and
    the energy runs from tau = 1e-4 to 1; for the backward family draws are
    endpoint states at tau = 1 evolved down to 1e-3.  The max ratio must be
    finite and move by less than a factor 2 between consecutive resolution
    doublings, so at least two strictly increasing resolutions are needed.
    """
    if system not in ("first", "second"):
        raise ValueError(f"system must be 'first' or 'second', got {system!r}")
    _check_resolutions(resolutions)
    rng = np.random.default_rng(seed)
    decay = 2.0 * top_order + 3.0
    # one coupling draw shared by every resolution, so the doubling comparison
    # sees the same operator
    cs, cp = None, None
    if coupling_scale:
        cs, cp = random_coupling(n_regular, system, rng, coupling_scale)
    config = SystemConfig(
        n_regular=n_regular, system=system, top_order=top_order, coupling_scale=cs,
        coupling_psi=cp, forcings=tuple(_default_forcing(i) for i in range(n_regular + 1)),
        rtol=1e-9, atol=1e-11,
    )
    n_cols = config.n_columns
    if system == "first":
        taus = np.geomspace(config.tau_seed, 1.0, 49)
        entries = n_cols + 1
    else:
        taus = np.geomspace(1.0, 1e-3, 49)
        entries = 2 * n_cols
    max_ratios, med_ratios = [], []
    for l_max in resolutions:
        lattice = build_lattice(n_sphere, l_max)
        draws = rng.standard_normal((n_draws, lattice.n_slots, entries))
        draws *= lattice.damping(decay)[None, :, None]
        sup = np.max(_ensemble_ratios(config, lattice, bg, part, draws, taus), axis=1)
        max_ratios.append(float(np.max(sup)))
        med_ratios.append(float(np.median(sup)))
    factors = tuple(
        max(a, b) / min(a, b) for a, b in zip(max_ratios[:-1], max_ratios[1:])
    )
    finite = all(math.isfinite(r) for r in max_ratios)
    passed = finite and all(f < 2.0 for f in factors)
    return TheoremReport(
        resolutions=tuple(resolutions), max_ratios=tuple(max_ratios),
        median_ratios=tuple(med_ratios), doubling_factors=factors, passed=passed,
    )


def _default_forcing(column):
    if column == 0:
        return Forcing(amplitude=0.3, center=0.5, width=0.15)
    return Forcing(amplitude=0.2, center=0.3 + 0.1 * column, width=0.1)
