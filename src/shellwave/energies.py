"""Energy functionals, decay measurements and boundedness verdicts.

The two theorem-style checks compare a time-dependent energy against the
asymptotic-data norm plus the accumulated forcing, over ensembles of random
draws and several lattice resolutions.

Each energy functional is defined once, in the weight tables
``_energy_weights`` (per column, weights on value^2 and derivative^2, plus the
backward family's integrand accumulated from tau up to 1) and
``_data_weights``.  The one ensemble kernel of both families builds the first
table once on its (degree, time) grid and reads the energy, the tail and the
forcing budget from it.  Ensembles never re-integrate per draw: a draw enters
through its per-degree Gram matrix and slot sum, against the forms P^T W P of
the propagators of :mod:`.modelsys`, and the draws are folded into those
tables chunk by chunk, never held all at once.
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
    vals = power @ (_blowup_weights(bg, lattice.lam0, taus, config.top_order) * g * g).T
    vals /= data_sq[:, None]
    # one decade at a time, so that no working array outgrows vals
    sups = np.stack([vals[:, d].max(axis=1) for d in decades], axis=1)  # (n_draws, n_decades)
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
    out = np.zeros_like(integrand)
    parts = integrand[..., 1:] + integrand[..., :-1]
    parts *= 0.5 * np.abs(np.diff(taus))
    np.cumsum(parts, axis=-1, out=out[..., 1:])
    return out


# ------------------------------------------------------- theorem ensembles


# the most memory one chunk of an ensemble's draws may take, unless a single
# draw is larger: 1 MiB
_CHUNK_BYTES = 2**20
# the time grid an ensemble's ratios are read on
_ENSEMBLE_TIMES = 49


def _chunk_draws(draw_floats):
    """Draws per chunk of an ensemble whose draw holds ``draw_floats`` floats:
    as many as fit in _CHUNK_BYTES, and at least one."""
    return max(1, _CHUNK_BYTES // (8 * draw_floats))


def _ensemble_floats(system, n_cols, slots, l_max, n_draws):
    """The floats a theorem ensemble of ``system`` may hold at once: n_draws
    draws of its per-slot entries on ``slots`` slots of degrees 0..l_max,
    with n_cols columns.

    Every stage is counted as if held together: a chunk of draws and its
    Gram products (``_gram_tables`` makes them twice: products, then stacked);
    per draw, every degree's Gram matrix and slot sum, the ratio-sized
    (n_draws, n_times) tables of ``_ensemble_ratios`` at its peak (forward:
    the energy row and the divisor of the last line; backward: the two
    energy rows and the two of ``_cumtrapz``), the data norm and the
    previous resolution's sup; per degree and time, twice the d (d + 1)
    floats of a d x d propagator and its forced response, d = 2 n_cols.
    tracemalloc reads ``fundamental_matrices`` at 1.8 d^2 per degree and
    time (its solve's rows, which it returns as a view, and the solver's
    working arrays), and the kernel at up to d^2 + 3 d + 8 (the propagators,
    the forced response and the weights).
    """
    entries, d = (n_cols + 1 if system == "first" else 2 * n_cols), 2 * n_cols
    tables = 2 if system == "first" else 4
    draw, grams = slots * entries, (l_max + 1) * (entries**2 + entries)
    chunk = min(n_draws, _chunk_draws(draw)) * (draw + 2 * grams)
    return (chunk + n_draws * (grams + tables * _ENSEMBLE_TIMES + 2)
            + 2 * (l_max + 1) * _ENSEMBLE_TIMES * d * (d + 1))


def _gram_tables(lattice, draws):
    """Per-draw, per-degree Gram matrices sum_s x_s x_s^T and slot sums of
    ``draws`` (n_draws, n_slots, k); shapes (n_draws, n_degrees, k, k) and
    (n_draws, n_degrees, k)."""
    per_degree = [draws[:, lattice.slots_of_degree(l), :] for l in range(lattice.l_max + 1)]
    return (np.stack([x.swapaxes(1, 2) @ x for x in per_degree], axis=1),
            np.stack([x.sum(axis=1) for x in per_degree], axis=1))


def _drawn_gram_tables(rng, lattice, n_draws, entries, decay):
    """``_gram_tables`` of n_draws Gaussian draws of ``entries`` per slot,
    damped by ``lattice.damping(decay)``.

    The draws come from ``rng`` in order, in chunks of whole draws, and each
    chunk is folded into the tables before the next is drawn: the numbers of
    one (n_draws, n_slots, entries) draw, without ever holding it.
    """
    damping = lattice.damping(decay)[None, :, None]
    gram = np.empty((n_draws, lattice.l_max + 1, entries, entries))
    sums = np.empty((n_draws, lattice.l_max + 1, entries))
    step = _chunk_draws(lattice.n_slots * entries)
    for lo in range(0, n_draws, step):
        chunk = rng.standard_normal((min(step, n_draws - lo), lattice.n_slots, entries))
        chunk *= damping
        gram[lo:lo + step], sums[lo:lo + step] = _gram_tables(lattice, chunk)
        del chunk  # before the next one is drawn, so that only one is ever held
    return gram, sums


@dataclass(frozen=True)
class TheoremReport:
    resolutions: tuple[int, ...]
    max_ratios: tuple[float, ...]
    median_ratios: tuple[float, ...]
    doubling_factors: tuple[float, ...]
    passed: bool


def _ensemble_ratios(config, lattice, bg, part, gram, sums, taus):
    """Energy / (data + forcing) of every draw at every time; (n_draws, n_times).

    Forward family: a draw holds per-slot asymptotic data (O, frak_h,
    phi0_1..phi0_I) and taus ascend from the seed time.  Backward family: a
    draw holds the per-slot (values, derivs) state at tau = 1 and taus
    descend from 1.  All slots of degree l share the propagator P (with the
    data-to-seed map folded in), the forced response f and, per time, the
    diagonal weights W that ``_energy_weights`` puts on the stacked (values,
    tau * derivs), pointwise and in the tail integrand.  So a draw enters
    only through its Gram matrix G = sum_s x_s x_s^T and slot sum S, per
    degree (``gram`` and ``sums``, as ``_gram_tables`` returns them):
    sum_s (P x_s + f)^T W (P x_s + f) = tr(Q G) + 2 c.S + m_l f^T W f, with
    the forms Q = P^T W P and c = P^T W f.  The kernel walks the degrees:
    it folds degree l's data-to-seed map into P_l there, builds that
    degree's (time, k, k) forms per energy row and folds them into that
    row's (n_draws, n_times) table through one reused work table, so
    besides the propagators, held once as views of their solve, it holds
    only draw-sized tables.  A row whose weights are all zero, the forward
    family's tail, gets no table and no tail integral.  The forcing budget
    integrates the same table's forcing weight.
    """
    system, n_cols, m = config.system, config.n_columns, config.top_order
    props = fundamental_matrices(config, lattice, bg, taus[0], taus)
    seed = data_to_state_maps(config, lattice, bg, taus[0], part) if system == "first" else None
    forced = forced_profile(config, lattice, bg, taus[0], taus)  # (n_degrees, n_times, d)
    lam = eigenvalue_at(bg, lattice.lam0[:, None], taus)
    weights, forcing = _energy_weights(system, m, n_cols, lam, taus)
    weights[:, 1] /= taus**2  # the propagators carry tau * derivs
    w = np.moveaxis(weights.reshape(2, 2 * n_cols, *lam.shape), 1, -1)  # (2, degree, time, d)
    rows = [j for j in range(2) if np.any(w[j])]  # a zero row, the forward tail, adds 0
    acc = np.zeros((len(rows), len(gram), len(taus)))
    work = np.empty_like(acc[0])
    for l, (p, f) in enumerate(zip(props, forced)):
        if seed is not None:
            p = p @ seed[l]
        p_t = p.swapaxes(-1, -2)
        for row, j in zip(acc, rows):
            wl = w[j, l]  # (time, d)
            forms = p_t @ (wl[..., None] * p)  # Q, (time, k, k)
            cross = 2.0 * (p_t @ (wl * f)[..., None])[..., 0]  # 2c, (time, k)
            np.matmul(gram[:, l].reshape(len(gram), -1), forms.reshape(len(taus), -1).T, out=work)
            row += work
            np.matmul(sums[:, l], cross.T, out=work)
            row += work
            row += lattice.mult[l] * np.sum(wl * f * f, axis=-1)
    del work  # before the tail integral, so that at most four such tables are live
    energies = acc[0]
    for tail in acc[1:]:  # the backward family's tail integrand
        energies += _cumtrapz(taus, tail)
    data_sq = np.einsum("nlaa,al->n", gram, _data_weights(system, m, n_cols, bg, lattice.lam0))
    forcing_sq = sum(np.array([f.profile(t) for t in taus]) ** 2 for f in config.forcings)
    budget = _cumtrapz(taus, lattice.mult @ forcing * forcing_sq)
    energies /= data_sq[:, None] + budget
    return energies


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
        taus = np.geomspace(config.tau_seed, 1.0, _ENSEMBLE_TIMES)
        entries = n_cols + 1
    else:
        taus = np.geomspace(1.0, 1e-3, _ENSEMBLE_TIMES)
        entries = 2 * n_cols
    max_ratios, med_ratios = [], []
    for l_max in resolutions:
        lattice = build_lattice(n_sphere, l_max)
        # no name holds one resolution's tables while the next one draws
        sup = np.max(_ensemble_ratios(config, lattice, bg, part, *_drawn_gram_tables(
            rng, lattice, n_draws, entries, decay), taus), axis=1)
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
