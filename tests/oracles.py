"""Slot-level references that the tests hold the package's kernels against.

No target runs these.  Each one computes, slot by slot, a quantity that the
package reaches another way: the energies through the per-degree ensemble
kernel, and that kernel's ratios and forcing budget here degree by degree
and draw by draw, the right-hand side through the log-chart solver, the shell and
gradient norms through the degree-axis shell table, the seeds through the
per-degree data-to-seed maps, the trajectories, round trip and extraction
through maps composed per degree before any slot is touched, and the blow-up
statistic through one per-degree solve.  On a constant background the
per-degree propagators have a closed form in Bessel functions, an exact
reference for the block kernel at any frequency.  The Gronwall majorant is here in
its full base point x time form, which the package reaches by a
triangle-only reduce in the same summation order.
"""

import math
from dataclasses import dataclass

import numpy as np

from shellwave.energies import BlowupReport, _cumtrapz, _data_weights, _energy_weights
from shellwave.gronwall import _right_cum, _right_tail
from shellwave.lattice import Field, eigenvalue_at
from shellwave.lp import log_grad_weights
from shellwave.modelsys import (
    SystemConfig,
    _branch_maps,
    _data_vectors,
    _eval_taus,
    data_to_state_maps,
    forced_profile,
    frobenius_basis,
    fundamental_matrices,
)


def slot_lam0(lattice):
    """lam0 on every slot, degree by degree."""
    return np.repeat(lattice.lam0, lattice.mult)


def renormalized(lattice, part, bg, data, inverse=False):
    """The data vectors (O, h, phi0) with h replaced by frak_h = h - 2 ell O,
    ell the log-derivative weights at tau = 0; with ``inverse``, the data
    vectors whose renormalized form is ``data``."""
    ell = log_grad_weights(part, eigenvalue_at(bg, slot_lam0(lattice), 0.0))
    out = np.array(data, dtype=float)
    out[1] += (2.0 if inverse else -2.0) * ell * out[0]
    return out


# ------------------------------------------------- slot-level trajectories


@dataclass(frozen=True, eq=False)
class ModeState:
    """Values and tau-derivatives of every column on one slice."""

    tau: float
    values: np.ndarray  # (n_columns, n_slots)
    derivs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        object.__setattr__(self, "derivs", np.asarray(self.derivs, dtype=float))
        if self.values.shape != self.derivs.shape or self.values.ndim != 2:
            raise ValueError("values and derivs must be matching 2-d arrays")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"state time must lie in (0, 1], got {self.tau}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-sampled solution; taus are ordered as integrated."""

    taus: np.ndarray
    values: np.ndarray  # (n_times, n_columns, n_slots)
    derivs: np.ndarray
    config: SystemConfig
    lattice: object
    bg: object

    def state_at(self, index):
        return ModeState(
            tau=float(self.taus[index]),
            values=self.values[index],
            derivs=self.derivs[index],
        )


def seed_state(config, lattice, bg, data):
    """Cauchy data at config.tau_seed from each slot's data vector and the seed
    columns (the first n_columns + 1) of ``_branch_maps``.

    Column 0 combines the log branch (coefficient 2 * O) with the bounded
    branch (coefficient h); regular columns use their bounded branch with
    coefficient phi0.  As tau -> 0 this reduces to the defining expansions
    2 O log tau + h + O(tau^2 log^2 tau) and phi0 + O(tau^2 log^2 tau).
    """
    tau, n_cols = float(config.tau_seed), config.n_columns
    maps = np.repeat(_branch_maps(config, lattice, bg, tau)[:, :, : n_cols + 1], lattice.mult,
                     axis=0)
    pairs = np.einsum("sck,ks->cs", maps, _data_vectors(config, lattice, data))
    return ModeState(tau=tau, values=pairs[:n_cols], derivs=pairs[n_cols:])


def extract_asymptotic_data(config, lattice, bg, state):
    """Invert a small-tau state into asymptotic data, slot by slot.

    Per mode and column this is a 2x2 solve against the fundamental system at
    state.tau.  Returns the data vectors (O, h, phi0_1..phi0_I), shape
    (n_columns + 1, n_slots), and the first family's singular contamination,
    the largest log-branch coefficient on a regular column.  A time whose
    series remainder exceeds the package's seeding limit raises
    ``ValueError``, as ``_extraction_maps`` does: no degree is read off
    another expansion.
    """
    tau = state.tau
    table, defect = branch_table(config, lattice, bg, tau)
    limit = max(100.0 * config.rtol, 1e-11)
    if np.max(defect) > limit:
        raise ValueError(f"tau={tau:g} too large: series remainder {np.max(defect):.2e} "
                         f"exceeds {limit:.2e}; extract from an earlier time")
    (av, ad), (mv, md) = np.repeat(table, lattice.mult, axis=-1).transpose(1, 2, 0, 3)
    det = av * md - mv * ad
    v, d = state.values, state.derivs
    c_aux = (md * v - mv * d) / det
    c_main = (-ad * v + av * d) / det
    contamination = 0.0
    if config.system == "first":
        # with a +1/tau drag the aux branch is the log branch; a clean
        # regular column should not contain it
        contamination = float(np.max(np.abs(c_aux[1:]), initial=0.0))
    return np.array([0.5 * c_aux[0], c_main[0], *c_main[1:]]), contamination


def integrate(config, lattice, bg, state, tau_to, grid=None):
    """Propagate a state to tau_to; direction follows sign(tau_to - state.tau).

    The stacked (values, tau * derivs) vector of a slot of degree l is
    P[l] @ y0 + F[l], with P from ``fundamental_matrices`` and F from
    ``forced_profile``, both anchored at state.tau, applied slot by slot.
    """
    tau_from = state.tau
    tau_to = float(tau_to)
    if not 0.0 < tau_to <= 1.0:
        raise ValueError(f"target time must lie in (0, 1], got {tau_to}")
    if tau_to == tau_from:
        raise ValueError("target time equals the state time")
    n_cols, n_slots = state.values.shape
    if n_cols != config.n_columns or n_slots != lattice.n_slots:
        raise ValueError("state shape does not match config/lattice")
    taus = _eval_taus(tau_from, tau_to, grid)
    propagators = (fundamental_matrices(config, lattice, bg, tau_from, taus),
                   forced_profile(config, lattice, bg, tau_from, taus))
    return _compose(config, lattice, bg, taus, propagators,
                    np.concatenate([state.values, tau_from * state.derivs]))


def _compose(config, lattice, bg, taus, propagators, start):
    """Trajectory of the stacked (values, tau * derivs) state ``start``: P[l] @ y0 + F[l]."""
    (props, forced), n_cols = propagators, config.n_columns
    rows = np.empty((len(taus), 2 * n_cols, lattice.n_slots))
    for l in range(lattice.l_max + 1):
        sl = lattice.slots_of_degree(l)
        rows[:, :, sl] = props[l] @ start[:, sl] + forced[l][:, :, None]
    return Trajectory(taus=taus, values=rows[:, :n_cols],
                      derivs=rows[:, n_cols:] / taus[:, None, None],
                      config=config, lattice=lattice, bg=bg)


def roundtrip_chain(config, lattice, bg, data):
    """Seed, run to 1, run back to config.tau_seed and extract, slot by slot."""
    fwd = integrate(config, lattice, bg, seed_state(config, lattice, bg, data), 1.0)
    back = integrate(config, lattice, bg, fwd.state_at(-1), config.tau_seed)
    return extract_asymptotic_data(config, lattice, bg, back.state_at(-1))


# ------------------------------------------------------------ energies


def trajectory_energy(traj, system):
    """Energy of ``system``'s functional along a trajectory; returns (taus, energies)."""
    taus, lat = traj.taus, traj.lattice
    lam = eigenvalue_at(traj.bg, slot_lam0(lat)[None, :], taus[:, None])
    weights, _ = _energy_weights(system, traj.config.top_order, traj.config.n_columns,
                                 lam, taus[:, None])
    sq = np.stack([traj.values**2, traj.derivs**2])  # (2, n_times, n_cols, n_slots)
    point, integrand = np.einsum("jkcts,ktcs->jt", weights, sq)
    return taus, point + _cumtrapz(taus, integrand)


def energy_first(traj):
    """Forward-family energy along a trajectory; returns (taus, energies)."""
    return trajectory_energy(traj, "first")


def energy_second(traj):
    """Backward-family energy; expects taus descending from 1."""
    if traj.taus[0] < traj.taus[-1]:
        raise ValueError("backward energy expects a trajectory integrated from tau = 1 down")
    return trajectory_energy(traj, "second")


def data_energy_first(lattice, part, bg, data, top_order):
    """Data norm: O, renormalized finite part and the regular limits in H^(M+1)."""
    entries = renormalized(lattice, part, bg, data)
    weights = _data_weights("first", top_order, len(entries) - 1, bg, slot_lam0(lattice))
    return float(np.sum(weights * entries**2))


def data_energy_second(state, bg, lattice, top_order):
    """Endpoint norm at tau = 1 over all columns."""
    if abs(state.tau - 1.0) > 1e-12:
        raise ValueError("backward data norm is defined at tau = 1")
    entries = np.concatenate([state.values, state.derivs])
    weights = _data_weights("second", top_order, state.values.shape[0], bg, slot_lam0(lattice))
    return float(np.sum(weights * entries**2))


def _forcing_budget(config, lattice, bg, taus, system):
    """Time-integrated forcing squares along the grid from its first time."""
    taus = np.asarray(taus, dtype=float)
    lam = eigenvalue_at(bg, lattice.lam0[None, :], taus[:, None])
    _, weight = _energy_weights(system, config.top_order, config.n_columns,
                                lam, taus[:, None])
    # summed over columns per time; every slot of every degree is forced alike
    forcing_sq = np.zeros(len(taus))
    for f in config.forcings:
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


def ensemble_ratios(config, lattice, bg, part, draws, taus):
    """Energy / (data + forcing) of every draw at every time, degree by degree.

    Per degree, each draw's slot sums of squared (values, tau * derivs),
    diag(P G P^T) + 2 diag(P S) f + m_l f^2, are weighed by that degree's
    own call of ``_energy_weights``, and the forcing budget is the
    per-(time, degree) one above.
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


# ------------------------------------------------------- right-hand side


def mode_rhs(config, lattice, bg, tau, values, derivs):
    """Right-hand side in physical time: returns (d values, d derivs).

    Row i:  v_i'' = -sign_i v_i'/tau - 4 lambda(tau) v_i
                    + sum_j scale[i,j] psi_{ij}(tau) sqrt(lambda) v_j + F_i,
    with psi in {1, kappa, tau^2 kappa} and F_i the column's forcing profile.
    """
    values = np.asarray(values, dtype=float)
    derivs = np.asarray(derivs, dtype=float)
    lam = eigenvalue_at(bg, slot_lam0(lattice), tau)
    kappa = bg.kappa(tau)
    psi = np.array([1.0, kappa, tau * tau * kappa])
    amat = config.coupling_scale * psi[config.coupling_psi]
    rhs = (amat @ values) * np.sqrt(lam) - 4.0 * lam * values
    rhs -= (config.drag_signs / tau)[:, None] * derivs
    rhs += np.array([f.profile(tau) for f in config.forcings])[:, None]
    return derivs, rhs


# ------------------------------------------------- closed-form propagators


def _bessel_pair(drag, omega, tau):
    """Fundamental pair of u'' + drag u'/tau + omega^2 u = 0 at tau, per omega.

    Shape (n_omegas, 2, 2): rows (u, tau u'), columns the two solutions,
    J0, Y0 (omega tau) for drag +1 and tau J1, tau Y1 (omega tau) for drag
    -1; at omega = 0 they are 1, log tau and 1, tau^2.
    """
    from scipy.special import jv, yv

    x = omega * tau
    safe = np.where(omega > 0.0, x, 1.0)  # Y diverges at 0; omega = 0 is set below
    if drag == 1:
        pair = np.array([[jv(0, x), yv(0, safe)], [-x * jv(1, x), -x * yv(1, safe)]])
        still = [[1.0, math.log(tau)], [0.0, 1.0]]
    else:
        pair = tau * np.array([[jv(1, x), yv(1, safe)], [x * jv(0, x), x * yv(0, safe)]])
        still = [[1.0, tau * tau], [0.0, 2.0 * tau * tau]]
    pair = np.moveaxis(pair, -1, 0)
    pair[omega == 0.0] = still
    return pair


def constant_propagators(config, lattice, f0, tau_anchor, taus):
    """``fundamental_matrices`` of a diagonally coupled config on the constant
    background f = f0, in closed form.

    There kappa = 0, so only couplings with psi = 1 act, and they must sit on
    the diagonal.  Column i then solves u'' + s_i u'/tau + omega_i^2 u = 0
    with omega_i^2 = 4 lambda - a_i sqrt(lambda), lambda = lam0 / f0^2 and
    a_i its diagonal coupling, so its block on (v_i, tau v_i') is Phi(tau)
    Phi(tau_anchor)^-1, Phi the pair of ``_bessel_pair``; the columns do not
    mix.
    """
    acting = np.where(config.coupling_psi == 0, config.coupling_scale, 0.0)
    if np.any(acting != np.diag(np.diag(acting))):
        raise ValueError("the closed form holds for diagonal couplings only")
    lam = lattice.lam0 / (f0 * f0)
    n_cols = config.n_columns
    out = np.zeros((lattice.l_max + 1, len(taus), 2 * n_cols, 2 * n_cols))
    for i, drag in enumerate(config.drag_signs):
        omega = np.sqrt(4.0 * lam - acting[i, i] * np.sqrt(lam))
        back = np.linalg.inv(_bessel_pair(drag, omega, tau_anchor))
        for t, tau in enumerate(taus):
            # rows and columns i and n_cols + i: column i's value and tau * derivative
            out[:, t, i::n_cols, i::n_cols] = _bessel_pair(drag, omega, tau) @ back
    return out


# ------------------------------------------------------------- seeding


def branch_table(config, lattice, bg, tau):
    """Every column's fundamental system at tau, straight from ``frobenius_basis``.

    Returns the (n_columns, 2, 2, n_degrees) table indexed [column, (aux,
    main), (value, tau-derivative), degree], diagonal coupling folded in, and
    the worst series remainder per degree.  Unlike the package's branch maps
    it accepts any tau.
    """
    table = np.empty((config.n_columns, 2, 2, lattice.l_max + 1))
    defect = np.zeros(lattice.l_max + 1)
    for i in range(config.n_columns):
        basis = frobenius_basis(
            lattice.lam0, bg, drag_sign=int(config.drag_signs[i]),
            diag_psi=int(config.coupling_psi[i, i]), diag_scale=float(config.coupling_scale[i, i]),
        )
        table[i] = basis.aux(tau), basis.main(tau)
        defect = np.maximum(defect, basis.truncation_defect(tau))
    return table, defect


def seed_pairs(config, lattice, bg, data):
    """Every column's (value, tau-derivative) seed at config.tau_seed, (n_columns, 2, n_slots).

    Column 0 is 2 O times its log branch plus h times its bounded branch;
    column i is phi0_i times its bounded branch.
    """
    branches = np.repeat(branch_table(config, lattice, bg, config.tau_seed)[0], lattice.mult,
                         axis=-1)
    o, h, *phis = data
    col0 = 2.0 * o * branches[0, 0] + h * branches[0, 1]
    return np.concatenate([col0[None], np.array(phis)[:, None] * branches[1:, 1]])


def split_seeds(config, lattice, bg, data, part):
    """(value, tau-derivative) seeds of the split's log-branch and renormalized columns.

    The log branch starts as 2 O aux + 2 ell O main, the renormalized
    component as frak_h main, with aux and main column 0's branches.
    """
    aux, main = np.repeat(branch_table(config, lattice, bg, config.tau_seed)[0][0],
                          lattice.mult, axis=-1)
    ell = log_grad_weights(part, eigenvalue_at(bg, slot_lam0(lattice), 0.0))
    oc, frak_h = data[0], renormalized(lattice, part, bg, data)[1]
    return 2.0 * oc * aux + 2.0 * ell * oc * main, frak_h * main


# ----------------------------------------------------------- blow-up rate


def blowup_check(lattice, bg, taus, y_values, o_coeffs, top_order, drift_limit):
    """The blow-up statistic of one log-branch run, slot by slot and time by time.

    ``y_values`` holds the log-branch values, shape (n_times, n_slots).
    """
    m_tot = top_order + 1
    lam0 = eigenvalue_at(bg, slot_lam0(lattice), 0.0)
    data_sq = float(np.sum((1.0 + lam0) ** m_tot * o_coeffs**2))
    vals = np.empty(len(taus))
    for t, tau in enumerate(taus):
        lam = eigenvalue_at(bg, slot_lam0(lattice), tau)
        w = np.zeros_like(lam)
        lam_pow = np.ones_like(lam)
        for _ in range(m_tot):
            w += lam_pow
            lam_pow = lam_pow * lam
        w *= 1.0 + lam
        num = float(np.sum(w * y_values[t] ** 2))
        vals[t] = num / ((1.0 + math.log(tau) ** 2) * data_sq)
    order = np.argsort(taus)
    taus_s, vals_s = taus[order], vals[order]
    n_decades = int(math.floor(math.log10(1e-3 / float(taus_s[0])) + 1e-9))
    sups = []
    for j in range(n_decades):
        hi = 1e-3 / 10.0**j
        mask = (taus_s >= hi / 10.0) & (taus_s <= hi)
        sups.append(float(np.max(vals_s[mask])))
    drifts = tuple(abs(a - b) / b for a, b in zip(sups[:-1], sups[1:]))
    passed = bool(np.all(np.isfinite(vals))) and all(d < drift_limit for d in drifts)
    return BlowupReport(
        taus=taus_s, values=vals_s, sup_value=float(np.max(vals_s)), decade_sups=tuple(sups),
        drifts=drifts, drift_limit=drift_limit, passed=passed,
    )


# ------------------------------------------------------------ shell norms


def shell_project(part, k, field, tau, bg):
    """P_k F: every coefficient times the plain bump of cell k at its eigenvalue."""
    lam = eigenvalue_at(bg, slot_lam0(field.lattice), tau)
    return Field(lattice=field.lattice, coeffs=part.bump(lam * 4.0**-k) * field.coeffs)


def graded_sobolev_norm(field, grad_order, s, tau, bg):
    """Norm of the grad_order-fold derivative: weights lambda^m (1+lambda)^s."""
    lam = eigenvalue_at(bg, slot_lam0(field.lattice), tau)
    w = lam**grad_order * (1.0 + lam) ** s
    return float(np.sqrt(np.dot(w, field.coeffs * field.coeffs)))


# ------------------------------------------------------- Gronwall majorant


def majorant_full(inst):
    """u_bound of ``gronwall_like_bound`` from the full base point x time array.

    S[a, t] = sum_{l<lev} cA(l, t) prod_{j=l+1}^{lev-1} D_j(a, t), with the
    product factors D_j(a, t) = 1 + int_{tau_a}^t b_j c_j; each level takes
    the diagonal of ``_right_tail`` over all of S, so only t > a is read.
    """
    n_lev, n_t = inst.A.shape
    taus = inst.taus
    bc_cum = _right_cum(taus, inst.b[:, None] * inst.c)
    cA = inst.c * inst.A
    bound = inst.A.copy()
    S = np.zeros((n_t, n_t))
    for lev in range(1, n_lev):
        S *= 1.0 + bc_cum[lev - 1] - bc_cum[lev - 1][:, None]
        S += cA[lev - 1]
        bound[lev] += inst.b[lev] * np.diagonal(_right_tail(taus, S))
    return bound
