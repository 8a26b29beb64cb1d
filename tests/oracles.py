"""Slot-level references that the tests hold the package's kernels against.

No target runs these.  Each one computes, slot by slot, a quantity that the
package reaches another way: the energies through the per-degree ensemble
kernel, the right-hand side through the log-chart solver, the shell and
gradient norms through the degree-axis shell table, the seeds through the
per-degree data-to-seed maps, the trajectories, round trip and extraction
through maps composed per degree before any slot is touched, and the blow-up
statistic through one per-degree solve.  The Gronwall majorant is here in
its full base point x time form, which the package reaches by a
triangle-only reduce in the same summation order.
"""

import math
import warnings
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
    forced_profile,
    frobenius_basis,
    fundamental_matrices,
    make_asymptotic_data,
)


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
    maps = _branch_maps(config, lattice, bg, tau)[:, :, : n_cols + 1][lattice.slot_l]
    pairs = np.einsum("sck,ks->cs", maps, _data_vectors(config, data))
    return ModeState(tau=tau, values=pairs[:n_cols], derivs=pairs[n_cols:])


def extract_asymptotic_data(config, lattice, bg, state, part):
    """Invert a small-tau state into asymptotic data, slot by slot.

    Per mode and column this is a 2x2 solve against the fundamental system at
    state.tau.  Degrees whose series remainder is untrustworthy fall back to
    the raw two-term expansion and are counted in the diagnostics (with a
    warning suggesting a smaller extraction time).
    """
    tau = state.tau
    table, defect = branch_table(config, lattice, bg, tau)
    flagged = defect > 1e-9
    if np.any(flagged):
        warnings.warn(
            f"{int(np.count_nonzero(flagged))} degrees ill-conditioned for extraction "
            f"at tau={tau:g}; using the two-term expansion there (extract from a "
            "smaller tau for full accuracy)",
            RuntimeWarning,
        )
    flagged_slots = flagged[lattice.slot_l]
    (av, ad), (mv, md) = table[..., lattice.slot_l].transpose(1, 2, 0, 3)
    det = av * md - mv * ad
    v, d = state.values, state.derivs
    c_aux = (md * v - mv * d) / det
    c_main = (-ad * v + av * d) / det

    # two-term fallback: v' ~ 2 O / tau, v ~ 2 O log tau + h
    crude_o = 0.5 * tau * state.derivs[0]
    crude_h = state.values[0] - 2.0 * crude_o * math.log(tau)
    o_field = Field(lattice=lattice, coeffs=np.where(flagged_slots, crude_o, 0.5 * c_aux[0]))
    h_field = Field(lattice=lattice, coeffs=np.where(flagged_slots, crude_h, c_main[0]))
    phis = [Field(lattice=lattice, coeffs=np.where(flagged_slots, state.values[i], c_main[i]))
            for i in range(1, config.n_columns)]
    contamination = 0.0
    if config.system == "first":
        # with a +1/tau drag the aux branch is the log branch; a clean
        # regular column should not contain it
        contamination = float(np.max(np.abs(c_aux[1:]), initial=0.0))
    data = make_asymptotic_data(lattice, part, bg, O=o_field, h=h_field, phis=phis)
    diagnostics = {
        "ill_conditioned_degrees": int(np.count_nonzero(flagged)),
        "singular_contamination": contamination,
        "extraction_tau": tau,
    }
    return data, diagnostics


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


def roundtrip_chain(config, lattice, bg, data, part):
    """Seed, run to 1, run back to config.tau_seed and extract, slot by slot."""
    fwd = integrate(config, lattice, bg, seed_state(config, lattice, bg, data), 1.0)
    back = integrate(config, lattice, bg, fwd.state_at(-1), config.tau_seed)
    return extract_asymptotic_data(config, lattice, bg, back.state_at(-1), part)


# ------------------------------------------------------------ energies


def trajectory_energy(traj, system):
    """Energy of ``system``'s functional along a trajectory; returns (taus, energies)."""
    taus, lat = traj.taus, traj.lattice
    lam = eigenvalue_at(traj.bg, lat.lam0[lat.slot_l][None, :], taus[:, None])
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


def data_energy_first(data, bg, top_order):
    """Data norm: O, renormalized finite part and the regular limits in H^(M+1)."""
    entries = np.stack([data.O_field.coeffs, data.frak_h.coeffs]
                       + [phi.coeffs for phi in data.phi0_fields])
    lat = data.O_field.lattice
    weights = _data_weights("first", top_order, data.n_regular + 1, bg, lat.lam0[lat.slot_l])
    return float(np.sum(weights * entries**2))


def data_energy_second(state, bg, lattice, top_order):
    """Endpoint norm at tau = 1 over all columns."""
    if abs(state.tau - 1.0) > 1e-12:
        raise ValueError("backward data norm is defined at tau = 1")
    entries = np.concatenate([state.values, state.derivs])
    weights = _data_weights("second", top_order, state.values.shape[0], bg,
                            lattice.lam0[lattice.slot_l])
    return float(np.sum(weights * entries**2))


# ------------------------------------------------------- right-hand side


def mode_rhs(config, lattice, bg, tau, values, derivs):
    """Right-hand side in physical time: returns (d values, d derivs).

    Row i:  v_i'' = -sign_i v_i'/tau - 4 lambda(tau) v_i
                    + sum_j scale[i,j] psi_{ij}(tau) sqrt(lambda) v_j + F_i,
    with psi in {1, kappa, tau^2 kappa} and F_i the column's forcing profile.
    """
    values = np.asarray(values, dtype=float)
    derivs = np.asarray(derivs, dtype=float)
    lam = eigenvalue_at(bg, lattice.lam0[lattice.slot_l], tau)
    kappa = bg.kappa(tau)
    psi = np.array([1.0, kappa, tau * tau * kappa])
    amat = config.coupling_scale * psi[config.coupling_psi]
    rhs = (amat @ values) * np.sqrt(lam) - 4.0 * lam * values
    rhs -= (config.drag_signs / tau)[:, None] * derivs
    rhs += np.array([f.profile(tau) for f in config.forcing_list()])[:, None]
    return derivs, rhs


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
    branches = branch_table(config, lattice, bg, config.tau_seed)[0][..., lattice.slot_l]
    phis = np.array([p.coeffs for p in data.phi0_fields])
    col0 = 2.0 * data.O_field.coeffs * branches[0, 0] + data.h_field.coeffs * branches[0, 1]
    return np.concatenate([col0[None], phis[:, None] * branches[1:, 1]])


def split_seeds(config, lattice, bg, data, part):
    """(value, tau-derivative) seeds of the split's log-branch and renormalized columns.

    The log branch starts as 2 O aux + 2 ell O main, the renormalized
    component as frak_h main, with aux and main column 0's branches.
    """
    aux, main = branch_table(config, lattice, bg, config.tau_seed)[0][0][..., lattice.slot_l]
    ell = log_grad_weights(part, eigenvalue_at(bg, lattice.lam0[lattice.slot_l], 0.0))
    oc = data.O_field.coeffs
    return 2.0 * oc * aux + 2.0 * ell * oc * main, data.frak_h.coeffs * main


# ----------------------------------------------------------- blow-up rate


def blowup_check(lattice, bg, taus, y_values, o_coeffs, top_order, drift_limit):
    """The blow-up statistic of one log-branch run, slot by slot and time by time.

    ``y_values`` holds the log-branch values, shape (n_times, n_slots).
    """
    m_tot = top_order + 1
    lam0 = eigenvalue_at(bg, lattice.lam0[lattice.slot_l], 0.0)
    data_sq = float(np.sum((1.0 + lam0) ** m_tot * o_coeffs**2))
    vals = np.empty(len(taus))
    for t, tau in enumerate(taus):
        lam = eigenvalue_at(bg, lattice.lam0[lattice.slot_l], tau)
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
    lam = eigenvalue_at(bg, field.lattice.lam0[field.lattice.slot_l], tau)
    return field.with_coeffs(part.bump(lam * 4.0**-k) * field.coeffs)


def graded_sobolev_norm(field, grad_order, s, tau, bg):
    """Norm of the grad_order-fold derivative: weights lambda^m (1+lambda)^s."""
    lam = eigenvalue_at(bg, field.lattice.lam0[field.lattice.slot_l], tau)
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
