"""Per-mode solver for the two coupled wave-system families.

Each spherical-harmonic slot of the lattice carries a small linear ODE system
in time: one distinguished column with a logarithmic branch at tau = 0 plus
``n_regular`` columns that stay bounded there.  The families differ only in
the sign of the 1/tau drag on the regular rows ("first": +, "second": -, and
the second family forbids regular rows from feeling the singular column).

Everything here is built around three devices:

* a hand-rolled Bessel oracle (series + large-argument asymptotics) used as
  the independent reference for constant-coefficient runs,
* Frobenius fundamental systems of the per-mode self-equation, which seed
  integrations at a small tau_seed and invert trajectories back into
  asymptotic data,
* adaptive integration in the chart s = log(tau), where the drag term is
  absorbed and steps stay uniform across the collapsing end.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .lattice import eigenvalue_at
from .lp import log_grad_weights

__all__ = [
    "Forcing",
    "SystemConfig",
    "FrobeniusBasis",
    "EpsilonReport",
    "bessel_oracle",
    "frobenius_basis",
    "seeded_runs",
    "roundtrip_data",
    "constant_mode_run",
    "split_singular_component",
    "epsilon_construction_check",
    "fundamental_matrices",
    "forced_profile",
    "data_to_state_maps",
    "random_coupling",
]

EULER_GAMMA = float(np.euler_gamma)

# ------------------------------------------------------------------ Bessel

_SPLIT_X = 12.0


def _j0_series(x):
    q = -0.25 * x * x
    term, total = 1.0, 1.0
    for m in range(1, 200):
        term *= q / (m * m)
        total += term
        if abs(term) < 1e-18 * (abs(total) + 1.0):
            break
    return total


def _y0_series(x):
    # (2/pi) [ (log(x/2)+gamma) J0 + sum (-1)^(m+1) H_m (x^2/4)^m / (m!)^2 ]
    q = 0.25 * x * x
    term, total, harmonic = 1.0, 0.0, 0.0
    for m in range(1, 200):
        term *= q / (m * m)
        harmonic += 1.0 / m
        contrib = ((-1.0) ** (m + 1)) * harmonic * term
        total += contrib
        if abs(contrib) < 1e-18 * (abs(total) + 1.0):
            break
    return (2.0 / math.pi) * ((math.log(0.5 * x) + EULER_GAMMA) * _j0_series(x) + total)


def _j0y0_asymptotic(x):
    # Hankel expansion: a_m = a_{m-1} * (-(2m-1)^2) / (8m); P sums even m,
    # Q sums odd m, with alternating signs inside each.
    p_sum, q_sum = 1.0, 0.0
    a, last = 1.0, 1.0
    for m in range(1, 40):
        a *= -((2 * m - 1) ** 2) / (8.0 * m)
        w = a / x**m
        if abs(w) >= last:
            break
        last = abs(w)
        if m % 2 == 0:
            p_sum += ((-1.0) ** (m // 2)) * w
        else:
            q_sum += ((-1.0) ** ((m - 1) // 2)) * w
        if abs(w) < 1e-17:
            break
    chi = x - 0.25 * math.pi
    amp = math.sqrt(2.0 / (math.pi * x))
    j0 = amp * (p_sum * math.cos(chi) - q_sum * math.sin(chi))
    y0 = amp * (p_sum * math.sin(chi) + q_sum * math.cos(chi))
    return j0, y0


def bessel_oracle(kind, lam, tau):
    """Reference cylinder-function value J0 or Y0 at the scalar argument 2 sqrt(lam) tau.

    This is the closed-form solution pair of  u'' + u'/tau + 4 lam u = 0  at
    constant lam, used as the independent check on every constant-coefficient
    integration.  Power series below x = 12, Hankel asymptotics above; both
    branches are accurate to well below 1e-8 relative for lam <= 1e4.
    """
    if kind not in ("J", "Y"):
        raise ValueError(f"kind must be 'J' or 'Y', got {kind!r}")
    if lam < 0.0:
        raise ValueError("negative eigenvalue")
    x = 2.0 * math.sqrt(lam) * tau
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        if kind == "J":
            return 1.0
        raise ValueError("second-kind value diverges at zero argument")
    if x < _SPLIT_X:
        return _j0_series(x) if kind == "J" else _y0_series(x)
    j0, y0 = _j0y0_asymptotic(x)
    return j0 if kind == "J" else y0


# -------------------------------------------------- even-series utilities


def _series_inv(a, order):
    out = np.zeros(order + 1)
    out[0] = 1.0 / a[0]
    for j in range(1, order + 1):
        acc = 0.0
        for i in range(1, min(j, len(a) - 1) + 1):
            acc += a[i] * out[j - i]
        out[j] = -acc / a[0]
    return out


def _psi_over_f_series(bg, psi_index, order):
    """Even coefficients of psi(tau)/f(tau) for psi in {1, kappa, tau^2 kappa}."""
    inv_f = _series_inv(bg.f_even, order)
    if psi_index == 0:
        return inv_f
    fpt = np.zeros(order + 1)  # f'(tau)/tau as an even series
    coeffs = bg._f_prime_over_tau_even[:order]
    fpt[: len(coeffs)] = coeffs
    kappa_over_f = np.convolve(fpt, np.convolve(inv_f, inv_f)[: order + 1])[: order + 1]
    if psi_index == 1:
        return kappa_over_f
    shifted = np.zeros(order + 1)
    shifted[1:] = kappa_over_f[:-1]
    return shifted


def _q_series(lam0, bg, order, diag_psi=None, diag_scale=0.0):
    """Even coefficients of the self-equation potential, shape (order+1,) + lam0.shape.

    q(tau) = 4 lam0 / f(tau)^2 minus the diagonal coupling
    diag_scale * psi(tau) * sqrt(lambda(tau)), which is also even.
    """
    q = np.multiply.outer(_series_inv(np.convolve(bg.f_even, bg.f_even), order), 4.0 * lam0)
    if diag_scale != 0.0:
        coupled = q - np.multiply.outer(_psi_over_f_series(bg, diag_psi, order),
                                        diag_scale * np.sqrt(lam0))
        q = np.where(lam0 > 0.0, coupled, q)
    return q


def _poly_even(coeffs, tau):
    """Evaluate sum c_m tau^(2m) and its tau-derivative."""
    tau = np.asarray(tau, dtype=float)
    u = tau * tau
    val = np.zeros_like(u)
    dval_du = np.zeros_like(u)
    for c in coeffs[::-1]:
        dval_du = dval_du * u + val
        val = val * u + c
    return val, 2.0 * tau * dval_du


@dataclass(frozen=True, eq=False)
class FrobeniusBasis:
    """Fundamental systems of the per-mode self-equation near tau = 0.

    ``main`` is the branch with value 1 at tau = 0 whose coefficient carries
    the asymptotic datum; ``aux`` is the complementary branch: the log branch
    (main * log tau + correction) when the drag sign is +1, and the tau^2
    branch when it is -1 (where the log attaches to main instead).  With an
    array of eigenvalues every trailing axis runs over them: the series have
    shape (order+1, n_degrees) and ``main``/``aux`` take a scalar tau.
    """

    lam0: np.ndarray
    drag_sign: int
    order: int
    q: np.ndarray
    main_poly: np.ndarray
    aux_poly: np.ndarray
    log_coupling: np.ndarray  # multiplies aux*log(tau) inside main when drag_sign=-1

    def main(self, tau):
        tau = np.asarray(tau, dtype=float)
        v, dv = _poly_even(self.main_poly, tau)
        if self.drag_sign == -1:
            a, da = _poly_even(self.aux_poly, tau)
            lg = np.log(tau)
            v = v + self.log_coupling * a * lg
            dv = dv + self.log_coupling * (da * lg + a / tau)
        return v, dv

    def aux(self, tau):
        tau = np.asarray(tau, dtype=float)
        a, da = _poly_even(self.aux_poly, tau)
        if self.drag_sign == 1:
            m, dm = _poly_even(self.main_poly, tau)
            lg = np.log(tau)
            return m * lg + a, dm * lg + m / tau + da
        return a, da

    def truncation_defect(self, tau):
        """Relative size of the last kept series term; small means trustworthy."""
        u = float(tau) * float(tau)
        top = self.order
        m_last = np.abs(self.main_poly[top]) * u**top
        a_last = np.abs(self.aux_poly[top]) * u**top
        scale = 1.0 + np.abs(_poly_even(self.main_poly, tau)[0])
        return (m_last + a_last) / scale


def frobenius_basis(lam0, bg, order=12, drag_sign=1, diag_psi=None, diag_scale=0.0):
    """Series fundamental systems for u'' + drag_sign u'/tau + q(tau) u = 0.

    ``q`` is the rescaled-eigenvalue potential 4 lam0/f^2 minus an optional
    diagonal coupling term (see _q_series).  ``lam0`` is one eigenvalue or an
    array of them (one basis per degree, each bit-identical to its scalar
    basis).  ``order`` counts the tau^2 powers kept; 2 is the minimum for a
    meaningful log-branch correction.
    """
    if order < 2:
        raise ValueError(f"series order must be >= 2, got {order}")
    if drag_sign not in (1, -1):
        raise ValueError(f"drag sign must be +1 or -1, got {drag_sign}")
    lam0 = np.asarray(lam0, dtype=float)
    q = _q_series(lam0, bg, order, diag_psi, diag_scale)
    if drag_sign == 1:
        # main = sum a_m tau^2m (a_0 = 1); aux correction w with
        # aux = main*log(tau) + w, w = sum b_m tau^2m (b_0 = 0).
        a = np.zeros(q.shape)
        b = np.zeros(q.shape)
        a[0] = 1.0
        for m in range(1, order + 1):
            acc = 0.0
            for j in range(0, m):
                acc += q[j] * a[m - 1 - j]
            a[m] = -acc / (4.0 * m * m)
        for m in range(1, order + 1):
            acc = 0.0
            for j in range(0, m):
                acc += q[j] * b[m - 1 - j]
            b[m] = (-4.0 * m * a[m] - acc) / (4.0 * m * m)
        return FrobeniusBasis(
            lam0=lam0, drag_sign=1, order=order, q=q,
            main_poly=a, aux_poly=b, log_coupling=np.zeros(lam0.shape),
        )
    # drag_sign == -1: indicial roots 0 and 2; the root-0 branch picks up a
    # resonant aux*log(tau) term with coefficient -q_0/2.
    e = np.zeros(q.shape)
    e[1] = 1.0
    for m in range(2, order + 1):
        acc = 0.0
        for j in range(0, m - 1):
            acc += q[j] * e[m - 1 - j]
        e[m] = -acc / (4.0 * m * (m - 1))
    c = -0.5 * q[0]
    p = np.zeros(q.shape)
    p[0] = 1.0
    for m in range(2, order + 1):
        acc = 0.0
        for j in range(0, m):
            acc += q[j] * p[m - 1 - j]
        p[m] = (-acc - 2.0 * c * (2 * m - 1) * e[m]) / (4.0 * m * (m - 1))
    return FrobeniusBasis(
        lam0=lam0, drag_sign=-1, order=order, q=q,
        main_poly=p, aux_poly=e, log_coupling=c,
    )


# ------------------------------------------------------------ configuration


@dataclass(frozen=True)
class Forcing:
    """Gaussian bump in tau forcing one column, equally on every slot.

    ``amplitude`` 0 (the default) leaves the column unforced.
    """

    amplitude: float = 0.0
    center: float = 0.5
    width: float = 0.1

    def __post_init__(self):
        if self.width <= 0.0:
            raise ValueError(f"forcing width must be positive, got {self.width}")

    def profile(self, tau):
        if self.amplitude == 0.0:
            return 0.0
        z = (tau - self.center) / self.width
        return self.amplitude * math.exp(-z * z)


_SECOND_DECOUPLING_MSG = (
    "the second system family forbids coupling of regular rows to the singular "
    "column 0"
)


@dataclass(frozen=True, eq=False)
class SystemConfig:
    """Shape of one coupled run.

    ``n_regular`` counts the bounded columns (>= 1); ``system`` picks the drag
    sign of their rows ("first": +1/tau, "second": -1/tau, whose rows must not
    couple back to column 0).  Coupling entry (i, j) contributes
    scale[i,j] * psi[psi_index[i,j]](tau) * sqrt(lambda(tau)) * column_j to
    row i, with psi profiles {1, kappa, tau^2 kappa}.  ``forcings`` holds one
    Forcing per column, each unforced if none is given.  ``top_order`` is the
    highest derivative level the energy norms weigh.
    """

    n_regular: int
    system: str = "first"
    top_order: int = 2
    coupling_scale: np.ndarray | None = None
    coupling_psi: np.ndarray | None = None
    forcings: tuple[Forcing, ...] = ()
    tau_seed: float = 1e-4
    rtol: float = 1e-10
    atol: float = 1e-12

    def __post_init__(self):
        if self.n_regular < 1:
            raise ValueError(f"need at least one regular column, got {self.n_regular}")
        if self.system not in ("first", "second"):
            raise ValueError(f"system must be 'first' or 'second', got {self.system!r}")
        if self.top_order < 0:
            raise ValueError("top_order must be >= 0")
        if not 0.0 < self.tau_seed < 1.0:
            raise ValueError(f"tau_seed must lie in (0, 1), got {self.tau_seed}")
        if not (self.rtol >= 100.0 * sys.float_info.epsilon and self.atol >= 0.0):
            raise ValueError(f"need rtol >= 100 * machine epsilon and atol >= 0, got "
                             f"rtol={self.rtol}, atol={self.atol}")
        c = self.n_columns
        scale = self.coupling_scale
        scale = np.zeros((c, c)) if scale is None else np.asarray(scale, dtype=float)
        psi = self.coupling_psi
        psi = np.zeros((c, c), dtype=int) if psi is None else np.asarray(psi, dtype=int)
        if scale.shape != (c, c) or psi.shape != (c, c):
            raise ValueError(f"coupling matrices must be {c}x{c}")
        if np.any((psi < 0) | (psi > 2)):
            raise ValueError("psi selector entries must be 0, 1 or 2")
        if self.system == "second" and np.any(scale[1:, 0] != 0.0):
            raise ValueError(_SECOND_DECOUPLING_MSG)
        object.__setattr__(self, "coupling_scale", scale)
        object.__setattr__(self, "coupling_psi", psi)
        if not self.forcings:
            object.__setattr__(self, "forcings", (Forcing(),) * c)
        elif len(self.forcings) != c:
            raise ValueError(f"need one forcing per column ({c}), got {len(self.forcings)}")

    @property
    def n_columns(self):
        return self.n_regular + 1

    @property
    def drag_signs(self):
        s = np.ones(self.n_columns)
        if self.system == "second":
            s[1:] = -1.0
        return s


def random_coupling(n_regular, system, rng, scale):
    """Random coupling matrices at the given magnitude, legal for the family."""
    c = n_regular + 1
    mat = scale * rng.uniform(-1.0, 1.0, size=(c, c))
    psi = rng.integers(0, 3, size=(c, c))
    if system == "second":
        mat[1:, 0] = 0.0
    return mat, psi


# ----------------------------------------------------------------- the RHS


def _psi_at(bg, tau, f):
    """The psi profiles (1, kappa, tau^2 kappa) at tau, given f = bg.f(tau)."""
    k = bg.f_prime_over_tau(tau) / f  # bg.kappa(tau), bit for bit
    return np.array([1.0, k, tau * tau * k])


def _forcing_source(config):
    """Source closure giving every column's forcing at one time, or None.

    The forcing is the same on every entry of a row, so the source is one
    (n_columns, 1) column that broadcasts across the row.
    """
    if all(f.amplitude == 0.0 for f in config.forcings):
        return None

    def source(tau):
        return np.array([f.profile(tau) for f in config.forcings])[:, None]

    return source


def _propagate(config, lam0, bg, source, start, tau_from, taus):
    """Solve a block of coupled columns in the chart s = log tau.

    ``start`` is the stacked (values, thetas = tau * v') state at tau_from,
    shape (2 n_columns, n), one entry per eigenvalue in ``lam0``; the run ends
    at taus[-1].  The drag term is absorbed: theta_s = (1 - sign) theta +
    tau^2 (coupling + source - 4 lambda v).  Returns the stacked state at
    ``taus``, shape (n_times, 2 n_columns, n).  Its callers are the two
    per-degree builders, ``fundamental_matrices`` and ``forced_profile``.

    The solve is the module's DOP853 driver ``solve_ivp`` on the block
    kernel built here from ``rhs_into`` and ``start``.  The kernel does
    scipy's numpy arithmetic, so the output bits and ``nfev`` are those of
    ``scipy.integrate.solve_ivp(method="DOP853")`` without importing scipy.
    The right-hand side writes each stage's slope straight into the kernel's
    stage row, and skips the coupling and the drag flip when they add
    exactly 0.  A span of zero length raises ``ValueError``.
    """
    n_cols, n = config.n_columns, start.shape[1]
    cn = n_cols * n
    scale, psi_idx = config.coupling_scale, config.coupling_psi
    flip = (1.0 - config.drag_signs)[:, None]
    flip = flip if np.any(flip) else None  # every drag sign +1: theta_s gains 0 * theta
    coupled = bool(np.any(scale != 0.0))  # all-zero coupling adds exactly 0 to the drive
    lam = np.empty(n)

    def rhs_into(s, y, out):
        tau = math.exp(s)
        f = bg.f(tau)
        v = y[:cn].reshape(n_cols, n)
        dth = out[cn:].reshape(n_cols, n)
        out[:cn] = y[cn:]
        np.divide(lam0, f * f, out=lam)
        if coupled:
            amat = scale * _psi_at(bg, tau, f)[psi_idx]
            drive = (amat @ v) * np.sqrt(lam)
            if source is not None:
                drive += source(tau)
        else:
            drive = 0.0 if source is None else source(tau)
        np.multiply(lam, 4.0, out=lam)
        np.multiply(lam, v, out=dth)
        np.subtract(drive, dth, out=dth)
        dth *= tau * tau
        if flip is not None:
            dth += flip * y[cn:].reshape(n_cols, n)

    sol = solve_ivp(_block_kernel(rhs_into, start.ravel(), config.rtol, config.atol),
                    math.log(tau_from), math.log(taus[-1]), np.log(taus))
    return sol.y.reshape(len(taus), 2 * n_cols, n)


# DOP853 (Hairer, Norsett and Wanner, Solving ODEs I, sec. II.5) with scipy's
# coefficients: the nodes C and the stage rows A[s, :s] of stages 0..15.  Stages
# 1..11 are a step's, 12 is the slope at its end point (its row is the solution
# weights B) and 13..15 are the extra stages of the dense output.  E5 and E3
# weigh the two error estimates, D the interpolant's top four coefficients.
_DOP853_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
             0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6,
             0.8571428571428571, 1.0, 1.0, 0.1, 0.2, 0.7777777777777778)
_DOP853_A = (
    (), (0.05260015195876773,), (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596, -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726, 27.59209969944671,
     20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843, 21.230051448181193,
     15.279233632882423, -33.28821096898486, -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295, -8.149787010746927,
     -18.52006565999696, 22.739487099350505, 2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625, -17.9589318631188,
     27.94888452941996, -2.8589982771350235, -8.87285693353063, 12.360567175794303,
     0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161, 0.20136540080403034,
     0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483, -0.2462390374708025,
     -0.12419142326381637, 0.15329179827876568, 0.00820105229563469, 0.007567897660545699,
     -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776, 0.053541988307438566,
     -0.05492374857139099, 0.0, 0.0, -0.00010834732869724932, 0.0003825710908356584,
     -0.00034046500868740456, 0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987),
)
_DOP853_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044, -0.4957589496572502,
              1.6643771824549864, -0.35032884874997366, 0.3341791187130175, 0.08192320648511571,
              -0.022355307863886294, 0.0)
_DOP853_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409, 1.8915178993145003,
              -5.801203960010585, -0.4226823213237919, -0.1521609496625161, 0.20136540080403034,
              0.02265179219836082, 0.0)
_DOP853_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544, -149.72683625798564),
)
_DOP853_B = _DOP853_A[12]
_DOP_EXPONENT = -1.0 / 8.0  # -1 / (error estimator order + 1)

# the block kernel's tables: (A[s, :s], C[s]) of a step's stages 1..11 and of
# the dense output's 13..15, and the weights, as arrays
_STEP_STAGES = tuple((np.array(a), c) for a, c in zip(_DOP853_A[1:12], _DOP853_C[1:12]))
_DENSE_STAGES = tuple((np.array(a), c) for a, c in zip(_DOP853_A[13:], _DOP853_C[13:]))
_B, _E5, _E3, _D = map(np.array, (_DOP853_B, _DOP853_E5, _DOP853_E3, _DOP853_D))


def _nonzero(row):
    return tuple((j, float(a)) for j, a in enumerate(row) if a != 0.0)


def _weighted(k, row):
    acc = 0.0
    for j, a in row:
        acc += k[j] * a
    return acc


# the scalar kernel's tables: stages 1..11 and 13..15 as (c, ((j, a), ...)), the
# weights B and D, and E5 and E3 as (j, e5, e3), as Python floats with the zero
# weights dropped (E5 and E3 have the same zero entries)
_DOP_STAGES = tuple((c, _nonzero(a)) for a, c in zip(_DOP853_A[1:12], _DOP853_C[1:12]))
_DOP_EXTRA = tuple((c, _nonzero(a)) for a, c in zip(_DOP853_A[13:], _DOP853_C[13:]))
_DOP_B = _nonzero(_DOP853_B)
_DOP_E = tuple((j, e5, e3) for j, (e5, e3) in enumerate(zip(_DOP853_E5, _DOP853_E3)) if e5 or e3)
_DOP_D = tuple(map(_nonzero, _DOP853_D))
_SQRT2 = 2.0**0.5


def solve_ivp(kernel, s_from, s_to, s_eval):
    """DOP853 from s_from to s_to on ``kernel``, sampled at ``s_eval``.

    Step for step this is scipy's ``solve_ivp(method="DOP853", t_eval=s_eval)``
    (scipy 1.17): its initial step, step-size control, min-step failure,
    rule for which requested times a step reached and dense-output Horner,
    on the kernel's stage arithmetic.  Returns ``y`` (one row per requested
    time) and ``nfev``, the RHS count.

    ``kernel`` is (n, norms, probe, attempt, dense, accept).  It holds the
    state, from the run's start on, and the stage slopes K[0..15]:

    * n: the state's length;
    * norms(s): the RMS norms of the start state and of its slope, kept as K[0];
    * probe(s, dh): the RMS norm of the slope's change over an Euler step dh;
    * attempt(t, h): the E5 and E3 sums of squares of a step from t;
    * dense(t, h): the attempted step's start and its interpolant's F0..F6;
    * accept(): the attempted step's end becomes the state, its slope K[0].
    """
    direction = 1.0 if s_to > s_from else -1.0
    steps = direction * np.diff(s_eval)
    if (s_from == s_to or len(s_eval) == 0 or np.any(steps <= 0.0)
            or direction * (s_eval[0] - s_from) < 0.0 or direction * (s_to - s_eval[-1]) < 0.0):
        raise ValueError("evaluation times must run strictly from tau_from toward tau_to, "
                         "inside a nonempty span")
    n, norms, probe, attempt, dense, accept = kernel
    times, out = s_eval.tolist(), np.empty((len(s_eval), n))

    # the initial step (select_initial_step, error estimator order 7)
    d0, d1 = norms(s_from)
    interval = abs(s_to - s_from)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, interval)
    d2 = probe(s_from, h0 * direction) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_DOP_EXPONENT
    h_abs, nfev = min(100 * h0, h1, interval), 2

    t, done = s_from, 0
    while t != s_to:
        # one accepted step (RungeKutta._step_impl, no step cap)
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError(
                    f"integration failed between tau={math.exp(s_from):g} and {math.exp(s_to):g}: "
                    "Required step size is less than spacing between numbers; try a larger "
                    "tau_seed or looser tolerances")
            t_new = t + h_abs * direction
            if direction * (t_new - s_to) > 0:
                t_new = s_to
            h = t_new - t
            h_abs = abs(h)
            e5, e3 = attempt(t, h)
            nfev += 12
            error_norm = (0.0 if e5 == 0 and e3 == 0
                          else h_abs * e5 / math.sqrt((e5 + 0.01 * e3) * n))
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** _DOP_EXPONENT)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** _DOP_EXPONENT)
            rejected = True

        # the dense output at the requested times this step reached
        reached = done
        while reached < len(times) and direction * (times[reached] - t_new) <= 0:
            reached += 1
        if reached > done:
            y, F = dense(t, h)
            nfev += 3
            x = ((s_eval[done:reached] - t) / h)[:, None]
            rows = out[done:reached]
            rows.fill(0.0)
            for i, coeffs in enumerate(reversed(F)):
                rows += coeffs
                rows *= x if i % 2 == 0 else 1 - x
            rows += y
            done = reached
        accept()
        t = t_new
    return SimpleNamespace(y=out, nfev=nfev)


def _block_kernel(rhs_into, y0, rtol, atol):
    """The stage arithmetic of scipy's DOP853 on a numpy state, with its numpy
    operations in its order, so ``solve_ivp`` on it gives scipy's output bits.

    ``rhs_into(s, y, out)`` writes y_s into ``out``.  Each stage input is
    formed in one buffer and ``rhs_into`` writes its slope into the stage's
    row of K.
    """
    n = y0.size
    K, buf = np.empty((16, n)), np.empty(n)
    y, y_new = y0.copy(), np.empty(n)
    scale = atol + np.abs(y0) * rtol

    def stages(t, h, table, first):
        for s, (a, c) in enumerate(table, start=first):
            stage = np.dot(K[:s].T, a, out=buf)
            stage *= h
            stage += y
            rhs_into(t + c * h, stage, K[s])

    def norms(s):
        rhs_into(s, y, K[0])
        return np.linalg.norm(y / scale) / n ** 0.5, np.linalg.norm(K[0] / scale) / n ** 0.5

    def probe(s, dh):
        rhs_into(s + dh, y + dh * K[0], buf)
        return np.linalg.norm((buf - K[0]) / scale) / n ** 0.5

    def attempt(t, h):
        stages(t, h, _STEP_STAGES, 1)
        np.add(y, h * np.dot(K[:12].T, _B), out=y_new)
        rhs_into(t + h, y_new, K[12])
        err_scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        return (np.linalg.norm(np.dot(K[:13].T, _E5) / err_scale) ** 2,
                np.linalg.norm(np.dot(K[:13].T, _E3) / err_scale) ** 2)

    def dense(t, h):
        stages(t, h, _DENSE_STAGES, 13)
        delta = y_new - y
        return y, (delta, h * K[0] - delta, 2 * delta - h * (K[12] + K[0]), *(h * np.dot(_D, K)))

    def accept():
        y[:] = y_new
        K[0] = K[12]

    return n, norms, probe, attempt, dense, accept


def _scalar_kernel(lam, u0, theta0, rtol, atol):
    """The stage arithmetic of u'' + u'/tau + lam u = 0 in the chart s = log tau,
    on Python floats.

    The state is (u, theta = tau u'), with u_s = theta and theta_s =
    -tau^2 lam u.  It takes scipy's DOP853 steps (the same error sums of
    squares and dense coefficients, up to the order of floating-point sums)
    without the per-stage numpy work, which on a two-entry state costs
    several times the right-hand side.
    """
    ku, kt = [0.0] * 16, [0.0] * 16  # stage slopes: u_s and theta_s
    y, y_new = [u0, theta0], [u0, theta0]
    sc_u, sc_t = atol + abs(u0) * rtol, atol + abs(theta0) * rtol

    def norms(s):
        tau = math.exp(s)
        ku[0], kt[0] = theta0, -tau * tau * lam * u0
        return (math.sqrt((u0 / sc_u) ** 2 + (theta0 / sc_t) ** 2) / _SQRT2,
                math.sqrt((ku[0] / sc_u) ** 2 + (kt[0] / sc_t) ** 2) / _SQRT2)

    def probe(s, dh):
        tau = math.exp(s + dh)
        gu, gt = theta0 + dh * kt[0], -tau * tau * lam * (u0 + dh * ku[0])
        return math.sqrt(((gu - ku[0]) / sc_u) ** 2 + ((gt - kt[0]) / sc_t) ** 2) / _SQRT2

    # the stage sums are written out, on names bound as locals: a _weighted
    # call per sum is ~20% slower
    def attempt(t, h, ku=ku, kt=kt, lam=lam, exp=math.exp):
        u, theta = y
        for i, (c, row) in enumerate(_DOP_STAGES, 1):
            su = st = 0.0
            for j, a in row:
                su += ku[j] * a
                st += kt[j] * a
            tau = exp(t + c * h)
            ku[i] = theta + st * h
            kt[i] = -tau * tau * lam * (u + su * h)
        su = st = 0.0
        for j, b in _DOP_B:
            su += ku[j] * b
            st += kt[j] * b
        u_new, theta_new = u + h * su, theta + h * st
        y_new[0], y_new[1] = u_new, theta_new
        tau = exp(t + h)
        ku[12], kt[12] = theta_new, -tau * tau * lam * u_new

        e_u = atol + max(abs(u), abs(u_new)) * rtol
        e_t = atol + max(abs(theta), abs(theta_new)) * rtol
        e5u = e5t = e3u = e3t = 0.0
        for j, e5, e3 in _DOP_E:
            a, b = ku[j], kt[j]
            e5u += a * e5
            e5t += b * e5
            e3u += a * e3
            e3t += b * e3
        return (e5u / e_u) ** 2 + (e5t / e_t) ** 2, (e3u / e_u) ** 2 + (e3t / e_t) ** 2

    def dense(t, h):
        (u, theta), (u_new, theta_new) = y, y_new
        for i, (c, row) in enumerate(_DOP_EXTRA, 13):
            tau = math.exp(t + c * h)
            ku[i] = theta + _weighted(kt, row) * h
            kt[i] = -tau * tau * lam * (u + _weighted(ku, row) * h)
        F = []
        for k, old, new in ((ku, u, u_new), (kt, theta, theta_new)):
            delta = new - old
            F.append([delta, h * k[0] - delta, 2.0 * delta - h * (k[12] + k[0]),
                      *(h * _weighted(k, row) for row in _DOP_D)])
        return y, np.array(F).T

    def accept():
        y[:] = y_new
        ku[0], kt[0] = ku[12], kt[12]

    return 2, norms, probe, attempt, dense, accept


def _eval_taus(tau_from, tau_to, grid):
    lo, hi = min(tau_from, tau_to), max(tau_from, tau_to)
    if grid is not None:
        inner = grid[(grid > lo) & (grid < hi)]
    else:
        inner = np.geomspace(lo, hi, 33)[1:-1]
    taus = np.concatenate([[lo], inner, [hi]])
    if tau_to < tau_from:
        taus = taus[::-1]
    return taus


# ------------------------------------------------------- seeding/extraction


def _branch_maps(config, lattice, bg, tau):
    """Per-degree maps from one slot's branch coefficients to its state at tau.

    The coefficients are (O, h, phi0_1..phi0_I, a_1..a_I): O is that of
    column 0's aux branch with a factor 2, h that of its main branch, phi0_i
    and a_i those of column i's main and aux branches.  The state is the
    stacked (values, tau-derivatives) of every column, so the maps have shape
    (n_degrees, 2 n_columns, 2 n_columns), diagonal coupling folded in.  Their
    first n_columns + 1 columns seed a slot from its data vector.  A tau whose
    series remainder is too large to trust raises ``ValueError``.
    """
    n_cols, n_deg = config.n_columns, lattice.l_max + 1
    maps = np.zeros((n_deg, 2, n_cols, 2 * n_cols))
    worst = 0.0
    for i in range(n_cols):
        basis = frobenius_basis(
            lattice.lam0, bg, drag_sign=int(config.drag_signs[i]),
            diag_psi=int(config.coupling_psi[i, i]), diag_scale=float(config.coupling_scale[i, i]),
        )
        # each (value or tau-derivative, degree)
        aux, main = np.array(basis.aux(tau)), np.array(basis.main(tau))
        maps[:, :, i, i + 1] = main.T
        maps[:, :, i, n_cols + i if i else 0] = (1.0 if i else 2.0) * aux.T
        worst = max(worst, float(np.max(basis.truncation_defect(tau))))
    limit = max(100.0 * config.rtol, 1e-11)
    if worst > limit:
        raise ValueError(
            f"tau_seed={tau:g} too large: series remainder {worst:.2e} exceeds "
            f"{limit:.2e}; move the seed earlier"
        )
    return maps.reshape(n_deg, 2 * n_cols, 2 * n_cols)


def _data_vectors(config, lattice, data):
    """A run's data vectors (O, h, phi0_1..phi0_I), checked to be (n_columns +
    1, n_slots): O on column 0's log branch, h its finite part, phi0_i the
    limit of regular column i."""
    x = np.asarray(data, dtype=float)
    want = (config.n_columns + 1, lattice.n_slots)
    if x.shape != want:
        raise ValueError(f"asymptotic data has shape {x.shape}, expected "
                         f"(n_columns + 1, n_slots) = {want}")
    return x


def data_to_state_maps(config, lattice, bg, tau, part=None):
    """Per-degree linear maps from data vectors to the state at tau.

    The data vector per slot is (O, h, phi0_1..phi0_I), or (O, frak_h,
    phi0_1..phi0_I) when the partition ``part`` is given, with h = frak_h +
    2 ell O folded into the O column.  The output is the stacked (values, tau
    * derivs) vector of length 2 n_columns that the propagators act on.
    These are the first n_columns + 1 columns of ``_branch_maps``.
    """
    n_cols = config.n_columns
    maps = np.ascontiguousarray(_branch_maps(config, lattice, bg, tau)[:, :, : n_cols + 1])
    if part is not None:
        ell = log_grad_weights(part, eigenvalue_at(bg, lattice.lam0, 0.0))
        maps[:, :, 0] += 2.0 * ell[:, None] * maps[:, :, 1]
    maps[:, n_cols:] *= tau
    return maps


def _extraction_maps(config, lattice, bg, tau):
    """Per-degree maps from one slot's stacked (values, tau * derivs) state at tau to its data.

    The inverse of ``_branch_maps`` with its derivative rows scaled by tau:
    the rows are the data vector (O, h, phi0_1..phi0_I) and then the
    aux-branch coefficients of the regular columns.  A tau that cannot seed
    cannot be extracted from either, and raises the same ``ValueError``.
    """
    maps = _branch_maps(config, lattice, bg, tau)
    maps[:, config.n_columns:] *= tau
    return np.linalg.inv(maps)


# --------------------------------------------------------- per-degree runs


def _per_slot(lattice, maps, vectors, forced=None):
    """Each slot's vector through its degree's map, plus the degree's forced response.

    ``maps`` is (n_degrees, ..., k), ``vectors`` (k, n_slots) and ``forced``
    (n_degrees, ...); returns (..., n_slots).  One product per degree, so no
    per-slot copy of the maps is formed.
    """
    out = np.empty(maps.shape[1:-1] + (lattice.n_slots,))
    for l in range(lattice.l_max + 1):
        sl = lattice.slots_of_degree(l)
        out[..., sl] = maps[l] @ vectors[:, sl]
        if forced is not None:
            out[..., sl] += forced[l][..., None]
    return out


def seeded_runs(config, lattice, bg, draws, grid=None):
    """Runs of several data sets from config.tau_seed to 1, on one propagator solve.

    Every slot of degree l obeys the same linear system, so the data vector
    x_s = (O, h, phi0_1..phi0_I) of slot s runs to (P_l S_l) x_s + F_l, with
    S_l from ``data_to_state_maps`` and P_l, F_l from
    ``fundamental_matrices`` and ``forced_profile``.  The times are tau_seed,
    the grid's times inside (tau_seed, 1) (33 log-spaced ones without a grid)
    and 1.  Returns the stacked (values, tau * derivs) of every draw, shape
    (n_draws, n_times, 2 n_columns, n_slots); each draw is an array of data
    vectors, shape (n_columns + 1, n_slots).  For the second family the
    regular rows of P started from column 0 are exactly 0, since those rows
    do not couple back to column 0, and F does not read the data; so the
    regular rows ignore the singular data bit for bit.
    """
    tau = config.tau_seed
    taus = _eval_taus(tau, 1.0, grid)
    maps = (fundamental_matrices(config, lattice, bg, tau, taus)
            @ data_to_state_maps(config, lattice, bg, tau)[:, None])
    forced = forced_profile(config, lattice, bg, tau, taus)
    return np.array([_per_slot(lattice, maps, _data_vectors(config, lattice, d), forced)
                     for d in draws])


def roundtrip_data(config, lattice, bg, data):
    """Data recovered after the run from config.tau_seed to 1 and back, one map per degree.

    Slot s of degree l recovers M_l x_s from its data vector x_s = (O, h,
    phi0_1..phi0_I), with M_l = X_l P_l(tau_seed <- 1) P_l(1 <- tau_seed) S_l:
    S_l from ``data_to_state_maps``, the P_l from ``fundamental_matrices``
    and X_l = ``_extraction_maps``, the inverse of the branch map S_l extends.
    Returns the recovered data vectors, shape (n_columns + 1, n_slots), and
    the singular contamination, the largest log-branch coefficient recovered
    on a regular column (0 for the second family, whose other branch is
    tau^2).  A forced config is rejected.
    """
    if _forcing_source(config) is not None:
        raise ValueError("the round trip composes unforced runs only")
    tau, n_cols = config.tau_seed, config.n_columns
    extract = _extraction_maps(config, lattice, bg, tau)
    there = fundamental_matrices(config, lattice, bg, tau, np.array([1.0]))[:, 0]
    back = fundamental_matrices(config, lattice, bg, 1.0, np.array([tau]))[:, 0]
    out = _per_slot(lattice, extract @ back @ there @ data_to_state_maps(config, lattice, bg, tau),
                    _data_vectors(config, lattice, data))
    contamination = 0.0
    if config.system == "first":
        contamination = float(np.max(np.abs(out[n_cols + 1:]), initial=0.0))
    return out[: n_cols + 1], contamination


# -------------------------------------------------------------- scalar mode


def constant_mode_run(lam, u0, du0, tau_from, tau_to, taus=None):
    """Integrate the calibration scalar mode u'' + u'/tau + lam u = 0.

    Returns (taus, u, du) at ``taus`` (default: 33 geometric times spanning
    the run), which must run from tau_from toward tau_to, at rtol 1e-11 and
    atol 1e-13.  This is the toy the dyadic decay measurement runs shell by
    shell against the Bessel oracle; at omega = 4096 one run takes about 190k
    RHS evaluations.  It is one ``solve_ivp`` on the scalar kernel built here
    from ``lam``, which does the stage sums in the log chart on Python floats:
    about 0.2 s for that run against 1.5 s on the block kernel, whose
    per-step array work costs several times a two-entry RHS (2-core Xeon VM).
    """
    eval_taus = _eval_taus(tau_from, tau_to, None) if taus is None else np.asarray(taus, float)
    sol = solve_ivp(_scalar_kernel(float(lam), float(u0), tau_from * float(du0), 1e-11, 1e-13),
                    math.log(tau_from), math.log(tau_to), np.log(eval_taus))
    return eval_taus, sol.y[:, 0], sol.y[:, 1] / eval_taus


# --------------------------------------------------- singular/regular split


def split_singular_component(config, lattice, bg, data, grid, part):
    """Evolve the log-branch and renormalized components of column 0.

    The log-branch component solves the homogeneous self-coupled column-0
    equation with data (2 O log tau + 2 ell O); the renormalized
    component solves the full column-0 equation (couplings to the regular
    columns and forcing included) with data frak_h = h - 2 ell O, ell the
    log-derivative weights of ``part``.  Their sum reproduces the
    direct column-0 run.  Both ride along as two extra columns of one
    augmented first-family system, seeded by the first n_columns + 1 columns
    of ``_branch_maps`` applied to the data vectors (O, h, phi0), (O, 2 ell
    O, 0) and (0, frak_h, 0), and composed per degree as P[l] @ y0 + F[l].
    Returns the (log-branch, renormalized) pair, each the stacked (value, tau
    * derivative) of its column at the times of ``seeded_runs``, shape
    (n_times, 2, n_slots).  A second-family config, whose regular rows carry
    the opposite drag, is rejected.
    """
    if config.system != "first":
        raise ValueError("the split runs the first system family only")
    tau0 = float(config.tau_seed)
    n_cols = config.n_columns
    x = _data_vectors(config, lattice, data)
    ell = np.repeat(log_grad_weights(part, eigenvalue_at(bg, lattice.lam0, 0.0)), lattice.mult)
    y, j = np.zeros_like(x), np.zeros_like(x)
    y[0], y[1] = x[0], 2.0 * ell * x[0]
    j[1] = x[1] - y[1]  # frak_h = h - 2 ell O
    maps = np.repeat(_branch_maps(config, lattice, bg, tau0)[:, :, : n_cols + 1], lattice.mult,
                     axis=0)
    pairs = np.einsum("sck,vks->vcs", maps, np.array([x, y, j])).reshape(3, 2, n_cols, -1)
    # the original columns, then column 0 of the log-branch and renormalized seeds
    values, derivs = (np.concatenate([pairs[0, r], pairs[1:, r, 0]]) for r in (0, 1))

    # augmented coupling: the log-branch row is purely self-coupled, the
    # renormalized row keeps the self term plus the original cross terms
    scale, psi = np.pad(config.coupling_scale, (0, 2)), np.pad(config.coupling_psi, (0, 2))
    for m in (scale, psi):
        m[n_cols, n_cols] = m[-1, -1] = m[0, 0]
        m[-1, 1:n_cols] = m[0, 1:n_cols]

    aug = SystemConfig(
        n_regular=n_cols + 1, system="first", top_order=config.top_order, coupling_scale=scale,
        coupling_psi=psi, forcings=(*config.forcings, Forcing(), config.forcings[0]),
        tau_seed=tau0, rtol=config.rtol, atol=config.atol,
    )
    taus = _eval_taus(tau0, 1.0, grid)
    run = _per_slot(lattice, fundamental_matrices(aug, lattice, bg, tau0, taus),
                    np.concatenate([values, tau0 * derivs]),
                    forced_profile(aug, lattice, bg, tau0, taus))
    # column i's value row is i and its tau * derivative row n_columns + i
    return tuple(run[:, i :: aug.n_columns] for i in (n_cols, n_cols + 1))


# -------------------------------------------------- epsilon-regularization


@dataclass(frozen=True)
class EpsilonReport:
    ladder: tuple[float, ...]
    discrepancies: tuple[float, ...]
    ratios: tuple[float, ...]
    monotone: bool
    passed: bool


def _rung_start(config, cut):
    """A rung's start as a map from the data vector (O, h, phi0_1..phi0_I) to
    the stacked (values, tau * derivs) at the cutoff: the two-term expansion,
    values (2 log(cut) O + h, phi0_1, ...) and tau v' (2 O, 0, ...)."""
    n_cols = config.n_columns
    start = np.zeros((2 * n_cols, n_cols + 1))
    start[0, :2] = 2.0 * math.log(cut), 1.0
    start[1:n_cols, 2:] = np.eye(n_cols - 1)
    start[n_cols, 0] = 2.0
    return start


def epsilon_construction_check(config, lattice, bg, data, eps=1e-2, rungs=3):
    """Cutoff-stability of the renormalized construction, first family only.

    Each rung starts the full run at a small cutoff from the two-term
    expansion: values (2 O log tau + h, phi0_1, ...) and tau-derivatives
    (2 O / tau, 0, ...).  That start is one map C_cut of the data vector
    (``_rung_start``), so on slot s of degree l a rung ends at tau = 1 in
    P_l(1 <- cut) C_cut x_s + F_l.  Every column's drag operator annihilates that
    expansion, so the run is the expansion plus the zero-data run of the
    subtracted problem, and the expansion cancels between rungs.  Runs
    started at eps, eps/2, ... must agree at tau = 1 up to a discrepancy
    shrinking like eps^2 log^2 eps, i.e. successive differences contract by
    at least ~3 per halving at eps = 1e-2.  Differences are measured in the
    phase-free envelope metric at tau = 1.  Data zero off lambda = 0 is
    rejected: the expansion is exact there, so the gate would grade round-off.

    The second family is rejected.  Its regular rows have the -1/tau drag,
    whose other branch is tau^2; the expansion misses their derivative by
    O(eps log eps), which excites that branch at amplitude O(log eps), so
    successive rungs differ by a nearly constant amount (ratios 1.0000 to
    1.0001 measured on 10 seeds at eps = 1e-3) and the contraction gate can
    only fail.
    """
    if config.system != "first":
        raise ValueError("the cutoff ladder runs the first system family only")
    if not 0.0 < eps < 0.1:
        raise ValueError(f"cutoff must lie in (0, 0.1), got {eps}")
    if rungs < 2:
        raise ValueError("need at least two rungs to form a ratio")
    x = _data_vectors(config, lattice, data)
    if not np.any(x[:, lattice.offsets[1]:]):  # lambda > 0 on every degree l >= 1
        raise ValueError("asymptotic data is identically zero on the modes with lambda > 0")
    lam1 = eigenvalue_at(bg, lattice.lam0, 1.0)
    omega = np.repeat(2.0 * np.sqrt(np.maximum(lam1, 1.0)), lattice.mult)

    ends, one = [], np.array([1.0])
    ladder = [eps / 2.0**j for j in range(rungs + 1)]
    for cut in ladder:
        # at tau = 1 the stacked (values, tau * derivs) are the (values, derivs)
        maps = fundamental_matrices(config, lattice, bg, cut, one)[:, 0] @ _rung_start(config, cut)
        forced = forced_profile(config, lattice, bg, cut, one)[:, 0]
        ends.append(_per_slot(lattice, maps, x, forced))

    n_cols = config.n_columns
    discrepancies = [
        float(np.sqrt(np.sum((a[:n_cols] - b[:n_cols]) ** 2)
                      + np.sum(((a[n_cols:] - b[n_cols:]) / omega) ** 2)))
        for a, b in zip(ends[:-1], ends[1:])
    ]
    ratios = [a / b if b > 0.0 else math.inf for a, b in zip(discrepancies[:-1], discrepancies[1:])]
    monotone = all(a >= b for a, b in zip(discrepancies[:-1], discrepancies[1:]))
    passed = monotone and all(r >= 3.0 for r in ratios)
    return EpsilonReport(
        ladder=tuple(ladder), discrepancies=tuple(discrepancies),
        ratios=tuple(ratios), monotone=monotone, passed=passed,
    )


# ------------------------------------------------- ensemble fast machinery


def fundamental_matrices(config, lattice, bg, tau_anchor, taus):
    """Per-degree propagators from tau_anchor to each requested time.

    Returns (n_degrees, n_times, d, d) with d = 2 n_columns, acting on the
    stacked (values, tau * derivs) vector of one slot.  The per-mode system
    only depends on the degree, so every run of data and the ensembles over
    random data reduce to matrix multiplication against these.  One solve
    carries all d unit starts of every degree.  The result is a degree-major
    view of that solve's (time, row, degree * d + start) rows, not a copy, so
    each propagator is held once.
    """
    d, n_deg = 2 * config.n_columns, lattice.l_max + 1
    start = np.tile(np.eye(d), n_deg)  # entry degree * d + j starts at unit vector j
    rows = _propagate(config, np.repeat(lattice.lam0, d), bg, None, start, tau_anchor, taus)
    return rows.reshape(len(taus), d, n_deg, d).transpose(2, 0, 1, 3)


def forced_profile(config, lattice, bg, tau_anchor, taus):
    """Zero-data response to the configured forcing, per degree.

    Returns (n_degrees, n_times, d), a degree-major view of the solve's
    (time, row, degree) rows; every slot of a degree is forced with the same
    profile, so this broadcasts across slots.
    """
    d, n_deg = 2 * config.n_columns, lattice.l_max + 1
    src = _forcing_source(config)
    if src is None:
        return np.zeros((n_deg, len(taus), d))
    rows = _propagate(config, lattice.lam0, bg, src, np.zeros((d, n_deg)), tau_anchor, taus)
    return rows.transpose(2, 0, 1)
