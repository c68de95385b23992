"""Time evolution of the damped first-order system with exact energy accounting.

Per transverse mode the system is

    du/dt = v,   dv/dt = (D2 - lam_k - m^2) u - a(x) v,

advanced by the implicit midpoint rule.  The midpoint update preserves the
discrete quadratic energy law exactly: with the form energy
E = sum_k h (<(-D2 + lam_k + m^2) u_k, u_k> + ||v_k||^2),

    E(t_{n+1}) - E(t_n) + 2 dt sum_k h <a v_{mid,k}, v_{mid,k}> = 0

up to roundoff, which makes dissipation bookkeeping a hard invariant.  The
modes do not couple, so every operation acts on a whole block of mode
coefficients at once, and a mode with no data stays exactly zero: ``run``
steps and records only the modes that carry data, and lifts them back to the
(K, N) block only for snapshots.

A step together with its identity check applies P = -D2 + lam_k + m^2 twice:
to v_n in the midpoint right-hand side, and to u_{n+1} in the check's form
energy, whose P u_{n+1} the next step reuses as its P u.  The midpoint matrix
and the smoothing resolvent use the band factor ``discretize.BandCholesky``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .discretize import (BandCholesky, DampingProfile, Grid1D, gradient_1d,
                         laplacian_1d, weight)
from .errors import SolveError

WAVE_NEUMANN = "wave_neumann"
WAVE_DIRICHLET = "wave_dirichlet"
WAVE_EUCLIDEAN = "wave_euclidean"
KLEIN_GORDON = "klein_gordon"

FLAVORS = (WAVE_NEUMANN, WAVE_DIRICHLET, WAVE_EUCLIDEAN, KLEIN_GORDON)


@dataclass(frozen=True)
class WaveState:
    """Mode-coefficient snapshot (u, v = du/dt) at time t."""

    t: float
    modes: np.ndarray = field(repr=False)    # (K, N)
    vmodes: np.ndarray = field(repr=False)   # (K, N)
    flavor: str = WAVE_NEUMANN
    mass: float = 0.0

    def __post_init__(self):
        if self.modes.shape != self.vmodes.shape or self.modes.ndim != 2:
            raise ValueError(
                f"u and v coefficient grids must share a (K, N) shape, got "
                f"{self.modes.shape} and {self.vmodes.shape}")
        if self.flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {self.flavor!r}")


@dataclass(frozen=True)
class EnergyRecord:
    t: float
    E_total: float
    E_local: float
    E_w: float
    grad_w: float
    dtu_w: float
    E_p0: float
    E_p0perp: float
    dissipation_cum: float

    COLUMNS = ("t", "E_total", "E_local", "E_w", "grad_w", "dtu_w",
               "E_p0", "E_p0perp", "dissipation_cum")


class Stepper:
    """Prefactored implicit-midpoint stepper for a fixed dt.

    The per-mode midpoint matrix (1 + tau a) + tau^2 P, P = -D2 + lam_k + m^2,
    is symmetric positive definite and banded; the K of them are
    Cholesky-factored once as one stacked ``BandCholesky``, and every step
    solves with that factor by one LAPACK call.

    A step applies P to v_n, and to u_n unless ``mode_energies`` already did
    for this very array: the identity check's P u_{n+1} is the next step's
    P u, so a step plus its check costs two applications of P, and the step's
    bits do not depend on whether the check ran.  State arrays are treated as
    immutable.  The factor is checked once, when it is built; instead of a
    per-step finiteness check of the data, a non-finite dissipation raises
    ``SolveError``.  That is the same test: a non-finite entry of u or v
    spreads through its mode's triangular sweeps into v_mid, and a v_mid^2
    stays non-finite even where a = 0, since 0 * inf is NaN.
    """

    def __init__(self, grid: Grid1D, lambdas: np.ndarray, damping: DampingProfile,
                 dt: float, order: int = 4, mass: float = 0.0):
        if dt <= 0:
            raise ValueError(f"time step must be positive, got dt={dt}")
        a = damping.samples
        if a.shape != (grid.N,):
            raise ValueError(
                f"damping must be sampled on the x-grid only (shape ({grid.N},)), got {a.shape}")
        self.grid = grid
        self.dt = float(dt)
        self.tau = 0.5 * self.dt
        self.a = a
        self.mass = float(mass)
        self.lambdas = np.asarray(lambdas, dtype=float)
        self.lam_eff = (self.lambdas + self.mass ** 2)[:, None]
        self.lap = laplacian_1d(grid, order=order)
        t2 = self.tau ** 2
        self._factor = BandCholesky(
            self.lap, 1.0 + self.tau * a + t2 * (self.lam_eff - self.lap.coeffs[0]), t2)
        self._pu = (None, None)     # (u, P u) of the last form energy

    def _apply_p(self, u: np.ndarray) -> np.ndarray:
        """(-D2 + lam_k + m^2) u_k for every mode k; lam u - D2 u rounds as -D2 u + lam u."""
        return self.lam_eff * u - self.lap.apply(u)

    def step(self, state: WaveState):
        """Advance one dt.  Returns (new_state, dissipation_increment)."""
        k_count = state.modes.shape[0]
        if k_count != len(self.lambdas):
            raise ValueError(f"state has {k_count} modes, stepper was built for {len(self.lambdas)}")
        tau = self.tau
        u, v = state.modes, state.vmodes
        pu = self._pu[1] if self._pu[0] is u else self._apply_p(u)
        rhs = v - tau * (self.a * v)
        rhs -= tau ** 2 * self._apply_p(v)
        rhs -= 2.0 * tau * pu
        vp = self._factor.solve(rhs)
        vsum = v + vp
        up = u + tau * vsum
        vsum *= 0.5     # v_mid
        diss = 2.0 * self.dt * self.grid.h * float(np.sum(self.a * vsum ** 2))
        if not math.isfinite(diss):
            raise SolveError(f"midpoint step at dt={self.dt} left non-finite values")
        return replace(state, t=state.t + self.dt, modes=up, vmodes=vp), diss

    def mode_energies(self, state: WaveState) -> np.ndarray:
        """Form energy h(<u_k, P u_k> + <v_k, v_k>) of each of the stepper's modes.

        Keeps P u for the next ``step`` of this state.
        """
        u, v = state.modes, state.vmodes
        pu = self._apply_p(u)
        self._pu = (u, pu)
        return self.grid.h * (np.vecdot(u, pu) + np.vecdot(v, v))


def smooth_initial_data(modes: np.ndarray, vmodes: np.ndarray, grid: Grid1D,
                        lambdas: np.ndarray, damping: DampingProfile,
                        k_applications: int, order: int = 4, mass: float = 0.0):
    """Apply the resolvent at z = i repeatedly to emulate extra regularity.

    Each application maps u to u' = (-D2 + lam + a + 1)^{-1} [(a+1) u + v],
    the displacement part of the resolvent of the evolution generator at z = i
    up to a global phase (irrelevant for energies), and sets the velocity to
    zero, so v enters through the first application only.  Data stays real.
    """
    if k_applications < 0:
        raise ValueError(f"need k >= 0 applications, got {k_applications}")
    lap = laplacian_1d(grid, order=order)
    a = damping.samples
    u = np.array(modes, dtype=float, copy=True)
    v = np.array(vmodes, dtype=float, copy=True)
    lam_eff = np.asarray(lambdas, dtype=float)[:, None] + mass ** 2
    factor = BandCholesky(lap, lam_eff + a + 1.0 - lap.coeffs[0])
    for _ in range(k_applications):
        u = factor.solve((a + 1.0) * u + v)
        v = np.zeros_like(u)
    return u, v


def energy(state: WaveState, grid: Grid1D, lambdas: np.ndarray, order: int = 4,
           delta1: float = 0.0, R: float | None = None,
           dissipation_cum: float = 0.0, rows: np.ndarray | None = None) -> EnergyRecord:
    """Assemble the energy record of a state at its time.

    ``lambdas`` are the K transverse eigenvalues.  The state's rows hold the
    modes ``rows`` (all K when None); every other mode is zero and enters
    only the sums, as zeros.  The mass comes from the state.  E_total is the
    form energy (the quantity obeying the exact discrete dissipation law).
    E_local windows a 4th-order FD-gradient sum to |x| <= R; at the full
    window there are no excluded nodes and the local energy coincides with
    E_total by construction.
    """
    if R is None:
        R = grid.X
    if R > grid.X:
        raise ValueError(f"local-energy radius R={R} exceeds the box X={grid.X}")
    h = grid.h
    u, v = state.modes, state.vmodes
    lambdas = np.asarray(lambdas, dtype=float)
    if rows is None:
        rows = np.arange(lambdas.size)
    lam_eff = (lambdas[rows] + float(state.mass) ** 2)[:, None]
    # form energy per mode: h(<(-D2 + lam_k + m^2) u_k, u_k> + ||v_k||^2),
    # summed over all K modes so the grouping does not depend on ``rows``
    grad = np.maximum(-np.sum(u * laplacian_1d(grid, order=order).apply(u), axis=-1), 0.0)
    per_mode = np.zeros(lambdas.size)
    per_mode[rows] = h * (grad + np.sum(lam_eff * u ** 2 + v ** 2, axis=-1))
    e_total = float(np.sum(per_mode))

    # a density placed in the (K, N) block, so that its sum groups the terms
    # as it does without ``rows`` and the record keeps its bits
    def block(dens):
        if len(rows) == lambdas.size:
            return dens
        out = np.zeros((lambdas.size, grid.N))
        out[rows] = dens
        return out

    du = gradient_1d(u, grid, order=order)
    grad_dens = du ** 2 + lam_eff * u ** 2
    w2 = weight(grid, -delta1) ** 2 if delta1 != 0.0 else np.ones(grid.N)
    grad_w_sq = h * float(np.sum(block(w2 * grad_dens)))
    dtu_w_sq = h * float(np.sum(block(w2 * v ** 2)))
    if R >= grid.X - 0.5 * h:
        e_local = e_total
    else:
        mask = np.abs(grid.xs) <= R
        e_local = h * float(np.sum(block(grad_dens + v ** 2)[:, mask]))

    if state.flavor == WAVE_NEUMANN:
        e_p0 = float(per_mode[0])
        e_p0perp = float(np.sum(per_mode[1:]))
    elif state.flavor == WAVE_DIRICHLET:
        e_p0, e_p0perp = 0.0, e_total
    else:
        e_p0, e_p0perp = e_total, 0.0

    return EnergyRecord(t=state.t, E_total=e_total, E_local=e_local,
                        E_w=grad_w_sq + dtu_w_sq, grad_w=math.sqrt(grad_w_sq),
                        dtu_w=math.sqrt(dtu_w_sq), E_p0=e_p0, E_p0perp=e_p0perp,
                        dissipation_cum=dissipation_cum)


@dataclass
class RunResult:
    records: list
    snapshots: list
    E0: float
    identity_max_step_residual: float
    identity_cumulative_residual: float
    wall_seconds: float

    def series(self) -> dict[str, np.ndarray]:
        cols = {name: np.array([getattr(r, name) for r in self.records])
                for name in EnergyRecord.COLUMNS}
        return cols


def geometric_schedule(t0: float, ratio: float, t_end: float) -> np.ndarray:
    """Sample times t0 * ratio^j up to t_end."""
    if not (t0 > 0 and ratio > 1 and t_end >= t0):
        raise ValueError(f"bad schedule parameters t0={t0}, ratio={ratio}, t_end={t_end}")
    n = int(math.floor(math.log(t_end / t0) / math.log(ratio))) + 1
    ts = t0 * ratio ** np.arange(n)
    return ts[ts <= t_end * (1 + 1e-12)]


def run(state0: WaveState, grid: Grid1D, lambdas: np.ndarray, damping: DampingProfile,
        dt: float, t_end: float, order: int = 4, t0: float = 1.0, sample_ratio: float = 1.1,
        delta1: float = 0.0, R: float | None = None, keep_snapshots: bool = False) -> RunResult:
    """Evolve to t_end, sampling energies on a geometric schedule.

    Only the active modes, the rows of ``state0`` with any nonzero u or v,
    are stepped: the others stay exactly zero, since a banded solve of a zero
    right-hand side returns zeros.  At each schedule time the energy record is
    taken from the active rows (``energy`` with ``rows``, which sums as over
    the full block), and a snapshot lifts them back into a (K, N) state with
    exact-zero inert rows.  The cumulative discrete energy
    identity is tracked at every step; its largest per-step and cumulative
    residuals are returned for assertion by the caller.
    """
    if dt <= 0:
        raise ValueError(f"time step must be positive, got dt={dt}")
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.shape != state0.modes.shape[:1]:
        raise ValueError(f"state has {state0.modes.shape[0]} modes, got {lambdas.size} eigenvalues")
    active = np.flatnonzero(np.any(state0.modes != 0, axis=1)
                            | np.any(state0.vmodes != 0, axis=1))
    state = replace(state0, modes=state0.modes[active], vmodes=state0.vmodes[active])
    if active.size:
        stepper = Stepper(grid, lambdas[active], damping, dt, order=order, mass=state0.mass)
        advance = stepper.step
        step_energy = lambda s: float(np.sum(stepper.mode_energies(s)))
    else:   # no mode carries data: the zero state only advances in time
        advance = lambda s: (replace(s, t=s.t + float(dt)), 0.0)
        step_energy = lambda s: 0.0

    def lift(sub: WaveState) -> WaveState:
        modes = np.zeros_like(state0.modes)
        vmodes = np.zeros_like(state0.vmodes)
        modes[active], vmodes[active] = sub.modes, sub.vmodes
        return replace(sub, modes=modes, vmodes=vmodes)

    def record(sub: WaveState, diss_cum: float = 0.0) -> EnergyRecord:
        return energy(sub, grid, lambdas, order=order, delta1=delta1, R=R,
                      dissipation_cum=diss_cum, rows=active)

    schedule = geometric_schedule(t0, sample_ratio, t_end)
    t_start = time.perf_counter()

    diss_cum = 0.0
    records = [record(state)]
    snapshots = [state0] if keep_snapshots else []
    e0 = step_energy(state)     # identity baseline, summed like every e_now
    e_prev = e0
    max_step_res = 0.0

    n_steps = int(round(t_end / dt))
    next_idx = 0
    for n in range(n_steps):
        state, diss = advance(state)
        diss_cum += diss
        e_now = step_energy(state)
        max_step_res = max(max_step_res, abs(e_now - e_prev + diss))
        e_prev = e_now
        while next_idx < len(schedule) and state.t >= schedule[next_idx] - 1e-9:
            records.append(record(state, diss_cum))
            if keep_snapshots:
                snapshots.append(lift(state))
            next_idx += 1

    cum_res = abs(e_prev - e0 + diss_cum)
    return RunResult(records=records, snapshots=snapshots,
                     E0=records[0].E_total,
                     identity_max_step_residual=max_step_res,
                     identity_cumulative_residual=cum_res,
                     wall_seconds=time.perf_counter() - t_start)


def gaussian_envelope(grid: Grid1D, sigma: float = 4.0, center: float = 0.0,
                      amplitude: float = 1.0) -> np.ndarray:
    return amplitude * np.exp(-((grid.xs - center) ** 2) / (2.0 * sigma ** 2))


def powerlaw_envelope(grid: Grid1D, q: float = 0.5, amplitude: float = 1.0) -> np.ndarray:
    """<x>^(-q) tails; q = 1/2 saturates the unweighted heat decay rates."""
    return amplitude * (1.0 + grid.xs ** 2) ** (-q / 2.0)


def assemble_initial_state(grid: Grid1D, n_modes: int, envelope: np.ndarray,
                           u0_modes: dict[int, float], u1_modes: dict[int, float],
                           flavor: str = WAVE_NEUMANN, mass: float = 0.0) -> WaveState:
    """Mode-mixed data u0 = sum_k c_k phi_k (x) envelope, likewise u1."""
    modes = np.zeros((n_modes, grid.N))
    vmodes = np.zeros((n_modes, grid.N))
    for k, c in u0_modes.items():
        if not 0 <= int(k) < n_modes:
            raise ValueError(f"u0 mode index {k} outside 0..{n_modes - 1}")
        modes[int(k)] = c * envelope
    for k, c in u1_modes.items():
        if not 0 <= int(k) < n_modes:
            raise ValueError(f"u1 mode index {k} outside 0..{n_modes - 1}")
        vmodes[int(k)] = c * envelope
    return WaveState(t=0.0, modes=modes, vmodes=vmodes, flavor=flavor, mass=mass)
