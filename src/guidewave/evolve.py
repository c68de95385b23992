"""Time evolution of the damped first-order system with exact energy accounting.

Per transverse mode the system is

    du/dt = v,   dv/dt = (D2 - lam_k) u - a(x) v,

advanced by the implicit midpoint rule; lam_k includes any Klein-Gordon m^2.
The midpoint update preserves the discrete quadratic energy law exactly:
with the form energy E = sum_k h (<(-D2 + lam_k) u_k, u_k> + ||v_k||^2),

    E(t_{n+1}) - E(t_n) + 2 dt sum_k h <a v_{mid,k}, v_{mid,k}> = 0

up to roundoff, which makes dissipation bookkeeping a hard invariant.  The
modes do not couple, so every operation acts on a whole block of mode
coefficients at once.  A state holds only the modes it evolves, with their
eigenvalues; row 0 is mode 0.  A mode with no data stays exactly zero, so a
caller evolves mode 0 and the modes that carry data.

A step together with its identity check applies P = -D2 + lam_k twice:
to v_n in the midpoint right-hand side, and to u_{n+1} in the check's form
energy, whose P u_{n+1} the next step reuses as its P u.  The midpoint matrix
and the smoothing resolvent use the band factor ``discretize.BandCholesky``.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .discretize import BandCholesky, DampingProfile, Grid1D, gradient_1d, weight
from .errors import SolveError

WAVE_NEUMANN = "wave_neumann"
WAVE_DIRICHLET = "wave_dirichlet"
WAVE_EUCLIDEAN = "wave_euclidean"
KLEIN_GORDON = "klein_gordon"

FLAVORS = (WAVE_NEUMANN, WAVE_DIRICHLET, WAVE_EUCLIDEAN, KLEIN_GORDON)


@dataclass(frozen=True)
class WaveState:
    """Mode-coefficient snapshot (u, v = du/dt) at time t, sampled on ``grid``.

    ``lambdas`` are the eigenvalues of its rows; row 0 is mode 0.
    """

    t: float
    grid: Grid1D
    lambdas: np.ndarray = field(repr=False)  # (K,)
    modes: np.ndarray = field(repr=False)    # (K, N)
    vmodes: np.ndarray = field(repr=False)   # (K, N)
    flavor: str = WAVE_NEUMANN

    def __post_init__(self):
        # a float array passes as itself, so ``replace`` keeps the very same array
        object.__setattr__(self, "lambdas", np.asarray(self.lambdas, dtype=float))
        shape = (len(self.lambdas), self.grid.N)
        if self.modes.shape != shape or self.vmodes.shape != shape:
            raise ValueError(f"u and v must have shape (eigenvalues, grid.N) = {shape}, got "
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

    The per-mode midpoint matrix (1 + tau a) + tau^2 P, P = -D2 + lam_k,
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

    def __init__(self, lambdas: np.ndarray, damping: DampingProfile, dt: float):
        if dt <= 0:
            raise ValueError(f"time step must be positive, got dt={dt}")
        self.grid = damping.grid
        self.dt = float(dt)
        self.tau = 0.5 * self.dt
        self.a = a = damping.samples
        self.lambdas = np.asarray(lambdas, dtype=float)
        self.lam_eff = self.lambdas[:, None]
        t2 = self.tau ** 2
        c0 = self.grid.laplacian.coeffs[0]
        self._factor = BandCholesky(self.grid, 1.0 + self.tau * a + t2 * (self.lam_eff - c0), t2)
        self._pu = (None, None)     # (u, P u) of the last form energy

    def step(self, state: WaveState):
        """Advance one dt.  Returns (new_state, dissipation_increment)."""
        # a run's states carry the stepper's own array (``replace`` keeps it): an O(1) test
        if state.lambdas is not self.lambdas and not np.array_equal(state.lambdas, self.lambdas):
            raise ValueError(f"state has eigenvalues {state.lambdas}, the stepper {self.lambdas}")
        tau = self.tau
        u, v = state.modes, state.vmodes
        pu = self._pu[1] if self._pu[0] is u else _apply_p(self.lam_eff, self.grid, u)
        rhs = v - tau * (self.a * v)
        rhs -= tau ** 2 * _apply_p(self.lam_eff, self.grid, v)
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
        pu = _apply_p(self.lam_eff, self.grid, u)
        self._pu = (u, pu)
        return _form_energies(u, pu, v, self.grid.h)


def _apply_p(lam_eff: np.ndarray, grid: Grid1D, u: np.ndarray) -> np.ndarray:
    """(-D2 + lam_k) u_k for every mode k; lam u - D2 u rounds as -D2 u + lam u."""
    return lam_eff * u - grid.laplacian.apply(u)


def _form_energies(u: np.ndarray, pu: np.ndarray, v: np.ndarray, h: float) -> np.ndarray:
    """Form energy h(<u_k, P u_k> + <v_k, v_k>) of every mode k, given P u."""
    return h * (np.vecdot(u, pu) + np.vecdot(v, v))


def smooth_initial_data(state: WaveState, damping: DampingProfile,
                        k_applications: int) -> WaveState:
    """Apply the resolvent at z = i repeatedly to emulate extra regularity.

    Each application maps u to u' = (-D2 + lam + a + 1)^{-1} [(a+1) u + v],
    the displacement part of the resolvent of the evolution generator at z = i
    up to a global phase (irrelevant for energies), and sets the velocity to
    zero, so v enters through the first application only.  Data stays real.
    """
    if k_applications < 0:
        raise ValueError(f"need k >= 0 applications, got {k_applications}")
    if state.grid != damping.grid:
        raise ValueError(f"state is sampled on {state.grid}, the damping on {damping.grid}")
    a, u, v = damping.samples, state.modes, state.vmodes
    factor = BandCholesky(damping.grid, state.lambdas[:, None] + a + 1.0
                          - damping.grid.laplacian.coeffs[0])
    for _ in range(k_applications):
        u = factor.solve((a + 1.0) * u + v)
        v = np.zeros_like(u)
    return replace(state, modes=u, vmodes=v)


def energy(state: WaveState, w2: np.ndarray | float = 1.0, R: float | None = None,
           dissipation_cum: float = 0.0) -> EnergyRecord:
    """Assemble the energy record of a state at its time.

    ``w2`` is the squared weight of E_w, grad_w and dtu_w, formed once per run
    as ``weight(state.grid, -delta1) ** 2``; the default 1.0 leaves them unweighted.
    E_total is the form energy, summed over the modes of
    ``Stepper.mode_energies`` by the same expression, so it is bit for bit
    the quantity the identity check of ``run`` tracks.  E_local windows a
    gradient sum, by the grid's stencil (``Grid1D.order``), to |x| <= R; at
    the full window there are no excluded nodes and the local energy
    coincides with E_total by construction.
    """
    grid = state.grid
    if R is None:
        R = grid.X
    if R > grid.X:
        raise ValueError(f"local-energy radius R={R} exceeds the box X={grid.X}")
    h = grid.h
    u, v = state.modes, state.vmodes
    lam_eff = state.lambdas[:, None]
    per_mode = _form_energies(u, _apply_p(lam_eff, grid, u), v, h)
    e_total = float(np.sum(per_mode))

    du = gradient_1d(u, grid)
    grad_dens = du ** 2 + lam_eff * u ** 2
    grad_w_sq = h * float(np.sum(w2 * grad_dens))
    dtu_w_sq = h * float(np.sum(w2 * v ** 2))
    if R >= grid.X - 0.5 * h:
        e_local = e_total
    else:
        mask = np.abs(grid.xs) <= R
        e_local = h * float(np.sum((grad_dens + v ** 2)[:, mask]))

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
    E0: float
    identity_max_step_residual: float
    identity_cumulative_residual: float
    wall_seconds: float

    def series(self) -> dict[str, np.ndarray]:
        return {name: np.array([getattr(r, name) for r in self.records])
                for name in EnergyRecord.COLUMNS}


def geometric_schedule(t0: float, ratio: float, t_end: float) -> np.ndarray:
    """Sample times t0 * ratio^j up to t_end."""
    if not (t0 > 0 and ratio > 1 and t_end >= t0):
        raise ValueError(f"bad schedule parameters t0={t0}, ratio={ratio}, t_end={t_end}")
    n = int(math.floor(math.log(t_end / t0) / math.log(ratio))) + 1
    ts = t0 * ratio ** np.arange(n)
    return ts[ts <= t_end * (1 + 1e-12)]


def run(state0: WaveState, damping: DampingProfile, dt: float, t_end: float,
        t0: float = 1.0, sample_ratio: float = 1.1, delta1: float = 0.0,
        R: float | None = None,
        on_sample: Callable[[WaveState], None] | None = None) -> RunResult:
    """Evolve to t_end, sampling energies on a geometric schedule.

    Every step advances all rows of ``state0`` by one ``Stepper``.  At each
    schedule time the energy record is taken, and ``on_sample``, when given,
    receives the state; it receives ``state0`` first.  ``run`` keeps none of
    the states, so its memory does not grow with the number of samples.  The
    cumulative discrete energy identity is tracked at every step; its largest
    per-step and cumulative residuals are returned for assertion by the
    caller.
    """
    if state0.grid != damping.grid:
        raise ValueError(f"state is sampled on {state0.grid}, the damping on {damping.grid}")
    stepper = Stepper(state0.lambdas, damping, dt)
    schedule = geometric_schedule(t0, sample_ratio, t_end)
    w2 = weight(damping.grid, -delta1) ** 2
    records = []

    def sample(state: WaveState, diss_cum: float) -> None:
        records.append(energy(state, w2=w2, R=R, dissipation_cum=diss_cum))
        if on_sample is not None:
            on_sample(state)

    t_start = time.perf_counter()
    state, diss_cum, max_step_res, next_idx = state0, 0.0, 0.0, 0
    sample(state, diss_cum)
    e0 = e_prev = float(np.sum(stepper.mode_energies(state)))
    for _ in range(int(round(t_end / dt))):
        state, diss = stepper.step(state)
        diss_cum += diss
        e_now = float(np.sum(stepper.mode_energies(state)))
        max_step_res = max(max_step_res, abs(e_now - e_prev + diss))
        e_prev = e_now
        while next_idx < len(schedule) and state.t >= schedule[next_idx] - 1e-9:
            sample(state, diss_cum)
            next_idx += 1

    return RunResult(records=records, E0=records[0].E_total,
                     identity_max_step_residual=max_step_res,
                     identity_cumulative_residual=abs(e_prev - e0 + diss_cum),
                     wall_seconds=time.perf_counter() - t_start)


def gaussian_envelope(grid: Grid1D, sigma: float, center: float, amplitude: float) -> np.ndarray:
    return amplitude * np.exp(-((grid.xs - center) ** 2) / (2.0 * sigma ** 2))


def powerlaw_envelope(grid: Grid1D, q: float, amplitude: float) -> np.ndarray:
    """<x>^(-q) tails; q = 1/2 saturates the unweighted heat decay rates."""
    return amplitude * (1.0 + grid.xs ** 2) ** (-q / 2.0)


def assemble_initial_state(grid: Grid1D, lambdas: np.ndarray, envelope: np.ndarray,
                           u0_modes: dict[int, float], u1_modes: dict[int, float],
                           flavor: str = WAVE_NEUMANN) -> WaveState:
    """Mode-mixed data u0 = sum_k c_k phi_k (x) envelope, likewise u1, on the
    rows whose eigenvalues are ``lambdas``."""
    n_modes = len(lambdas)
    modes, vmodes = np.zeros((n_modes, grid.N)), np.zeros((n_modes, grid.N))
    for name, rows, coeffs in (("u0", modes, u0_modes), ("u1", vmodes, u1_modes)):
        for k, c in coeffs.items():
            if not 0 <= int(k) < n_modes:
                raise ValueError(f"{name} mode index {k} outside 0..{n_modes - 1}")
            rows[int(k)] = c * envelope
    return WaveState(t=0.0, grid=grid, lambdas=lambdas, modes=modes, vmodes=vmodes,
                     flavor=flavor)
