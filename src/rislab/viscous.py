"""Viscosity-regularized time stepping and arc-length reparametrization.

The incremental problem is semi-implicit: the quadratic energy part is treated
implicitly, the smooth nonlinearity is linearized at the previous state, and
the viscous term epsilon/(2 tau) ||z - z_k||^2 keeps every step strongly
convex.  In dimension one each step has a closed-form proximal solution;
otherwise a proximal-gradient inner loop runs to a 1e-10 optimality residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SolverError
from .model import ParametrizedTuple, RISProblem
from .paths import LipschitzPath, compose_monotone, merge_breakpoints

INNER_TOL = 1e-10
INNER_MAX_ITER = 200_000


@dataclass(frozen=True)
class ViscousTrajectory:
    """Discrete solution of the viscosity-regularized evolution."""

    epsilon: float
    time_grid: np.ndarray  # (n,)
    states: np.ndarray  # (n, d)
    rates: np.ndarray  # (n-1, d) difference quotients

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise PreconditionError("epsilon must be positive")
        if self.time_grid.ndim != 1 or self.states.shape[0] != self.time_grid.size:
            raise PreconditionError("grid/state shape mismatch")

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def state_path(self) -> LipschitzPath:
        return LipschitzPath.from_samples(self.time_grid, self.states)


def _step_minimize(R, H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """argmin_delta R(delta) + 0.5 <H delta, delta> + <g, delta>."""
    d = g.size
    if d == 1:
        h = float(H[0, 0])
        return R.prox(-g / h, 1.0 / h)
    L = float(np.linalg.eigvalsh(H)[-1])
    delta = np.zeros(d)
    for _ in range(INNER_MAX_ITER):
        grad = H @ delta + g
        nxt = R.prox(delta - grad / L, 1.0 / L)
        res = L * float(np.linalg.norm(nxt - delta))
        delta = nxt
        if res <= INNER_TOL:
            return delta
    raise SolverError(
        f"inner proximal-gradient loop stalled (last residual {res:.3e})"
    )


def solve_viscous(
    problem: RISProblem, epsilon: float, step: float | None = None
) -> ViscousTrajectory:
    """March the regularized incremental problems across [0, T].

    The grid is uniform with the requested step, with every load breakpoint
    inserted.  Step k -> k+1 is driven by the right limit of the load at the
    new grid point, so at a load jump the step sees the post-jump value; the
    limits at all grid points are read from one ``limits_many`` call before
    the loop.
    """
    if not (epsilon > 0):
        raise PreconditionError("epsilon must be positive")
    tau = epsilon / 10.0 if step is None else float(step)
    if not (tau > 0):
        raise PreconditionError("step must be positive")
    n = max(int(np.ceil(problem.T / tau)), 1)
    grid = merge_breakpoints(np.linspace(0.0, problem.T, n + 1), problem.load.breakpoints)
    d = problem.dim
    A = problem.energy.A
    states = np.empty((grid.size, d))
    states[0] = problem.z0
    _, _, right_lim = problem.load.limits_many(grid)
    for k in range(grid.size - 1):
        dt = float(grid[k + 1]) - float(grid[k])
        ell = right_lim[k + 1]
        zk = states[k]
        H = A + (epsilon / dt) * np.eye(d)
        # gradient of the linearized energy at zk: A zk + D_zF(zk) - ell
        g = problem.energy.grad(zk) - ell
        states[k + 1] = zk + _step_minimize(problem.R, H, g)
    rates = np.diff(states, axis=0) / np.diff(grid)[:, None]
    return ViscousTrajectory(epsilon=epsilon, time_grid=grid, states=states, rates=rates)


def discrete_energy_gaps(traj: ViscousTrajectory, problem: RISProblem) -> np.ndarray:
    """Per-step energy-decrement residuals (<= 0 up to the smooth-part remainder)."""
    E = problem.energy.energy
    _, _, right_lim = problem.load.limits_many(traj.time_grid)
    gaps = np.empty(traj.time_grid.size - 1)
    for k in range(gaps.size):
        dt = float(traj.time_grid[k + 1] - traj.time_grid[k])
        delta = traj.states[k + 1] - traj.states[k]
        ell = right_lim[k + 1]
        gaps[k] = (
            E(traj.states[k + 1])
            + problem.R(delta)
            + 0.5 * (traj.epsilon / dt) * float(delta @ delta)
            - E(traj.states[k])
            - float(ell @ delta)
        )
    return gaps


def reparametrize(traj: ViscousTrajectory, problem: RISProblem) -> ParametrizedTuple:
    """Arc-length form of a discrete trajectory.

    The curve parameter accumulates 1 plus the contact cost rate by the
    trapezoidal rule on each step; the result is strictly increasing, so the
    inverse time map and the reparametrized state are plain resamplings.
    """
    grid, states = traj.time_grid, traj.states
    R = problem.R
    left_lim, _, right_lim = problem.load.limits_many(grid)
    G = problem.energy.grad_many(states)
    d0 = R.dist_to_elastic_many(right_lim[:-1] - G[:-1])
    d1 = R.dist_to_elastic_many(left_lim[1:] - G[1:])
    rate_norms = np.linalg.norm(traj.rates, axis=1)
    p_mean = R.eval_many(traj.rates) + rate_norms * 0.5 * (d0 + d1)
    increments = np.diff(grid) * (1.0 + p_mean)
    s_nodes = np.concatenate([[0.0], np.cumsum(increments)])
    if np.any(np.diff(s_nodes) <= 0):
        raise SolverError("arc-length map failed to be strictly increasing")
    S = float(s_nodes[-1])
    t_hat = LipschitzPath.from_samples(s_nodes, grid[:, None])
    z_hat = LipschitzPath.from_samples(s_nodes, states)
    ell_hat = compose_monotone(problem.load, t_hat)
    return ParametrizedTuple(S=S, t_hat=t_hat, z_hat=z_hat, ell_hat=ell_hat)
