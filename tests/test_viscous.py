import numpy as np
import pytest

from rislab import (
    PiecewisePath,
    PreconditionError,
    RISProblem,
    make_energy,
    scaled_norm,
    solve_viscous,
    weighted_l1,
)
from rislab.experiments import counterexample1
from rislab.viscous import discrete_energy_gaps, reparametrize


def stationary_problem():
    """Constant load inside the elastic set: the state must not move."""
    energy = make_energy(np.eye(1), {"kind": "zero"})
    load = PiecewisePath.constant(0.0, 1.0, [0.5])
    return RISProblem(
        energy=energy, R=scaled_norm(1.0), load=load, z0=[0.8], ell0=[0.5], T=1.0
    )


class TestSolve:
    def test_stationary_state_stays_put(self):
        traj = solve_viscous(stationary_problem(), epsilon=1e-2)
        np.testing.assert_allclose(traj.states, 0.8, atol=1e-14)

    def test_invalid_parameters(self):
        p = stationary_problem()
        with pytest.raises(PreconditionError):
            solve_viscous(p, epsilon=0.0)
        with pytest.raises(PreconditionError):
            solve_viscous(p, epsilon=1e-2, step=-1.0)
        for bad in ({"epsilon": float("nan")}, {"epsilon": 1e-2, "step": float("nan")}):
            with pytest.raises(PreconditionError):
                solve_viscous(p, **bad)

    def test_grid_contains_load_breakpoints(self):
        problem, _ = counterexample1(4)
        traj = solve_viscous(problem, epsilon=1e-2, step=0.03)
        for t in problem.load.breakpoints:
            assert np.min(np.abs(traj.time_grid - t)) < 1e-12

    def test_scalar_matches_small_dim_solver(self):
        # the same physics in a 2-d problem with a decoupled dummy axis must
        # reproduce the scalar closed-form steps on the first coordinate
        problem, _ = counterexample1(4)
        A2 = np.eye(2)
        energy2 = make_energy(A2, {"kind": "linear", "b": [-1.0, 0.0]})
        load1 = problem.load
        load2 = PiecewisePath.from_nodes(
            load1.breakpoints,
            np.column_stack([load1.left[:, 0], np.zeros(load1.left.shape[0])]),
            np.column_stack([load1.values[:, 0], np.zeros(load1.left.shape[0])]),
            np.column_stack([load1.right[:, 0], np.zeros(load1.left.shape[0])]),
        )
        problem2 = RISProblem(
            energy=energy2,
            R=weighted_l1([1.0, 1.0]),
            load=load2,
            z0=[0.0, 0.0],
            ell0=[0.0, 0.0],
            T=problem.T,
        )
        t1 = solve_viscous(problem, epsilon=1e-2, step=2e-3)
        t2 = solve_viscous(problem2, epsilon=1e-2, step=2e-3)
        np.testing.assert_allclose(t2.states[:, 0], t1.states[:, 0], atol=1e-8)
        np.testing.assert_allclose(t2.states[:, 1], 0.0, atol=1e-9)

    def test_rate_independent_limit_tracks_exact_tuple(self):
        problem, tup = counterexample1(4)
        traj = solve_viscous(problem, epsilon=1e-3, step=1e-4)
        # compare physical states through the exact parametrization
        grid = np.linspace(0.0, problem.T, 101)
        z_path = traj.state_path()
        worst = 0.0
        for t in grid:
            s_candidates = np.linspace(0.0, tup.S, 2001)
            tvals = np.array([tup.t_hat(s)[0] for s in s_candidates])
            idx = np.argmin(np.abs(tvals - t))
            worst = max(worst, abs(z_path(t)[0] - tup.z_hat(s_candidates[idx])[0]))
        assert worst <= 5e-3


class TestEnergyGaps:
    def test_steps_dissipate(self):
        problem, _ = counterexample1(4)
        traj = solve_viscous(problem, epsilon=1e-2, step=1e-3)
        gaps = discrete_energy_gaps(traj, problem)
        assert np.max(gaps) <= 1e-12


class TestReparametrize:
    def test_stationary_has_unit_speed_time(self):
        p = stationary_problem()
        tup = reparametrize(solve_viscous(p, epsilon=1e-2), p)
        assert tup.S == pytest.approx(p.T)
        assert tup.t_hat(tup.S / 2)[0] == pytest.approx(p.T / 2)

    def test_normalization_near_one_on_moving_part(self):
        problem, _ = counterexample1(4)
        traj = solve_viscous(problem, epsilon=1e-3, step=1e-4)
        tup = reparametrize(traj, problem)
        assert tup.S == pytest.approx(2.5, abs=5e-2)
        # reparametrized load is the composed physical load
        for s in np.linspace(0.1, tup.S - 0.1, 7):
            t = float(tup.t_hat(s)[0])
            np.testing.assert_allclose(tup.ell_hat(s), problem.load(t), atol=1e-9)
