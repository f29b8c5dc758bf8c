import json

import numpy as np
import pytest

from rislab import (
    LipschitzPath,
    ParametrizedTuple,
    PiecewisePath,
    PreconditionError,
    check_differential,
    check_local,
    check_normalized_pbv,
    check_relaxed,
    energy_residual,
    increasing_set,
)
from rislab.checkers import _load_compatibility_condition, _load_match_condition, _plateaus
from rislab.construction import construct_relaxed_from_local
from rislab.experiments import (
    counterexample1,
    counterexample1_limit,
    counterexample2,
    counterexample2_limit,
    remark_asymmetric,
)
from rislab.viscous import reparametrize, solve_viscous

from helpers import (
    random_local_solution,
    reference_energy_inequality,
    reference_load_compatibility,
    reference_load_match,
    with_drift_and_jumps,
)


class TestIncreasingSet:
    def test_ramp_plateau_ramp(self):
        t_hat = LipschitzPath.from_samples(
            [0.0, 1.0, 1.5, 2.5], [[0.0], [1.0], [1.0], [2.0]]
        )
        M = increasing_set(t_hat)
        assert M.intervals == ((0.0, 1.0), (1.5, 2.5))
        assert _plateaus(t_hat).tolist() == [[1.0, 1.5]]

    def test_strictly_increasing(self):
        t_hat = LipschitzPath.identity(0.0, 2.0)
        assert increasing_set(t_hat).intervals == ((0.0, 2.0),)
        assert _plateaus(t_hat).tolist() == []

    def test_rejects_vector_valued(self):
        t_hat = LipschitzPath.from_samples([0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(PreconditionError):
            increasing_set(t_hat)


class TestExactSequences:
    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_ramp_hold_tuples_pass(self, n):
        problem, tup = counterexample1(n)
        report = check_normalized_pbv(tup, problem)
        assert report.overall
        assert all(c.residual <= 1e-12 for c in report.conditions)

    def test_ramp_hold_limit_fails_only_load_compatibility(self):
        problem, tup = counterexample1_limit()
        report = check_normalized_pbv(tup, problem)
        assert not report.overall
        assert report.failed_ids() == ["load_compatibility"]
        cond = report.condition("load_compatibility")
        assert cond.residual == pytest.approx(0.25, abs=1e-12)
        lo, hi = cond.witness["interval"]
        assert (lo, hi) == pytest.approx((1.0, 1.5))

    def test_ramp_hold_limit_is_relaxed(self):
        problem, tup = counterexample1_limit()
        report = check_relaxed(tup, problem)
        assert report.overall
        assert all(c.residual <= 1e-12 for c in report.conditions)

    @pytest.mark.parametrize("n", [2, 8])
    def test_ramp_drop_states_are_differential_and_local(self, n):
        problem, tup, z_n = counterexample2(n)
        assert check_differential(z_n, problem).overall
        assert check_local(z_n, problem).overall
        assert check_normalized_pbv(tup, problem).overall

    def test_ramp_drop_limit_state_violates_energy_inequality(self):
        problem, tup, z_tilde = counterexample2_limit()
        report = check_local(z_tilde, problem)
        assert report.failed_ids() == ["energy_inequality"]
        cond = report.condition("energy_inequality")
        assert cond.residual == pytest.approx(0.125, abs=1e-10)
        assert cond.witness["t2"] > 1.0
        # but the accompanying tuple is a relaxed solution
        assert check_relaxed(tup, problem).overall


class TestRandomLocalSolutions:
    @pytest.mark.parametrize("seed", range(6))
    def test_reverse_engineered_solutions_pass(self, seed):
        rng = np.random.default_rng(seed)
        d = 1 + seed % 2
        z, problem = random_local_solution(rng, d)
        assert check_differential(z, problem).overall
        assert check_local(z, problem).overall

    def test_perturbed_state_fails_stability(self):
        rng = np.random.default_rng(42)
        z, problem = random_local_solution(rng, 1)
        bumped = PiecewisePath.from_nodes(
            z.breakpoints, z.left + 1.0, z.values + 1.0, z.right + 1.0
        )
        # keep the start state to satisfy the endpoint convention
        bumped = PiecewisePath.from_nodes(
            np.concatenate([[z.breakpoints[0]], z.breakpoints[1:]]),
            np.vstack([z.values[0], bumped.left[1:]]),
            np.vstack([z.values[0], bumped.values[1:]]),
            np.vstack([z.values[0] + 0.0, bumped.right[1:]]),
        )
        report = check_local(bumped, problem)
        assert not report.overall


class TestDifferentialPreconditions:
    def test_rejects_discontinuous_state(self):
        rng = np.random.default_rng(0)
        z, problem = random_local_solution(rng, 1)
        jumpy = PiecewisePath.from_nodes(
            z.breakpoints,
            z.values,
            z.values,
            np.vstack([z.values[:-1] + 0.5, z.values[-1:]]),
        )
        with pytest.raises(PreconditionError):
            check_differential(jumpy, problem)

    def test_rejects_wrong_domain(self):
        rng = np.random.default_rng(0)
        z, problem = random_local_solution(rng, 1)
        short = PiecewisePath.from_samples([0.0, problem.T / 2], z.values[:2])
        with pytest.raises(PreconditionError):
            check_differential(short, problem)


class TestEnergyResidual:
    def test_exact_tuple_residual_vanishes(self):
        problem, tup = counterexample1(4)
        assert energy_residual(tup, problem, 0.0, tup.S) == pytest.approx(0.0, abs=1e-12)
        assert energy_residual(tup, problem, 0.3, 1.7) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_arguments_outside_domain(self):
        from rislab import DomainError

        problem, tup = counterexample1(4)
        with pytest.raises(DomainError):
            energy_residual(tup, problem, -1.0, tup.S + 1.0)


class TestBrokenTuples:
    def test_scaled_state_fails_normalization(self):
        problem, tup = counterexample1(4)
        z2 = LipschitzPath.from_nodes(
            tup.z_hat.breakpoints,
            2.0 * tup.z_hat.left,
            2.0 * tup.z_hat.values,
            2.0 * tup.z_hat.right,
        )
        bad = ParametrizedTuple(S=tup.S, t_hat=tup.t_hat, z_hat=z2, ell_hat=tup.ell_hat)
        report = check_normalized_pbv(bad, problem)
        assert "normalization" in report.failed_ids()

    def test_shifted_endpoint_fails(self):
        problem, tup = counterexample1(4)
        z2 = LipschitzPath.from_nodes(
            tup.z_hat.breakpoints,
            tup.z_hat.left + 0.3,
            tup.z_hat.values + 0.3,
            tup.z_hat.right + 0.3,
        )
        bad = ParametrizedTuple(S=tup.S, t_hat=tup.t_hat, z_hat=z2, ell_hat=tup.ell_hat)
        report = check_normalized_pbv(bad, problem)
        assert "endpoints" in report.failed_ids()


class TestReports:
    def test_json_roundtrip_and_table(self):
        problem, tup = counterexample1(2)
        report = check_normalized_pbv(tup, problem)
        data = json.loads(report.to_json())
        assert data["concept"] == "normalized_pbv"
        assert data["overall"] == "pass"
        assert {c["id"] for c in data["conditions"]} == {
            "endpoints",
            "complementarity",
            "normalization",
            "energy_identity",
            "load_compatibility",
        }
        table = report.format_table()
        assert "load_compatibility" in table
        assert "PASS" in table

    def test_condition_getter_unknown(self):
        problem, tup = counterexample1(2)
        report = check_normalized_pbv(tup, problem)
        with pytest.raises(KeyError):
            report.condition("nonexistent")


def _viscous_tuple(problem, step=5e-3):
    return problem, reparametrize(solve_viscous(problem, 1e-2, step), problem)


def _constructed_tuple():
    problem, _, z_n = counterexample2(4)
    return problem, construct_relaxed_from_local(z_n, problem).tuple


# (problem, tuple) pairs: built-in, viscous and constructed
TUPLES = {
    "ce1": lambda: counterexample1(4),
    "ce1_limit": counterexample1_limit,
    "ce2": lambda: counterexample2(4)[:2],
    "ce2_limit": lambda: counterexample2_limit()[:2],
    "remark44": lambda: remark_asymmetric()[:2],
    "viscous_ce1": lambda: _viscous_tuple(counterexample1(2)[0]),
    "viscous_ce2": lambda: _viscous_tuple(counterexample2(2)[0]),
    "constructed_ce2": _constructed_tuple,
}


class TestSharedConditions:
    @pytest.mark.parametrize("name", sorted(TUPLES))
    def test_relaxed_and_pbv_agree_on_shared_conditions(self, name):
        problem, tup = TUPLES[name]()
        pbv = check_normalized_pbv(tup, problem)
        rel = check_relaxed(tup, problem)
        for cid in ("endpoints", "complementarity", "normalization", "energy_identity"):
            assert rel.condition(cid).residual == pbv.condition(cid).residual
            assert rel.condition(cid).witness == pbv.condition(cid).witness
        match = rel.condition("load_match_on_increasing_set").residual
        assert match <= pbv.condition("load_compatibility").residual


class TestLoadScan:
    @pytest.mark.parametrize("name", sorted(TUPLES))
    def test_matches_reference_on_unperturbed_tuples(self, name):
        problem, tup = TUPLES[name]()
        compat = _load_compatibility_condition(tup, problem)
        assert compat == reference_load_compatibility(tup, problem)
        assert _load_match_condition(tup, problem) == reference_load_match(tup, problem)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_on_perturbed_viscous_tuples(self, seed):
        rng = np.random.default_rng(seed)
        family = counterexample1 if seed % 2 == 0 else counterexample2
        problem, tup = _viscous_tuple(family(2)[0])
        ell = tup.ell_hat
        left, vals, right = ell.left.copy(), ell.values.copy(), ell.right.copy()
        # separate nodes for jumps in the point value and in the limits, so
        # both the breakpoint test and the segment scan see a violation
        nodes = rng.choice(np.arange(1, ell.breakpoints.size - 1), size=4, replace=False)
        vals[nodes[:2]] += rng.normal(scale=0.1, size=(2, ell.dim))
        left[nodes[2]] += rng.normal(scale=0.1, size=ell.dim)
        right[nodes[3]] += rng.normal(scale=0.1, size=ell.dim)
        bumped = ParametrizedTuple(
            S=tup.S, t_hat=tup.t_hat, z_hat=tup.z_hat,
            ell_hat=PiecewisePath.from_nodes(ell.breakpoints, left, vals, right),
        )
        compat = _load_compatibility_condition(bumped, problem)
        match = _load_match_condition(bumped, problem)
        assert compat[0] > 0 and match[0] > 0
        assert compat == reference_load_compatibility(bumped, problem)
        assert match == reference_load_match(bumped, problem)


def _local_case(name: str):
    """(state, problem, expect_failure) for a ramp-drop or random local input."""
    kind, arg = name.split("-")
    if kind == "ce2":
        problem, _, z = counterexample2(int(arg))
        return z, problem, False
    if kind == "ce2_limit":
        problem, _, z = counterexample2_limit()
        return z, problem, True
    seed = int(arg)
    rng = np.random.default_rng(seed)
    z, problem = random_local_solution(rng, 1 + seed % 2)
    if kind == "jumps":
        return with_drift_and_jumps(rng, z), problem, True
    return z, problem, False


LOCAL_CASES = (
    [f"ce2-{n}" for n in (1, 2, 4, 8)]
    + ["ce2_limit-0"]
    + [f"random-{seed}" for seed in range(20)]
    + [f"jumps-{seed}" for seed in range(20)]
)


class TestEnergyScan:
    """The prefix scan of check_local against the O(P^2 K) pair loop."""

    @pytest.mark.parametrize("name", LOCAL_CASES)
    def test_matches_pair_loop(self, name):
        z, problem, expect_failure = _local_case(name)
        cond = check_local(z, problem).condition("energy_inequality")
        residual, witness = reference_energy_inequality(z, problem)
        assert abs(cond.residual - residual) <= 1e-12
        assert cond.passed != expect_failure
        if not cond.passed:
            assert cond.witness == witness
