import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rislab import (
    DomainError,
    LipschitzPath,
    PiecewisePath,
    PreconditionError,
    compose_monotone,
    convergence_diagnostics,
    dissipation,
    kurzweil_stieltjes,
    l1_distance,
    merge_breakpoints,
    path_difference,
    scaled_norm,
    sup_distance,
    total_variation,
)
from rislab.oracles import dissipation_by_refinement
from rislab.paths import from_csv, path_from_string, path_to_string, to_csv

from helpers import KERNEL_KINDS, random_bv_path, random_continuous_path, random_kernel


def step_path():
    """0 on [0,1], 1 on (1,2], value 0 at the jump point."""
    return PiecewisePath.from_nodes(
        [0.0, 1.0, 2.0],
        left=[[0.0], [0.0], [1.0]],
        values=[[0.0], [0.0], [1.0]],
        right=[[0.0], [1.0], [1.0]],
    )


class TestConstruction:
    def test_from_samples_is_continuous(self):
        p = PiecewisePath.from_samples([0, 1, 2], [[0], [1], [0]])
        assert p.is_continuous()
        assert p(0.5) == pytest.approx(0.5)
        assert p(1.5) == pytest.approx(0.5)

    def test_rejects_nonincreasing_breakpoints(self):
        with pytest.raises(ValueError):
            PiecewisePath.from_samples([0, 0, 1], [[0], [1], [2]])

    def test_rejects_outward_limit_mismatch(self):
        with pytest.raises(ValueError):
            PiecewisePath.from_nodes(
                [0.0, 1.0], left=[[1.0], [0.0]], values=[[0.0], [0.0]], right=[[0.0], [0.0]]
            )

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PiecewisePath.from_samples([0, 1], [[0], [np.inf]])

    def test_lipschitz_rejects_jumps(self):
        with pytest.raises(PreconditionError):
            LipschitzPath(
                np.array([0.0, 1.0, 2.0]),
                np.array([[0.0], [0.0], [1.0]]),
                np.array([[0.0], [0.0], [1.0]]),
                np.array([[0.0], [1.0], [1.0]]),
            )

    def test_lipschitz_bound(self):
        p = LipschitzPath.from_samples([0, 1, 3], [[0], [2], [0]])
        assert p.lipschitz_bound == pytest.approx(2.0)


class TestEvaluation:
    def test_one_sided_limits_at_jump(self):
        p = step_path()
        assert p.left_limit(1.0) == pytest.approx(0.0)
        assert p(1.0) == pytest.approx(0.0)
        assert p.right_limit(1.0) == pytest.approx(1.0)

    def test_outside_domain_raises(self):
        with pytest.raises(DomainError):
            step_path()(2.5)

    def test_jump_points(self):
        assert step_path().jump_points() == [1.0]

    def test_with_breakpoints_preserves_values(self):
        p = step_path()
        q = p.with_breakpoints([0.25, 1.75])
        for t in [0.0, 0.25, 0.5, 1.0, 1.75, 2.0]:
            assert q(t) == pytest.approx(p(t))
        assert q.left_limit(1.0) == pytest.approx(0.0)
        assert q.right_limit(1.0) == pytest.approx(1.0)


class TestVariationAndDissipation:
    def test_total_variation_continuous(self):
        p = PiecewisePath.from_samples([0, 1, 2], [[0], [1], [0]])
        assert total_variation(p) == pytest.approx(2.0)

    def test_total_variation_counts_jumps(self):
        assert total_variation(step_path()) == pytest.approx(1.0)

    def test_variation_subinterval_excludes_outside_jump(self):
        p = step_path()
        assert total_variation(p, 0.0, 0.9) == pytest.approx(0.0)
        # the interval end at the jump point sees only the left half-jump
        assert total_variation(p, 0.0, 1.0) == pytest.approx(0.0)
        assert total_variation(p, 1.0, 2.0) == pytest.approx(1.0)

    def test_dissipation_scales_with_kernel(self):
        R = scaled_norm(2.0)
        p = PiecewisePath.from_samples([0, 1], [[0], [3]])
        assert dissipation(R, p) == pytest.approx(6.0)

    def test_dissipation_2d_segment(self):
        R = scaled_norm(1.0)
        p = PiecewisePath.from_samples([0, 2], [[0, 0], [3, 4]])
        assert dissipation(R, p) == pytest.approx(5.0)

    def test_additivity(self):
        rng = np.random.default_rng(7)
        p = random_bv_path(rng, 2, 0.0, 1.0, 5)
        R = scaled_norm(1.3)
        total = dissipation(R, p, 0.0, 1.0)
        t_mid = 0.43
        split = dissipation(R, p, 0.0, t_mid) + dissipation(R, p, t_mid, 1.0)
        assert split == pytest.approx(total, abs=1e-12)


class TestKurzweil:
    def test_affine_against_affine(self):
        z = PiecewisePath.from_samples([0, 1], [[0], [1]])
        ell = PiecewisePath.from_samples([0, 1], [[0], [2]])
        # integral of t * 2 dt = 1
        assert kurzweil_stieltjes(z, ell, 0.0, 1.0) == pytest.approx(1.0)

    def test_interior_jump_uses_point_value(self):
        z = PiecewisePath.from_samples([0, 2], [[0], [2]])  # z(1) = 1
        ell = step_path()
        assert kurzweil_stieltjes(z, ell, 0.0, 2.0) == pytest.approx(1.0)

    def test_single_point_load_perturbation_integrates_to_zero(self):
        z = PiecewisePath.from_samples([0, 2], [[1], [1]])
        # load differing from 0 only by its value at t = 1
        ell = PiecewisePath.from_nodes(
            [0.0, 1.0, 2.0],
            left=[[0.0], [0.0], [0.0]],
            values=[[0.0], [5.0], [0.0]],
            right=[[0.0], [0.0], [0.0]],
        )
        assert kurzweil_stieltjes(z, ell, 0.0, 2.0) == pytest.approx(0.0)

    def test_jump_at_interval_start_uses_right_increment(self):
        z = PiecewisePath.from_samples([0, 2], [[1], [1]])
        ell = step_path()
        # starting at the jump point only the outgoing half-jump counts
        assert kurzweil_stieltjes(z, ell, 1.0, 2.0) == pytest.approx(1.0)
        assert kurzweil_stieltjes(z, ell, 0.0, 1.0) == pytest.approx(0.0)


class TestCompose:
    def test_plateau_takes_point_value(self):
        t_hat = LipschitzPath.from_samples([0, 1, 2, 3], [[0], [1], [1], [2]])
        f = step_path()
        comp = compose_monotone(f, t_hat)
        assert comp(1.5) == pytest.approx(0.0)  # f(1) = 0 on the plateau
        assert comp.left_limit(1.0) == pytest.approx(0.0)
        assert comp.right_limit(2.0) == pytest.approx(1.0)
        assert comp(2.5) == pytest.approx(1.0)

    def test_identity_composition(self):
        f = random_continuous_path(np.random.default_rng(3), 2, 0.0, 1.0, 3)
        comp = compose_monotone(f, LipschitzPath.identity(0.0, 1.0))
        for t in np.linspace(0, 1, 17):
            assert comp(t) == pytest.approx(f(t))

    def test_rejects_decreasing(self):
        t_hat = LipschitzPath.from_samples([0, 1], [[1], [0]])
        with pytest.raises(PreconditionError):
            compose_monotone(step_path(), t_hat)


class TestDistances:
    def test_l1_distance_triangle_area(self):
        f = PiecewisePath.from_samples([0, 1], [[0], [1]])
        g = PiecewisePath.from_samples([0, 1], [[0], [0]])
        assert l1_distance(f, g) == pytest.approx(0.5)

    def test_l1_distance_sign_change(self):
        f = PiecewisePath.from_samples([0, 2], [[-1], [1]])
        g = PiecewisePath.from_samples([0, 2], [[0], [0]])
        assert l1_distance(f, g) == pytest.approx(1.0)

    def test_l1_distance_2d_constant(self):
        f = PiecewisePath.constant(0.0, 2.0, [3.0, 4.0])
        g = PiecewisePath.constant(0.0, 2.0, [0.0, 0.0])
        assert l1_distance(f, g) == pytest.approx(10.0)

    def test_sup_distance(self):
        f = PiecewisePath.from_samples([0, 1, 2], [[0], [1], [0]])
        g = PiecewisePath.from_samples([0, 2], [[0], [0]])
        assert sup_distance(f, g, np.linspace(0, 2, 5)) == pytest.approx(1.0)

    def test_path_difference_requires_same_domain(self):
        f = PiecewisePath.constant(0.0, 1.0, [0.0])
        g = PiecewisePath.constant(0.0, 2.0, [0.0])
        with pytest.raises(DomainError):
            path_difference(f, g)


class TestDiagnostics:
    def test_intermediate_classification(self):
        limit = PiecewisePath.from_samples([0, 1], [[0], [1]])
        seq = [
            PiecewisePath.from_samples([0, 1], [[0], [1 + 1 / n]]) for n in (4, 8, 16)
        ]
        diag = convergence_diagnostics(seq, limit, np.linspace(0, 1, 9))
        assert diag.classification == "intermediate"

    def test_weak_star_classification(self):
        # ramp-up of fixed variation on a shrinking interval, released by a
        # downward jump whose peak is only a left limit; limit zero
        limit = PiecewisePath.constant(0.0, 1.0, [0.0])
        seq = []
        for n in (4, 8, 16):
            knee = 0.31
            seq.append(
                PiecewisePath.from_nodes(
                    [0.0, knee - 0.01 / n, knee, 1.0],
                    left=[[0.0], [0.0], [1.0], [0.0]],
                    values=[[0.0], [0.0], [0.0], [0.0]],
                    right=[[0.0], [0.0], [0.0], [0.0]],
                )
            )
        diag = convergence_diagnostics(seq, limit, np.linspace(0, 1, 9))
        assert diag.classification == "weak*"

    def test_divergent_classification(self):
        limit = PiecewisePath.constant(0.0, 1.0, [0.0])
        seq = [PiecewisePath.constant(0.0, 1.0, [1.0])] * 3
        diag = convergence_diagnostics(seq, limit, np.linspace(0, 1, 5))
        assert diag.classification == "divergent"


class TestSerialization:
    def test_csv_roundtrip(self):
        p = random_bv_path(np.random.default_rng(11), 3, 0.0, 2.0, 4)
        q = path_from_string(path_to_string(p))
        assert np.array_equal(p.breakpoints, q.breakpoints)
        assert np.array_equal(p.values, q.values)
        assert np.array_equal(p.left, q.left)
        assert np.array_equal(p.right, q.right)

    def test_csv_header(self):
        buf = io.StringIO()
        to_csv(PiecewisePath.constant(0.0, 1.0, [1.0, 2.0]), buf)
        header = buf.getvalue().splitlines()[0]
        assert header == "t,left_1,left_2,value_1,value_2,right_1,right_2"

    def test_malformed_header_rejected(self):
        with pytest.raises(ValueError):
            from_csv(io.StringIO("x,y\n0,1\n"))


def _split_points(rng, *paths):
    """A uniform split point plus every interior breakpoint (jumps included)."""
    inner = [float(t) for p in paths for t in p.breakpoints[1:-1]]
    return [float(rng.uniform(0.05, 0.95)), *inner]


def _assert_additive(integral, rng, *paths):
    """|F(0, t) + F(t, 1) - F(0, 1)| <= 1e-12 at every split point t."""
    total = integral(0.0, 1.0)
    for t in _split_points(rng, *paths):
        assert abs(integral(0.0, t) + integral(t, 1.0) - total) <= 1e-12


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_variation_additive_property(seed):
    rng = np.random.default_rng(seed)
    p = random_bv_path(rng, 2, 0.0, 1.0, 4)
    _assert_additive(lambda a, b: total_variation(p, a, b), rng, p)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_dissipation_additive_property(kind, seed):
    rng = np.random.default_rng(seed)
    d = 1 + seed % 3
    R = random_kernel(rng, d, kind)
    z = random_bv_path(rng, d, 0.0, 1.0, 4)
    _assert_additive(lambda a, b: dissipation(R, z, a, b), rng, z)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_kurzweil_additive_property(seed):
    rng = np.random.default_rng(seed)
    z = random_bv_path(rng, 2, 0.0, 1.0, 3)
    ell = random_bv_path(rng, 2, 0.0, 1.0, 3)
    _assert_additive(lambda a, b: kurzweil_stieltjes(z, ell, a, b), rng, z, ell)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_dissipation_matches_refinement_oracle_on_bv_paths(kind):
    # partition sums never exceed the dissipation; a cell of width at most
    # h = (t2 - t1) 2^-levels next to a breakpoint misses at most 2 h R(slope)
    # of each adjacent segment
    rng = np.random.default_rng(17)
    levels = 12
    for i in range(10):
        d = 1 + i % 3
        R = random_kernel(rng, d, kind)
        z = random_bv_path(rng, d, 0.0, 1.0, int(rng.integers(2, 6)))
        t1, t2 = sorted(rng.uniform(0.0, 1.0, size=2))
        fast = dissipation(R, z, t1, t2)
        slow = dissipation_by_refinement(R, z, t1, t2, levels)
        h = (t2 - t1) / 2**levels
        assert slow <= fast + 1e-12
        assert fast - slow <= 4.0 * h * sum(R(v) for v in z.slopes())


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_merge_breakpoints_sorted_unique(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0, 1, size=5)
    b = rng.uniform(0, 1, size=5)
    merged = merge_breakpoints(a, b)
    assert np.all(np.diff(merged) > 0)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_kurzweil_bilinear_in_integrator(seed):
    rng = np.random.default_rng(seed)
    z = random_continuous_path(rng, 2, 0.0, 1.0, 3)
    e1 = random_bv_path(rng, 2, 0.0, 1.0, 3)
    e2 = random_bv_path(rng, 2, 0.0, 1.0, 3)
    lhs = kurzweil_stieltjes(z, e1, 0.0, 1.0) + kurzweil_stieltjes(z, e2, 0.0, 1.0)
    ts = merge_breakpoints(e1.breakpoints, e2.breakpoints)
    r1 = e1.with_breakpoints(ts)
    r2 = e2.with_breakpoints(ts)
    esum = PiecewisePath.from_nodes(
        ts, r1.left + r2.left, r1.values + r2.values, r1.right + r2.right
    )
    assert kurzweil_stieltjes(z, esum, 0.0, 1.0) == pytest.approx(lhs, abs=1e-10)
