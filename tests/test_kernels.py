import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rislab import (
    Dissipation,
    PreconditionError,
    contact_potential,
    polyhedral,
    scaled_norm,
    weighted_l1,
)

from helpers import random_kernel

DIAMOND = polyhedral([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])


class TestEvaluation:
    def test_scaled_norm(self):
        R = scaled_norm(2.0)
        assert R([3.0, 4.0]) == pytest.approx(10.0)

    def test_weighted_l1(self):
        R = weighted_l1([1.0, 0.5])
        assert R([-2.0, 4.0]) == pytest.approx(4.0)

    def test_polyhedral_is_support_function(self):
        # support function of the diamond is the max-norm
        assert DIAMOND([0.3, -0.7]) == pytest.approx(0.7)

    def test_eval_many_matches_scalar(self):
        rng = np.random.default_rng(0)
        for d in (1, 2):
            for _ in range(5):
                R = random_kernel(rng, d)
                V = rng.normal(size=(7, d))
                np.testing.assert_allclose(
                    R.eval_many(V), [R(v) for v in V], atol=1e-12
                )

    def test_invalid_kernels_rejected(self):
        with pytest.raises(PreconditionError):
            scaled_norm(0.0)
        with pytest.raises(PreconditionError):
            weighted_l1([1.0, -1.0])
        with pytest.raises(PreconditionError):
            polyhedral([[1.0, 0.0], [2.0, 0.0]])  # 0 not interior


class TestHomogeneityAndConvexity:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_properties(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 4))
        R = random_kernel(rng, d)
        u = rng.normal(size=d)
        v = rng.normal(size=d)
        lam = float(rng.uniform(0.1, 5.0))
        assert R(lam * u) == pytest.approx(lam * R(u), rel=1e-10)
        assert R(u + v) <= R(u) + R(v) + 1e-10
        nu = np.linalg.norm(u)
        assert R.lower_bound * nu <= R(u) + 1e-10
        assert R(u) <= R.upper_bound * nu + 1e-10


class TestElasticSet:
    def test_projection_ball(self):
        R = scaled_norm(1.0)
        np.testing.assert_allclose(R.project_elastic([3.0, 4.0]), [0.6, 0.8])
        np.testing.assert_allclose(R.project_elastic([0.1, 0.2]), [0.1, 0.2])

    def test_projection_box(self):
        R = weighted_l1([1.0, 2.0])
        np.testing.assert_allclose(R.project_elastic([3.0, -5.0]), [1.0, -2.0])

    def test_projection_polyhedral_vertex(self):
        np.testing.assert_allclose(DIAMOND.project_elastic([3.0, 0.0]), [1.0, 0.0])

    def test_projection_polyhedral_edge(self):
        p = DIAMOND.project_elastic([1.0, 1.0])
        np.testing.assert_allclose(p, [0.5, 0.5])

    def test_dist_matches_projection(self):
        rng = np.random.default_rng(1)
        for d in (1, 2, 3):
            for _ in range(10):
                R = random_kernel(rng, d)
                w = rng.normal(size=d) * 3
                p = R.project_elastic(w)
                assert R.dist_to_elastic(w) == pytest.approx(
                    np.linalg.norm(w - p), abs=1e-10
                )
                # the projection itself is elastic
                assert R.dist_to_elastic(p) <= 1e-9

    def test_dist_many_matches_scalar(self):
        rng = np.random.default_rng(2)
        for d in (1, 2):
            for _ in range(5):
                R = random_kernel(rng, d)
                W = rng.normal(size=(6, d)) * 2
                np.testing.assert_allclose(
                    R.dist_to_elastic_many(W), [R.dist_to_elastic(w) for w in W],
                    atol=1e-10,
                )

    def test_in_elastic(self):
        assert scaled_norm(1.0).in_elastic([0.5, 0.5])
        assert not scaled_norm(1.0).in_elastic([1.0, 1.0])


class TestSubdifferential:
    def test_at_zero_equals_elastic_set(self):
        rng = np.random.default_rng(3)
        for d in (1, 2):
            R = random_kernel(rng, d)
            w = rng.normal(size=d) * 2
            assert R.dist_to_subdiff(np.zeros(d), w) == pytest.approx(
                R.dist_to_elastic(w), abs=1e-10
            )

    def test_scaled_norm_away_from_zero(self):
        R = scaled_norm(2.0)
        v = np.array([1.0, 0.0])
        # subdifferential is the single point alpha * v/||v||
        assert R.dist_to_subdiff(v, [2.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
        assert R.dist_to_subdiff(v, [2.0, 1.0]) == pytest.approx(1.0)

    def test_weighted_l1_face(self):
        R = weighted_l1([1.0, 1.0])
        v = np.array([1.0, 0.0])
        # subdifferential is {1} x [-1, 1]
        assert R.dist_to_subdiff(v, [1.0, 0.3]) == pytest.approx(0.0, abs=1e-12)
        assert R.dist_to_subdiff(v, [0.0, 2.0]) == pytest.approx(np.hypot(1.0, 1.0))

    def test_subgradient_inequality(self):
        rng = np.random.default_rng(4)
        for d in (1, 2):
            for _ in range(20):
                R = random_kernel(rng, d)
                v = rng.normal(size=d)
                w = rng.normal(size=d) * 2
                if R.dist_to_subdiff(v, w) <= 1e-9:
                    # w in subdiff R(v) iff <w, v> = R(v) and w elastic
                    assert np.dot(w, v) == pytest.approx(R(v), abs=1e-8)
                    assert R.dist_to_elastic(w) <= 1e-8


class TestProx:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_prox_optimality(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 3))
        R = random_kernel(rng, d)
        x = rng.normal(size=d) * 2
        sigma = float(rng.uniform(0.1, 2.0))
        u = R.prox(x, sigma)
        fu = sigma * R(u) + 0.5 * np.sum((u - x) ** 2)
        for _ in range(30):
            v = u + rng.normal(scale=0.1, size=d)
            fv = sigma * R(v) + 0.5 * np.sum((v - x) ** 2)
            assert fu <= fv + 1e-9

    def test_prox_shrinks_to_zero(self):
        R = scaled_norm(1.0)
        np.testing.assert_allclose(R.prox([0.5, 0.0], 1.0), [0.0, 0.0])


class TestContactPotential:
    def test_split_and_total(self):
        R = scaled_norm(1.0)
        val = contact_potential(R, [3.0, 4.0], [2.0, 0.0])
        assert val.r_part == pytest.approx(5.0)
        assert val.dist_part == pytest.approx(5.0 * 1.0)
        assert val.total == pytest.approx(10.0)

    def test_reduces_to_R_inside_elastic(self):
        R = weighted_l1([1.0, 1.0])
        val = contact_potential(R, [1.0, -2.0], [0.5, 0.5])
        assert val.dist_part == 0.0
        assert val.total == pytest.approx(R([1.0, -2.0]))


class TestConfig:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        for d in (1, 2):
            for _ in range(5):
                R = random_kernel(rng, d)
                Q = Dissipation.from_config(R.to_config())
                v = rng.normal(size=d)
                assert Q(v) == pytest.approx(R(v))

    def test_unknown_kind(self):
        with pytest.raises(PreconditionError):
            Dissipation.from_config({"kind": "mystery"})
