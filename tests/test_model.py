import numpy as np
import pytest

from rislab import (
    EnergyModel,
    LipschitzPath,
    ParametrizedTuple,
    PiecewisePath,
    PreconditionError,
    RISProblem,
    make_energy,
    scaled_norm,
)

from helpers import random_spd


class TestEnergyModel:
    def test_quadratic_value_and_grad(self):
        A = np.array([[2.0, 0.0], [0.0, 1.0]])
        e = make_energy(A, {"kind": "zero"})
        z = np.array([1.0, 2.0])
        assert e.energy(z) == pytest.approx(0.5 * (2 + 4))
        np.testing.assert_allclose(e.grad(z), A @ z)
        np.testing.assert_allclose(e.hess(z), A)

    def test_linear_part(self):
        e = make_energy(np.eye(1), {"kind": "linear", "b": [-1.0]})
        assert e.energy([2.0]) == pytest.approx(0.5 * 4 - 2.0)
        np.testing.assert_allclose(e.grad([2.0]), [1.0])
        assert e.grad_affine

    def test_double_well_gradient_fd(self):
        e = make_energy(np.eye(2), {"kind": "double_well", "kappa": 3.0})
        assert not e.grad_affine
        rng = np.random.default_rng(0)
        z = rng.normal(size=2)
        h = 1e-6
        for i in range(2):
            dz = np.zeros(2)
            dz[i] = h
            fd = (e.energy(z + dz) - e.energy(z - dz)) / (2 * h)
            assert e.grad(z)[i] == pytest.approx(fd, abs=1e-5)

    def test_polynomial_scalar_only(self):
        e = make_energy(np.eye(1), {"kind": "polynomial", "coeffs": [0.0, 0.0, 0.0, 1.0]})
        assert e.grad([2.0])[0] == pytest.approx(2.0 + 12.0)
        with pytest.raises(PreconditionError):
            make_energy(np.eye(2), {"kind": "polynomial", "coeffs": [0.0, 1.0]})

    def test_grad_many_matches_grad(self):
        rng = np.random.default_rng(1)
        for spec in ({"kind": "linear", "b": [0.3, -0.2]}, {"kind": "double_well"}):
            e = make_energy(random_spd(rng, 2), spec)
            Z = rng.normal(size=(6, 2))
            np.testing.assert_allclose(e.grad_many(Z), [e.grad(z) for z in Z], atol=1e-12)

    def test_rejects_bad_matrices(self):
        with pytest.raises(PreconditionError):
            make_energy(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(PreconditionError):
            make_energy(-np.eye(2))

    def test_unknown_kind(self):
        with pytest.raises(PreconditionError):
            make_energy(np.eye(1), {"kind": "fancy"})

    def test_missing_hessian_callback(self):
        e = EnergyModel(np.eye(1), f_value=lambda z: 0.0, f_grad=lambda z: np.zeros(1))
        with pytest.raises(PreconditionError):
            e.hess([0.0])


def benchmark_problem():
    energy = make_energy(np.eye(1), {"kind": "linear", "b": [-1.0]})
    load = PiecewisePath.from_samples([0.0, 2.0], [[0.0], [1.0]])
    return RISProblem(
        energy=energy, R=scaled_norm(1.0), load=load, z0=[0.0], ell0=[0.0], T=2.0
    )


class TestRISProblem:
    def test_value_and_grad(self):
        p = benchmark_problem()
        # I(t, z) = 0.5 z^2 - z - ell(t) z
        assert p.value_I(2.0, [1.0]) == pytest.approx(0.5 - 1.0 - 1.0)
        assert p.grad_I(2.0, [1.0])[0] == pytest.approx(1.0 - 1.0 - 1.0)

    def test_rejects_unstable_start(self):
        energy = make_energy(np.eye(1), {"kind": "zero"})
        load = PiecewisePath.constant(0.0, 1.0, [1.5])
        # the driving force 1.5 lies 0.5 outside the elastic set [-1, 1]
        with pytest.raises(PreconditionError, match="not stable.*5.000e-01"):
            RISProblem(
                energy=energy, R=scaled_norm(1.0), load=load, z0=[0.0], ell0=[1.5], T=1.0
            )

    def test_rejects_wrong_load_domain(self):
        energy = make_energy(np.eye(1), {"kind": "zero"})
        load = PiecewisePath.constant(0.0, 1.0, [0.0])
        with pytest.raises(PreconditionError, match="load"):
            RISProblem(
                energy=energy, R=scaled_norm(1.0), load=load, z0=[0.0], ell0=[0.0], T=2.0
            )

    def test_rejects_dimension_mismatch(self):
        energy = make_energy(np.eye(2))
        load = PiecewisePath.constant(0.0, 1.0, [0.0, 0.0])
        with pytest.raises(PreconditionError):
            RISProblem(
                energy=energy, R=scaled_norm(1.0), load=load, z0=[0.0], ell0=[0.0, 0.0], T=1.0
            )


class TestParametrizedTuple:
    def make(self, S=2.0):
        t_hat = LipschitzPath.from_samples([0.0, S], [[0.0], [1.0]])
        z_hat = LipschitzPath.from_samples([0.0, S], [[0.0], [1.0]])
        ell_hat = PiecewisePath.constant(0.0, S, [0.0])
        return ParametrizedTuple(S=S, t_hat=t_hat, z_hat=z_hat, ell_hat=ell_hat)

    def test_valid(self):
        tup = self.make()
        assert tup.dim == 1

    def test_rejects_decreasing_t_hat(self):
        t_hat = LipschitzPath.from_samples([0.0, 2.0], [[1.0], [0.0]])
        z_hat = LipschitzPath.from_samples([0.0, 2.0], [[0.0], [1.0]])
        with pytest.raises(PreconditionError):
            ParametrizedTuple(
                S=2.0, t_hat=t_hat, z_hat=z_hat,
                ell_hat=PiecewisePath.constant(0.0, 2.0, [0.0]),
            )

    def test_rejects_domain_mismatch(self):
        tup = self.make()
        with pytest.raises(PreconditionError):
            ParametrizedTuple(
                S=3.0, t_hat=tup.t_hat, z_hat=tup.z_hat, ell_hat=tup.ell_hat
            )
