"""Energy models, problem bundles, and parametrized solution tuples."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import PreconditionError
from .kernels import Dissipation
from .paths import LipschitzPath, PiecewisePath


@dataclass(frozen=True)
class EnergyModel:
    """Quadratic-plus-smooth energy 0.5<Az, z> + F(z)."""

    A: np.ndarray
    f_value: Callable[[np.ndarray], float]
    f_grad: Callable[[np.ndarray], np.ndarray]
    f_hess: Optional[Callable[[np.ndarray], np.ndarray]] = None
    grad_affine: bool = False  # True iff D_zF is constant (F affine)
    name: str = "custom"

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        if A.shape[0] != A.shape[1]:
            raise PreconditionError("A must be square")
        if not np.allclose(A, A.T, atol=1e-12):
            raise PreconditionError("A must be symmetric")
        if np.min(np.linalg.eigvalsh(A)) <= 0:
            raise PreconditionError("A must be positive definite")
        object.__setattr__(self, "A", A)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def energy(self, z) -> float:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        return float(0.5 * z @ self.A @ z + self.f_value(z))

    def grad(self, z) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        return self.A @ z + np.atleast_1d(np.asarray(self.f_grad(z), dtype=float))

    def grad_many(self, Z) -> np.ndarray:
        """Row-wise energy gradient on an (N, d) array."""
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        if self.grad_affine:
            b = np.atleast_1d(np.asarray(self.f_grad(np.zeros(self.dim)), dtype=float))
            return Z @ self.A.T + b
        return np.stack([self.grad(z) for z in Z])

    def hess(self, z) -> np.ndarray:
        if self.f_hess is None:
            raise PreconditionError("no Hessian callback supplied")
        z = np.atleast_1d(np.asarray(z, dtype=float))
        return self.A + np.atleast_2d(np.asarray(self.f_hess(z), dtype=float))


# -- registry of smooth parts -------------------------------------------------


def make_energy(A, f_spec: dict | None = None) -> EnergyModel:
    """Build an EnergyModel from a matrix and a smooth-part specification.

    Supported kinds: ``zero``; ``linear`` with vector ``b`` (F(z) = <b, z>);
    ``double_well`` with ``kappa`` (F(z) = kappa/4 (||z||^2 - 1)^2);
    ``polynomial`` with scalar ``coeffs`` c_0..c_p (dimension 1 only).
    The smooth part may take negative values: the scalar benchmark energies
    use a negative linear term.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    d = A.shape[0]
    spec = dict(f_spec or {"kind": "zero"})
    kind = spec.get("kind", "zero")
    if kind == "zero":
        return EnergyModel(
            A,
            f_value=lambda z: 0.0,
            f_grad=lambda z: np.zeros(d),
            f_hess=lambda z: np.zeros((d, d)),
            grad_affine=True,
            name="zero",
        )
    if kind == "linear":
        b = np.atleast_1d(np.asarray(spec["b"], dtype=float))
        if b.size != d:
            raise PreconditionError("linear term has wrong dimension")
        return EnergyModel(
            A,
            f_value=lambda z: float(b @ z),
            f_grad=lambda z: b.copy(),
            f_hess=lambda z: np.zeros((d, d)),
            grad_affine=True,
            name="linear",
        )
    if kind == "double_well":
        kap = float(spec.get("kappa", 1.0))

        def dw_val(z):
            return 0.25 * kap * (float(z @ z) - 1.0) ** 2

        def dw_grad(z):
            return kap * (float(z @ z) - 1.0) * z

        def dw_hess(z):
            return kap * ((float(z @ z) - 1.0) * np.eye(d) + 2.0 * np.outer(z, z))

        return EnergyModel(A, dw_val, dw_grad, dw_hess, grad_affine=False, name="double_well")
    if kind == "polynomial":
        if d != 1:
            raise PreconditionError("polynomial smooth part is scalar only")
        coeffs = np.asarray(spec["coeffs"], dtype=float)
        poly = np.polynomial.Polynomial(coeffs)
        dpoly = poly.deriv()
        ddpoly = dpoly.deriv()
        return EnergyModel(
            A,
            f_value=lambda z: float(poly(z[0])),
            f_grad=lambda z: np.array([dpoly(z[0])]),
            f_hess=lambda z: np.array([[ddpoly(z[0])]]),
            grad_affine=coeffs.size <= 2,
            name="polynomial",
        )
    raise PreconditionError(f"unknown smooth-part kind {kind!r}")


@dataclass(frozen=True)
class RISProblem:
    """A rate-independent evolution problem: energy, dissipation, load, start."""

    energy: EnergyModel
    R: Dissipation
    load: PiecewisePath
    z0: np.ndarray
    ell0: np.ndarray
    T: float
    stability_tol: float = 1e-8

    def __post_init__(self):
        z0 = np.atleast_1d(np.asarray(self.z0, dtype=float))
        ell0 = np.atleast_1d(np.asarray(self.ell0, dtype=float))
        object.__setattr__(self, "z0", z0)
        object.__setattr__(self, "ell0", ell0)
        if z0.size != self.energy.dim or ell0.size != self.energy.dim:
            raise PreconditionError("z0/ell0 dimension mismatch with the energy")
        if abs(self.load.a) > 1e-12 or abs(self.load.b - self.T) > 1e-9:
            raise PreconditionError("load must be defined on [0, T]")
        residual = self.R.dist_to_elastic(-self.energy.grad(z0) + ell0)
        if residual > self.stability_tol:
            raise PreconditionError(
                f"initial state is not stable: elastic-set residual {residual:.3e}"
            )

    @property
    def dim(self) -> int:
        return self.energy.dim

    def value_I(self, t: float, z) -> float:
        return self.energy.energy(z) - float(np.dot(self.load(t), np.atleast_1d(z)))

    def grad_I(self, t: float, z) -> np.ndarray:
        """Spatial gradient of the time-dependent energy at (t, z)."""
        return self.energy.grad(z) - self.load(t)


@dataclass(frozen=True)
class ParametrizedTuple:
    """Candidate arc-length solution (S, t_hat, z_hat, ell_hat)."""

    S: float
    t_hat: LipschitzPath
    z_hat: LipschitzPath
    ell_hat: PiecewisePath

    def __post_init__(self):
        if self.S <= 0:
            raise PreconditionError("S must be positive")
        for name, p in (("t_hat", self.t_hat), ("z_hat", self.z_hat), ("ell_hat", self.ell_hat)):
            if abs(p.a) > 1e-9 or abs(p.b - self.S) > 1e-9:
                raise PreconditionError(f"{name} must live on [0, S]")
        if self.t_hat.dim != 1:
            raise PreconditionError("t_hat must be scalar")
        if not self.t_hat.is_nondecreasing():
            raise PreconditionError("t_hat must be nondecreasing")
        if self.z_hat.dim != self.ell_hat.dim:
            raise PreconditionError("z_hat and ell_hat dimensions differ")

    @property
    def dim(self) -> int:
        return self.z_hat.dim
