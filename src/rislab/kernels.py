"""Dissipation potentials, elastic-set distances, and the contact potential.

Three kinds of positively 1-homogeneous convex potentials are built in:

* ``scaled_norm(alpha)``      R(v) = alpha * ||v||        (the only symmetric one)
* ``weighted_l1(w)``          R(v) = sum_i w_i |v_i|
* ``polyhedral(vertices)``    R(v) = max_g <g, v> over the vertices of the
                              elastic set (which must contain 0 in its interior)

Each kind admits a closed-form (or small exact QP) Euclidean distance to its
elastic set, the subdifferential at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

import numpy as np

from .errors import PreconditionError

_QP_TOL = 1e-10


def _project_hull(w: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Euclidean projection of w onto conv(verts) by face enumeration.

    The projection lies in the relative interior of some face; enumerating all
    vertex subsets of size <= d+1 and keeping feasible candidates is exact for
    the small vertex counts used here.
    """
    m, d = verts.shape
    best, best_dist = None, np.inf
    for size in range(1, min(m, d + 1) + 1):
        for idx in combinations(range(m), size):
            G = verts[list(idx)]
            if size == 1:
                p = G[0]
            else:
                # minimize ||G^T lam - w|| subject to sum(lam) = 1 via KKT
                A = G @ G.T
                k = len(idx)
                kkt = np.zeros((k + 1, k + 1))
                kkt[:k, :k] = A
                kkt[:k, k] = 1.0
                kkt[k, :k] = 1.0
                rhs = np.append(G @ w, 1.0)
                try:
                    sol = np.linalg.solve(kkt, rhs)
                except np.linalg.LinAlgError:
                    continue
                lam = sol[:k]
                if np.any(lam < -_QP_TOL):
                    continue
                p = G.T @ lam
            dist = float(np.linalg.norm(w - p))
            if dist < best_dist - 1e-15:
                best, best_dist = p, dist
    return best


@dataclass(frozen=True)
class Dissipation:
    """A coercive, convex, positively 1-homogeneous dissipation potential."""

    kind: str  # "scaled_norm" | "weighted_l1" | "polyhedral"
    alpha: float | None = None
    weights: np.ndarray | None = None
    vertices: np.ndarray | None = None  # vertices of the elastic set, (m, d)

    def __post_init__(self):
        if self.kind == "scaled_norm":
            if self.alpha is None or self.alpha <= 0:
                raise PreconditionError("scaled_norm needs alpha > 0")
        elif self.kind == "weighted_l1":
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 1 or np.any(w <= 0):
                raise PreconditionError("weighted_l1 needs strictly positive weights")
            object.__setattr__(self, "weights", w)
        elif self.kind == "polyhedral":
            v = np.asarray(self.vertices, dtype=float)
            if v.ndim != 2 or v.shape[0] < 2:
                raise PreconditionError("polyhedral needs at least two vertices")
            object.__setattr__(self, "vertices", v)
            if self.lower_bound <= 0:
                raise PreconditionError("elastic set must contain 0 in its interior")
        else:
            raise PreconditionError(f"unknown dissipation kind {self.kind!r}")

    # -- evaluation ----------------------------------------------------------

    def __call__(self, v) -> float:
        v = np.atleast_1d(np.asarray(v, dtype=float))
        if self.kind == "scaled_norm":
            return float(self.alpha * np.linalg.norm(v))
        if self.kind == "weighted_l1":
            return float(np.dot(self.weights, np.abs(v)))
        return float(np.max(self.vertices @ v))

    def eval_many(self, V) -> np.ndarray:
        """Evaluate R row-wise on an (N, d) array."""
        V = np.atleast_2d(np.asarray(V, dtype=float))
        if self.kind == "scaled_norm":
            return self.alpha * np.linalg.norm(V, axis=1)
        if self.kind == "weighted_l1":
            return np.abs(V) @ self.weights
        return np.max(V @ self.vertices.T, axis=1)

    def dist_to_elastic_many(self, W) -> np.ndarray:
        """Row-wise Euclidean distance of an (N, d) array to the elastic set."""
        W = np.atleast_2d(np.asarray(W, dtype=float))
        if self.kind == "scaled_norm":
            return np.maximum(np.linalg.norm(W, axis=1) - self.alpha, 0.0)
        if self.kind == "weighted_l1":
            excess = np.maximum(np.abs(W) - self.weights, 0.0)
            return np.linalg.norm(excess, axis=1)
        d = self.vertices.shape[1]
        if d == 1:
            g = self.vertices[:, 0]
            w = W[:, 0]
            return np.maximum(np.maximum(w - g.max(), g.min() - w), 0.0)
        if d == 2:
            return self._dist_polygon_many(W)
        return np.array([self.dist_to_elastic(w) for w in W])

    def _dist_polygon_many(self, W: np.ndarray) -> np.ndarray:
        """Exact distances to a convex polygon: min over edge segments, zero inside."""
        from scipy.spatial import ConvexHull

        hull = ConvexHull(self.vertices)
        V = self.vertices[hull.vertices]
        A = V
        B = np.roll(V, -1, axis=0)
        AB = B - A  # (m, 2)
        denom = np.einsum("md,md->m", AB, AB)
        # (n, m) clamped projections of every point onto every edge
        t = np.clip(
            np.einsum("nd,md->nm", W, AB) - np.einsum("md,md->m", A, AB), 0.0, None
        ) / denom
        t = np.clip(t, 0.0, 1.0)
        proj = A[None, :, :] + t[:, :, None] * AB[None, :, :]
        dists = np.min(np.linalg.norm(W[:, None, :] - proj, axis=2), axis=1)
        inside = np.all(
            W @ hull.equations[:, :2].T + hull.equations[:, 2] <= 1e-12, axis=1
        )
        dists[inside] = 0.0
        return dists

    @property
    def symmetric(self) -> bool:
        """True iff R depends on its argument only through the norm."""
        return self.kind == "scaled_norm"

    @property
    def lower_bound(self) -> float:
        """Largest c with c||v|| <= R(v) for all v."""
        if self.kind == "scaled_norm":
            return float(self.alpha)
        if self.kind == "weighted_l1":
            return float(np.min(self.weights))
        verts = self.vertices
        d = verts.shape[1]
        if d == 1:
            g = verts[:, 0]
            if g.max() <= 0 or g.min() >= 0:
                return 0.0
            return float(min(g.max(), -g.min()))
        from scipy.spatial import ConvexHull

        try:
            hull = ConvexHull(verts)
        except Exception:
            return 0.0
        # facet equations n.x + b <= 0 with |n| = 1; inradius about 0 is min(-b)
        offs = -hull.equations[:, -1]
        return float(np.min(offs)) if np.all(offs > 0) else 0.0

    @property
    def upper_bound(self) -> float:
        """Smallest convenient C with R(v) <= C||v|| for all v."""
        if self.kind == "scaled_norm":
            return float(self.alpha)
        if self.kind == "weighted_l1":
            return float(np.linalg.norm(self.weights))
        return float(np.max(np.linalg.norm(self.vertices, axis=1)))

    # -- elastic set geometry --------------------------------------------------

    def project_elastic(self, w) -> np.ndarray:
        """Euclidean projection of w onto the elastic set (subdifferential at 0)."""
        w = np.atleast_1d(np.asarray(w, dtype=float))
        if self.kind == "scaled_norm":
            nw = np.linalg.norm(w)
            if nw <= self.alpha:
                return w.copy()
            return w * (self.alpha / nw)
        if self.kind == "weighted_l1":
            return np.clip(w, -self.weights, self.weights)
        return _project_hull(w, self.vertices)

    def dist_to_elastic(self, w) -> float:
        """Euclidean distance of w to the elastic set."""
        w = np.atleast_1d(np.asarray(w, dtype=float))
        if self.kind == "scaled_norm":
            return float(max(np.linalg.norm(w) - self.alpha, 0.0))
        if self.kind == "weighted_l1":
            excess = np.maximum(np.abs(w) - self.weights, 0.0)
            return float(np.linalg.norm(excess))
        return float(np.linalg.norm(w - self.project_elastic(w)))

    def in_elastic(self, w, tol: float = 1e-12) -> bool:
        return self.dist_to_elastic(w) <= tol

    def dist_to_subdiff(self, v, w) -> float:
        """Euclidean distance of w to the subdifferential of R at v."""
        v = np.atleast_1d(np.asarray(v, dtype=float))
        w = np.atleast_1d(np.asarray(w, dtype=float))
        if self.kind == "scaled_norm":
            nv = np.linalg.norm(v)
            if nv == 0.0:
                return self.dist_to_elastic(w)
            return float(np.linalg.norm(w - self.alpha * v / nv))
        if self.kind == "weighted_l1":
            lo = np.where(v > 0, self.weights, -self.weights)
            hi = np.where(v < 0, -self.weights, self.weights)
            return float(np.linalg.norm(w - np.clip(w, np.minimum(lo, hi), np.maximum(lo, hi))))
        rv = self(v)
        scale = max(1.0, float(np.linalg.norm(v)))
        active = self.vertices[(self.vertices @ v) >= rv - 1e-10 * scale]
        return float(np.linalg.norm(w - _project_hull(w, active)))

    # -- proximal map -----------------------------------------------------------

    def prox(self, x, sigma: float) -> np.ndarray:
        """argmin_u R(u)*sigma + 0.5||u - x||^2 (Moreau: x minus projection)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if self.kind == "scaled_norm":
            nx = np.linalg.norm(x)
            if nx <= sigma * self.alpha:
                return np.zeros_like(x)
            return x * (1.0 - sigma * self.alpha / nx)
        if self.kind == "weighted_l1":
            return np.sign(x) * np.maximum(np.abs(x) - sigma * self.weights, 0.0)
        return x - _project_hull(x, sigma * self.vertices)

    # -- config -----------------------------------------------------------------

    def to_config(self) -> dict:
        if self.kind == "scaled_norm":
            return {"kind": "scaled_norm", "alpha": self.alpha}
        if self.kind == "weighted_l1":
            return {"kind": "weighted_l1", "weights": self.weights.tolist()}
        return {"kind": "polyhedral", "vertices": self.vertices.tolist()}

    @staticmethod
    def from_config(cfg: dict) -> "Dissipation":
        kind = cfg.get("kind")
        if kind == "scaled_norm":
            return scaled_norm(float(cfg["alpha"]))
        if kind == "weighted_l1":
            return weighted_l1(cfg["weights"])
        if kind == "polyhedral":
            return polyhedral(cfg["vertices"])
        raise PreconditionError(f"unknown dissipation kind {kind!r}")


def scaled_norm(alpha: float = 1.0) -> Dissipation:
    return Dissipation(kind="scaled_norm", alpha=float(alpha))


def weighted_l1(weights: Iterable[float]) -> Dissipation:
    return Dissipation(kind="weighted_l1", weights=np.asarray(list(weights), dtype=float))


def polyhedral(vertices) -> Dissipation:
    return Dissipation(kind="polyhedral", vertices=np.asarray(vertices, dtype=float))


@dataclass(frozen=True)
class ContactPotentialValue:
    """Split evaluation of the viscosity contact cost R(v) + ||v|| dist(w, elastic set)."""

    r_part: float
    dist_part: float

    @property
    def total(self) -> float:
        return self.r_part + self.dist_part


def contact_potential(R: Dissipation, v, w) -> ContactPotentialValue:
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return ContactPotentialValue(
        r_part=R(v),
        dist_part=float(np.linalg.norm(v)) * R.dist_to_elastic(w),
    )

