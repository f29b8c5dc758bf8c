"""Turn a local solution with finitely many jumps into a parametrized tuple.

The algorithm reparametrizes physical time by accumulated dissipation,
stretches every jump of the state into an affine transition segment, and fills
the load in on those segments so that the energy balance closes exactly.  It
requires a symmetric dissipation potential (a scaled Euclidean norm); for
asymmetric kernels the normalization condition genuinely fails on jump
segments and the construction refuses to run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkers import CheckReport, check_local, check_relaxed
from .errors import ConstructionError, PreconditionError
from .kernels import Dissipation
from .model import EnergyModel, ParametrizedTuple, RISProblem
from .paths import (
    LipschitzPath,
    PiecewisePath,
    compose_monotone,
    dissipation,
)

_ZERO_JUMP_TOL = 1e-14

# sub-segments per transition segment when the smooth energy gradient is not
# affine (the filled-in load is then only piecewise-affine approximable)
_NONAFFINE_SUBDIV = 32


@dataclass(frozen=True)
class JumpInterval:
    """Arc-length interval that a single state jump is stretched over."""

    time: float
    s_lo: float  # image of the left limit
    s_mid: float  # image of the point value
    s_hi: float  # image of the right limit

    @property
    def halves(self) -> list[tuple[float, float]]:
        out = []
        if self.s_mid - self.s_lo > _ZERO_JUMP_TOL:
            out.append((self.s_lo, self.s_mid))
        if self.s_hi - self.s_mid > _ZERO_JUMP_TOL:
            out.append((self.s_mid, self.s_hi))
        return out


@dataclass(frozen=True)
class JumpDecomposition:
    jump_times: tuple[float, ...]
    s_map: PiecewisePath  # scalar, strictly increasing, jumps at jump_times
    intervals: tuple[JumpInterval, ...]


def diss0(R: Dissipation, z: PiecewisePath, z0, t: float) -> float:
    """Accumulated dissipation from the prescribed start state up to time t.

    Counts the transition from z0 to the right limit of z at 0 plus all
    dissipation on (0, t]; the point value of z at 0 does not enter.
    """
    z0 = np.atleast_1d(np.asarray(z0, dtype=float))
    if t < z.a - 1e-12 or t > z.b + 1e-12:
        raise PreconditionError("t outside the domain of z")
    if t <= z.a + 1e-15:
        return 0.0
    initial = R(z.right[0] - z0)
    inner = dissipation(R, z, z.a, t) - R(z.right[0] - z.values[0])
    return float(initial + inner)


def _require_symmetric(R: Dissipation):
    if not R.symmetric:
        raise PreconditionError(
            "transition segments need a symmetric dissipation potential "
            "(scaled norm); for asymmetric kernels the normalization "
            "condition fails on jump segments"
        )


def build_parametrization(
    z: PiecewisePath, R: Dissipation, z0, T: float
) -> tuple[JumpDecomposition, float, LipschitzPath, LipschitzPath]:
    """Arc-length reparametrization (S, t_hat, z_hat) of a BV state path.

    t_hat is the inverse of s(t) = t + diss0(z; [0, t]), held constant on the
    stretched jump intervals; z_hat crosses each jump affinely through its
    left limit, point value and right limit.
    """
    _require_symmetric(R)
    z0 = np.atleast_1d(np.asarray(z0, dtype=float))
    if abs(z.a) > 1e-12 or abs(z.b - T) > 1e-9:
        raise PreconditionError("z must be defined on [0, T]")
    if z0.size != z.dim:
        raise PreconditionError("z0 dimension mismatch")

    bp = z.breakpoints
    # nodes of (t_hat, z_hat): (s, t, z) triples in increasing s
    nodes: list[tuple[float, float, np.ndarray]] = []
    s_left, s_val, s_right = [], [], []  # s_map node data per breakpoint of z
    jump_times: list[float] = []
    intervals: list[JumpInterval] = []

    s = 0.0
    nodes.append((0.0, 0.0, z0.copy()))
    s_val.append(0.0)
    s_left.append(0.0)
    # initial transition from z0 through z(0) to z(0+)
    r_a = R(z.values[0] - z0)
    r_b = R(z.right[0] - z.values[0])
    if r_a + r_b > _ZERO_JUMP_TOL:
        jump_times.append(0.0)
        intervals.append(JumpInterval(0.0, 0.0, r_a, r_a + r_b))
        if r_a > _ZERO_JUMP_TOL:
            nodes.append((r_a, 0.0, z.values[0].copy()))
        if r_b > _ZERO_JUMP_TOL:
            nodes.append((r_a + r_b, 0.0, z.right[0].copy()))
        s = r_a + r_b
    s_right.append(s)

    for k in range(z.n_segments):
        dt = float(bp[k + 1] - bp[k])
        slope = z.segment_slope(k)
        s += dt * (1.0 + R(slope))
        t_k1 = float(bp[k + 1])
        nodes.append((s, t_k1, z.left[k + 1].copy()))
        s_left.append(s)
        r_a = R(z.values[k + 1] - z.left[k + 1])
        r_b = R(z.right[k + 1] - z.values[k + 1])
        if r_a + r_b > _ZERO_JUMP_TOL:
            jump_times.append(t_k1)
            intervals.append(JumpInterval(t_k1, s, s + r_a, s + r_a + r_b))
            if r_a > _ZERO_JUMP_TOL:
                nodes.append((s + r_a, t_k1, z.values[k + 1].copy()))
            if r_b > _ZERO_JUMP_TOL:
                nodes.append((s + r_a + r_b, t_k1, z.right[k + 1].copy()))
        s_val.append(s + r_a)
        s_right.append(s + r_a + r_b)
        s += r_a + r_b

    S = s
    ss = np.array([n[0] for n in nodes])
    ts = np.array([[n[1]] for n in nodes])
    zs = np.array([n[2] for n in nodes])
    t_hat = LipschitzPath.from_samples(ss, ts)
    z_hat = LipschitzPath.from_samples(ss, zs)
    s_map = PiecewisePath.from_nodes(
        bp, np.array(s_left)[:, None], np.array(s_val)[:, None], np.array(s_right)[:, None]
    )
    decomp = JumpDecomposition(
        jump_times=tuple(jump_times),
        s_map=s_map,
        intervals=tuple(intervals),
    )
    return decomp, S, t_hat, z_hat


def build_load_hat(
    decomp: JumpDecomposition,
    t_hat: LipschitzPath,
    z_hat: LipschitzPath,
    load: PiecewisePath,
    energy: EnergyModel,
) -> PiecewisePath:
    """Parametrized load: composed load off jumps, balancing value inside them.

    On every open transition segment the load is set to the spatial energy
    gradient plus the normalized transition direction, which makes the
    reparametrized driving force point exactly along the transition.
    """
    composed = compose_monotone(load, t_hat)
    halves = [h for iv in decomp.intervals for h in iv.halves]
    if not halves:
        return composed

    extra: list[float] = []
    for sa, sb in halves:
        extra.extend([sa, sb])
        if not energy.grad_affine:
            extra.extend(np.linspace(sa, sb, _NONAFFINE_SUBDIV + 1)[1:-1])
    path = composed.with_breakpoints(extra)

    left = path.left.copy()
    vals = path.values.copy()
    right = path.right.copy()

    for sa, sb in halves:
        slope = (z_hat(sb) - z_hat(sa)) / (sb - sa)
        drift = slope / float(slope @ slope)

        def fill(s: float) -> np.ndarray:
            return energy.grad(z_hat(s)) + drift

        for k, s in enumerate(path.breakpoints):
            s = float(s)
            if s < sa - _ZERO_JUMP_TOL or s > sb + _ZERO_JUMP_TOL:
                continue
            inside_lo = s > sa + _ZERO_JUMP_TOL
            inside_hi = s < sb - _ZERO_JUMP_TOL
            if inside_lo:
                left[k] = fill(s)
            if inside_hi:
                right[k] = fill(s)
            if inside_lo and inside_hi:
                vals[k] = fill(s)
    # domain-end conventions: outward limits equal the point values
    left[0] = vals[0]
    right[-1] = vals[-1]
    return PiecewisePath(path.breakpoints, left, vals, right)


@dataclass(frozen=True)
class ConstructionResult:
    tuple: ParametrizedTuple
    projection_witness: tuple[tuple[float, float], ...]  # (t, s) with match
    report: CheckReport
    decomposition: JumpDecomposition


def construct_relaxed_from_local(
    z: PiecewisePath, problem: RISProblem, tol: float = 1e-8
) -> ConstructionResult:
    """Full pipeline: validate, reparametrize, fill the load, certify.

    Raises PreconditionError when the input fails the local-solution check or
    the kernel is asymmetric, and ConstructionError when the certified output
    unexpectedly misses a residual target.
    """
    _require_symmetric(problem.R)
    local = check_local(z, problem, tol=tol)
    if not local.overall:
        raise PreconditionError(
            "input is not a local solution; failing conditions: "
            + ", ".join(
                f"{c.cid} (residual {c.residual:.3e})"
                for c in local.conditions
                if not c.passed
            )
        )
    decomp, S, t_hat, z_hat = build_parametrization(z, problem.R, problem.z0, problem.T)
    ell_hat = build_load_hat(decomp, t_hat, z_hat, problem.load, problem.energy)
    tup = ParametrizedTuple(S=S, t_hat=t_hat, z_hat=z_hat, ell_hat=ell_hat)
    report = check_relaxed(tup, problem, tol=tol)
    if not report.overall:
        raise ConstructionError(
            "constructed tuple failed certification: "
            + ", ".join(
                f"{c.cid} (residual {c.residual:.3e})"
                for c in report.conditions
                if not c.passed
            )
        )
    witness = []
    for k, t in enumerate(z.breakpoints):
        s_w = float(decomp.s_map.values[k, 0])
        if (
            abs(float(t_hat(s_w)[0]) - float(t)) > 1e-9
            or float(np.linalg.norm(z_hat(s_w) - z.values[k])) > 1e-9
        ):
            raise ConstructionError(f"projection witness failed at t={float(t)}")
        witness.append((float(t), s_w))
    return ConstructionResult(
        tuple=tup,
        projection_witness=tuple(witness),
        report=report,
        decomposition=decomp,
    )
