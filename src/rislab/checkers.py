"""Certify or refute candidate solutions against the four solution concepts.

Every checker returns a :class:`CheckReport` carrying one residual per
condition.  Conditions are evaluated on the segments of the joint refinement
of the candidate's paths.

Exact, read at segment limits and breakpoints:

* ``endpoints``;
* ``load_match_on_increasing_set`` and, off the plateaus of the time
  reparametrization, ``load_compatibility`` (the load difference is affine on
  each segment);
* ``energy_inequality`` of ``check_local``, at every pair t1 <= t2 of its
  physical grid (17 uniform points plus all breakpoints).  Dissipation and
  the Stieltjes integral are additive over adjacent intervals, so the gap
  over [t1, t2] is C(t2) - C(t1) with C(t) = I(t, z(t)) + Diss(0, t) +
  KS(0, t); one cumulative sum on the grid and one running-minimum scan give
  the worst pair in O(P log P) for P grid points.

Sampled: the elastic-set distance is generally nonlinear in the curve
parameter.  ``complementarity``, ``normalization`` and ``energy_identity``
therefore share one sample set: per segment the 16 Gauss-Legendre nodes plus
both segment ends nudged inward.  The first two take the maximum over all 18
points, the energy integrates its gap density with the Gauss nodes and
weights.  ``local_stability`` and ``inclusion`` read the same samples, with
physical time as the identity parametrization.  On each plateau,
``load_compatibility`` searches its switch point over the plateau's
breakpoints plus a 129-point grid, so a failing residual there is an upper
bound.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, PreconditionError
from .model import ParametrizedTuple, RISProblem
from .paths import (
    LipschitzPath,
    PiecewisePath,
    _increment_gaps,
    _stieltjes_gaps,
    compose_monotone,
    merge_breakpoints,
    path_difference,
)

_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)

# slopes below this are treated as plateaus of the time reparametrization
SLOPE_TOL = 1e-12

DEFAULT_TOL = 1e-8


# ---------------------------------------------------------------------------
# report types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionResult:
    cid: str
    residual: float
    tolerance: float
    witness: object = None

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


@dataclass(frozen=True)
class CheckReport:
    concept: str  # "differential" | "local" | "normalized_pbv" | "relaxed"
    conditions: tuple[ConditionResult, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.conditions)

    def condition(self, cid: str) -> ConditionResult:
        for c in self.conditions:
            if c.cid == cid:
                return c
        raise KeyError(cid)

    def failed_ids(self) -> list[str]:
        return [c.cid for c in self.conditions if not c.passed]

    def to_dict(self) -> dict:
        return {
            "concept": self.concept,
            "overall": "pass" if self.overall else "fail",
            "conditions": [
                {
                    "id": c.cid,
                    "residual": c.residual,
                    "tolerance": c.tolerance,
                    "verdict": "pass" if c.passed else "fail",
                    "witness": _jsonable(c.witness),
                }
                for c in self.conditions
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def format_table(self) -> str:
        lines = [f"concept: {self.concept}"]
        for c in self.conditions:
            mark = "PASS" if c.passed else "FAIL"
            line = f"  [{mark}] {c.cid:<28} residual {c.residual:.3e} (tol {c.tolerance:.1e})"
            if not c.passed and c.witness is not None:
                line += f"  witness: {_jsonable(c.witness)}"
            lines.append(line)
        lines.append(f"overall: {'PASS' if self.overall else 'FAIL'}")
        return "\n".join(lines)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


@dataclass(frozen=True)
class IncreasingSet:
    """Maximal open intervals on which the time reparametrization increases."""

    intervals: tuple[tuple[float, float], ...]

    def contains(self, s: float) -> bool:
        return any(lo < s < hi for lo, hi in self.intervals)


def increasing_set(t_hat: LipschitzPath, slope_tol: float = SLOPE_TOL) -> IncreasingSet:
    if t_hat.dim != 1:
        raise PreconditionError("t_hat must be scalar")
    if not t_hat.is_nondecreasing():
        raise PreconditionError("t_hat must be nondecreasing")
    intervals: list[list[float]] = []
    for k in range(t_hat.n_segments):
        if t_hat.segment_slope(k)[0] > slope_tol:
            lo, hi = float(t_hat.breakpoints[k]), float(t_hat.breakpoints[k + 1])
            if intervals and abs(intervals[-1][1] - lo) <= 1e-14:
                intervals[-1][1] = hi
            else:
                intervals.append([lo, hi])
    return IncreasingSet(tuple((lo, hi) for lo, hi in intervals))


def _plateaus(t_hat: LipschitzPath) -> np.ndarray:
    """Maximal intervals on which t_hat is constant, as (P, 2) rows.

    These are the gaps of the increasing set in the domain [0, S].
    """
    inner = [x for interval in increasing_set(t_hat).intervals for x in interval]
    edges = np.array([t_hat.breakpoints[0], *inner, t_hat.breakpoints[-1]]).reshape(-1, 2)
    return edges[edges[:, 1] > edges[:, 0]]


def _on_plateau(s: np.ndarray, plateaus: np.ndarray, slack: float = 1e-14) -> np.ndarray:
    """Whether each point lies in a closed plateau widened by ``slack``."""
    if not plateaus.size:
        return np.zeros(s.shape, dtype=bool)
    i = np.searchsorted(plateaus[:, 0] - slack, s, side="right") - 1
    return (i >= 0) & (s <= plateaus[np.maximum(i, 0), 1] + slack)


# ---------------------------------------------------------------------------
# shared sample set of the sampled conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _SegmentArrays:
    """Per-segment data of a jointly refined (t, z, ell), as flat arrays."""

    lo: np.ndarray  # (K,)
    hi: np.ndarray  # (K,)
    t_slope: np.ndarray  # (K,)
    z_slope: np.ndarray  # (K, d)
    z_lo: np.ndarray  # (K, d) right limits of z at lo
    ell_lo: np.ndarray  # (K, d) right limits of ell at lo
    ell_slope: np.ndarray  # (K, d)


def _segments(
    z: PiecewisePath, ell: PiecewisePath, t_hat: LipschitzPath | None = None
) -> _SegmentArrays:
    """Segments of the joint refinement of (t_hat, z, ell).

    Without ``t_hat`` the curve parameter is physical time, i.e. ``t_hat`` is
    the identity and every time slope is 1.
    """
    paths = (z, ell) if t_hat is None else (t_hat, z, ell)
    ts = merge_breakpoints(*(p.breakpoints for p in paths))
    refined = [p.with_breakpoints(ts) for p in paths]
    zr, lr = refined[-2:]
    bp = refined[0].breakpoints
    return _SegmentArrays(
        lo=bp[:-1].copy(),
        hi=bp[1:].copy(),
        t_slope=np.ones(bp.size - 1) if t_hat is None else refined[0].slopes()[:, 0],
        z_slope=zr.slopes(),
        z_lo=zr.right[:-1].copy(),
        ell_lo=lr.right[:-1].copy(),
        ell_slope=lr.slopes(),
    )


def _sample_matrix(lo: np.ndarray, hi: np.ndarray):
    """Per-segment sample points (K, 18) and Gauss weights (K, 16).

    Columns 1..16 are the Gauss-Legendre nodes; columns 0 and 17 are the
    segment ends, nudged inward so that they probe the segment interior
    (one-sided limits), matching the almost-everywhere reading.
    """
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * _GL_X[None, :]
    weights = half[:, None] * _GL_W[None, :]
    eps = 1e-13 * np.maximum(1.0, np.abs(lo))
    return np.column_stack([lo + eps, nodes, hi - eps]), weights


def _grad_and_load(problem: RISProblem, segs: _SegmentArrays, nodes: np.ndarray):
    """Energy gradient and load at the sample points, each (K, m, d)."""
    K, m = nodes.shape
    d = segs.z_slope.shape[1]
    rel = nodes - segs.lo[:, None]
    Z = segs.z_lo[:, None, :] + segs.z_slope[:, None, :] * rel[:, :, None]
    L = segs.ell_lo[:, None, :] + segs.ell_slope[:, None, :] * rel[:, :, None]
    G = problem.energy.grad_many(Z.reshape(-1, d)).reshape(K, m, d)
    return G, L


def _dist_matrix(problem: RISProblem, segs: _SegmentArrays, nodes: np.ndarray):
    """Elastic-set distances of the driving force at the sample points.

    Returns (dist (K, m), grad (K, m, d), ell (K, m, d)).
    """
    G, L = _grad_and_load(problem, segs, nodes)
    K, m, d = L.shape
    dist = problem.R.dist_to_elastic_many((L - G).reshape(-1, d)).reshape(K, m)
    return dist, G, L


def _worst(vals: np.ndarray, nodes: np.ndarray, key: str) -> tuple[float, object]:
    """Largest sampled value, witnessed by its sample point when positive."""
    k, j = np.unravel_index(np.argmax(vals), vals.shape)
    worst = float(vals[k, j])
    return worst, ({key: float(nodes[k, j])} if worst > 0 else None)


def _gap_increments(problem: RISProblem, segs: _SegmentArrays, weights, dist, G, L) -> np.ndarray:
    """Per-segment integrals of the energy gap density over the Gauss columns.

    The density R(z') + ||z'|| dist(ell - grad, elastic) + <grad - ell, z'> is
    pointwise nonnegative for any tuple, which is what makes the energy
    condition one-sided.
    """
    gauss = slice(1, -1)
    r_part = problem.R.eval_many(segs.z_slope)
    nz = np.linalg.norm(segs.z_slope, axis=1)
    power = np.einsum("kmd,kd->km", G[:, gauss] - L[:, gauss], segs.z_slope)
    density = r_part[:, None] + nz[:, None] * dist[:, gauss] + power
    return np.sum(weights * density, axis=1)


def energy_residual(
    tup: ParametrizedTuple, problem: RISProblem, s1: float, s2: float
) -> float:
    """Signed energy-balance gap over [s1, s2] (theoretically >= 0).

    Computed as the integral of the pointwise-nonnegative gap density, which
    agrees with "stored energy plus contact cost minus supplied work" up to
    quadrature error on the chain-rule term.
    """
    if not (0 <= s1 <= s2 <= tup.S + 1e-9):
        raise DomainError("need 0 <= s1 <= s2 <= S")
    segs = _segments(tup.z_hat, tup.ell_hat, tup.t_hat)
    lo = np.maximum(segs.lo, s1)
    hi = np.minimum(segs.hi, s2)
    mask = hi > lo
    if not np.any(mask):
        return 0.0
    sub = _SegmentArrays(**{f.name: getattr(segs, f.name)[mask] for f in fields(segs)})
    nodes, weights = _sample_matrix(lo[mask], hi[mask])
    dist, G, L = _dist_matrix(problem, sub, nodes)
    return float(np.sum(_gap_increments(problem, sub, weights, dist, G, L)))


# ---------------------------------------------------------------------------
# condition evaluators
# ---------------------------------------------------------------------------


def _endpoint_condition(tup: ParametrizedTuple, problem: RISProblem) -> tuple[float, object]:
    r0 = abs(float(tup.t_hat(0.0)[0]))
    rT = abs(float(tup.t_hat(tup.S)[0]) - problem.T)
    rz = float(np.linalg.norm(tup.z_hat(0.0) - problem.z0))
    res = max(r0, rT, rz)
    wit = {"t_hat(0)": r0, "t_hat(S)-T": rT, "z_hat(0)-z0": rz}
    return res, wit


def _normalization_condition(problem, segs: _SegmentArrays, nodes, dist) -> tuple[float, object]:
    r_part = problem.R.eval_many(segs.z_slope)
    nz = np.linalg.norm(segs.z_slope, axis=1)
    vals = np.abs(
        segs.t_slope[:, None] + r_part[:, None] + nz[:, None] * dist - 1.0
    )
    return _worst(vals, nodes, "s")


def _worst_rise(values: np.ndarray) -> tuple[float, int, int]:
    """Largest values[j] - values[i] over i <= j, with its (i, j).

    One running-minimum scan: j is the first index attaining the largest rise
    and i the first index of the minimum of values[:j+1].
    """
    run_min = np.minimum.accumulate(values)
    rise = values - run_min
    j = int(np.argmax(rise))
    i = int(np.argmax(values[: j + 1] == run_min[j]))
    return float(rise[j]), i, j


def _energy_condition(segs: _SegmentArrays, increments: np.ndarray) -> tuple[float, object]:
    # the gap density is pointwise nonnegative, so the worst pair of curve
    # parameters is read off the cumulative gap at segment boundaries
    cum = np.concatenate([[0.0], np.cumsum(increments)])
    bounds = np.concatenate([[segs.lo[0]], segs.hi])
    best, i, j = _worst_rise(cum)
    return best, ({"s1": float(bounds[i]), "s2": float(bounds[j])} if best > 0 else None)


def _load_scan(tup, problem):
    """The compose-and-diff load scan off the plateaus of t_hat.

    Where time advances, ell_hat must equal load o t_hat.  Their difference is
    affine on each open segment of the joint refinement, so its sup there is
    the larger one-sided limit; segments inside a plateau are skipped.
    Returns (worst, witness, difference path, plateaus).
    """
    diff = path_difference(tup.ell_hat, compose_monotone(problem.load, tup.t_hat))
    plateaus = _plateaus(tup.t_hat)
    bp = diff.breakpoints
    res = np.maximum(np.linalg.norm(diff.right[:-1], axis=1), np.linalg.norm(diff.left[1:], axis=1))
    res[_on_plateau(0.5 * (bp[:-1] + bp[1:]), plateaus)] = 0.0
    k = int(np.argmax(res))
    worst = float(res[k])
    wit = {"interval": (float(bp[k]), float(bp[k + 1]))} if worst > 0 else None
    return worst, wit, diff, plateaus


def _sup_dev_open(path: PiecewisePath, lo: float, hi: float, target: np.ndarray) -> float:
    """Sup of ||path - target|| over the open interval (lo, hi), via limits."""
    if hi - lo <= 1e-14:
        return 0.0
    sup = max(
        float(np.linalg.norm(path.right_limit(lo) - target)),
        float(np.linalg.norm(path.left_limit(hi) - target)),
    )
    for k, t in enumerate(path.breakpoints):
        if lo + 1e-14 < t < hi - 1e-14:
            for v in (path.left[k], path.values[k], path.right[k]):
                sup = max(sup, float(np.linalg.norm(v - target)))
    return sup


def _set_dist(v: np.ndarray, candidates: Iterable[np.ndarray]) -> float:
    return min(float(np.linalg.norm(v - c)) for c in candidates)


def _load_compatibility_condition(tup, problem) -> tuple[float, object]:
    load, t_hat, ell_hat = problem.load, tup.t_hat, tup.ell_hat
    worst, wit, diff, plateaus = _load_scan(tup, problem)

    # the admissible load values (left limit, point value, right limit) at the
    # time of every breakpoint and of every plateau; the domain ends of a path
    # carry the 0- := 0 and T+ := T conventions as their outward limits
    bp = diff.breakpoints
    n = bp.size
    s_query = np.concatenate([bp, 0.5 * (plateaus[:, 0] + plateaus[:, 1])])
    times = np.clip(t_hat.eval_many(s_query)[:, 0], 0.0, problem.T)
    admissible = load.limits_many(times)

    # off plateaus the preimage of any time is a single point, so every
    # breakpoint value of ell_hat must be one of the admissible values
    ell = ell_hat.eval_many(bp)
    res = np.min([np.linalg.norm(ell - lim[:n], axis=1) for lim in admissible], axis=0)
    res[_on_plateau(bp, plateaus)] = 0.0
    k = int(np.argmax(res))
    if res[k] > worst:
        worst, wit = float(res[k]), {"s": float(bp[k])}

    # on each plateau there must be a switch point: left-limit load before,
    # right-limit load after, and one of the three admissible values at it
    for p, (lo, hi) in enumerate(plateaus.tolist()):
        t_star = float(times[n + p])
        lminus, lval, lplus = (lim[n + p] for lim in admissible)
        allowed = [lval, lminus, lplus]
        cands = sorted(
            {lo, hi}
            | {float(s) for s in ell_hat.breakpoints if lo - 1e-14 <= s <= hi + 1e-14}
            | set(np.linspace(lo, hi, 129))
        )
        best_v = np.inf
        for s_star in cands:
            v = max(
                _sup_dev_open(ell_hat, lo, s_star, lminus),
                _sup_dev_open(ell_hat, s_star, hi, lplus),
                _set_dist(ell_hat(s_star), allowed),
            )
            # point values strictly before/after the switch
            for k, s in enumerate(ell_hat.breakpoints):
                s = float(s)
                if lo - 1e-14 <= s < s_star - 1e-14:
                    v = max(v, float(np.linalg.norm(ell_hat.values[k] - lminus)))
                elif s_star + 1e-14 < s <= hi + 1e-14:
                    v = max(v, float(np.linalg.norm(ell_hat.values[k] - lplus)))
            if v < best_v - 1e-15:
                best_v = v
        if best_v > worst:
            worst, wit = best_v, {"interval": (lo, hi), "time": t_star}
    return worst, wit


def _load_match_condition(tup, problem) -> tuple[float, object]:
    """Parametrized load equals composed load a.e. where time advances."""
    worst, wit, _, _ = _load_scan(tup, problem)
    return worst, wit


# ---------------------------------------------------------------------------
# public checkers
# ---------------------------------------------------------------------------

# concept -> its load condition; the other four conditions are shared
_LOAD_CONDITIONS = {
    "normalized_pbv": ("load_compatibility", _load_compatibility_condition),
    "relaxed": ("load_match_on_increasing_set", _load_match_condition),
}


def _check_parametrized(
    concept: str, tup: ParametrizedTuple, problem: RISProblem, tol: float
) -> CheckReport:
    segs = _segments(tup.z_hat, tup.ell_hat, tup.t_hat)
    nodes, weights = _sample_matrix(segs.lo, segs.hi)
    dist, G, L = _dist_matrix(problem, segs, nodes)
    increments = _gap_increments(problem, segs, weights, dist, G, L)
    load_cid, load_condition = _LOAD_CONDITIONS[concept]
    table = (
        ("endpoints", _endpoint_condition(tup, problem)),
        ("complementarity", _worst(segs.t_slope[:, None] * dist, nodes, "s")),
        ("normalization", _normalization_condition(problem, segs, nodes, dist)),
        ("energy_identity", _energy_condition(segs, increments)),
        (load_cid, load_condition(tup, problem)),
    )
    return CheckReport(concept, tuple(ConditionResult(cid, r, tol, w) for cid, (r, w) in table))


def check_normalized_pbv(
    tup: ParametrizedTuple, problem: RISProblem, tol: float = DEFAULT_TOL
) -> CheckReport:
    """Full check against the parametrized solution concept with load compatibility."""
    return _check_parametrized("normalized_pbv", tup, problem, tol)


def check_relaxed(
    tup: ParametrizedTuple, problem: RISProblem, tol: float = DEFAULT_TOL
) -> CheckReport:
    """Check against the relaxed concept: load agreement only where time advances."""
    return _check_parametrized("relaxed", tup, problem, tol)


def _physical_grid(problem: RISProblem, z: PiecewisePath, grid) -> np.ndarray:
    base = grid if grid is not None else np.linspace(0.0, problem.T, 17)
    return merge_breakpoints(base, z.breakpoints, problem.load.breakpoints)


def check_local(
    z: PiecewisePath,
    problem: RISProblem,
    tol: float = DEFAULT_TOL,
    grid: Sequence[float] | None = None,
) -> CheckReport:
    """Check the local solution concept: pointwise stability + energy inequality.

    The energy inequality I(t2, z(t2)) + Diss(t1, t2) <= I(t1, z(t1)) -
    KS(t1, t2) is checked exactly at every pair t1 <= t2 of the grid (``grid``,
    default 17 uniform points, joined with all breakpoints of z and the load).
    By additivity of both integrals the gap is C(t2) - C(t1) for
    C(t) = I(t, z(t)) + Diss(0, t) + KS(0, t); C comes from one cumulative
    sum of per-gap closed forms and the worst pair from one running-minimum
    scan, O(P log P) for P grid points.  Stability is sampled (see the module
    docstring).
    """
    if abs(z.a) > 1e-12 or abs(z.b - problem.T) > 1e-9:
        raise PreconditionError("candidate must be defined on [0, T]")
    pts = _physical_grid(problem, z, grid)

    # stability holds off the finitely many discontinuity points; sample
    # segment interiors of the joint refinement
    segs = _segments(z, problem.load)
    nodes, _ = _sample_matrix(segs.lo, segs.hi)
    dist, _, _ = _dist_matrix(problem, segs, nodes)
    worst_s, wit_s = _worst(dist, nodes, "t")

    # C(t) on the grid, as in the docstring
    incs = _increment_gaps(z, pts, problem.R.eval_many) + _stieltjes_gaps(z, problem.load, pts)
    stored = np.array([problem.value_I(t, v) for t, v in zip(pts, z.eval_many(pts))])
    worst_e, i, j = _worst_rise(stored + np.concatenate([[0.0], np.cumsum(incs)]))
    wit_e = {"t1": float(pts[i]), "t2": float(pts[j])} if worst_e > 0 else None
    conds = (
        ConditionResult("local_stability", worst_s, tol, wit_s),
        ConditionResult("energy_inequality", worst_e, tol, wit_e),
    )
    return CheckReport("local", conds)


def check_differential(
    z: PiecewisePath,
    problem: RISProblem,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Check the a.e. differential inclusion for a continuous piecewise-affine state."""
    if not z.is_continuous():
        raise PreconditionError("differential candidates must be continuous")
    if abs(z.a) > 1e-12 or abs(z.b - problem.T) > 1e-9:
        raise PreconditionError("candidate must be defined on [0, T]")
    segs = _segments(z, problem.load)
    nodes, _ = _sample_matrix(segs.lo, segs.hi)
    G, L = _grad_and_load(problem, segs, nodes)
    res = np.array([
        [problem.R.dist_to_subdiff(q, w) for w in force]
        for q, force in zip(segs.z_slope, L - G)
    ])
    worst, wit = _worst(res, nodes, "t")
    return CheckReport("differential", (ConditionResult("inclusion", worst, tol, wit),))
