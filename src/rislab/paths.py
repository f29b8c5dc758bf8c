"""Exact algebra for piecewise-affine vector paths with finitely many jumps.

A path is stored by its breakpoints together with a (left limit, point value,
right limit) triple at every breakpoint.  Between consecutive breakpoints the
path is the affine interpolant of the adjacent one-sided limits, so total
variation, dissipation and Stieltjes-type integrals all have closed forms.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DomainError, PreconditionError

# Two breakpoints closer than this are merged when building refinements.
BREAKPOINT_MERGE_TOL = 1e-12


def _as_array(values) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise PreconditionError("path data must be a rectangular array of numbers") from None


def _as_matrix(values) -> np.ndarray:
    arr = _as_array(values)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise PreconditionError(f"expected 1-D or 2-D value array, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class PiecewisePath:
    """Piecewise-affine function [a, b] -> R^d with jumps only at breakpoints.

    ``left[k]``, ``values[k]`` and ``right[k]`` are the left limit, point value
    and right limit at ``breakpoints[k]``.  At the domain ends the outward
    limits coincide with the point value.
    """

    breakpoints: np.ndarray
    left: np.ndarray
    values: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        bp = _as_array(self.breakpoints)
        left = _as_matrix(self.left)
        vals = _as_matrix(self.values)
        right = _as_matrix(self.right)
        if bp.ndim != 1 or bp.size < 2:
            raise PreconditionError("need at least two breakpoints")
        if not np.all(np.diff(bp) > 0):
            raise PreconditionError("breakpoints must be strictly increasing")
        if not (left.shape == vals.shape == right.shape == (bp.size, vals.shape[1])):
            raise PreconditionError("node arrays must share the shape (n_breakpoints, dim)")
        for arr in (bp, left, vals, right):
            if not np.all(np.isfinite(arr)):
                raise PreconditionError("path data must be finite")
        if not np.array_equal(left[0], vals[0]):
            raise PreconditionError("left limit at the left end must equal the point value")
        if not np.array_equal(right[-1], vals[-1]):
            raise PreconditionError("right limit at the right end must equal the point value")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "right", right)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_samples(ts: Sequence[float], ys) -> "PiecewisePath":
        """Continuous piecewise-linear interpolant of the nodes (ts, ys)."""
        ys = _as_matrix(ys)
        return PiecewisePath(ts, ys, ys, ys)

    @staticmethod
    def from_nodes(ts, left, values, right) -> "PiecewisePath":
        return PiecewisePath(ts, left, values, right)

    @staticmethod
    def constant(a: float, b: float, value) -> "PiecewisePath":
        v = np.atleast_1d(np.asarray(value, dtype=float))
        return PiecewisePath.from_samples([a, b], np.vstack([v, v]))

    # -- basic geometry ------------------------------------------------------

    @property
    def a(self) -> float:
        return float(self.breakpoints[0])

    @property
    def b(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def n_segments(self) -> int:
        return self.breakpoints.size - 1

    def segment_slope(self, k: int) -> np.ndarray:
        dt = self.breakpoints[k + 1] - self.breakpoints[k]
        return (self.left[k + 1] - self.right[k]) / dt

    def slopes(self) -> np.ndarray:
        dt = np.diff(self.breakpoints)[:, None]
        return (self.left[1:] - self.right[:-1]) / dt

    def _check_inside(self, t: float):
        if t < self.a - BREAKPOINT_MERGE_TOL or t > self.b + BREAKPOINT_MERGE_TOL:
            raise DomainError(f"t={t} outside domain [{self.a}, {self.b}]")

    def _node_index(self, t: float) -> int | None:
        """Index of a breakpoint within merge tolerance of t, or None."""
        i = int(np.searchsorted(self.breakpoints, t))
        for j in (i - 1, i):
            if 0 <= j < self.breakpoints.size and abs(self.breakpoints[j] - t) <= BREAKPOINT_MERGE_TOL:
                return j
        return None

    def _segment_of(self, t: float) -> int:
        """Index k with t strictly inside (breakpoints[k], breakpoints[k+1])."""
        k = int(np.searchsorted(self.breakpoints, t)) - 1
        return min(max(k, 0), self.n_segments - 1)

    def _affine_at(self, k: int, t: float) -> np.ndarray:
        t0, t1 = self.breakpoints[k], self.breakpoints[k + 1]
        lam = (t - t0) / (t1 - t0)
        return (1.0 - lam) * self.right[k] + lam * self.left[k + 1]

    def _at(self, t: float, node_rows: np.ndarray) -> np.ndarray:
        """Row of ``node_rows`` at a breakpoint, else the affine interior value.

        The scalar counterpart of ``limits_many``, kept separate because a
        one-point array call costs several times more.
        """
        self._check_inside(t)
        j = self._node_index(t)
        if j is not None:
            return node_rows[j].copy()
        return self._affine_at(self._segment_of(t), t)

    def __call__(self, t: float) -> np.ndarray:
        return self._at(t, self.values)

    def left_limit(self, t: float) -> np.ndarray:
        return self._at(t, self.left)

    def right_limit(self, t: float) -> np.ndarray:
        return self._at(t, self.right)

    def is_continuous(self, tol: float = 0.0) -> bool:
        return bool(
            np.all(np.abs(self.left - self.values) <= tol)
            and np.all(np.abs(self.right - self.values) <= tol)
        )

    def jump_points(self, tol: float = 0.0) -> list[float]:
        out = []
        for k, t in enumerate(self.breakpoints):
            if (
                np.any(np.abs(self.values[k] - self.left[k]) > tol)
                or np.any(np.abs(self.right[k] - self.values[k]) > tol)
            ):
                out.append(float(t))
        return out

    # -- refinement / arithmetic --------------------------------------------

    def _locate_many(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Node index (or -1) and containing-segment index for each point."""
        bp = self.breakpoints
        i = np.searchsorted(bp, ts)
        node = np.full(ts.size, -1, dtype=int)
        for off in (-1, 0):
            cand = np.clip(i + off, 0, bp.size - 1)
            hit = (node < 0) & (np.abs(bp[cand] - ts) <= BREAKPOINT_MERGE_TOL)
            node[hit] = cand[hit]
        seg = np.clip(np.searchsorted(bp, ts, side="right") - 1, 0, self.n_segments - 1)
        return node, seg

    def limits_many(self, ts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(left limit, value, right limit) rows at every query point."""
        ts = np.asarray(ts, dtype=float)
        if ts.size and (
            ts.min() < self.a - BREAKPOINT_MERGE_TOL or ts.max() > self.b + BREAKPOINT_MERGE_TOL
        ):
            raise DomainError("query points outside the path domain")
        bp = self.breakpoints
        node, seg = self._locate_many(ts)
        lam = ((ts - bp[seg]) / (bp[seg + 1] - bp[seg]))[:, None]
        interior = (1.0 - lam) * self.right[seg] + lam * self.left[seg + 1]
        at_node = node >= 0
        vals, lefts, rights = interior.copy(), interior.copy(), interior
        vals[at_node] = self.values[node[at_node]]
        lefts[at_node] = self.left[node[at_node]]
        rights = rights.copy()
        rights[at_node] = self.right[node[at_node]]
        return lefts, vals, rights

    def eval_many(self, ts) -> np.ndarray:
        """Point values at every query point (vectorized __call__)."""
        return self.limits_many(ts)[1]

    def with_breakpoints(self, extra: Iterable[float]) -> "PiecewisePath":
        """Equivalent path whose breakpoint set includes ``extra``."""
        extra = np.asarray(list(extra), dtype=float)
        if extra.size and (
            extra.min() < self.a - BREAKPOINT_MERGE_TOL
            or extra.max() > self.b + BREAKPOINT_MERGE_TOL
        ):
            raise DomainError("refinement points outside the path domain")
        ts = merge_breakpoints(self.breakpoints, np.clip(extra, self.a, self.b))
        # points that merge into an existing node must keep the node's time
        node, _ = self._locate_many(ts)
        at_node = node >= 0
        ts[at_node] = self.breakpoints[node[at_node]]
        left, vals, right = self.limits_many(ts)
        return PiecewisePath(ts, left, vals, right)

    def map_values(self, fn: Callable[[np.ndarray], np.ndarray]) -> "PiecewisePath":
        """Apply an affine map to every stored limit/value (exactness preserved)."""
        return PiecewisePath(
            self.breakpoints,
            np.array([fn(v) for v in self.left]),
            np.array([fn(v) for v in self.values]),
            np.array([fn(v) for v in self.right]),
        )

    def __neg__(self):
        return self.map_values(lambda v: -v)

    def __sub__(self, other: "PiecewisePath") -> "PiecewisePath":
        return path_difference(self, other)


class LipschitzPath(PiecewisePath):
    """Continuous piecewise-linear path; records its Lipschitz bound."""

    def __post_init__(self):
        super().__post_init__()
        if not (np.array_equal(self.left, self.values) and np.array_equal(self.right, self.values)):
            raise PreconditionError("a Lipschitz path must be continuous (no node jumps)")

    @property
    def lipschitz_bound(self) -> float:
        return float(np.max(np.linalg.norm(self.slopes(), axis=1)))

    @staticmethod
    def from_samples(ts, ys) -> "LipschitzPath":
        ys = _as_matrix(ys)
        return LipschitzPath(ts, ys, ys, ys)

    @staticmethod
    def identity(a: float, b: float) -> "LipschitzPath":
        return LipschitzPath.from_samples([a, b], [[a], [b]])

    def is_nondecreasing(self, tol: float = 1e-12) -> bool:
        if self.dim != 1:
            raise PreconditionError("monotonicity is only defined for scalar paths")
        return bool(np.all(self.slopes()[:, 0] >= -tol))


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def merge_breakpoints(*point_sets: Iterable[float]) -> np.ndarray:
    """Sorted union of the given points, merging near-duplicates."""
    pts = sorted(float(t) for ps in point_sets for t in ps)
    out: list[float] = []
    for t in pts:
        if not out or t - out[-1] > BREAKPOINT_MERGE_TOL:
            out.append(t)
    return np.array(out)


def _clip_interval(f: PiecewisePath, a: float, b: float) -> tuple[float, float]:
    if a > b:
        raise DomainError(f"empty interval [{a}, {b}]")
    if a < f.a - BREAKPOINT_MERGE_TOL or b > f.b + BREAKPOINT_MERGE_TOL:
        raise DomainError(f"[{a}, {b}] not contained in [{f.a}, {f.b}]")
    return max(a, f.a), min(b, f.b)


def path_difference(f: PiecewisePath, g: PiecewisePath) -> PiecewisePath:
    """Exact pointwise difference f - g on their (shared) domain."""
    if abs(f.a - g.a) > BREAKPOINT_MERGE_TOL or abs(f.b - g.b) > BREAKPOINT_MERGE_TOL:
        raise DomainError("paths must share a domain to be subtracted")
    if f.dim != g.dim:
        raise ValueError("dimension mismatch")
    ts = merge_breakpoints(f.breakpoints, g.breakpoints)
    fr = f.with_breakpoints(ts)
    gr = g.with_breakpoints(ts)
    # refined paths share the breakpoint grid up to merge tolerance
    return PiecewisePath(fr.breakpoints, fr.left - gr.left, fr.values - gr.values, fr.right - gr.right)


# ---------------------------------------------------------------------------
# variation, dissipation, integration
# ---------------------------------------------------------------------------


def _interval_grid(t1: float, t2: float, *paths: PiecewisePath) -> np.ndarray:
    """Both ends of [t1, t2] plus every breakpoint of the paths inside it."""
    ts = merge_breakpoints(*(p.breakpoints for p in paths), [t1, t2])
    return ts[(ts >= t1 - BREAKPOINT_MERGE_TOL) & (ts <= t2 + BREAKPOINT_MERGE_TOL)]


def _increment_gaps(f: PiecewisePath, ts: np.ndarray, cost_many) -> np.ndarray:
    """Increment cost of f over each gap [ts[i], ts[i+1]] of a sorted grid.

    ``ts`` must contain every breakpoint of f in its range.  A gap costs its
    segment increment (cost is positively 1-homogeneous, so cost(slope) *
    length is the cost of the increment across the segment), the right-side
    jump increment at its left end and the left-side one at its right end.
    ``cost_many`` evaluates the cost row-wise on an (N, d) array.
    """
    left, vals, right = f.limits_many(ts)
    n = ts.size - 1
    incs = np.concatenate([left[1:] - right[:-1], right[:-1] - vals[:-1], vals[1:] - left[1:]])
    return cost_many(incs).reshape(3, n).sum(axis=0)


def _stieltjes_gaps(z: PiecewisePath, ell: PiecewisePath, ts: np.ndarray) -> np.ndarray:
    """Integral of z against dl over each gap [ts[i], ts[i+1]] of a sorted grid.

    ``ts`` must contain every breakpoint of z and l in its range.  On the open
    gap l' is constant and z affine, so the midpoint of z's one-sided limits
    integrates exactly; the right-side jump of l at the left end and the
    left-side jump at the right end are weighted with the point value of z.
    """
    zl, zv, zr = z.limits_many(ts)
    ll, lv, lr = ell.limits_many(ts)
    seg = np.einsum("kd,kd->k", 0.5 * (zr[:-1] + zl[1:]), ll[1:] - lr[:-1])
    out = np.einsum("kd,kd->k", zv[:-1], lr[:-1] - lv[:-1])
    into = np.einsum("kd,kd->k", zv[1:], lv[1:] - ll[1:])
    return seg + out + into


def _increment_sum(f: PiecewisePath, a: float, b: float, cost_many) -> float:
    """Sum of the per-gap increment costs of f over [a, b]."""
    a, b = _clip_interval(f, a, b)
    if b - a <= BREAKPOINT_MERGE_TOL:
        return 0.0
    return float(np.sum(_increment_gaps(f, _interval_grid(a, b, f), cost_many)))


def total_variation(f: PiecewisePath, a: float | None = None, b: float | None = None) -> float:
    """Exact total variation of f over [a, b] (default: the whole domain).

    Additive over adjacent intervals, with the endpoint conventions of
    ``dissipation``.
    """
    a = f.a if a is None else a
    b = f.b if b is None else b
    return _increment_sum(f, a, b, lambda V: np.linalg.norm(V, axis=1))


def dissipation(R, z: PiecewisePath, t1: float | None = None, t2: float | None = None) -> float:
    """Exact R-dissipation of z over [t1, t2].

    Segments contribute R(slope) * length (R is positively 1-homogeneous) and
    every jump contributes R of its one-sided increments.  At the interval
    ends only the inward increment counts: the right-side increment
    R(z(t1+) - z(t1)) at t1 and the left-side one R(z(t2) - z(t2-)) at t2.
    So the dissipation is additive over adjacent intervals,
    Diss(t1, t) + Diss(t, t2) = Diss(t1, t2), also when t is a jump point.
    """
    t1 = z.a if t1 is None else t1
    t2 = z.b if t2 is None else t2
    return _increment_sum(z, t1, t2, R.eval_many)


def kurzweil_stieltjes(z: PiecewisePath, ell: PiecewisePath, t1: float, t2: float) -> float:
    """Integral of z against dl over [t1, t2].

    Absolutely continuous parts are integrated in closed form (both factors are
    affine per segment).  An interior jump of the integrator at t contributes
    the point value times the two-sided increment, <z(t), l(t+) - l(t-)>, so a
    load that differs from a continuous one only in its value at a single
    point integrates to zero against any path.  The interval ends use their
    inward one-sided increments only: <z(t1), l(t1+) - l(t1)> at t1 and
    <z(t2), l(t2) - l(t2-)> at t2.  So the integral is additive over adjacent
    intervals, KS(t1, t) + KS(t, t2) = KS(t1, t2), also when t is a jump point
    of z or of l.
    """
    _clip_interval(z, t1, t2)
    t1, t2 = _clip_interval(ell, t1, t2)
    if t2 - t1 <= BREAKPOINT_MERGE_TOL:
        return 0.0
    return float(np.sum(_stieltjes_gaps(z, ell, _interval_grid(t1, t2, z, ell))))


# ---------------------------------------------------------------------------
# composition with a monotone reparametrization
# ---------------------------------------------------------------------------


def compose_monotone(f: PiecewisePath, t_hat: LipschitzPath) -> PiecewisePath:
    """Exact piecewise representation of f o t_hat for nondecreasing scalar t_hat.

    On plateaus of t_hat the composition is constant at the point value of f;
    one-sided limits at plateau boundaries come from the increasing side.
    """
    if t_hat.dim != 1:
        raise PreconditionError("t_hat must be scalar-valued")
    if not t_hat.is_nondecreasing():
        raise PreconditionError("t_hat must be nondecreasing")
    lo_val = float(t_hat.values[0, 0])
    hi_val = float(t_hat.values[-1, 0])
    if lo_val < f.a - 1e-9 or hi_val > f.b + 1e-9:
        raise DomainError("range of t_hat leaves the domain of f")

    m_all = t_hat.slopes()[:, 0]
    s0 = t_hat.breakpoints[:-1]
    v0 = t_hat.values[:-1, 0]
    v1 = t_hat.values[1:, 0]
    rising = m_all > BREAKPOINT_MERGE_TOL
    s_points = [t_hat.breakpoints]
    for tau in f.breakpoints:
        hit = rising & (v0 - BREAKPOINT_MERGE_TOL < tau) & (tau < v1 + BREAKPOINT_MERGE_TOL)
        if np.any(hit):
            s_points.append(s0[hit] + (tau - v0[hit]) / m_all[hit])
    ss = merge_breakpoints(*s_points)

    taus = np.clip(t_hat.eval_many(ss)[:, 0], f.a, f.b)
    f_left, f_val, f_right = f.limits_many(taus)
    # slope of t_hat on the segment just left / right of each curve point
    kL = np.clip(np.searchsorted(t_hat.breakpoints, ss - 1e-13) - 1, 0, m_all.size - 1)
    kR = np.clip(np.searchsorted(t_hat.breakpoints, ss + 1e-13) - 1, 0, m_all.size - 1)
    left = np.where((m_all[kL] > BREAKPOINT_MERGE_TOL)[:, None], f_left, f_val)
    right = np.where((m_all[kR] > BREAKPOINT_MERGE_TOL)[:, None], f_right, f_val)
    left[0] = f_val[0]
    right[-1] = f_val[-1]
    return PiecewisePath(ss, left, f_val, right)


# ---------------------------------------------------------------------------
# distances and convergence diagnostics
# ---------------------------------------------------------------------------


def _l1_segment(a_vec: np.ndarray, b_vec: np.ndarray, length: float) -> float:
    """Integral of || (1-u)a + u b || * length for u in [0,1], in closed form."""
    d = b_vec - a_vec
    nd = float(np.linalg.norm(d))
    if nd < 1e-15:
        return float(np.linalg.norm(a_vec)) * length

    # ||a + u d||, parametrize w = u + <a,d>/||d||^2
    def antider(u: float) -> float:
        w = u + float(np.dot(a_vec, d)) / nd**2
        c2 = float(np.dot(a_vec, a_vec)) / nd**2 - (float(np.dot(a_vec, d)) / nd**2) ** 2
        c2 = max(c2, 0.0)
        if c2 < 1e-30:
            return 0.5 * w * abs(w)
        r = math.sqrt(w * w + c2)
        return 0.5 * (w * r + c2 * math.asinh(w / math.sqrt(c2)))

    return nd * (antider(1.0) - antider(0.0)) * length


def l1_distance(f: PiecewisePath, g: PiecewisePath) -> float:
    """Exact L1 distance between two paths on their shared domain."""
    diff = path_difference(f, g)
    total = 0.0
    for k in range(diff.n_segments):
        length = float(diff.breakpoints[k + 1] - diff.breakpoints[k])
        total += _l1_segment(diff.right[k], diff.left[k + 1], length)
    return total


def sup_distance(f: PiecewisePath, g: PiecewisePath, grid: Iterable[float]) -> float:
    """Max pointwise distance over the grid plus all breakpoints of both paths."""
    pts = merge_breakpoints(grid, f.breakpoints, g.breakpoints)
    return max(float(np.linalg.norm(f(t) - g(t))) for t in pts)


@dataclass(frozen=True)
class ConvergenceDiagnostics:
    """Per-element distances of a path sequence to its limit, plus a verdict."""

    sup_dists: tuple[float, ...]
    l1_dists: tuple[float, ...]
    var_gaps: tuple[float, ...]
    classification: str  # "intermediate", "weak*", "pointwise", or "divergent"


def _converging(vals: Sequence[float], tol: float, decay: float) -> bool:
    if vals[-1] <= tol:
        return True
    return len(vals) > 1 and vals[-1] <= decay * vals[0]


def convergence_diagnostics(
    seq: Sequence[PiecewisePath],
    limit: PiecewisePath,
    sample_grid: Iterable[float],
    tol: float = 1e-9,
    decay: float = 0.5,
) -> ConvergenceDiagnostics:
    """Classify how a sequence of paths approaches a limit path.

    Pointwise distances are exact on the grid plus every breakpoint of every
    path involved; the L1 distance and variation gap are exact segmentwise.
    """
    if len(seq) == 0:
        raise PreconditionError("empty path sequence")
    sup_d, l1_d, var_g = [], [], []
    var_lim = total_variation(limit)
    for f in seq:
        sup_d.append(sup_distance(f, limit, sample_grid))
        l1_d.append(l1_distance(f, limit))
        var_g.append(abs(total_variation(f) - var_lim))
    pointwise = _converging(sup_d, tol, decay)
    weak = pointwise and _converging(l1_d, tol, decay)
    inter = weak and _converging(var_g, tol, decay)
    if inter:
        cls = "intermediate"
    elif weak:
        cls = "weak*"
    elif pointwise:
        cls = "pointwise"
    else:
        cls = "divergent"
    return ConvergenceDiagnostics(tuple(sup_d), tuple(l1_d), tuple(var_g), cls)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def to_csv(f: PiecewisePath, fp) -> None:
    """One row per breakpoint: t, left_1..d, value_1..d, right_1..d."""
    own = isinstance(fp, (str, bytes))
    handle = open(fp, "w") if own else fp
    try:
        d = f.dim
        cols = (
            ["t"]
            + [f"left_{i+1}" for i in range(d)]
            + [f"value_{i+1}" for i in range(d)]
            + [f"right_{i+1}" for i in range(d)]
        )
        handle.write(",".join(cols) + "\n")
        for k in range(f.breakpoints.size):
            row = [f.breakpoints[k], *f.left[k], *f.values[k], *f.right[k]]
            handle.write(",".join(repr(float(x)) for x in row) + "\n")
    finally:
        if own:
            handle.close()


def from_csv(fp) -> PiecewisePath:
    own = isinstance(fp, (str, bytes))
    handle = open(fp) if own else fp
    try:
        header = handle.readline().strip().split(",")
        d, rem = divmod(len(header) - 1, 3)
        if rem != 0 or header[0] != "t":
            raise PreconditionError("malformed path CSV header")
        try:
            rows = [list(map(float, line.strip().split(","))) for line in handle if line.strip()]
        except ValueError:
            raise PreconditionError("path CSV fields must be numbers") from None
    finally:
        if own:
            handle.close()
    if not rows:
        raise PreconditionError("path CSV has no data rows")
    if any(len(row) != len(header) for row in rows):
        raise PreconditionError(f"every path CSV row needs {len(header)} fields")
    data = np.array(rows)
    return PiecewisePath(
        data[:, 0], data[:, 1 : 1 + d], data[:, 1 + d : 1 + 2 * d], data[:, 1 + 2 * d :]
    )


def path_to_string(f: PiecewisePath) -> str:
    buf = io.StringIO()
    to_csv(f, buf)
    return buf.getvalue()


def path_from_string(text: str) -> PiecewisePath:
    return from_csv(io.StringIO(text))
