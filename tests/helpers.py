"""Shared random generators for the test suite.

Random problems and candidate solutions are built by reverse engineering:
pick the state path first, then choose a load that makes it an exact solution
(or an exact violator), so expected checker outcomes are known by design.
"""

from __future__ import annotations

import numpy as np

from rislab import (
    Dissipation,
    EnergyModel,
    LipschitzPath,
    ParametrizedTuple,
    PiecewisePath,
    RISProblem,
    compose_monotone,
    increasing_set,
    make_energy,
    merge_breakpoints,
    path_difference,
    polyhedral,
    scaled_norm,
    weighted_l1,
)


def random_spd(rng: np.random.Generator, d: int) -> np.ndarray:
    Q = rng.normal(size=(d, d))
    return Q @ Q.T + d * np.eye(d)


KERNEL_KINDS = ("scaled_norm", "weighted_l1", "polyhedral")


def random_kernel(rng: np.random.Generator, d: int, kind: str | None = None) -> Dissipation:
    """A random kernel of the given kind (default: a random kind)."""
    if kind is None:
        kind = rng.choice(list(KERNEL_KINDS))
    if kind == "scaled_norm":
        return scaled_norm(float(rng.uniform(0.3, 2.0)))
    if kind == "weighted_l1":
        return weighted_l1(rng.uniform(0.3, 2.0, size=d))
    if d == 1:
        return polyhedral([[-float(rng.uniform(0.5, 2.0))], [float(rng.uniform(0.5, 2.0))]])
    if d == 2:
        m = int(rng.integers(3, 7))
        ang = np.sort(rng.uniform(0.0, 2 * np.pi, size=m))
        radii = rng.uniform(0.5, 2.0, size=m)
        verts = np.column_stack([radii * np.cos(ang), radii * np.sin(ang)])
    else:
        m = int(rng.integers(d + 1, d + 4))
        verts = rng.normal(size=(m, d))
        verts *= (rng.uniform(0.5, 2.0, size=m) / np.linalg.norm(verts, axis=1))[:, None]
    # symmetrizing the vertex set keeps 0 in the interior of the hull
    return polyhedral(np.vstack([verts, -verts]))


def random_breakpoints(rng: np.random.Generator, a: float, b: float, k: int) -> np.ndarray:
    inner = np.sort(rng.uniform(a, b, size=k))
    return np.concatenate([[a], inner, [b]])


def random_continuous_path(
    rng: np.random.Generator, d: int, a: float = 0.0, b: float = 1.0, k: int = 4
) -> PiecewisePath:
    ts = random_breakpoints(rng, a, b, k)
    ys = rng.normal(size=(ts.size, d))
    return PiecewisePath.from_samples(ts, ys)


def random_bv_path(
    rng: np.random.Generator, d: int, a: float = 0.0, b: float = 1.0, k: int = 4
) -> PiecewisePath:
    ts = random_breakpoints(rng, a, b, k)
    vals = rng.normal(size=(ts.size, d))
    left = vals + rng.normal(scale=0.5, size=vals.shape) * (rng.random(size=(ts.size, 1)) < 0.4)
    right = vals + rng.normal(scale=0.5, size=vals.shape) * (rng.random(size=(ts.size, 1)) < 0.4)
    left[0] = vals[0]
    right[-1] = vals[-1]
    return PiecewisePath.from_nodes(ts, left, vals, right)


def random_tuple_and_problem(rng: np.random.Generator, d: int = 2):
    """A well-formed (not necessarily valid) tuple plus a matching problem."""
    S = float(rng.uniform(1.0, 3.0))
    T = float(rng.uniform(1.0, 2.0))
    ss = random_breakpoints(rng, 0.0, S, int(rng.integers(2, 5)))
    t_vals = np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 1.0, size=ss.size - 1))])
    t_vals = t_vals * (T / t_vals[-1])
    t_hat = LipschitzPath.from_samples(ss, t_vals[:, None])
    z_hat = LipschitzPath.from_samples(ss, rng.normal(size=(ss.size, d)))
    ell_hat = random_bv_path(rng, d, 0.0, S, int(rng.integers(1, 4)))
    tup = ParametrizedTuple(S=S, t_hat=t_hat, z_hat=z_hat, ell_hat=ell_hat)

    A = random_spd(rng, d)
    energy = make_energy(A, {"kind": "linear", "b": rng.normal(size=d)})
    R = random_kernel(rng, d)
    load = random_bv_path(rng, d, 0.0, T, 2)
    z0 = z_hat.values[0]
    # force the start state into the stable set by matching the load there
    ell0 = energy.grad(z0)
    load = PiecewisePath.from_nodes(
        load.breakpoints,
        np.vstack([ell0, load.left[1:]]),
        np.vstack([ell0, load.values[1:]]),
        np.vstack([ell0, load.right[1:]]),
    )
    problem = RISProblem(
        energy=energy, R=R, load=load, z0=z0, ell0=ell0, T=T, stability_tol=1e-6
    )
    return tup, problem


def random_local_solution(rng: np.random.Generator, d: int):
    """Exact continuous local (indeed differential) solution and its problem.

    The state path is chosen first; on moving segments the load is set to
    grad E(z) + alpha * zdot/||zdot||, which places -D_z I exactly on the
    boundary of the elastic set in the direction of motion, and on plateaus
    the load equals grad E(z), putting the driving force at zero.
    """
    T = float(rng.uniform(1.0, 2.0))
    alpha = float(rng.uniform(0.5, 2.0))
    R = scaled_norm(alpha)
    A = random_spd(rng, d)
    b = rng.normal(size=d)
    energy = make_energy(A, {"kind": "linear", "b": b})

    k = int(rng.integers(2, 5))
    ts = random_breakpoints(rng, 0.0, T, k)
    zs = [rng.normal(size=d)]
    for _ in range(ts.size - 1):
        if rng.random() < 0.35:
            zs.append(zs[-1])  # plateau segment
        else:
            zs.append(zs[-1] + rng.normal(scale=0.5, size=d))
    zs = np.array(zs)
    z = PiecewisePath.from_samples(ts, zs)

    # segmentwise load: grad E(z) plus a constant subgradient of R at zdot
    left, vals, right = [], [], []
    etas = []
    for seg in range(z.n_segments):
        slope = z.segment_slope(seg)
        ns = np.linalg.norm(slope)
        etas.append(alpha * slope / ns if ns > 1e-12 else np.zeros(d))
    for i, t in enumerate(ts):
        g = energy.grad(zs[i])
        lv = g + etas[i - 1] if i > 0 else g + etas[0]
        rv = g + etas[i] if i < len(etas) else g + etas[-1]
        left.append(lv)
        vals.append(rv)
        right.append(rv)
    left[0] = vals[0]
    right[-1] = vals[-1]
    load = PiecewisePath.from_nodes(ts, left, vals, right)
    problem = RISProblem(
        energy=energy,
        R=R,
        load=load,
        z0=zs[0],
        ell0=load(0.0),
        T=T,
        stability_tol=1e-9,
    )
    return z, problem


def with_drift_and_jumps(rng: np.random.Generator, z: PiecewisePath) -> PiecewisePath:
    """A BV copy of z that no longer balances its energy.

    Adds a random linear drift (so no segment stays constant) and, at two
    interior nodes, a moved point value plus a constant shift of the rest of
    the path.  The drift keeps the worst pair of the energy inequality from
    being tied to rounding along a plateau.
    """
    drift = rng.normal(scale=0.3, size=z.dim) * z.breakpoints[:, None]
    left, vals, right = z.left + drift, z.values + drift, z.right + drift
    n = z.breakpoints.size
    for k in rng.choice(np.arange(1, n - 1), size=min(2, n - 2), replace=False):
        shift = rng.normal(scale=0.3, size=z.dim)
        vals[k] += rng.normal(scale=0.3, size=z.dim)
        right[k:] += shift
        left[k + 1 :] += shift
        vals[k + 1 :] += shift
    return PiecewisePath.from_nodes(z.breakpoints, left, vals, right)


# ---------------------------------------------------------------------------
# loop-based reference for the load conditions
# ---------------------------------------------------------------------------
# A per-segment, per-breakpoint transcription of load compatibility and load
# match, kept independent of the array scan in ``rislab.checkers``.


def _reference_plateau_intervals(t_hat, slope_tol: float = 1e-12) -> list[tuple[float, float]]:
    """Maximal intervals on which t_hat is constant."""
    out: list[list[float]] = []
    for k in range(t_hat.n_segments):
        if t_hat.segment_slope(k)[0] <= slope_tol:
            lo, hi = float(t_hat.breakpoints[k]), float(t_hat.breakpoints[k + 1])
            if out and abs(out[-1][1] - lo) <= 1e-14:
                out[-1][1] = hi
            else:
                out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def _reference_sup_dev_open(path, lo: float, hi: float, target: np.ndarray) -> float:
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


def _reference_one_sided_loads(load, t_star: float, T: float):
    """Left/right load limits with the 0- := 0 and T+ := T conventions."""
    lminus = load(0.0) if t_star <= 1e-14 else load.left_limit(t_star)
    lplus = load(T) if t_star >= T - 1e-14 else load.right_limit(t_star)
    return lminus, lplus


def _reference_set_dist(v, candidates) -> float:
    return min(float(np.linalg.norm(v - c)) for c in candidates)


def reference_load_compatibility(tup, problem):
    """(residual, witness) of load compatibility, one segment/breakpoint at a time."""
    load = problem.load
    t_hat, ell_hat = tup.t_hat, tup.ell_hat
    worst, wit = 0.0, None

    plateaus = _reference_plateau_intervals(t_hat)

    def in_plateau(s: float) -> bool:
        return any(lo - 1e-14 <= s <= hi + 1e-14 for lo, hi in plateaus)

    comp = compose_monotone(load, t_hat)
    diff = path_difference(ell_hat, comp)
    for k in range(diff.n_segments):
        lo, hi = float(diff.breakpoints[k]), float(diff.breakpoints[k + 1])
        mid = 0.5 * (lo + hi)
        if in_plateau(mid):
            continue
        r = max(
            float(np.linalg.norm(diff.right[k])),
            float(np.linalg.norm(diff.left[k + 1])),
        )
        if r > worst:
            worst, wit = r, {"interval": (lo, hi)}
    for k, s in enumerate(diff.breakpoints):
        s = float(s)
        if in_plateau(s):
            continue
        t_star = float(np.clip(t_hat(s)[0], 0.0, problem.T))
        lminus, lplus = _reference_one_sided_loads(load, t_star, problem.T)
        r = _reference_set_dist(ell_hat(s), [load(t_star), lminus, lplus])
        if r > worst:
            worst, wit = r, {"s": s}

    for lo, hi in plateaus:
        t_star = float(np.clip(t_hat(0.5 * (lo + hi))[0], 0.0, problem.T))
        lminus, lplus = _reference_one_sided_loads(load, t_star, problem.T)
        allowed = [load(t_star), lminus, lplus]
        cands = sorted(
            {lo, hi}
            | {float(s) for s in ell_hat.breakpoints if lo - 1e-14 <= s <= hi + 1e-14}
            | set(np.linspace(lo, hi, 129))
        )
        best_v = np.inf
        for s_star in cands:
            v = max(
                _reference_sup_dev_open(ell_hat, lo, s_star, lminus),
                _reference_sup_dev_open(ell_hat, s_star, hi, lplus),
                _reference_set_dist(ell_hat(s_star), allowed),
            )
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


def reference_load_match(tup, problem):
    """(residual, witness) of load match on the increasing set, segment by segment."""
    comp = compose_monotone(problem.load, tup.t_hat)
    diff = path_difference(tup.ell_hat, comp)
    M = increasing_set(tup.t_hat)
    worst, wit = 0.0, None
    for k in range(diff.n_segments):
        lo, hi = float(diff.breakpoints[k]), float(diff.breakpoints[k + 1])
        mid = 0.5 * (lo + hi)
        if not M.contains(mid):
            continue
        r = max(
            float(np.linalg.norm(diff.right[k])),
            float(np.linalg.norm(diff.left[k + 1])),
        )
        if r > worst:
            worst, wit = r, {"interval": (lo, hi)}
    return worst, wit


# ---------------------------------------------------------------------------
# pair-loop reference for the energy inequality of local solutions
# ---------------------------------------------------------------------------
# The O(P^2 K) transcription: every (t1, t2) pair of the physical grid gets
# its dissipation and Stieltjes integral recomputed segment by segment and
# jump by jump, independent of the per-gap kernels and the prefix scan in
# ``rislab``.

_MERGE_TOL = 1e-12


def _reference_increment_sum(f, a: float, b: float, cost) -> float:
    """Sum of cost(slope)*len over segments plus cost(jump increments) at nodes."""
    a, b = max(a, f.a), min(b, f.b)
    if b - a <= _MERGE_TOL:
        return 0.0
    total = 0.0
    bp = f.breakpoints
    for k in range(f.n_segments):
        lo, hi = max(bp[k], a), min(bp[k + 1], b)
        if hi - lo > 0:
            total += cost(f.segment_slope(k)) * (hi - lo)
    for k, t in enumerate(bp):
        if t < a - _MERGE_TOL or t > b + _MERGE_TOL:
            continue
        if abs(t - a) > _MERGE_TOL:
            total += cost(f.values[k] - f.left[k])
        if abs(t - b) > _MERGE_TOL:
            total += cost(f.right[k] - f.values[k])
    return total


def reference_dissipation(R, z, t1: float, t2: float) -> float:
    return _reference_increment_sum(z, t1, t2, lambda v: float(R(v)))


def reference_kurzweil_stieltjes(z, ell, t1: float, t2: float) -> float:
    """Integral of z against dl over [t1, t2], one segment and one jump at a time."""
    t1, t2 = max(t1, ell.a), min(t2, ell.b)
    if t2 - t1 <= _MERGE_TOL:
        return 0.0
    ts = merge_breakpoints(z.breakpoints, ell.breakpoints, [t1, t2])
    ts = ts[(ts >= t1 - _MERGE_TOL) & (ts <= t2 + _MERGE_TOL)]
    total = 0.0
    for lo, hi in zip(ts[:-1], ts[1:]):
        ql = (ell.left_limit(hi) - ell.right_limit(lo)) / (hi - lo)
        mid = 0.5 * (z.right_limit(lo) + z.left_limit(hi))
        total += (hi - lo) * float(np.dot(mid, ql))
    for k, t in enumerate(ell.breakpoints):
        if t < t1 - _MERGE_TOL or t > t2 + _MERGE_TOL:
            continue
        if abs(t - t1) <= _MERGE_TOL:
            inc, zt = ell.right[k] - ell.values[k], z(t1)
        elif abs(t - t2) <= _MERGE_TOL:
            inc, zt = ell.values[k] - ell.left[k], z(t2)
        else:
            inc, zt = ell.right[k] - ell.left[k], z(t)
        total += float(np.dot(zt, inc))
    return total


def reference_energy_inequality(z, problem, grid=None):
    """(residual, witness) of the energy inequality, one (t1, t2) pair at a time."""
    base = grid if grid is not None else np.linspace(0.0, problem.T, 17)
    pts = merge_breakpoints(base, z.breakpoints, problem.load.breakpoints)
    worst, wit = 0.0, None
    for i, t1 in enumerate(pts):
        for t2 in pts[i:]:
            gap = (
                problem.value_I(t2, z(t2))
                + reference_dissipation(problem.R, z, t1, t2)
                - problem.value_I(t1, z(t1))
                + reference_kurzweil_stieltjes(z, problem.load, t1, t2)
            )
            if gap > worst:
                worst, wit = gap, {"t1": float(t1), "t2": float(t2)}
    return max(worst, 0.0), wit
