"""Seeded inputs, expected outcomes and output checks for the three workloads.

Every workload is a list of rounds of jobs.  A job is a short sequence of `rislab`
command lines (solve, check, construct) that a user would type, each with the
exit code it must return, plus a verifier that reads the job's outputs and
returns the ways they are wrong.  Inputs are drawn from
``numpy.random.default_rng(seed)`` and written as JSON configs and path CSVs,
so the program sees nothing but argv and files.

Jobs come in rounds.  Every round holds one job per rung of each size ladder
(epsilon, K, vertex and step counts), paired and ordered by the seed, while
the seed draws the rest of the content (kernels, loads, states).  Each round
thus carries the same mix of small and large jobs, and a run that stops at a
round boundary measures the same size distribution on any seed.

Generation uses numpy and the standard library only.  The verifiers import
``rislab`` for the exact benchmark tuples, the kernels and the oracles.
"""

from __future__ import annotations

import ast
import json
import os
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

WORKLOADS = ("viscous", "local", "polyhedral")
POOL_ROUNDS = 8  # rounds of inputs generated per run; the timed loop cycles

# the program's default checker tolerance, used for the pinned verdicts
CHECK_TOL = 1e-8
# acceptance criterion 10: viscous tuples against the exact ones
VISCOUS_S_RANGE = (2.45, 2.55)
VISCOUS_SUP_ERR = 5e-2
# the two a.e. conditions a discrete viscous tuple only meets in the limit
VISCOUS_AE_BOUND = 0.1
# acceptance criterion 08: fast elastic distance against the duality oracle
ORACLE_REL_TOL = 1e-3
ORACLE_SAMPLES = 2
# the duality oracle sweeps 20000 directions, which resolves distances to
# 1e-3 only in the plane; in d = 3 an independent NNLS projection is used
HULL_NNLS_WEIGHT = 1e4
HULL_NNLS_TOL = 1e-6
# one tuple checked twice (in memory by solve, from its CSVs by check)
SAME_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class Command:
    kind: str  # "solve" | "check" | "construct"
    argv: tuple[str, ...]
    expect_rc: int


@dataclass(frozen=True)
class Outcome:
    rc: int
    seconds: float
    stdout: str
    stderr: str


@dataclass
class Job:
    """One user job: its command lines and the verifier of their outputs.

    ``{out}`` in an argument stands for the output directory of one run of
    the job, so an input can be run more than once.
    """

    workload: str
    label: str
    commands: list[Command]
    verify: Callable[[str, list[Outcome]], list[str]]

    def argvs(self, out: str) -> list[list[str]]:
        return [[a.replace("{out}", out) for a in c.argv] for c in self.commands]

    def check(self, out: str, outcomes: list[Outcome]) -> list[str]:
        """Every way the outputs miss their expected outcome (empty if none)."""
        errs = []
        for cmd, res in zip(self.commands, outcomes):
            if res.rc != cmd.expect_rc:
                last = (res.stderr.strip().splitlines() or [""])[-1]
                errs.append(f"{cmd.argv[0]}: exit {res.rc}, expected {cmd.expect_rc}: {last}")
        if errs:
            return errs
        try:
            return self.verify(out, outcomes)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]


def _num(x: float) -> str:
    return repr(float(x))


def write_path_csv(path: str, ts, left, values, right) -> None:
    """The program's path CSV format: t, left_1..d, value_1..d, right_1..d."""
    d = np.shape(values)[1]
    cols = ["t"] + [f"{p}_{i + 1}" for p in ("left", "value", "right") for i in range(d)]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for k, t in enumerate(ts):
            row = [t, *left[k], *values[k], *right[k]]
            fh.write(",".join(_num(x) for x in row) + "\n")


def read_path_csv(path: str):
    """(breakpoints, left, values, right) of a path CSV, read with numpy only."""
    with open(path) as fh:
        d = (len(fh.readline().split(",")) - 1) // 3
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1 : 1 + d], data[:, 1 + d : 1 + 2 * d], data[:, 1 + 2 * d :]


def _report(out: str, *parts: str) -> dict:
    with open(os.path.join(out, *parts, "report.json")) as fh:
        return json.load(fh)


def _residuals(report: dict) -> dict[str, float]:
    return {c["id"]: float(c["residual"]) for c in report["conditions"]}


def _same_residuals(a: dict, b: dict, what: str) -> list[str]:
    """Both reports carry the same residuals on the conditions they share."""
    a, b = _residuals(a), _residuals(b)
    return [
        f"{what}: {cid} residual {a[cid]!r} vs {b[cid]!r}"
        for cid in sorted(a.keys() & b.keys())
        if abs(a[cid] - b[cid]) > SAME_RESIDUAL_TOL * max(1.0, abs(a[cid]))
    ]


def _random_spd(rng: np.random.Generator, d: int, lo: float, hi: float) -> np.ndarray:
    """Randomly rotated SPD matrix with eigenvalues spread evenly over [lo, hi]."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return (q * np.linspace(lo, hi, d)) @ q.T


def _config(path: str, A, b, dissipation: dict, load: dict, z0, ell0, T: float) -> None:
    cfg = {
        "energy": {"A": np.asarray(A).tolist(), "f": {"kind": "linear", "b": list(map(float, b))}},
        "dissipation": dissipation,
        "load": load,
        "z0": list(map(float, z0)),
        "ell0": list(map(float, ell0)),
        "T": float(T),
    }
    with open(path, "w") as fh:
        json.dump(cfg, fh)


# ---------------------------------------------------------------------------
# viscous: built-in ramp benchmarks, fine viscous solves, parametrized checks
# ---------------------------------------------------------------------------


# One job per rung in every round: the tercile midpoints of [1e-3, 2e-3] on a
# log scale (solve takes 2/step = 20/epsilon steps).  An odd number of rungs
# keeps a run's median job inside the middle rung instead of between two.
VISCOUS_EPSILONS = tuple(1e-3 * 2.0 ** ((j + 0.5) / 3) for j in range(3))
VISCOUS_NS = (2, 4, 8, 16)


def _scaled_sup_err(s_num, y_num, s_ref, y_ref, m: int = 2001) -> float:
    """Sup distance of two continuous scalar paths after matching their ranges."""
    us = np.linspace(0.0, 1.0, m)
    a = np.interp(us * s_num[-1], s_num, y_num)
    b = np.interp(us * s_ref[-1], s_ref, y_ref)
    return float(np.max(np.abs(a - b)))


def _verify_viscous(problem: str, n: int, out: str, outcomes: list[Outcome]) -> list[str]:
    from rislab import experiments

    solve, pbv, relaxed = _report(out), _report(out, "pbv"), _report(out, "relaxed")
    errs = _same_residuals(solve, relaxed, "solve vs check relaxed")
    errs += _same_residuals(relaxed, pbv, "check relaxed vs check pbv")
    # a discrete tuple meets everything but the two a.e. conditions, which
    # hold only in the limit of vanishing viscosity
    for rep in (pbv, relaxed):
        if rep["overall"] != "fail":
            errs.append(f"{rep['concept']}: discrete tuple passes at tol {CHECK_TOL}")
        for cid, r in _residuals(rep).items():
            bound = VISCOUS_AE_BOUND if cid in ("complementarity", "normalization") else CHECK_TOL
            if not r <= bound:
                errs.append(f"{rep['concept']}.{cid} residual {r:.3e} > {bound:g}")

    s_t, t_v, _, _ = read_path_csv(os.path.join(out, "t_hat.csv"))
    s_z, z_v, _, _ = read_path_csv(os.path.join(out, "z_hat.csv"))
    S = float(s_t[-1])
    if not VISCOUS_S_RANGE[0] <= S <= VISCOUS_S_RANGE[1]:
        errs.append(f"S = {S} outside {VISCOUS_S_RANGE}")
    printed = re.search(r"^S = (\S+)$", outcomes[0].stdout, re.M)
    if printed is None or abs(float(printed.group(1)) - S) > 1e-6:
        errs.append("printed S differs from t_hat.csv")
    family = experiments.counterexample1 if problem == "ce1" else experiments.counterexample2
    exact = family(n)[1]
    s_ref = exact.t_hat.breakpoints
    err_t = _scaled_sup_err(s_t, t_v[:, 0], s_ref, exact.t_hat.values[:, 0])
    err_z = _scaled_sup_err(s_z, z_v[:, 0], s_ref, exact.z_hat.values[:, 0])
    if not (err_t <= VISCOUS_SUP_ERR and err_z <= VISCOUS_SUP_ERR):
        errs.append(f"sup errors (z, t) = ({err_z:.3e}, {err_t:.3e}) > {VISCOUS_SUP_ERR}")
    return errs


def viscous_job(problem: str, n: int, eps: float) -> Job:
    """solve --step eps/10, then check the written tuple (pbv and relaxed)."""
    base = ("--problem", problem, "--n", str(n))
    tup = ("--tuple-dir", "{out}")
    commands = [
        Command("solve", ("solve", *base, "--epsilon", _num(eps), "--step", _num(eps / 10), "--out", "{out}"), 0),
        Command("check", ("check", *base, *tup, "--concept", "pbv", "--out", "{out}/pbv"), 1),
        Command("check", ("check", *base, *tup, "--concept", "relaxed", "--out", "{out}/relaxed"), 1),
    ]
    return Job("viscous", f"{problem} n={n} eps={eps:.4e}", commands, partial(_verify_viscous, problem, n))


def viscous_round(rng: np.random.Generator) -> list[Job]:
    """One job per epsilon rung: ce1, ce2 and either, with distinct n from [2, 16]."""
    problems = rng.permutation(["ce1", "ce2", rng.choice(["ce1", "ce2"])])
    ns = rng.choice(VISCOUS_NS, size=len(VISCOUS_EPSILONS), replace=False)
    pairs = zip(problems, ns, rng.permutation(VISCOUS_EPSILONS))
    return [viscous_job(str(p), int(n), float(eps)) for p, n, eps in pairs]


# ---------------------------------------------------------------------------
# local: reverse-engineered BV local solutions, local/differential checks,
# jump-transition construction
# ---------------------------------------------------------------------------


def local_candidate(rng: np.random.Generator, d: int, K: int, n_jumps: int):
    """A BV local solution with K segments and n_jumps jumps, and its problem.

    The state is chosen first.  On a moving segment the load is
    grad E(z) + alpha * direction, which puts the driving force on the
    boundary of the elastic ball in the direction of motion; on a plateau it
    is grad E(z) + eta with |eta| < alpha.  A jump at a node takes the state
    from z- to z+ = z- + delta; the node keeps z- (and the pre-jump load) as
    its point value, the post-jump load is grad E(z+) + alpha * delta/|delta|
    and a plateau follows.  The jump then releases 1/2 <A delta, delta> more
    energy than it dissipates, so the energy inequality holds, and the
    driving force stays in the elastic ball on every segment.

    Returns (config dict without the load file, breakpoints, z nodes
    (left, values, right), load nodes (left, values, right), expected S,
    jump times).
    """
    T = float(rng.uniform(1.0, 2.0))
    alpha = float(rng.uniform(0.5, 2.0))
    A = _random_spd(rng, d, 1.0, 3.0)
    b = rng.normal(size=d)
    gaps = rng.uniform(0.5, 1.5, size=K)
    ts = np.concatenate([[0.0], np.cumsum(gaps)]) * (T / gaps.sum())
    ts[-1] = T
    jumps = set(int(j) for j in rng.choice(np.arange(1, K), size=n_jumps, replace=False))

    zl, zr = np.empty((K + 1, d)), np.empty((K + 1, d))
    eta = np.empty((K, d))
    zl[0] = zr[0] = rng.normal(size=d)
    variation = 0.0
    for k in range(K):
        step = np.zeros(d)
        if k in jumps:
            delta = rng.normal(scale=0.5, size=d)
            zr[k] = zl[k] + delta
            eta[k] = alpha * delta / np.linalg.norm(delta)
            variation += float(np.linalg.norm(delta))
        elif rng.random() < 0.3:
            u = rng.normal(size=d)
            eta[k] = u / np.linalg.norm(u) * rng.uniform(0.0, 0.5) * alpha
        else:
            step = rng.normal(scale=0.5, size=d)
            eta[k] = alpha * step / np.linalg.norm(step)
            variation += float(np.linalg.norm(step))
        zl[k + 1] = zr[k + 1] = zr[k] + step
    z_vals = zl.copy()

    grad_l, grad_r = zl @ A.T + b, zr @ A.T + b
    l_left, l_right = grad_l.copy(), grad_r.copy()
    l_left[1:] += eta
    l_right[:-1] += eta
    l_left[0] = l_right[0]
    l_right[-1] = l_left[-1]
    l_vals = l_left.copy()
    S = T + alpha * variation
    cfg = {"A": A, "b": b, "alpha": alpha, "z0": zl[0], "ell0": l_vals[0], "T": T}
    return cfg, ts, (zl, z_vals, zr), (l_left, l_vals, l_right), S, sorted(float(ts[j]) for j in jumps)


def _verify_local(continuous: bool, S: float, jump_times: list[float], out: str,
                  outcomes: list[Outcome]) -> list[str]:
    errs = []
    for concept in ("local", "differential") if continuous else ("local",):
        rep = _report(out, concept)
        worst = max(_residuals(rep).values())
        if rep["overall"] != "pass" or not worst <= CHECK_TOL:
            errs.append(f"check {concept}: overall {rep['overall']}, worst residual {worst:.3e}")
    text = outcomes[-1].stdout
    m = re.search(r"^S = (\S+), jumps at (\[.*\])$", text, re.M)
    if "overall: PASS" not in text or m is None:
        return errs + ["construct did not certify its tuple"]
    if abs(float(m.group(1)) - S) > 1e-6 * max(1.0, S):
        errs.append(f"construct S = {m.group(1)}, expected {S:.6f}")
    got = ast.literal_eval(m.group(2))
    if len(got) != len(jump_times) or any(abs(a - b) > 1e-12 for a, b in zip(got, jump_times)):
        errs.append(f"construct jumps at {got}, expected {jump_times}")
    return errs


# K segments, one job per rung in every round: the tercile midpoints of
# [16, 48] (an odd number of rungs, as for VISCOUS_EPSILONS)
LOCAL_KS = (21, 32, 43)


def local_job(rng: np.random.Generator, stem: str, d: int, K: int, n_jumps: int) -> Job:
    """Writes a seeded local solution; checks it (local, differential if
    continuous) and constructs the relaxed tuple from it."""
    cfg, ts, z_nodes, l_nodes, S, jump_times = local_candidate(rng, d, K, n_jumps)
    write_path_csv(stem + "-z.csv", ts, *z_nodes)
    write_path_csv(stem + "-load.csv", ts, *l_nodes)
    _config(stem + ".json", cfg["A"], cfg["b"], {"kind": "scaled_norm", "alpha": cfg["alpha"]},
            {"csv": stem + "-load.csv"}, cfg["z0"], cfg["ell0"], cfg["T"])
    base = ("--config", stem + ".json", "--solution", stem + "-z.csv")
    concepts = ("local", "differential") if n_jumps == 0 else ("local",)
    commands = [Command("check", ("check", *base, "--concept", c, "--out", "{out}/" + c), 0) for c in concepts]
    commands.append(Command("construct", ("construct", *base), 0))
    return Job("local", f"d={d} K={K} jumps={n_jumps}", commands,
               partial(_verify_local, n_jumps == 0, S, jump_times))


def local_round(rng: np.random.Generator, input_dir: str, r: int) -> list[Job]:
    """One job per K rung, each in d = 1 or 2 and continuous or with 2-8 jumps."""
    jobs = []
    for k, K in enumerate(rng.permutation(LOCAL_KS)):
        d = int(rng.integers(1, 3))
        n_jumps = int(rng.integers(2, 9)) if rng.random() < 0.5 else 0
        jobs.append(local_job(rng, os.path.join(input_dir, f"local-{r}-{k}"), d, int(K), n_jumps))
    return jobs


# ---------------------------------------------------------------------------
# polyhedral: symmetric polyhedral kernels in d = 2, 3, coarse viscous solves
# ---------------------------------------------------------------------------


def polyhedral_vertices(rng: np.random.Generator, d: int, m: int) -> np.ndarray:
    """m vertices +-g_i of a centrally symmetric polytope around 0."""
    if d == 2:
        ang = (np.arange(m // 2) + rng.uniform(0.2, 0.8, size=m // 2)) * (np.pi / (m // 2))
        g = np.column_stack([np.cos(ang), np.sin(ang)])
    else:
        g = rng.normal(size=(m // 2, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
    g *= rng.uniform(0.9, 1.1, size=(m // 2, 1))
    return np.vstack([g, -g])


def hull_distance_nnls(verts: np.ndarray, eta: np.ndarray) -> float:
    """Distance of eta to conv(verts) from a nonnegative least-squares fit.

    The convex weights solve min |V^T lam - eta| over lam >= 0 with the
    sum-to-one constraint added as a heavily weighted row; no rislab code.
    """
    from scipy.optimize import nnls

    M = np.vstack([verts.T, np.full(len(verts), HULL_NNLS_WEIGHT)])
    lam, _ = nnls(M, np.append(eta, HULL_NNLS_WEIGHT))
    return float(np.linalg.norm(eta - verts.T @ lam))


def _verify_polyhedral(verts: np.ndarray, A: np.ndarray, b: np.ndarray, sample_seed: int,
                       out: str, outcomes: list[Outcome]) -> list[str]:
    from rislab import polyhedral
    from rislab.oracles import elastic_distance_by_duality

    solve, relaxed = _report(out), _report(out, "relaxed")
    errs = _same_residuals(solve, relaxed, "solve vs check relaxed")
    if relaxed["overall"] != "fail":
        errs.append(f"coarse discrete tuple passes at tol {CHECK_TOL}")
    s_z, z_v, _, _ = read_path_csv(os.path.join(out, "z_hat.csv"))
    s_l, l_left, _, l_right = read_path_csv(os.path.join(out, "ell_hat.csv"))
    # driving forces at segment midpoints of the parametrized load
    rng = np.random.default_rng(sample_seed)
    R = polyhedral(verts)
    for k in rng.choice(s_l.size - 1, size=min(ORACLE_SAMPLES, s_l.size - 1), replace=False):
        s = 0.5 * (s_l[k] + s_l[k + 1])
        ell = 0.5 * (l_right[k] + l_left[k + 1])
        z = np.array([np.interp(s, s_z, z_v[:, i]) for i in range(z_v.shape[1])])
        eta = ell - (A @ z + b)
        fast = R.dist_to_elastic(eta)
        if eta.size == 2:
            slow, tol = elastic_distance_by_duality(R, eta), ORACLE_REL_TOL
        else:
            slow, tol = hull_distance_nnls(verts, eta), HULL_NNLS_TOL
        if not abs(fast - slow) <= tol * max(1.0, abs(fast)):
            errs.append(f"elastic distance at s={s:.6g}: {fast!r} vs reference {slow!r}")
    return errs


# (d, vertices, steps) of the five jobs in every polyhedral round.  A prox
# call enumerates all vertex subsets of size <= d + 1, so the step counts
# fall as the vertex count grows; every count is a multiple of the load's
# segment count, so the time grid holds no extra load breakpoints.
POLYHEDRAL_ROUND = ((2, 8, 96), (2, 10, 48), (2, 12, 24), (3, 6, 12), (3, 8, 6))
POLYHEDRAL_EPSILON = 0.03
POLYHEDRAL_LOAD_SEGMENTS = 6


def polyhedral_job(rng: np.random.Generator, stem: str, d: int, m: int, n_steps: int) -> Job:
    """Writes a seeded polyhedral problem; solves it and checks the tuple."""
    verts = polyhedral_vertices(rng, d, m)
    A = _random_spd(rng, d, 1.0, 2.0)
    b = rng.normal(scale=0.2, size=d)
    # the load starts at grad E(0) = b, a zero driving force, then pushes
    # the state beyond the elastic set in a new random direction on each
    # segment, so that one job averages over many stick and slip phases
    n_seg = POLYHEDRAL_LOAD_SEGMENTS
    lt = np.linspace(0.0, 1.0, n_seg + 1)
    push = rng.normal(size=(n_seg, d))
    push *= 2.0 / np.linalg.norm(push, axis=1, keepdims=True)
    lv = b + np.vstack([np.zeros(d), push])
    write_path_csv(stem + "-load.csv", lt, lv, lv, lv)
    _config(stem + ".json", A, b, {"kind": "polyhedral", "vertices": verts.tolist()},
            {"csv": stem + "-load.csv"}, np.zeros(d), lv[0], 1.0)
    base = ("--config", stem + ".json")
    eps, step = _num(POLYHEDRAL_EPSILON), _num(1.0 / n_steps)
    commands = [
        Command("solve", ("solve", *base, "--epsilon", eps, "--step", step, "--out", "{out}"), 0),
        Command("check", ("check", *base, "--tuple-dir", "{out}", "--concept", "relaxed", "--out", "{out}/relaxed"), 1),
    ]
    return Job("polyhedral", f"d={d} m={m} steps={n_steps}", commands,
               partial(_verify_polyhedral, verts, A, b, int(rng.integers(2**31))))


def polyhedral_round(rng: np.random.Generator, input_dir: str, r: int) -> list[Job]:
    """Three planar kernels (8, 10, 12 vertices) and two in d = 3 (6, 8)."""
    return [
        polyhedral_job(rng, os.path.join(input_dir, f"poly-{r}-{k}"), *POLYHEDRAL_ROUND[k])
        for k in rng.permutation(len(POLYHEDRAL_ROUND))
    ]


# ---------------------------------------------------------------------------
# negative controls: pinned failing verdicts and residuals
# ---------------------------------------------------------------------------


def _verify_control(expect: dict, out: str, outcomes: list[Outcome]) -> list[str]:
    rep = _report(out)
    res = _residuals(rep)
    errs = []
    if "failed" in expect:
        failed = [c["id"] for c in rep["conditions"] if c["verdict"] == "fail"]
        if failed != expect["failed"]:
            errs.append(f"failing conditions {failed}, expected {expect['failed']}")
    for cid, (value, tol) in expect.get("residuals", {}).items():
        if not abs(res.get(cid, np.nan) - value) <= tol:
            errs.append(f"{cid} residual {res.get(cid)!r}, expected {value} +- {tol}")
    return errs


def control_jobs(workload: str) -> list[Job]:
    """Cheap built-in cases whose failing verdicts are pinned."""
    def check(*argv, expect):
        cmd = Command("check", ("check", *argv, "--out", "{out}"), 1)
        return Job("control", " ".join(argv), [cmd], partial(_verify_control, expect))

    if workload == "viscous":
        return [check("--problem", "ce1_limit", "--concept", "pbv", expect={"failed": ["load_compatibility"]})]
    if workload == "local":
        return [
            check("--problem", "ce2_limit", "--concept", "local",
                  expect={"failed": ["energy_inequality"], "residuals": {"energy_inequality": (0.125, 1e-10)}}),
            Job("control", "construct --problem ce2_limit",
                [Command("construct", ("construct", "--problem", "ce2_limit"), 2)], lambda out, o: []),
        ]
    return [check("--problem", "remark44", "--concept", "pbv",
                  expect={"residuals": {"normalization": (0.33541, 1e-5)}})]


def make_rounds(workload: str, seed: int, input_dir: str) -> list[list[Job]]:
    """The run's input pool: POOL_ROUNDS seeded rounds of jobs."""
    os.makedirs(input_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    if workload == "viscous":
        return [viscous_round(rng) for _ in range(POOL_ROUNDS)]
    if workload == "local":
        return [local_round(rng, input_dir, r) for r in range(POOL_ROUNDS)]
    return [polyhedral_round(rng, input_dir, r) for r in range(POOL_ROUNDS)]
