"""Outside-in layer trace: spans around the public functions of each module.

``LayerTrace.install`` replaces each named function of the ``rislab``
modules by a wrapper that records a span (name, start, end, parent, job id)
and puts the original back on ``uninstall``.  Module-level functions are
replaced wherever a ``rislab`` module holds them (``from .paths import
dissipation`` binds a second name), methods on their class.  A name the
program no longer has is reported as absent instead of failing the run.

Self time is a span's duration minus the time its child spans cover, so the
self times of one job add up to the duration of its root spans (the
``cli.main`` calls).  Spans are aggregated and dropped at the end of each job.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict

import numpy as np

ROOT = "cli.main"

# module -> public functions and methods wrapped by the traced run.  Scalar
# accessors (PiecewisePath.__call__/left_limit/right_limit, Dissipation.__call__)
# are left out: a wrapper would cost more than they do, so their time shows
# as their caller's self time.
LAYERS = {
    "cli": ("main",),
    "paths": (
        "to_csv", "from_csv", "dissipation", "kurzweil_stieltjes", "compose_monotone",
        "path_difference", "merge_breakpoints", "PiecewisePath.with_breakpoints",
        "PiecewisePath.limits_many",
    ),
    "kernels": (
        "Dissipation.prox", "Dissipation.dist_to_elastic", "Dissipation.dist_to_elastic_many",
        "Dissipation.dist_to_subdiff", "Dissipation.eval_many",
    ),
    "model": ("EnergyModel.grad", "EnergyModel.grad_many", "RISProblem.value_I"),
    "checkers": ("check_normalized_pbv", "check_relaxed", "check_local", "check_differential"),
    "construction": ("construct_relaxed_from_local", "build_parametrization", "build_load_hat"),
    "viscous": ("solve_viscous", "reparametrize"),
}


def _rows(args, result):
    return int(np.shape(args[1])[0]) if np.ndim(args[1]) > 1 else 1


def _steps(args, result):
    return int(result.time_grid.size - 1)


def _segments(args, result):
    return int(args[0].n_segments)


def _tuple_breakpoints(args, result):
    tup = args[0]
    return int(max(tup.t_hat.breakpoints.size, tup.z_hat.breakpoints.size, tup.ell_hat.breakpoints.size))


# size recorded with a span, read from the call's arguments or result
SIZES = {
    "kernels.Dissipation.dist_to_elastic_many": _rows,
    "viscous.solve_viscous": _steps,
    "checkers.check_local": _segments,
    "checkers.check_normalized_pbv": _tuple_breakpoints,
    "checkers.check_relaxed": _tuple_breakpoints,
}

NAME, START, END, PARENT, JOB, SIZE = range(6)


def names() -> list[str]:
    return [f"{mod}.{qual}" for mod, quals in LAYERS.items() for qual in quals]


class LayerTrace:
    """Span recorder over the LAYERS functions of an imported rislab."""

    def __init__(self):
        self.job = None
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.sizes: dict[str, list[tuple[int, float]]] = defaultdict(list)
        self.prox_under_solve = 0
        self.jobs = 0
        self.orphans = 0  # spans outside any root span
        self.worst_additivity = 0.0  # |sum of self times - root durations| per job, s

    # -- patching -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size = SIZES.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.job, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if size is not None:
                    span[SIZE] = size(args, result)
                return result
            finally:
                span[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for mod_name, quals in LAYERS.items():
            module = sys.modules.get(f"rislab.{mod_name}")
            for qual in quals:
                name = f"{mod_name}.{qual}"
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                orig = vars(owner).get(attr) if owner is not None else None
                if orig is None:
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                if owner_name:
                    self._patch(owner, attr, orig, self._wrap(name, orig))
                    continue
                wrapper = self._wrap(name, orig)
                for mod in [m for n, m in sys.modules.items() if n.split(".")[0] == "rislab"]:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, orig, wrapper)

    def _patch(self, owner, attr: str, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- aggregation ----------------------------------------------------------

    def end_job(self) -> None:
        """Fold the finished job's spans into the totals and drop them."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                covered[span[PARENT]] += span[END] - span[START]
        own = []
        root_total = 0.0
        for i, span in enumerate(spans):
            name, dur = span[NAME], span[END] - span[START]
            self.calls[name] += 1
            self.self_s[name] += dur - covered[i]
            own.append(dur - covered[i])
            if span[PARENT] < 0:
                root_total += dur
                self.orphans += name != ROOT
            if span[SIZE] is not None:
                self.sizes[name].append((span[SIZE], dur))
            if name == "kernels.Dissipation.prox" and self._under(i, "viscous.solve_viscous"):
                self.prox_under_solve += 1
        self.worst_additivity = max(self.worst_additivity, abs(math.fsum(own) - root_total))
        self.jobs += 1
        spans.clear()

    def _under(self, i: int, ancestor: str) -> bool:
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] == ancestor:
                return True
            p = self.spans[p][PARENT]
        return False

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-job calls and self time of every wrapped name, plus derived counts."""
        jobs = max(self.jobs, 1)
        out = {}
        for name in names():
            out[f"{name}.calls"] = (self.calls.get(name, 0) / jobs, "count/job")
            out[f"{name}.self_s"] = (self.self_s.get(name, 0.0) / jobs, "s/job")
        solves = self.sizes.get("viscous.solve_viscous", [])
        steps = sum(n for n, _ in solves)
        rows = sum(n for n, _ in self.sizes.get("kernels.Dissipation.dist_to_elastic_many", []))
        tuples = self.sizes.get("checkers.check_normalized_pbv", []) + self.sizes.get("checkers.check_relaxed", [])
        out["viscous.steps"] = (steps / jobs, "count/job")
        out["viscous.inner_iters_per_step"] = (self.prox_under_solve / steps if steps else 0.0, "count/step")
        out["kernels.dist_rows"] = (rows / jobs, "count/job")
        out["checkers.tuple_breakpoints"] = (
            sum(n for n, _ in tuples) / len(tuples) if tuples else 0.0, "count/check")
        out["checkers.check_local.k_exponent"] = (
            loglog_slope(self.sizes.get("checkers.check_local", [])), "slope")
        out["viscous.solve_viscous.step_exponent"] = (loglog_slope(solves), "slope")
        return out


def loglog_slope(pairs) -> float:
    """Least-squares slope of log(time) against log(size); 0 without spread."""
    pairs = [(n, t) for n, t in pairs if n > 0 and t > 0]
    if len({n for n, _ in pairs}) < 2:
        return 0.0
    x = np.log([n for n, _ in pairs])
    y = np.log([t for _, t in pairs])
    return float(np.polyfit(x, y, 1)[0])
