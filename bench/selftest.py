"""Fast self-test of the benchmark's output checks and layer trace.

    python3 bench/selftest.py

Runs the negative controls and one small job of each workload, expects
their outputs to pass the checks, then tampers with them (an expected exit
code, a residual in a report, a value in a written CSV, the printed arc
length, the kernel's elastic distance) and expects the checks to flag each
change.  Last it traces a job and expects self times that add up to the root
spans and a wrapped name the program lacks to be reported as absent.
Prints one line per expectation and exits 1 if any fails.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys

import run  # pins the BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def expect(name: str, ok: bool, detail="") -> None:
    RESULTS.append((name, ok))
    print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f"  {detail}" if not ok and detail else ""))


def execute(job, out: str):
    return [run.run_command(argv) for argv in job.argvs(out)]


def set_residual(path: str, cid: str, delta: float) -> None:
    with open(path) as fh:
        report = json.load(fh)
    for cond in report["conditions"]:
        if cond["id"] == cid:
            cond["residual"] += delta
    with open(path, "w") as fh:
        json.dump(report, fh)


def shift_values(path: str, delta: float) -> None:
    t, left, values, right = workloads.read_path_csv(path)
    workloads.write_path_csv(path, t, left + delta, values + delta, right + delta)


def passes_then_flags(name: str, job, out: str, tampers) -> None:
    """The job's outputs pass the checks, and fail them after each tampering.

    A tampering is (what, edit, *undo): ``edit`` changes the files under
    ``out`` or returns changed outcomes; each starts from pristine outputs.
    """
    outcomes = execute(job, out)
    errs = job.check(out, outcomes)
    expect(f"{name}: outputs pass", not errs, errs)
    pristine = out + "-pristine"
    shutil.copytree(out, pristine)
    for what, edit, *undo in tampers:
        shutil.rmtree(out)
        shutil.copytree(pristine, out)
        try:
            flagged = job.check(out, edit(outcomes) or outcomes)
        finally:
            for fn in undo:
                fn()
        expect(f"{name}: tampered {what} is flagged", bool(flagged))


def main() -> int:
    work = run.WORK / f"selftest-{os.getpid()}"
    inputs = str(work / "inputs")
    os.makedirs(inputs, exist_ok=True)
    rng = np.random.default_rng(0)
    try:
        for wl in workloads.WORKLOADS:
            for i, job in enumerate(workloads.control_jobs(wl)):
                out = str(work / f"control-{wl}-{i}")
                outcomes = execute(job, out)
                expect(f"control {job.label}: pinned verdict", not job.check(out, outcomes))
                wrong = dataclasses.replace(job, commands=[
                    dataclasses.replace(c, expect_rc=0) for c in job.commands])
                expect(f"control {job.label}: other exit code is flagged", bool(wrong.check(out, outcomes)))

        out = str(work / "viscous")
        passes_then_flags("viscous", workloads.viscous_job("ce1", 16, 2e-3), out, [
            ("pbv residual", lambda o: set_residual(f"{out}/pbv/report.json", "complementarity", 1e-6)),
            ("z_hat.csv", lambda o: shift_values(f"{out}/z_hat.csv", 0.1)),
        ])

        out = str(work / "local")
        job = workloads.local_job(rng, f"{inputs}/local", 2, 8, 2)
        passes_then_flags("local", job, out, [
            ("local residual", lambda o: set_residual(f"{out}/local/report.json", "energy_inequality", 1e-6)),
            ("construct S", lambda o: o[:-1] + [dataclasses.replace(
                o[-1], stdout=o[-1].stdout.replace("S = ", "S = 1"))]),
        ])

        from rislab.kernels import Dissipation

        exact = Dissipation.dist_to_elastic

        def skew_kernel(outcomes):
            Dissipation.dist_to_elastic = lambda self, w: exact(self, w) + 1e-2

        def restore_kernel():
            Dissipation.dist_to_elastic = exact

        for d, m, steps in ((2, 8, 12), (3, 6, 6)):
            out = str(work / f"polyhedral-{d}")
            job = workloads.polyhedral_job(rng, f"{inputs}/poly-{d}", d, m, steps)
            passes_then_flags(f"polyhedral d={d}", job, out, [
                ("relaxed residual", lambda o: set_residual(f"{out}/relaxed/report.json", "normalization", 1e-6)),
                ("elastic distance", skew_kernel, restore_kernel),
            ])

        tracer = spans.LayerTrace()
        spans.LAYERS["paths"] += ("no_such_function",)
        try:
            tracer.install()
            job = workloads.local_job(rng, f"{inputs}/traced", 2, 8, 0)
            execute(job, str(work / "traced"))
        finally:
            tracer.uninstall()
            spans.LAYERS["paths"] = spans.LAYERS["paths"][:-1]
        tracer.end_job()
        metrics = tracer.metrics()
        expect("trace: self times add up to the root spans", tracer.worst_additivity <= 1e-6,
               tracer.worst_additivity)
        expect("trace: every span under a cli.main root", tracer.orphans == 0)
        expect("trace: check_local was traced", metrics["checkers.check_local.calls"][0] >= 1)
        expect("trace: a missing name is reported absent", tracer.absent == ["paths.no_such_function"],
               tracer.absent)
        expect("trace: wrappers removed", not hasattr(Dissipation.prox, "__wrapped__"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    failed = [name for name, ok in RESULTS if not ok]
    print(f"selftest: {len(RESULTS) - len(failed)}/{len(RESULTS)} ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
