"""Benchmark: seeded batches of rislab CLI jobs, timed end to end.

    python3 bench/run.py --workload {viscous,local,polyhedral} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file.  The run

1. times ``import rislab`` plus generating the seeded inputs, in
   ``SETUP_SAMPLES`` fresh interpreters (``setup_s`` is their median);
2. runs the workload's pinned negative controls once;
3. drives whole rounds of jobs through ``rislab.cli.main(argv)`` in this one
   single-threaded process until ``--seconds`` of command time have passed,
   checking every job's outputs after it ends, off the clock, and timing a
   fixed calibration task between jobs;
4. prints a provenance line, a detail line and, last, one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are reported in reference seconds: the wall time scaled by how much
slower than ``CAL_REF_S`` the calibration task ran around the job or set-up,
which cancels most of the machine's slow phases.  The wall-time figures are
on the detail line.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
every job runs twice, untraced and then traced (see ``spans.py``), and the
metrics are the per-layer ones, per traced job.  Generated files live in
``.bench_work/`` of the checkout and are removed at exit.
"""

from __future__ import annotations

import os

# pin the BLAS pools before numpy loads, here and in the setup interpreters
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
# Seconds that calibrate() takes on the reference machine (a 2-core Intel Xeon
# VM with Python 3.11 and numpy 2.4, at its fastest).  Times are reported in
# reference seconds: wall seconds times CAL_REF_S over the calibration time
# measured around them (see README, "Noise").
CAL_REF_S = 0.02


def calibrate() -> float:
    """Wall seconds of a fixed interpreter-bound task that runs no rislab code.

    Like the program, it mixes Python arithmetic and small numpy calls, so a
    slow phase of the machine slows both alike.
    """
    v = np.linspace(0.0, 1.0, 8)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(4000):
        w = v * (i % 7) + 1.0
        acc += float(np.sqrt(w @ w)) + sum(k * 0.5 for k in range(12))
    return time.perf_counter() - t0


def _setup(workload: str, seed: int, input_dir: Path):
    """What a run does before its first job: import rislab, write the inputs."""
    import rislab  # noqa: F401

    return workloads.make_rounds(workload, seed, str(input_dir))


def _time_setups(args, work: Path) -> tuple[list[float], list[float]]:
    """Wall and reference seconds of SETUP_SAMPLES set-ups in fresh interpreters."""
    wall, ref = [], []
    cal = calibrate()
    for i in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__)), "--setup-only", str(work / f"setup-{i}"),
               "--workload", args.workload, "--seed", str(args.seed)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        wall.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup failed: {proc.stderr.strip()[-500:]}")
        cal, cal_before = calibrate(), cal
        ref.append(wall[-1] * CAL_REF_S / (0.5 * (cal + cal_before)))
    return wall, ref


def run_command(argv: list[str]):
    """One CLI invocation in this process, with its output captured."""
    from rislab import cli

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error exits 1 with a traceback
            traceback.print_exc()
            rc = 1
    return workloads.Outcome(rc, time.perf_counter() - t0, out.getvalue(), err.getvalue())


class Record(NamedTuple):
    job: object
    outcomes: list
    traced: bool
    errors: list[str]
    round: int  # -1 for the negative controls
    speed: float  # CAL_REF_S over the calibration time around the job

    @property
    def seconds(self) -> float:
        return sum(o.seconds for o in self.outcomes)

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.speed


class Run:
    """Executes jobs, checks their outputs and keeps the timings."""

    def __init__(self, work: Path, tracer=None):
        self.work = work
        self.tracer = tracer
        self.records: list[Record] = []
        self.round = -1
        self.cal = calibrate()

    def execute(self, job, traced: bool = False) -> float:
        """Runs a job's commands; returns their total seconds.  Checked off the clock."""
        out = self.work / f"job-{len(self.records)}"
        gc.collect()
        if traced:
            self.tracer.job = len(self.records)
            self.tracer.install()
        try:
            outcomes = [run_command(argv) for argv in job.argvs(str(out))]
        finally:
            if traced:
                self.tracer.uninstall()
                self.tracer.end_job()
        cal, self.cal = self.cal, calibrate()
        speed = CAL_REF_S / (0.5 * (cal + self.cal))
        record = Record(job, outcomes, traced, job.check(str(out), outcomes), self.round, speed)
        shutil.rmtree(out, ignore_errors=True)
        self.records.append(record)
        return record.seconds

    def loop(self, rounds, seconds: float) -> None:
        """Whole rounds until ``seconds`` of command wall time have passed.

        With a tracer every job also runs traced, first on every other job so
        that warm-up after the first execution favours neither side.
        """
        plain = traced = 0.0
        n = 0
        while plain + traced < seconds:
            self.round += 1
            for job in rounds[self.round % len(rounds)]:
                if self.tracer is None:
                    plain += self.execute(job)
                    continue
                for with_trace in ((False, True) if n % 2 == 0 else (True, False)):
                    if with_trace:
                        traced += self.execute(job, traced=True)
                    else:
                        plain += self.execute(job)
                n += 1


def command_medians(records: list[Record]) -> dict[str, dict]:
    """Median reference time and sample count of each command kind (and concept)."""
    by_kind: dict[str, list[float]] = {}
    for rec in records:
        for cmd, res in zip(rec.job.commands, rec.outcomes):
            kind = cmd.kind
            if kind == "check":
                kind += "_" + cmd.argv[cmd.argv.index("--concept") + 1]
            for key in {cmd.kind, kind}:
                by_kind.setdefault(key, []).append(res.seconds * rec.speed)
    return {k: {"p50_s": statistics.median(v), "samples": len(v)} for k, v in sorted(by_kind.items())}


def provenance() -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "rislab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": _git_sha(),
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _git_sha() -> str | None:
    """HEAD of the checkout if it is a git work tree (read without running git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", dest="setup_only", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "rislab" / "__init__.py").is_file():
        print(f"error: no rislab sources under {SRC}", file=sys.stderr)
        return 3
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        _setup(args.workload, args.seed, Path(args.setup_only))
        return 0

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _benchmark(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def _benchmark(args, work: Path) -> int:
    work.mkdir(parents=True, exist_ok=True)
    setup_wall, setup_ref = _time_setups(args, work)
    rounds = _setup(args.workload, args.seed, work / "inputs")
    import rislab

    if not Path(rislab.__file__).resolve().is_relative_to(SRC):
        print(f"error: rislab imported from {rislab.__file__}, not {SRC}", file=sys.stderr)
        return 3

    tracer = spans.LayerTrace() if args.trace else None
    run = Run(work, tracer)
    for job in workloads.control_jobs(args.workload):
        run.execute(job)
    n_controls = len(run.records)
    run.loop(rounds, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    jobs = [r for r in run.records if r.round >= 0 and not r.traced]
    failures = [(r.job.label, r.errors) for r in run.records if r.errors]
    # throughput of the median round: a burst of machine slowness that
    # stretches one round does not move it
    def round_rates(seconds):
        return [
            sum(not r.errors for r in jobs if r.round == i) / sum(seconds(r) for r in jobs if r.round == i)
            for i in range(run.round + 1)
        ]

    ref_rates = round_rates(lambda r: r.ref_seconds)
    wall_rates = round_rates(lambda r: r.seconds)
    attempted = len(run.records)
    correct = not failures
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": run.round + 1,
        "jobs": len(jobs),
        "controls": n_controls,
        "fail_frac": len(failures) / attempted,
        "failures": failures[:10],
        "calibration_speed": [r.speed for r in jobs],
        "setup_samples_s": setup_wall,
        "wall": {
            "setup_s": statistics.median(setup_wall),
            "jobs_per_s": statistics.median(wall_rates),
            "job_p50_s": statistics.median(r.seconds for r in jobs),
            "round_jobs_per_s": wall_rates,
        },
        "commands": command_medians(jobs),
        "jobs_run": [[r.job.label, r.seconds] for r in jobs],
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setup_ref), "s"),
            "jobs_per_s": (statistics.median(ref_rates), "1/s"),
            "job_p50_s": (statistics.median(r.ref_seconds for r in jobs), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = tracer.metrics()
        traced_s = sum(r.ref_seconds for r in run.records if r.traced)
        metrics["trace_overhead_frac"] = (traced_s / sum(r.ref_seconds for r in jobs) - 1.0, "ratio")
        for kind in ("solve", "check", "construct"):
            metrics[f"cli.{kind}.p50_s"] = (detail["commands"].get(kind, {}).get("p50_s", 0.0), "s")
        detail["trace"] = {
            "absent": tracer.absent,
            "orphan_spans": tracer.orphans,
            "worst_additivity_s": tracer.worst_additivity,
        }
        correct = correct and tracer.orphans == 0 and tracer.worst_additivity <= 1e-6

    print("provenance " + json.dumps(provenance()))
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
