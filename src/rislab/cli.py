"""Command-line entry point.

Subcommands: solve, check, construct, counterexample1, counterexample2,
sweep.  Built-in problems are available under the names ce1, ce1_limit, ce2,
ce2_limit and remark44; custom problems are described by a JSON config with
energy, dissipation, load, z0, ell0 and T fields.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import experiments
from .checkers import (
    check_differential,
    check_local,
    check_normalized_pbv,
    check_relaxed,
)
from .construction import construct_relaxed_from_local
from .errors import ConfigError, RislabError
from .kernels import Dissipation, scaled_norm
from .model import ParametrizedTuple, RISProblem, make_energy
from .paths import LipschitzPath, PiecewisePath, from_csv, to_csv
from .viscous import reparametrize, solve_viscous


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config parse error in {path}: line {exc.lineno}: {exc.msg}")


def _load_path_arg(spec: str, T: float | None = None) -> PiecewisePath:
    """A load/solution argument: 'zero', 'step', or a path CSV file."""
    if spec == "zero":
        return PiecewisePath.constant(0.0, T if T is not None else 2.0, [0.0])
    if spec == "step":
        return experiments.load_step_limit()
    if not os.path.exists(spec):
        raise ConfigError(f"path file not found: {spec}")
    return from_csv(spec)


def _config_array(cfg: dict, key: str) -> np.ndarray:
    try:
        return np.asarray(cfg[key], dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"config field {key!r} must be a rectangular array of numbers") from None


def _problem_from_config(cfg: dict) -> RISProblem:
    try:
        energy = make_energy(cfg["energy"]["A"], cfg["energy"].get("f"))
        R = Dissipation.from_config(cfg["dissipation"])
        load_cfg = cfg["load"]
        if isinstance(load_cfg, str):
            load = _load_path_arg(load_cfg, cfg.get("T"))
        elif "csv" in load_cfg:
            load = from_csv(load_cfg["csv"])
        else:
            load = PiecewisePath.from_samples(load_cfg["breakpoints"], load_cfg["values"])
        return RISProblem(
            energy=energy,
            R=R,
            load=load,
            z0=_config_array(cfg, "z0"),
            ell0=_config_array(cfg, "ell0"),
            T=float(cfg["T"]),
            stability_tol=float(cfg.get("stability_tol", 1e-8)),
        )
    except KeyError as exc:
        raise ConfigError(f"config is missing required field {exc}")


def _named_problem(name: str, n: int):
    """Returns (problem, tuple or None, physical state or None)."""
    if name == "ce1":
        problem, tup = experiments.counterexample1(n)
        return problem, tup, None
    if name == "ce1_limit":
        problem, tup = experiments.counterexample1_limit()
        return problem, tup, None
    if name == "ce2":
        problem, tup, z_n = experiments.counterexample2(n)
        return problem, tup, z_n
    if name == "ce2_limit":
        problem, tup, z_tilde = experiments.counterexample2_limit()
        return problem, tup, z_tilde
    if name == "remark44":
        problem, tup, _ = experiments.remark_asymmetric()
        return problem, tup, None
    raise ConfigError(f"unknown built-in problem {name!r}")


def _resolve_problem(args) -> tuple[RISProblem, ParametrizedTuple | None, PiecewisePath | None]:
    if args.config:
        return _problem_from_config(_load_config(args.config)), None, None
    if args.problem:
        return _named_problem(args.problem, args.n)
    raise ConfigError("either --problem or --config is required")


def _read_tuple(directory: str) -> ParametrizedTuple:
    for name in ("t_hat.csv", "z_hat.csv", "ell_hat.csv"):
        if not os.path.exists(os.path.join(directory, name)):
            raise ConfigError(f"tuple file not found: {os.path.join(directory, name)}")
    t_hat = from_csv(os.path.join(directory, "t_hat.csv"))
    z_hat = from_csv(os.path.join(directory, "z_hat.csv"))
    ell_hat = from_csv(os.path.join(directory, "ell_hat.csv"))
    t_hat = LipschitzPath.from_samples(t_hat.breakpoints, t_hat.values)
    z_hat = LipschitzPath.from_samples(z_hat.breakpoints, z_hat.values)
    return ParametrizedTuple(S=t_hat.b, t_hat=t_hat, z_hat=z_hat, ell_hat=ell_hat)


def _write_tuple(directory: str, tup: ParametrizedTuple) -> None:
    os.makedirs(directory, exist_ok=True)
    to_csv(tup.t_hat, os.path.join(directory, "t_hat.csv"))
    to_csv(tup.z_hat, os.path.join(directory, "z_hat.csv"))
    to_csv(tup.ell_hat, os.path.join(directory, "ell_hat.csv"))


def _out_dir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _cmd_solve(args) -> int:
    problem, _, _ = _resolve_problem(args)
    traj = solve_viscous(problem, args.epsilon, args.step)
    tup = reparametrize(traj, problem)
    out = _out_dir(args)
    _write_tuple(out, tup)
    state = traj.state_path()
    to_csv(state, os.path.join(out, "trajectory.csv"))
    report = check_relaxed(tup, problem, tol=args.tol)
    with open(os.path.join(out, "report.json"), "w") as fh:
        fh.write(report.to_json())
    print(f"S = {tup.S:.6f}")
    print(report.format_table())
    return 0  # informational: a discrete tuple only passes in the limit


def _cmd_check(args) -> int:
    if args.config or args.problem:
        problem, tup, state = _resolve_problem(args)
    else:
        if not args.load:
            raise ConfigError("--load is required when no problem is named")
        load = _load_path_arg(args.load)
        problem = RISProblem(
            energy=experiments.benchmark_energy(),
            R=scaled_norm(1.0),
            load=load,
            z0=np.array([0.0]),
            ell0=load(0.0),
            T=load.b,
        )
        tup, state = None, None
    if args.solution:
        state = _load_path_arg(args.solution, problem.T)
    if args.tuple_dir:
        tup = _read_tuple(args.tuple_dir)

    if args.concept in ("pbv", "relaxed"):
        if tup is None:
            raise ConfigError("this concept needs a parametrized tuple")
        fn = check_normalized_pbv if args.concept == "pbv" else check_relaxed
        report = fn(tup, problem, tol=args.tol)
    else:
        if state is None:
            raise ConfigError("this concept needs a physical-time solution (--solution)")
        fn = check_local if args.concept == "local" else check_differential
        report = fn(state, problem, tol=args.tol)
    print(report.format_table())
    if args.out:
        out = _out_dir(args)
        with open(os.path.join(out, "report.json"), "w") as fh:
            fh.write(report.to_json())
    return 0 if report.overall else 1


def _cmd_construct(args) -> int:
    problem, _, state = _resolve_problem(args)
    if args.solution:
        state = _load_path_arg(args.solution, problem.T)
    if state is None:
        raise ConfigError("construct needs a physical-time solution")
    result = construct_relaxed_from_local(state, problem, tol=args.tol)
    print(f"S = {result.tuple.S:.6f}, jumps at {list(result.decomposition.jump_times)}")
    print(result.report.format_table())
    if args.out:
        _write_tuple(_out_dir(args), result.tuple)
    return 0


def _parse_ns(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise ConfigError(f"bad index list {text!r}")


def _positive(text, option: str) -> float:
    """``text`` as a finite number > 0, else a ConfigError naming ``option``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{option} must be finite and > 0, got {text!r}")
    return value


# numeric options argparse keeps as text; main checks them with _positive so
# that a bad value exits 2 with one line instead of argparse's usage block
_POSITIVE_OPTIONS = ("tol", "epsilon", "step")


def _cmd_counterexample(args, which: int) -> int:
    ns = _parse_ns(args.ns)
    if which == 1:
        loads, tuples = experiments.ramp_hold_family()
    else:
        loads, tuples = experiments.ramp_drop_family()
    # both limit tuples back-transform to the same step state in physical time
    _, _, limit_state = experiments.counterexample2_limit()
    rows = experiments.stability_experiment(
        loads, tuples, ns, tol=args.tol, physical_limit_state=limit_state
    )
    for row in rows:
        print(
            f"n={row['n']:>6}  {row['concept']:<32} {row['verdict']:<8} "
            f"worst={row['worst_condition']} ({row['worst_residual']:.3e})"
        )
    if args.out:
        experiments.write_rows_csv(
            os.path.join(_out_dir(args), f"counterexample{which}.csv"), rows
        )
    return 0


def _cmd_sweep(args) -> int:
    eps = [_positive(x, "--epsilons") for x in args.epsilons.split(",")]
    rows = experiments.viscous_crosscheck(
        args.n, eps, benchmark=args.benchmark,
        step_rule=(lambda e: args.step) if args.step else None,
    )
    for row in rows:
        print(
            f"eps={row['epsilon']:.2e} step={row['step']:.2e} S={row['S']:.4f} "
            f"sup_err_z={row['sup_err_z']:.3e} norm_res={row['normalization_residual']:.3e}"
        )
    if args.out:
        experiments.write_rows_csv(os.path.join(_out_dir(args), "sweep.csv"), rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rislab",
        description="Numerical laboratory for finite-dimensional rate-independent systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol_default=1e-8):
        p.add_argument("--config", help="JSON problem description")
        p.add_argument("--problem", help="built-in problem name (ce1, ce2, ...)")
        p.add_argument("--n", type=int, default=4, help="family index for built-ins")
        p.add_argument("--tol", default=tol_default)
        p.add_argument("--out", help="output directory")

    p = sub.add_parser("solve", help="viscous solve + arc-length reparametrization")
    common(p)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--step", default=None)
    # solve always writes artifacts, so the output directory is mandatory
    p.set_defaults(fn=_cmd_solve, out_required=True)

    p = sub.add_parser("check", help="run a solution-concept checker")
    common(p)
    p.add_argument(
        "--concept", required=True, choices=["differential", "local", "pbv", "relaxed"]
    )
    p.add_argument("--solution", help="physical-time state: CSV path or 'zero'")
    p.add_argument("--load", help="load when no problem is named: CSV, 'zero' or 'step'")
    p.add_argument("--tuple-dir", dest="tuple_dir", help="directory with t_hat/z_hat/ell_hat CSVs")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("construct", help="build a relaxed tuple from a local solution")
    common(p)
    p.add_argument("--solution", help="physical-time state CSV (defaults to the built-in one)")
    p.set_defaults(fn=_cmd_construct)

    for which in (1, 2):
        p = sub.add_parser(
            f"counterexample{which}", help=f"run benchmark family {which} end to end"
        )
        common(p)
        p.add_argument("--ns", default="1,2,4,8,16,32")
        p.set_defaults(fn=lambda a, w=which: _cmd_counterexample(a, w))

    p = sub.add_parser("sweep", help="viscosity sweep against the exact tuples")
    common(p)
    p.add_argument("--epsilons", default="1e-2,1e-3,1e-4")
    p.add_argument("--step", default=None)
    p.add_argument("--benchmark", type=int, default=1, choices=[1, 2])
    p.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "out_required", False) and not args.out:
        parser.error("solve requires --out")
    try:
        for option in _POSITIVE_OPTIONS:
            if getattr(args, option, None) is not None:
                setattr(args, option, _positive(getattr(args, option), "--" + option))
        return args.fn(args)
    except RislabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
