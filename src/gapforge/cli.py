"""Command-line front end.

Four subcommands: ``solve`` (one parameter point, every branch), ``scan``
(lattice sweeps to CSV/JSON, plus the tangency-curve table), ``verify``
(closed-form regime formulas against the exact solver), and ``kernel-solve``
(momentum-resolved self-consistency).  A JSON config file can pre-load any
flag of the chosen subcommand (keys are the flag names with dashes as
underscores); explicit flags win.

Exit codes: 0 success; 2 bad input (flags, config, parameter validation,
regime preconditions); 3 verification mismatch; 4 kernel solver failed to
converge (partial output still written); 1 unexpected solver error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import asymptotics, kernel_solver, phase_diagram, scalar_gap
from .core_types import ModelParams, solution_checks
from .errors import (
    ConfigError,
    DomainError,
    GapEquationError,
    InvalidParameter,
    NotAdmissible,
    NotApplicable,
    NotConverged,
    ShellBelowZero,
    ZeroCoupling,
    ZeroTemperature,
)

_VALIDATION_ERRORS = (
    ConfigError,
    InvalidParameter,
    DomainError,
    NotApplicable,
    NotAdmissible,
    ZeroCoupling,
    ZeroTemperature,
    ShellBelowZero,
)

_VERIFY_TOLERANCES = {"IA": 1e-3, "IIA": 1e-3, "IB": 5e-2, "IIB": 5e-2}

_CONFIG_KEYS = {
    "solve": {"lambda_b", "lambda_m", "mu", "temp", "beta", "tol", "format", "out"},
    "scan": {"lambda_b", "lambda_m", "mu", "temp", "beta", "tol", "format", "out",
             "range_lambda_b", "range_lambda_m", "range_mu", "range_temp",
             "equilibrium", "lambda_b_bar"},
    "verify": {"regime", "lambda_b", "lambda_m", "mu", "temp", "beta", "tol"},
    "kernel-solve": {"lambda_b", "lambda_m", "mu", "temp", "beta", "tol", "out",
                     "epsilon", "grid_points", "p_max", "kernel_b_csv",
                     "kernel_m_csv", "damping", "max_iters", "init", "seeds"},
}


def _add_config_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None,
                     help="JSON file pre-loading flags of this command")


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--lambda-b", type=float, default=None,
                     help="pairing-channel coupling")
    sub.add_argument("--lambda-m", type=float, default=None,
                     help="mean-field-channel coupling (default 0)")
    sub.add_argument("--mu", type=float, default=None, help="chemical potential")
    sub.add_argument("--temp", type=float, default=None, help="temperature")
    sub.add_argument("--beta", type=float, default=None,
                     help="inverse temperature (alternative to --temp)")
    sub.add_argument("--tol", type=float, default=1e-10, help="solver tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapforge",
        description="Coupled mean-field / pairing gap equations: solvers, "
                    "phase maps, kernel-level self-consistency.",
    )
    parser.add_argument("--config", default=None,
                        help="JSON file pre-loading flags of the subcommand")
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="all branches at one parameter point")
    _add_config_flag(solve)
    _add_model_flags(solve)
    solve.add_argument("--format", choices=("csv", "json"), default="json")
    solve.add_argument("--out", default=None, help="write to file instead of stdout")
    solve.set_defaults(func=cmd_solve)

    scan = commands.add_parser("scan", help="lattice sweep to CSV/JSON")
    _add_config_flag(scan)
    _add_model_flags(scan)
    for axis in ("lambda-b", "lambda-m", "mu", "temp"):
        scan.add_argument(f"--range-{axis}", default=None, metavar="LO:HI:STEPS",
                          help=f"sweep {axis.replace('-', '_')} over a linspace")
    scan.add_argument("--equilibrium", action="store_true",
                      help="emit the tangency curve instead of a parameter scan")
    scan.add_argument("--lambda-b-bar", default=None, metavar="LO:HI:STEPS",
                      help="reduced-coupling range for --equilibrium")
    scan.add_argument("--format", choices=("csv", "json"), default="csv")
    scan.add_argument("--out", default=None)
    scan.set_defaults(func=cmd_scan)

    verify = commands.add_parser(
        "verify", help="closed-form regime formulas vs the exact solver")
    verify.add_argument("--regime", required=True, choices=("IA", "IB", "IIA", "IIB"))
    _add_config_flag(verify)
    _add_model_flags(verify)
    verify.set_defaults(func=cmd_verify)

    kernel = commands.add_parser(
        "kernel-solve", help="momentum-resolved self-consistent solve")
    _add_config_flag(kernel)
    _add_model_flags(kernel)
    kernel.add_argument("--epsilon", type=float, default=None,
                        help="shell half-width for separable kernels")
    kernel.add_argument("--grid-points", type=int, default=600,
                        help="total grid budget (one third resolves the shell)")
    kernel.add_argument("--p-max", type=float, default=3.0)
    kernel.add_argument("--kernel-b-csv", default=None,
                        help="tabulated pairing kernel (header row of momenta)")
    kernel.add_argument("--kernel-m-csv", default=None,
                        help="tabulated mean-field kernel")
    kernel.add_argument("--damping", type=float, default=0.5)
    kernel.add_argument("--max-iters", type=int, default=2000)
    kernel.add_argument("--init", default="zero",
                        help="zero | scalar | seed:VALUE")
    kernel.add_argument("--seeds", default=None,
                        help="comma list of pairing seeds: run a branch scan")
    kernel.add_argument("--out", default=None,
                        help="CSV path; summary JSON then goes to stdout")
    kernel.set_defaults(func=cmd_kernel_solve)
    return parser


def _peek_command(argv: list[str]) -> str | None:
    for token in argv:
        if token in _CONFIG_KEYS:
            return token
    return None


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Load --config JSON as subcommand defaults; explicit flags override."""
    path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None:
        return
    command = _peek_command(argv)
    if command is None:
        raise ConfigError("--config requires a subcommand")
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(values, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(values) - _CONFIG_KEYS[command]
    if unknown:
        raise ConfigError(
            f"{path}: unknown config keys for '{command}': {sorted(unknown)}"
        )
    # find the subcommand parser and install the values as defaults
    for action in parser._actions:  # noqa: SLF001 - argparse has no public route
        if isinstance(action, argparse._SubParsersAction):
            action.choices[command].set_defaults(**values)
            return


def _resolve_temperature(args: argparse.Namespace) -> float:
    if args.temp is not None and args.beta is not None:
        raise ConfigError("--temp and --beta are mutually exclusive")
    if args.temp is not None:
        return float(args.temp)
    if args.beta is not None:
        beta = float(args.beta)
        if beta < 0.0:
            raise ConfigError(f"--beta must be non-negative, got {beta}")
        return math.inf if beta == 0.0 else (0.0 if math.isinf(beta) else 1.0 / beta)
    raise ConfigError("one of --temp / --beta is required")


def _resolve_params(args: argparse.Namespace) -> ModelParams:
    if args.lambda_b is None:
        raise ConfigError("--lambda-b is required")
    if args.mu is None:
        raise ConfigError("--mu is required")
    temperature = _resolve_temperature(args)
    lambda_m = 0.0 if args.lambda_m is None else args.lambda_m
    return ModelParams(lambda_b=args.lambda_b, lambda_m=lambda_m,
                       mu=args.mu, temperature=temperature)


def _open_out(args: argparse.Namespace):
    if getattr(args, "out", None):
        return open(args.out, "w", newline="", encoding="utf-8")
    return None


# --------------------------------------------------------------------------
# solve


def _required_checks_pass(sol, params, checks: dict) -> bool:
    """All structural checks except the optional mixing-angle bound.

    ``|c| >= sqrt(2)/2`` is only a theorem when the effective energy
    ``mu + delta_m`` is non-negative; solutions below that line are still
    self-consistent, so the bound must not fail them wholesale.
    """
    optional = () if params.mu + sol.delta_m >= 0.0 else ("mixing_angle_bound",)
    return all(v for k, v in checks.items() if k not in optional)


def _report_payload(report) -> dict:
    payload = report.as_dict()
    for sol, entry in zip(report.solutions, payload["solutions"]):
        checks = solution_checks(sol, report.params)
        entry["checks"] = checks
        entry["checks_passed"] = _required_checks_pass(sol, report.params, checks)
    return payload


def cmd_solve(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    report = scalar_gap.solve_all(params, tol=args.tol)
    sink = _open_out(args)
    stream = sink or sys.stdout
    try:
        if args.format == "json":
            json.dump(_report_payload(report), stream, indent=2)
            stream.write("\n")
        else:
            import csv as _csv

            writer = _csv.writer(stream, lineterminator="\n")
            writer.writerow(["phase", "delta_m", "delta_b", "w_bar",
                             "residual", "checks_passed"])
            for sol in report.solutions:
                checks = solution_checks(sol, report.params)
                writer.writerow([
                    sol.phase.value, repr(sol.delta_m), repr(sol.delta_b),
                    repr(sol.w_bar), repr(sol.residual),
                    str(_required_checks_pass(sol, report.params, checks)),
                ])
    finally:
        if sink:
            sink.close()
    return 0


# --------------------------------------------------------------------------
# scan


def _parse_range(text, flag: str) -> tuple[float, float, int]:
    if isinstance(text, (list, tuple)) and len(text) == 3:
        lo, hi, steps = text
        return float(lo), float(hi), int(steps)
    try:
        lo, hi, steps = str(text).split(":")
        return float(lo), float(hi), int(steps)
    except ValueError:
        raise ConfigError(f"{flag} expects LO:HI:STEPS, got {text!r}") from None


def cmd_scan(args: argparse.Namespace) -> int:
    sink = _open_out(args)
    stream = sink or sys.stdout
    try:
        if args.equilibrium:
            if args.lambda_b_bar is None:
                raise ConfigError("--equilibrium requires --lambda-b-bar LO:HI:STEPS")
            lo, hi, steps = _parse_range(args.lambda_b_bar, "--lambda-b-bar")
            rows = phase_diagram.equilibrium_curve(lo, hi, steps)
            if args.format == "json":
                payload = [{"lambda_b_bar": r[0], "mu_e_bar": r[1], "x_e": r[2]}
                           for r in rows]
                json.dump(payload, stream, indent=2)
                stream.write("\n")
            else:
                import csv as _csv

                writer = _csv.writer(stream, lineterminator="\n")
                writer.writerow(["lambda_b_bar", "mu_e_bar", "x_e"])
                for row in rows:
                    writer.writerow([repr(v) for v in row])
            return 0

        ranges: dict[str, tuple[float, float, int]] = {}
        for axis, flag_value in (("lambda_b", args.range_lambda_b),
                                 ("lambda_m", args.range_lambda_m),
                                 ("mu", args.range_mu),
                                 ("temperature", args.range_temp)):
            if flag_value is not None:
                ranges[axis] = _parse_range(flag_value, f"--range-{axis}")
        fixed: dict[str, float] = {}
        if "lambda_b" not in ranges:
            if args.lambda_b is None:
                raise ConfigError("lambda_b needs a value or a range")
            fixed["lambda_b"] = float(args.lambda_b)
        if "lambda_m" not in ranges:
            fixed["lambda_m"] = 0.0 if args.lambda_m is None else float(args.lambda_m)
        if "mu" not in ranges:
            if args.mu is None:
                raise ConfigError("mu needs a value or a range")
            fixed["mu"] = float(args.mu)
        if "temperature" not in ranges:
            fixed["temperature"] = _resolve_temperature(args)

        rows = phase_diagram.scan(ranges, fixed, tol=args.tol)
        if args.format == "json":
            phase_diagram.write_scan_json(rows, stream)
        else:
            phase_diagram.write_scan_csv(rows, stream)
        return 0
    finally:
        if sink:
            sink.close()


# --------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    regime_fn = {
        "IA": asymptotics.regime_IA,
        "IB": asymptotics.regime_IB,
        "IIA": asymptotics.regime_IIA,
        "IIB": asymptotics.regime_IIB,
    }[args.regime]
    closed = regime_fn(params)
    if not closed.valid:
        print(f"regime {args.regime} is outside its validity window at "
              f"these parameters (margin {closed.validity_margin:.3g})",
              file=sys.stderr)
        return 2

    report = scalar_gap.solve_all(params, tol=args.tol)
    mixed = report.mixed
    tol = _VERIFY_TOLERANCES[args.regime]
    header = f"{'quantity':<10}{'closed_form':>16}{'numeric':>16}{'rel_err':>12}{'tol':>10}  status"
    print(header)
    print("-" * len(header))
    if not mixed:
        print(f"{'w_bar':<10}{closed.w_bar:>16.8g}{'(none)':>16}{'':>12}{tol:>10.0e}  FAIL")
        print("verify: FAIL (no mixed solution found)")
        return 3
    nearest = min(mixed, key=lambda s: abs(s.w_bar - closed.w_bar))
    rows = [
        ("w_bar", closed.w_bar, nearest.w_bar),
        ("delta_m", closed.delta_m, nearest.delta_m),
        ("delta_b", closed.delta_b, nearest.delta_b),
    ]
    ok = True
    for name, want, got in rows:
        rel = abs(got - want) / max(abs(want), 1e-9)
        passed = rel <= tol
        ok = ok and passed
        print(f"{name:<10}{want:>16.8g}{got:>16.8g}{rel:>12.3e}{tol:>10.0e}  "
              f"{'PASS' if passed else 'FAIL'}")
    print(f"verify: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 3


# --------------------------------------------------------------------------
# kernel-solve


def _parse_init(text: str):
    if text == "zero":
        return kernel_solver.ZeroPairing()
    if text == "scalar":
        return kernel_solver.FromScalar()
    if text.startswith("seed:"):
        try:
            return kernel_solver.SeededPairing(float(text[5:]))
        except ValueError:
            raise ConfigError(f"bad seed value in --init {text!r}") from None
    raise ConfigError(f"--init must be zero, scalar or seed:VALUE, got {text!r}")


def _kernel_setup(args: argparse.Namespace, params: ModelParams):
    if args.kernel_b_csv or args.kernel_m_csv:
        momenta = matrix_b = matrix_m = None
        if args.kernel_b_csv:
            momenta, matrix_b = kernel_solver.load_kernel_csv(args.kernel_b_csv)
        if args.kernel_m_csv:
            momenta_m, matrix_m = kernel_solver.load_kernel_csv(args.kernel_m_csv)
            if momenta is None:
                momenta = momenta_m
            elif not np.array_equal(momenta, momenta_m):
                raise ConfigError(
                    "pairing and mean-field kernel momenta differ"
                )
        grid = kernel_solver.RadialGrid.from_points(momenta)
        zero = np.zeros((momenta.size, momenta.size))
        kernels = kernel_solver.CoupledKernels(
            pairing=kernel_solver.TabulatedKernel(
                matrix_b if matrix_b is not None else zero),
            mean_field=kernel_solver.TabulatedKernel(
                matrix_m if matrix_m is not None else zero),
        )
        return grid, kernels
    if args.epsilon is None:
        raise ConfigError("kernel-solve needs --epsilon or a kernel CSV")
    n_shell = max(2, args.grid_points // 3)
    n_outer = max(2, args.grid_points - n_shell)
    grid = kernel_solver.shell_aligned_grid(
        params.mu, args.epsilon, n_shell=n_shell, p_max=args.p_max,
        n_outer=n_outer)
    return grid, kernel_solver.shell_kernels(params, args.epsilon)


def _write_gap_csv(stream, grid, results: list) -> None:
    import csv as _csv

    writer = _csv.writer(stream, lineterminator="\n")
    multi = len(results) > 1
    header = (["branch"] if multi else []) + ["p", "delta_m", "delta_b", "w_bar"]
    writer.writerow(header)
    for branch, gaps in enumerate(results):
        for i, p in enumerate(grid.points):
            row = ([str(branch)] if multi else []) + [
                repr(float(p)), repr(float(gaps.delta_m[i])),
                repr(float(gaps.delta_b[i])), repr(float(gaps.w_bar[i])),
            ]
            writer.writerow(row)


def cmd_kernel_solve(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    grid, kernels = _kernel_setup(args, params)
    controls = kernel_solver.IterationControls(
        damping=args.damping, max_iters=args.max_iters, tol=args.tol,
        init=_parse_init(args.init))
    dispersion = kernel_solver.PARABOLIC

    results: list = []
    exit_code = 0
    if args.seeds is not None:
        try:
            seeds = [float(tok) for tok in str(args.seeds).split(",") if tok.strip()]
        except ValueError:
            raise ConfigError(f"--seeds expects comma-separated numbers, "
                              f"got {args.seeds!r}") from None
        if not seeds:
            raise ConfigError("--seeds is empty")
        try:
            results = kernel_solver.branch_scan(
                grid, kernels, dispersion, params, seeds, controls)
        except NotConverged as exc:
            results = [_gaps_from_failure(grid, dispersion, exc)]
            exit_code = 4
    else:
        try:
            results = [kernel_solver.self_consistent_solve(
                grid, kernels, dispersion, params, controls)]
        except NotConverged as exc:
            results = [_gaps_from_failure(grid, dispersion, exc)]
            exit_code = 4

    summary = {
        "converged": exit_code == 0,
        "branches": [
            {
                "residual": gaps.residual,
                "iterations": gaps.iterations,
                "delta_b_peak": float(np.max(np.abs(gaps.delta_b))),
                "delta_b_at_fermi": float(
                    gaps.delta_b[grid.index_nearest(math.sqrt(params.mu))]),
            }
            for gaps in results
        ],
        "grid_points": int(grid.points.size),
    }
    sink = _open_out(args)
    if sink:
        try:
            _write_gap_csv(sink, grid, results)
        finally:
            sink.close()
        json.dump(summary, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        _write_gap_csv(sys.stdout, grid, results)
        json.dump(summary, sys.stderr, indent=2)
        sys.stderr.write("\n")
    return exit_code


def _gaps_from_failure(grid, dispersion, exc: NotConverged):
    dm, db = exc.gaps if exc.gaps is not None else (
        np.zeros(grid.points.size), np.zeros(grid.points.size))
    omega = np.asarray(dispersion.omega(grid.points), dtype=float)
    return kernel_solver.GapFunctions(
        delta_m=dm, delta_b=db, w_bar=np.hypot(omega + dm, db),
        residual=exc.residual, iterations=exc.iterations)


# --------------------------------------------------------------------------


# Flags whose values (ranges, comma lists) may start with "-", which argparse
# would otherwise mistake for an option string.
_GLUED_FLAGS = frozenset({
    "--range-lambda-b", "--range-lambda-m", "--range-mu", "--range-temp",
    "--lambda-b-bar", "--seeds",
})


def _normalize_argv(argv: list[str]) -> list[str]:
    out: list[str] = []
    skip = False
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in _GLUED_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    argv = _normalize_argv(list(sys.argv[1:] if argv is None else argv))
    parser = build_parser()
    try:
        _apply_config(parser, argv)
        args = parser.parse_args(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream consumer (head, less) went away; not our error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except GapEquationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
