"""Command-line front end.

Four subcommands: ``solve`` (one parameter point, every branch), ``scan``
(lattice sweeps to CSV/JSON, plus the tangency-curve table), ``verify``
(closed-form regime formulas against the exact solver), and ``kernel-solve``
(momentum-resolved self-consistency).  A JSON config file can pre-load any
flag of the chosen subcommand (keys are the flag names with dashes as
underscores); its values are parsed as flags, and explicit flags win.
Importing this module loads numpy; ``kernel_solver`` and ``thermal`` load
only when ``kernel-solve`` runs, ``asymptotics`` only when ``verify`` runs.

Exit codes: 0 success; 2 bad input (flags, config, parameter validation,
regime preconditions); 3 verification mismatch; 4 kernel solver failed to
converge (partial output still written); 1 unexpected solver error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from operator import itemgetter

import numpy as np  # module level while perfbench requires it: ROADMAP items 1 and 5

from . import _forked, phase_diagram, scalar_gap
from .core_types import ModelParams, solution_checks
from .errors import (
    ConfigError,
    DomainError,
    GapEquationError,
    InvalidParameter,
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
    ZeroCoupling,
    ZeroTemperature,
    ShellBelowZero,
)

_VERIFY_TOLERANCES = {"IA": 1e-3, "IIA": 1e-3, "IB": 5e-2, "IIB": 5e-2}

_SOLVE_COLUMNS = ("phase", "delta_m", "delta_b", "w_bar", "residual", "checks_passed")
_CURVE_COLUMNS = ("lambda_b_bar", "mu_e_bar", "x_e")

# each scan axis and the flag that sweeps it
_RANGE_FLAGS = (("lambda_b", "--range-lambda-b"), ("lambda_m", "--range-lambda-m"),
                ("mu", "--range-mu"), ("temperature", "--range-temp"))


def _dest(flag: str) -> str:
    """The attribute argparse stores ``flag`` under."""
    return flag[2:].replace("-", "_")


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None,
                     help="JSON file pre-loading flags of this command")
    sub.add_argument("--lambda-b", type=float, default=None,
                     help="pairing-channel coupling")
    sub.add_argument("--lambda-m", type=float, default=None,
                     help="mean-field-channel coupling (default 0)")
    sub.add_argument("--mu", type=float, default=None, help="chemical potential")
    sub.add_argument("--temp", type=float, default=None,
                     help="temperature (0 and inf are the exact limits)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapforge",
        description="Coupled mean-field / pairing gap equations: solvers, "
                    "phase maps, kernel-level self-consistency.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="all branches at one parameter point")
    _add_common_flags(solve)
    solve.add_argument("--format", choices=("csv", "json"), default="json")
    solve.add_argument("--out", default=None, help="write to file instead of stdout")
    solve.set_defaults(func=cmd_solve)

    scan = commands.add_parser("scan", help="lattice sweep to CSV/JSON")
    _add_common_flags(scan)
    for _, flag in _RANGE_FLAGS:
        scan.add_argument(flag, default=None, metavar="LO:HI:STEPS",
                          help=f"sweep {_dest(flag).removeprefix('range_')} over a linspace")
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
    _add_common_flags(verify)
    verify.set_defaults(func=cmd_verify)

    kernel = commands.add_parser(
        "kernel-solve", help="momentum-resolved self-consistent solve")
    _add_common_flags(kernel)
    kernel.add_argument("--epsilon", type=float, default=None,
                        help="shell half-width for separable kernels")
    kernel.add_argument("--grid-points", type=int, default=600,
                        help="grid intervals, not points (one third resolves the shell)")
    kernel.add_argument("--p-max", type=float, default=3.0)
    kernel.add_argument("--kernel-b-csv", default=None,
                        help="tabulated pairing kernel (header row of momenta)")
    kernel.add_argument("--kernel-m-csv", default=None,
                        help="tabulated mean-field kernel")
    kernel.add_argument("--damping", type=float, default=0.5)
    kernel.add_argument("--max-iters", type=int, default=2000)
    kernel.add_argument("--tol", type=float, default=1e-10,
                        help="Picard stopping tolerance on the gap-equation defect")
    kernel.add_argument("--init", default="zero",
                        help="zero | scalar | seed:VALUE")
    kernel.add_argument("--seeds", default=None,
                        help="comma list of pairing seeds: run a branch scan (no --init)")
    kernel.add_argument("--out", default=None,
                        help="CSV path; summary JSON then goes to stdout")
    kernel.set_defaults(func=cmd_kernel_solve)
    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """``argv`` with the subcommand's --config JSON inserted as flags after it.

    The subcommand is ``argv[0]``; anything else is left for argparse to
    reject.  The accepted keys are the ``dest`` names of the subcommand's
    own flags; each becomes ``--flag=value``, so argparse checks it like a
    typed flag, and an explicit flag, coming later, wins.  ``true`` gives a
    bare switch, ``false`` and ``null`` give nothing.
    """
    subparsers = next(action for action in parser._actions  # noqa: SLF001
                      if isinstance(action, argparse._SubParsersAction))
    if not argv or argv[0] not in subparsers.choices:
        return argv
    command, path = argv[0], None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None:
        return argv
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(values, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    sub = subparsers.choices[command]
    keys = {action.dest for action in sub._actions} - {"help", "config"}  # noqa: SLF001
    unknown = set(values) - keys
    if unknown:
        raise ConfigError(
            f"{path}: unknown config keys for '{command}': {sorted(unknown)}"
        )
    flags = []
    for key, value in values.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif value is not False and value is not None:
            flags.append(f"{flag}={value}")
    return [command, *flags, *argv[1:]]


def _resolve_params(args: argparse.Namespace) -> ModelParams:
    if args.lambda_b is None:
        raise ConfigError("--lambda-b is required")
    if args.mu is None:
        raise ConfigError("--mu is required")
    if args.temp is None:
        raise ConfigError("--temp is required")
    lambda_m = 0.0 if args.lambda_m is None else args.lambda_m
    return ModelParams(lambda_b=args.lambda_b, lambda_m=lambda_m,
                       mu=args.mu, temperature=args.temp)


@contextlib.contextmanager
def _output(path: str | None):
    """The ``--out`` file, or stdout when there is none.

    Enter it only once the result is computed: opening truncates the file,
    so a run that fails before then leaves an existing file as it was.  A
    path that cannot be opened is a :class:`ConfigError` naming it.
    """
    if not path:
        yield sys.stdout
        return
    try:
        fh = open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write --out {path}: {exc.strerror}") from None
    with fh:
        yield fh


def _write_json(stream, payload) -> None:
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def _write_csv(stream, header, rows) -> None:
    """A header line, then one line per row; floats are written by ``repr``."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


# --------------------------------------------------------------------------
# solve


def _report_payload(report) -> dict:
    payload = report.as_dict()
    for sol, entry in zip(report.solutions, payload["solutions"]):
        checks = solution_checks(sol, report.params)
        entry["checks"] = checks
        entry["checks_passed"] = all(checks.values())
    return payload


def cmd_solve(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    payload = _report_payload(scalar_gap.solve_all(params))
    with _output(args.out) as stream:
        if args.format == "json":
            _write_json(stream, payload)
        else:
            _write_csv(stream, _SOLVE_COLUMNS,
                       map(itemgetter(*_SOLVE_COLUMNS), payload["solutions"]))
    return 0


# --------------------------------------------------------------------------
# scan


def _parse_range(text: str, flag: str) -> tuple[float, float, int]:
    try:
        lo, hi, steps = text.split(":")
        return float(lo), float(hi), int(steps)
    except ValueError:
        raise ConfigError(f"{flag} expects LO:HI:STEPS, got {text!r}") from None


def cmd_scan(args: argparse.Namespace) -> int:
    if args.equilibrium:
        if args.lambda_b_bar is None:
            raise ConfigError("--equilibrium requires --lambda-b-bar LO:HI:STEPS")
        lo, hi, steps = _parse_range(args.lambda_b_bar, "--lambda-b-bar")
        curve = phase_diagram.equilibrium_curve(lo, hi, steps)
        with _output(args.out) as stream:
            if args.format == "json":
                _write_json(stream, [dict(zip(_CURVE_COLUMNS, row)) for row in curve])
            else:
                _write_csv(stream, _CURVE_COLUMNS, curve)
        return 0

    ranges = {axis: _parse_range(text, flag) for axis, flag in _RANGE_FLAGS
              if (text := getattr(args, _dest(flag))) is not None}
    values = {"lambda_b": args.lambda_b,
              "lambda_m": 0.0 if args.lambda_m is None else args.lambda_m,
              "mu": args.mu, "temperature": args.temp}
    # an axis with neither value nor range is left for scan to reject
    fixed = {axis: value for axis, value in values.items()
             if value is not None and axis not in ranges}

    rows = phase_diagram.scan(ranges, fixed)
    with _output(args.out) as stream:
        if args.format == "json":
            phase_diagram.write_scan_json(rows, stream)
        else:
            phase_diagram.write_scan_csv(rows, stream)
    return 0


# --------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    from . import asymptotics
    params = _resolve_params(args)
    closed = getattr(asymptotics, f"regime_{args.regime}")(params)
    if not closed.valid:  # name the condition that failed: the window, else the gap
        reason = (f"is outside its validity window (margin {closed.validity_margin:.3g})"
                  if closed.validity_margin < 1.0 else
                  "has no pairing gap (delta_b = 0)" if closed.delta_b == 0.0 else
                  "has an imaginary pairing gap (delta_b**2 < 0)")
        print(f"regime {args.regime} {reason} at these parameters", file=sys.stderr)
        return 2

    mixed = scalar_gap.solve_all(params).mixed
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
    # a vanishing closed form is compared on the scale of the energies (never 0)
    floor = max(1e-9 * max(abs(params.lambda_b), abs(params.lambda_m), params.mu),
                math.ulp(0.0))
    ok = True
    for name, want, got in rows:
        rel = abs(got - want) / max(abs(want), floor)
        passed = rel <= tol
        ok = ok and passed
        print(f"{name:<10}{want:>16.8g}{got:>16.8g}{rel:>12.3e}{tol:>10.0e}  "
              f"{'PASS' if passed else 'FAIL'}")
    print(f"verify: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 3


# --------------------------------------------------------------------------
# kernel-solve


def _parse_init(text: str):
    from . import kernel_solver
    if text == "zero":
        return kernel_solver.SeededPairing(0.0)
    if text == "scalar":
        return kernel_solver.FromScalar()
    if text.startswith("seed:"):
        try:
            return kernel_solver.SeededPairing(float(text[5:]))
        except ValueError:  # not a number, or InvalidParameter: not finite
            raise ConfigError(f"--init seed must be a finite number, got {text!r}") from None
    raise ConfigError(f"--init must be zero, scalar or seed:VALUE, got {text!r}")


# A mean-field CSV below this many bytes (~20 ms of parsing) is read after
# the pairing one: a fork, its pickled matrix and the reap cost ~4 ms
_MIN_FORKED_CSV = 1 << 20


def _kernel_tables(path_b: str | None, path_m: str | None):
    """``(momenta, matrix_b, matrix_m)`` of the given kernel CSVs; a missing one's matrix is zero.

    With both files, and a mean-field file of ``_MIN_FORKED_CSV`` bytes or
    more, a forked child reads that one while this process reads the
    pairing one (see :mod:`gapforge._forked`: not on one usable CPU).  The
    tables, and any error, are those of reading the pairing file first.
    """
    from . import kernel_solver
    paths = [path for path in (path_b, path_m) if path]
    shares = 2 if len(paths) == 2 and _file_size(path_m) >= _MIN_FORKED_CSV else 1
    tables = _forked.run(kernel_solver.load_kernel_csv, paths, shares)
    momenta = tables[0][0]
    if len(tables) == 2:
        if not np.array_equal(momenta, tables[1][0]):
            raise ConfigError("pairing and mean-field kernel momenta differ")
        return momenta, tables[0][1], tables[1][1]
    zero = np.zeros((momenta.size, momenta.size))
    return (momenta, tables[0][1], zero) if path_b else (momenta, zero, tables[0][1])


def _file_size(path: str) -> int:
    """``path``'s size in bytes; 0 when it cannot be read, for the loader to report."""
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _kernel_setup(args: argparse.Namespace, params: ModelParams):
    from . import kernel_solver
    if args.kernel_b_csv or args.kernel_m_csv:
        momenta, matrix_b, matrix_m = _kernel_tables(args.kernel_b_csv, args.kernel_m_csv)
        grid = kernel_solver.RadialGrid.from_points(momenta)
        return grid, kernel_solver.CoupledKernels(
            pairing=kernel_solver.TabulatedKernel(matrix_b),
            mean_field=kernel_solver.TabulatedKernel(matrix_m))
    if args.epsilon is None:
        raise ConfigError("kernel-solve needs --epsilon or a kernel CSV")
    if args.grid_points < 6:  # the shell takes a third and needs 2 intervals
        raise ConfigError(f"--grid-points must be at least 6, got {args.grid_points}")
    n_shell = args.grid_points // 3
    n_outer = args.grid_points - n_shell
    grid = kernel_solver.shell_aligned_grid(
        params.mu, args.epsilon, n_shell=n_shell, p_max=args.p_max,
        n_outer=n_outer)
    return grid, kernel_solver.shell_kernels(params, args.epsilon)


def cmd_kernel_solve(args: argparse.Namespace) -> int:
    from . import kernel_solver
    if args.seeds is not None and args.init != "zero":
        raise ConfigError(f"--init {args.init} with --seeds: each seed starts its own solve")
    params = _resolve_params(args)
    grid, kernels = _kernel_setup(args, params)
    controls = kernel_solver.IterationControls(
        damping=args.damping, max_iters=args.max_iters, tol=args.tol,
        init=_parse_init(args.init))
    dispersion = kernel_solver.PARABOLIC

    seeds = None
    if args.seeds is not None:
        try:
            seeds = [kernel_solver.SeededPairing(float(tok)).value
                     for tok in str(args.seeds).split(",") if tok.strip()]
        except ValueError:  # not a number, or InvalidParameter: not finite
            raise ConfigError(f"--seeds expects comma-separated finite numbers, "
                              f"got {args.seeds!r}") from None
        if not seeds:
            raise ConfigError("--seeds is empty")
    exit_code = 0
    try:
        if seeds is None:
            results = [kernel_solver.self_consistent_solve(
                grid, kernels, dispersion, params, controls)]
        else:
            results = kernel_solver.branch_scan(
                grid, kernels, dispersion, params, seeds, controls)
    except NotConverged as exc:
        results = [exc.gaps]
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
    multi = seeds is not None
    header = (["branch"] if multi else []) + ["p", "delta_m", "delta_b", "w_bar"]
    rows = ([branch, *row] if multi else row
            for branch, gaps in enumerate(results)
            for row in np.column_stack(
                (grid.points, gaps.delta_m, gaps.delta_b, gaps.w_bar)).tolist())
    with _output(args.out) as stream:
        _write_csv(stream, header, rows)
    # the summary goes to stdout only when the table does not
    _write_json(sys.stdout if args.out else sys.stderr, summary)
    return exit_code


# --------------------------------------------------------------------------


# Flags whose values (ranges, comma lists) may start with "-", which argparse
# would otherwise mistake for an option string.
_GLUED_FLAGS = frozenset({flag for _, flag in _RANGE_FLAGS} | {"--lambda-b-bar", "--seeds"})


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
        args = parser.parse_args(_apply_config(parser, argv))
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
    except GapEquationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
