"""Spans around calls into the package's public functions.

:class:`Tracer` swaps each public function listed in :data:`TARGETS` for a
wrapper that records a span (name, start, end, parent span, run id), in
every ``gapforge`` module namespace that holds it, so calls the package
makes internally are seen as well as the benchmark's own.  Only public names
are touched; private helpers run inside their caller's span and count as its
self time.  Spans stay in memory until :meth:`Tracer.dump` writes them.

:func:`layer_metrics` turns the spans into the per-layer table: each
module's self time (span time minus the time of its child spans), per-call
medians, and counts at the layer boundaries.  ``solve_all`` and ``scan`` do
not call ``pairing_energy_roots`` or ``multiplicity_class``, so the worker
times those two with explicit calls instead.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("core_types", "scalar_gap", "phase_diagram", "kernel_solver", "thermal", "cli")


def _kernel_kind(kernels) -> str:
    from gapforge.kernel_solver import TabulatedKernel

    return "tabulated" if isinstance(kernels.pairing, TabulatedKernel) else "shell"


def _arg_kind(args, kwargs) -> str:
    return "scalar" if np.ndim(args[0]) == 0 else "array"


def _solve_all_extra(args, kwargs, result) -> dict:
    return {"admitted": result.multiplicity, "notes": len(result.notes)}


def _scan_extra(args, kwargs, result) -> dict:
    return {"points": len(result), "errors": sum(r.error is not None for r in result)}


def _stream_bytes(args, kwargs, result) -> dict:
    try:
        return {"bytes": args[1].tell()}
    except (OSError, ValueError):
        return {}


def _file_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _iterations(args, kwargs, result) -> dict:
    return {"iterations": result.iterations}


def _branches(args, kwargs, result) -> dict:
    return {"branches": len(result)}


# (module, public attribute, span name, namer(args, kwargs) -> suffix or None,
#  extra(args, kwargs, result) -> dict or None)
TARGETS = (
    ("core_types", "validate", "core_types.validate", None, None),
    ("core_types", "fermi", "core_types.fermi", _arg_kind, None),
    ("core_types", "tanh_half", "core_types.tanh_half", _arg_kind, None),
    ("core_types", "solution_checks", "core_types.solution_checks", None, None),
    ("scalar_gap", "solve_all", "scalar_gap.solve_all", None, _solve_all_extra),
    ("scalar_gap", "pairing_energy_roots", "scalar_gap.pairing_energy_roots", None, None),
    ("scalar_gap", "pure_mean_field", "scalar_gap.pure_mean_field", None, None),
    ("scalar_gap", "mean_field_gap_given_w", "scalar_gap.mean_field_gap_given_w", None, None),
    ("scalar_gap", "recover_delta_b", "scalar_gap.recover_delta_b", None, None),
    ("thermal", "bogoliubov_from_gaps", "thermal.bogoliubov_from_gaps", None, None),
    ("thermal", "ModeTable.build", "thermal.ModeTable.build", None, None),
    ("thermal", "smearing_scaling_check", "thermal.smearing_scaling_check", None, None),
    ("thermal", "pairing_diagonal_term", "thermal.pairing_diagonal_term", None, None),
    ("thermal", "quartic_expectation", "thermal.quartic_expectation", None, None),
    ("phase_diagram", "classify_region", "phase_diagram.classify_region", None, None),
    ("phase_diagram", "multiplicity_class", "phase_diagram.multiplicity_class", None, None),
    ("phase_diagram", "scan", "phase_diagram.scan", None, _scan_extra),
    ("phase_diagram", "write_scan_csv", "phase_diagram.write_scan_csv", None, _stream_bytes),
    ("kernel_solver", "load_kernel_csv", "kernel_solver.load_kernel_csv", None, _file_bytes),
    ("kernel_solver", "self_consistent_solve", "kernel_solver.solve",
     lambda a, k: _kernel_kind(a[1]), _iterations),
    ("kernel_solver", "branch_scan", "kernel_solver.branch_scan", None, _branches),
    ("kernel_solver", "gap_rhs", "kernel_solver.gap_rhs", lambda a, k: _kernel_kind(a[2]), None),
    ("kernel_solver", "SeparableKernel.apply", "kernel_solver.apply.separable", None, None),
    ("kernel_solver", "TabulatedKernel.apply", "kernel_solver.apply.tabulated", None, None),
    ("kernel_solver", "mode_table", "kernel_solver.mode_table", None, None),
    ("cli", "main", "cli.main", None, None),
    ("cli", "cmd_scan", "cli.scan", None, None),
    ("cli", "cmd_kernel_solve", "cli.kernel_solve", None, None),
)


class Tracer:
    """Span recorder; :meth:`install` and :meth:`uninstall` are cheap and repeatable.

    ``clock`` stamps span starts and ends.  The worker passes one that stops
    while its speed probe's signal handler runs, so spans do not absorb the
    probe's reference loop.
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.runs: list[int] = []
        self.errors: list[bool] = []
        self.extras: dict[int, dict] = {}
        self.run_id = 0
        self.installed = False
        self._stack: list[int] = []
        self._swaps: list[tuple[dict, str, object, object]] = []
        self._build_swaps()

    def _wrap(self, func, name, namer, extra):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        runs, errors, extras, stack = self.runs, self.errors, self.extras, self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(name if namer is None else f"{name}.{namer(args, kwargs)}")
            parents.append(stack[-1] if stack else -1)
            runs.append(self.run_id)
            ends.append(0.0)
            errors.append(False)
            stack.append(sid)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            except BaseException:
                ends[sid] = clock()
                errors[sid] = True
                raise
            finally:
                stack.pop()
            ends[sid] = clock()
            if extra is not None:
                extras[sid] = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def _build_swaps(self) -> None:
        modules = [importlib.import_module("gapforge")]
        modules += [importlib.import_module(f"gapforge.{m}") for m in LAYERS]
        for module_name, attr, name, namer, extra in TARGETS:
            home = sys.modules[f"gapforge.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, namer, extra))
                else:
                    wrapped = self._wrap(raw, name, namer, extra)
                self._swaps.append((cls, meth, raw, wrapped))
                continue
            original = getattr(home, attr)
            wrapped = self._wrap(original, name, namer, extra)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._swaps.append((module.__dict__, attr, original, wrapped))

    def install(self) -> None:
        for target, key, _, wrapped in self._swaps:
            if isinstance(target, dict):
                target[key] = wrapped
            else:
                setattr(target, key, wrapped)

    def uninstall(self) -> None:
        for target, key, original, _ in self._swaps:
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        self.installed = True
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
        self.installed = False

    @contextlib.contextmanager
    def paused(self):
        """No spans inside the block, e.g. while the oracle calls into the package."""
        if not self.installed:
            yield
            return
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (gzip): id, name, start, end, parent, run."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": sid, "name": name, "start": self.starts[sid],
                    "end": self.ends[sid], "parent": self.parents[sid],
                    "run": self.runs[sid], "error": self.errors[sid],
                    **self.extras.get(sid, {}),
                }) + "\n")


def _median(values) -> float | None:
    values = list(values)
    return statistics.median(values) if values else None


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float | None, str]]:
    """Per-layer table from the recorded spans: name -> (value, unit)."""
    names, parents = tracer.names, tracer.parents
    dur = np.array(tracer.ends) - np.array(tracer.starts)
    child = np.zeros(len(names))
    for sid, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += dur[sid]
    self_time = dur - child
    by_name: dict[str, list[int]] = defaultdict(list)
    for sid, name in enumerate(names):
        by_name[name].append(sid)
    extras = tracer.extras

    def med_us(name: str, times=dur) -> float | None:
        m = _median(times[i] for i in by_name.get(name, ()))
        return None if m is None else m * 1e6

    def med_extra(name: str, key: str) -> float | None:
        return _median(extras[i][key] for i in by_name.get(name, ()) if key in extras.get(i, {}))

    def scaled(value: float | None, factor: float) -> float | None:
        return None if value is None else value * factor

    out: dict[str, tuple[float | None, str]] = {}
    for layer in LAYERS:
        total = sum(self_time[sid] for sid, name in enumerate(names) if name.startswith(layer + "."))
        out[f"{layer}.self_ms"] = (total * 1e3, "ms")

    out["core_types.validate.us"] = (med_us("core_types.validate"), "us")
    out["core_types.fermi.scalar_us"] = (med_us("core_types.fermi.scalar"), "us")
    out["core_types.tanh_half.scalar_us"] = (med_us("core_types.tanh_half.scalar"), "us")

    solve_ids = by_name.get("scalar_gap.solve_all", [])
    out["scalar_gap.solve_all.self_us"] = (med_us("scalar_gap.solve_all", self_time), "us")
    out["scalar_gap.solve_all.calls"] = (float(len(solve_ids)), "count")
    out["scalar_gap.pure_mean_field.us"] = (med_us("scalar_gap.pure_mean_field"), "us")
    solve_set = set(solve_ids)
    lift_names = {"scalar_gap.mean_field_gap_given_w", "scalar_gap.recover_delta_b",
                  "thermal.bogoliubov_from_gaps"}
    lift_time = 0.0
    found = 0
    for sid, name in enumerate(names):
        if name in lift_names and parents[sid] in solve_set:
            lift_time += dur[sid]
            found += name == "scalar_gap.mean_field_gap_given_w"
    admitted = sum(extras[i]["admitted"] for i in solve_ids if i in extras)
    out["scalar_gap.lift.us"] = (lift_time / found * 1e6 if found else None, "us")
    out["scalar_gap.roots_found"] = (float(found), "count")
    out["scalar_gap.roots_admitted"] = (float(admitted), "count")
    out["scalar_gap.admitted_ratio"] = (admitted / found if found else None, "ratio")
    out["scalar_gap.dropped_notes"] = (
        float(sum(extras[i]["notes"] for i in solve_ids if i in extras)), "count")

    out["phase_diagram.classify_region.us"] = (med_us("phase_diagram.classify_region"), "us")
    out["phase_diagram.scan.s"] = (scaled(med_us("phase_diagram.scan"), 1e-6), "s")
    out["phase_diagram.scan.points"] = (med_extra("phase_diagram.scan", "points"), "count")
    out["phase_diagram.scan.error_rows"] = (med_extra("phase_diagram.scan", "errors"), "count")
    out["phase_diagram.write_scan_csv.s"] = (
        scaled(med_us("phase_diagram.write_scan_csv"), 1e-6), "s")
    out["phase_diagram.write_scan_csv.bytes"] = (
        med_extra("phase_diagram.write_scan_csv", "bytes"), "bytes")

    out["kernel_solver.apply.separable_us"] = (med_us("kernel_solver.apply.separable"), "us")
    out["kernel_solver.apply.tabulated_us"] = (med_us("kernel_solver.apply.tabulated"), "us")
    out["kernel_solver.gap_rhs.shell_us"] = (med_us("kernel_solver.gap_rhs.shell"), "us")
    out["kernel_solver.gap_rhs.tabulated_us"] = (med_us("kernel_solver.gap_rhs.tabulated"), "us")
    for kind in ("shell", "tabulated"):
        # iterations of the solves the CLI starts itself, not branch_scan's
        its = [extras[i]["iterations"] for i in by_name.get(f"kernel_solver.solve.{kind}", ())
               if i in extras and parents[i] >= 0 and names[parents[i]] == "cli.kernel_solve"]
        out[f"kernel_solver.solve.{kind}_iterations"] = (_median(its), "count")
    scans = set(by_name.get("kernel_solver.branch_scan", ()))
    rhs_evals = solves = 0
    ancestor_scan: dict[int, int] = {}
    for sid, parent in enumerate(parents):
        if names[sid] == "kernel_solver.branch_scan":
            ancestor_scan[sid] = sid
        elif parent in ancestor_scan:
            ancestor_scan[sid] = ancestor_scan[parent]
            if names[sid].startswith("kernel_solver.gap_rhs"):
                rhs_evals += 1
            elif names[sid].startswith("kernel_solver.solve") and parents[sid] in scans:
                solves += 1
    branches = sum(extras[i]["branches"] for i in scans if i in extras)
    out["kernel_solver.branch_scan.rhs_evals"] = (
        rhs_evals / len(scans) if scans else None, "count")
    out["kernel_solver.branch_scan.useful_ratio"] = (
        branches / solves if solves else None, "ratio")
    out["kernel_solver.load_kernel_csv.ms"] = (
        scaled(med_us("kernel_solver.load_kernel_csv"), 1e-3), "ms")
    out["kernel_solver.load_kernel_csv.bytes"] = (
        med_extra("kernel_solver.load_kernel_csv", "bytes"), "bytes")

    out["thermal.ModeTable.build.ms"] = (scaled(med_us("thermal.ModeTable.build"), 1e-3), "ms")
    out["thermal.smearing_scaling_check.ms"] = (
        scaled(med_us("thermal.smearing_scaling_check"), 1e-3), "ms")
    out["thermal.pairing_diagonal_term.ms"] = (
        scaled(med_us("thermal.pairing_diagonal_term"), 1e-3), "ms")
    out["thermal.quartic_expectation.us"] = (med_us("thermal.quartic_expectation"), "us")

    out["cli.scan.self_ms"] = (scaled(med_us("cli.scan", self_time), 1e-3), "ms")
    out["cli.kernel_solve.self_ms"] = (scaled(med_us("cli.kernel_solve", self_time), 1e-3), "ms")
    return out
