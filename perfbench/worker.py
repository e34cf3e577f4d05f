"""One benchmark run, executed in a fresh child process by ``run.py``.

The child imports the package from the checkout's ``src``, builds the
workload's inputs from the seed, then runs a closed loop with one caller:
each request starts only after the previous one has returned and has been
checked.  Only the program's own calls sit inside the timed region; input
generation, file writing for kernels and the oracle run outside it.

With ``--trace 1`` it replays requests in pairs, once plain and once with the
tracer installed, so the per-layer table and the tracing overhead come from
identical work; a single quick request of each other workload follows, so
every layer has spans on every workload.  The oracle's own calls into the
package run with the tracer paused, so they leave no spans.

After the loop, untimed and untraced, a known-defect audit checks the inputs
where the package is known to be wrong (see :meth:`Counters.audit`).  Its
failures are reported apart from ``failed``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import inputs
import oracle


# Package functions are always reached as module attributes (scalar_gap.solve_all,
# never a bare solve_all) so that the tracer's swapped-in wrappers are seen.
from gapforge import cli, core_types, errors, kernel_solver, phase_diagram, scalar_gap, thermal


class Counters:
    """Answers checked, wrong and refused, with the reasons the oracle gave.

    ``audited``, ``defects`` and ``defect_reasons`` tally the known-defect
    audit, one entry per distinct input.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.reasons: dict[str, int] = {}
        self.cli_bytes: list[int] = []
        self.audited = 0
        self.defects = 0
        self.defect_reasons: dict[str, int] = {}

    def audit(self, reasons: list[str]) -> None:
        """One audited input, with the reasons it is wrong (empty when right)."""
        self.audited += 1
        if reasons:
            self.defects += 1
            for reason in reasons:
                self.defect_reasons[reason] = self.defect_reasons.get(reason, 0) + 1

    def add(self, attempted: int, fails: list[list[str]], refused: int = 0) -> None:
        self.attempted += attempted
        self.refused += refused
        for reasons in fails:
            if reasons:
                self.failed += 1
                for reason in reasons:
                    self.reasons[reason] = self.reasons.get(reason, 0) + 1


def _reference_loop() -> float:
    """Fixed work owned by the benchmark, in the styles the package's hot paths use.

    A Python loop over numpy scalars (like a scan over a bracketing grid),
    float bisection with ``math`` calls, frozen-dataclass construction, float
    parsing and small numpy array expressions.  It never changes between
    commits, so its duration measures the machine, not the program.
    """
    acc = 0.0
    for k in range(3):
        vals = _REF_X - 4.0 * np.tanh(_REF_X - 0.5 - 0.1 * k)
        for i in range(512):
            a, b = float(vals[i]), float(vals[i + 1])
            if (a < 0.0) != (b < 0.0):
                acc += a
    for a in range(24):
        lb, mb = 2.0 + 0.25 * a, 0.5
        lo, hi = mb, lb
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            if mid - lb * math.tanh(mid - mb) > 0.0:
                hi = mid
            else:
                lo = mid
        acc += lo
    for i in range(300):
        rec = _RefRecord(float(i), 2.0)
        acc += math.hypot(rec.a, rec.b)
    acc += sum(map(float, _REF_TOKENS))
    for k in range(16):
        acc += float(np.sum(np.hypot(_REF_X + k, 0.5) * np.tanh(_REF_X - 1.0)))
    return acc


@dataclass(frozen=True)
class _RefRecord:
    a: float
    b: float


_REF_X = np.linspace(0.0, 3.0, 513)
_REF_TOKENS = [repr(float(v)) for v in np.linspace(0.1, 7.0, 200) ** 1.5]


class SpeedProbe:
    """Samples how fast the machine runs while a closed loop measures.

    The speed of the shared test machine drifts by up to 2x within a minute,
    which no median over one run can hide.  So a timer signal interrupts the
    run every :attr:`INTERVAL_S` and times :func:`_reference_loop`.  Each
    request's time, less the time spent in the handler, is then divided by
    the reference duration measured around it (:meth:`reference`).  The
    quotient, in units of one reference loop ("ref"), is what the end-to-end
    metrics report.
    """

    INTERVAL_S = 0.04

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.durations: list[float] = []
        self.paused = 0.0
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        _reference_loop()
        t1 = time.perf_counter()
        self.stamps.append(0.5 * (t0 + t1))
        self.durations.append(t1 - t0)
        self.paused += time.perf_counter() - t0
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference(self, t0: float, t1: float) -> float:
        """Harmonic mean of the reference durations sampled over [t0, t1].

        Samples come at even intervals and each measures the machine's
        inverse speed at that moment, so the harmonic mean is the duration
        the reference would have had at the request's average speed; a
        sample stretched by preemption barely moves it.  The window widens
        until it holds five samples.
        """
        pad = 0.0
        while True:
            lo = bisect.bisect_left(self.stamps, t0 - pad)
            hi = bisect.bisect_right(self.stamps, t1 + pad)
            if hi - lo >= 5 or pad > 60.0:
                window = self.durations[lo:hi] or self.durations
                return len(window) / sum(1.0 / d for d in window)
            pad = max(2.0 * pad, 0.05)


PROBE = SpeedProbe()


def _timed(fn, *args):
    """(result, seconds less probe time, start, end) of one program call."""
    paused = PROBE.paused
    t0 = time.perf_counter()
    out = fn(*args)
    t1 = time.perf_counter()
    return out, t1 - t0 - (PROBE.paused - paused), t0, t1


# Wraps every oracle check that calls into the package.  A traced run sets it
# to the tracer's ``paused``, so that the oracle's own calls leave no spans.
_untraced = contextlib.nullcontext


def _run_cli(argv: list[str]) -> tuple[int, float, str, float, float]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc, elapsed, t0, t1 = _timed(cli.main, argv)
    return rc, elapsed, buf.getvalue(), t0, t1


def _in_band(params) -> bool:
    return oracle.in_tangent_band(params.lambda_b, params.mu, params.temperature)


def _check_counts(params, in_band: bool = False) -> list[str]:
    """Root count of ``pairing_energy_roots`` against ``multiplicity_class``.

    Points on the tangency band are skipped unless ``in_band``: there the two
    are known to disagree (ROADMAP item 2), and :func:`_audit_counts` checks
    them instead.
    """
    if params.temperature == 0.0:
        return []  # multiplicity classes are defined at T > 0 only
    if _in_band(params) and not in_band:
        return []
    n_roots = len(scalar_gap.pairing_energy_roots(params))
    return oracle.check_counts(n_roots, phase_diagram.multiplicity_class(params).value)


def _audit_counts(params_list: list, counters: Counters) -> None:
    """The root-count check on every distinct tangency-band point, as audit entries."""
    for params in dict.fromkeys(p for p in params_list if _in_band(p)):
        try:
            counters.audit(_check_counts(params, in_band=True))
        except errors.GapEquationError as exc:
            counters.audit([f"root count refused: {type(exc).__name__}"])


# --------------------------------------------------------------------------
# workloads


class PhaseMap:
    """CLI ``scan`` of a lambda_b x mu lattice to a CSV file."""

    name = "phase_map"
    coverage_requests = 1

    def __init__(self, seed: int, quick: bool, tmp: str) -> None:
        self.min_requests = 1 if quick else 3
        self.max_samples = 1024
        self.lattice = inputs.lattice(seed, 20 if quick else 100)
        self.out = os.path.join(tmp, "scan.csv")
        self.argv = self.lattice.argv(self.out)
        self.digest = inputs.digest(*self.lattice.argv("OUT"))
        self.points = self.lattice.steps ** 2
        self.checked: dict[str, tuple[list[list[str]], int]] = {}

    def request(self, i: int, counters: Counters, full_check: bool) -> dict[str, float]:
        rc, elapsed, stdout, t0, t1 = _run_cli(self.argv)
        if rc != 0:  # the whole lattice was refused
            counters.add(self.points, [], refused=self.points)
            return {"request": elapsed, "window": (t0, t1)}
        with open(self.out, "rb") as fh:
            data = fh.read()
        counters.cli_bytes.append(len(data) + len(stdout))
        key = hashlib.sha256(data).hexdigest()
        if full_check or key not in self.checked:
            with _untraced():
                self.checked[key] = self._verify(data.decode())
        fails, refused = self.checked[key]
        counters.add(self.points, fails, refused)
        return {"request": elapsed, "window": (t0, t1)}

    def _verify(self, text: str) -> tuple[list[list[str]], int]:
        lat = self.lattice
        lbs = np.linspace(lat.lb_lo, lat.lb_hi, lat.steps)
        mus = np.linspace(lat.mu_lo, lat.mu_hi, lat.steps)
        rows = list(csv.DictReader(io.StringIO(text)))
        fails: list[list[str]] = []
        refused = 0
        if len(rows) != self.points:
            fails.extend([["scan: row missing"]] * max(0, self.points - len(rows)))
        for i, row in enumerate(rows[:self.points]):
            want = (float(lbs[i // lat.steps]), lat.lambda_m, float(mus[i % lat.steps]), lat.temp)
            got = tuple(float(row[k]) for k in ("lambda_b", "lambda_m", "mu", "temperature"))
            if got != want:
                fails.append(["scan: row parameters differ from the lattice"])
                continue
            if row["error"]:
                refused += 1
                continue
            mixed = [(float(row[f"delta_m_{s}"]), float(row[f"delta_b_{s}"]),
                      float(row[f"w_bar_{s}"]))
                     for s in ("lower", "upper") if row[f"w_bar_{s}"]]
            reasons = oracle.check_point(*got, float(row["delta_m_pure"]),
                                         float(row["w_bar_pure"]), mixed)
            if int(row["multiplicity"]) != len(mixed):
                reasons.append("scan: multiplicity != branches written")
            params = core_types.ModelParams(*got)
            try:
                reasons += _check_counts(params)
            except errors.GapEquationError:
                if not reasons:  # right answer, refused root count: counted once, as refused
                    refused += 1
                    continue
            fails.append(reasons)
        return fails, refused

    def _lattice_params(self) -> list:
        lat = self.lattice
        return [core_types.ModelParams(float(lb), lat.lambda_m, float(mu), lat.temp)
                for lb in np.linspace(lat.lb_lo, lat.lb_hi, lat.steps)
                for mu in np.linspace(lat.mu_lo, lat.mu_hi, lat.steps)]

    def call_params(self) -> list:
        """Every fifth lattice point, for the explicit root-count call timings."""
        return self._lattice_params()[::5]

    def audit(self, counters: Counters) -> None:
        _audit_counts(self._lattice_params(), counters)

    def report(self, times: dict[str, np.ndarray]) -> dict:
        req = times["request"]
        return {"points_per_s": (self.points * req.size / float(req.sum()), "1/s")}


def _solve_and_check(params):
    """What ``gapforge solve`` computes: every branch, then each branch's checks.

    A typed refusal is returned rather than raised, so that it is timed like
    any other answer.
    """
    try:
        report = scalar_gap.solve_all(params)
        for sol in report.solutions:
            core_types.solution_checks(sol, report.params)
    except errors.GapEquationError as exc:
        return exc
    return report


class PointSolve:
    """``solve_all`` plus ``solution_checks`` on one point per request."""

    name = "point_solve"

    def __init__(self, seed: int, quick: bool, tmp: str) -> None:
        self.points = inputs.point_mix(seed, 500 if quick else 20000)
        self.audit_points = inputs.audit_points(seed, 20 if quick else inputs.AUDIT_POINTS)
        self.params = [core_types.ModelParams(p.lambda_b, p.lambda_m, p.mu, p.temperature)
                       for p in self.points]
        self.digest = inputs.digest(*(p.key() for p in self.points + self.audit_points))
        self.min_requests = self.coverage_requests = len(self.points)
        categories = [name for name, _ in inputs.POINT_MIX]
        self.category = [float(categories.index(p.category)) for p in self.points]
        self.category_weights = {float(c): self.category.count(float(c)) / len(self.points)
                                 for c in range(len(categories))}
        self.max_samples = 1 << 18  # 2.6x the requests of a 20 s run of the current solver
        self.verified: dict[int, tuple[tuple, list[str]]] = {}
        self.failed_by_category: dict[str, int] = {}

    def request(self, i: int, counters: Counters, full_check: bool) -> dict[str, float]:
        k = i % len(self.params)
        params = self.params[k]
        report, elapsed, t0, t1 = _timed(_solve_and_check, params)
        timing = {"request": elapsed, "window": (t0, t1), "category": self.category[k]}
        if isinstance(report, errors.GapEquationError):
            counters.add(1, [], refused=1)
            return timing
        answer = tuple((s.phase.value, s.delta_m, s.delta_b, s.w_bar) for s in report.solutions)
        known = self.verified.get(k)
        if full_check or known is None or known[0] != answer:
            with _untraced():
                known = (answer, self._verify(params, report))
            self.verified[k] = known
        if known[1]:
            cat = self.points[k].category
            self.failed_by_category[cat] = self.failed_by_category.get(cat, 0) + 1
        counters.add(1, [known[1]])
        return timing

    def _verify(self, params, report) -> list[str]:
        pure = report.solutions[0]
        reasons = []
        if pure.phase.value != "pure_mean_field":
            reasons.append("first solution is not the pure branch")
        mixed = [(s.delta_m, s.delta_b, s.w_bar) for s in report.solutions[1:]]
        reasons += oracle.check_point(params.lambda_b, params.lambda_m, params.mu,
                                      params.temperature, pure.delta_m, pure.w_bar, mixed)
        try:
            reasons += _check_counts(params)
        except errors.GapEquationError as exc:
            reasons.append(f"root count refused: {type(exc).__name__}")
        return reasons

    def call_params(self) -> list:
        """The first 2000 points at T > 0, where the multiplicity class is defined."""
        return [p for p in self.params if p.temperature > 0.0][:2000]

    def audit(self, counters: Counters) -> None:
        """The mix's tangency-band root counts, then every extreme-scale point in full."""
        _audit_counts(self.params, counters)
        for p in self.audit_points:
            params = core_types.ModelParams(p.lambda_b, p.lambda_m, p.mu, p.temperature)
            report = _solve_and_check(params)
            if isinstance(report, errors.GapEquationError):
                counters.audit([f"refused: {type(report).__name__}"])
            else:
                counters.audit(self._verify(params, report))

    def report(self, times: dict[str, np.ndarray]) -> dict:
        req = times["request"]
        out = {"points_per_s": (req.size / float(req.sum()), "1/s")}
        out.update(_timing("solve", req * 1e6, "us"))
        out["failed_by_category"] = (self.failed_by_category, "count")
        return out


class MomentumSolve:
    """Four momentum-resolved requests per session: (a) single shell solve,
    (b) branch scan, (c) tabulated kernels from CSV, (d) thermal diagnostics."""

    name = "momentum_solve"
    coverage_requests = 1
    parts = ("kernel_solve", "branch_scan", "tabulated_solve", "diagnostics")

    def __init__(self, seed: int, quick: bool, tmp: str) -> None:
        self.min_requests = 1 if quick else 3
        self.max_samples = 1024
        m = self.model = inputs.momentum(seed)
        grid_points, n_tab, n_outer = (150, 150, 150) if quick else (600, 600, 600)
        model = m.model_argv()
        shell = ["--epsilon", "0.01", "--grid-points", str(grid_points)]
        self.argv_a = ["kernel-solve", *model, *shell, "--init", "seed:1.0",
                       "--out", os.path.join(tmp, "a.csv")]
        self.argv_b = ["kernel-solve", *model, *shell, "--seeds", "0.3,2.0",
                       "--out", os.path.join(tmp, "b.csv")]
        self.momenta, self.kernel_b, self.kernel_m = inputs.tabulated_kernels(m, n_tab)
        texts = []
        for name, matrix in (("kb.csv", self.kernel_b), ("km.csv", self.kernel_m)):
            text = inputs.kernel_csv_text(self.momenta, matrix)
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
            texts.append(text)
        self.out_c = os.path.join(tmp, "c.csv")
        self.argv_c = ["kernel-solve", *model, "--kernel-b-csv", os.path.join(tmp, "kb.csv"),
                       "--kernel-m-csv", os.path.join(tmp, "km.csv"), "--init", "seed:2.0",
                       "--out", self.out_c]
        self.params = core_types.ModelParams(m.lambda_b, m.lambda_m, m.mu, m.temp)
        self.scalar_gaps = oracle.scalar_pairing_gaps(m.lambda_b, m.lambda_m, m.mu, m.temp)
        # input of (d): the eps = 0.1 shell solution, solved once outside the timing
        self.grid = kernel_solver.shell_aligned_grid(
            m.mu, inputs.THERMAL_EPSILON, n_shell=grid_points // 3, p_max=3.0,
            n_outer=grid_points)
        self.gaps = kernel_solver.self_consistent_solve(
            self.grid, kernel_solver.shell_kernels(self.params, inputs.THERMAL_EPSILON),
            kernel_solver.PARABOLIC, self.params,
            kernel_solver.IterationControls(init=kernel_solver.SeededPairing(1.0)))
        omega_eff = self.grid.points ** 2 + self.gaps.delta_m
        self.want_occ, self.want_pair = oracle.mode_values(
            omega_eff, self.gaps.delta_b, m.mu, m.temp)
        idx = np.linspace(1, self.grid.points.size - 1, 9).astype(int)
        self.quartic_pairs = [(int(a), int(b)) for a in idx[:4] for b in idx[4:]]
        strip = lambda argv: [a if not a.startswith(tmp) else a[len(tmp):] for a in argv]
        self.digest = inputs.digest(*strip(self.argv_a), *strip(self.argv_b),
                                    *strip(self.argv_c), *texts, inputs.KAPPAS)

    @staticmethod
    def _v(p):
        return np.exp(-np.asarray(p, dtype=float) ** 2)

    def request(self, i: int, counters: Counters, full_check: bool) -> dict[str, float]:
        times: dict[str, float] = {}
        fails: list[list[str]] = []
        starts = []
        for part, argv, multi in (("kernel_solve", self.argv_a, False),
                                  ("branch_scan", self.argv_b, True)):
            rc, times[part], stdout, t0, _ = _run_cli(argv)
            starts.append(t0)
            counters.cli_bytes.append(len(stdout) + os.path.getsize(argv[-1]))
            with _untraced():
                fails.append(self._shell_checks(rc, stdout, multi))
        rc, times["tabulated_solve"], stdout, _, _ = _run_cli(self.argv_c)
        counters.cli_bytes.append(len(stdout) + os.path.getsize(self.out_c))
        with _untraced():
            fails.append(self._tabulated_checks(rc, stdout))

        (table, fit, diagonal, quartic), times["diagnostics"], _, end = _timed(self._diagnostics)
        want_quartic = [self.want_pair[a] * self.want_pair[b] for a, b in self.quartic_pairs]
        with _untraced():
            fails.append(oracle.check_thermal(table.occupations, table.pairings, self.want_occ,
                                              self.want_pair, fit.slope, diagonal,
                                              list(zip(quartic, want_quartic))))
        counters.add(4, fails)
        times["request"] = sum(times[p] for p in self.parts)
        times["window"] = (starts[0], end)
        return times

    def _diagnostics(self):
        grid, table = self.grid, kernel_solver.mode_table(self.grid, self.gaps, self.params)
        fit = thermal.smearing_scaling_check(thermal.occupation_profile(table), self._v,
                                             inputs.KAPPAS)
        diagonal = thermal.pairing_diagonal_term(table, self._v, inputs.KAPPAS)
        quartic = [thermal.quartic_expectation(table, grid.points[a], -grid.points[a],
                                               grid.points[b], -grid.points[b]).total
                   for a, b in self.quartic_pairs]
        return table, fit, diagonal, quartic

    def _shell_checks(self, rc: int, stdout: str, multi: bool) -> list[str]:
        if rc != 0:
            return [f"kernel-solve exited {rc}"]
        return oracle.check_shell_summary(json.loads(stdout), self.scalar_gaps, multi)

    def _tabulated_checks(self, rc: int, stdout: str) -> list[str]:
        if rc != 0:
            return [f"tabulated kernel-solve exited {rc}"]
        summary = json.loads(stdout)
        if not summary.get("converged"):
            return ["tabulated kernel solve did not converge"]
        data = np.loadtxt(self.out_c, delimiter=",", skiprows=1, ndmin=2)
        if data.shape != (self.momenta.size, 4) or not np.array_equal(data[:, 0], self.momenta):
            return ["tabulated: output grid differs from the kernel momenta"]
        m = self.model
        return oracle.check_tabulated(data[:, 0], data[:, 1], data[:, 2], data[:, 3],
                                      self.kernel_b, self.kernel_m, m.mu, m.temp)

    def call_params(self) -> list:
        """The model point, repeated, for the explicit root-count call timings."""
        return [self.params] * 200

    def audit(self, counters: Counters) -> None:
        _audit_counts([self.params], counters)

    def report(self, times: dict[str, np.ndarray]) -> dict:
        return {f"{part}_ms": (float(np.median(times[part])) * 1e3, "ms") for part in self.parts}


WORKLOADS = {w.name: w for w in (PhaseMap, PointSolve, MomentumSolve)}


# --------------------------------------------------------------------------
# measurement


def _timing(name: str, samples: np.ndarray, unit: str) -> dict:
    """Median and sample count, plus each of p90/p99/p99.9 with ten samples beyond it."""
    out = {f"{name}_p50_{unit}": (float(np.median(samples)), unit),
           f"{name}_samples": (samples.size, "count")}
    for q in (90.0, 99.0, 99.9):
        if samples.size * (1.0 - q / 100.0) >= 10.0:
            tag = f"{q:g}".replace(".", "_")
            out[f"{name}_p{tag}_{unit}"] = (float(np.percentile(samples, q)), unit)
    return out


def _mix_median(workload, times: dict[str, np.ndarray], norm: np.ndarray) -> float:
    """Median request time of each input category, weighted by the category's share.

    ``point_solve`` mixes categories whose times differ by up to 10x, and its
    overall median falls where the fast ones end and the slow ones begin; the
    slightest shift of speed between the two moved it by up to 15 % between
    runs of the same seed.  A workload with one category of input gets its plain median.
    """
    weights = getattr(workload, "category_weights", {0.0: 1.0})
    cats = times.get("category", np.zeros(norm.size))
    return sum(share * float(np.median(norm[cats == c])) for c, share in weights.items())


def _closed_loop(workload, counters: Counters,
                 seconds: float) -> tuple[dict[str, np.ndarray], float]:
    """Requests back to back for ``seconds``: per-key timings (windows as
    start/end), and the peak RSS in MB once ``min_requests`` are done.

    The number of requests a run manages must not leak speed into
    peak_rss_mb.  So timings go into buffers of a fixed size, written through
    when they are made and reused as a ring once full; a full ring keeps the
    latest requests.  And the peak is read after a fixed amount of work:
    heap fragmentation raises it in steps as requests go on, so that a read
    at the end of momentum_solve grew with the sessions a run fitted in.
    """
    size = workload.max_samples
    times: dict[str, np.ndarray] = defaultdict(lambda: np.full(size, np.nan))
    with PROBE:
        start = time.perf_counter()
        i = 0
        while i < workload.min_requests or time.perf_counter() - start < seconds:
            slot = i % size
            for key, value in workload.request(i, counters, full_check=False).items():
                if key == "window":
                    times["start"][slot], times["end"][slot] = value
                else:
                    times[key][slot] = value
            i += 1
            if i == workload.min_requests:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {key: values[:min(i, size)] for key, values in times.items()}, rss_mb


def _traced_pairs(workload, counters: Counters, tracer, seconds: float,
                  max_pairs: int) -> tuple[float, int]:
    """Request i plain and traced, order alternating; returns the tracing overhead.

    The overhead compares the two sums in reference units (see
    :class:`SpeedProbe`), so that machine drift between the two halves of a
    pair does not pass for tracing cost.
    """
    sums = {False: 0.0, True: 0.0}
    timed = []
    with PROBE:
        start = time.perf_counter()
        i = 0
        while i < max_pairs and (i < 2 or time.perf_counter() - start < seconds):
            for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
                tracer.run_id = i + 1
                if with_trace:
                    with tracer:
                        out = workload.request(i, counters, full_check=True)
                else:
                    out = workload.request(i, counters, full_check=False)
                if out:
                    timed.append((with_trace, out["request"], *out["window"]))
            i += 1
    for with_trace, elapsed, t0, t1 in timed:
        sums[with_trace] += elapsed / PROBE.reference(t0, t1)
    return sums[True] / sums[False] - 1.0, i


def _root_call_times(params_list: list) -> dict:
    """Median time of explicit ``pairing_energy_roots`` and ``multiplicity_class`` calls.

    ``solve_all`` reaches its roots through a private helper and ``scan``
    never asks for the class, so tracing the workload would see neither
    function.  They are timed here as library calls on the workload's own
    points, untraced; a typed refusal is timed like an answer.
    """
    calls = (("scalar_gap.pairing_energy_roots.us", scalar_gap.pairing_energy_roots),
             ("phase_diagram.multiplicity_class.us", phase_diagram.multiplicity_class))
    times: dict[str, list[float]] = {name: [] for name, _ in calls}
    for params in params_list:
        for name, fn in calls:
            t0 = time.perf_counter()
            try:
                fn(params)
            except errors.GapEquationError:
                pass
            times[name].append(time.perf_counter() - t0)
    return {name: (statistics.median(values) * 1e6, "us") for name, values in times.items()}


def _parallel_speedup(seed: int) -> float:
    """Serial over two-thread wall time of a 40x40 library scan of the seed's lattice."""
    lat = inputs.lattice(seed, 40)
    ranges = {"lambda_b": (lat.lb_lo, lat.lb_hi, 40), "mu": (lat.mu_lo, lat.mu_hi, 40)}
    fixed = {"lambda_m": lat.lambda_m, "temperature": lat.temp}
    walls = {}
    for threads in (None, "2"):
        if threads is None:
            os.environ.pop("GAPFORGE_THREADS", None)
        else:
            os.environ["GAPFORGE_THREADS"] = threads
        try:
            t0 = time.perf_counter()
            phase_diagram.scan(ranges, fixed)
            walls[threads] = time.perf_counter() - t0
        finally:
            os.environ.pop("GAPFORGE_THREADS", None)
    return walls[None] / walls["2"]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--plant-wrong", action="store_true",
                    help="self-test hook: corrupt one answer so the oracle must count it")
    args = ap.parse_args(argv)

    if args.plant_wrong:
        _plant_wrong_solution()
    counters = Counters()
    workload = WORKLOADS[args.workload](args.seed, args.quick, args.tmp)
    result: dict = {
        "workload": args.workload, "seed": args.seed, "quick": args.quick,
        "input_digest": workload.digest,
        "python": platform.python_version(), "numpy": np.__version__,
        "gapforge_file": os.path.dirname(core_types.__file__),
    }
    if args.trace == 0:
        times, result["peak_rss_mb"] = _closed_loop(workload, counters, args.seconds)
        req = times["request"]
        refs = np.fromiter(map(PROBE.reference, times["start"], times["end"]),
                           dtype=float, count=req.size)
        norm = req / refs
        result["e2e"] = {"request_mix_median_ref": (_mix_median(workload, times, norm), "ref")}
        # Not gated: a preempted 0.1 ms request weighs as much in the mean as
        # hundreds of others, and its spread on point_solve reached 0.085.
        result["report"] = {"request_mean_ref": (float(norm.mean()), "ref"),
                            **_timing("request", req * 1e3, "ms"),
                            **workload.report(times),
                            "requests_per_s": (req.size / float(req.sum()), "1/s"),
                            "reference_loop_ms": (statistics.median(PROBE.durations) * 1e3, "ms"),
                            "reference_samples": (len(PROBE.durations), "count")}
    else:
        from tracing import Tracer, layer_metrics

        global _untraced
        tracer = Tracer(clock=lambda: time.perf_counter() - PROBE.paused)
        _untraced = tracer.paused
        # point_solve requests are tiny: cap them so the span list stays small
        cap = 4000 if isinstance(workload, PointSolve) else 1000
        overhead, pairs = _traced_pairs(workload, counters, tracer, args.seconds / 2.0, cap)
        tracer.run_id = 0
        others = [cls(args.seed, True, args.tmp) for name, cls in WORKLOADS.items()
                  if name != args.workload]
        with tracer:
            for other in others:
                for i in range(other.coverage_requests):
                    other.request(i, counters, full_check=True)
        layers = layer_metrics(tracer)
        layers.update(_root_call_times(workload.call_params()))
        layers["trace_overhead_frac"] = (overhead, "ratio")
        layers["phase_diagram.scan.parallel_speedup"] = (_parallel_speedup(args.seed), "ratio")
        layers["cli.output_bytes"] = (statistics.mean(counters.cli_bytes), "bytes")
        result["per_layer"] = layers
        result["report"] = {"traced_pairs": (pairs, "count"), "spans": (len(tracer.names), "count")}
        if args.spans:
            tracer.dump(args.spans)
    workload.audit(counters)
    if args.trace:
        result["per_layer"]["audit.known_defects"] = (counters.defects, "count")
    result["attempted"] = counters.attempted
    result["failed"] = counters.failed + counters.refused
    result["report"]["failed_frac"] = (counters.failed / max(counters.attempted, 1), "ratio")
    result["report"]["refused_frac"] = (counters.refused / max(counters.attempted, 1), "ratio")
    result["failure_reasons"] = counters.reasons
    result["report"]["audited"] = (counters.audited, "count")
    result["report"]["known_defects"] = (counters.defects, "count")
    result["report"]["known_defect_frac"] = (counters.defects / max(counters.audited, 1),
                                             "ratio")
    result["known_defect_reasons"] = counters.defect_reasons
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _plant_wrong_solution() -> None:
    """Make solve_all report one mixed branch with a 1% larger w_bar.

    Used only by the self-tests: the oracle must count the corrupted answers
    as failed.
    """
    import dataclasses

    original = scalar_gap.solve_all

    def corrupted(params, *a, **k):
        report = original(params, *a, **k)
        if len(report.solutions) < 2:
            return report
        bad = dataclasses.replace(report.solutions[1], w_bar=report.solutions[1].w_bar * 1.01)
        return dataclasses.replace(report, solutions=(report.solutions[0], bad,
                                                      *report.solutions[2:]))

    scalar_gap.solve_all = corrupted
    phase_diagram.solve_all = corrupted


if __name__ == "__main__":
    sys.exit(main())
