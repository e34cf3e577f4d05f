"""Region classification and parameter-space scans.

Two complementary views of where solutions live:

* :func:`classify_region` evaluates the closed-form coupling-plane
  inequalities — cheap, and independent of any root finding.  Labels:
  ``A+``/``B+``/``C+`` on the repulsive-pairing side (split by which of the
  two asymptotic windows is available), ``A-``/``B-`` on the attractive
  side, ``none`` where no mixed solution is possible.  It lives in
  ``scalar_gap``, :class:`RegionLabel` in ``core_types``; both re-exported.
* :func:`multiplicity_class` counts the roots that
  :func:`~gapforge.scalar_gap.pairing_energy_roots` returns, so it shares
  the root finder's tangency band by construction.

The two are cross-checked by tests, not merged: the region map may
over-approximate near its boundaries, so consistency is only asserted away
from them.

Scans walk a row-major lattice over (lambda_b, lambda_m, mu, temperature) in
that fixed axis order, solve every point with
:func:`~gapforge.scalar_gap.solve_all`, and emit one :class:`ScanRow` each:
a ``NamedTuple`` record in :data:`SCAN_COLUMNS` order, which the writers
pass on as it is; ``row._asdict()`` gives its JSON object
(:func:`dataclasses.asdict` does not apply to it).
The one piece of work points share, the pure mean-field root, which depends
on (lambda_m, temperature) alone, comes from ``solve_all``'s bounded cache,
so a lattice at fixed lambda_m and T solves it once, and one whose
(lambda_m, T) plane fits the cache (256 points) once per pair; every row is
the same as from a fresh solve.  Points that fail validation land in the
row's ``error`` column; a scan never aborts half-way.

A lattice of 1000 points or more is solved on every CPU the process may
run on.  It is cut into ``n = min(usable CPUs, points // _MIN_CHUNK)``
shares, which :func:`gapforge._forked.run` solves, the first in process and
the others in forked children, since the solver is pure Python and holds
the GIL; that helper states the rules (no knob, one usable CPU or no
affinity call scans in process, a failed share is solved again here).  Work
grows with lambda_b, so the shares are round-robin (point ``i`` goes to
share ``i % n``), not contiguous blocks.  The rows are the values a serial
scan computes, interleaved back into row-major order, so output stays
reproducible byte for byte.

Each ranged axis is a lattice of evenly spaced doubles, both ends included:
the values of an array ``linspace``, built with :mod:`math` alone, so this
module, like the rest of the scalar core, needs no array package.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from enum import Enum
from functools import partial
from typing import IO, Iterable, Mapping, NamedTuple

from ._forked import run, usable_cpus
from .core_types import ModelParams, PhaseLabel, RegionLabel
from .errors import ConfigError, DomainError, GapEquationError, ZeroTemperature
from .scalar_gap import (  # noqa: F401 - classify_region is re-exported
    classify_region,
    equilibrium_mu,
    pairing_energy_roots,
    solve_all,
)

_AXES = ("lambda_b", "lambda_m", "mu", "temperature")


class MultiplicityClass(str, Enum):
    """Root count of the pairing-energy equation; members listed by count."""

    NO_SOLUTION = "no_solution"
    UNIQUE = "unique"
    TWO = "two"


def multiplicity_class(params: ModelParams) -> MultiplicityClass:
    """The class of ``len(pairing_energy_roots(params))``.

    The root finder alone decides the count, the tangency band included:
    two roots below the tangency curve, the single tangent root on its band
    and none above it on the repulsive side, at most one on the attractive
    side.  ``lambda_b = 0``, where the pairing channel is inactive, has no
    solution.  Positive temperature required: the reduced variables live
    at T > 0.
    """
    if params.is_zero_temperature:
        raise ZeroTemperature("multiplicity classes are defined at T > 0")
    if params.lambda_b == 0.0:
        return MultiplicityClass.NO_SOLUTION
    return list(MultiplicityClass)[len(pairing_energy_roots(params))]


class ScanRow(NamedTuple):
    """One lattice point of a scan, flattened for delimited output.

    A tuple in :data:`SCAN_COLUMNS` order with named fields.  Solution
    columns hold ``None`` (empty CSV field, JSON null) when the
    corresponding branch does not exist — never a placeholder zero.  The
    ``error`` column is set, and all physics columns cleared, for points
    whose evaluation raised.
    """

    lambda_b: float
    lambda_m: float
    mu: float
    temperature: float
    region: RegionLabel | None
    multiplicity: int | None
    delta_m_pure: float | None
    w_bar_pure: float | None
    delta_m_lower: float | None
    delta_b_lower: float | None
    w_bar_lower: float | None
    delta_m_upper: float | None
    delta_b_upper: float | None
    w_bar_upper: float | None
    error: str | None


SCAN_COLUMNS = ScanRow._fields

_NO_BRANCH = (None, None, None)  # delta_m, delta_b, w_bar of a missing branch


def _evaluate_point(lb: float, lm: float, mu: float, T: float,
                    tol: float) -> ScanRow:
    try:
        report = solve_all(ModelParams(lb, lm, mu, T), tol=tol)
    except GapEquationError as exc:
        return ScanRow(lb, lm, mu, T, None, None, None, None,
                       *_NO_BRANCH, *_NO_BRANCH, str(exc))
    pure, *mixed = report.solutions
    lower = upper = _NO_BRANCH
    for sol in mixed:
        branch = (sol.delta_m, sol.delta_b, sol.w_bar)
        if sol.phase is PhaseLabel.MIXED_UPPER:
            upper = branch
        else:
            lower = branch
    return ScanRow(lb, lm, mu, T, report.region, report.multiplicity,
                   pure.delta_m, pure.w_bar, *lower, *upper, None)


def _lattice(lo: float, hi: float, steps: int) -> list[float]:
    """``steps`` evenly spaced doubles from ``lo`` to ``hi``, both included.

    Point ``i`` is ``i*step + lo`` and the last one is ``hi``; where ``step``
    underflows to zero it is ``i/div*width + lo``.  These are the doubles an
    array ``linspace(lo, hi, steps)`` gives, bit for bit.  A width
    ``hi - lo`` that overflows, where ``linspace`` gives ``nan`` and
    ``inf``, is walked in halves: each point is twice that of the range
    ``(lo/2, hi/2)``, an exact scaling at those magnitudes.
    """
    div = steps - 1
    width = hi - lo
    if math.isinf(width):
        return [2.0 * x for x in _lattice(0.5 * lo, 0.5 * hi, steps)]
    if div == 0:
        return [0.0 * width + lo]  # a zero lo takes the sign linspace gives it
    step = width / div
    if step == 0.0:
        points = [i / div * width + lo for i in range(div)]
    else:
        points = [i * step + lo for i in range(div)]
    points.append(hi)
    return points


def _step_count(steps) -> int | None:
    """``steps`` as an int when it is a whole number >= 1, else None.

    A whole float such as ``3.0`` counts; ``2.7``, ``nan`` and ``inf`` do not.
    """
    try:
        count = int(steps)
    except (TypeError, ValueError, OverflowError):
        return None
    return count if count == steps and count >= 1 else None


def scan(ranges: Mapping[str, tuple[float, float, int]],
         fixed: Mapping[str, float], tol: float = 1e-10) -> list[ScanRow]:
    """Row-major lattice scan; every parameter set exactly once.

    ``ranges`` maps axis names to ``(lo, hi, steps)`` triples sampled at
    evenly spaced points, both ends included, also where the width
    ``hi - lo`` overflows; ``fixed`` pins the remaining axes.  Axis order
    in the output is always lambda_b, then lambda_m, then mu, then
    temperature — independent of mapping order.  A lattice of 1000 points
    or more (twice ``_MIN_CHUNK``) is split round-robin over
    ``min(usable CPUs, points // _MIN_CHUNK)`` processes (see the module
    docstring); the rows, and any exception, are those of a serial scan.
    A ``tol`` that is not finite and non-negative is a :class:`ConfigError`
    raised before any point is solved.
    """
    overlap = set(ranges) & set(fixed)
    if overlap:
        raise ConfigError(f"parameters both ranged and fixed: {sorted(overlap)}")
    unknown = (set(ranges) | set(fixed)) - set(_AXES)
    if unknown:
        raise ConfigError(f"unknown scan parameters: {sorted(unknown)}")
    missing = set(_AXES) - set(ranges) - set(fixed)
    if missing:
        raise ConfigError(f"unspecified scan parameters: {sorted(missing)}")
    if not 0.0 <= tol < math.inf:
        raise ConfigError(f"tol must be finite and non-negative, got {tol!r}")

    axes: list[list[float]] = []
    for name in _AXES:
        if name in fixed:
            axes.append([float(fixed[name])])
            continue
        lo, hi, steps = ranges[name]
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigError(f"range for {name} must be finite, got ({lo}, {hi})")
        count = _step_count(steps)
        if count is None:
            raise ConfigError(
                f"range for {name} needs a whole number of steps >= 1, got {steps!r}")
        axes.append(_lattice(float(lo), float(hi), count))

    points = math.prod(map(len, axes))
    n = min(usable_cpus(), points // _MIN_CHUNK)
    if n < 2:
        return _rows(axes, tol)
    # children send their rows as plain tuples, which pickle ~6x faster than ScanRow
    shares = run([partial(_rows, axes, tol, 0, n)]
                 + [partial(_plain_rows, axes, tol, share, n) for share in range(1, n)])
    rows: list = [None] * points
    rows[0::n] = shares[0]
    for share in range(1, n):
        rows[share::n] = map(ScanRow._make, shares[share])
    return rows


# A share below this many points (~25 ms of solving) gains too little over the
# ~4 ms that a fork and its pickled rows cost
_MIN_CHUNK = 500


def _rows(axes: list[list[float]], tol: float, share: int = 0,
          shares: int = 1) -> list[ScanRow]:
    """Rows of lattice points ``share``, ``share + shares``, ... in row-major order."""
    points = itertools.islice(itertools.product(*axes), share, None, shares)
    return [_evaluate_point(*pt, tol) for pt in points]


def _plain_rows(axes: list[list[float]], tol: float, share: int,
                shares: int) -> list[tuple]:
    """:func:`_rows` as plain tuples."""
    return list(map(tuple, _rows(axes, tol, share, shares)))


def equilibrium_curve(lo: float, hi: float,
                      steps: int) -> list[tuple[float, float, float]]:
    """Sample the tangency curve: (lambda_b_bar, mu_e_bar, x_e) triples.

    The reduced coupling range must sit strictly above 1, where the curve
    exists, and is sampled at ``steps`` evenly spaced points, both ends
    included; ``mu_e_bar`` is strictly increasing across the returned list.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or not 1.0 < lo <= hi:
        raise DomainError(
            f"equilibrium curve needs 1 < lo <= hi finite, got ({lo!r}, {hi!r})"
        )
    count = _step_count(steps)
    if count is None:
        raise DomainError(f"steps must be a whole number >= 1, got {steps!r}")
    return [(value, *equilibrium_mu(value))
            for value in _lattice(float(lo), float(hi), count)]


def write_scan_csv(rows: Iterable[ScanRow], stream: IO[str]) -> None:
    """CSV with a mandatory header, LF line endings, shortest-round-trip floats.

    :mod:`csv` writes ``None`` as an empty field, a float by its ``repr``
    and a region label by its value.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(SCAN_COLUMNS)
    writer.writerows(rows)


def write_scan_json(rows: Iterable[ScanRow], stream: IO[str]) -> None:
    """JSON mirror of the CSV: an array of one object per row."""
    # a region label is a str, which json writes as its value
    json.dump([dict(zip(SCAN_COLUMNS, row)) for row in rows], stream, indent=2)
    stream.write("\n")
