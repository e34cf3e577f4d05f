"""Region classification and parameter-space scans.

Two complementary views of where solutions live:

* :func:`classify_region` evaluates the closed-form coupling-plane
  inequalities — cheap, and independent of any root finding.  Labels:
  ``A+``/``B+``/``C+`` on the repulsive-pairing side (split by which of the
  two asymptotic windows is available), ``A-``/``B-`` on the attractive
  side, ``none`` where no mixed solution is possible.  It lives in
  ``core_types`` with :class:`RegionLabel`; both re-exported.
* :func:`multiplicity_class` counts the roots that
  :func:`~gapforge.scalar_gap.pairing_energy_roots` returns, so it shares
  the root finder's tangency test by construction.

The two are cross-checked by tests, not merged: the region map may
over-approximate near its boundaries, so consistency is only asserted away
from them.

Scans walk a row-major lattice over (lambda_b, lambda_m, mu, temperature) in
that fixed axis order, solve every point with
:func:`~gapforge.scalar_gap.solve_all`, and emit one :class:`ScanRow` each:
a ``NamedTuple`` record in :data:`SCAN_COLUMNS` order, which the writers
pass on as it is; ``row._asdict()`` gives its JSON object
(:func:`dataclasses.asdict` does not apply to it).
The one piece of work points share, the pure mean-field branch, which
depends on (lambda_m, mu, 1/T) and not on lambda_b, comes from two bounded
caches of 256 entries in ``solve_all``: the branch itself, which each
lambda_b row after the first finds there while the (lambda_m, mu, T) block
inside lambda_b fits, and its root, which depends on (lambda_m, T) alone,
so a lattice at fixed lambda_m and T polishes it once.  A larger block
builds the branch at every point, and polishes its root at every point too
where the (lambda_m, T) pairs also exceed 256.  Every row is the same as
from a fresh solve.  Points that fail validation land in the
row's ``error`` column; a scan never aborts half-way.

A lattice of 1000 points or more is solved, and a CSV of 4000 rows or more
formatted, on every CPU the process may run on: :func:`gapforge._forked.run`
deals the points, or the ``_CSV_BLOCK``-row blocks, round-robin over
``points // _MIN_CHUNK`` or ``rows // _MIN_CSV_SHARE`` shares at most, since
the solver is pure Python and holds the GIL and a point's cost grows with
lambda_b.  Rows and text come back in row-major order, so output is that of
a serial scan byte for byte; ``run`` states the rules (no knob, one usable
CPU or no affinity call runs in process, a failed share runs again here);
the CSV is written once every block is formatted.

The CSV holds the bytes :mod:`csv` writes, but not by csv's per-field pass:
the cells of a row are joined with commas, and only a text that holds a
comma, a quote, a CR, an LF or a NUL goes through csv, which alone decides
its quoting.  A lattice repeats each axis value, and the pure branch
depends on (lambda_m, mu, temperature) alone, so the ``repr`` of each
nonzero float in the columns up to ``w_bar_pure`` is kept in a dict that
one write makes and each share fills for itself.

Each ranged axis is a lattice of evenly spaced doubles, both ends included:
the values of an array ``linspace``, built with :mod:`math` alone, so this
module, like the rest of the scalar core, needs no array package.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
import re
from enum import Enum
from typing import IO, Iterable, Mapping, NamedTuple

from ._forked import run
from .core_types import ModelParams, PhaseLabel, RegionLabel, classify_region  # noqa: F401
from .errors import ConfigError, DomainError, GapEquationError, ZeroTemperature
from .scalar_gap import equilibrium_mu, pairing_energy_roots, solve_all

_AXES = ("lambda_b", "lambda_m", "mu", "temperature")


class MultiplicityClass(str, Enum):
    """Root count of the pairing-energy equation; members listed by count."""

    NO_SOLUTION = "no_solution"
    UNIQUE = "unique"
    TWO = "two"


def multiplicity_class(params: ModelParams) -> MultiplicityClass:
    """The class of ``len(pairing_energy_roots(params))``.

    The root finder alone decides the count: two roots below the tangency
    curve, the single tangent root on it to rounding and none above it on
    the repulsive side, at most one on the attractive side.
    ``lambda_b = 0``, where the pairing channel is inactive, has no
    solution.  Positive temperature required: the reduced variables live at
    T > 0.
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


def _evaluate_point(point: tuple[float, float, float, float]) -> tuple:
    """The :class:`ScanRow` fields of ``(lambda_b, lambda_m, mu, temperature)``.

    A plain tuple, which a forked share pickles ~6x faster than a ScanRow.
    """
    lb, lm, mu, T = point
    try:
        report = solve_all(ModelParams(lb, lm, mu, T))
    except GapEquationError as exc:
        return (lb, lm, mu, T, None, None, None, None,
                None, None, None, None, None, None, str(exc))
    solutions = report.solutions
    pure, last = solutions[0], solutions[-1]
    if len(solutions) == 3:  # pure, then the lower and the upper branch by w_bar
        lower = solutions[1]
        return (lb, lm, mu, T, report.region, 2, pure.delta_m, pure.w_bar,
                lower.delta_m, lower.delta_b, lower.w_bar,
                last.delta_m, last.delta_b, last.w_bar, None)
    if len(solutions) == 1:
        return (lb, lm, mu, T, report.region, 0, pure.delta_m, pure.w_bar,
                None, None, None, None, None, None, None)
    if last.phase is PhaseLabel.MIXED_UPPER:
        return (lb, lm, mu, T, report.region, 1, pure.delta_m, pure.w_bar,
                None, None, None, last.delta_m, last.delta_b, last.w_bar, None)
    # a lone lower, attractive or tangent root fills the lower columns
    return (lb, lm, mu, T, report.region, 1, pure.delta_m, pure.w_bar,
            last.delta_m, last.delta_b, last.w_bar, None, None, None, None)


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
         fixed: Mapping[str, float]) -> list[ScanRow]:
    """Row-major lattice scan; every parameter set exactly once.

    ``ranges`` maps axis names to ``(lo, hi, steps)`` triples sampled at
    evenly spaced points, both ends included, also where the width
    ``hi - lo`` overflows; ``fixed`` pins the remaining axes.  Axis order
    in the output is always lambda_b, then lambda_m, then mu, then
    temperature — independent of mapping order.  A lattice of 1000 points
    or more (twice ``_MIN_CHUNK``) is dealt over at most
    ``points // _MIN_CHUNK`` processes (see the module docstring); the rows
    are those of a serial scan, and an exception is the one that
    :func:`gapforge._forked.run` states.
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

    points = list(itertools.product(*axes))
    return list(map(ScanRow._make, run(_evaluate_point, points, len(points) // _MIN_CHUNK)))


# A share below this many points (~25 ms of solving) gains too little over the
# ~4 ms that a fork and its pickled rows cost
_MIN_CHUNK = 500


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

    The bytes are those ``csv.writer(stream, lineterminator="\\n")`` writes
    for the header and ``rows``: ``None`` as an empty field, a float by its
    ``repr``, a region label by its value; csv alone decides the quoting of
    a text (see the module docstring).  The rows are formatted in
    ``_CSV_BLOCK``-row blocks, from ``2 * _MIN_CSV_SHARE`` rows on over
    every usable CPU; then the header and the blocks are written, the bytes
    of a serial write.  A row whose cell count is not that of the header
    raises ``ValueError``, a row that cannot be formatted raises as
    :func:`gapforge._forked.run` states, and either way nothing is written.
    """
    rows = list(rows)
    lengths = set(map(len, rows)) - {len(SCAN_COLUMNS)}
    if lengths:
        raise ValueError(f"a scan row has {len(SCAN_COLUMNS)} cells, got {sorted(lengths)}")
    blocks = [rows[start:start + _CSV_BLOCK] for start in range(0, len(rows), _CSV_BLOCK)]
    texts = run(functools.partial(_csv_text, floats={}), blocks, len(rows) // _MIN_CSV_SHARE)
    csv.writer(stream, lineterminator="\n").writerow(SCAN_COLUMNS)
    stream.writelines(texts)


# A share below this many rows (~7 ms of formatting at ~3.5 ms per 1000 rows)
# gains too little over its fork, pickled text and reap: on a 2-CPU box a
# 2025-row CSV took 7.3 ms in two shares and 7.3 ms in process (10.6 and 7.7 ms
# at the median of 40), a 3969-row one 11.9 and 14.2 ms
_MIN_CSV_SHARE = 2000
# Blocks this small deal rows whose cost drifts along the lattice evenly
_CSV_BLOCK = 64
# The lattice point and the pure branch: a lattice repeats each axis value, and
# the pure branch depends on (lambda_m, mu, temperature) alone
_REPEATING = SCAN_COLUMNS.index("delta_m_lower")
# A text holding one of these goes through csv, which alone decides its quoting
# (Python 3.10's csv refuses a NUL, 3.11's leaves a lone CR unquoted)
_FOR_CSV = re.compile('[,"\r\n\0]').search


def _csv_text(rows: list[ScanRow], floats: dict[float, str]) -> str:
    """The CSV text of ``rows``, cell for cell as :mod:`csv` writes it.

    ``floats`` holds the ``repr`` of each nonzero float met so far in the
    repeating columns; a zero, whose sign a key would lose, and a value of
    any other type are formatted every time.  The rows, all of one length,
    are formatted column by column.
    """
    columns = list(zip(*rows))
    texts = [[floats.get(value) or _remembered(value, floats)
              if value.__class__ is float and value else _cell(value)
              for value in column] for column in columns[:_REPEATING]]
    texts += [["" if value is None else repr(value) if value.__class__ is float
               else _cell(value) for value in column] for column in columns[_REPEATING:]]
    lines = list(map(",".join, zip(*texts)))
    lines.append("")
    return "\n".join(lines)


def _remembered(value: float, floats: dict[float, str]) -> str:
    """``repr(value)``, kept in ``floats`` unless ``value`` is a nan."""
    text = repr(value)
    if value == value:  # a nan equals no key: each would add one
        floats[value] = text
    return text


def _cell(value) -> str:
    """The text csv writes for one cell."""
    if value is None:
        return ""
    if value.__class__ is float:
        return repr(value)
    text = value if isinstance(value, str) else str(value)
    if _FOR_CSV(text) is None:
        return text
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow((text,))
    return buffer.getvalue()[:-1]


def write_scan_json(rows: Iterable[ScanRow], stream: IO[str]) -> None:
    """JSON mirror of the CSV: an array of one object per row."""
    # a region label is a str, which json writes as its value
    json.dump([dict(zip(SCAN_COLUMNS, row)) for row in rows], stream, indent=2)
    stream.write("\n")
