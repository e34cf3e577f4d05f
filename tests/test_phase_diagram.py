"""Tests for region classification, multiplicity classes, and lattice scans."""

import csv
import errno
import io
import json
import math
import os
import random
import signal
import struct
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gapforge import phase_diagram, scalar_gap
from gapforge.core_types import ModelParams, to_reduced
from gapforge.errors import ConfigError, DomainError, ZeroTemperature
from gapforge.phase_diagram import (
    SCAN_COLUMNS,
    MultiplicityClass,
    RegionLabel,
    ScanRow,
    classify_region,
    equilibrium_curve,
    multiplicity_class,
    scan,
    write_scan_csv,
    write_scan_json,
)
from gapforge.scalar_gap import equilibrium_mu, pairing_energy_roots, solve_all


def _params(lb, lm, mu, T=0.5):
    return ModelParams(lambda_b=lb, lambda_m=lm, mu=mu, temperature=T)


# ---------------------------------------------------------------------------
# region classification


def test_repulsive_regions():
    assert classify_region(_params(5.0, 0.0, 1.0)) is RegionLabel.B_PLUS
    assert classify_region(_params(2.0, 1.0, 1.0)) is RegionLabel.A_PLUS
    assert classify_region(_params(5.0, -4.0, 1.0)) is RegionLabel.C_PLUS
    assert classify_region(_params(1.0, 0.0, 1.0)) is RegionLabel.NONE
    assert classify_region(_params(0.0, 0.0, 1.0)) is RegionLabel.NONE


def test_repulsive_boundaries_are_sharp():
    # A+/B+ flips where lambda_m = (lambda_b - 4 mu)/4, here 0.25
    assert classify_region(_params(5.0, 0.25, 1.0)) is RegionLabel.A_PLUS
    assert classify_region(_params(5.0, 0.25 - 1e-9, 1.0)) is RegionLabel.B_PLUS
    # B+/C+ flips where lambda_m = -(lambda_b + mu)/2, here -3
    assert classify_region(_params(5.0, -3.0, 1.0)) is RegionLabel.C_PLUS
    assert classify_region(_params(5.0, -3.0 + 1e-9, 1.0)) is RegionLabel.B_PLUS


def test_attractive_regions():
    # admissible band at (lb, mu, T) = (-2, 1, 1): -2 <= lm <= -0.25
    assert classify_region(_params(-2.0, -1.0, 1.0, 1.0)) is RegionLabel.B_MINUS
    assert classify_region(_params(-2.0, -0.3, 1.0, 1.0)) is RegionLabel.A_MINUS
    assert classify_region(_params(-2.0, -0.1, 1.0, 1.0)) is RegionLabel.NONE
    assert classify_region(_params(-2.0, -2.5, 1.0, 1.0)) is RegionLabel.NONE
    # B-/A- split at -(lb + 4 mu)/4 = -0.5
    assert classify_region(_params(-2.0, -0.5, 1.0, 1.0)) is RegionLabel.A_MINUS
    assert classify_region(_params(-2.0, -0.5 - 1e-9, 1.0, 1.0)) is RegionLabel.B_MINUS


def test_attractive_band_widens_as_temperature_drops():
    # upper bound -mu T / (|lb| + 2T): approaches 0- at T = 0 and -mu/2 at
    # T = inf, so cooling admits more of the negative lambda_m axis
    assert classify_region(_params(-2.0, -0.1, 1.0, 0.0)) is RegionLabel.A_MINUS
    assert classify_region(_params(-2.0, -0.4, 1.0, 1e-6)) is RegionLabel.A_MINUS
    assert classify_region(_params(-2.0, -0.4, 1.0, math.inf)) is RegionLabel.NONE
    assert classify_region(_params(-2.0, -0.6, 1.0, math.inf)) is RegionLabel.B_MINUS


def test_region_bounds_do_not_overflow_at_extreme_scale():
    # the labels of the unit points, which the bounds used to lose to an
    # overflow (none for the first, A+ for the second)
    c = 1e200
    assert classify_region(_params(-1.0, -0.5, 1.0, 1.0)) is RegionLabel.A_MINUS
    assert classify_region(_params(-c, -0.5 * c, c, c)) is RegionLabel.A_MINUS
    assert classify_region(_params(1.7, -0.1, 0.5, 1.0)) is RegionLabel.B_PLUS
    assert classify_region(_params(1.7e308, -1e307, 0.5e308, 1.0)) is RegionLabel.B_PLUS


@pytest.mark.parametrize("values", [
    (-1e308, -0.1, 1.0, 1e308),  # |lambda_b| + 2T overflows
    (-1.0, -1e-309, 1e-308, 1.0),  # its twin scaled by 1e-308
])
def test_attractive_upper_bound_survives_an_overflowing_sum(values):
    # the upper bound is -mu/3 at T = |lambda_b|, and lambda_m lies above it
    assert classify_region(_params(*values)) is RegionLabel.NONE


@pytest.mark.parametrize("values, shift, label", [
    ((-1.0, -0.3, 1.0, 1.0), 1023, RegionLabel.NONE),
    ((-1.0, -0.34, 1.0, 1.0), 1023, RegionLabel.A_MINUS),
    ((-3.0, -0.2, 1.0, 1.0), 1022, RegionLabel.A_MINUS),  # on the bound
    ((-3.0, -0.3, 1.0, 1.0), 1022, RegionLabel.B_MINUS),
    ((-1.0, -0.5, 1.0, 3.0), 1022, RegionLabel.A_MINUS),
])
def test_attractive_labels_keep_where_the_bound_sum_overflows(values, shift, label):
    # scaling by a power of two is exact, so the label of the unit point
    # must hold where |lambda_b| + 2T passes the largest double
    lb, lm, mu, T = (math.ldexp(v, shift) for v in values)
    assert math.isinf(abs(lb) + 2.0 * T)
    assert classify_region(_params(*values)) is label
    assert classify_region(_params(lb, lm, mu, T)) is label


# ---------------------------------------------------------------------------
# multiplicity classes


def test_multiplicity_two_sided_split():
    # reduced mu at T = 0.5 equals mu; the tangency value for
    # lambda_b_bar = 4 is ~2.147
    assert multiplicity_class(_params(4.0, 0.0, 1.0, 0.5)) is MultiplicityClass.TWO
    assert (
        multiplicity_class(_params(4.0, 0.0, 3.0, 0.5))
        is MultiplicityClass.NO_SOLUTION
    )


def test_multiplicity_on_the_tangency_curve():
    mu_e, _ = equilibrium_mu(4.0)
    params = _params(4.0, 0.0, 2.0 * 0.5 * mu_e, 0.5)
    assert multiplicity_class(params) is MultiplicityClass.UNIQUE


def test_multiplicity_degenerate_cases():
    assert multiplicity_class(_params(4.0, 0.0, 0.0, 0.5)) is MultiplicityClass.UNIQUE
    assert (
        multiplicity_class(_params(4.0, 0.0, 1.0, 2.5))
        is MultiplicityClass.NO_SOLUTION
    )  # reduced coupling 0.8 < 1
    assert (
        multiplicity_class(_params(4.0, 0.0, 1.0, 2.0))
        is MultiplicityClass.NO_SOLUTION
    )  # exactly 1
    assert (
        multiplicity_class(_params(0.0, 0.0, 1.0, 0.5))
        is MultiplicityClass.NO_SOLUTION
    )
    assert (
        multiplicity_class(_params(4.0, 0.0, 1.0, math.inf))
        is MultiplicityClass.NO_SOLUTION
    )


def test_multiplicity_attractive_side():
    assert multiplicity_class(_params(-5.0, -0.9, 1.0, 2.0)) is MultiplicityClass.UNIQUE
    assert (
        multiplicity_class(_params(-5.0, -0.9, 0.0, 2.0))
        is MultiplicityClass.NO_SOLUTION
    )


def test_multiplicity_requires_positive_temperature():
    with pytest.raises(ZeroTemperature):
        multiplicity_class(_params(4.0, 0.0, 1.0, 0.0))


@given(
    lb=st.floats(1.5, 8.0),
    mu=st.floats(0.01, 3.0),
    temperature=st.floats(0.1, 3.0),
)
def test_multiplicity_class_counts_actual_roots(lb, mu, temperature):
    params = _params(lb, 0.0, mu, temperature)
    red = to_reduced(params)
    if red.lambda_b_bar > 1.0:
        mu_e, _ = equilibrium_mu(red.lambda_b_bar)
        assume(abs(red.mu_bar - mu_e) > 1e-6)
    assume(abs(red.lambda_b_bar - 1.0) > 1e-9)
    expected = {
        0: MultiplicityClass.NO_SOLUTION,
        1: MultiplicityClass.UNIQUE,
        2: MultiplicityClass.TWO,
    }[len(pairing_energy_roots(params))]
    assert multiplicity_class(params) is expected


@given(
    lb=st.floats(-8.0, 8.0),
    mu=st.floats(0.0, 5.0),
    temperature=st.floats(1e-3, 5.0),
)
def test_multiplicity_class_matches_the_root_count_everywhere(lb, mu, temperature):
    assume(lb != 0.0)
    params = _params(lb, 0.0, mu, temperature)
    count = len(pairing_energy_roots(params))
    assert multiplicity_class(params) is [MultiplicityClass.NO_SOLUTION,
                                          MultiplicityClass.UNIQUE,
                                          MultiplicityClass.TWO][count]


@given(
    lb_bar=st.floats(1.0, 30.0),
    offset=st.floats(-3e-5, 3e-5),
    temperature=st.floats(1e-3, 5.0),
)
def test_multiplicity_class_matches_the_root_count_on_the_tangency_band(
        lb_bar, offset, temperature):
    mu_bar = equilibrium_mu(lb_bar)[0] + offset
    assume(mu_bar >= 0.0)
    params = _params(2 * temperature * lb_bar, 0.0, 2 * temperature * mu_bar,
                     temperature)
    count = len(pairing_energy_roots(params))
    assert multiplicity_class(params) is [MultiplicityClass.NO_SOLUTION,
                                          MultiplicityClass.UNIQUE,
                                          MultiplicityClass.TWO][count]


# ---------------------------------------------------------------------------
# equilibrium curve sampling


def test_equilibrium_curve_is_increasing():
    curve = equilibrium_curve(1.2, 10.0, 5)
    assert len(curve) == 5
    assert curve[0][0] == 1.2 and curve[-1][0] == 10.0
    mu_e, x_e = equilibrium_mu(1.2)
    assert curve[0][1] == pytest.approx(mu_e, abs=1e-12)
    assert curve[0][2] == pytest.approx(x_e, abs=1e-12)
    mu_values = [m for _, m, _ in curve]
    assert all(a < b for a, b in zip(mu_values, mu_values[1:]))


def test_equilibrium_curve_domain():
    with pytest.raises(DomainError):
        equilibrium_curve(1.0, 5.0, 3)
    with pytest.raises(DomainError):
        equilibrium_curve(2.0, 1.5, 3)
    with pytest.raises(DomainError):
        equilibrium_curve(1.2, math.inf, 3)
    with pytest.raises(DomainError):
        equilibrium_curve(1.2, 5.0, 0)


@pytest.mark.parametrize("steps", [2.7, 0.5, math.nan, math.inf])
def test_equilibrium_curve_refuses_a_fractional_step_count(steps):
    with pytest.raises(DomainError, match="whole number"):
        equilibrium_curve(1.5, 3.0, steps)


def test_equilibrium_curve_takes_a_whole_float_step_count():
    assert equilibrium_curve(1.5, 3.0, 3.0) == equilibrium_curve(1.5, 3.0, 3)


# ---------------------------------------------------------------------------
# scans


def test_single_point_scan_mirrors_the_direct_solve():
    fixed = dict(lambda_b=4.0, lambda_m=0.0, mu=1.0, temperature=0.5)
    rows = scan({}, fixed)
    assert len(rows) == 1
    row = rows[0]
    report = solve_all(ModelParams(**fixed))
    assert row.region is report.region
    assert row.multiplicity == report.multiplicity
    assert row.delta_m_pure == report.pure.delta_m
    assert row.w_bar_pure == report.pure.w_bar
    assert row.delta_b_lower == report.mixed[0].delta_b
    assert row.delta_b_upper == report.mixed[-1].delta_b
    assert row.error is None


def test_scan_walks_axes_in_row_major_order():
    rows = scan(
        {"mu": (0.5, 1.0, 2), "lambda_b": (2.0, 3.0, 2)},
        {"lambda_m": 0.0, "temperature": 0.5},
    )
    seen = [(row.lambda_b, row.mu) for row in rows]
    assert seen == [(2.0, 0.5), (2.0, 1.0), (3.0, 0.5), (3.0, 1.0)]


def test_scan_records_errors_per_point():
    rows = scan(
        {"mu": (-1.0, 1.0, 2)},
        {"lambda_b": 4.0, "lambda_m": 0.0, "temperature": 0.5},
    )
    assert len(rows) == 2
    bad, good = rows
    assert bad.error is not None and "mu" in bad.error
    assert bad.delta_m_pure is None and bad.multiplicity is None
    assert good.error is None and good.multiplicity == 2


def test_scan_crosses_the_transition():
    rows = scan(
        {"temperature": (0.3, 3.0, 4)},
        {"lambda_b": 4.0, "lambda_m": 0.0, "mu": 1.0},
    )
    assert rows[0].multiplicity == 2
    assert rows[0].delta_b_upper > 0.0
    assert rows[-1].multiplicity == 0
    assert rows[-1].delta_b_upper is None
    assert rows[-1].delta_m_pure is not None  # the unpaired branch persists


@pytest.mark.parametrize("steps", [2.7, 0.5, math.nan, math.inf])
def test_scan_refuses_a_fractional_step_count(steps):
    fixed = {"lambda_b": 4.0, "lambda_m": 0.0, "temperature": 0.5}
    with pytest.raises(ConfigError, match="whole number"):
        scan({"mu": (0.0, 1.0, steps)}, fixed)


def test_scan_takes_a_whole_float_step_count():
    fixed = {"lambda_b": 4.0, "lambda_m": 0.0, "temperature": 0.5}
    assert scan({"mu": (0.0, 1.0, 3.0)}, fixed) == scan({"mu": (0.0, 1.0, 3)}, fixed)


def test_scan_configuration_errors():
    fixed = dict(lambda_b=4.0, lambda_m=0.0, mu=1.0, temperature=0.5)
    with pytest.raises(ConfigError):
        scan({"mu": (0.0, 1.0, 2)}, fixed)  # ranged and fixed
    with pytest.raises(ConfigError):
        scan({"sigma": (0.0, 1.0, 2)}, fixed)
    with pytest.raises(ConfigError):
        scan({}, {"lambda_b": 4.0, "mu": 1.0})  # missing axes
    with pytest.raises(ConfigError):
        scan({"mu": (0.0, 1.0, 0)}, {k: v for k, v in fixed.items() if k != "mu"})
    with pytest.raises(ConfigError):
        scan(
            {"mu": (0.0, math.inf, 2)},
            {k: v for k, v in fixed.items() if k != "mu"},
        )


_LATTICE_EDGES = [
    (0.0, 1.0, 1), (2.5, -7.0, 1), (-0.0, 3.0, 1), (-0.0, -3.0, 1), (0.0, -0.0, 1),
    (1.5, 1.5, 1), (1.5, 1.5, 4), (-0.0, 0.0, 3), (0.0, -0.0, 3),
    (0.0, 5e-324, 3), (-5e-324, 5e-324, 7), (0.0, 1e-310, 4), (1e-310, 0.0, 9),
    (0.0, 2.2250738585072014e-308, 11), (-1.0, 1.0, 2), (5.0, -3.0, 6),
    (0.0, 1.7976931348623157e308, 5), (-1.7976931348623157e308, 0.0, 4),
    (8e307, 1.7976931348623157e308, 3), (0.1, 0.7, 100), (1.2, 5.0, 40),
]


def _random_double(rng):
    if rng.random() < 0.5:  # any finite bit pattern
        while True:
            x = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
            if math.isfinite(x):
                return x
    return rng.uniform(-10.0, 10.0) * 10.0 ** rng.randint(-320, 300)


def test_lattice_matches_linspace_bit_for_bit():
    rng = random.Random(20261018)
    cases = list(_LATTICE_EDGES)
    while len(cases) < 3000:
        lo, hi = _random_double(rng), _random_double(rng)
        if rng.random() < 0.05:
            hi = lo
        if math.isfinite(hi - lo):
            cases.append((lo, hi, rng.choice([1, 2, 3, rng.randint(1, 200)])))
    for lo, hi, steps in cases:
        with np.errstate(over="ignore"):  # numpy also forms the last point, then drops it
            want = np.linspace(lo, hi, steps).tolist()
        got = phase_diagram._lattice(lo, hi, steps)
        assert [x.hex() for x in got] == [x.hex() for x in want], (lo, hi, steps)


def test_scan_walks_an_overflowing_width_in_halves():
    top = 1.7976931348623157e308
    assert phase_diagram._lattice(-1e308, 1e308, 5) == [-1e308, -5e307, 0.0, 5e307, 1e308]
    assert phase_diagram._lattice(top, -top, 3) == [top, 0.0, -top]
    assert phase_diagram._lattice(-top, top, 1) == [-top]
    rows = scan({"lambda_b": (-1e308, 1e308, 5), "mu": (0.0, 1e308, 3)},
                {"lambda_m": -0.1, "temperature": 1e308})
    assert [row.lambda_b for row in rows[::3]] == [-1e308, -5e307, 0.0, 5e307, 1e308]
    assert [row.mu for row in rows[:3]] == [0.0, 5e307, 1e308]
    assert all(row.error is None for row in rows)


# A lattice with error rows (mu < 0), rows missing a branch and five region labels
_MIXED_RANGES = {"lambda_b": (-2.0, 5.0, 8), "mu": (-0.5, 3.0, 8)}
_MIXED_FIXED = {"lambda_m": -0.4, "temperature": 0.3}


def _usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


_FORK = os.fork


def _counted_forks(monkeypatch):
    """A list that grows by one for each os.fork the calling process makes."""
    forks = []

    def counting():
        forks.append(None)
        return _FORK()

    monkeypatch.setattr(os, "fork", counting)
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [2, 3])
def test_forked_scan_equals_the_in_process_scan(monkeypatch, workers):
    serial = scan(_MIXED_RANGES, _MIXED_FIXED)  # 64 points: below the threshold
    assert sum(row.error is not None for row in serial) == 8
    assert any(row.error is None and row.w_bar_upper is None for row in serial)
    assert len({row.region for row in serial} - {None}) == 5
    monkeypatch.setattr(phase_diagram, "_MIN_CHUNK", 4)
    _usable_cpus(monkeypatch, workers)
    forks = _counted_forks(monkeypatch)
    forked = scan(_MIXED_RANGES, _MIXED_FIXED)
    assert len(forks) == workers - 1
    _assert_no_child_left()
    assert len(forked) == len(serial)
    for got, want in zip(forked, serial):
        assert type(got) is ScanRow and got == want
        assert got.region is want.region
    for write in (write_scan_csv, write_scan_json):
        texts = []
        for rows in (forked, serial):
            buf = io.StringIO()
            write(rows, buf)
            texts.append(buf.getvalue())
        assert texts[0] == texts[1]


def test_a_scan_forks_from_twice_the_minimum_share(monkeypatch):
    side = 2 * phase_diagram._MIN_CHUNK
    fixed = {"lambda_m": 0.3, "mu": 1.0, "temperature": 0.3}

    def no_fork():
        raise AssertionError("os.fork called below the threshold")

    _usable_cpus(monkeypatch, 64)
    monkeypatch.setattr(os, "fork", no_fork)
    below = scan({"lambda_b": (0.5, 10.0, side - 1)}, fixed)
    assert len(below) == side - 1
    forks = _counted_forks(monkeypatch)
    at = scan({"lambda_b": (0.5, 10.0, side)}, fixed)
    assert len(forks) == 1 and len(at) == side  # two shares of _MIN_CHUNK
    _assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, None])
def test_one_usable_cpu_or_no_affinity_call_scans_in_process(monkeypatch, cpus):
    serial = scan(_MIXED_RANGES, _MIXED_FIXED)
    monkeypatch.setattr(phase_diagram, "_MIN_CHUNK", 4)
    if cpus is None:  # as on macOS and Windows
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:  # as under taskset -c 0
        _usable_cpus(monkeypatch, cpus)

    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", no_fork)
    assert scan(_MIXED_RANGES, _MIXED_FIXED) == serial


def test_a_failed_fork_leaves_the_share_to_the_caller(monkeypatch):
    serial = scan(_MIXED_RANGES, _MIXED_FIXED)
    monkeypatch.setattr(phase_diagram, "_MIN_CHUNK", 4)
    _usable_cpus(monkeypatch, 3)
    calls = []

    def second_fork_fails():
        calls.append(None)
        if len(calls) == 2:
            raise BlockingIOError(errno.EAGAIN, "no process to spare")
        return _FORK()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    assert scan(_MIXED_RANGES, _MIXED_FIXED) == serial
    assert len(calls) == 2
    _assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("failing", [6, 7], ids=["caller-share", "child-share"])
def test_an_exception_in_any_share_surfaces_as_in_the_serial_scan(monkeypatch, workers,
                                                                   failing):
    # with 2 or 3 shares, point 6 is solved by the caller and point 7 by a child
    point = scan(_MIXED_RANGES, _MIXED_FIXED)[failing]
    assert point.error is None
    solve = phase_diagram.solve_all

    def planted(params, **kwargs):
        if (params.lambda_b, params.mu) == (point.lambda_b, point.mu):
            raise ZeroDivisionError("planted")
        return solve(params, **kwargs)

    monkeypatch.setattr(phase_diagram, "solve_all", planted)
    with pytest.raises(ZeroDivisionError, match="planted"):
        scan(_MIXED_RANGES, _MIXED_FIXED)
    monkeypatch.setattr(phase_diagram, "_MIN_CHUNK", 4)
    _usable_cpus(monkeypatch, workers)
    forks = _counted_forks(monkeypatch)
    with pytest.raises(ZeroDivisionError, match="planted"):
        scan(_MIXED_RANGES, _MIXED_FIXED)
    assert len(forks) == workers - 1
    _assert_no_child_left()


def test_a_caller_that_ignores_sigchld_still_gets_every_row(monkeypatch):
    # the kernel then reaps the children itself, and waitpid finds none
    serial = scan(_MIXED_RANGES, _MIXED_FIXED)
    monkeypatch.setattr(phase_diagram, "_MIN_CHUNK", 4)
    _usable_cpus(monkeypatch, 3)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert scan(_MIXED_RANGES, _MIXED_FIXED) == serial
    finally:
        signal.signal(signal.SIGCHLD, previous)
    _assert_no_child_left()


def test_a_raising_caller_kills_its_busy_children(monkeypatch):
    # the child stalls 20 s on its first point, 1; the caller raises on point 6
    rows = scan(_MIXED_RANGES, _MIXED_FIXED)
    stall, fail = [(row.lambda_b, row.mu) for row in (rows[1], rows[6])]
    solve = phase_diagram.solve_all

    def planted(params, **kwargs):
        if (params.lambda_b, params.mu) == stall:
            time.sleep(20.0)
        elif (params.lambda_b, params.mu) == fail:
            raise ZeroDivisionError("planted")
        return solve(params, **kwargs)

    monkeypatch.setattr(phase_diagram, "solve_all", planted)
    monkeypatch.setattr(phase_diagram, "_MIN_CHUNK", 4)
    _usable_cpus(monkeypatch, 2)
    t0 = time.perf_counter()
    with pytest.raises(ZeroDivisionError, match="planted"):
        scan(_MIXED_RANGES, _MIXED_FIXED)
    assert time.perf_counter() - t0 < 10.0
    _assert_no_child_left()


def test_an_in_process_scan_loads_no_pickle():
    src = os.path.dirname(os.path.dirname(phase_diagram.__file__))
    probe = ("import sys; from gapforge.phase_diagram import scan; "
             "scan({'lambda_b': (0.5, 10.0, 20)}, {'lambda_m': 0.3, 'mu': 1.0, 'temperature': 0.3}); "
             "print(sorted({'pickle', 'signal'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout.strip() == "[]"


def _scan_recording_pure_brackets(ranges, fixed):
    """Scan from a cleared pure-root cache; the rows and every pure-root bracket polished."""
    kernel = scalar_gap._bracketed_root
    pure_brackets = []

    def recording(f, lo, hi):
        if f.__qualname__.startswith("_pure_root."):
            pure_brackets.append((lo, hi))
        return kernel(f, lo, hi)

    scalar_gap._pure_root.cache_clear()
    with mock.patch.object(scalar_gap, "_bracketed_root", recording):
        rows = scan(ranges, fixed)
    return rows, pure_brackets


def test_scan_polishes_the_pure_root_once_per_coupling_and_temperature():
    rows, pure_brackets = _scan_recording_pure_brackets(
        {"lambda_b": (0.5, 10.0, 10), "mu": (0.0, 5.0, 10)},
        {"lambda_m": 0.3, "temperature": 0.3})
    assert len(rows) == 100 and all(row.error is None for row in rows)
    assert pure_brackets == [(0.0, 0.3)]
    assert scalar_gap._pure_root.cache_info().maxsize is not None  # bounded


def test_scan_polishes_each_pure_root_once_while_its_plane_fits_the_cache():
    # the lattice walks (lambda_m, T) inside lambda_b: a plane of maxsize
    # points is solved in the first lambda_b slice and reused by the others
    side = math.isqrt(scalar_gap._pure_root.cache_info().maxsize)
    rows, pure_brackets = _scan_recording_pure_brackets(
        {"lambda_b": (0.5, 10.0, 3), "lambda_m": (0.1, 1.6, side),
         "temperature": (0.1, 1.6, side)}, {"mu": 1.0})
    assert len(rows) == 3 * side * side and all(row.error is None for row in rows)
    assert len(pure_brackets) == side * side


def test_scan_rows_do_not_depend_on_the_pure_root_cache():
    ranges = {"lambda_b": (-3.0, 10.0, 6), "lambda_m": (-1.0, 1.0, 5),
              "mu": (0.0, 5.0, 4), "temperature": (0.0, 2.0, 3)}
    cached = scan(ranges, {})
    solve = phase_diagram.solve_all

    def uncached(*args, **kwargs):
        scalar_gap._pure_root.cache_clear()
        return solve(*args, **kwargs)

    with mock.patch.object(phase_diagram, "solve_all", uncached):
        fresh = scan(ranges, {})
    assert fresh == cached


# ---------------------------------------------------------------------------
# delimited output


def _demo_rows():
    return scan(
        {"temperature": (0.5, 3.0, 2)},
        {"lambda_b": 4.0, "lambda_m": 0.0, "mu": 1.0},
    )


def test_csv_output_shape_and_empty_cells():
    rows = _demo_rows()
    buffer = io.StringIO()
    write_scan_csv(rows, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == ",".join(SCAN_COLUMNS)
    assert len(lines) == 3
    cold = dict(zip(SCAN_COLUMNS, lines[1].split(",")))
    hot = dict(zip(SCAN_COLUMNS, lines[2].split(",")))
    assert cold["region"] == "A+"
    assert cold["multiplicity"] == "2"
    # absent branches are empty fields, never zeros
    assert hot["multiplicity"] == "0"
    assert hot["delta_b_upper"] == ""
    assert hot["delta_b_lower"] == ""
    assert hot["error"] == ""


def test_csv_floats_round_trip():
    rows = _demo_rows()
    buffer = io.StringIO()
    write_scan_csv(rows, buffer)
    record = dict(zip(SCAN_COLUMNS, buffer.getvalue().splitlines()[1].split(",")))
    assert float(record["delta_b_upper"]) == rows[0].delta_b_upper
    assert float(record["w_bar_pure"]) == rows[0].w_bar_pure


def _reference_csv(rows) -> str:
    """The CSV as a per-cell formatter wrote it before csv formatted the rows."""
    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, RegionLabel):
            return value.value
        if isinstance(value, float):
            return repr(float(value))
        return str(value)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SCAN_COLUMNS)
    for row in rows:
        writer.writerow([cell(getattr(row, name)) for name in SCAN_COLUMNS])
    return buffer.getvalue()


def test_csv_matches_the_per_cell_reference():
    rows = scan({"lambda_b": (-3.0, 10.0, 14), "lambda_m": (-1e308, 3.0, 4),
                 "mu": (-1.0, 5.0, 13), "temperature": (0.0, 2.0, 5)}, {})
    assert any(row.error and "mu" in row.error for row in rows)  # quoted commas
    assert any(row.error and "finite double" in row.error for row in rows)
    assert any(row.temperature == 0.0 and row.error is None for row in rows)
    assert any(row.lambda_b < 0.0 and row.multiplicity for row in rows)
    buffer = io.StringIO()
    write_scan_csv(rows, buffer)
    assert buffer.getvalue() == _reference_csv(rows)


def test_scan_rows_are_records_in_column_order():
    rows = _demo_rows()
    buffer = io.StringIO()
    write_scan_json(rows, buffer)
    assert ScanRow._fields == SCAN_COLUMNS
    assert [row._asdict() for row in rows] == json.loads(buffer.getvalue())
    assert all(type(row.lambda_b) is float and type(row.temperature) is float
               for row in rows)


def test_json_output_mirrors_the_rows():
    rows = _demo_rows()
    buffer = io.StringIO()
    write_scan_json(rows, buffer)
    payload = json.loads(buffer.getvalue())
    assert len(payload) == 2
    assert payload[0]["region"] == "A+"
    assert payload[0]["delta_b_upper"] == rows[0].delta_b_upper
    assert payload[1]["delta_b_upper"] is None
    assert payload[1]["error"] is None
