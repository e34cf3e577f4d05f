"""Tests for mode diagonalization and thermal expectation values."""

import math
import os
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from forks import counted_forks, usable_cpus
from gapforge import thermal
from gapforge.core_types import ModelParams, fermi
from gapforge.errors import FitFailed, InvalidParameter, MomentumOffGrid, ZeroEnergy
from gapforge.thermal import (
    ModeTable,
    bogoliubov_from_gaps,
    occupation_profile,
    pairing_diagonal_term,
    quartic_expectation,
    smearing_scaling_check,
)

PARAMS = ModelParams(lambda_b=4.0, lambda_m=0.0, mu=1.0, temperature=0.5)


# ---------------------------------------------------------------------------
# Bogoliubov rotation


def test_rotation_for_three_four_five_mode():
    co = bogoliubov_from_gaps(3.0, 4.0)
    assert co.c ** 2 == pytest.approx(0.8, abs=1e-15)
    assert co.s ** 2 == pytest.approx(0.2, abs=1e-15)
    assert 2.0 * co.c * co.s == pytest.approx(0.8, abs=1e-15)
    assert co.c ** 2 - co.s ** 2 == pytest.approx(0.6, abs=1e-15)


def test_rotation_is_identity_without_pairing():
    co = bogoliubov_from_gaps(2.5, 0.0)
    assert (co.c, co.s, co.phi) == (1.0, 0.0, 0.0)


def test_rotation_is_maximal_at_zero_effective_energy():
    co = bogoliubov_from_gaps(0.0, 1.7)
    assert co.c == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert co.s == pytest.approx(math.sqrt(0.5), abs=1e-15)


def test_rotation_undefined_at_zero_energy():
    with pytest.raises(ZeroEnergy):
        bogoliubov_from_gaps(0.0, 0.0)


def test_negative_pairing_gives_negative_angle():
    co = bogoliubov_from_gaps(3.0, -4.0)
    assert co.s < 0.0 < co.c
    assert co.phi < 0.0


@given(
    omega=st.floats(-50.0, 50.0),
    delta=st.floats(-50.0, 50.0),
)
def test_rotation_diagonalizes_every_mode(omega, delta):
    w = math.hypot(omega, delta)
    if w < 1e-12:
        return
    co = bogoliubov_from_gaps(omega, delta)
    assert co.c ** 2 + co.s ** 2 == pytest.approx(1.0, abs=1e-12)
    assert co.c ** 2 - co.s ** 2 == pytest.approx(omega / w, abs=1e-12)
    assert 2.0 * co.c * co.s == pytest.approx(delta / w, abs=1e-12)
    if omega >= 0.0:
        assert co.c >= math.sqrt(0.5) - 1e-12


# ---------------------------------------------------------------------------
# Occupation and pairing amplitude


def _one_mode(omega_eff, delta_b, params):
    """The occupation and pairing amplitude of a one-mode table."""
    table = ModeTable.build([1.0], [omega_eff], [delta_b], params)
    return table.occupations[0], table.pairings[0]


def test_occupation_is_half_at_infinite_temperature():
    params = ModelParams(lambda_b=4.0, lambda_m=0.0, mu=1.0, temperature=math.inf)
    for omega, delta in ((3.0, 4.0), (-1.0, 0.3)):
        assert _one_mode(omega, delta, params)[0] == pytest.approx(0.5, abs=1e-15)


def test_unpaired_level_above_mu_is_empty_at_zero_temperature():
    params = ModelParams(lambda_b=4.0, lambda_m=0.0, mu=1.0, temperature=0.0)
    assert _one_mode(2.0, 0.0, params)[0] == 0.0  # c = 1, s = 0, w_bar = 2


def test_occupation_hand_value():
    # c^2 = 0.8 and beta*(w_bar - mu) = ln 3 make every factor rational:
    # 0.8 * 1/4 + 0.2 * 3/4 = 0.35.
    params = ModelParams(lambda_b=4.0, lambda_m=0.0, mu=5.0 - math.log(3.0), temperature=1.0)
    assert _one_mode(3.0, 4.0, params)[0] == pytest.approx(0.35, abs=1e-12)


def test_pairing_amplitude_vanishes_without_mixing():
    assert _one_mode(2.0, 0.0, PARAMS)[1] == 0.0


def test_pairing_amplitude_dies_at_infinite_temperature():
    params = ModelParams(lambda_b=4.0, lambda_m=0.0, mu=1.0, temperature=math.inf)
    assert _one_mode(3.0, 4.0, params)[1] == 0.0


def test_pairing_amplitude_hand_value():
    # cs = 0.4 and tanh(ln(3)/2) = 1/2 exactly, so [p] = 0.2.
    params = ModelParams(lambda_b=4.0, lambda_m=0.0, mu=5.0 - math.log(3.0), temperature=1.0)
    assert _one_mode(3.0, 4.0, params)[1] == pytest.approx(0.2, abs=1e-12)


def test_pairing_amplitude_flips_sign_below_the_chemical_potential():
    params = ModelParams(lambda_b=4.0, lambda_m=0.0, mu=7.0, temperature=1.0)
    assert _one_mode(3.0, 4.0, params)[1] < 0.0  # w_bar = 5


@given(
    omega=st.floats(-20.0, 20.0),
    delta=st.floats(-20.0, 20.0),
    mu=st.floats(0.0, 10.0),
    temperature=st.floats(1e-3, 50.0),
)
@example(omega=1.9520347751384322e-14, delta=19.0, mu=0.0, temperature=0.5)
def test_expectations_stay_in_their_ranges(omega, delta, mu, temperature):
    params = ModelParams(lambda_b=4.0, lambda_m=0.0, mu=mu, temperature=temperature)
    n, a = _one_mode(omega, delta, params)
    assert 0.0 <= n <= 1.0
    assert -0.5 <= a <= 0.5


# ---------------------------------------------------------------------------
# ModeTable and parity


def _demo_table(with_origin_pairing=False):
    momenta = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
    omega = momenta ** 2 - 1.0 + 2.0  # omega(p) + delta_m with delta_m = 2
    delta = np.full_like(momenta, 0.7)
    if not with_origin_pairing:
        delta = np.where(momenta == 0.0, 0.0, delta)
    return ModeTable.build(momenta, omega, delta, PARAMS)


def test_table_occupation_is_even():
    table = _demo_table()
    assert table.occupation_at(-2.0) == table.occupation_at(2.0)
    assert table.occupation_at(-0.5) == table.occupation_at(0.5)


def test_table_pairing_is_odd():
    table = _demo_table()
    value = table.pairing_at(2.0)
    assert value != 0.0
    assert table.pairing_at(-2.0) == -value


def test_table_origin_keeps_raw_pairing_value():
    table = _demo_table(with_origin_pairing=True)
    assert table.pairing_at(0.0) != 0.0


def test_table_rejects_off_grid_momenta():
    table = _demo_table()
    with pytest.raises(MomentumOffGrid):
        table.occupation_at(1.5)
    with pytest.raises(MomentumOffGrid):
        table.pairing_at(-0.7)


def test_table_lookup_tolerates_rounding():
    table = _demo_table()
    assert table.index(2.0 * (1.0 + 1e-12)) == 3


def test_zero_gap_mode_is_a_plain_fermi_level():
    momenta = np.array([0.0, 1.0])
    table = ModeTable.build(momenta, [0.0, 1.0], [0.0, 0.0], PARAMS)
    expected = fermi(0.0 - PARAMS.mu, PARAMS.beta)
    assert table.occupation_at(0.0) == pytest.approx(expected, abs=1e-15)
    assert table.pairing_at(0.0) == 0.0


@pytest.mark.parametrize("temperature", [0.5, 0.0, math.inf])
def test_table_matches_the_bogoliubov_reference(temperature):
    # c**2 f + s**2 (1 - f) and c s tanh from the mixing angle, mode by mode;
    # the origin is a w_bar = 0 mode (atan2(0, 0) = 0 leaves it unrotated)
    params = ModelParams(lambda_b=4.0, lambda_m=0.0, mu=1.0, temperature=temperature)
    momenta = np.linspace(0.0, 3.0, 25)
    omega = momenta ** 2 - 1.2 * momenta
    delta = 0.7 * np.sin(2.0 * momenta)
    table = ModeTable.build(momenta, omega, delta, params)
    for i, (w_eff, d) in enumerate(zip(omega, delta)):
        phi = 0.5 * math.atan2(d, w_eff)
        c, s = math.cos(phi), math.sin(phi)
        x = math.hypot(w_eff, d) - params.mu
        if math.isinf(temperature):
            f, t = 0.5, 0.0
        elif temperature == 0.0:
            f, t = (1.0, -1.0) if x < 0.0 else (0.0, 1.0)
        else:
            f, t = 1.0 / (1.0 + math.exp(x / temperature)), math.tanh(0.5 * x / temperature)
        assert abs(table.occupations[i] - oracles.occupation_reference(c * c, f)) <= 1e-15
        assert abs(table.pairings[i] - c * s * t) <= 1e-15


def test_table_build_validates_the_grid():
    with pytest.raises(InvalidParameter):
        ModeTable.build([1.0, 0.5], [0.0, 0.0], [1.0, 1.0], PARAMS)
    with pytest.raises(InvalidParameter):
        ModeTable.build([-1.0, 0.5], [0.0, 0.0], [1.0, 1.0], PARAMS)
    with pytest.raises(InvalidParameter):
        ModeTable.build([0.0, 0.5], [0.0], [1.0, 1.0], PARAMS)
    with pytest.raises(InvalidParameter):
        ModeTable.build([], [], [], PARAMS)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidParameter, match="finite"):
            ModeTable.build([0.0, bad], [0.0, 0.0], [1.0, 1.0], PARAMS)
        # gap values too: they gave nan occupations and pairings with a warning
        with pytest.raises(InvalidParameter, match="finite"):
            ModeTable.build([0.0, 1.0], [bad, 1.0], [0.0, 1.0], PARAMS)
        with pytest.raises(InvalidParameter, match="finite"):
            ModeTable.build([0.0, 1.0], [0.0, 1.0], [0.0, -bad], PARAMS)


# ---------------------------------------------------------------------------
# Quartic expectation


def test_quartic_pairing_channel():
    table = _demo_table()
    terms = quartic_expectation(table, 1.0, -1.0, 2.0, -2.0)
    expected = table.pairing_at(1.0) * table.pairing_at(2.0)
    assert terms.pairing == expected
    assert terms.direct == 0.0
    assert terms.exchange == 0.0
    assert terms.total == expected


def test_quartic_direct_channel():
    table = _demo_table()
    terms = quartic_expectation(table, 1.0, 2.0, 1.0, 2.0)
    expected = -table.occupation_at(1.0) * table.occupation_at(2.0)
    assert terms.direct == expected
    assert terms.pairing == 0.0
    assert terms.exchange == 0.0
    assert terms.total == expected


def test_quartic_exchange_channel():
    table = _demo_table()
    terms = quartic_expectation(table, 2.0, 1.0, 1.0, 2.0)
    expected = table.occupation_at(1.0) * table.occupation_at(2.0)
    assert terms.exchange == expected
    assert terms.total == expected


def test_quartic_vanishes_for_unmatched_momenta():
    table = _demo_table()
    terms = quartic_expectation(table, 0.5, 1.0, 2.0, 3.0)
    assert terms.total == 0.0


@given(st.data())
def test_quartic_is_antisymmetric_in_the_first_pair(data):
    table = _demo_table()
    signed = [s * p for p in (0.5, 1.0, 2.0, 3.0) for s in (1.0, -1.0)]
    q = data.draw(st.sampled_from(signed))
    q_prime = data.draw(st.sampled_from([m for m in signed if m != q]))
    p = data.draw(st.sampled_from(signed))
    p_prime = data.draw(st.sampled_from(signed))
    forward = quartic_expectation(table, q, q_prime, p, p_prime)
    backward = quartic_expectation(table, q_prime, q, p, p_prime)
    assert forward.total == -backward.total


# ---------------------------------------------------------------------------
# Profiles and the smearing scaling limit


def test_occupation_profile_interpolates_evenly():
    table = _demo_table()
    prof = occupation_profile(table)
    assert prof(2.0) == pytest.approx(table.occupation_at(2.0), abs=1e-15)
    np.testing.assert_allclose(prof([-1.0, 1.0]), [table.occupation_at(1.0)] * 2)
    mid = prof(1.5)
    lo, hi = sorted([table.occupation_at(1.0), table.occupation_at(2.0)])
    assert lo <= mid <= hi


def test_gaussian_smearing_matches_the_analytic_decay():
    kappas = np.logspace(0.0, 4.0, 9)
    result = smearing_scaling_check(
        lambda p: np.ones_like(np.asarray(p, dtype=float)),
        lambda p: np.exp(-np.asarray(p, dtype=float) ** 2),
        kappas,
    )
    oracle = [oracles.smearing_intensity_gaussian(k) for k in kappas]
    np.testing.assert_allclose(result.intensities, oracle, rtol=1e-4)
    fit = np.polyfit(np.log(kappas), np.log(oracle), 1)[0]
    assert result.slope == pytest.approx(fit, abs=5e-3)
    assert -0.55 < result.slope < -0.45


def test_smearing_check_refuses_a_vanishing_profile():
    kappas = np.logspace(0.0, 3.0, 7)
    with pytest.raises(FitFailed):
        smearing_scaling_check(
            lambda p: np.zeros_like(np.asarray(p, dtype=float)),
            lambda p: np.exp(-np.asarray(p, dtype=float) ** 2),
            kappas,
        )


def test_smearing_check_requires_two_decades():
    gaussian = lambda p: np.exp(-np.asarray(p, dtype=float) ** 2)
    ones = lambda p: np.ones_like(np.asarray(p, dtype=float))
    with pytest.raises(FitFailed):
        smearing_scaling_check(ones, gaussian, [1.0, 10.0])
    with pytest.raises(FitFailed):
        smearing_scaling_check(ones, gaussian, [5.0])
    with pytest.raises(FitFailed):
        smearing_scaling_check(ones, gaussian, [-1.0, 1.0, 1000.0])


@pytest.mark.parametrize("kappas, named", [
    ([1.0, math.nan, 1000.0], "finite"),
    ([1.0, math.inf], "finite"),
    ([1.0, 1e4, math.nan], "finite"),
    ([1.0, 1.0, 100.0], "repeated"),
])
def test_smearing_check_names_a_bad_width(kappas, named):
    gaussian = lambda p: np.exp(-np.asarray(p, dtype=float) ** 2)
    ones = lambda p: np.ones_like(np.asarray(p, dtype=float))
    with pytest.raises(FitFailed, match=named):
        smearing_scaling_check(ones, gaussian, kappas)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_smearing_check_names_a_width_whose_double_overflows():
    # 2 * 1e308 is inf: its patch had half-width 0 and its intensity was nan
    gaussian = lambda p: np.exp(-np.asarray(p, dtype=float) ** 2)
    ones = lambda p: np.ones_like(np.asarray(p, dtype=float))
    with pytest.raises(FitFailed, match=r"\[1e\+308\]"):
        smearing_scaling_check(ones, gaussian, [1.0, 100.0, 1e308])
    # the largest width whose double is finite still fits, warning-free
    largest = sys.float_info.max / 2.0
    result = smearing_scaling_check(ones, gaussian, [1.0, 100.0, largest])
    assert np.all(np.isfinite(result.intensities)) and math.isfinite(result.slope)


@pytest.mark.parametrize("kappas", [[1.0, 100.0, 1e300], [1.0, 1e100, 1e200]])
def test_smearing_slope_holds_across_widths_decades_apart(kappas):
    # each width integrates over its own patch only: the edge node of a tiny
    # patch, weighted by the gap to the next coarser node, outweighed the peak
    gaussian = lambda p: np.exp(-np.asarray(p, dtype=float) ** 2)
    ones = lambda p: np.ones_like(np.asarray(p, dtype=float))
    result = smearing_scaling_check(ones, gaussian, kappas)
    assert result.slope == pytest.approx(-0.5, abs=1e-3)
    oracle = [oracles.smearing_intensity_gaussian(k) for k in kappas]
    np.testing.assert_allclose(result.intensities, oracle, rtol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_smearing_check_refuses_a_non_finite_profile(bad):
    # nan passed both the positivity and the decrease check: the slope was nan
    gaussian = lambda p: np.exp(-np.asarray(p, dtype=float) ** 2)
    constant = lambda p: np.full(np.shape(p), bad)
    with pytest.raises(FitFailed, match="not finite"):
        smearing_scaling_check(constant, gaussian, np.logspace(0.0, 4.0, 9))


def test_smearing_check_refuses_a_profile_not_finite_beyond_the_p_grid():
    # finite on |p| <= 6, where it is checked, but nan at the shifts u - p
    gaussian = lambda p: np.exp(-np.asarray(p, dtype=float) ** 2)
    boxed = lambda p: np.where(np.abs(np.asarray(p, dtype=float)) <= 6.0, 1.0, np.nan)
    with pytest.raises(FitFailed, match="intensity is not finite"):
        smearing_scaling_check(boxed, gaussian, np.logspace(0.0, 4.0, 9))


def test_smearing_check_refuses_an_uneven_smearing():
    # the correlation is computed on u >= 0 only, which holds for an even G
    shifted = lambda p: np.exp(-(np.asarray(p, dtype=float) - 0.3) ** 2)
    ones = lambda p: np.ones_like(np.asarray(p, dtype=float))
    with pytest.raises(FitFailed, match="even"):
        smearing_scaling_check(ones, shifted, np.logspace(0.0, 4.0, 9))


def _counting_gaussian(seen):
    """A Gaussian smearing that records the size of every argument it sees."""
    def gaussian(p):
        p = np.asarray(p, dtype=float)
        seen.append(p.size)
        return np.exp(-p ** 2)

    return gaussian


def test_smearing_check_evaluates_g_once_per_lattice_point():
    # 2001 p-points, then 2000 m + A + 1 lattice points per width: 270 911 in all,
    # where one evaluation per (u, p) pair took ~6.5 M
    seen = []
    smearing_scaling_check(lambda p: np.ones_like(np.asarray(p, dtype=float)),
                           _counting_gaussian(seen), np.logspace(0.0, 4.0, 9))
    assert sum(seen) <= 300_000


@pytest.mark.parametrize("workers", [2, 3])
def test_a_smearing_that_raises_fails_as_in_the_serial_run(monkeypatch, workers):
    # the check runs in process on any number of usable CPUs: v sees the p-grid,
    # then each width's lattice in turn, and its first exception is raised as it is
    calls = []

    def planted(p):
        calls.append(None)
        if len(calls) in (4, 8):  # the lattices of kappa = 10 and 1e3
            raise ZeroDivisionError(f"call {len(calls)}")
        return np.exp(-np.asarray(p, dtype=float) ** 2)

    ones = lambda p: np.ones_like(np.asarray(p, dtype=float))
    usable_cpus(monkeypatch, workers)
    forks = counted_forks(monkeypatch)
    with pytest.raises(ZeroDivisionError, match="^call 4$"):
        smearing_scaling_check(ones, planted, np.logspace(0.0, 4.0, 9))
    assert forks == []


@pytest.mark.parametrize("cpus", [1, None])
def test_one_usable_cpu_or_no_affinity_call_smears_in_process(monkeypatch, cpus):
    # as on any number of usable CPUs
    kappas = np.logspace(0.0, 4.0, 9)
    v = lambda p: np.exp(-np.asarray(p, dtype=float) ** 2)
    profile = occupation_profile(_demo_table())
    usable_cpus(monkeypatch, 2)
    forks = counted_forks(monkeypatch)
    on_two = smearing_scaling_check(profile, v, kappas)
    assert forks == []
    if cpus is None:  # as on macOS and Windows
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:  # as under taskset -c 0
        usable_cpus(monkeypatch, cpus)
    result = smearing_scaling_check(profile, v, kappas)
    assert np.array_equal(result.intensities, on_two.intensities)
    assert result.slope == on_two.slope


def _brute_force_intensities(profile, v, kappas):
    """Each width's intensity on its own nodes, with G evaluated at every (u, p) pair."""
    p = np.linspace(-6.0, 6.0, 2001)
    wp = np.full(p.size, 0.006)
    wp[[0, -1]] = 0.003
    weighted = wp * v(p) * profile(p)
    intensities = []
    for k in kappas:
        _, u = thermal._smearing_lattice(k)
        corr = np.concatenate([(v(x[:, None] - p) * profile(x[:, None] - p)) @ weighted
                               for x in np.array_split(u, u.size // 256 + 1)])
        wu = np.full(u.size, u[1] - u[0])
        wu[[0, -1]] *= 0.5
        intensities.append(np.sum(np.exp(-2.0 * k * u ** 2) * wu * corr))
    return np.array(intensities)


@pytest.mark.parametrize("kappas", [np.logspace(0.0, 4.0, 9), [1.0, 100.0, 1e300]],
                         ids=["lattice", "direct"])
@pytest.mark.parametrize("profile", ["demo_table", "gaussian"])
def test_smearing_intensities_match_a_brute_force_sum(profile, kappas):
    # kappa = 1e300 has ~600 nodes a step h/m ~ 1e-152 apart: too sparse a
    # lattice, so its G is evaluated at each (u, p) pair, as here
    v = lambda p: np.exp(-np.asarray(p, dtype=float) ** 2)
    if profile == "demo_table":
        prof = occupation_profile(_demo_table())
    else:
        prof = lambda p: np.ones_like(np.asarray(p, dtype=float))
    result = smearing_scaling_check(prof, v, kappas)
    reference = _brute_force_intensities(prof, v, kappas)
    np.testing.assert_allclose(result.intensities, reference, rtol=1e-12)


_WIDTH_LISTS = [np.logspace(0.0, 4.0, 9), [0.01, 1.0, 100.0], [0.3, 2.0, 45.0, 3e3],
                [1.0, 100.0, 1e300]]


@pytest.mark.parametrize("kappas", _WIDTH_LISTS)
def test_each_width_steps_by_a_divisor_of_the_p_step(kappas):
    # h/m divides the p-step h = 0.006 and is never coarser than h/4 or than
    # 1201 nodes across |u| <= half
    h = 0.006
    for k in kappas:
        m, u = thermal._smearing_lattice(k)
        half = min(10.0 / math.sqrt(2.0 * k), 12.0)
        step = h / m
        assert step <= min(h / 4.0, 2.0 * half / 1200.0)
        np.testing.assert_allclose(np.diff(u), step, rtol=1e-9)
        assert half - step < u[-1] <= half


@pytest.mark.parametrize("kappas", _WIDTH_LISTS)
def test_smearing_grid_is_mirror_symmetric_bit_for_bit(kappas):
    for k in kappas:
        _, u = thermal._smearing_lattice(k)
        assert u.size % 2 == 1 and u[u.size // 2] == 0.0
        assert np.array_equal(u, -u[::-1])


def test_widths_clamped_to_the_coarse_range_keep_the_coarse_step():
    # kappa = 0.01 and 0.3 would reach past |u| = 12, where the p-grid's
    # correlation ends: their patches stop there, a step h/4 apart, the coarsest
    for k in (0.01, 0.3):
        m, u = thermal._smearing_lattice(k)
        assert m == 4
        assert 12.0 - 0.0015 < u[-1] <= 12.0


def test_gaussian_smearing_matches_the_analytic_intensity_closely():
    kappas = np.logspace(0.0, 4.0, 9)
    result = smearing_scaling_check(
        lambda p: np.ones_like(np.asarray(p, dtype=float)),
        lambda p: np.exp(-np.asarray(p, dtype=float) ** 2),
        kappas,
    )
    oracle = [oracles.smearing_intensity_gaussian(k) for k in kappas]
    np.testing.assert_allclose(result.intensities, oracle, rtol=1e-12)


@pytest.mark.parametrize("kappas", [[1.0, 100.0, 1e4], [0.01, 1.0, 100.0],
                                    [0.3, 2.0, 45.0, 3e3]])
def test_gaussian_smearing_matches_the_analytic_intensity_on_any_width_list(kappas):
    # a width whose patch held a finer one crossed a jump in node spacing there,
    # off by 1.4e-5 to 1.9e-5 relative
    result = smearing_scaling_check(
        lambda p: np.ones_like(np.asarray(p, dtype=float)),
        lambda p: np.exp(-np.asarray(p, dtype=float) ** 2),
        kappas,
    )
    oracle = [oracles.smearing_intensity_gaussian(k) for k in kappas]
    np.testing.assert_allclose(result.intensities, oracle, rtol=1e-12)


@pytest.mark.parametrize("with_origin_pairing", [False, True])
def test_pairing_diagonal_term_matches_the_per_mode_sum(with_origin_pairing):
    table = _demo_table(with_origin_pairing)
    v = lambda p: np.exp(-np.asarray(p, dtype=float) ** 2)
    kappas = np.logspace(0.0, 4.0, 9)
    # reference: the per-mode lookups pairing_at(p) * pairing_at(-p), one
    # trapezoid sum per kappa with the weight exp(-2 kappa (p - p)**2)
    mom = table.momenta
    wp = np.empty_like(mom)
    wp[1:-1] = 0.5 * (mom[2:] - mom[:-2])
    wp[0] = 0.5 * (mom[1] - mom[0])
    wp[-1] = 0.5 * (mom[-1] - mom[-2])
    product = np.array([table.pairing_at(p) * table.pairing_at(-p) for p in mom])
    fold = np.where(mom == 0.0, 1.0, 2.0)
    terms = fold * wp * v(mom) * v(-mom) * product
    reference = [float(np.sum(terms * np.exp(-2.0 * k * np.zeros_like(mom))))
                 for k in kappas]
    assert np.array_equal(pairing_diagonal_term(table, v, kappas), reference)


def test_pairing_diagonal_term_of_one_mode_is_zero():
    # one point has no width: the trapezoid rule gives it weight 0, not 1
    table = ModeTable.build([0.5], [0.3], [0.4], ModelParams(4.0, 0.0, 1.0, 0.5))
    out = pairing_diagonal_term(table, np.ones_like, [1.0, 10.0, 100.0])
    assert np.array_equal(out, np.zeros(3))


def test_pairing_diagonal_term_ignores_the_smearing_width():
    table = _demo_table()
    kappas = np.logspace(0.0, 4.0, 9)
    out = pairing_diagonal_term(
        table, lambda p: np.exp(-np.asarray(p, dtype=float) ** 2), kappas
    )
    assert out.shape == (9,)
    assert np.all(np.isfinite(out))
    assert out[0] != 0.0
    assert np.ptp(out) <= 1e-3 * abs(out[0])
