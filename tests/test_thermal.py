"""Tests for mode diagonalization and thermal expectation values."""

import math
import sys
import timeit

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from gapforge import thermal
from gapforge.core_types import BogoliubovCoefficients, ModelParams, fermi
from gapforge.errors import FitFailed, InvalidParameter, MomentumOffGrid, ZeroEnergy
from gapforge.thermal import (
    ModeState,
    ModeTable,
    bogoliubov_from_gaps,
    mode_state,
    occupation,
    occupation_profile,
    pairing_amplitude,
    pairing_diagonal_term,
    pairing_profile,
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


def test_mode_state_carries_consistent_energy():
    m = mode_state(1.5, 3.0, 4.0)
    assert m.w_bar == pytest.approx(5.0, abs=1e-15)
    assert m.p == 1.5
    assert m.coeffs.c ** 2 == pytest.approx(0.8, abs=1e-14)


# ---------------------------------------------------------------------------
# Occupation and pairing amplitude


def test_occupation_is_half_at_infinite_temperature():
    params = ModelParams(lambda_b=4.0, lambda_m=0.0, mu=1.0, temperature=math.inf)
    for mode in (mode_state(0.5, 3.0, 4.0), mode_state(2.0, -1.0, 0.3)):
        assert occupation(mode, params) == pytest.approx(0.5, abs=1e-15)


def test_unpaired_level_above_mu_is_empty_at_zero_temperature():
    mode = mode_state(1.0, 2.0, 0.0)  # c = 1, s = 0, w_bar = 2
    params = ModelParams(lambda_b=4.0, lambda_m=0.0, mu=1.0, temperature=0.0)
    assert occupation(mode, params) == 0.0


def test_occupation_hand_value():
    # c^2 = 0.8 and beta*(w_bar - mu) = ln 3 make every factor rational:
    # 0.8 * 1/4 + 0.2 * 3/4 = 0.35.
    mode = mode_state(1.0, 3.0, 4.0)
    params = ModelParams(lambda_b=4.0, lambda_m=0.0, mu=5.0 - math.log(3.0), temperature=1.0)
    assert occupation(mode, params) == pytest.approx(0.35, abs=1e-12)


def test_pairing_amplitude_vanishes_without_mixing():
    mode = mode_state(1.0, 2.0, 0.0)
    assert pairing_amplitude(mode, PARAMS) == 0.0


def test_pairing_amplitude_dies_at_infinite_temperature():
    mode = mode_state(1.0, 3.0, 4.0)
    params = ModelParams(lambda_b=4.0, lambda_m=0.0, mu=1.0, temperature=math.inf)
    assert pairing_amplitude(mode, params) == 0.0


def test_pairing_amplitude_hand_value():
    # cs = 0.4 and tanh(ln(3)/2) = 1/2 exactly, so [p] = 0.2.
    mode = mode_state(1.0, 3.0, 4.0)
    params = ModelParams(lambda_b=4.0, lambda_m=0.0, mu=5.0 - math.log(3.0), temperature=1.0)
    assert pairing_amplitude(mode, params) == pytest.approx(0.2, abs=1e-12)


def test_pairing_amplitude_flips_sign_below_the_chemical_potential():
    mode = mode_state(1.0, 3.0, 4.0)  # w_bar = 5
    params = ModelParams(lambda_b=4.0, lambda_m=0.0, mu=7.0, temperature=1.0)
    assert pairing_amplitude(mode, params) < 0.0


@given(
    omega=st.floats(-20.0, 20.0),
    delta=st.floats(-20.0, 20.0),
    mu=st.floats(0.0, 10.0),
    temperature=st.floats(1e-3, 50.0),
)
@example(omega=1.9520347751384322e-14, delta=19.0, mu=0.0, temperature=0.5)
def test_expectations_stay_in_their_ranges(omega, delta, mu, temperature):
    if math.hypot(omega, delta) < 1e-9:
        return
    mode = mode_state(1.0, omega, delta)
    params = ModelParams(lambda_b=4.0, lambda_m=0.0, mu=mu, temperature=temperature)
    n = occupation(mode, params)
    a = pairing_amplitude(mode, params)
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
    prof = pairing_profile(table)
    assert prof(0.0) == 0.0


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


@pytest.mark.parametrize("temperature", [0.5, 0.0, math.inf])
def test_one_mode_expectations_match_the_table(temperature):
    # the same grid as above; its origin is a w_bar = 0 mode, which
    # mode_state refuses, so that mode is built unrotated by hand
    params = ModelParams(lambda_b=4.0, lambda_m=0.0, mu=1.0, temperature=temperature)
    momenta = np.linspace(0.0, 3.0, 25)
    omega = momenta ** 2 - 1.2 * momenta
    delta = 0.7 * np.sin(2.0 * momenta)
    table = ModeTable.build(momenta, omega, delta, params)
    assert omega[0] == delta[0] == 0.0
    modes = [ModeState(0.0, 0.0, 0.0, 0.0, BogoliubovCoefficients(1.0, 0.0, 0.0))]
    modes += [mode_state(p, w, d) for p, w, d in zip(momenta[1:], omega[1:], delta[1:])]
    for i, mode in enumerate(modes):
        assert abs(occupation(mode, params) - table.occupations[i]) <= 1e-15
        assert abs(pairing_amplitude(mode, params) - table.pairings[i]) <= 1e-15
    assert pairing_amplitude(modes[0], params) == 0.0


def test_one_mode_expectations_are_scalar_fast():
    # through the array path one call took ~16 us; with math alone it takes ~1 us
    mode, params = mode_state(1.0, 3.0, 4.0), ModelParams(4.0, 0.0, 1.0, 0.5)
    for fn in (occupation, pairing_amplitude):
        best = min(timeit.repeat(lambda: fn(mode, params), number=2000, repeat=5)) / 2000
        assert best < 4e-6, (fn.__name__, best)


def test_table_build_validates_the_grid():
    with pytest.raises(InvalidParameter):
        ModeTable.build([1.0, 0.5], [0.0, 0.0], [1.0, 1.0], PARAMS)
    with pytest.raises(InvalidParameter):
        ModeTable.build([-1.0, 0.5], [0.0, 0.0], [1.0, 1.0], PARAMS)
    with pytest.raises(InvalidParameter):
        ModeTable.build([0.0, 0.5], [0.0], [1.0, 1.0], PARAMS)
    with pytest.raises(InvalidParameter):
        ModeTable.build([], [], [], PARAMS)


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


def test_pairing_profile_is_odd_everywhere():
    table = _demo_table()
    prof = pairing_profile(table)
    grid = np.array([0.25, 0.5, 1.7, 3.0])
    np.testing.assert_allclose(prof(-grid), -prof(grid), atol=1e-15)


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


# The u-grid of smearing_scaling_check: the coarse patch and one patch per
# width, as (half-width, node count); the step of a patch is 2*half/(n - 1)
def _patches(kappas):
    return [(12.0, 2401)] + [(min(10.0 / math.sqrt(2.0 * k), 12.0), 1201)
                             for k in kappas]


def _union_nodes(kappas):
    return np.unique(np.concatenate([np.linspace(-h, h, n) for h, n in _patches(kappas)]))


def _union_grid_intensities(profile, v, kappas):
    """The smeared intensities on the union of every patch's nodes."""
    p = np.linspace(-6.0, 6.0, 2001)
    wp = thermal._trapezoid_weights(p)
    u = _union_nodes(kappas)
    wu = thermal._trapezoid_weights(u)
    weighted = wp * v(p) * profile(p)
    corr = np.array([np.dot(v(x - p) * profile(x - p), weighted) for x in u])
    return np.array([np.sum(np.exp(-2.0 * k * u ** 2) * wu * corr) for k in kappas])


def test_smearing_grid_keeps_only_the_finest_cover():
    kappas = np.logspace(0.0, 4.0, 9)
    assert _union_nodes(kappas).size == 13161
    assert thermal._smearing_nodes(kappas).size == 6489


@pytest.mark.parametrize("kappas", [np.logspace(0.0, 4.0, 9), [0.01, 1.0, 100.0],
                                    [0.3, 2.0, 45.0, 3e3]])
def test_every_smearing_gap_is_within_the_step_of_its_finest_cover(kappas):
    u = thermal._smearing_nodes(np.asarray(kappas, dtype=float))
    patches = _patches(kappas)
    assert np.all(np.diff(u) > 0.0)
    assert np.all(np.abs(u) <= max(h for h, _ in patches))
    assert np.min(np.abs(u)) < 1e-15  # the finest patch keeps u = 0
    for a, b in zip(u[:-1], u[1:]):
        # the finest patch whose range holds the whole gap
        step = min(2.0 * h / (n - 1) for h, n in patches if -h <= a and b <= h)
        assert b - a <= step * (1.0 + 1e-9), (a, b, step)


def test_widths_clamped_to_the_coarse_range_keep_the_coarse_step():
    # kappa = 0.01 and 1 give patches coarser than the coarse one; only the
    # kappa = 100 patch, |u| <= 1/sqrt(2), is finer
    u = thermal._smearing_nodes(np.array([0.01, 1.0, 100.0]))
    outside = u[np.abs(u) > 1.0]
    np.testing.assert_allclose(np.diff(outside[outside > 0.0]), 0.01, rtol=1e-9)
    assert outside.max() == 12.0


@pytest.mark.parametrize("profile", ["demo_table", "gaussian"])
def test_smearing_intensities_match_the_union_grid(profile):
    kappas = np.logspace(0.0, 4.0, 9)
    v = lambda p: np.exp(-np.asarray(p, dtype=float) ** 2)
    if profile == "demo_table":
        prof = occupation_profile(_demo_table())
    else:
        prof = lambda p: np.ones_like(np.asarray(p, dtype=float))
    result = smearing_scaling_check(prof, v, kappas)
    reference = _union_grid_intensities(prof, v, kappas)
    np.testing.assert_allclose(result.intensities, reference, rtol=5e-6)


def test_gaussian_smearing_matches_the_analytic_intensity_closely():
    kappas = np.logspace(0.0, 4.0, 9)
    result = smearing_scaling_check(
        lambda p: np.ones_like(np.asarray(p, dtype=float)),
        lambda p: np.exp(-np.asarray(p, dtype=float) ** 2),
        kappas,
    )
    oracle = [oracles.smearing_intensity_gaussian(k) for k in kappas]
    np.testing.assert_allclose(result.intensities, oracle, rtol=2e-6)


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
