"""Closed-form regime solutions against the exact scalar solver."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from gapforge.asymptotics import (
    DEFAULT_MARGIN_FACTOR,
    Regime,
    RegimeSolution,
    regime_IA,
    regime_IB,
    regime_IIA,
    regime_IIB,
)
from gapforge.core_types import ModelParams
from gapforge.errors import NotApplicable, SingularDenominator
from gapforge.scalar_gap import solve_all

from oracles import mixed_delta_m


def _nearest_mixed(params, w_target):
    report = solve_all(params)
    assert report.mixed, f"no mixed solution at {params}"
    return min(report.mixed, key=lambda s: abs(s.w_bar - w_target))


# ---------------------------------------------------------------------------
# saturated regimes (deep yes/no occupation)


def test_ia_example_deep_coupling():
    sol = regime_IA(ModelParams(5.0, 0.0, 1.0, 0.01))
    assert sol.regime is Regime.IA
    assert sol.valid
    assert sol.w_bar == 5.0
    assert sol.delta_m == 0.0
    assert sol.delta_b == pytest.approx(math.sqrt(24.0), rel=1e-12)
    assert sol.validity_margin > 1.0

    exact = _nearest_mixed(ModelParams(5.0, 0.0, 1.0, 0.01), sol.w_bar)
    assert exact.w_bar == pytest.approx(sol.w_bar, rel=1e-3)
    assert exact.delta_b == pytest.approx(sol.delta_b, rel=1e-3)


def test_ia_closed_form_with_mean_field():
    params = ModelParams(5.0, 1.0, 1.0, 0.01)
    sol = regime_IA(params)
    dm = mixed_delta_m(5.0, 5.0, 1.0, 1.0)
    assert sol.delta_m == pytest.approx(dm)
    assert sol.delta_b == pytest.approx(math.sqrt(25.0 - (1.0 + dm) ** 2))
    assert sol.w_bar == 5.0


def test_ia_requires_repulsive_coupling():
    with pytest.raises(NotApplicable):
        regime_IA(ModelParams(-5.0, 0.0, 1.0, 0.01))


def test_ia_invalid_when_band_too_shallow():
    # lambda_b barely above mu: the saturation margin collapses
    sol = regime_IA(ModelParams(1.05, 0.0, 1.0, 0.4))
    assert not sol.valid
    assert sol.validity_margin < 1.0


def test_ia_zero_temperature_margin_infinite():
    sol = regime_IA(ModelParams(5.0, 0.0, 1.0, 0.0))
    assert sol.valid
    assert sol.validity_margin == math.inf
    assert sol.w_bar == 5.0


def test_iia_mirror_example():
    # mu > |lambda_b| with a strongly attractive mean-field channel
    params = ModelParams(-2.0, -1.0, 3.0, 0.04)
    sol = regime_IIA(params)
    assert sol.valid
    assert sol.w_bar == 2.0
    assert sol.delta_m == pytest.approx(mixed_delta_m(2.0, -2.0, -1.0, 3.0))
    eff = 3.0 + sol.delta_m
    assert sol.delta_b == pytest.approx(math.sqrt(4.0 - eff * eff), rel=1e-12)

    exact = _nearest_mixed(params, sol.w_bar)
    assert exact.w_bar == pytest.approx(sol.w_bar, rel=1e-3)
    assert exact.delta_m == pytest.approx(sol.delta_m, rel=1e-3)
    assert exact.delta_b == pytest.approx(sol.delta_b, rel=1e-3)


def test_iia_invalid_outside_band():
    # |lambda_b| above mu: the saturated root sits on the wrong side
    sol = regime_IIA(ModelParams(-2.0, -3.0, 1.0, 0.02))
    assert not sol.valid
    assert sol.validity_margin < 0.0


def test_iia_requires_both_attractive():
    with pytest.raises(NotApplicable):
        regime_IIA(ModelParams(2.0, -1.0, 3.0, 0.04))
    with pytest.raises(NotApplicable):
        regime_IIA(ModelParams(-2.0, 1.0, 3.0, 0.04))


# ---------------------------------------------------------------------------
# linearised (near-window) regimes


def test_ib_example_near_transition():
    # frozen: w = 10/9.2, delta_b = sqrt(w^2 - 1)
    sol = regime_IB(ModelParams(10.0, 0.0, 1.0, 0.4))
    assert sol.valid
    assert sol.w_bar == pytest.approx(1.0869565217391306, abs=1e-12)
    assert sol.delta_b == pytest.approx(0.42599821613620537, abs=1e-12)
    assert sol.delta_m == 0.0

    exact = _nearest_mixed(ModelParams(10.0, 0.0, 1.0, 0.4), sol.w_bar)
    assert exact.w_bar == pytest.approx(sol.w_bar, rel=5e-2)
    assert exact.delta_b == pytest.approx(sol.delta_b, rel=5e-2)


def test_ib_window_edges():
    with pytest.raises(NotApplicable):
        regime_IB(ModelParams(-1.0, 0.0, 1.0, 0.4))
    with pytest.raises(NotApplicable):
        regime_IB(ModelParams(10.0, 0.0, 1.0, 6.0))  # above lambda_b/2
    with pytest.raises(SingularDenominator):
        regime_IB(ModelParams(10.0, 0.0, 1.0, 5.0))  # exactly lambda_b = 2T


def test_ib_outside_window_flagged_invalid():
    # between the window's upper edge and lambda_b/2 the formula still
    # evaluates but the root it models has already disappeared
    sol = regime_IB(ModelParams(10.0, 0.0, 1.0, 3.0))
    assert not sol.valid
    assert sol.validity_margin < 1.0


def test_iib_example():
    params = ModelParams(-5.0, -0.9, 1.0, 2.0)
    sol = regime_IIB(params)
    assert sol.valid
    assert sol.w_bar == pytest.approx(5.0 / 9.0, rel=1e-12)
    assert sol.delta_m == -0.9
    rad = (5.0 / 9.0) ** 2 - 0.01
    assert sol.delta_b == pytest.approx(math.sqrt(rad), rel=1e-12)

    exact = _nearest_mixed(params, sol.w_bar)
    assert exact.w_bar == pytest.approx(sol.w_bar, rel=5e-2)
    assert exact.delta_m == pytest.approx(sol.delta_m, rel=5e-2)
    assert exact.delta_b == pytest.approx(sol.delta_b, rel=5e-2)


def test_iib_requires_both_attractive():
    with pytest.raises(NotApplicable):
        regime_IIB(ModelParams(-5.0, 0.0, 1.0, 2.0))
    with pytest.raises(NotApplicable):
        regime_IIB(ModelParams(5.0, -0.9, 1.0, 2.0))


@pytest.mark.parametrize("regime, base", [
    (regime_IA, (5.0, 0.3, 1.0, 0.01)),
    (regime_IIA, (-1.0, -0.6, 2.0, 0.01)),
    (regime_IB, (4.0, 0.05, 1.0, 0.1)),
    (regime_IIB, (-5.0, -0.9, 1.0, 2.0)),
])
@pytest.mark.parametrize("c", [1e200, 1e-200])
def test_regimes_scale_with_the_energies(regime, base, c):
    """Squares and products of the energies over- or underflow at these scales."""
    want = regime(ModelParams(*base))
    got = regime(ModelParams(*(c * v for v in base)))
    assert want.valid
    assert got.valid is want.valid
    assert got.validity_margin == pytest.approx(want.validity_margin, rel=1e-12)
    for g, w in ((got.w_bar, want.w_bar), (got.delta_m, want.delta_m),
                 (got.delta_b, want.delta_b)):
        assert g == pytest.approx(c * w, rel=1e-12, abs=0.0)


def test_as_dict_round_trip():
    sol = regime_IA(ModelParams(5.0, 0.0, 1.0, 0.01))
    d = sol.as_dict()
    assert d["regime"] == "IA"
    assert d["valid"] is True
    assert set(d) >= {"regime", "w_bar", "delta_m", "delta_b", "valid",
                      "validity_margin"}


@pytest.mark.parametrize("params", [ModelParams(1e-300, 0.0, 0.0, 1e10),
                                    ModelParams(5e-324, 0.0, 0.0, 1.0)])
def test_a_temperature_beyond_the_largest_double_in_units_is_its_limit(params):
    # T far above the energies lies above the window: the margin
    # (lambda_b - mu)/(2F T) is 5e-312, and 0 where it underflows
    sol = regime_IA(params)
    assert sol.valid is False
    assert sol.validity_margin < 1.0
    assert sol.w_bar == params.lambda_b


def test_subnormal_couplings_are_not_a_singular_denominator():
    # lambda_b + lambda_m = 1e-323, though each half rounds to zero
    sol = regime_IA(ModelParams(5e-324, 5e-324, 0.0, 0.0))
    assert sol.valid is False
    assert sol.validity_margin == math.inf


# ---------------------------------------------------------------------------
# structural identity on every emitted regime solution


@settings(max_examples=120, deadline=None)
@given(
    lb=st.floats(-8, 8), lm=st.floats(-2, 2),
    mu=st.floats(0.0, 5), T=st.floats(0.0, 5),
)
def test_energy_identity_holds_whenever_finite(lb, lm, mu, T):
    for fn in (regime_IA, regime_IB, regime_IIA, regime_IIB):
        try:
            sol = fn(ModelParams(lb, lm, mu, T))
        except (NotApplicable, SingularDenominator):
            continue
        if not (math.isfinite(sol.delta_b) and math.isfinite(sol.w_bar)
                and math.isfinite(sol.delta_m)):
            continue
        eff = mu + sol.delta_m
        assert sol.w_bar ** 2 == pytest.approx(eff ** 2 + sol.delta_b ** 2,
                                               abs=1e-9 * max(1.0, sol.w_bar ** 2))
        assert sol.delta_b >= 0.0


@settings(max_examples=60, deadline=None)
@given(lb=st.floats(2.0, 12), mu=st.floats(0.1, 1.0), T=st.floats(0.001, 0.05))
def test_saturated_closed_form_tracks_exact_solver(lb, mu, T):
    """Deep in regime IA the formula and the solver agree to 1e-3."""
    assume(lb - mu > 20.0 * 2.0 * T)  # stay well inside the validity window
    params = ModelParams(lb, 0.0, mu, T)
    sol = regime_IA(params)
    assume(sol.valid)
    exact = _nearest_mixed(params, sol.w_bar)
    assert exact.w_bar == pytest.approx(sol.w_bar, rel=1e-3)
    assert exact.delta_b == pytest.approx(sol.delta_b, rel=1e-3)


# ---------------------------------------------------------------------------
# one lift and one window rule for the four regimes

_REGIMES = {"IA": regime_IA, "IB": regime_IB, "IIA": regime_IIA, "IIB": regime_IIB}


def _in_window(name, lb, lm, mu, T):
    """Whether T lies in the regime's temperature window, in exact rationals.

    A lower bound <= 0 bounds nothing; T = 0 lies in the window where every
    small T > 0 does.  IB and IIB have no window unless mu + lambda_m > 0.
    """
    F = Fraction(DEFAULT_MARGIN_FACTOR)
    lb, lm, mu = map(Fraction, (lb, lm, mu))
    if name == "IA":
        lo, hi = 0, (lb - mu) / (2 * F)
    elif name == "IIA":
        lo, hi = 0, (mu - abs(lb)) / (2 * F)
    elif mu + lm <= 0:
        return False
    elif name == "IB":
        lo, hi = lm * lb / (2 * (mu + lm)), (lb - mu) / (2 * F)
    else:
        lo, hi = F * (mu + lb) / 2, lb * lm / (2 * (mu + lm))
    if T == 0.0:
        return lo <= 0 < hi
    return math.isfinite(T) and lo <= Fraction(T) <= hi


def _sixteenths(lo, hi):
    # dyadic energies: every sum and product of them, and 20*T, is exact, so
    # the code's bounds in float units are the rational bounds rounded once
    return st.integers(lo, hi).map(lambda k: k / 16.0)


@settings(max_examples=400, deadline=None)
@given(lb=_sixteenths(-128, 128), lm=_sixteenths(-48, 48), mu=_sixteenths(0, 80),
       T=st.one_of(_sixteenths(0, 48), st.just(math.inf)))
def test_the_margin_reads_the_window_and_valid_adds_a_real_gap(lb, lm, mu, T):
    for name, regime in _REGIMES.items():
        try:
            sol = regime(ModelParams(lb, lm, mu, T))
        except (NotApplicable, SingularDenominator):
            continue
        inside = _in_window(name, lb, lm, mu, T)
        assert (sol.validity_margin >= 1.0) is inside, (name, sol)
        assert sol.valid is (inside and sol.delta_b > 0.0), (name, sol)


def _extreme_draws(seed, count):
    """Energies 10**U(-300, 300) with random coupling signs; T = 0 or T = |lambda_b|/2 in some."""
    rng = random.Random(seed)
    for _ in range(count):
        lb, lm, mu, T = (10.0 ** rng.uniform(-300.0, 300.0) for _ in range(4))
        lb, lm = rng.choice((-1.0, 1.0)) * lb, rng.choice((-1.0, 1.0)) * lm
        pick = rng.random()
        if pick < 0.1:
            T = 0.0
        elif pick < 0.2:
            T = abs(lb) / 2.0
        yield lb, lm, mu, T


@pytest.mark.parametrize("seed", [1, 2])
def test_the_window_and_the_root_hold_at_extreme_energy_ratios(seed):
    """Energies up to 1e600 apart: the margin reads the exact window, the
    linearised root is the exact one to 1e-15 wherever that is a normal
    double, and only lambda_b = 2T is singular."""
    for lb, lm, mu, T in _extreme_draws(seed, 2500):
        for name, regime in _REGIMES.items():
            try:
                sol = regime(ModelParams(lb, lm, mu, T))
            except NotApplicable:
                continue
            except SingularDenominator:
                assert lb == 2.0 * T, (name, lb, lm, mu, T)
                continue
            point = (name, lb, lm, mu, T, sol)
            assert (sol.validity_margin >= 1.0) is _in_window(name, lb, lm, mu, T), point
            if name in ("IB", "IIB"):
                exact = Fraction(mu) * Fraction(lb) / (Fraction(lb) - 2 * Fraction(T))
                if sys.float_info.min <= exact <= sys.float_info.max:
                    assert abs(Fraction(sol.w_bar) / exact - 1) <= Fraction(1, 10**15), point


def test_sums_beyond_the_largest_double_are_scaled_down():
    # IIB's |lambda_b| + 2T = 3e308: the root is mu*lambda_b/(lambda_b - 2T) = mu/3
    sol = regime_IIB(ModelParams(-1e308, -0.5, 1.0, 1e308))
    assert sol.w_bar == pytest.approx(1.0 / 3.0, rel=1e-15, abs=0.0)
    # IB's mu + lambda_m = 2e308: T_lo = 4e307 bounds T = 1e300 from below
    sol = regime_IB(ModelParams(1.6e308, 1e308, 1e308, 1e300))
    assert sol.validity_margin == pytest.approx(1e300 / 4e307, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("regime, params, valid", [
    (regime_IB, ModelParams(8.0, 0.0625, 0.9375, 0.25), False),  # T = T_lo
    (regime_IB, ModelParams(8.0, 0.0625, 3.0, 0.25), True),      # T = T_hi
    (regime_IIB, ModelParams(-1.0, -0.5, 1.0625, 0.3125), True),  # T = T_lo
    (regime_IIB, ModelParams(-5.0, -0.5, 1.5, 1.25), False),      # T = T_hi
], ids=["IB-lower", "IB-upper", "IIB-lower", "IIB-upper"])
def test_both_window_edges_are_inside(regime, params, valid):
    # IB's lower and IIB's upper edge were open; each is where the linearised
    # root meets mu + lambda_m, so its gap vanishes there
    sol = regime(params)
    assert sol.validity_margin == 1.0
    assert sol.valid is valid
    if not valid:
        assert sol.w_bar == pytest.approx(params.mu + params.lambda_m, rel=1e-15)


@settings(max_examples=300, deadline=None)
@given(lb=st.floats(-8, 8), lm=st.floats(-4, 4), mu=st.floats(0, 5), T=st.floats(0, 2))
def test_the_saturated_regimes_are_the_zero_temperature_branch(lb, lm, mu, T):
    """IA and IIA return solve_all's T = 0 branch bit for bit, or no valid answer."""
    report = solve_all(ModelParams(lb, lm, mu, 0.0))
    # a root that solve_all drops for its residual is lifted as it lifts it,
    # but kept: see test_a_root_far_below_mu_keeps_its_mean_field_equation
    assume(not any("residual" in note for note in report.notes))
    exact = report.mixed
    for regime, is_root in ((regime_IA, lb > mu), (regime_IIA, -lb < mu)):
        try:
            sol = regime(ModelParams(lb, lm, mu, T))
        except (NotApplicable, SingularDenominator):
            continue
        if exact:
            (branch,) = exact
            assert [repr(v) for v in (sol.w_bar, sol.delta_m, sol.delta_b)] == [
                repr(v) for v in (branch.w_bar, branch.delta_m, branch.delta_b)]
        else:
            assert sol.valid is False
            if is_root:  # the lift refused the T = 0 root: its gap is imaginary
                assert math.isnan(sol.delta_b)


@pytest.mark.parametrize("regime, params", [
    (regime_IB, ModelParams(10.0, 2.0, 1.0, 0.4)),
    (regime_IIB, ModelParams(-5.0, -0.5, 3.0, 2.0)),
])
def test_a_linearised_root_below_the_effective_energy_has_an_imaginary_gap(regime, params):
    # w_bar < mu + lambda_m: IB and IIB raised NotAdmissible where IA and IIA
    # returned NaN; every regime now returns it
    sol = regime(params)
    assert math.isnan(sol.delta_b)
    assert sol.valid is False
    assert sol.delta_m == params.lambda_m
    # the window's edge at T_lo (IB) or T_hi (IIB) is where the root crosses
    # mu + lambda_m, so the window excludes it too
    assert sol.validity_margin < 1.0


def test_a_saturated_shift_out_of_bounds_is_an_imaginary_gap_inside_the_window():
    # delta_m/lambda_m = 8/3 > 2: the mean-field shift and the gap are NaN,
    # and the window still holds
    sol = regime_IA(ModelParams(5.0, -3.5, 1.0, 0.01))
    assert math.isnan(sol.delta_m) and math.isnan(sol.delta_b)
    assert sol.valid is False
    assert sol.validity_margin == pytest.approx(20.0)
