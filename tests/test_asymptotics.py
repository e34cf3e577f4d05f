"""Closed-form regime solutions against the exact scalar solver."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from gapforge.asymptotics import (
    Regime,
    RegimeSolution,
    regime_IA,
    regime_IB,
    regime_IIA,
    regime_IIB,
)
from gapforge.core_types import ModelParams
from gapforge.errors import NotAdmissible, NotApplicable, SingularDenominator
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
    # T over the units of the energies overflows: it is taken as T = inf
    sol = regime_IA(params)
    assert sol.valid is False
    assert sol.validity_margin == 0.0
    assert sol.w_bar == params.lambda_b


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
        except (NotAdmissible, NotApplicable, SingularDenominator):
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
