"""Closed-form limits of the scalar gap system in four parameter regimes.

Each regime freezes the tanh factor of the pairing equation at one of its
saturation values and solves the remaining algebra exactly:

* ``IA``  — repulsive pairing channel, low temperature: ``tanh -> +1`` so
  ``w_bar = lambda_b`` and the rest follows in closed form.
* ``IIA`` — attractive pairing channel, low temperature: ``tanh -> -1`` so
  ``w_bar = |lambda_b|`` (both couplings must be attractive for the branch
  to exist at all).
* ``IB``  — repulsive channel near the root-disappearance temperature:
  linearising the tanh gives ``w_bar = lambda_b*mu/(lambda_b - 2T)`` with
  ``delta_m -> lambda_m`` (the small-gap limit of the mean-field equation).
* ``IIB`` — attractive channel, small argument: same linearised forms.

A regime that does not apply to the sign pattern of the couplings raises
:class:`NotApplicable`; a regime whose formulas evaluate fine but sit
outside their own validity window returns ``valid=False`` instead, with the
margin showing how far outside.  Every formula is evaluated in units of a
power of two near the largest energy, which is exact, so that no square or
product over- or underflows: scaling all four energies by ``c`` scales each
returned energy by ``c`` and leaves ``valid`` and the margin as they are.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from enum import Enum

from .core_types import ModelParams, ldexp_or_inf, scale_exponent
from .errors import NotAdmissible, NotApplicable, SingularDenominator

DEFAULT_MARGIN_FACTOR = 10.0


class Regime(str, Enum):
    IA = "IA"
    IB = "IB"
    IIA = "IIA"
    IIB = "IIB"


@dataclass(frozen=True)
class RegimeSolution:
    """One closed-form branch with its own-validity assessment.

    ``validity_margin`` is >= 1 when the defining inequality of the regime is
    satisfied with the requested safety factor; ``valid`` also requires any
    regime-specific sign conditions.  ``delta_b`` may be NaN when the
    radicand of the energy identity goes negative — that is an out-of-window
    answer, not an error.
    """

    regime: Regime
    w_bar: float
    delta_m: float
    delta_b: float
    valid: bool
    validity_margin: float

    def as_dict(self) -> dict:
        return {**asdict(self), "regime": self.regime.value}


def _in_units(params: ModelParams) -> tuple[int, float, float, float, float]:
    """:func:`scale_exponent` ``e``, then lambda_b, lambda_m, mu and T over ``2**e``."""
    e = scale_exponent(params.lambda_b, params.lambda_m, params.mu)
    # T far above the energies scales past the largest double: inf, its limit
    return e, *(ldexp_or_inf(v, -e) for v in (params.lambda_b, params.lambda_m,
                                              params.mu, params.temperature))


def _saturated(regime: Regime, params: ModelParams) -> RegimeSolution:
    """Shared algebra for the saturated-tanh regimes IA / IIA."""
    e, lb, lm, mu, T = _in_units(params)
    w = abs(lb)
    denom = lb + lm
    if denom == 0.0:
        raise SingularDenominator(
            "lambda_b + lambda_m = 0: closed-form delta_m degenerates"
        )
    delta_m = lm * (lb - mu) / denom
    # radicand factorises: (|lb| - eff)(|lb| + eff) with eff = mu + delta_m
    eff = mu + delta_m
    radicand = w * w - eff * eff
    if regime is Regime.IA:
        gap_scale = lb - mu   # distance to the no-pairing boundary
    else:
        gap_scale = mu - w    # attractive side: Fermi level above |lambda_b|
    if T == 0.0:  # also a temperature too small for these units: its limit
        margin = math.inf if gap_scale > 0.0 else 0.0
    elif math.isinf(T):
        margin = 0.0
    else:
        margin = gap_scale / (2.0 * T * DEFAULT_MARGIN_FACTOR)
    valid = radicand > 0.0 and margin >= 1.0
    delta_b = math.sqrt(radicand) if radicand >= 0.0 else math.nan
    return RegimeSolution(regime, ldexp_or_inf(w, e), ldexp_or_inf(delta_m, e),
                          ldexp_or_inf(delta_b, e), valid, margin)


def regime_IA(params: ModelParams) -> RegimeSolution:
    """Low-temperature closed form for the repulsive pairing channel.

    ``w_bar = lambda_b`` exactly; the returned triple satisfies the energy
    identity to machine precision by construction.  Requires
    ``lambda_b > 0`` (else :class:`NotApplicable`).  Accurate once
    ``beta*(lambda_b - mu)/2 >> 1``; the margin divides that exponent by
    :data:`DEFAULT_MARGIN_FACTOR`.
    """
    if params.lambda_b <= 0.0:
        raise NotApplicable("regime IA needs lambda_b > 0")
    return _saturated(Regime.IA, params)


def regime_IIA(params: ModelParams) -> RegimeSolution:
    """Low-temperature closed form for the attractive pairing channel.

    Needs both couplings attractive (``lambda_b < 0`` and ``lambda_m < 0``);
    the mixed branch sits below the Fermi level, ``w_bar = |lambda_b| < mu``.
    The extra sign condition ``lambda_b + mu + 2*lambda_m < 0`` is what makes
    the radicand positive, so it is folded into ``valid``.
    """
    if params.lambda_b >= 0.0 or params.lambda_m >= 0.0:
        raise NotApplicable("regime IIA needs lambda_b < 0 and lambda_m < 0")
    sol = _saturated(Regime.IIA, params)
    if params.lambda_b + params.mu + 2.0 * params.lambda_m >= 0.0:
        return replace(sol, valid=False)
    return sol


def _linearised(regime: Regime, params: ModelParams) -> RegimeSolution:
    """Shared algebra for the small-argument regimes IB / IIB."""
    e, lb, lm, mu, T = _in_units(params)
    if lb == 2.0 * T:
        raise SingularDenominator(
            "lambda_b = 2T: the linearised pairing equation degenerates"
        )
    w = lb * mu / (lb - 2.0 * T)
    eff = mu + lm
    radicand = w * w - eff * eff
    if radicand < -1e-12 * max(1.0, w * w):
        raise NotAdmissible(
            f"linearised w_bar = {ldexp_or_inf(w, e):.6g} below effective energy "
            f"|mu + lambda_m| = {ldexp_or_inf(abs(eff), e):.6g}"
        )
    delta_b = math.sqrt(max(radicand, 0.0))

    if regime is Regime.IB:
        # window: T_lo < T <= T_hi with T_hi set by the small-argument bound
        t_hi = (lb - mu) / (2.0 * DEFAULT_MARGIN_FACTOR)
        t_lo = lm * lb / (2.0 * eff) if eff != 0.0 else math.inf
        in_window = eff > 0.0 and t_lo < T <= t_hi
        margin = T / t_lo if (eff > 0.0 and t_lo > 0.0 and math.isfinite(t_lo)) \
            else (math.inf if in_window else 0.0)
    else:
        # IIB mirror: lb < 0, both bounds reflected
        t_hi = lb * lm / (2.0 * eff) if eff != 0.0 else -math.inf
        t_lo = DEFAULT_MARGIN_FACTOR * (mu + lb) / 2.0
        in_window = eff > 0.0 and t_lo <= T < t_hi
        margin = t_hi / T if (eff > 0.0 and T > 0.0 and t_hi > 0.0) \
            else (math.inf if in_window else 0.0)
    return RegimeSolution(regime, ldexp_or_inf(w, e), params.lambda_m,
                          ldexp_or_inf(delta_b, e), in_window, margin)


def regime_IB(params: ModelParams) -> RegimeSolution:
    """Near-transition closed form for the repulsive channel.

    Valid in a temperature window just below the root-disappearance point:
    high enough that the tanh argument stays small, low enough that the
    linearisation error is controlled.  Requires ``lambda_b > 2T > 0``
    (``lambda_b <= 0`` or ``lambda_b < 2T`` raise :class:`NotApplicable`,
    equality raises :class:`SingularDenominator`).
    """
    if params.lambda_b <= 0.0:
        raise NotApplicable("regime IB needs lambda_b > 0")
    if math.isinf(params.temperature) or params.lambda_b < 2.0 * params.temperature:
        raise NotApplicable(
            "regime IB needs lambda_b > 2T (below the root-disappearance point)"
        )
    return _linearised(Regime.IB, params)


def regime_IIB(params: ModelParams) -> RegimeSolution:
    """Small-argument closed form for the attractive channel.

    Same linearised expressions as the repulsive case but with
    ``lambda_b < 0`` the denominator never vanishes at positive temperature.
    Requires ``lambda_b < 0`` and ``lambda_m < 0``.
    """
    if params.lambda_b >= 0.0 or params.lambda_m >= 0.0:
        raise NotApplicable("regime IIB needs lambda_b < 0 and lambda_m < 0")
    return _linearised(Regime.IIB, params)
