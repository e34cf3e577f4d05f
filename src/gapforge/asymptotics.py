"""Closed-form limits of the scalar gap system in four parameter regimes.

Each regime freezes the tanh factor of the pairing equation, which gives it
its own root ``w_bar``, mean-field shift ``delta_m`` and temperature window
(``F`` is :data:`DEFAULT_MARGIN_FACTOR`):

* ``IA``  — repulsive pairing channel, low temperature: ``tanh -> +1`` so
  ``w_bar = lambda_b``; window ``T <= (lambda_b - mu)/(2F)``.
* ``IIA`` — attractive pairing channel, low temperature: ``tanh -> -1`` so
  ``w_bar = |lambda_b|``; window ``T <= (mu - |lambda_b|)/(2F)``.
* ``IB``  — repulsive channel near the root-disappearance temperature:
  linearising the tanh gives ``w_bar = lambda_b*mu/(lambda_b - 2T)`` with
  ``delta_m = lambda_m`` (the small-gap limit of the mean-field equation);
  window ``lambda_m*lambda_b/(2(mu + lambda_m)) <= T <= (lambda_b - mu)/(2F)``.
* ``IIB`` — attractive channel, small argument: same linearised forms;
  window ``F(mu + lambda_b)/2 <= T <= lambda_b*lambda_m/(2(mu + lambda_m))``.

IA and IIA take ``delta_m`` from
:func:`~gapforge.scalar_gap.mean_field_gap_given_w` and the effective energy
from :func:`~gapforge.scalar_gap.effective_energy`: they are exactly the
T = 0 branch of ``solve_all``.  IB and IIB lift with their own shift, the
effective energy ``mu + lambda_m``.  Every regime takes ``delta_b`` from the
lift ``solve_all`` uses, :func:`~gapforge.scalar_gap.recover_delta_b`, and its
margin from one rule (see :class:`RegimeSolution`); IB and IIB need
``mu + lambda_m > 0`` and have margin 0 elsewhere.  A regime that does not
apply to the sign pattern of the couplings raises :class:`NotApplicable`.
Roots and windows are evaluated in the energies themselves: a sum that
would overflow is scaled down exactly, and the linearised root and the edge
``lambda_m*lambda_b/(2(mu + lambda_m))`` are formed from the mantissas, so no
intermediate over- or underflows where the result is a double, and scaling
all four energies by a power of two scales each returned energy by it and
leaves ``valid`` and the margin as they are.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum

from .core_types import ModelParams, ldexp_or_inf
from .errors import ConstraintViolation, NotAdmissible, NotApplicable, SingularDenominator
from .scalar_gap import _mantissa_product, effective_energy, mean_field_gap_given_w, recover_delta_b

DEFAULT_MARGIN_FACTOR = 10.0


class Regime(str, Enum):
    IA = "IA"
    IB = "IB"
    IIA = "IIA"
    IIB = "IIB"


@dataclass(frozen=True)
class RegimeSolution:
    """One closed-form branch with its own-validity assessment.

    ``validity_margin`` is ``min(T/T_lo, T_hi/T)`` over the regime's
    temperature window, a lower bound ``T_lo <= 0`` counting as inf, and at
    T = 0 its T -> 0+ limit: >= 1 exactly where T lies in the window.
    ``valid`` also requires ``delta_b > 0``.  An imaginary gap is not an
    error: ``delta_b`` is NaN (and so is an IA/IIA ``delta_m`` outside its
    bounds), with ``valid=False``.
    """

    regime: Regime
    w_bar: float
    delta_m: float
    delta_b: float
    valid: bool
    validity_margin: float

    def as_dict(self) -> dict:
        return {**asdict(self), "regime": self.regime.value}


def _margin(T: float, t_lo: float, t_hi: float) -> float:
    """``min(T/t_lo, t_hi/T)``: at least 1 exactly where ``t_lo <= T <= t_hi``.

    A lower bound ``t_lo <= 0`` is absent and its ratio counts as inf.  At
    T = 0 the margin is its T -> 0+ limit: inf where every small T > 0 lies
    in the window, 0 elsewhere.
    """
    if T == 0.0:
        return math.inf if t_lo <= 0.0 < t_hi else 0.0
    return min(T / t_lo if t_lo > 0.0 else math.inf, t_hi / T)


def _lifted(regime: Regime, params: ModelParams, w_bar: float, delta_m: float,
            omega_eff: float, margin: float) -> RegimeSolution:
    """``w_bar`` lifted as ``solve_all`` lifts a root; ``delta_b`` is NaN where it is refused."""
    try:
        delta_b = recover_delta_b(w_bar, w_bar - params.mu, delta_m, omega_eff)
    except NotAdmissible:
        delta_b = math.nan
    return RegimeSolution(regime, w_bar, delta_m, delta_b,
                          margin >= 1.0 and delta_b > 0.0, margin)


def _saturated(regime: Regime, params: ModelParams) -> RegimeSolution:
    """IA / IIA: the T = 0 root ``w_bar = |lambda_b|`` with the shift ``solve_all`` gives it.

    The window asks ``beta*(w_bar - mu)/2 >= F`` with the sign of lambda_b; its
    margin, a ratio of temperatures, is taken in units of ``1/(2F)``.
    """
    lb, T = params.lambda_b, params.temperature
    margin = _margin(2.0 * DEFAULT_MARGIN_FACTOR * T, 0.0, lb - math.copysign(params.mu, lb))
    w = abs(lb)
    try:
        delta_m = mean_field_gap_given_w(w, params)
    except ConstraintViolation:  # on this root, exactly where delta_b**2 < 0
        return RegimeSolution(regime, w, math.nan, math.nan, False, margin)
    return _lifted(regime, params, w, delta_m, effective_energy(params), margin)


def regime_IA(params: ModelParams) -> RegimeSolution:
    """Low-temperature closed form for the repulsive pairing channel.

    ``w_bar = lambda_b`` exactly, the T = 0 root.  Requires
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
    Its gap is real where ``lambda_b + mu + 2*lambda_m < 0``, the sign of
    ``delta_b**2`` that the lift decides.
    """
    if params.lambda_b >= 0.0 or params.lambda_m >= 0.0:
        raise NotApplicable("regime IIA needs lambda_b < 0 and lambda_m < 0")
    return _saturated(Regime.IIA, params)


def _linearised(regime: Regime, params: ModelParams, window) -> RegimeSolution:
    """IB / IIB: the linearised root with ``delta_m = lambda_m``.

    ``window(lb, lm, mu)`` is ``(T_lo, T_hi)``, wanted where ``mu + lambda_m > 0``.
    """
    lb, lm, mu, T = params.lambda_b, params.lambda_m, params.mu, params.temperature
    if lb == 2.0 * T:
        raise SingularDenominator(
            "lambda_b = 2T: the linearised pairing equation degenerates"
        )
    # IIB's |lambda_b| + 2T may pass the largest double: then it is quartered, exactly
    den, quartered = lb - 2.0 * T, 0
    if math.isinf(den):
        den, quartered = 0.25 * lb - 0.5 * T, 2
    w = _mantissa_product(mu, lb, den, -quartered)  # mu exactly at T = 0
    eff = mu + lm
    margin = _margin(T, *window(lb, lm, mu)) if eff > 0.0 else 0.0
    return _lifted(regime, params, w, lm, eff, margin)


def _edge(lb: float, lm: float, mu: float) -> float:
    """``lambda_b*lambda_m/(2(mu + lambda_m))`` from the mantissas; a sum that overflows is halved."""
    s, halved = mu + lm, 0
    if math.isinf(s):
        s, halved = 0.5 * mu + 0.5 * lm, 1
    (mb, eb), (mm, em), (ms, es) = map(math.frexp, (lb, lm, s))
    # not _mantissa_product: its mb*(mm/ms) rounds about a third of these edges differently
    return ldexp_or_inf(mb * mm / ms, eb + em - es - halved - 1)


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
    return _linearised(Regime.IB, params, lambda lb, lm, mu: (
        _edge(lb, lm, mu), (lb - mu) / (2.0 * DEFAULT_MARGIN_FACTOR)))


def regime_IIB(params: ModelParams) -> RegimeSolution:
    """Small-argument closed form for the attractive channel.

    Same linearised expressions as the repulsive case but with
    ``lambda_b < 0`` the denominator never vanishes at positive temperature.
    Requires ``lambda_b < 0`` and ``lambda_m < 0``.
    """
    if params.lambda_b >= 0.0 or params.lambda_m >= 0.0:
        raise NotApplicable("regime IIB needs lambda_b < 0 and lambda_m < 0")
    return _linearised(Regime.IIB, params, lambda lb, lm, mu: (
        0.5 * DEFAULT_MARGIN_FACTOR * (mu + lb), _edge(lb, lm, mu)))
