"""Exact solver for the Fermi-surface reduction of the coupled gap equations.

At the Fermi surface the coupled system collapses to three scalar relations
for the mean-field shift ``delta_m``, the pairing gap ``delta_b`` and the
quasi-particle energy ``w_bar``:

* pairing self-consistency   ``w_bar = lambda_b * tanh(beta*(w_bar - mu)/2)``
* mean-field self-consistency, linear in ``delta_m`` once the pairing branch
  fixes ``tanh(...) = w_bar / lambda_b``, giving the closed form
  ``delta_m = lambda_m*(lambda_b - mu)/(lambda_b + lambda_m)``
* energy identity            ``w_bar**2 = (mu + delta_m)**2 + delta_b**2``

Everything here works in the reduced variable ``x = beta*w_bar/2`` where the
pairing equation reads ``x = lb*tanh(x - mb)`` with ``lb = beta*lambda_b/2``,
``mb = beta*mu/2``.  For ``lambda_b > 0`` the defect ``f(x) = x - lb*tanh(x - mb)``
is strictly convex on ``(mb, lb]`` with its minimum at
``x_min = mb + arccosh(sqrt(lb))``; the minimum value equals the
:func:`tangency_distance` ``mb - mb_e``, where ``mb_e`` is the equilibrium
(tangency) chemical potential of :func:`equilibrium_mu`.  Since
``f(mb) = mb >= 0`` and ``f(lb) > 0``, the sign of that distance gives the
root count and the brackets: below the curve one root in ``[mb, x_min]``
(the lower branch, absent at ``mb = 0`` where it is the trivial node) and
one in ``[x_min, lb]`` (the upper branch); within :data:`TANGENCY_BAND` of
the curve the single degenerate root ``x_min``; above it none.  For
``lambda_b < 0`` the defect is strictly increasing and there is exactly one
root in ``(0, min(mb, |lb|))`` whenever ``mu > 0``.  On each bracket the
defect is convex towards the end where it is positive, so every root,
and the root of the pure branch, is polished by the same guarded Newton
iteration from that end, which ends on adjacent doubles.
"""

from __future__ import annotations

import functools
import math
import struct
import sys

from .core_types import (
    BogoliubovCoefficients,
    GapSolution,
    ModelParams,
    PhaseLabel,
    RegionLabel,
    SolveReport,
    bogoliubov_from_gaps,
    energy_identity_defect,
    fermi,
    scale_exponent,
    tanh_half,
    to_reduced,
)
from .errors import (
    ConstraintViolation,
    DomainError,
    InvalidParameter,
    NotAdmissible,
    NotApplicable,
    SingularDenominator,
    ZeroCoupling,
)

# Half-width, in reduced units, of the band around the tangency curve inside
# which the two repulsive roots count as one degenerate root.
TANGENCY_BAND = 1e-5

# The pairing-free branch has delta_b = 0, so its modes are not rotated.
_UNROTATED = BogoliubovCoefficients(1.0, 0.0, 0.0)

_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")
_SIGN_BIT = 1 << 63


def _order_key(x: float) -> int:
    """An integer that orders like ``x``: its bit pattern, negated if ``x < 0``."""
    bits = _U64.unpack(_F64.pack(x))[0]
    return bits if bits < _SIGN_BIT else _SIGN_BIT - bits


def _from_key(key: int) -> float:
    return _F64.unpack(_U64.pack(key if key >= 0 else _SIGN_BIT - key))[0]


def _bracketed_root(f, lo: float, hi: float) -> float:
    """The root of a function rising through zero on ``[lo, hi]``.

    ``f(x)`` returns the pair ``(f(x), f'(x))``.  ``f`` must be negative
    below the root and non-negative from it up to ``hi``; ``f(lo)`` is never
    evaluated, so a bracket end known to be negative only analytically still
    works.  Returns a double ``b`` in ``(lo, hi]`` with ``f(b) >= 0`` whose
    predecessor is ``lo`` or gives ``f < 0``: a sign change at adjacent
    doubles.

    Each step is a Newton step from the latest iterate, starting at ``hi``:
    on a defect convex up to ``hi`` the iterates fall monotonically onto the
    root (Kelley, *Iterative Methods for Linear and Nonlinear Equations*,
    1995, ch. 5).  A Newton point outside the bracket, or a step longer
    than half the one before the last, is replaced by a bisection of the
    doubles' order keys rather than their values, which halves the count of
    doubles in the bracket whatever the magnitudes.  A step of at most one
    ulp means the iterate sits in the defect's rounding zone; from there
    probes 1, 2, 4, ... ulps away walk towards the other bracket end until
    the sign changes, starting with the neighbouring double.  After 64
    evaluations the rest is key bisection, which ends within 64 more steps,
    so a root costs at most 128.
    """
    a, b = lo, hi
    x = hi
    step = prev = math.inf  # the last two steps
    nudge = 0.0  # ulps of the next probe, once Newton has stalled
    for _ in range(64):
        fx, dfx = f(x)
        if fx < 0.0:
            a = x
        else:
            b = x
        if math.nextafter(a, b) == b:
            return b
        y = x - fx / dfx if dfx else math.nan
        if nudge or abs(y - x) <= math.ulp(x):
            nudge = 2.0 * nudge or 1.0
            y = x - nudge * math.ulp(x) if x == b else x + nudge * math.ulp(x)
        elif not 2.0 * abs(y - x) <= abs(prev):
            y = math.nan
        if not a < y < b:
            y = _from_key((_order_key(a) + _order_key(b)) // 2)
        prev, step = step, y - x
        x = y
    a, b = _order_key(a), _order_key(b)
    while b - a > 1:
        mid = (a + b) // 2
        if f(_from_key(mid))[0] < 0.0:
            a = mid
        else:
            b = mid
    return _from_key(b)


def tangency_distance(lambda_b_bar: float, mu_bar: float) -> float:
    """Reduced distance ``mb - mb_e(lb)`` from the tangency curve, ``lb >= 1``.

    It equals the minimum of the convex pairing defect, so it is negative
    below the curve (two roots), zero on it and positive above it (none).
    The root finder alone treats ``|distance| <= TANGENCY_BAND`` as the
    single tangent root; :func:`solve_all` and
    :func:`~gapforge.phase_diagram.multiplicity_class` take its roots.
    """
    return mu_bar - equilibrium_mu(lambda_b_bar)[0]


def _reduced_pairing_roots(lb: float, mb: float) -> list[tuple[float, PhaseLabel]]:
    """Roots ``x > 0`` of ``x = lb*tanh(x - mb)``, ascending, each with its branch."""
    def f(x: float) -> tuple[float, float]:
        u = x - mb
        e = math.exp(-2.0 * abs(u))  # sech(u)**2 = 4e/(1 + e)**2, free of overflow
        return x - lb * math.tanh(u), 1.0 - 4.0 * lb * e / ((1.0 + e) * (1.0 + e))

    if lb < 0.0:
        if mb == 0.0:
            return []
        return [(_bracketed_root(f, 0.0, min(mb, -lb)),
                 PhaseLabel.MIXED_LOWER)]
    if lb <= 1.0:
        # slope bound: lb*tanh(x - mb) < x for all x > 0 when lb <= 1, mb >= 0
        return []
    distance = tangency_distance(lb, mb)
    x_min = mb + math.asinh(math.sqrt(lb - 1.0))  # = mb + arccosh(sqrt(lb))
    if abs(distance) <= TANGENCY_BAND:
        return [(x_min, PhaseLabel.TANGENT)]
    if not distance < 0.0:  # above the curve; NaN once lb overflows
        return []
    upper = (_bracketed_root(f, x_min, lb), PhaseLabel.MIXED_UPPER)
    if mb == 0.0:
        return [upper]  # the lower bracket holds only the trivial node x = 0

    def mirrored(y: float) -> tuple[float, float]:
        # f falls through the lower root; f(-y) rises through it, convex up
        # to its value mb at y = -mb, where Newton starts
        value, slope = f(-y)
        return value, -slope

    return [(-_bracketed_root(mirrored, -x_min, -mb),
             PhaseLabel.MIXED_LOWER), upper]


def _mixed_roots(params: ModelParams) -> list[tuple[float, PhaseLabel]]:
    """Physical quasi-particle energies solving the pairing equation, labelled."""
    if params.lambda_b == 0.0:
        raise ZeroCoupling(
            "lambda_b = 0 forces a vanishing quasi-particle energy; "
            "only the trivial branch exists and it is signalled, not solved"
        )
    beta = params.beta
    if beta == 0.0:
        return []  # tanh term vanishes identically: no positive root
    red = None if math.isinf(beta) else to_reduced(params)
    if red is None or math.isinf(red.lambda_b_bar):
        # step-function limit of the tanh factor; each root is the T -> 0+
        # limit of the same branch.  Where lambda_b / T overflows the reduced
        # coupling these roots are exact to rounding: tanh is saturated at
        # the upper root, and the lower one lies within rounding of mu.
        lb, mu = params.lambda_b, params.mu
        if lb > 0.0 and lb > mu:
            return [(lb, PhaseLabel.MIXED_UPPER)]
        if lb < 0.0 and -lb < mu:
            return [(-lb, PhaseLabel.MIXED_LOWER)]
        return []
    two_t = 2.0 * params.temperature
    # w = 0 is the trivial node (it always solves the equation at mu = 0 but
    # carries no pairing); a root that underflows to it is dropped
    return [(two_t * x, phase)
            for x, phase in _reduced_pairing_roots(red.lambda_b_bar, red.mu_bar)
            if two_t * x > 0.0]


def pairing_energy_roots(params: ModelParams) -> list[float]:
    """All positive quasi-particle energies satisfying the pairing equation.

    Sorted ascending.  For ``lambda_b > 0`` there are 0, 1 (at ``mu = 0``,
    or on the tangency band) or 2 of them; for ``lambda_b < 0`` at most one.
    Each root is the sign change of the reduced defect at adjacent doubles,
    found by guarded Newton steps from the bracket end where the convex
    defect is positive, except the tangent root, which is the defect's
    minimum ``x_min`` and so leaves a reduced defect of at most
    :data:`TANGENCY_BAND`.  Their count is what
    :func:`~gapforge.phase_diagram.multiplicity_class` reports.

    Raises :class:`ZeroCoupling` for ``lambda_b == 0``.
    """
    return [w for w, _ in _mixed_roots(params)]


def mean_field_gap_given_w(w_bar: float, params: ModelParams) -> float:
    """Mean-field shift on a mixed branch with quasi-particle energy ``w_bar``.

    On any root of the pairing equation the thermal factor equals
    ``w_bar / lambda_b``, which makes the mean-field condition linear with
    the closed form ``lambda_m*(lambda_b - mu)/(lambda_b + lambda_m)`` —
    independent of temperature and of ``w_bar`` itself.  The result is
    checked against the structural bounds ``sign(delta_m) = sign(lambda_m)``
    and ``|delta_m| <= 2*|lambda_m|``; a violation means the inputs are not a
    consistent mixed branch.  Where the numerator would over- or underflow
    the scale-free factor ``(lambda_b - mu)/(lambda_b + lambda_m)`` is
    evaluated in units of a power of two near the largest energy and then
    multiplied by ``lambda_m``, so the shift holds at any energy scale.
    """
    lambda_b, lambda_m, mu = params.lambda_b, params.lambda_m, params.mu
    if lambda_m == 0.0:
        return 0.0
    denom = lambda_b + lambda_m
    if denom == 0.0:
        raise SingularDenominator(
            "lambda_b + lambda_m = 0: the mean-field condition degenerates"
        )
    numerator = lambda_m * (lambda_b - mu)
    if 1e-290 <= abs(numerator) <= 1e290:
        delta_m = numerator / denom
    else:
        e = scale_exponent(lambda_b, lambda_m, mu)
        lb, lm, m = (math.ldexp(v, -e) for v in (lambda_b, lambda_m, mu))
        # lambda_m multiplies unscaled: far below the largest energy it would
        # lose its digits in these units.  Infinite beyond the largest
        # double, where the checks below reject it.
        delta_m = lambda_m * ((lb - m) / (lb + lm))
    if delta_m < 0.0 < lambda_m or lambda_m < 0.0 < delta_m:
        raise ConstraintViolation(
            f"delta_m = {delta_m:.6g} has the opposite sign of lambda_m = "
            f"{params.lambda_m:.6g}; no consistent mixed branch here"
        )
    if abs(delta_m) > 2.0 * abs(params.lambda_m) * (1.0 + 1e-12):
        raise ConstraintViolation(
            f"|delta_m| = {abs(delta_m):.6g} exceeds 2*|lambda_m| = "
            f"{2.0 * abs(params.lambda_m):.6g}"
        )
    return delta_m


def recover_delta_b(w_bar: float, delta_m: float, params: ModelParams,
                    tol: float = 1e-10) -> float:
    """Pairing gap from the energy identity, non-negative representative.

    Returns ``sqrt(w_bar**2 - (mu + delta_m)**2)``; both signs solve the
    system, the caller tracks the ambiguity.  Raises :class:`NotAdmissible`
    when the radicand is negative beyond rounding, i.e. the root supports no
    mixed phase.  The test is performed in units of the larger energy so it
    stays meaningful when the squares would underflow.
    """
    eff = params.mu + delta_m
    scale = max(abs(w_bar), abs(eff))
    if scale == 0.0:
        return 0.0
    rw, re = w_bar / scale, eff / scale
    radicand = rw * rw - re * re
    if radicand < -tol * max(1.0, rw * rw):
        raise NotAdmissible(
            f"w_bar = {w_bar:.6g} lies below the effective energy "
            f"|mu + delta_m| = {abs(eff):.6g}: no mixed phase"
        )
    return scale * math.sqrt(max(radicand, 0.0))


def pure_mean_field(params: ModelParams) -> float:
    """The mean-field-only gap, the unique root of d*(1 + e^(beta*d)) = 2*lambda_m.

    Exists for every parameter set whose root is a finite double.  The left
    side is strictly increasing in ``d`` (its slope is at least
    ``1 - e**-2``), and the root lies in ``(0, lambda_m]`` for
    ``lambda_m > 0`` and in ``[2*lambda_m, lambda_m)`` for ``lambda_m < 0``.
    Guarded Newton steps from the end of that bracket farther from zero
    polish it to a sign change at adjacent doubles.  The chemical potential
    cancels from this branch entirely, so the root depends on
    ``(lambda_m, T)`` alone and is cached for the 256 latest pairs.  Exact
    limits: ``lambda_m`` at infinite temperature; ``0`` (from above) for
    ``lambda_m > 0`` and ``2*lambda_m`` for ``lambda_m < 0`` at T = 0.

    Raises :class:`DomainError` where the root exceeds the largest double,
    which takes ``lambda_m < -max_double/2``.
    """
    return _pure_root(params.lambda_m, params.beta)


@functools.lru_cache(maxsize=256)
def _pure_root(lm: float, beta: float) -> float:
    if lm == 0.0:
        return 0.0
    if beta == 0.0:
        return lm
    m = abs(lm)
    if math.isinf(beta):
        s = 0.0 if lm > 0.0 else 2.0 * m
    else:
        # with d = sign(lambda_m)*s the defect g(s) = s*(1 + e^z)/2 - |lambda_m|,
        # z = sign(lambda_m)*beta*s, rises through one root in [0, |lambda_m|]
        # for lambda_m > 0 and in [|lambda_m|, 2|lambda_m|] for lambda_m < 0.
        # It is halved to stay finite up to the largest double, and compared
        # in logarithms where e^z would overflow.
        signed_beta = math.copysign(beta, lm)
        log_two_m = math.log(m) + math.log(2.0)

        def g(s: float) -> tuple[float, float]:
            z = signed_beta * s
            if z > 700.0:
                return math.log(s) + z - log_two_m, 1.0 / s + beta
            e = math.exp(z)
            return s * (0.5 + 0.5 * e) - m, 0.5 + 0.5 * e * (1.0 + z)

        lo, hi = (0.0, m) if lm > 0.0 else (m, 2.0 * m)
        # only where 2|lambda_m| overflows can the root lie beyond the bracket
        if math.isinf(hi) and g(sys.float_info.max)[0] < 0.0:
            s = math.inf
        else:
            s = _bracketed_root(g, lo, min(hi, sys.float_info.max))
    if math.isinf(s):
        raise DomainError(
            f"the pure-branch root for lambda_m = {lm!r} is not a finite double")
    return math.copysign(s, lm)


def _pure_solution(params: ModelParams) -> GapSolution:
    dm = pure_mean_field(params)
    lm = params.lambda_m
    w = params.mu + dm  # signed effective energy on the pairing-free branch
    # at T = 0 and lambda_m > 0 the root is delta_m = 0+, where the step
    # function occupies nothing; its midpoint value 1/2 belongs to no side
    if dm == 0.0 and math.isinf(params.beta):
        occupation = 0.0
    else:
        occupation = fermi(dm, params.beta)
    # |dm - 2*lm*occupation| / max(1, |lm|), halved inside so 2*lm cannot overflow
    residual = abs(0.5 * dm - lm * occupation) / max(1.0, abs(lm)) * 2.0
    return GapSolution(
        delta_m=dm,
        delta_b=0.0,
        w_bar=w,
        coeffs=_UNROTATED,
        phase=PhaseLabel.PURE_MEAN_FIELD,
        residual=residual,
        delta_b_sign_ambiguous=False,
    )


def _mixed_residual(w: float, dm: float, db: float, params: ModelParams) -> float:
    t = tanh_half(w - params.mu, params.beta)
    r1 = abs(w - params.lambda_b * t) / max(1.0, abs(params.lambda_b))
    omega_eff = params.mu + dm
    r2 = (abs(dm - params.lambda_m * (1.0 - t * omega_eff / w))
          / max(1.0, abs(params.lambda_m)))
    return max(r1, r2, energy_identity_defect(w, omega_eff, db))


def _lift(w: float, phase: PhaseLabel, params: ModelParams, tol: float,
          nonneg: bool) -> GapSolution:
    """The mixed solution on the pairing root ``w``, or the error saying why it is dropped."""
    dm = mean_field_gap_given_w(w, params)
    db = recover_delta_b(w, dm, params, tol)
    omega_eff = params.mu + dm
    if nonneg and omega_eff < 0.0:
        raise NotAdmissible(f"effective energy mu + delta_m = {omega_eff:.6g} < 0 "
                            "(restricted mixing angle)")
    return GapSolution(
        delta_m=dm,
        delta_b=db,
        w_bar=w,
        coeffs=bogoliubov_from_gaps(omega_eff, db),
        phase=phase,
        residual=_mixed_residual(w, dm, db, params),
        delta_b_sign_ambiguous=db > 0.0,
    )


def solve_all(params: ModelParams, tol: float = 1e-10,
              require_nonneg_effective_energy: bool = False) -> SolveReport:
    """Enumerate every self-consistent solution at one parameter point.

    The pure mean-field branch always comes first.  Each root of the pairing
    equation is then lifted to a full mixed solution when admissible; roots
    whose pairing amplitude would be imaginary, or whose mean-field shift
    violates its structural bounds, are dropped with an explanatory note
    rather than an error.  With ``require_nonneg_effective_energy`` the
    optional restriction ``mu + delta_m >= 0`` (equivalently
    ``|c| >= sqrt(2)/2``) is enforced as an additional admissibility filter.
    ``tol`` is the rounding allowance of that admissibility test
    (:func:`recover_delta_b`); root finding and the tangency band do not
    depend on it.  It must be finite and non-negative
    (:class:`InvalidParameter` otherwise).

    A mixed solution's label names the bracket its root came from:
    ``mixed_upper`` for ``[x_min, lb]``, ``mixed_lower`` for ``[mb, x_min]``
    and for the attractive root, ``tangent`` on the band.  The T = 0 roots
    carry the label of their T -> 0+ limit.
    """
    if not 0.0 <= tol < math.inf:
        raise InvalidParameter(f"tol must be finite and non-negative, got {tol!r}")
    notes: list[str] = []
    solutions: list[GapSolution] = [_pure_solution(params)]

    try:
        roots = _mixed_roots(params)
    except ZeroCoupling:
        roots = []
        notes.append("pairing channel inactive (lambda_b = 0): no mixed branch")

    for w, phase in roots:
        try:
            solutions.append(
                _lift(w, phase, params, tol, require_nonneg_effective_energy))
        except (SingularDenominator, ConstraintViolation, NotAdmissible) as exc:
            notes.append(f"root w_bar = {w:.9g} dropped: {exc}")

    return SolveReport(
        params=params,
        solutions=tuple(solutions),
        region=classify_region(params),
        multiplicity=len(solutions) - 1,
        notes=tuple(notes),
    )


def classify_region(params: ModelParams) -> RegionLabel:
    """Closed-form coupling-plane label; no root finding involved.

    Repulsive pairing channel (lambda_b > 0): mixed solutions need
    ``lambda_b > mu``; within that strip the low-temperature window is open
    for ``lambda_m > -(lambda_b + mu)/2`` and the near-transition window for
    ``lambda_m < (lambda_b - 4 mu)/4`` — both hold in the middle band
    (``B+``), only the former at large ``lambda_m`` (``A+``), only the
    latter at strongly negative ``lambda_m`` (``C+``).  Attractive channel
    (lambda_b < 0): the admissible band is
    ``-2 mu <= lambda_m <= -mu T / (|lambda_b| + 2 T)`` (upper bound taken
    in the limit at T = inf), split into ``B-`` below
    ``-(lambda_b + 4 mu)/4`` and ``A-`` above.  Each bound is evaluated in a
    form whose intermediates stay finite up to the largest double; where
    ``|lambda_b| + 2 T`` overflows, the upper attractive bound is taken in
    units of a power of two.  Comparisons are plain IEEE inequalities, so
    exact boundary points deterministically join the closed side.
    """
    lb, lm, mu, T = params.lambda_b, params.lambda_m, params.mu, params.temperature
    if lb > 0.0:
        if lb <= mu:
            return RegionLabel.NONE
        low_t_side = lm > -(lb / 2.0 + mu / 2.0)
        near_tc_side = lm < lb / 4.0 - mu
        if low_t_side and near_tc_side:
            return RegionLabel.B_PLUS
        if low_t_side:
            return RegionLabel.A_PLUS
        return RegionLabel.C_PLUS
    if lb < 0.0:
        # -0.0 at T = 0; inf / inf would be NaN, so T = inf takes its limit
        if math.isinf(T):
            upper = -mu / 2.0
        else:
            t, denom = T, abs(lb) + 2.0 * T
            if math.isinf(denom):
                # the ratio is scale-free: take it in units of 2**e instead
                e = scale_exponent(lb, T)
                t = math.ldexp(T, -e)
                denom = math.ldexp(abs(lb), -e) + 2.0 * t
            upper = -mu * (t / denom)
        if not (-2.0 * mu <= lm <= upper):
            return RegionLabel.NONE
        if lm < -(lb / 4.0 + mu):
            return RegionLabel.B_MINUS
        return RegionLabel.A_MINUS
    return RegionLabel.NONE


def equilibrium_mu(lambda_b_bar: float) -> tuple[float, float]:
    """Tangency locus of the reduced pairing equation.

    For ``lb = lambda_b_bar >= 1`` returns ``(mu_e_bar, x_e)`` where
    ``mu_e_bar = lb*tanh(theta) - theta`` with ``theta = arccosh(sqrt(lb))``,
    and ``x_e = lb*tanh(theta)`` is the degenerate root location.  At
    ``mu_bar = mu_e_bar`` (and within ``TANGENCY_BAND`` of it) the root
    finder returns the single tangent root ``x_e``; two roots exist below
    the curve, none above.
    """
    lb = float(lambda_b_bar)
    if lb < 1.0:
        raise DomainError(
            f"equilibrium curve needs lambda_b_bar >= 1, got {lb!r}"
        )
    # arccosh(sqrt(lb)), without the rounding of sqrt(lb) to 1 near lb = 1
    theta = math.asinh(math.sqrt(lb - 1.0))
    x_e = lb * math.tanh(theta)
    return x_e - theta, x_e


def critical_temperature(params: ModelParams) -> float:
    """Temperature above which the pairing equation has no roots: lambda_b / 2.

    Only defined for ``lambda_b > 0``; the attractive-channel model states no
    critical temperature, so :class:`NotApplicable` is raised there instead
    of guessing one.
    """
    if params.lambda_b <= 0.0:
        raise NotApplicable(
            "no critical-temperature formula for lambda_b <= 0"
        )
    return 0.5 * params.lambda_b
