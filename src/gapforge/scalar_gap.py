"""Exact solver for the Fermi-surface reduction of the coupled gap equations.

At the Fermi surface the coupled system collapses to three scalar relations
for the mean-field shift ``delta_m``, the pairing gap ``delta_b`` and the
quasi-particle energy ``w_bar``:

* pairing self-consistency   ``w_bar = lambda_b * tanh(beta*(w_bar - mu)/2)``
* mean-field self-consistency, linear in ``delta_m`` once the pairing branch
  fixes ``tanh(...) = w_bar / lambda_b``, giving the closed form
  ``delta_m = lambda_m*(lambda_b - mu)/(lambda_b + lambda_m)``, and with it
  the effective energy ``omega_eff = mu + delta_m =
  lambda_b*(mu + lambda_m)/(lambda_b + lambda_m)``
* energy identity            ``w_bar**2 = omega_eff**2 + delta_b**2``

Everything here works in the reduced offset ``u = beta*(w_bar - mu)/2``, in
which the pairing equation reads ``u + mb = lb*tanh(u)`` with
``lb = beta*lambda_b/2``, ``mb = beta*mu/2``; ``w_bar - mu = 2T*u`` keeps its
precision where ``w_bar`` rounds to ``mu``.  For ``lambda_b > 0`` the defect
``g(u) = u + mb - lb*tanh(u)`` is strictly convex on ``u > 0`` with its
minimum at ``u_min = arccosh(sqrt(lb))``, of value :func:`tangency_distance`.
As ``g(0) = mb >= 0`` and ``g(lb - mb) >= 0``, its sign gives the roots:
below the curve one in ``[0, u_min]`` (the lower branch, absent at
``mb = 0`` where it is the trivial node) and one in ``[u_min, lb - mb]`` (the
upper branch); within the distance's rounding bound the single degenerate
root ``u_min``; above it none.  For ``lambda_b < 0`` the defect is strictly
increasing and there is exactly one root in ``(-mb, min(0, -lb - mb))``
whenever ``mu > 0``.  On each bracket the defect is convex towards the end
where it is positive, so every root, and the root of the pure branch, is
polished by the same guarded Newton iteration from that end.

A mixed root is lifted with ``omega_eff`` from its closed form
(:func:`effective_energy`), which the solution stores; the sum
``mu + delta_m`` cancels where ``|lambda_b| << mu`` and ``lambda_m < 0``.
"""

from __future__ import annotations

import functools
import math
import struct
import sys

from .core_types import (  # noqa: F401 - classify_region is re-exported
    _MIN_NORMAL,
    RESIDUAL_BOUND,
    GapSolution,
    ModelParams,
    PhaseLabel,
    SolveReport,
    classify_region,
    energy_identity_defect,
    fermi,
    ldexp_or_inf,
    tanh_half,
)
from .errors import (
    ConstraintViolation,
    DomainError,
    NotAdmissible,
    NotApplicable,
    SingularDenominator,
    ZeroCoupling,
)

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
    Its rounding error is at most ``16 * ulp(max(lb, mb))``.  An error in
    ``theta = asinh(sqrt(lb - 1))`` moves ``lb*tanh(theta) - theta`` only to
    second order, as its derivative ``lb*sech(theta)**2 - 1`` vanishes
    there; ``tanh``, the product and the two differences add about 3 ulps
    of values at most ``max(lb, mb)``, and 16 spares a factor of 5 for the
    libm (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
    ch. 3).  It is absolute, as ``x_e - theta`` cancels near ``lb = 1``.
    Only within it does the root finder report the tangent root ``u_min``.
    """
    return mu_bar - equilibrium_mu(lambda_b_bar)[0]


def _reduced_pairing_roots(lb: float, mb: float) -> list[tuple[float, PhaseLabel]]:
    """Roots ``u > -mb`` of ``u + mb = lb*tanh(u)``, ascending, each with its branch."""
    def g(u: float) -> tuple[float, float]:
        e = math.exp(-2.0 * abs(u))  # sech(u)**2 = 4e/(1 + e)**2, free of overflow
        return u + mb - lb * math.tanh(u), 1.0 - 4.0 * lb * e / ((1.0 + e) * (1.0 + e))

    # bracket end: g >= 0 in rounding too where u + mb >= |lb| >= lb*tanh(u)
    top = abs(lb) - mb
    if top + mb < abs(lb):
        top = math.nextafter(top, math.inf)
    if lb < 0.0:
        if mb == 0.0:  # the bracket holds only the trivial node u = 0
            return []
        # g rises through the root, convex on u < 0 up to g(0) = mb > 0
        return [(_bracketed_root(g, -mb, min(0.0, top)), PhaseLabel.MIXED_LOWER)]
    if lb <= 1.0:
        # slope bound: lb*tanh(u) < u + mb for all u > -mb when lb <= 1, mb >= 0
        return []
    u_min = _tangency_angle(lb)
    distance = mb - (lb * math.tanh(u_min) - u_min)  # tangency_distance(lb, mb)
    if abs(distance) <= 16.0 * math.ulp(max(lb, mb)):  # its rounding bound
        return [(u_min, PhaseLabel.TANGENT)]
    if not distance < 0.0:  # above the curve; NaN once lb overflows
        return []
    upper = (_bracketed_root(g, u_min, top), PhaseLabel.MIXED_UPPER)  # g convex on u > 0
    if mb == 0.0:
        return [upper]  # the lower bracket holds only the trivial node u = 0

    def mirrored(y: float) -> tuple[float, float]:
        # g(-y) and its slope in y: rises through the lower root's mirror,
        # convex up to g(0) = mb at y = 0
        e = math.exp(-2.0 * abs(y))
        return mb - y - lb * math.tanh(-y), 4.0 * lb * e / ((1.0 + e) * (1.0 + e)) - 1.0

    return [(-_bracketed_root(mirrored, -u_min, 0.0), PhaseLabel.MIXED_LOWER), upper]


def _mixed_roots(params: ModelParams,
                 beta: float) -> list[tuple[float, float, float, PhaseLabel]]:
    """Pairing roots as ``(w_bar, w_bar - mu, u, label)``; ``beta`` is ``params.beta``.

    ``u = beta*(w_bar - mu)/2`` is the reduced offset, ``+-inf`` at T = 0.
    """
    if params.lambda_b == 0.0:
        raise ZeroCoupling(
            "lambda_b = 0 forces a vanishing quasi-particle energy; "
            "only the trivial branch exists and it is signalled, not solved"
        )
    half_beta = 0.5 * beta
    lb, mu = params.lambda_b, params.mu
    lb_bar, mb_bar = lb * half_beta, mu * half_beta
    # at T = inf, lb_bar = +-0: no root by the slope bound
    if math.isinf(lb_bar) or math.isinf(mb_bar):  # T = 0, or lambda_b/T or mu/T overflows
        # step-function limit of the tanh factor; each root is the T -> 0+
        # limit of its branch, and exact to rounding where an energy over T
        # overflows: tanh saturates at the upper and the attractive root.
        if lb > 0.0 and lb > mu:
            return [(lb, lb - mu, math.inf, PhaseLabel.MIXED_UPPER)]
        if lb < 0.0 and -lb < mu:
            return [(-lb, -lb - mu, -math.inf, PhaseLabel.MIXED_LOWER)]
        return []
    two_t = 2.0 * params.temperature
    roots = []
    for u, phase in _reduced_pairing_roots(lb_bar, mb_bar):
        # w = lambda_b*tanh(u) > 0 gives u the sign of lambda_b, which an
        # underflowed offset keeps as a signed zero.  Below mu, mu + offset
        # would carry an error of ulp(mu).  Above it, an underflowed offset
        # counts as the smallest double, so w > mu holds at subnormal mu
        offset = math.copysign(two_t * u, lb)
        w = lb * math.tanh(u) if lb < 0.0 else mu + (offset or math.ulp(0.0))
        # w = 0 is the trivial node (it always solves the equation at mu = 0
        # but carries no pairing); a root that rounds to it is dropped
        if w > 0.0:
            roots.append((w, offset, u, phase))
    return roots


def pairing_energy_roots(params: ModelParams) -> list[float]:
    """All positive quasi-particle energies satisfying the pairing equation.

    Sorted ascending.  For ``lambda_b > 0`` there are 0, 1 (at ``mu = 0``,
    or on the tangency curve) or 2 of them; for ``lambda_b < 0`` at most one,
    none where it rounds to 0.  Each is a sign change of the reduced defect at
    adjacent doubles, or the tangent root.  Their count is what
    :func:`~gapforge.phase_diagram.multiplicity_class` reports.  Raises
    :class:`ZeroCoupling` for ``lambda_b == 0``.
    """
    return [root[0] for root in _mixed_roots(params, params.beta)]


def _mantissa_product(z: float, num: float, denom: float, shift: int = 0) -> float:
    """``z*(num/denom)*2**shift`` from the mantissas, for a quotient that underflows.

    Where the plain product is exact it gives the same bits.
    """
    (mz, ez), (mn, en), (md, ed) = map(math.frexp, (z, num, denom))
    return ldexp_or_inf(mz * (mn / md), ez + en - ed + shift)


def _closed_form(z: float, x: float, y: float,
                 params: ModelParams) -> tuple[float, float, float, float]:
    """``(z*ratio, num, denom, ratio)``, ``ratio = (x + y)/(lambda_b + lambda_m)``.

    Both mixed closed forms are such a product.  Whole sums keep a subnormal
    term that a half would round away; where one overflows, both are halved,
    exactly, so the ratio and its scaling by a power of two stay as they
    were.  Where the ratio underflows, maybe to -0.0, the product is taken
    from the mantissas.  Raises :class:`SingularDenominator` where
    ``lambda_b + lambda_m = 0``.
    """
    lambda_b, lambda_m = params.lambda_b, params.lambda_m
    num, denom = x + y, lambda_b + lambda_m
    if math.isinf(num) or math.isinf(denom):
        # a sum overflows only beside a large coupling: a half is 0 where the whole is
        num, denom = 0.5 * x + 0.5 * y, 0.5 * lambda_b + 0.5 * lambda_m
    if denom == 0.0:
        raise SingularDenominator("lambda_b + lambda_m = 0: the mean-field condition degenerates")
    ratio = num / denom  # infinite where it overflows
    if abs(ratio) < _MIN_NORMAL and num:
        return _mantissa_product(z, num, denom), num, denom, ratio
    return z * ratio, num, denom, ratio


def mean_field_gap_given_w(w_bar: float, params: ModelParams) -> float:
    """Mean-field shift on a mixed branch with quasi-particle energy ``w_bar``.

    On any root of the pairing equation the thermal factor equals
    ``w_bar / lambda_b``, which makes the mean-field condition linear with
    the closed form ``lambda_m*(lambda_b - mu)/(lambda_b + lambda_m)`` —
    independent of temperature and of ``w_bar`` itself.  It is evaluated as
    ``lambda_m`` times a scale-free ratio (:func:`_closed_form`), so
    scaling every energy by a power of two scales the shift by it exactly.
    That ratio ``delta_m/lambda_m`` is the occupation brace ``1 - e*t``, in
    ``[0, 2]``; outside it the sign or the bound of ``delta_m`` is broken: no
    consistent mixed branch.  Where the ratio underflows its sign is read
    from the two sums.
    """
    lambda_m = params.lambda_m
    if lambda_m == 0.0:
        return 0.0
    delta_m, num, denom, ratio = _closed_form(lambda_m, params.lambda_b, -params.mu, params)
    if num and (num < 0.0) != (denom < 0.0):
        raise ConstraintViolation(f"delta_m = {delta_m:.6g} has the opposite sign of lambda_m = "
                                  f"{lambda_m:.6g}; no consistent mixed branch here")
    if not ratio <= 2.0:  # an overflowed ratio too
        raise ConstraintViolation(f"|delta_m| = {abs(delta_m):.6g} exceeds 2*|lambda_m| = "
                                  f"{2.0 * abs(lambda_m):.6g}")
    return delta_m


def effective_energy(params: ModelParams) -> float:
    """The signed effective energy ``mu + delta_m`` on a mixed branch.

    It is the closed form ``lambda_b*(mu + lambda_m)/(lambda_b + lambda_m)``
    (:func:`_closed_form`), which keeps its relative precision where
    ``|lambda_b| << mu`` and ``lambda_m < 0`` cancel the sum to an absolute
    ulp of ``mu``.  It is ``mu`` exactly at ``lambda_m = 0``.  Raises
    :class:`SingularDenominator` where ``lambda_b + lambda_m = 0``.
    """
    if params.lambda_m == 0.0:
        return params.mu
    return _closed_form(params.lambda_b, params.mu, params.lambda_m, params)[0]


def recover_delta_b(w_bar: float, offset: float, delta_m: float,
                    omega_eff: float) -> float:
    """Pairing gap from the energy identity, non-negative representative.

    ``offset`` is the root's ``w_bar - mu`` and ``omega_eff`` its effective
    energy ``mu + delta_m`` (:func:`effective_energy`).  Returns the square
    root of ``(w_bar - omega_eff)*(w_bar + omega_eff)``, or raises
    :class:`NotAdmissible` where a factor is negative or -0.0.  The first
    is ``offset - delta_m``, whose sign survives where ``w_bar`` rounds to
    ``omega_eff``, or ``w_bar - omega_eff`` for a root below ``mu/2``.  An
    offset that underflowed to a signed zero keeps its sign, and gives
    ``delta_b = 0`` at ``delta_m = 0``; :func:`solve_all` takes that gap from
    the unrounded factors instead.  The second is halved to stay finite; one
    division by the larger keeps it in range.
    """
    below = offset - delta_m if abs(offset) <= w_bar else w_bar - omega_eff
    above = 0.5 * w_bar + 0.5 * omega_eff
    if math.copysign(1.0, below) < 0.0 or above < 0.0:
        raise NotAdmissible(
            f"w_bar = {w_bar:.6g} lies below the effective energy "
            f"|mu + delta_m| = {abs(omega_eff):.6g}: no mixed phase"
        )
    small, large = sorted((below, above))
    if small == 0.0:  # never -0.0, nor 0/0 where both factors vanish
        return 0.0
    return math.sqrt(2.0 * small / large) * large


def pure_mean_field(params: ModelParams) -> float:
    """The mean-field-only gap, the unique root of d*(1 + e^(beta*d)) = 2*lambda_m.

    Exists for every parameter set whose root is a finite double.  The left
    side is strictly increasing in ``d`` (its slope is at least
    ``1 - e**-2``), and the root lies in ``(0, lambda_m]`` for
    ``lambda_m > 0`` and in ``[2*lambda_m, lambda_m)`` for ``lambda_m < 0``.
    Guarded Newton steps from the end of that bracket farther from zero
    polish it to a sign change at adjacent doubles.  For ``lambda_m > 0``
    that end is also at most ``W(2*beta*lambda_m)/beta``, since ``beta*d``
    solves ``z*(1 + e^z) = 2*beta*lambda_m`` below Lambert's W, so Newton
    starts near the root at low temperature too: at most 9 evaluations
    with ``lambda_m`` from 1e-300 to 1e300, against 37 from ``lambda_m``.
    The chemical potential cancels from this branch entirely, so the root
    depends on ``(lambda_m, T)`` alone and is cached for the 256 latest
    pairs; :func:`solve_all` keeps the branch built on it, which depends on
    ``(lambda_m, mu, 1/T)``, in a memo of the same bound.  Exact limits:
    ``lambda_m`` at infinite temperature; ``0`` (from above) for
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

        if lm > 0.0:
            # z = beta*s solves z*(1 + e^z) = c = 2*beta*lambda_m, so z < W(c);
            # beta*m is formed first, as 2*beta may overflow
            lo, hi = 0.0, min(m, _lambert_w_bound(2.0 * (beta * m)) / beta)
        else:
            lo, hi = m, 2.0 * m
        # only where 2|lambda_m| overflows can the root lie beyond the bracket
        if math.isinf(hi) and g(sys.float_info.max)[0] < 0.0:
            s = math.inf
        else:
            s = _bracketed_root(g, lo, min(hi, sys.float_info.max))
    if math.isinf(s):
        raise DomainError(
            f"the pure-branch root for lambda_m = {lm!r} is not a finite double")
    return math.copysign(s, lm)


def _lambert_w_bound(c: float) -> float:
    """An upper bound on Lambert's W(c), the root of w*e^w = c; inf unless e < c < inf.

    W(c) <= ln c - ln ln c + e/(e - 1) * ln ln c / ln c for c > e, with
    equality at c = e (Hoorfar & Hassani, J. Inequal. Pure Appl. Math. 9
    (2008), art. 51).
    """
    if not math.e < c < math.inf:
        return math.inf
    log_c = math.log(c)
    log_log_c = math.log(log_c)
    return log_c - log_log_c + math.e / (math.e - 1.0) * log_log_c / log_c


# The pure branch depends on (lambda_m, mu, beta) alone, not on lambda_b: a
# scan, which walks lambda_b outermost, finds every later row's branches here.
# Emptied once it holds _PURE_SOLUTIONS_MAX of them
_pure_solutions: dict[tuple[float, float, float], GapSolution] = {}
_PURE_SOLUTIONS_MAX = 256


def _pure_solution(params: ModelParams, beta: float) -> GapSolution:
    """The pairing-free branch at ``params``; ``beta`` is ``params.beta``."""
    lm, mu = params.lambda_m, params.mu
    key = (lm, mu, beta)  # +-0.0 share a key, and give the same branch
    solution = _pure_solutions.get(key)
    if solution is not None:
        return solution
    dm = pure_mean_field(params)
    w = mu + dm  # signed effective energy on the pairing-free branch
    # at T = 0 and lambda_m > 0 the root is delta_m = 0+, where the step
    # function occupies nothing; its midpoint value 1/2 belongs to no side
    if dm == 0.0 and math.isinf(beta):
        occupation = 0.0
    else:
        occupation = fermi(dm, beta)
    # |dm - 2*lm*occupation| / |lm|, halved inside so 2*lm cannot overflow;
    # at lm = 0 the root is dm = 0 exactly
    residual = abs(0.5 * dm - lm * occupation) / (abs(lm) or 1.0) * 2.0
    solution = GapSolution(dm, 0.0, w, PhaseLabel.PURE_MEAN_FIELD, residual, w)
    if len(_pure_solutions) >= _PURE_SOLUTIONS_MAX:
        _pure_solutions.clear()
    _pure_solutions[key] = solution
    return solution


def _mixed_residual(w: float, offset: float, dm: float, db: float, eff: float,
                    params: ModelParams, beta: float) -> float:
    lb, lm = params.lambda_b, params.lambda_m
    t = tanh_half(offset, beta)
    r1 = abs(w - lb * t) / abs(lb)
    # delta_m is exactly 0 where lambda_m = 0
    r2 = abs(dm - lm * (1.0 - t * eff / w)) / (abs(lm) or 1.0)
    return max(r1, r2, energy_identity_defect(w, eff, db))


def _lift(w: float, offset: float, u: float, phase: PhaseLabel, params: ModelParams,
          beta: float) -> GapSolution:
    """The mixed solution on the root ``w``, ``offset = w - mu = 2T*u``; raises why not."""
    dm = mean_field_gap_given_w(w, params)
    eff = effective_energy(params)
    db = recover_delta_b(w, offset, dm, eff)
    if offset == 0.0 < u and dm == 0.0:
        # 2T*u underflowed; with delta_m = 0 it is the first factor of delta_b**2
        db = math.sqrt(2.0 * params.temperature) * math.sqrt(u) * math.sqrt(w + eff)
    residual = _mixed_residual(w, offset, dm, db, eff, params, beta)
    if not residual <= RESIDUAL_BOUND:
        raise NotAdmissible(f"residual {residual:.6g} exceeds {RESIDUAL_BOUND:g}")
    return GapSolution(dm, db, w, phase, residual, eff)


def solve_all(params: ModelParams) -> SolveReport:
    """Enumerate every self-consistent solution at one parameter point.

    The pure mean-field branch always comes first.  Each root of the pairing
    equation is then lifted to a full mixed solution when admissible; roots
    whose pairing amplitude would be imaginary, or whose mean-field shift
    violates its structural bounds, are dropped with an explanatory note
    rather than an error.  Every lifted root is kept whatever the sign of
    its effective energy ``omega_eff``; a caller holding to the restricted
    mixing angle ``|c| >= sqrt(2)/2`` keeps the solutions with
    ``omega_eff >= 0``.  Last, a mixed solution whose stored residual
    exceeds :data:`~gapforge.core_types.RESIDUAL_BOUND` is dropped with a
    note naming it.  Next to ``mu`` a root is admissible by the exact sign of
    ``w_bar - mu - delta_m`` (:func:`recover_delta_b`); at T = 0, where
    sign(0) = 0, the lower branch's T -> 0+ limit ``w_bar = mu`` is no root.

    A mixed solution's label names the bracket its root came from:
    ``mixed_upper`` for ``[u_min, lb - mb]``, ``mixed_lower`` for ``[0, u_min]``
    and for the attractive root, ``tangent`` where the point lies on the
    tangency curve to rounding.  The T = 0 roots carry the label of their
    T -> 0+ limit.

    The report stores ``params``, the solutions and the notes; its ``region``
    and each solution's ``coeffs`` are derived when read, so a solve builds neither.
    """
    beta = params.beta
    notes: list[str] = []
    solutions: list[GapSolution] = [_pure_solution(params, beta)]

    try:
        roots = _mixed_roots(params, beta)
    except ZeroCoupling:
        roots = []
        notes.append("pairing channel inactive (lambda_b = 0): no mixed branch")

    for w, offset, u, phase in roots:
        try:
            solutions.append(_lift(w, offset, u, phase, params, beta))
        except (SingularDenominator, ConstraintViolation, NotAdmissible) as exc:
            notes.append(f"root w_bar = {w:.9g} dropped: {exc}")

    return SolveReport(params, tuple(solutions), notes=tuple(notes))


def equilibrium_mu(lambda_b_bar: float) -> tuple[float, float]:
    """Tangency locus of the reduced pairing equation.

    For ``lb = lambda_b_bar >= 1`` returns ``(mu_e_bar, x_e)`` where
    ``mu_e_bar = lb*tanh(theta) - theta`` with ``theta = arccosh(sqrt(lb))``,
    and ``x_e = lb*tanh(theta)`` is the degenerate root location.  At
    ``mu_bar = mu_e_bar``, to the rounding bound of :func:`tangency_distance`,
    the root finder returns the single tangent root, at ``x_e``; two exist
    below the curve, none above.
    """
    lb = float(lambda_b_bar)
    if lb < 1.0:
        raise DomainError(
            f"equilibrium curve needs lambda_b_bar >= 1, got {lb!r}"
        )
    theta = _tangency_angle(lb)
    x_e = lb * math.tanh(theta)
    return x_e - theta, x_e


def _tangency_angle(lb: float) -> float:
    """``theta = arccosh(sqrt(lb))``, where the pairing defect has its minimum.

    Taken as ``asinh(sqrt(lb - 1))``, which does not round ``sqrt(lb)`` to
    1 near ``lb = 1``.
    """
    return math.asinh(math.sqrt(lb - 1.0))


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
