"""Independent reference implementations used to pin expected test values.

Everything in here is deliberately written against ``math``/``numpy`` and
the stdlib ``decimal`` only —
no imports from :mod:`gapforge` — so a test comparing the library to these
helpers exercises two genuinely separate code paths.  The closed-form
constants sprinkled through the test modules were produced by these
functions; re-running them should reproduce every frozen digit.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np


def pairing_defect(w: float, lambda_b: float, mu: float, temperature: float) -> float:
    """Scalar self-consistency defect w - lambda_b * tanh((w - mu) / 2T)."""
    return w - lambda_b * math.tanh((w - mu) / (2.0 * temperature))


def bisect(f, lo: float, hi: float, iters: int = 200) -> float:
    f_lo, f_hi = f(lo), f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0.0) == (f_mid < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


def scan_pairing_roots(lambda_b: float, mu: float, temperature: float,
                       lo: float, hi: float, n: int = 200_000) -> list[float]:
    """Brute-force root scan of the pairing equation on (lo, hi)."""
    f = lambda w: pairing_defect(w, lambda_b, mu, temperature)
    xs = np.linspace(lo, hi, n + 1)
    vals = np.array([f(x) for x in xs])
    roots = []
    for a, b, fa, fb in zip(xs, xs[1:], vals, vals[1:]):
        if fa == 0.0:
            roots.append(float(a))
        elif fa * fb < 0.0:
            roots.append(bisect(f, float(a), float(b)))
    if vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return roots


def pure_gap(lambda_m: float, beta: float) -> float:
    """Root of d * (1 + exp(beta * d)) = 2 * lambda_m by bisection."""
    if lambda_m == 0.0:
        return 0.0
    g = lambda d: d * (1.0 + math.exp(min(beta * d, 700.0))) - 2.0 * lambda_m
    lo, hi = (-(abs(lambda_m) * 2 + 1), 0.0) if lambda_m < 0 else (0.0, 2 * lambda_m + 1)
    return bisect(g, lo, hi)


def mixed_delta_m(w: float, lambda_b: float, lambda_m: float, mu: float) -> float:
    return lambda_m * (lambda_b - mu) / (lambda_b + lambda_m)


def smearing_intensity_gaussian(kappa: float) -> float:
    """Exact double integral of exp(-2k(p-p')^2 - p^2 - p'^2) over the plane."""
    return math.pi / math.sqrt(4.0 * kappa + 1.0)


def tangency_point(lambda_b_bar: float) -> tuple[float, float]:
    """(mu_e_bar, x_e) where the reduced pairing curve touches the diagonal."""
    theta = math.acosh(math.sqrt(lambda_b_bar))
    x_e = lambda_b_bar * math.tanh(theta)
    return x_e - theta, x_e


def occupation_reference(c2: float, fermi: float) -> float:
    return c2 * fermi + (1.0 - c2) * (1.0 - fermi)


def _decimal_tanh(u):
    """tanh of a ``Decimal`` through ``Decimal.exp``, with its series where ``u`` is tiny."""
    if abs(u) < Decimal("1e-8"):
        u2 = u * u
        return u * (1 - u2 / 3 + 2 * u2 * u2 / 15)
    e = (-2 * abs(u)).exp()
    t = (1 - e) / (1 + e)
    return t if u > 0 else -t


def decimal_branches(lambda_b: float, lambda_m: float, mu: float, temperature: float,
                     digits: int = 60) -> list[dict]:
    """Every mixed branch of the scalar system at T > 0, solved in stdlib ``decimal``.

    Each root of ``u + mb = lb*tanh(u)`` (``u = (w_bar - mu)/2T``, ``lb =
    lambda_b/2T``, ``mb = mu/2T``) is found by Newton's method from the end
    of its bracket where the convex defect is positive, as ``digits``-digit
    decimals.  A dict per root, ascending, holds its ``label`` ("lower",
    "upper"; the attractive root is "lower"), ``offset`` = w_bar - mu,
    ``w_bar``, ``delta_m`` from the closed form, ``ratio`` = delta_m /
    lambda_m (0 where lambda_m = 0), ``omega_eff`` = mu + delta_m,
    ``below`` = w_bar - mu - delta_m, ``above`` = w_bar + mu + delta_m and
    ``db2`` = delta_b**2, their product.  A branch exists where
    ``0 <= ratio <= 2``, ``below >= 0`` and ``above >= 0``.  Points next to
    the tangency curve, where Newton meets a double root, are the caller's
    to avoid.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        lam_b, lam_m, m = Decimal(lambda_b), Decimal(lambda_m), Decimal(mu)
        two_t = 2 * Decimal(temperature)
        lb, mb = lam_b / two_t, m / two_t

        def newton(u):
            for _ in range(2000):
                t = _decimal_tanh(u)
                step = (u + mb - lb * t) / (1 - lb * (1 - t * t))
                u -= step
                if abs(step) <= abs(u) * Decimal(10) ** (8 - digits) or step == 0:
                    return u
            raise ArithmeticError("Newton did not converge")

        roots = []
        if lambda_b < 0.0 and mu > 0.0:
            roots.append(("lower", newton(Decimal(0))))
        elif lb > 1:
            s = (lb - 1).sqrt()
            u_min = (s + (s * s + 1).sqrt()).ln()  # asinh(sqrt(lb - 1))
            if u_min + mb - lb * _decimal_tanh(u_min) < 0:
                if mu > 0.0:
                    roots.append(("lower", newton(Decimal(0))))
                roots.append(("upper", newton(lb)))
        if lambda_m == 0.0:
            dm = ratio = Decimal(0)
        else:
            ratio = (lam_b - m) / (lam_b + lam_m)
            dm = lam_m * ratio
        branches = []
        for label, u in roots:
            offset = two_t * u
            w = m + offset
            below, above = offset - dm, w + m + dm
            branches.append({"label": label, "offset": offset, "w_bar": w, "delta_m": dm,
                             "ratio": ratio, "omega_eff": m + dm, "below": below,
                             "above": above, "db2": below * above})
        return branches
