"""Shared value types for the coupled mean-field / pairing gap equations.

The model couples two interaction channels of a fermion gas: a density
(mean-field) channel with strength ``lambda_m`` producing an energy shift
``delta_m``, and a pairing channel with strength ``lambda_b`` producing a
superconducting gap ``delta_b``.  Together with the chemical potential ``mu``
and the temperature ``T`` these four energies fix everything; only their
ratios matter, so no unit system is imposed.

Temperature conventions
-----------------------
``T == 0`` is a distinguished flag meaning ``beta = inf``; all thermal
factors then take their exact step/sign limits instead of overflowing.
``T == inf`` is likewise allowed and means ``beta = 0``.

Reduced variables
-----------------
Scale-free analysis uses "barred" quantities ``Q_bar = beta * Q / 2``.  They
are undefined at zero temperature, where :func:`to_reduced` raises.

All types here are immutable value objects and safe to share across threads.
The dataclasses are frozen and slotted: they have no ``__dict__`` (use
:func:`dataclasses.asdict` or ``as_dict``, not ``vars``), assigning to a
field raises :class:`dataclasses.FrozenInstanceError`, and
:func:`dataclasses.replace` builds a changed copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from enum import Enum
from typing import NamedTuple

from .errors import (
    InvalidParameter,
    NegativeChemicalPotential,
    NegativeTemperature,
    ZeroEnergy,
    ZeroTemperature,
)


@dataclass(frozen=True, slots=True)
class ModelParams:
    """The four model energies: pairing and mean-field couplings, mu, T.

    Valid by construction: each field is stored as a plain ``float``, a
    negative zero temperature as ``0.0``, and :func:`validate` rejects an
    out-of-range value with a typed :class:`InvalidParameter`.
    """

    lambda_b: float
    lambda_m: float
    mu: float
    temperature: float

    def __post_init__(self) -> None:
        set_field = object.__setattr__  # the dataclass is frozen
        set_field(self, "lambda_b", float(self.lambda_b))
        set_field(self, "lambda_m", float(self.lambda_m))
        set_field(self, "mu", float(self.mu))
        temp = float(self.temperature)
        # -0.0 becomes the canonical zero-temperature flag; a plain float
        # argument is kept as is, so no new float is made per instance
        set_field(self, "temperature", 0.0 if temp == 0.0 else temp)
        validate(self)

    @property
    def beta(self) -> float:
        """Inverse temperature; ``inf`` at T = 0 and ``0`` at T = inf."""
        if self.temperature == 0.0:
            return math.inf
        if math.isinf(self.temperature):
            return 0.0
        return 1.0 / self.temperature

    @property
    def is_zero_temperature(self) -> bool:
        return self.temperature == 0.0


class ReducedParams(NamedTuple):
    """Barred (dimensionless) couplings and chemical potential."""

    lambda_b_bar: float
    lambda_m_bar: float
    mu_bar: float


def validate(params: ModelParams) -> ModelParams:
    """Check parameter ranges and return ``params`` itself.

    ``mu`` must be finite and non-negative, the couplings finite, and the
    temperature non-negative (``inf`` is allowed).  Every ``ModelParams``
    passes this check when it is built, so solvers do not repeat it.
    """
    lb, lm, mu, temp = params.lambda_b, params.lambda_m, params.mu, params.temperature
    if not math.isfinite(lb):
        raise InvalidParameter(f"lambda_b must be finite, got {lb!r}")
    if not math.isfinite(lm):
        raise InvalidParameter(f"lambda_m must be finite, got {lm!r}")
    if not math.isfinite(mu):
        raise InvalidParameter(f"mu must be finite, got {mu!r}")
    if mu < 0.0:
        raise NegativeChemicalPotential(f"mu must be >= 0, got {mu!r}")
    if math.isnan(temp) or temp < 0.0:
        raise NegativeTemperature(f"temperature must be >= 0, got {temp!r}")
    return params


def to_reduced(params: ModelParams) -> ReducedParams:
    """Return the barred values ``beta * Q / 2`` for the couplings and mu.

    Raises :class:`ZeroTemperature` at T = 0 where these diverge.  At
    infinite temperature all barred values are zero.
    """
    if params.temperature == 0.0:
        raise ZeroTemperature("reduced (barred) variables are undefined at T = 0")
    half_beta = 0.5 * params.beta
    return ReducedParams(
        params.lambda_b * half_beta,
        params.lambda_m * half_beta,
        params.mu * half_beta,
    )


def scale_exponent(*energies: float) -> int:
    """``e`` with ``2**(e-1) <= max |energy| < 2**e``: exact units free of over- and underflow."""
    return math.frexp(max(map(abs, energies)))[1]


def ldexp_or_inf(x: float, e: int) -> float:
    """``x * 2**e``, or the infinity of ``x``'s sign where that overflows."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def fermi(x: float, beta: float) -> float:
    """Occupation factor 1/(e^(beta*x) + 1) of a real ``x``, as a ``float``.

    Exact limits are used at the distinguished temperatures: a step function
    at ``beta = inf`` (with value 1/2 at x = 0) and the constant 1/2 at
    ``beta = 0``.  The exponent is clipped to avoid overflow.
    """
    x = float(x)  # an array scalar would keep its own arithmetic and warnings
    if math.isinf(beta):
        return 1.0 if x < 0.0 else 0.0 if x > 0.0 else 0.5
    if beta == 0.0:
        return 0.5
    return 1.0 / (1.0 + math.exp(min(max(beta * x, -700.0), 700.0)))


def tanh_half(x: float, beta: float) -> float:
    """tanh(beta*x/2) of a real ``x``, with sign-function limit at beta = inf."""
    x = float(x)
    if math.isinf(beta):
        return 1.0 if x > 0.0 else -1.0 if x < 0.0 else x - x  # 0.0, or nan
    return math.tanh(0.5 * beta * x)


@dataclass(frozen=True, slots=True)
class BogoliubovCoefficients:
    """Real rotation coefficients (c, s) with mixing angle phi.

    ``c = cos(phi)`` and ``s = sin(phi)``; the rotation diagonalizes the
    quadratic mode Hamiltonian.  For non-negative effective single-particle
    energy the angle stays in [-pi/4, pi/4], equivalently ``|c| >= sqrt(2)/2``.
    """

    c: float
    s: float
    phi: float

    def as_dict(self) -> dict:
        return {"c": self.c, "s": self.s, "phi": self.phi}


def bogoliubov_from_gaps(omega_eff: float, delta_b: float) -> BogoliubovCoefficients:
    """Rotation diagonalizing one mode: phi = atan2(delta_b, omega_eff) / 2.

    The coefficients satisfy ``c**2 - s**2 = omega_eff / w_bar`` and
    ``2 c s = delta_b / w_bar`` with ``w_bar = hypot(omega_eff, delta_b)``.
    For ``omega_eff >= 0`` (and ``delta_b >= 0``) the angle stays in
    ``[0, pi/4]`` so ``c >= sqrt(2)/2``; a negative effective energy pushes
    ``phi`` past ``pi/4``, which is exactly the restricted-mixing-angle
    violation the admissibility filters watch for.

    Raises :class:`ZeroEnergy` when both arguments vanish (the rotation is
    then undefined along with the quasi-particle energy).
    """
    if omega_eff == 0.0 and delta_b == 0.0:
        raise ZeroEnergy("omega_eff = delta_b = 0: no quasi-particle energy scale")
    phi = 0.5 * math.atan2(delta_b, omega_eff)
    return BogoliubovCoefficients(c=math.cos(phi), s=math.sin(phi), phi=phi)


class PhaseLabel(str, Enum):
    """Which self-consistent branch a solution belongs to.

    ``MIXED_LOWER`` / ``MIXED_UPPER`` name the lower and upper root of the
    pairing equation a mixed solution came from (the lone attractive-side
    root counts as lower); ``TANGENT`` marks the degenerate double root at
    the bifurcation locus.
    """

    PURE_MEAN_FIELD = "pure_mean_field"
    MIXED_LOWER = "mixed_lower"
    MIXED_UPPER = "mixed_upper"
    TANGENT = "tangent"


class RegionLabel(str, Enum):
    """Coupling-plane region of a parameter point (see ``classify_region``)."""

    A_PLUS = "A+"
    B_PLUS = "B+"
    C_PLUS = "C+"
    A_MINUS = "A-"
    B_MINUS = "B-"
    NONE = "none"


@dataclass(frozen=True, slots=True)
class GapSolution:
    """One converged solution of the coupled gap system.

    ``delta_b`` is stored non-negative; the pairing gap enters the equations
    only through its square, so ``+delta_b`` and ``-delta_b`` are physically
    equivalent.  ``delta_b_sign_ambiguous`` records that both signs are valid
    whenever ``delta_b > 0``.

    ``w_bar`` is the quasi-particle energy at the Fermi surface.  Mixed
    solutions always have ``w_bar > 0``; for the pure mean-field branch the
    signed effective energy ``mu + delta_m`` is stored (it may be negative),
    which keeps ``w_bar**2 == (mu + delta_m)**2 + delta_b**2`` exact.
    """

    delta_m: float
    delta_b: float
    w_bar: float
    coeffs: BogoliubovCoefficients
    phase: PhaseLabel
    residual: float
    delta_b_sign_ambiguous: bool

    def as_dict(self) -> dict:
        d = asdict(self)
        d["coeffs"] = self.coeffs.as_dict()
        d["phase"] = self.phase.value
        return d


@dataclass(frozen=True, slots=True)
class SolveReport:
    """All solutions found at one parameter point.

    ``solutions`` lists the pure mean-field branch first, then mixed
    solutions ordered by increasing ``w_bar``.  ``multiplicity`` counts the
    mixed solutions; ``notes`` records roots that were found but dropped
    (for example because the pairing amplitude would be imaginary there).
    """

    params: ModelParams
    solutions: tuple[GapSolution, ...]
    region: RegionLabel
    multiplicity: int
    notes: tuple[str, ...] = ()

    @property
    def pure(self) -> GapSolution:
        return self.solutions[0]

    @property
    def mixed(self) -> tuple[GapSolution, ...]:
        return tuple(s for s in self.solutions if s.phase is not PhaseLabel.PURE_MEAN_FIELD)

    def as_dict(self) -> dict:
        return {
            "params": asdict(self.params),
            "region": self.region.value,
            "multiplicity": self.multiplicity,
            "notes": list(self.notes),
            "solutions": [s.as_dict() for s in self.solutions],
        }


def energy_identity_defect(w: float, eff: float, db: float) -> float:
    """``|w**2 - eff**2 - db**2| / max(1, w**2)`` for ``w_bar``, ``mu + delta_m``, ``delta_b``.

    Where the squares overflow the same ratio is taken in units of ``2**e``
    near the largest energy, so it stays finite at any energy scale.
    """
    defect = abs(w * w - eff * eff - db * db) / max(1.0, w * w)
    if math.isfinite(defect):
        return defect
    e = scale_exponent(w, eff, db)
    w, eff, db = (math.ldexp(v, -e) for v in (w, eff, db))
    return abs(w * w - eff * eff - db * db) / max(math.ldexp(1.0, -2 * e), w * w)


def solution_checks(sol: GapSolution, params: ModelParams, tol: float = 1e-8) -> dict[str, bool]:
    """Evaluate the structural identities every emitted solution should satisfy.

    Returns a name -> bool map of the checks that apply to ``sol``, so every
    value must be true; callers decide what to do with failures.  A check
    that is a theorem only on part of the solutions is reported only there:
    the mixing-angle bound ``|c| >= sqrt(2)/2`` where the effective energy
    ``mu + delta_m`` is non-negative, the Fermi-surface side on a mixed
    solution with ``lambda_b != 0``, and the strict ordering above the
    effective energy where ``delta_b > 0``.
    """
    c, s = sol.coeffs.c, sol.coeffs.s
    omega_eff = params.mu + sol.delta_m
    checks: dict[str, bool] = {}
    checks["coefficient_norm"] = abs(c * c + s * s - 1.0) <= 1e-12
    checks["energy_identity"] = energy_identity_defect(sol.w_bar, omega_eff, sol.delta_b) <= tol
    if sol.w_bar != 0.0:
        checks["rotation_consistency"] = (
            abs((c * c - s * s) - omega_eff / sol.w_bar) <= tol
            and abs(2.0 * c * s - sol.delta_b / sol.w_bar) <= tol
        )
    else:
        checks["rotation_consistency"] = sol.delta_b == 0.0
    if params.lambda_m != 0.0:
        checks["mean_field_sign"] = sol.delta_m * params.lambda_m >= 0.0
        checks["mean_field_bound"] = abs(sol.delta_m) <= 2.0 * abs(params.lambda_m) + tol
    else:
        checks["mean_field_sign"] = sol.delta_m == 0.0
        checks["mean_field_bound"] = True
    if omega_eff >= 0.0:
        checks["mixing_angle_bound"] = abs(c) >= math.sqrt(0.5) - 1e-12
    if sol.phase is not PhaseLabel.PURE_MEAN_FIELD:
        checks["pairing_below_quasienergy"] = sol.delta_b <= sol.w_bar + tol
        checks["quasienergy_above_coupling_bound"] = sol.w_bar <= abs(params.lambda_b) + tol
        band = tol * max(1.0, params.mu)
        if params.lambda_b > 0:
            checks["fermi_surface_side"] = sol.w_bar > params.mu - band
        elif params.lambda_b < 0:
            checks["fermi_surface_side"] = sol.w_bar < params.mu + band
        if sol.delta_b > 0.0:
            checks["strictly_above_effective_energy"] = sol.w_bar > omega_eff
    return checks
