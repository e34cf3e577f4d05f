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

All types here are immutable value objects and safe to share across threads;
``solve_all`` shares one pure-branch solution across its reports.  The
dataclasses are frozen and slotted: they have no ``__dict__`` (use
:func:`dataclasses.asdict` or ``as_dict``, not ``vars``), assigning to a
field or deleting it raises :class:`dataclasses.FrozenInstanceError`, and
:func:`dataclasses.replace` builds a changed copy.  Each has a hand-written
``__init__`` with its fields' names, order and defaults, which stores each
field through its slot descriptor's own setter rather than through
``object.__setattr__`` as the generated one does; ``ModelParams`` converts
and validates its fields there too.  Everything else the decorator
provides is its own: ``fields``, ``asdict``, ``replace``, equality,
hashing, ``repr`` and pickling, which restores the fields without calling
``__init__``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, fields
from enum import Enum

from .errors import (
    InvalidParameter,
    NegativeChemicalPotential,
    NegativeTemperature,
    ZeroEnergy,
)


@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(self, lambda_b: float, lambda_m: float, mu: float,
                 temperature: float) -> None:
        # four plain floats and a nonzero temperature are stored as given;
        # otherwise every field is converted, and -0.0 becomes the canonical
        # zero-temperature flag
        if (type(lambda_b) is not float or type(lambda_m) is not float
                or type(mu) is not float or type(temperature) is not float
                or temperature == 0.0):
            lambda_b, lambda_m, mu = float(lambda_b), float(lambda_m), float(mu)
            temperature = float(temperature)
            if temperature == 0.0:
                temperature = 0.0
        _set_lambda_b(self, lambda_b)
        _set_lambda_m(self, lambda_m)
        _set_mu(self, mu)
        _set_temperature(self, temperature)
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


def _slot_setters(cls) -> tuple:
    """The ``__set__`` of each field's slot descriptor, in field order.

    A frozen dataclass refuses ``setattr``.  The ``__init__`` the decorator
    generates goes round that through ``object.__setattr__``; a slot's own
    setter does the same store in about half the time (CPython 3.11).
    """
    return tuple(getattr(cls, f.name).__set__ for f in fields(cls))


_set_lambda_b, _set_lambda_m, _set_mu, _set_temperature = _slot_setters(ModelParams)


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


_MIN_NORMAL = sys.float_info.min

# The one stated bound: solve_all drops a mixed solution whose residual exceeds
# it, and solution_checks holds each identity to it, relative to its energy
RESIDUAL_BOUND = 1e-8
# solution_checks' allowance on its bounds, and its least |cos(phi)| where
# phi is within [-pi/4, pi/4]
_SLACK = 1.0 + RESIDUAL_BOUND
_MIN_COS = math.sqrt(0.5) - 1e-12


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


@dataclass(frozen=True, slots=True, init=False)
class BogoliubovCoefficients:
    """Real rotation coefficients (c, s) with mixing angle phi.

    ``c = cos(phi)`` and ``s = sin(phi)``; the rotation diagonalizes the
    quadratic mode Hamiltonian.  For non-negative effective single-particle
    energy the angle stays in [-pi/4, pi/4], equivalently ``|c| >= sqrt(2)/2``.
    """

    c: float
    s: float
    phi: float

    def __init__(self, c: float, s: float, phi: float) -> None:
        _set_c(self, c)
        _set_s(self, s)
        _set_phi(self, phi)


_set_c, _set_s, _set_phi = _slot_setters(BogoliubovCoefficients)


def bogoliubov_from_gaps(omega_eff: float, delta_b: float) -> BogoliubovCoefficients:
    """Rotation diagonalizing one mode: phi = atan2(delta_b, omega_eff) / 2.

    The coefficients satisfy ``c**2 - s**2 = omega_eff / w_bar`` and
    ``2 c s = delta_b / w_bar`` with ``w_bar = hypot(omega_eff, delta_b)``.
    For ``omega_eff >= 0`` (and ``delta_b >= 0``) the angle stays in
    ``[0, pi/4]`` so ``c >= sqrt(2)/2``; a negative effective energy pushes
    ``phi`` past ``pi/4``, so :func:`solution_checks` states that bound
    only where ``omega_eff >= 0``.

    Raises :class:`ZeroEnergy` when both arguments vanish (the rotation is
    then undefined along with the quasi-particle energy).
    """
    if omega_eff == 0.0 and delta_b == 0.0:
        raise ZeroEnergy("omega_eff = delta_b = 0: no quasi-particle energy scale")
    phi = 0.5 * math.atan2(delta_b, omega_eff)
    return BogoliubovCoefficients(math.cos(phi), math.sin(phi), phi)


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


@dataclass(frozen=True, slots=True, init=False)
class GapSolution:
    """One converged solution of the coupled gap system.

    ``delta_b`` is stored non-negative; the pairing gap enters the equations
    only through its square, so ``+delta_b`` and ``-delta_b`` are physically
    equivalent.  The property ``delta_b_sign_ambiguous`` reads true, both
    signs being valid, whenever ``delta_b > 0``.

    ``w_bar`` is the quasi-particle energy at the Fermi surface.  Mixed
    solutions always have ``w_bar > 0``; for the pure mean-field branch the
    signed effective energy ``mu + delta_m`` is stored (it may be negative),
    which keeps ``w_bar**2 == (mu + delta_m)**2 + delta_b**2`` exact.

    ``residual`` is the largest of three relative defects: the pairing
    equation relative to ``|lambda_b|``, the mean-field equation relative
    to ``|lambda_m|`` and the energy identity relative to ``w_bar**2``.
    Each is a ratio of energies, so it does not change when every energy is
    scaled.  On the pure branch, where ``delta_b = 0``, only the mean-field
    defect can be nonzero.
    """

    delta_m: float
    delta_b: float
    w_bar: float
    coeffs: BogoliubovCoefficients
    phase: PhaseLabel
    residual: float

    def __init__(self, delta_m: float, delta_b: float, w_bar: float,
                 coeffs: BogoliubovCoefficients, phase: PhaseLabel,
                 residual: float) -> None:
        _set_delta_m(self, delta_m)
        _set_delta_b(self, delta_b)
        _set_w_bar(self, w_bar)
        _set_coeffs(self, coeffs)
        _set_phase(self, phase)
        _set_residual(self, residual)

    @property
    def delta_b_sign_ambiguous(self) -> bool:
        return self.delta_b > 0.0

    def as_dict(self) -> dict:
        d = asdict(self)
        d["phase"] = self.phase.value
        d["delta_b_sign_ambiguous"] = self.delta_b_sign_ambiguous
        return d


(_set_delta_m, _set_delta_b, _set_w_bar, _set_coeffs, _set_phase,
 _set_residual) = _slot_setters(GapSolution)


@dataclass(frozen=True, slots=True, init=False)
class SolveReport:
    """All solutions found at one parameter point.

    ``solutions`` lists the pure mean-field branch first, then mixed
    solutions ordered by increasing ``w_bar``.  The property
    ``multiplicity`` counts the mixed solutions; ``notes`` records roots
    that were found but dropped (for example because the pairing amplitude
    would be imaginary there).
    """

    params: ModelParams
    solutions: tuple[GapSolution, ...]
    region: RegionLabel
    notes: tuple[str, ...] = ()

    def __init__(self, params: ModelParams, solutions: tuple[GapSolution, ...],
                 region: RegionLabel, notes: tuple[str, ...] = ()) -> None:
        _set_params(self, params)
        _set_solutions(self, solutions)
        _set_region(self, region)
        _set_notes(self, notes)

    @property
    def multiplicity(self) -> int:
        return len(self.solutions) - 1

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


_set_params, _set_solutions, _set_region, _set_notes = _slot_setters(SolveReport)


def energy_identity_defect(w: float, eff: float, db: float) -> float:
    """``|w**2 - eff**2 - db**2| / w**2`` for ``w_bar``, ``mu + delta_m``, ``delta_b``.

    Relative to the energies' own scale, so it reads the same at any scale:
    where a square of a nonzero energy leaves the normal range (over- or
    underflow; a difference that underflows is exact) the same ratio is
    taken in units of ``2**e`` near the largest energy.  At ``w_bar = 0``,
    or ``w_bar`` too far below the other energies for its square to show in
    those units, it is 0 when all three are 0 and infinite otherwise.
    """
    ww, ee, dd = w * w, eff * eff, db * db
    if ww >= _MIN_NORMAL and (ee >= _MIN_NORMAL or not eff) and (dd >= _MIN_NORMAL or not db):
        defect = abs(ww - ee - dd) / ww
        if defect < math.inf:
            return defect
    e = scale_exponent(w, eff, db)
    w, eff, db = (math.ldexp(v, -e) for v in (w, eff, db))
    ww = w * w
    excess = abs(ww - eff * eff - db * db)
    if ww == 0.0:
        return 0.0 if excess == 0.0 else math.inf
    return excess / ww


def solution_checks(sol: GapSolution, params: ModelParams) -> dict[str, bool]:
    """Evaluate the structural identities every emitted solution should satisfy.

    Returns a name -> bool map of the checks that apply to ``sol``, so every
    value must be true; callers decide what to do with failures.  A check
    that is a theorem only on part of the solutions is reported only there:
    the mixing-angle bound ``|c| >= sqrt(2)/2`` where the effective energy
    ``mu + delta_m`` is non-negative, the Fermi-surface side on a mixed
    solution with ``lambda_b != 0``, and the strict ordering above the
    effective energy where ``delta_b > 0``, which excuses equality only for
    a gap too small to move ``w_bar``.  Each holds to
    :data:`RESIDUAL_BOUND` relative to its energy, at every energy scale.
    """
    c, s = sol.coeffs.c, sol.coeffs.s
    cc, ss = c * c, s * s
    dm, db, w = sol.delta_m, sol.delta_b, sol.w_bar
    lm = params.lambda_m
    omega_eff = params.mu + dm
    checks = {
        "coefficient_norm": abs(cc + ss - 1.0) <= 1e-12,
        "energy_identity": energy_identity_defect(w, omega_eff, db) <= RESIDUAL_BOUND,
        "rotation_consistency": (
            abs((cc - ss) - omega_eff / w) <= RESIDUAL_BOUND
            and abs(2.0 * c * s - db / w) <= RESIDUAL_BOUND
        ) if w != 0.0 else db == 0.0,
        "mean_field_sign": dm * lm >= 0.0 if lm != 0.0 else dm == 0.0,
        "mean_field_bound": abs(dm) <= 2.0 * abs(lm) * _SLACK if lm != 0.0 else True,
    }
    if omega_eff >= 0.0:
        checks["mixing_angle_bound"] = abs(c) >= _MIN_COS
    if sol.phase is not PhaseLabel.PURE_MEAN_FIELD:
        lb, mu = params.lambda_b, params.mu
        checks["pairing_below_quasienergy"] = db <= w * _SLACK
        checks["quasienergy_above_coupling_bound"] = w <= abs(lb) * _SLACK
        band = RESIDUAL_BOUND * mu
        if lb > 0:
            checks["fermi_surface_side"] = w > mu - band
        elif lb < 0:
            checks["fermi_surface_side"] = w < mu + band
        if db > 0.0:
            # where delta_b**2 < 2*w*ulp(w) a correctly rounded w_bar may equal it
            checks["strictly_above_effective_energy"] = w > omega_eff or (
                0.0 < w == omega_eff and db < math.sqrt(2.0 * math.ulp(w) / w) * w)
    return checks
