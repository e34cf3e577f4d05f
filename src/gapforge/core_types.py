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

A value object stores only what the solver finds.  What follows from it is
a property, computed when read and not listed by ``fields``, ``replace`` or
``repr``: ``GapSolution.coeffs`` (the Bogoliubov rotation) and
``delta_b_sign_ambiguous``, ``SolveReport.region`` and ``multiplicity``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field, fields
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
_UNROTATED = BogoliubovCoefficients(1.0, 0.0, 0.0)


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


def classify_region(params: ModelParams) -> RegionLabel:
    """Closed-form coupling-plane label; no root finding involved.

    Repulsive pairing channel (lambda_b > 0): mixed solutions need
    ``lambda_b > mu``; within that strip the low-temperature window is open
    for ``lambda_m > -(lambda_b + mu)/2`` and the near-transition window for
    ``lambda_m < (lambda_b - 4 mu)/4`` — both hold in the middle band
    (``B+``), only the former at large ``lambda_m`` (``A+``), only the
    latter at strongly negative ``lambda_m`` (``C+``).  Attractive channel
    (lambda_b < 0): the admissible band is
    ``-2 mu <= lambda_m <= -mu T / (|lambda_b| + 2 T)``, split into ``B-``
    below ``-(lambda_b + 4 mu)/4`` and ``A-`` above.  The upper bound is
    evaluated as ``-(mu/2) / (1 + |lb|)`` in the reduced coupling
    ``lb = beta*lambda_b/2``, which takes its limits ``-0.0`` at T = 0 and
    ``-mu/2`` at T = inf with no special case, and its T = 0 limit wherever
    ``lb`` overflows, as the roots do.  Every bound is scale-free and its
    intermediates stay finite up to the largest double.  Comparisons are
    plain IEEE inequalities, so exact boundary points deterministically
    join the closed side.
    """
    lb, lm, mu = params.lambda_b, params.lambda_m, params.mu
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
        upper = -0.5 * mu / (1.0 - lb * (0.5 * params.beta))
        if not (-2.0 * mu <= lm <= upper):
            return RegionLabel.NONE
        if lm < -(lb / 4.0 + mu):
            return RegionLabel.B_MINUS
        return RegionLabel.A_MINUS
    return RegionLabel.NONE


@dataclass(frozen=True, slots=True, init=False)
class GapSolution:
    """One converged solution of the coupled gap system.

    ``delta_b`` is stored non-negative; the pairing gap enters the equations
    only through its square, so ``+delta_b`` and ``-delta_b`` are physically
    equivalent.  The property ``delta_b_sign_ambiguous`` reads true, both
    signs being valid, whenever ``delta_b > 0``.

    ``w_bar`` is the quasi-particle energy at the Fermi surface and
    ``omega_eff`` the signed effective energy ``mu + delta_m``, which may be
    negative; ``w_bar**2 = omega_eff**2 + delta_b**2`` holds to the stored
    residual.  Mixed solutions always have ``w_bar > 0`` and store the
    closed form of ``omega_eff`` (see
    :func:`~gapforge.scalar_gap.effective_energy`), which keeps its digits
    where the sum cancels.  The pure mean-field branch stores the sum itself
    as both ``omega_eff`` and ``w_bar``, so its identity is exact.

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
    phase: PhaseLabel
    residual: float
    omega_eff: float

    def __init__(self, delta_m: float, delta_b: float, w_bar: float,
                 phase: PhaseLabel, residual: float, omega_eff: float) -> None:
        _set_delta_m(self, delta_m)
        _set_delta_b(self, delta_b)
        _set_w_bar(self, w_bar)
        _set_phase(self, phase)
        _set_residual(self, residual)
        _set_omega_eff(self, omega_eff)

    @property
    def delta_b_sign_ambiguous(self) -> bool:
        return self.delta_b > 0.0

    @property
    def coeffs(self) -> BogoliubovCoefficients:
        """``bogoliubov_from_gaps(omega_eff, delta_b)``; unrotated on the pure branch or at 0, 0."""
        omega_eff, delta_b = self.omega_eff, self.delta_b
        if self.phase is PhaseLabel.PURE_MEAN_FIELD or (omega_eff == 0.0 and delta_b == 0.0):
            return _UNROTATED
        return bogoliubov_from_gaps(omega_eff, delta_b)

    def as_dict(self) -> dict:
        return {"delta_m": self.delta_m, "delta_b": self.delta_b, "w_bar": self.w_bar,
                "coeffs": asdict(self.coeffs), "phase": self.phase.value, "residual": self.residual,
                "delta_b_sign_ambiguous": self.delta_b_sign_ambiguous, "omega_eff": self.omega_eff}


(_set_delta_m, _set_delta_b, _set_w_bar, _set_phase, _set_residual,
 _set_omega_eff) = _slot_setters(GapSolution)


@dataclass(frozen=True, slots=True, init=False)
class SolveReport:
    """All solutions found at one parameter point.

    ``solutions`` lists the pure mean-field branch first, then mixed
    solutions ordered by increasing ``w_bar``.  The properties ``region``
    and ``multiplicity`` label the point and count the mixed solutions;
    ``notes``, keyword-only, records roots found but dropped (for example
    because the pairing amplitude would be imaginary there).
    """

    params: ModelParams
    solutions: tuple[GapSolution, ...]
    notes: tuple[str, ...] = field(default=(), kw_only=True)

    def __init__(self, params: ModelParams, solutions: tuple[GapSolution, ...], *,
                 notes: tuple[str, ...] = ()) -> None:
        _set_params(self, params)
        _set_solutions(self, solutions)
        _set_notes(self, notes)

    @property
    def region(self) -> RegionLabel:
        return classify_region(self.params)

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


_set_params, _set_solutions, _set_notes = _slot_setters(SolveReport)


def energy_identity_defect(w: float, eff: float, db: float) -> float:
    """``|w**2 - eff**2 - db**2| / w**2`` for ``w_bar``, ``omega_eff``, ``delta_b``.

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
    is non-negative, the Fermi-surface side on a mixed solution with
    ``lambda_b != 0``, and the strict ordering above the effective energy
    where ``delta_b > 0``, which excuses ``w_bar`` at or below
    ``omega_eff`` only for a gap too small to show beside the rounding of
    the stored energies.  Every check reads the stored ``omega_eff``;
    ``effective_energy`` holds it to ``mu + delta_m``.  Each holds to
    :data:`RESIDUAL_BOUND` relative to its energy, at every energy scale.
    """
    coeffs = sol.coeffs
    c, s = coeffs.c, coeffs.s
    cc, ss = c * c, s * s
    dm, db, w, omega_eff = sol.delta_m, sol.delta_b, sol.w_bar, sol.omega_eff
    lm, mu = params.lambda_m, params.mu
    # omega_eff - mu is near delta_m, so neither difference overflows
    miss = abs(omega_eff - mu - dm)
    checks = {
        "coefficient_norm": abs(cc + ss - 1.0) <= 1e-12,
        "energy_identity": energy_identity_defect(w, omega_eff, db) <= RESIDUAL_BOUND,
        # relative to the larger of mu and |delta_m|
        "effective_energy": miss <= RESIDUAL_BOUND * mu or miss <= RESIDUAL_BOUND * abs(dm),
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
        lb = params.lambda_b
        checks["pairing_below_quasienergy"] = db <= w * _SLACK
        checks["quasienergy_above_coupling_bound"] = w <= abs(lb) * _SLACK
        band = RESIDUAL_BOUND * mu
        if lb > 0:
            checks["fermi_surface_side"] = w > mu - band
        elif lb < 0:
            checks["fermi_surface_side"] = w < mu + band
        if db > 0.0:
            # the lift rounds w_bar, omega_eff and delta_m apart from the values it formed
            # delta_b from by at most 12, 4 and 4 ulps (root, tanh, product, offset; two sums,
            # a quotient, a product), which may hide a gap of delta_b**2/(w + omega_eff)
            gap = w - omega_eff + 12.0 * math.ulp(w) + 4.0 * (math.ulp(omega_eff) + math.ulp(dm))
            checks["strictly_above_effective_energy"] = w > omega_eff or (
                0.0 < w and 0.0 < gap and db < math.sqrt(2.0 * (gap / w)) * w)
    return checks
