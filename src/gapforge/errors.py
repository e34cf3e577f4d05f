"""Exception hierarchy for the gapforge package.

Every failure mode that callers might want to branch on gets its own class.
All of them derive from :class:`GapEquationError`, so ``except GapEquationError``
acts as a catch-all for "the model said no" as opposed to a genuine bug.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .kernel_solver import GapFunctions


class GapEquationError(Exception):
    """Base class for all semantic errors raised by this package."""


class InvalidParameter(GapEquationError, ValueError):
    """A model parameter is outside its admissible range (NaN, wrong sign, ...)."""


class NegativeChemicalPotential(InvalidParameter):
    """The chemical potential must be non-negative."""


class NegativeTemperature(InvalidParameter):
    """Temperature must be non-negative (``math.inf`` is allowed)."""


class ZeroTemperature(GapEquationError):
    """An operation needed a finite inverse temperature but T == 0.

    Raised by reductions that divide by temperature.  Solvers that have a
    well-defined zero-temperature limit handle T == 0 themselves and do not
    raise this.
    """


class ZeroCoupling(GapEquationError):
    """A coupling that must be non-zero for this operation is zero."""


class SingularDenominator(GapEquationError):
    """A closed-form expression hit a vanishing denominator."""


class ConstraintViolation(GapEquationError):
    """A self-consistency constraint between channels cannot be met."""


class NotAdmissible(GapEquationError):
    """A candidate root fails a positivity/admissibility requirement."""


class DomainError(GapEquationError, ValueError):
    """Argument outside the mathematical domain of the requested map."""


class NotApplicable(GapEquationError):
    """The requested asymptotic/approximate formula does not apply here."""


class ShellBelowZero(GapEquationError):
    """A momentum shell would extend below zero momentum."""


class NonFiniteIntegrand(GapEquationError):
    """An integrand evaluated to NaN or infinity."""


class FitFailed(GapEquationError):
    """A scaling-law fit could not be performed on the computed data."""


class MomentumOffGrid(GapEquationError, KeyError):
    """A momentum lookup missed every tabulated grid point."""


class ZeroEnergy(GapEquationError):
    """Quasiparticle energy is zero, so the rotation angle is undefined."""


class ConfigError(GapEquationError, ValueError):
    """A configuration file or CSV input is malformed."""


class NotConverged(GapEquationError):
    """Iterative solver exhausted its iteration budget.

    Carries the last iterate so callers can inspect or resume: ``gaps`` is a
    :class:`~gapforge.kernel_solver.GapFunctions` with its ``w_bar``, its defect
    as ``residual`` and its iteration count, read by the properties of these names.
    """

    def __init__(self, message: str, *, gaps: GapFunctions) -> None:
        super().__init__(message)
        self.gaps = gaps

    @property
    def residual(self) -> float:
        return self.gaps.residual

    @property
    def iterations(self) -> int:
        return self.gaps.iterations
