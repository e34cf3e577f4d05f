"""Momentum-resolved coupled gap equations on a radial grid.

The full problem couples two unknown functions of momentum through

    delta_M(k) = 2 int V_M(k,p) {p} dp
    delta_B(k) =   int V_B(k,p) (delta_B(p) / w_bar(p)) tanh(beta (w_bar(p) - mu)/2) dp
    w_bar(p)   = hypot(omega(p) + delta_M(p), delta_B(p))

with {p} the thermal occupation.  Solved by damped Picard iteration.  The
narrow-shell separable kernel family (interaction confined to a band of
half-width ``epsilon`` around the Fermi radius ``sqrt(mu)``) collapses, as
``epsilon -> 0``, onto the scalar Fermi-surface equations solved in
``scalar_gap`` — the kernels here carry a ``2*epsilon`` coupling factor
against the ``1/(2*epsilon)``-normalized shell shape precisely so that the
limit lands on the bare scalar couplings with no leftover constants.

Quadrature note: integrating the discontinuous shell indicator with plain
trapezoid weights costs O(h/epsilon) accuracy at the band edges.  The shell
shape therefore exposes its own exact measure weights (interior trapezoid
plus boundary slivers), which every separable evaluation uses; tabulated
kernels fall back to the grid's trapezoid weights.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .core_types import ModelParams, tanh_half, validate
from .errors import (
    ConfigError,
    InvalidParameter,
    NonFiniteIntegrand,
    NotConverged,
    ShellBelowZero,
)
from .thermal import ModeTable, _trapezoid_weights


# --------------------------------------------------------------------------
# grid


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Strictly increasing momenta p_i >= 0 with quadrature weights for int dp."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.points.ndim != 1 or self.points.size < 2:
            raise InvalidParameter("radial grid needs at least two points")
        if self.points[0] < 0.0 or np.any(np.diff(self.points) <= 0.0):
            raise InvalidParameter(
                "grid points must be non-negative and strictly increasing"
            )
        if np.any(self.weights <= 0.0):
            raise InvalidParameter("quadrature weights must be positive")

    @classmethod
    def from_points(cls, points: Sequence[float]) -> "RadialGrid":
        pts = np.asarray(points, dtype=float)
        return cls(points=pts, weights=_trapezoid_weights(pts))

    @classmethod
    def uniform(cls, p_max: float, n: int) -> "RadialGrid":
        return cls.from_points(np.linspace(0.0, p_max, n))

    def index_nearest(self, p: float) -> int:
        return int(np.argmin(np.abs(self.points - p)))


def shell_aligned_grid(mu: float, epsilon: float, *, n_shell: int = 200,
                       p_max: float = 3.0, n_outer: int = 400) -> RadialGrid:
    """Grid whose points hit the shell edges sqrt(mu) -+ epsilon exactly.

    ``n_shell`` intervals (rounded up to even so the Fermi radius itself is a
    grid point) resolve the band; ``n_outer`` intervals are split over
    [0, lo] and [hi, p_max] in proportion to their lengths.
    """
    if epsilon <= 0.0 or not math.isfinite(epsilon):
        raise InvalidParameter(f"shell half-width must be positive, got {epsilon!r}")
    root = math.sqrt(mu)
    if root <= epsilon:
        raise ShellBelowZero(
            f"shell [sqrt(mu)-eps, sqrt(mu)+eps] = [{root - epsilon:.6g}, "
            f"{root + epsilon:.6g}] reaches p <= 0"
        )
    lo, hi = root - epsilon, root + epsilon
    if p_max <= hi:
        raise InvalidParameter(f"p_max = {p_max!r} must exceed the outer shell edge {hi:.6g}")
    n_shell = int(n_shell) + (int(n_shell) % 2)
    shell = np.linspace(lo, hi, n_shell + 1)
    shell[n_shell // 2] = root  # exact center, convenient for delta_B(sqrt(mu))
    span_left, span_right = lo, p_max - hi
    n_left = max(2, round(n_outer * span_left / (span_left + span_right)))
    n_right = max(2, n_outer - n_left)
    left = np.linspace(0.0, lo, n_left + 1)
    right = np.linspace(hi, p_max, n_right + 1)
    return RadialGrid.from_points(np.unique(np.concatenate([left, shell, right])))


# --------------------------------------------------------------------------
# kernels


@dataclass(frozen=True)
class ShellShape:
    """Normalized band indicator: height on the closed interval [lo, hi], else 0."""

    lo: float
    hi: float
    height: float

    def __call__(self, p):
        arr = np.asarray(p, dtype=float)
        out = np.where((arr >= self.lo) & (arr <= self.hi), self.height, 0.0)
        return float(out) if out.ndim == 0 else out

    def measure_weights(self, points: np.ndarray) -> np.ndarray:
        """Weights sigma_i with sum sigma_i f(p_i) ~ int S(p) f(p) dp.

        Interior trapezoid over the covered sub-grid plus rectangle slivers
        for the partially covered edge cells, so sum sigma_i * 1 equals
        ``height * (hi - lo)`` exactly however the grid falls.  A grid that
        puts no point inside the band integrates it as zero — resolve the
        shell before solving on it.
        """
        pts = np.asarray(points, dtype=float)
        sigma = np.zeros_like(pts)
        inside = np.nonzero((pts >= self.lo) & (pts <= self.hi))[0]
        if inside.size == 0:
            return sigma
        sub = pts[inside]
        if inside.size == 1:
            sigma[inside[0]] = self.height * (self.hi - self.lo)
            return sigma
        w = _trapezoid_weights(sub)
        w[0] += sub[0] - self.lo
        w[-1] += self.hi - sub[-1]
        sigma[inside] = self.height * w
        return sigma


def shell_kernel(epsilon: float, mu: float) -> ShellShape:
    """The 1/(2 eps) band indicator around the Fermi radius; integrates to 1."""
    if not math.isfinite(epsilon) or epsilon <= 0.0:
        raise InvalidParameter(f"epsilon must be positive and finite, got {epsilon!r}")
    if mu < 0.0:
        raise InvalidParameter(f"mu must be non-negative, got {mu!r}")
    root = math.sqrt(mu)
    if root <= epsilon:
        raise ShellBelowZero(
            f"sqrt(mu) = {root:.6g} <= epsilon = {epsilon:.6g}: "
            "band would cross zero momentum"
        )
    return ShellShape(lo=root - epsilon, hi=root + epsilon, height=0.5 / epsilon)


@dataclass(frozen=True)
class SeparableKernel:
    """V(k, p) = coupling * shape(k) * shape(p)."""

    coupling: float
    shape: Callable

    def apply(self, grid: RadialGrid, values: np.ndarray) -> np.ndarray:
        """Integrate V(k, .) against ``values`` sampled on the grid."""
        if hasattr(self.shape, "measure_weights"):
            sigma = self.shape.measure_weights(grid.points)
        else:
            sigma = grid.weights * np.asarray(self.shape(grid.points), dtype=float)
        inner = float(np.dot(sigma, values))
        return self.coupling * inner * np.asarray(self.shape(grid.points), dtype=float)


@dataclass(frozen=True, eq=False)
class TabulatedKernel:
    """V(k_i, p_j) as a square matrix over the solve grid."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise InvalidParameter("tabulated kernel must be a square matrix")

    @property
    def is_symmetric(self) -> bool:
        return bool(np.allclose(self.matrix, self.matrix.T, rtol=1e-12, atol=1e-12))

    def apply(self, grid: RadialGrid, values: np.ndarray) -> np.ndarray:
        if self.matrix.shape[0] != grid.points.size:
            raise InvalidParameter(
                f"kernel is {self.matrix.shape[0]}x{self.matrix.shape[1]} but the "
                f"grid has {grid.points.size} points"
            )
        return self.matrix @ (grid.weights * values)


KernelSpec = Union[SeparableKernel, TabulatedKernel]


@dataclass(frozen=True)
class CoupledKernels:
    """The pairing-channel and mean-field-channel kernels of one model."""

    pairing: KernelSpec
    mean_field: KernelSpec

    def __post_init__(self) -> None:
        if isinstance(self.pairing, TabulatedKernel) and not self.pairing.is_symmetric:
            raise InvalidParameter(
                "pairing kernel must be symmetric in (k, p); the +-p pairing "
                "structure relies on it"
            )


def shell_kernels(params: ModelParams, epsilon: float) -> CoupledKernels:
    """Separable narrow-band kernels whose epsilon -> 0 limit is the scalar model.

    The coupling carries a factor 2*epsilon against the 1/(2*epsilon) shape
    height, so on-band kernel values grow like lambda/(2*epsilon) while the
    band integral of the shape stays exactly 1: the scalar equations emerge
    with the bare couplings.
    """
    shape = shell_kernel(epsilon, params.mu)
    two_eps = 2.0 * epsilon
    return CoupledKernels(
        pairing=SeparableKernel(params.lambda_b * two_eps, shape),
        mean_field=SeparableKernel(params.lambda_m * two_eps, shape),
    )


def load_kernel_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Read a tabulated kernel: header row of momenta, then the square matrix.

    Rows index k, columns index p.  Raises :class:`ConfigError` with a line
    number on any malformed content.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise ConfigError(f"{path}: empty kernel file")
    try:
        momenta = np.array([float(tok) for tok in rows[0]])
    except ValueError as exc:
        raise ConfigError(f"{path}, line 1: bad momentum header ({exc})") from None
    n = momenta.size
    if n < 2:
        raise ConfigError(f"{path}, line 1: need at least two momenta, found {n}")
    if np.any(np.diff(momenta) <= 0.0) or momenta[0] < 0.0:
        raise ConfigError(
            f"{path}, line 1: momenta must be non-negative and strictly increasing"
        )
    matrix = np.empty((len(rows) - 1, n))
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != n:
            raise ConfigError(
                f"{path}, line {lineno}: expected {n} columns, found {len(row)}"
            )
        try:
            matrix[lineno - 2] = [float(tok) for tok in row]
        except ValueError as exc:
            raise ConfigError(f"{path}, line {lineno}: {exc}") from None
    if matrix.shape[0] != n:
        raise ConfigError(
            f"{path}: kernel must be square — {n} momenta but {matrix.shape[0]} rows"
        )
    return momenta, matrix


# --------------------------------------------------------------------------
# dispersion and iteration setup


def _parabolic(p):
    return np.asarray(p, dtype=float) ** 2


@dataclass(frozen=True)
class DispersionSpec:
    """Single-particle dispersion omega(p); parabolic unless told otherwise."""

    omega: Callable = _parabolic


PARABOLIC = DispersionSpec()


@dataclass(frozen=True)
class ZeroPairing:
    """Start from delta_M = delta_B = 0; the iteration stays on delta_B = 0."""

    def build(self, grid: RadialGrid, params: ModelParams):
        n = grid.points.size
        return np.zeros(n), np.zeros(n)


@dataclass(frozen=True)
class SeededPairing:
    """Start from a constant pairing amplitude; selects a nonzero branch basin."""

    value: float

    def build(self, grid: RadialGrid, params: ModelParams):
        n = grid.points.size
        return np.zeros(n), np.full(n, float(self.value))


@dataclass(frozen=True)
class FromScalar:
    """Start from the Fermi-surface scalar solution, spread constantly.

    Uses the largest-energy mixed branch when one exists, the pure branch
    otherwise.
    """

    def build(self, grid: RadialGrid, params: ModelParams):
        from .scalar_gap import solve_all

        report = solve_all(params)
        mixed = report.mixed
        pick = mixed[-1] if mixed else report.pure
        n = grid.points.size
        return np.full(n, pick.delta_m), np.full(n, pick.delta_b)


InitStrategy = Union[ZeroPairing, SeededPairing, FromScalar]


@dataclass(frozen=True)
class IterationControls:
    damping: float = 0.5
    max_iters: int = 2000
    tol: float = 1e-10
    init: InitStrategy = field(default_factory=ZeroPairing)

    def __post_init__(self) -> None:
        if not 0.0 < self.damping <= 1.0:
            raise InvalidParameter(
                f"damping must lie in (0, 1], got {self.damping!r}"
            )
        if self.max_iters < 1:
            raise InvalidParameter("max_iters must be at least 1")


# --------------------------------------------------------------------------
# the solver


@dataclass(frozen=True, eq=False)
class GapFunctions:
    """One iterate (or the converged solution) of the coupled system.

    ``w_bar`` is recomputed from ``delta_m``/``delta_b`` at emission, so the
    quasi-particle identity holds exactly on every instance the solver hands
    out.  ``residual`` is the sup-norm defect of the two gap equations.
    """

    delta_m: np.ndarray
    delta_b: np.ndarray
    w_bar: np.ndarray
    residual: float
    iterations: int = 0


def _w_bar(grid: RadialGrid, dispersion: DispersionSpec,
           dm: np.ndarray, db: np.ndarray) -> np.ndarray:
    return np.hypot(np.asarray(dispersion.omega(grid.points), dtype=float) + dm, db)


def gap_rhs(gaps: GapFunctions, grid: RadialGrid, kernels: CoupledKernels,
            dispersion: DispersionSpec, params: ModelParams) -> GapFunctions:
    """One evaluation of the right-hand sides, with w_bar refreshed.

    The occupation brace is written as (1 - e t)/2 with e = omega_eff/w_bar
    (taken to be 1 on modes where w_bar vanishes — there delta_B is
    necessarily zero and the mode is unrotated).  The returned ``residual``
    is the sup-norm change against the input gaps.
    """
    beta = params.beta
    omega_eff = np.asarray(dispersion.omega(grid.points), dtype=float) + gaps.delta_m
    w = np.hypot(omega_eff, gaps.delta_b)
    t = tanh_half(w - params.mu, beta)
    e = np.where(w > 0.0, omega_eff / np.where(w > 0.0, w, 1.0), 1.0)
    brace = 0.5 * (1.0 - e * t)
    ratio = np.where(w > 0.0, gaps.delta_b / np.where(w > 0.0, w, 1.0) * t, 0.0)

    new_dm = 2.0 * kernels.mean_field.apply(grid, brace)
    new_db = kernels.pairing.apply(grid, ratio)
    if not (np.all(np.isfinite(new_dm)) and np.all(np.isfinite(new_db))):
        raise NonFiniteIntegrand("gap update produced non-finite values")

    change = max(
        float(np.max(np.abs(new_dm - gaps.delta_m))),
        float(np.max(np.abs(new_db - gaps.delta_b))),
    )
    return GapFunctions(
        delta_m=new_dm,
        delta_b=new_db,
        w_bar=_w_bar(grid, dispersion, new_dm, new_db),
        residual=change,
        iterations=gaps.iterations,
    )


def _defect(gaps: GapFunctions, grid, kernels, dispersion, params) -> float:
    return gap_rhs(gaps, grid, kernels, dispersion, params).residual


def self_consistent_solve(grid: RadialGrid, kernels: CoupledKernels,
                          dispersion: DispersionSpec, params: ModelParams,
                          controls: IterationControls,
                          on_iterate: Callable[[int, float], None] | None = None,
                          ) -> GapFunctions:
    """Damped Picard iteration to a self-consistent gap pair.

    Stops when the sup-norm change between successive damped iterates drops
    below ``controls.tol``; raises :class:`NotConverged` (carrying the last
    iterate in ``.gaps``) otherwise.  The converged pairing function is sign-
    canonicalized to be non-negative at its largest-magnitude point — both
    signs solve the system.  ``on_iterate(iteration, change)`` is called once
    per step when provided; handy for convergence diagnostics.
    """
    params = validate(params)
    alpha = controls.damping
    dm, db = controls.init.build(grid, params)
    it = 0
    for it in range(1, controls.max_iters + 1):
        current = GapFunctions(dm, db, _w_bar(grid, dispersion, dm, db), 0.0, it)
        rhs = gap_rhs(current, grid, kernels, dispersion, params)
        new_dm = (1.0 - alpha) * dm + alpha * rhs.delta_m
        new_db = (1.0 - alpha) * db + alpha * rhs.delta_b
        change = max(
            float(np.max(np.abs(new_dm - dm))),
            float(np.max(np.abs(new_db - db))),
        )
        dm, db = new_dm, new_db
        if on_iterate is not None:
            on_iterate(it, change)
        if change < controls.tol:
            break
    else:
        raise NotConverged(
            f"no fixed point after {controls.max_iters} iterations "
            f"(last change {change:.3e})",
            residual=change, iterations=controls.max_iters, gaps=(dm, db),
        )

    peak = int(np.argmax(np.abs(db)))
    if db[peak] < 0.0:
        db = -db
    final = GapFunctions(dm, db, _w_bar(grid, dispersion, dm, db), 0.0, it)
    return GapFunctions(
        delta_m=dm, delta_b=db, w_bar=final.w_bar,
        residual=_defect(final, grid, kernels, dispersion, params),
        iterations=it,
    )


def _sup_distance(a: GapFunctions, b: GapFunctions) -> float:
    return max(
        float(np.max(np.abs(a.delta_m - b.delta_m))),
        float(np.max(np.abs(a.delta_b - b.delta_b))),
    )


def _amplitude(db: np.ndarray) -> float:
    return float(np.max(np.abs(db)))


def branch_scan(grid: RadialGrid, kernels: CoupledKernels,
                dispersion: DispersionSpec, params: ModelParams,
                seeds: Iterable[float],
                controls: IterationControls = IterationControls(),
                ) -> list[GapFunctions]:
    """Hunt for every self-consistent branch reachable from the given seeds.

    Each seed value starts one solve with a constant pairing function of that
    amplitude; converged results are deduplicated by sup-norm distance below
    ``10 * tol``.  Picard iteration can only land on attracting branches, and
    in the two-root band the smaller root repels: when two seeds fall into
    different basins, the basin boundary along the seed axis is located by
    bisection and a capture pass keeps the minimum-defect iterate of a
    trajectory started on the boundary — that trajectory shadows the
    repelling branch long enough to read it off.  The captured iterate is
    kept only if its gap-equation defect is below 1e-4 on the branch scale.

    Returns branches sorted by pairing amplitude (the delta_B = 0 branch,
    when reached, comes first).  If every seed fails to converge the last
    :class:`NotConverged` is re-raised.
    """
    seeds = [float(s) for s in seeds]
    if not seeds:
        raise InvalidParameter("branch_scan needs at least one seed")

    outcomes: list[tuple[float, GapFunctions | None]] = []  # (seed, result)
    converged: list[GapFunctions] = []
    last_failure: NotConverged | None = None
    for s in seeds:
        ctl = IterationControls(damping=controls.damping,
                                max_iters=controls.max_iters,
                                tol=controls.tol, init=SeededPairing(s))
        try:
            sol = self_consistent_solve(grid, kernels, dispersion, params, ctl)
        except NotConverged as exc:
            last_failure = exc
            outcomes.append((s, None))
            continue
        outcomes.append((s, sol))
        converged.append(sol)

    if not converged:
        if last_failure is not None:
            raise last_failure
        raise NotConverged("no seed converged", residual=math.inf,
                           iterations=0, gaps=None)

    branches: list[GapFunctions] = []
    for sol in converged:
        if all(_sup_distance(sol, kept) >= 10.0 * controls.tol for kept in branches):
            branches.append(sol)

    # basin-boundary sweep for a repelling branch between two observed basins
    distinct_amps = sorted({round(_amplitude(b.delta_b), 6) for b in branches})
    if len(distinct_amps) >= 2:
        lo_amp, hi_amp = distinct_amps[0], distinct_amps[-1]

        def basin_of(seed_value: float) -> float:
            ctl = IterationControls(damping=controls.damping,
                                    max_iters=controls.max_iters,
                                    tol=max(controls.tol, 1e-9),
                                    init=SeededPairing(seed_value))
            try:
                out = self_consistent_solve(grid, kernels, dispersion, params, ctl)
                return _amplitude(out.delta_b)
            except NotConverged as exc:
                dm_last, db_last = exc.gaps
                return _amplitude(db_last)

        pairs = [(seed, _amplitude(s.delta_b)) for seed, s in outcomes if s is not None]
        lo_seeds = [seed for seed, a in pairs if abs(a - lo_amp) < abs(a - hi_amp)]
        hi_seeds = [seed for seed, a in pairs if abs(a - lo_amp) >= abs(a - hi_amp)]
        if lo_seeds and hi_seeds:
            s_lo, s_hi = max(lo_seeds), min(hi_seeds)
            for _ in range(64):
                mid = 0.5 * (s_lo + s_hi)
                if not math.isfinite(mid) or mid in (s_lo, s_hi):
                    break
                mid_amp = basin_of(mid)
                if abs(mid_amp - lo_amp) < abs(mid_amp - hi_amp):
                    s_lo = mid
                else:
                    s_hi = mid
            for saddle in _capture_candidates(grid, kernels, dispersion,
                                              params, controls,
                                              0.5 * (s_lo + s_hi)):
                if all(_sup_distance(saddle, kept) >= 10.0 * controls.tol
                       for kept in branches):
                    branches.append(saddle)

    branches.sort(key=lambda b: _amplitude(b.delta_b))
    return branches


def _capture_candidates(grid, kernels, dispersion, params, controls,
                        seed_value: float) -> list[GapFunctions]:
    """Low-defect iterates of a trajectory started on a basin boundary.

    Such a trajectory shadows the repelling branch before ejecting toward an
    attractor, so its gap-equation defect dips to a local minimum at the
    closest approach — usually within a few iterations, since the boundary
    seed is bisected down to rounding.  Every interior local minimum of the
    defect series (plus the global one, which is just the attractor the
    trajectory finally lands on) below 1e-4 on the branch scale comes back
    as a candidate; the caller keeps whichever are genuinely new.
    """
    n = grid.points.size
    dm, db = np.zeros(n), np.full(n, seed_value)
    alpha = controls.damping
    trajectory: list[tuple[float, np.ndarray, np.ndarray]] = []
    for _ in range(600):
        current = GapFunctions(dm, db, _w_bar(grid, dispersion, dm, db), 0.0)
        rhs = gap_rhs(current, grid, kernels, dispersion, params)
        trajectory.append((rhs.residual, dm, db))
        dm = (1.0 - alpha) * dm + alpha * rhs.delta_m
        db = (1.0 - alpha) * db + alpha * rhs.delta_b
        if rhs.residual == 0.0:
            break

    defects = [t[0] for t in trajectory]
    picks = {int(np.argmin(defects))}
    for k in range(1, len(defects) - 1):
        if defects[k] < defects[k - 1] and defects[k] <= defects[k + 1]:
            picks.add(k)

    out: list[GapFunctions] = []
    for k in sorted(picks, key=lambda i: defects[i]):
        defect, dm_k, db_k = trajectory[k]
        if defect > 1e-4 * max(1.0, _amplitude(db_k)):
            continue
        peak = int(np.argmax(np.abs(db_k)))
        if db_k[peak] < 0.0:
            db_k = -db_k
        out.append(GapFunctions(
            delta_m=dm_k, delta_b=db_k,
            w_bar=_w_bar(grid, dispersion, dm_k, db_k),
            residual=defect, iterations=0,
        ))
    return out


def mode_table(grid: RadialGrid, gaps: GapFunctions, params: ModelParams,
               dispersion: DispersionSpec = PARABOLIC) -> ModeTable:
    """Tabulate thermal mode data (occupations, pairing amplitudes) of a solution."""
    omega_eff = np.asarray(dispersion.omega(grid.points), dtype=float) + gaps.delta_m
    return ModeTable.build(grid.points, omega_eff, gaps.delta_b, params)
