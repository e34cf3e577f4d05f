"""Momentum-resolved coupled gap equations on a radial grid.

The full problem couples two unknown functions of momentum through

    delta_M(k) = 2 int V_M(k,p) {p} dp
    delta_B(k) =   int V_B(k,p) (delta_B(p) / w_bar(p)) tanh(beta (w_bar(p) - mu)/2) dp
    w_bar(p)   = hypot(omega(p) + delta_M(p), delta_B(p))

with {p} the thermal occupation.  Solved by damped Picard iteration;
:func:`branch_scan` adds Newton's method for the repelling branches.  Both
iterate one problem built once per solve, in which every kernel is a
low-rank factor (:class:`_Factor`; a degenerate-kernel method, Atkinson, *The
Numerical Solution of Integral Equations of the Second Kind*, 1997, ch. 2),
and every solution they emit reports its :func:`gap_rhs` defect, taken on
the full kernels, as residual.  The
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
import dataclasses
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence, Union

import numpy as np

from .core_types import ModelParams
from .errors import (
    ConfigError,
    InvalidParameter,
    NonFiniteIntegrand,
    NotConverged,
    ShellBelowZero,
)
from .thermal import ModeTable, _check_momenta, _mode_terms, _trapezoid_weights


# --------------------------------------------------------------------------
# grid


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """At least two strictly increasing momenta p_i >= 0; ``weights`` is their trapezoid rule."""

    points: np.ndarray
    weights: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        if self.points.ndim != 1 or self.points.size < 2:
            raise InvalidParameter("radial grid needs at least two points")
        _check_momenta(self.points)
        object.__setattr__(self, "weights", _trapezoid_weights(self.points))

    @classmethod
    def from_points(cls, points: Sequence[float]) -> "RadialGrid":
        return cls(np.asarray(points, dtype=float))

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
    [0, lo] and [hi, p_max] in proportion to their lengths.  The band and its
    checks are those of :func:`shell_kernel`.
    """
    band = shell_kernel(epsilon, mu)
    lo, hi = band.lo, band.hi
    root = math.sqrt(mu)
    if not (math.isfinite(p_max) and p_max > hi):
        raise InvalidParameter(
            f"p_max = {p_max!r} must be finite and exceed the outer shell edge {hi:.6g}")
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

    def __call__(self, p) -> np.ndarray:
        arr = np.asarray(p, dtype=float)
        return np.where((arr >= self.lo) & (arr <= self.hi), self.height, 0.0)

    def measure_weights(self, points: np.ndarray) -> np.ndarray:
        """Weights sigma_i with sum sigma_i f(p_i) ~ int S(p) f(p) dp.

        Interior trapezoid over the covered sub-grid plus rectangle slivers
        for the partially covered edge cells, so sum sigma_i * 1 equals
        ``height * (hi - lo)`` to one rounding however the grid falls.  A grid
        that puts no point inside the band integrates it as zero — resolve
        the shell before solving on it.
        """
        pts = np.asarray(points, dtype=float)
        sigma = np.zeros(pts.shape)
        inside = ((pts >= self.lo) & (pts <= self.hi)).nonzero()[0]
        if inside.size == 0:
            return sigma
        sub = pts[inside]
        w = _trapezoid_weights(sub)
        w[0] += sub[0] - self.lo
        w[-1] += self.hi - sub[-1]
        sigma[inside] = self.height * w
        return sigma


def shell_kernel(epsilon: float, mu: float) -> ShellShape:
    """The 1/(2 eps) band indicator around the Fermi radius; integrates to 1."""
    if not math.isfinite(epsilon) or epsilon <= 0.0:
        raise InvalidParameter(f"epsilon must be positive and finite, got {epsilon!r}")
    if not math.isfinite(mu) or mu < 0.0:
        raise InvalidParameter(f"mu must be finite and non-negative, got {mu!r}")
    root = math.sqrt(mu)
    if root <= epsilon:
        raise ShellBelowZero(
            f"sqrt(mu) = {root:.6g} <= epsilon = {epsilon:.6g}: "
            "band would cross zero momentum"
        )
    return ShellShape(lo=root - epsilon, hi=root + epsilon, height=0.5 / epsilon)


@dataclass(eq=False)
class _Factor:
    """A kernel's action on one grid, ``apply(v) = basis @ (rows @ v)``.

    ``basis`` is n x r and ``rows`` r x n, with the grid's quadrature folded
    into ``rows``.  A separable kernel has r = 1: its shape column and the
    row ``coupling * sigma``; a tabulated kernel K, Q and ``(Q.T @ K) * w``.
    """

    basis: np.ndarray
    rows: np.ndarray

    def amplitudes(self, v: np.ndarray) -> np.ndarray:
        return self.rows @ v

    def lift(self, x: np.ndarray) -> np.ndarray:
        return self.basis @ x

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.lift(self.amplitudes(v))

    def block(self, d: np.ndarray, col: "_Factor") -> np.ndarray:
        """``rows @ diag(d) @ col.basis``: one block of the amplitude Jacobian."""
        return (self.rows * d) @ col.basis


# first rank, test columns, relative bound (rounding) and seed of _range_factor
_RANK_START, _RANK_PROBES, _RANK_TOL, _RANK_SEED = 16, 4, 1e-14, 20110217


def _range_factor(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``matrix`` as ``Q @ (Q.T @ matrix)``: the pair ``(Q, Q.T @ matrix)``.

    The randomized range finder of Halko, Martinsson & Tropp, SIAM Rev. 53
    (2011) 217, alg. 4.1 with the check of their sec. 4.3: Q is an
    orthonormal basis of the image of r fixed-seed Gaussian columns, and r
    doubles from ``_RANK_START`` until Q misses at most ``_RANK_TOL`` of
    ``_RANK_PROBES`` further image columns (Frobenius norm), or reaches n,
    where Q is the identity.  Below n no n x n matrix is built.  No grid
    enters: K @ diag(w) has the range of K for any weights w > 0.
    """
    n = matrix.shape[0]
    rng = np.random.default_rng(_RANK_SEED)
    r = _RANK_START
    while r < n:
        image = matrix @ rng.standard_normal((n, r + _RANK_PROBES))
        q = np.linalg.qr(image[:, :r])[0]
        probe = image[:, r:]
        if np.linalg.norm(probe - q @ (q.T @ probe)) <= _RANK_TOL * np.linalg.norm(probe):
            return q, q.T @ matrix
        r *= 2
    return np.eye(n), matrix


@dataclass(frozen=True)
class SeparableKernel:
    """V(k, p) = coupling * shape(k) * shape(p)."""

    coupling: float
    shape: ShellShape

    def factor(self, grid: RadialGrid) -> _Factor:
        """Rank one: the shape column times the row ``coupling * sigma``, its band weights."""
        sigma = self.shape.measure_weights(grid.points)
        return _Factor(self.shape(grid.points)[:, None], self.coupling * sigma[None, :])

    def apply(self, grid: RadialGrid, values: np.ndarray) -> np.ndarray:
        """Integrate V(k, .) against ``values`` sampled on the grid."""
        return self.factor(grid).apply(values)


@dataclass(frozen=True, eq=False)
class TabulatedKernel:
    """V(k_i, p_j) as a square matrix over the solve grid, every entry finite."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidParameter("tabulated kernel must be a square matrix")
        bad = np.argwhere(~np.isfinite(m))
        if bad.size:
            i, j = bad[0]
            raise InvalidParameter(
                f"tabulated kernel entry ({i}, {j}) is {float(m[i, j])}, not finite")

    @property
    def is_symmetric(self) -> bool:
        """Equal to its transpose to 1e-12 of its largest entry."""
        m = self.matrix
        if np.array_equal(m, m.T):  # exactly symmetric, as a written symmetric kernel is
            return True
        size = max(np.max(m), -np.min(m))  # no |m| or copy of a large matrix
        return bool(np.allclose(m, m.T, rtol=1e-12, atol=1e-12 * size))

    def _check_grid(self, grid: RadialGrid) -> None:
        if self.matrix.shape[0] != grid.points.size:
            raise InvalidParameter(
                f"kernel is {self.matrix.shape[0]}x{self.matrix.shape[1]} but the "
                f"grid has {grid.points.size} points"
            )

    @cached_property  # on the first factor call: a kernel never solved is never factored
    def _range(self) -> tuple[np.ndarray, np.ndarray]:
        return _range_factor(self.matrix)

    def factor(self, grid: RadialGrid) -> _Factor:
        """The range factor, with the grid's weights on its coefficients' columns."""
        self._check_grid(grid)
        basis, coeffs = self._range
        return _Factor(basis, coeffs * grid.weights)

    def apply(self, grid: RadialGrid, values: np.ndarray) -> np.ndarray:
        """The full matrix against ``values``: no factor's truncation enters."""
        self._check_grid(grid)
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

    Rows index k, columns index p; blank lines are skipped.  Raises
    :class:`ConfigError` with the physical line number on any malformed
    content, a non-finite momentum or entry included, and naming the path
    when the file cannot be opened.  numpy's C parser reads the file; only
    when it refuses the content, or reads a value that is not finite, does
    the row-by-row reader run, to name the faulty line.
    """
    try:
        # utf-8-sig drops the byte-order mark of a spreadsheet's "CSV UTF-8", also after seek(0)
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read kernel file: {exc.strerror}") from None
    with fh:
        header_line = next(
            (k for k, line in enumerate(fh, start=1) if line.rstrip("\r\n")), 0)
        if not header_line:
            raise ConfigError(f"{path}: empty kernel file")
        fh.seek(0)
        try:
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            table = None
        if table is None or not np.all(np.isfinite(table)):
            fh.seek(0)
            return _read_kernel_rows(path, fh)
    momenta, matrix = table[0], table[1:]
    _check_header(path, header_line, momenta)
    _check_square(path, momenta, matrix)
    return momenta, matrix


def _read_kernel_rows(path: str, fh) -> tuple[np.ndarray, np.ndarray]:
    """:func:`load_kernel_csv` by the csv module, one row at a time."""
    reader = csv.reader(fh)
    rows = [(reader.line_num, row) for row in reader if row]
    header_line, header = rows[0]
    try:
        momenta = np.array([float(tok) for tok in header])
    except ValueError as exc:
        raise ConfigError(
            f"{path}, line {header_line}: bad momentum header ({exc})") from None
    _check_header(path, header_line, momenta)
    n = momenta.size
    matrix = np.empty((len(rows) - 1, n))
    for i, (lineno, row) in enumerate(rows[1:]):
        if len(row) != n:
            raise ConfigError(
                f"{path}, line {lineno}: expected {n} columns, found {len(row)}"
            )
        try:
            matrix[i] = [float(tok) for tok in row]
        except ValueError as exc:
            raise ConfigError(f"{path}, line {lineno}: {exc}") from None
        if not np.all(np.isfinite(matrix[i])):
            raise ConfigError(f"{path}, line {lineno}: kernel entries must be finite")
    _check_square(path, momenta, matrix)
    return momenta, matrix


def _check_header(path: str, lineno: int, momenta: np.ndarray) -> None:
    if momenta.size < 2:
        raise ConfigError(
            f"{path}, line {lineno}: need at least two momenta, found {momenta.size}")
    try:
        _check_momenta(momenta)
    except InvalidParameter as exc:
        raise ConfigError(f"{path}, line {lineno}: {exc}") from None


def _check_square(path: str, momenta: np.ndarray, matrix: np.ndarray) -> None:
    if matrix.shape[0] != momenta.size:
        raise ConfigError(
            f"{path}: kernel must be square — {momenta.size} momenta but "
            f"{matrix.shape[0]} rows"
        )


# --------------------------------------------------------------------------
# dispersion and iteration setup


def PARABOLIC(p):  # noqa: N802 - a constant: the default dispersion
    """Free dispersion omega(p) = p**2; a dispersion is any such callable of the momenta."""
    return np.asarray(p, dtype=float) ** 2


def _omega(grid: RadialGrid, dispersion: Callable) -> np.ndarray:
    return np.asarray(dispersion(grid.points), dtype=float)


@dataclass(frozen=True)
class SeededPairing:
    """Start from a constant pairing amplitude; selects a nonzero branch basin.

    From 0 (the default) the iteration stays on delta_B = 0.  The value
    must be finite."""

    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise InvalidParameter(f"pairing seed must be finite, got {self.value!r}")

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


InitStrategy = Union[SeededPairing, FromScalar]


@dataclass(frozen=True)
class IterationControls:
    damping: float = 0.5
    max_iters: int = 2000
    tol: float = 1e-10
    init: InitStrategy = SeededPairing(0.0)

    def __post_init__(self) -> None:
        if not 0.0 < self.damping <= 1.0:
            raise InvalidParameter(
                f"damping must lie in (0, 1], got {self.damping!r}"
            )
        if self.max_iters < 1:
            raise InvalidParameter("max_iters must be at least 1")
        if not 0.0 < self.tol < math.inf:
            raise InvalidParameter(f"tol must be finite and positive, got {self.tol!r}")


# --------------------------------------------------------------------------
# the solver


@dataclass(frozen=True, eq=False)
class GapFunctions:
    """One iterate (or the converged solution) of the coupled system.

    ``w_bar`` is recomputed from ``delta_m``/``delta_b`` at emission, so the
    quasi-particle identity holds exactly on every instance the solver hands
    out.  ``residual`` is the sup-norm defect of the two gap equations.
    ``iterations`` counts damped-Picard steps; it is 0 on a branch that
    :func:`branch_scan` reached only by its Newton solve.
    """

    delta_m: np.ndarray
    delta_b: np.ndarray
    w_bar: np.ndarray
    residual: float
    iterations: int = 0


def gap_rhs(gaps: GapFunctions, grid: RadialGrid, kernels: CoupledKernels,
            dispersion: Callable, params: ModelParams) -> GapFunctions:
    """One evaluation of the right-hand sides, with w_bar refreshed.

    The occupation brace is written as (1 - e t)/2 with e = omega_eff/w_bar
    (taken to be 1 on modes where w_bar vanishes — there delta_B is
    necessarily zero and the mode is unrotated).  The returned ``residual``
    is the sup-norm change against the input gaps, the defect every emitted
    solution reports.
    """
    omega = _omega(grid, dispersion)
    brace, ratio = _mode_terms(omega + gaps.delta_m, gaps.delta_b, params)
    new_dm = 2.0 * kernels.mean_field.apply(grid, brace)
    new_db = kernels.pairing.apply(grid, ratio)
    _check_finite(new_dm, new_db)
    return GapFunctions(
        delta_m=new_dm,
        delta_b=new_db,
        w_bar=np.hypot(omega + new_dm, new_db),
        residual=_sup_norm(new_dm - gaps.delta_m, new_db - gaps.delta_b),
        iterations=gaps.iterations,
    )


def _check_finite(dm: np.ndarray, db: np.ndarray) -> None:
    if not (np.all(np.isfinite(dm)) and np.all(np.isfinite(db))):
        raise NonFiniteIntegrand("gap update produced non-finite values")


def _sup_norm(*functions: np.ndarray) -> float:
    """The largest magnitude on the grid of any of ``functions``."""
    return max(float(np.max(np.abs(v))) for v in functions)


def self_consistent_solve(grid: RadialGrid, kernels: CoupledKernels,
                          dispersion: Callable, params: ModelParams,
                          controls: IterationControls,
                          on_iterate: Callable[[int, float], None] | None = None,
                          ) -> GapFunctions:
    """Damped Picard iteration to a self-consistent gap pair.

    The problem, the one Newton runs on in :func:`branch_scan`, is built once
    per solve: each step maps the iterate to its right-hand sides through
    :class:`_AmplitudeProblem`.  Once their sup-norm distance from the
    iterate (its factored defect) drops below ``controls.tol`` the iterate is
    emitted if its :func:`gap_rhs` defect, the same number under separable
    kernels, is at most ``controls.tol`` too; otherwise it moves the fraction
    ``controls.damping`` of the way to the right-hand side.  After
    ``controls.max_iters`` evaluations :class:`NotConverged` is raised,
    carrying the last evaluated iterate, emitted as a solution is, in
    ``.gaps``.  The emitted pairing function is non-negative at its
    largest-magnitude point — both signs solve the system, with the same
    defect.  ``on_iterate(iteration, defect)`` is called once per step with
    the factored defect when provided; handy for convergence diagnostics.
    """
    problem = _AmplitudeProblem(grid, kernels, dispersion, params)
    alpha = controls.damping
    dm, db = controls.init.build(grid, params)
    for it in range(1, controls.max_iters + 1):
        new_dm, new_db = problem.lift(problem.image(dm, db))
        _check_finite(new_dm, new_db)
        defect = _sup_norm(new_dm - dm, new_db - db)
        if on_iterate is not None:
            on_iterate(it, defect)
        if defect < controls.tol:
            gaps = problem.emit(dm, db, it)
            if gaps.residual <= controls.tol:
                return gaps
        if it == controls.max_iters:
            break
        dm = (1.0 - alpha) * dm + alpha * new_dm
        db = (1.0 - alpha) * db + alpha * new_db
    last = problem.emit(dm, db, it)
    raise NotConverged(
        f"no fixed point after {it} iterations (last defect {last.residual:.3e})",
        gaps=last,
    )


def _canonical_sign(db: np.ndarray) -> np.ndarray:
    """``db`` or ``-db``, whichever is non-negative at its largest magnitude."""
    return -db if db[int(np.argmax(np.abs(db)))] < 0.0 else db


class _AmplitudeProblem:
    """F(x) = x - g(x) for the amplitudes x = (x_M, x_B) of the kernels' ranges.

    :func:`gap_rhs` maps every pair of gap functions into the ranges of the
    two kernels, so each fixed point is delta_M = lift_M(x_M), delta_B =
    lift_B(x_B) with x = g(x) in r_M + r_B unknowns, the kernels' ranks
    (:class:`_Factor`): the two amplitudes (A, B) under separable kernels,
    2 x 16 under the benchmark's tabulated ones.  Built once per solve:
    Picard steps on ``lift(image(dm, db))`` (the right-hand sides of
    ``gap_rhs``, bit for bit under separable kernels), Newton on F, and both
    :meth:`emit`, whose residual is the ``gap_rhs`` defect.
    """

    def __init__(self, grid: RadialGrid, kernels: CoupledKernels,
                 dispersion: Callable, params: ModelParams) -> None:
        self.setup = (grid, kernels, dispersion, params)
        self.omega = _omega(grid, dispersion)
        self.m = kernels.mean_field.factor(grid)
        self.b = kernels.pairing.factor(grid)
        self.split = self.m.rows.shape[0]
        self.params = params

    def lift(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.m.lift(x[:self.split]), self.b.lift(x[self.split:])

    def image(self, dm: np.ndarray, db: np.ndarray) -> np.ndarray:
        """The amplitudes of ``gap_rhs`` at the gap functions ``(dm, db)``."""
        brace, ratio = _mode_terms(self.omega + dm, db, self.params)
        return np.concatenate([2.0 * self.m.amplitudes(brace), self.b.amplitudes(ratio)])

    def defect(self, x: np.ndarray) -> np.ndarray:
        return x - self.image(*self.lift(x))

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        dm, db = self.lift(x)
        _, _, brace_dm, brace_db, ratio_dm, ratio_db = _mode_terms(
            self.omega + dm, db, self.params, jacobian=True)
        m, b = self.m, self.b
        jac_g = np.block([[2.0 * m.block(brace_dm, m), 2.0 * m.block(brace_db, b)],
                          [b.block(ratio_dm, m), b.block(ratio_db, b)]])
        return np.eye(x.size) - jac_g

    def emit(self, dm: np.ndarray, db: np.ndarray, iterations: int = 0) -> GapFunctions:
        """The solution ``(dm, db)``: sign-canonical, with its ``gap_rhs`` defect."""
        db = _canonical_sign(db)
        w_bar = np.hypot(self.omega + dm, db)
        residual = gap_rhs(GapFunctions(dm, db, w_bar, 0.0), *self.setup).residual
        return GapFunctions(dm, db, w_bar, residual, iterations)


# bisection steps for the Newton start point, and the Newton step budget
_SEGMENT_STEPS = 12
_NEWTON_STEPS = 20


def _segment_start(problem: _AmplitudeProblem, lo: np.ndarray,
                   hi: np.ndarray) -> np.ndarray | None:
    """Newton start point between the attractors at amplitudes ``lo`` and ``hi``.

    Along x(s) = lo + s (hi - lo) the defect projected on the segment,
    <hi - lo, F(x(s))>, leaves the lower attractor positive and reaches the
    upper one negative; its sign change is bisected to 2**-_SEGMENT_STEPS
    in s.  None when the bisection never sees both signs.
    """
    d = hi - lo
    a, b = 0.0, 1.0
    for _ in range(_SEGMENT_STEPS):
        s = 0.5 * (a + b)
        if float(d @ problem.defect(lo + s * d)) > 0.0:
            a = s
        else:
            b = s
    if a == 0.0 or b == 1.0:
        return None
    return lo + 0.5 * (a + b) * d


def _newton(problem: _AmplitudeProblem, x: np.ndarray,
            tol: float) -> np.ndarray | None:
    """Newton's method on F(x) = 0; None unless a step shrinks below ``tol``.

    The step is measured by the sup norm of the gap functions it lifts to;
    once it falls below ``tol`` the quadratic convergence has left the
    iterate at rounding level.
    """
    for _ in range(_NEWTON_STEPS):
        f = problem.defect(x)
        if not np.all(np.isfinite(f)):
            return None
        try:
            step = np.linalg.solve(problem.jacobian(x), f)
        except np.linalg.LinAlgError:
            return None
        x = x - step
        if _sup_norm(*problem.lift(step)) <= tol:
            return x
    return None


def _repelling_branch(problem: _AmplitudeProblem, lo: np.ndarray, hi: np.ndarray,
                      tol: float) -> GapFunctions | None:
    """The fixed point Newton reaches from between two attractors, if any.

    Kept only when its :func:`gap_rhs` defect is at most ``tol``.
    """
    start = _segment_start(problem, lo, hi)
    x = None if start is None else _newton(problem, start, tol)
    if x is None:
        return None
    gaps = problem.emit(*problem.lift(x))
    return gaps if gaps.residual <= tol else None


def branch_scan(grid: RadialGrid, kernels: CoupledKernels,
                dispersion: Callable, params: ModelParams,
                seeds: Iterable[float],
                controls: IterationControls = IterationControls(),
                ) -> list[GapFunctions]:
    """Hunt for every self-consistent branch reachable from the given seeds.

    Each seed value starts one damped-Picard solve with a constant pairing
    function of that amplitude; converged results are deduplicated by
    sup-norm distance below ``10 * tol``.  Picard iteration can only land on
    attracting branches, and in the two-root band the smaller root repels.
    So the deduplicated converged branches are the attractors, and between
    each adjacent pair of them, by pairing amplitude, one Newton solve of
    F = delta - G(delta) runs, started at the sign change of the defect
    projected on the segment joining them (see :class:`_AmplitudeProblem`).
    Its result is kept when its gap-equation defect is at most ``tol`` and
    it is not one of the attractors; a start point with no sign change or a
    Newton solve that does not converge adds nothing.  A branch found this
    way reports ``iterations == 0``.

    Returns branches sorted by pairing amplitude (the delta_B = 0 branch,
    when reached, comes first).  If every seed fails to converge the last
    :class:`NotConverged` is re-raised.
    """
    inits = [SeededPairing(float(s)) for s in seeds]  # every seed checked before any solve
    if not inits:
        raise InvalidParameter("branch_scan needs at least one seed")

    converged: list[GapFunctions] = []
    last_failure: NotConverged | None = None
    for init in inits:
        ctl = dataclasses.replace(controls, init=init)
        try:
            converged.append(
                self_consistent_solve(grid, kernels, dispersion, params, ctl))
        except NotConverged as exc:
            last_failure = exc

    if not converged:
        raise last_failure

    def is_new(sol: GapFunctions) -> bool:
        return all(_sup_norm(sol.delta_m - kept.delta_m, sol.delta_b - kept.delta_b)
                   >= 10.0 * controls.tol for kept in branches)

    def amplitude(sol: GapFunctions) -> float:
        return _sup_norm(sol.delta_b)

    branches: list[GapFunctions] = []
    for sol in converged:
        if is_new(sol):
            branches.append(sol)

    attractors = sorted(branches, key=amplitude)
    if len(attractors) >= 2:
        problem = _AmplitudeProblem(grid, kernels, dispersion, params)
        amps = [problem.image(b.delta_m, b.delta_b) for b in attractors]
        for lo, hi in zip(amps, amps[1:]):
            saddle = _repelling_branch(problem, lo, hi, controls.tol)
            if saddle is not None and is_new(saddle):
                branches.append(saddle)

    branches.sort(key=amplitude)
    return branches


def mode_table(grid: RadialGrid, gaps: GapFunctions, params: ModelParams,
               dispersion: Callable = PARABOLIC) -> ModeTable:
    """Tabulate thermal mode data (occupations, pairing amplitudes) of a solution."""
    omega_eff = _omega(grid, dispersion) + gaps.delta_m
    return ModeTable.build(grid.points, omega_eff, gaps.delta_b, params)
