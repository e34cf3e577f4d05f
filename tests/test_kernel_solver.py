"""Tests for the momentum-resolved gap solver and its kernel machinery."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapforge.core_types import ModelParams, tanh_half
from gapforge.errors import (
    ConfigError,
    InvalidParameter,
    NonFiniteIntegrand,
    NotConverged,
    ShellBelowZero,
)
from gapforge.kernel_solver import (
    PARABOLIC,
    CoupledKernels,
    FromScalar,
    GapFunctions,
    IterationControls,
    RadialGrid,
    SeededPairing,
    SeparableKernel,
    ShellShape,
    TabulatedKernel,
    branch_scan,
    gap_rhs,
    load_kernel_csv,
    mode_table,
    self_consistent_solve,
    shell_aligned_grid,
    shell_kernel,
    shell_kernels,
)
from gapforge.scalar_gap import pure_mean_field, solve_all

PARAMS = ModelParams(lambda_b=4.0, lambda_m=0.0, mu=1.0, temperature=0.5)


# ---------------------------------------------------------------------------
# grids


def test_uniform_grid_weights_integrate_one():
    grid = RadialGrid.uniform(3.0, 31)
    assert float(np.sum(grid.weights)) == pytest.approx(3.0, abs=1e-12)


def test_grid_rejects_bad_points():
    with pytest.raises(InvalidParameter):
        RadialGrid.from_points([0.5])
    with pytest.raises(InvalidParameter):
        RadialGrid.from_points([1.0, 0.5])
    with pytest.raises(InvalidParameter):
        RadialGrid.from_points([-0.1, 0.5])
    for bad in ([0.0, math.nan, 1.0], [0.0, math.inf]):
        with pytest.raises(InvalidParameter, match="finite"):
            RadialGrid.from_points(bad)
    with pytest.raises(InvalidParameter):
        RadialGrid(points=np.array([0.0, 1.0]), weights=np.array([0.0, 1.0]))


def test_index_nearest_picks_the_closest_point():
    grid = RadialGrid.uniform(3.0, 31)
    assert grid.points[grid.index_nearest(1.02)] == pytest.approx(1.0)


def test_shell_aligned_grid_hits_the_band_exactly():
    mu, eps = 1.0, 0.05
    grid = shell_aligned_grid(mu, eps, n_shell=80, p_max=3.0, n_outer=160)
    pts = grid.points
    for special in (0.0, math.sqrt(mu) - eps, math.sqrt(mu), math.sqrt(mu) + eps, 3.0):
        assert np.any(pts == special), special
    assert np.all(np.diff(pts) > 0.0)
    assert float(np.sum(grid.weights)) == pytest.approx(3.0, abs=1e-12)


def test_shell_aligned_grid_rounds_odd_shell_counts_up():
    grid = shell_aligned_grid(1.0, 0.1, n_shell=5, p_max=3.0, n_outer=20)
    assert np.any(grid.points == 1.0)


def test_shell_aligned_grid_refuses_bands_crossing_zero():
    with pytest.raises(ShellBelowZero):
        shell_aligned_grid(0.0004, 0.05)
    with pytest.raises(InvalidParameter):
        shell_aligned_grid(1.0, 0.1, p_max=1.05)
    for p_max in (math.nan, math.inf):
        with pytest.raises(InvalidParameter, match="finite"):
            shell_aligned_grid(1.0, 0.1, p_max=p_max)
    with pytest.raises(InvalidParameter):
        shell_aligned_grid(1.0, 0.0)


# ---------------------------------------------------------------------------
# shell shape and its exact band quadrature


def test_shell_shape_values():
    shape = shell_kernel(0.1, 1.0)
    assert shape(1.05) == 5.0
    assert shape(1.2) == 0.0
    assert shape(0.9) == 5.0  # closed interval
    assert shape(0.89999) == 0.0
    np.testing.assert_array_equal(shape(np.array([0.5, 1.0])), [0.0, 5.0])


def test_shell_kernel_validation():
    with pytest.raises(ShellBelowZero):
        shell_kernel(0.5, 0.04)
    with pytest.raises(InvalidParameter):
        shell_kernel(-0.1, 1.0)
    with pytest.raises(InvalidParameter):
        shell_kernel(0.1, -1.0)


def test_measure_weights_capture_the_band_mass_exactly():
    shape = shell_kernel(0.1, 1.0)
    pts = np.linspace(0.0, 3.9, 301)  # band edges fall between grid points
    sigma = shape.measure_weights(pts)
    assert float(np.sum(sigma)) == pytest.approx(1.0, abs=1e-12)
    off_band = (pts < shape.lo) | (pts > shape.hi)
    assert np.all(sigma[off_band] == 0.0)


def test_measure_weights_degenerate_coverage():
    shape = shell_kernel(0.1, 1.0)
    assert np.all(shape.measure_weights(np.array([0.0, 0.5])) == 0.0)
    sigma = shape.measure_weights(np.array([0.0, 1.0, 2.0]))
    assert float(sigma[1]) == pytest.approx(1.0, abs=1e-12)
    assert sigma[0] == sigma[2] == 0.0


@given(
    mu=st.floats(0.25, 4.0),
    eps=st.floats(0.01, 0.3),
    n=st.integers(17, 211),
)
def test_measure_weights_mass_is_grid_independent(mu, eps, n):
    if math.sqrt(mu) <= eps * 1.5:
        return
    shape = shell_kernel(eps, mu)
    pts = np.linspace(0.0, math.sqrt(mu) + 3.0 * eps + 0.7, n)
    sigma = shape.measure_weights(pts)
    if not np.any((pts >= shape.lo) & (pts <= shape.hi)):
        assert np.all(sigma == 0.0)
        return
    assert np.all(sigma >= 0.0)
    assert float(np.sum(sigma)) == pytest.approx(
        shape.height * (shape.hi - shape.lo), rel=1e-9
    )


# ---------------------------------------------------------------------------
# kernels


def test_tabulated_kernel_must_be_square():
    with pytest.raises(InvalidParameter):
        TabulatedKernel(np.zeros((2, 3)))


def test_tabulated_kernel_checks_grid_size():
    kernel = TabulatedKernel(np.eye(3))
    grid = RadialGrid.uniform(1.0, 5)
    with pytest.raises(InvalidParameter):
        kernel.apply(grid, np.zeros(5))


def test_pairing_kernel_must_be_symmetric():
    asym = TabulatedKernel(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(InvalidParameter):
        CoupledKernels(pairing=asym, mean_field=asym)
    CoupledKernels(pairing=TabulatedKernel(np.eye(2)), mean_field=asym)


@pytest.mark.parametrize("scale", [1e-13, 1e13])
def test_pairing_kernel_symmetry_is_relative_to_its_size(scale):
    asym = TabulatedKernel(scale * np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(InvalidParameter):
        CoupledKernels(pairing=asym, mean_field=asym)
    # an infinite entry does not stretch the tolerance of the finite ones
    with pytest.raises(InvalidParameter):
        CoupledKernels(pairing=TabulatedKernel(scale * np.array(
            [[0.0, 1.0, math.inf], [2.0, 0.0, 0.0], [math.inf, 0.0, 0.0]])), mean_field=asym)
    # rounding-level asymmetry passes at any size, and so does a zero kernel
    nearly = TabulatedKernel(scale * np.array([[0.0, 1.0], [1.0 + 1e-15, 0.0]]))
    CoupledKernels(pairing=nearly, mean_field=asym)
    CoupledKernels(pairing=TabulatedKernel(np.zeros((2, 2))), mean_field=asym)


def test_separable_and_tabulated_forms_agree_for_smooth_shapes():
    # A plain callable shape has no exact band quadrature, so both forms
    # integrate with the grid's trapezoid weights and must match.
    grid = RadialGrid.uniform(3.0, 101)
    bump = lambda p: np.exp(-(((np.asarray(p, dtype=float)) - 1.0) / 0.3) ** 2)
    sep = SeparableKernel(1.7, bump)
    tab = TabulatedKernel(1.7 * np.outer(bump(grid.points), bump(grid.points)))
    rng = np.random.default_rng(7)
    values = rng.normal(size=grid.points.size)
    np.testing.assert_allclose(
        sep.apply(grid, values), tab.apply(grid, values), rtol=1e-12, atol=1e-14
    )


def test_tabulated_shell_with_measure_columns_matches_separable():
    # Folding sigma/w into the matrix columns reproduces the sliver-exact
    # band quadrature through the plain matrix-vector path.
    eps = 0.05
    grid = shell_aligned_grid(1.0, eps, n_shell=40, p_max=3.0, n_outer=80)
    shape = shell_kernel(eps, 1.0)
    sigma = shape.measure_weights(grid.points)
    matrix = 2.0 * eps * np.outer(shape(grid.points), sigma / grid.weights)
    sep = SeparableKernel(2.0 * eps, shape)
    tab = TabulatedKernel(matrix)
    rng = np.random.default_rng(11)
    values = rng.normal(size=grid.points.size)
    np.testing.assert_allclose(
        sep.apply(grid, values), tab.apply(grid, values), rtol=1e-12, atol=1e-14
    )


# ---------------------------------------------------------------------------
# kernel CSV loading


def _write(tmp_path, text):
    path = tmp_path / "kernel.csv"
    path.write_text(text)
    return str(path)


def test_kernel_csv_roundtrip(tmp_path):
    path = _write(tmp_path, "0.0,0.5,1.0\n1,2,3\n2,4,6\n3,6,9\n")
    momenta, matrix = load_kernel_csv(path)
    np.testing.assert_array_equal(momenta, [0.0, 0.5, 1.0])
    np.testing.assert_array_equal(matrix, [[1, 2, 3], [2, 4, 6], [3, 6, 9]])


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty"),
        ("0.0,abc,1.0\n1,2,3\n", "line 1"),
        ("1.0\n5\n", "at least two"),
        ("0.0,0.5,0.4\n1,2,3\n1,2,3\n1,2,3\n", "line 1"),
        ("0.0,0.5,1.0\n1,2,3\n1,2\n1,2,3\n", "line 3"),
        ("0.0,0.5,1.0\n1,2,3\n1,x,3\n1,2,3\n", "line 3"),
        ("0.0,0.5,1.0\n1,2,3\n1,2,3\n", "square"),
        ("0.0,nan,1.0\n1,2,3\n1,2,3\n1,2,3\n", "line 1: momenta must be finite"),
        ("0.0,0.5,inf\n1,2,3\n1,2,3\n1,2,3\n", "line 1: momenta must be finite"),
        ("0.0,0.5,1.0\n1,2,3\n1,-inf,3\n1,2,3\n", "line 3: kernel entries must be finite"),
        ("0.0,0.5,1.0\n1,2,3\n1,2,3\n1,2,nan\n", "line 4: kernel entries must be finite"),
    ],
)
def test_kernel_csv_diagnostics(tmp_path, text, fragment):
    with pytest.raises(ConfigError, match=fragment):
        load_kernel_csv(_write(tmp_path, text))


def test_kernel_csv_reports_physical_line_numbers(tmp_path):
    # the blank line 2 counts: the bad token is on line 4
    path = _write(tmp_path, "0.0,0.5,1.0\n\n1,2,3\n1,x,3\n1,2,3\n")
    with pytest.raises(ConfigError, match="line 4"):
        load_kernel_csv(path)
    path = _write(tmp_path, "\n0.0,0.5,0.4\n1,2,3\n1,2,3\n1,2,3\n")
    with pytest.raises(ConfigError, match="line 2: momenta"):
        load_kernel_csv(path)
    path = _write(tmp_path, "\r\n0.0,1.0\r\n\r\n1,2\r\n3\r\n")
    with pytest.raises(ConfigError, match="line 5: expected 2 columns"):
        load_kernel_csv(path)


def test_kernel_csv_skips_blank_lines(tmp_path):
    path = _write(tmp_path, "\n0.0,0.5\n\n1,2\r\n2,4\n\n")
    momenta, matrix = load_kernel_csv(path)
    np.testing.assert_array_equal(momenta, [0.0, 0.5])
    np.testing.assert_array_equal(matrix, [[1, 2], [2, 4]])
    with pytest.raises(ConfigError, match="empty"):
        load_kernel_csv(_write(tmp_path, "\n\r\n\n"))


def test_kernel_csv_values_match_python_float_parsing(tmp_path):
    rng = np.random.default_rng(3)
    values = rng.normal(size=(4, 3)) * 10.0 ** rng.integers(-300, 300, size=(4, 3))
    values[0] = [0.0, 0.25, 1.0 / 3.0]
    text = "\n".join(",".join(f"{x:.22e}" for x in row) for row in values) + "\n"
    momenta, matrix = load_kernel_csv(_write(tmp_path, text))
    want = [[float(f"{x:.22e}") for x in row] for row in values]
    assert momenta.tolist() == want[0]
    assert matrix.tolist() == want[1:]


# ---------------------------------------------------------------------------
# iteration setup


def test_iteration_controls_validation():
    IterationControls(damping=1.0)
    with pytest.raises(InvalidParameter):
        IterationControls(damping=0.0)
    with pytest.raises(InvalidParameter):
        IterationControls(damping=1.2)
    with pytest.raises(InvalidParameter):
        IterationControls(max_iters=0)
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidParameter, match="tol"):
            IterationControls(tol=tol)


def test_init_strategies_build_constant_profiles():
    grid = RadialGrid.uniform(3.0, 11)
    assert IterationControls().init == SeededPairing(0.0)
    dm, db = SeededPairing(0.0).build(grid, PARAMS)
    assert np.all(dm == 0.0) and np.all(db == 0.0)
    dm, db = SeededPairing(0.7).build(grid, PARAMS)
    assert np.all(dm == 0.0) and np.all(db == 0.7)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_pairing_seed_is_refused(bad):
    with pytest.raises(InvalidParameter, match="finite"):
        SeededPairing(bad)
    # a branch scan checks every seed before it solves from any
    grid = RadialGrid.uniform(3.0, 11)
    with pytest.raises(InvalidParameter, match="finite"):
        branch_scan(grid, shell_kernels(PARAMS, 0.1), PARABOLIC, PARAMS, [0.3, bad],
                    IterationControls(max_iters=1))


def test_from_scalar_init_prefers_the_top_mixed_branch():
    grid = RadialGrid.uniform(3.0, 11)
    dm, db = FromScalar().build(grid, PARAMS)
    top = solve_all(PARAMS).mixed[-1]
    assert np.all(dm == top.delta_m)
    assert np.all(db == top.delta_b)


def test_from_scalar_init_falls_back_to_the_pure_branch():
    params = ModelParams(lambda_b=4.0, lambda_m=1.5, mu=1.0, temperature=2.6)
    assert not solve_all(params).mixed
    grid = RadialGrid.uniform(3.0, 11)
    dm, db = FromScalar().build(grid, params)
    assert np.all(db == 0.0)
    assert np.all(dm == pure_mean_field(params))


# ---------------------------------------------------------------------------
# right-hand side and fixed points


def test_zero_kernels_converge_immediately():
    grid = RadialGrid.uniform(3.0, 41)
    shape = shell_kernel(0.1, 1.0)
    kernels = CoupledKernels(
        pairing=SeparableKernel(0.0, shape), mean_field=SeparableKernel(0.0, shape)
    )
    sol = self_consistent_solve(grid, kernels, PARABOLIC, PARAMS, IterationControls())
    assert sol.iterations == 1
    assert sol.residual == 0.0
    assert np.all(sol.delta_m == 0.0) and np.all(sol.delta_b == 0.0)


def test_gap_rhs_matches_the_on_shell_scalar_forms():
    params = ModelParams(lambda_b=4.0, lambda_m=1.5, mu=1.0, temperature=0.5)
    eps = 0.01
    grid = shell_aligned_grid(params.mu, eps, n_shell=120, p_max=3.0, n_outer=200)
    kernels = shell_kernels(params, eps)
    n = grid.points.size
    dm0, db0 = 0.2, 0.8
    gaps = GapFunctions(
        delta_m=np.full(n, dm0),
        delta_b=np.full(n, db0),
        w_bar=np.hypot(grid.points**2 + dm0, db0),
        residual=0.0,
    )
    rhs = gap_rhs(gaps, grid, kernels, PARABOLIC, params)
    i = grid.index_nearest(math.sqrt(params.mu))
    w = math.hypot(params.mu + dm0, db0)
    t = tanh_half(w - params.mu, params.beta)
    expected_db = params.lambda_b * (db0 / w) * t
    expected_dm = params.lambda_m * (1.0 - (params.mu + dm0) / w * t)
    assert rhs.delta_b[i] == pytest.approx(expected_db, rel=1e-3)
    assert rhs.delta_m[i] == pytest.approx(expected_dm, rel=1e-3)
    off_band = np.abs(grid.points - math.sqrt(params.mu)) > eps * (1.0 + 1e-9)
    assert np.all(rhs.delta_b[off_band] == 0.0)
    assert np.all(rhs.delta_m[off_band] == 0.0)


def test_gap_rhs_flags_non_finite_updates():
    grid = RadialGrid.uniform(3.0, 41)
    shape = shell_kernel(0.1, 1.0)
    kernels = CoupledKernels(
        pairing=SeparableKernel(math.inf, shape),
        mean_field=SeparableKernel(0.0, shape),
    )
    n = grid.points.size
    gaps = GapFunctions(np.zeros(n), np.ones(n), np.ones(n), 0.0)
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteIntegrand):
        gap_rhs(gaps, grid, kernels, PARABOLIC, PARAMS)


def test_zero_init_stays_on_the_unpaired_branch():
    params = ModelParams(lambda_b=4.0, lambda_m=1.5, mu=1.0, temperature=0.5)
    eps = 0.02
    grid = shell_aligned_grid(params.mu, eps, n_shell=100, p_max=3.0, n_outer=200)
    sol = self_consistent_solve(
        grid, shell_kernels(params, eps), PARABOLIC, params, IterationControls()
    )
    assert np.all(sol.delta_b == 0.0)
    i = grid.index_nearest(1.0)
    assert sol.delta_m[i] == pytest.approx(pure_mean_field(params), abs=5e-4)


def test_seeded_solve_lands_on_the_scalar_branch_as_the_band_narrows():
    target = solve_all(PARAMS).mixed[-1].delta_b
    errors = []
    for eps in (0.1, 0.02):
        grid = shell_aligned_grid(PARAMS.mu, eps, n_shell=100, p_max=3.0, n_outer=200)
        sol = self_consistent_solve(
            grid,
            shell_kernels(PARAMS, eps),
            PARABOLIC,
            PARAMS,
            IterationControls(init=SeededPairing(1.0)),
        )
        errors.append(abs(float(sol.delta_b[grid.index_nearest(1.0)]) - target))
    assert errors[1] < errors[0] / 10.0  # quadratic in the band width
    assert errors[1] < 5e-4


def test_converged_pairing_sign_is_canonical():
    eps = 0.05
    grid = shell_aligned_grid(1.0, eps, n_shell=60, p_max=3.0, n_outer=120)
    sol = self_consistent_solve(
        grid,
        shell_kernels(PARAMS, eps),
        PARABOLIC,
        PARAMS,
        IterationControls(init=SeededPairing(-1.0)),
    )
    assert float(np.max(sol.delta_b)) > 0.0
    assert float(np.min(sol.delta_b)) >= 0.0


def test_damped_iteration_reports_progress_per_step():
    eps = 0.05
    grid = shell_aligned_grid(1.0, eps, n_shell=60, p_max=3.0, n_outer=120)
    changes = []
    sol = self_consistent_solve(
        grid,
        shell_kernels(PARAMS, eps),
        PARABOLIC,
        PARAMS,
        IterationControls(damping=0.3, init=SeededPairing(1.0)),
        on_iterate=lambda it, change: changes.append((it, change)),
    )
    assert [it for it, _ in changes] == list(range(1, sol.iterations + 1))
    values = [c for _, c in changes]
    # the step size may grow while the iterate climbs toward the branch,
    # but the contraction near the fixed point must dominate the tail
    assert values[-1] < 1e-10
    assert max(values[-5:]) < 1e-6 * max(values)
    assert sol.residual < 1e-8


def test_solve_returns_the_iterate_whose_defect_it_reports():
    eps = 0.05
    grid = shell_aligned_grid(1.0, eps, n_shell=60, p_max=3.0, n_outer=120)
    kernels = shell_kernels(PARAMS, eps)
    controls = IterationControls(init=SeededPairing(1.0))
    defects = []
    sol = self_consistent_solve(grid, kernels, PARABOLIC, PARAMS, controls,
                                on_iterate=lambda it, defect: defects.append(defect))
    assert sol.residual < controls.tol
    assert sol.residual == defects[-1]
    assert sol.residual == gap_rhs(sol, grid, kernels, PARABOLIC, PARAMS).residual
    assert all(d >= controls.tol for d in defects[:-1])


def test_unconverged_solve_carries_the_defect_of_its_iterate():
    eps = 0.05
    grid = shell_aligned_grid(1.0, eps, n_shell=60, p_max=3.0, n_outer=120)
    kernels = shell_kernels(PARAMS, eps)
    with pytest.raises(NotConverged) as info:
        self_consistent_solve(grid, kernels, PARABOLIC, PARAMS,
                              IterationControls(max_iters=4, init=SeededPairing(1.0)))
    last = info.value.gaps
    assert last.iterations == info.value.iterations == 4
    assert last.residual == info.value.residual
    np.testing.assert_array_equal(last.w_bar, np.hypot(grid.points ** 2 + last.delta_m,
                                                       last.delta_b))
    assert info.value.residual == gap_rhs(last, grid, kernels, PARABOLIC, PARAMS).residual


def test_unconverged_solve_reports_its_last_iterate():
    eps = 0.05
    grid = shell_aligned_grid(1.0, eps, n_shell=60, p_max=3.0, n_outer=120)
    with pytest.raises(NotConverged) as info:
        self_consistent_solve(
            grid,
            shell_kernels(PARAMS, eps),
            PARABOLIC,
            PARAMS,
            IterationControls(max_iters=3, init=SeededPairing(1.0)),
        )
    err = info.value
    assert err.iterations == 3
    assert math.isfinite(err.residual) and err.residual > 0.0
    assert err.gaps.delta_m.shape == grid.points.shape
    assert float(np.max(np.abs(err.gaps.delta_b))) > 0.0


# ---------------------------------------------------------------------------
# branch scanning


@functools.lru_cache(maxsize=None)
def _scaled_branch_scan(c):
    """The three-branch scan at PARAMS, energies scaled by c and momenta by sqrt(c).

    Returns the branches and their delta_B at the Fermi momentum.
    """
    root = math.sqrt(c)
    params = ModelParams(4.0 * c, 0.0, c, temperature=0.5 * c)
    eps = 0.05 * root
    grid = shell_aligned_grid(params.mu, eps, n_shell=80, p_max=3.0 * root, n_outer=160)
    branches = branch_scan(grid, shell_kernels(params, eps), PARABOLIC, params,
                           [0.3 * c, 2.0 * c], IterationControls(tol=1e-10 * c))
    i = grid.index_nearest(root)
    return branches, [float(b.delta_b[i]) for b in branches]


@pytest.mark.parametrize("c", [1.0, 1e-8, 1e8])
def test_branch_scan_finds_all_three_branches(c):
    # the model is scale-free: every energy times c and every momentum times
    # sqrt(c) gives the same branches, their gaps times c
    branches, amps = _scaled_branch_scan(c)
    assert len(branches) == 3
    report = solve_all(PARAMS)
    assert amps[0] == pytest.approx(0.0, abs=1e-8 * c)
    assert amps[1] == pytest.approx(c * report.mixed[0].delta_b, abs=5e-3 * c)
    assert amps[2] == pytest.approx(c * report.mixed[-1].delta_b, abs=5e-3 * c)
    unit = _scaled_branch_scan(1.0)[1]
    assert amps[1:] == pytest.approx([c * a for a in unit[1:]], rel=1e-6)
    # the middle branch repels: it can only come from the capture pass
    assert branches[1].iterations == 0
    assert branches[1].residual < 1e-4 * c * max(1.0, amps[1] / c)


def test_branch_scan_deduplicates_identical_basins():
    eps = 0.05
    grid = shell_aligned_grid(1.0, eps, n_shell=60, p_max=3.0, n_outer=120)
    kernels = shell_kernels(PARAMS, eps)
    branches = branch_scan(grid, kernels, PARABOLIC, PARAMS, [1.5, 2.0, 3.0])
    assert len(branches) == 1


def test_branch_scan_requires_seeds():
    grid = RadialGrid.uniform(3.0, 11)
    kernels = shell_kernels(PARAMS, 0.1)
    with pytest.raises(InvalidParameter):
        branch_scan(grid, kernels, PARABOLIC, PARAMS, [])


def test_branch_scan_propagates_total_failure():
    eps = 0.05
    grid = shell_aligned_grid(1.0, eps, n_shell=60, p_max=3.0, n_outer=120)
    kernels = shell_kernels(PARAMS, eps)
    with pytest.raises(NotConverged):
        branch_scan(
            grid,
            kernels,
            PARABOLIC,
            PARAMS,
            [1.0],
            IterationControls(max_iters=2),
        )


def _acceptance_scan_setup():
    params = ModelParams(4.0, 0.0, 1.0, temperature=0.5)
    eps = 0.01
    grid = shell_aligned_grid(params.mu, eps, n_shell=200, p_max=3.0, n_outer=400)
    return grid, shell_kernels(params, eps), params


def test_branch_scan_solves_the_repelling_branch_to_the_tolerance():
    grid, kernels, params = _acceptance_scan_setup()
    controls = IterationControls()
    branches = branch_scan(grid, kernels, PARABOLIC, params, [0.3, 2.0], controls)
    assert len(branches) == 3
    middle = branches[1]
    assert middle.iterations == 0
    defect = gap_rhs(middle, grid, kernels, PARABOLIC, params).residual
    assert defect <= 10.0 * controls.tol
    assert middle.residual == defect
    lower = min(s.delta_b for s in solve_all(params).mixed)
    at_fermi = float(middle.delta_b[grid.index_nearest(1.0)])
    assert at_fermi == pytest.approx(lower, rel=1e-2)


@pytest.mark.parametrize("lambda_m", [0.3, -0.3])
def test_branch_scan_residuals_are_gap_rhs_defects_within_tol(lambda_m):
    # the delta_B = 0 branch here converges slowly; a stop on the damped step
    # reported defects up to tol / damping
    params = ModelParams(4.0, lambda_m, 1.0, temperature=0.5)
    eps = 0.01
    grid = shell_aligned_grid(params.mu, eps, n_shell=200, n_outer=400)
    kernels = shell_kernels(params, eps)
    controls = IterationControls()
    branches = branch_scan(grid, kernels, PARABOLIC, params, [0.3, 2.0], controls)
    assert len(branches) == 3
    for b in branches:
        assert b.residual <= controls.tol
        assert b.residual == gap_rhs(b, grid, kernels, PARABOLIC, params).residual


def test_branch_scan_stays_within_its_gap_rhs_budget(monkeypatch):
    # Picard and Newton steps evaluate the right-hand sides through
    # _AmplitudeProblem.image, emitted solutions through gap_rhs: count both
    import gapforge.kernel_solver as ks

    grid, kernels, params = _acceptance_scan_setup()
    calls = []

    def counting(real):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ks, "gap_rhs", counting(ks.gap_rhs))
    monkeypatch.setattr(ks._AmplitudeProblem, "image", counting(ks._AmplitudeProblem.image))
    branches = branch_scan(grid, kernels, PARABOLIC, params, [0.3, 2.0])
    assert len(branches) == 3
    assert len(calls) <= 300


def test_a_picard_solve_builds_its_problem_once(monkeypatch):
    # the dispersion and each kernel's factor are evaluated a fixed number of
    # times per solve, not once per step
    eps = 0.05
    grid = shell_aligned_grid(1.0, eps, n_shell=60, p_max=3.0, n_outer=120)
    counts = {"dispersion": 0, "factor": 0}

    def dispersion(p):
        counts["dispersion"] += 1
        return PARABOLIC(p)

    real_factor = SeparableKernel.factor

    def factor(self, grid):
        counts["factor"] += 1
        return real_factor(self, grid)

    monkeypatch.setattr(SeparableKernel, "factor", factor)
    sol = self_consistent_solve(grid, shell_kernels(PARAMS, eps), dispersion, PARAMS,
                                IterationControls(init=SeededPairing(1.0)))
    assert sol.iterations >= 40
    assert counts["dispersion"] <= 2
    assert counts["factor"] <= 4


def test_branch_scan_runs_no_search_within_one_basin(monkeypatch):
    import gapforge.kernel_solver as ks

    def forbidden(*args, **kwargs):
        raise AssertionError("repelling-branch search ran")

    monkeypatch.setattr(ks, "_repelling_branch", forbidden)
    grid = shell_aligned_grid(1.0, 0.05, n_shell=60, p_max=3.0, n_outer=120)
    branches = branch_scan(grid, shell_kernels(PARAMS, 0.05), PARABOLIC, PARAMS,
                           [1.5, 3.0])
    assert len(branches) == 1


@pytest.mark.parametrize("patch", [("_SEGMENT_STEPS", 0), ("_NEWTON_STEPS", 1)])
def test_branch_scan_adds_nothing_when_the_newton_solve_fails(monkeypatch, patch):
    # no bisection step sees a sign change, or Newton stops before converging
    import gapforge.kernel_solver as ks

    monkeypatch.setattr(ks, *patch)
    grid = shell_aligned_grid(1.0, 0.05, n_shell=80, p_max=3.0, n_outer=160)
    branches = branch_scan(grid, shell_kernels(PARAMS, 0.05), PARABOLIC, PARAMS,
                           [0.3, 2.0])
    assert len(branches) == 2
    assert all(b.iterations > 0 for b in branches)


def _tabulated_shell(params, eps, grid):
    shape = shell_kernel(eps, params.mu)(grid.points)
    outer = 2.0 * eps * np.outer(shape, shape)
    return CoupledKernels(pairing=TabulatedKernel(params.lambda_b * outer),
                          mean_field=TabulatedKernel(params.lambda_m * outer))


def test_branch_scan_serves_tabulated_kernels():
    params = ModelParams(4.0, 0.2, 1.0, temperature=0.5)
    eps = 0.05
    grid = shell_aligned_grid(params.mu, eps, n_shell=40, p_max=3.0, n_outer=80)
    kernels = _tabulated_shell(params, eps, grid)
    branches = branch_scan(grid, kernels, PARABOLIC, params, [0.3, 2.0],
                           IterationControls(tol=1e-12))
    assert len(branches) == 3
    assert [b.iterations == 0 for b in branches] == [False, True, False]
    h = grid.weights
    for b in branches:
        # the tabulated gap equations, evaluated independently of gap_rhs; a
        # mode with w_bar = 0 (p = 0 on the unpaired branch) is unrotated
        omega = grid.points ** 2 + b.delta_m
        w = np.hypot(omega, b.delta_b)
        t = np.tanh(0.5 * params.beta * (w - params.mu))
        safe = np.where(w > 0.0, w, 1.0)
        ratio = np.where(w > 0.0, b.delta_b / safe * t, 0.0)
        brace = 0.5 * (1.0 - np.where(w > 0.0, omega / safe, 1.0) * t)
        want_db = kernels.pairing.matrix @ (h * ratio)
        want_dm = 2.0 * kernels.mean_field.matrix @ (h * brace)
        assert np.max(np.abs(want_db - b.delta_b)) <= 1e-10
        assert np.max(np.abs(want_dm - b.delta_m)) <= 1e-10


@pytest.mark.parametrize("tabulated", [False, True])
@pytest.mark.parametrize("temperature", [0.5, 0.0])
def test_amplitude_jacobian_matches_finite_differences(tabulated, temperature):
    from gapforge.kernel_solver import _AmplitudeProblem

    params = ModelParams(4.0, 1.0, 1.0, temperature=temperature)
    eps = 0.05
    grid = shell_aligned_grid(1.0, eps, n_shell=20, p_max=3.0, n_outer=40)
    kernels = (_tabulated_shell(params, eps, grid) if tabulated
               else shell_kernels(params, eps))
    problem = _AmplitudeProblem(grid, kernels, PARABOLIC, params)
    rng = np.random.default_rng(1)
    x = problem.image(rng.normal(0.0, 0.3, grid.points.size),
                      rng.normal(1.0, 0.3, grid.points.size))
    jac = problem.jacobian(x)
    h = 1e-6
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        column = (problem.defect(x + step) - problem.defect(x - step)) / (2.0 * h)
        np.testing.assert_allclose(jac[:, j], column, rtol=1e-6, atol=1e-7)


# ---------------------------------------------------------------------------
# thermal table from a converged solution


def test_mode_table_from_solution():
    eps = 0.05
    grid = shell_aligned_grid(1.0, eps, n_shell=60, p_max=3.0, n_outer=120)
    sol = self_consistent_solve(
        grid,
        shell_kernels(PARAMS, eps),
        PARABOLIC,
        PARAMS,
        IterationControls(init=SeededPairing(1.0)),
    )
    table = mode_table(grid, sol, PARAMS)
    root = math.sqrt(PARAMS.mu)
    assert 0.0 <= table.occupation_at(root) <= 1.0
    assert table.pairing_at(root) > 0.0
    assert table.pairing_at(-root) == -table.pairing_at(root)


@pytest.mark.parametrize("mu", [-1.0, math.nan])
def test_shell_aligned_grid_refuses_bad_mu_with_a_typed_error(mu):
    with pytest.raises(InvalidParameter):
        shell_aligned_grid(mu, 0.1)


@pytest.mark.parametrize("mu", [math.nan, math.inf])
def test_shell_kernel_refuses_non_finite_mu(mu):
    with pytest.raises(InvalidParameter):
        shell_kernel(0.1, mu)
