"""End-to-end checks across the whole package.

Every test here crosses module boundaries and pins a headline behaviour:
limiting cases, closed-form agreement, kernel-to-scalar collapse, scan
topology.  Each one prints a single ``check N: PASS/FAIL`` line (collected
in RESULTS and reprinted by conftest at the end of the run) so the output
doubles as a scoreboard.
"""

import math
import time
import timeit
from contextlib import contextmanager

import numpy as np

import oracles
from gapforge import asymptotics
from gapforge.core_types import ModelParams
from gapforge.kernel_solver import (
    PARABOLIC,
    IterationControls,
    SeededPairing,
    branch_scan,
    mode_table,
    self_consistent_solve,
    shell_aligned_grid,
    shell_kernels,
)
from gapforge.phase_diagram import scan
from gapforge.scalar_gap import equilibrium_mu, pairing_energy_roots, solve_all
from gapforge.thermal import (
    occupation_profile,
    pairing_diagonal_term,
    smearing_scaling_check,
)

RESULTS: list[str] = []


def _emit(number: int, label: str, ok: bool) -> None:
    line = f"check {number:>2}: {'PASS' if ok else 'FAIL'} - {label}"
    print(line)
    RESULTS.append(line)


@contextmanager
def check(number: int, label: str):
    """Print exactly one scoreboard line for the enclosed assertions."""
    try:
        yield
    except BaseException:
        _emit(number, label, False)
        raise
    _emit(number, label, True)


def _closest_mixed_deviation(params: ModelParams, closed) -> float:
    """Worst relative deviation of the numeric mixed solution nearest a closed form."""
    report = solve_all(params)
    assert report.mixed, params
    near = min(report.mixed, key=lambda s: abs(s.w_bar - closed.w_bar))
    rel = 0.0
    for want, got in ((closed.w_bar, near.w_bar),
                      (closed.delta_m, near.delta_m),
                      (closed.delta_b, near.delta_b)):
        rel = max(rel, abs(got - want) / max(abs(want), 1e-9))
    return rel


def test_infinite_temperature_admits_only_the_pure_phase():
    with check(1, "infinite temperature leaves only the pure mean-field solution"):
        for lm in (1.5, -0.7):
            report = solve_all(ModelParams(4.0, lm, 1.0, temperature=math.inf))
            assert len(report.solutions) == 1
            sol = report.pure
            assert sol.delta_b == 0.0
            assert abs(sol.delta_m - lm) <= 1e-10
            assert abs(sol.w_bar - (1.0 + lm)) <= 1e-10
        hot = ModelParams(4.0, 1.5, 1.0, temperature=math.inf)
        solve_all(hot)  # warm caches before timing
        best = min(timeit.repeat(lambda: solve_all(hot), number=1, repeat=5))
        assert best < 1e-3


def test_pairing_dies_at_half_the_pairing_coupling():
    with check(2, "mixed solutions exist below lambda_b / 2 and never above"):
        t0 = time.perf_counter()
        for lb in (2.0, 5.0, 10.0):
            mu = lb / 5.0
            critical = lb / 2.0
            temps = np.linspace(lb / 200.0, lb, 200)
            counts = [
                solve_all(ModelParams(lb, 0.0, mu, temperature=float(T))).multiplicity
                for T in temps
            ]
            assert all(m == 0 for T, m in zip(temps, counts) if T >= critical)
            assert any(m >= 1 for T, m in zip(temps, counts) if T < critical)
        assert time.perf_counter() - t0 < 1.0


def test_two_root_band_closes_along_the_tangency_curve():
    with check(3, "tangency curve splits two-root from rootless chemical potentials"):
        t0 = time.perf_counter()
        for lb in np.linspace(1.2, 10.0, 50):
            lb = float(lb)
            mu_e, x_e = equilibrium_mu(lb)
            # at temperature 1/2 the reduced couplings coincide with the raw
            # ones and roots w equal the reduced roots x
            T = 0.5
            two = pairing_energy_roots(ModelParams(lb, 0.0, mu_e - 1e-3, temperature=T))
            tangent = pairing_energy_roots(ModelParams(lb, 0.0, mu_e, temperature=T))
            none = pairing_energy_roots(ModelParams(lb, 0.0, mu_e + 1e-3, temperature=T))
            assert len(two) == 2
            assert len(none) == 0
            assert len(tangent) == 1
            assert abs(tangent[0] - x_e) <= 1e-6
            # independent locator: tangency sits where the defect
            # x - lb*tanh(x - mu) is stationary
            x_num = oracles.bisect(
                lambda x: 1.0 - lb / math.cosh(x - mu_e) ** 2,
                mu_e + 1e-12, mu_e + 20.0)
            assert abs(x_num - x_e) <= 1e-8
        assert time.perf_counter() - t0 < 2.0


def test_cold_regime_closed_forms_match_the_solver():
    with check(4, "deep-cold closed forms reproduce numeric solutions to 1e-3"):
        rng = np.random.default_rng(415)
        worst = 0.0
        for _ in range(20):
            lb = rng.uniform(2.0, 8.0)
            mu = rng.uniform(0.2, 0.8) * lb
            while True:  # keep the pairing amplitude well clear of zero
                lm = rng.uniform(-2.0, 3.0)
                if lb + mu + 2.0 * lm <= 0.0:
                    continue
                dm = lm * (lb - mu) / (lb + lm)
                rad = lb * lb - (mu + dm) ** 2
                if rad > 0.0 and math.sqrt(rad) >= 0.3 * lb:
                    break
            T = (lb - mu) / 25.0  # puts (lb - mu)/(2 T) at 12.5
            params = ModelParams(lb, lm, mu, temperature=T)
            closed = asymptotics.regime_IA(params)
            assert closed.valid
            worst = max(worst, _closest_mixed_deviation(params, closed))
        for _ in range(20):
            lb = rng.uniform(-2.5, -1.0)
            mu = abs(lb) + rng.uniform(0.5, 2.0)
            lm = -(mu + lb) / 2.0 - rng.uniform(0.3, 1.0)
            T = (mu - abs(lb)) / 25.0
            params = ModelParams(lb, lm, mu, temperature=T)
            closed = asymptotics.regime_IIA(params)
            assert closed.valid
            worst = max(worst, _closest_mixed_deviation(params, closed))
        assert worst <= 1e-3


def test_near_critical_closed_forms_match_the_solver():
    with check(5, "near-critical closed forms reproduce numeric solutions to 5e-2"):
        rng = np.random.default_rng(777)
        worst = 0.0
        for _ in range(10):
            lb = rng.uniform(15.0, 25.0)
            mu = rng.uniform(0.3, 0.6)
            lm = rng.uniform(0.0, 0.02 * mu)
            T = rng.uniform(0.6, 0.9) * (lb - mu) / 20.0
            params = ModelParams(lb, lm, mu, temperature=T)
            closed = asymptotics.regime_IB(params)
            assert closed.valid
            worst = max(worst, _closest_mixed_deviation(params, closed))
        for _ in range(10):
            params = ModelParams(rng.uniform(-5.5, -4.5), rng.uniform(-0.95, -0.8),
                                 1.0, temperature=rng.uniform(1.5, 2.5))
            closed = asymptotics.regime_IIB(params)
            assert closed.valid
            worst = max(worst, _closest_mixed_deviation(params, closed))
        assert worst <= 5e-2


def test_structural_bounds_hold_over_a_random_sweep():
    with check(6, "structural bounds hold at 1300 random parameter points"):
        rng = np.random.default_rng(20260815)
        mixed_seen = 0
        for _ in range(1300):
            lb = rng.uniform(-6.0, 8.0)
            if lb == 0.0:
                continue
            lm = rng.uniform(-3.0, 3.0)
            params = ModelParams(lb, lm, rng.uniform(0.0, 4.0),
                                 temperature=rng.uniform(0.05, 5.0))
            report = solve_all(params)
            for sol in report.solutions:
                assert sol.delta_m * lm > 0.0 or (sol.delta_m == 0.0 and lm == 0.0)
                assert abs(sol.delta_m) <= 2.0 * abs(lm) + 1e-12
            for sol in report.mixed:
                assert sol.w_bar <= abs(lb) * (1.0 + 1e-12)
                assert (sol.w_bar > params.mu) == (lb > 0.0)
                assert abs(sol.coeffs.c) <= 1.0 + 1e-12
                if params.mu + sol.delta_m >= 0.0:  # the restricted mixing angle
                    mixed_seen += 1
                    assert abs(sol.coeffs.c) >= math.sqrt(0.5) - 1e-12
        assert mixed_seen >= 50


def test_shell_kernels_collapse_onto_the_scalar_solution():
    with check(7, "narrowing the shell drives the kernel gap onto the scalar gap"):
        t0 = time.perf_counter()
        params = ModelParams(4.0, 0.0, 1.0, temperature=0.5)
        target = max(s.delta_b for s in solve_all(params).mixed)
        errors = []
        grid_points = 0
        for eps in (0.1, 0.03, 0.01):
            grid = shell_aligned_grid(params.mu, eps, n_shell=400, p_max=3.0,
                                      n_outer=1600)
            grid_points = len(grid.points)
            gaps = self_consistent_solve(
                grid, shell_kernels(params, eps), PARABOLIC, params,
                IterationControls(init=SeededPairing(1.0)))
            at_fermi = float(gaps.delta_b[grid.index_nearest(math.sqrt(params.mu))])
            errors.append(abs(at_fermi - target) / target)
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-2
        assert grid_points >= 2000
        assert time.perf_counter() - t0 < 10.0


def test_branch_scan_recovers_both_scalar_roots():
    with check(8, "seeded branch scan recovers both pairing branches to 1e-2"):
        params = ModelParams(4.0, 0.0, 1.0, temperature=0.5)
        lo, hi = sorted(s.delta_b for s in solve_all(params).mixed)
        eps = 0.01
        grid = shell_aligned_grid(params.mu, eps, n_shell=200, p_max=3.0, n_outer=400)
        branches = branch_scan(grid, shell_kernels(params, eps), PARABOLIC, params,
                               seeds=[0.3, 2.0])
        amplitudes = sorted(float(np.max(np.abs(b.delta_b))) for b in branches)
        nonzero = [a for a in amplitudes if a > 1e-6]
        assert len(nonzero) >= 2
        assert abs(nonzero[0] - lo) / lo < 1e-2
        assert abs(nonzero[-1] - hi) / hi < 1e-2


def test_cross_term_fades_under_smearing_while_the_diagonal_term_holds():
    with check(9, "cross term decays with exponent -1/2; diagonal term is flat"):
        t0 = time.perf_counter()
        params = ModelParams(4.0, 1.0, 1.0, temperature=0.5)
        eps = 0.1
        grid = shell_aligned_grid(params.mu, eps, n_shell=200, p_max=3.0, n_outer=600)
        gaps = self_consistent_solve(
            grid, shell_kernels(params, eps), PARABOLIC, params,
            IterationControls(init=SeededPairing(1.0)))
        table = mode_table(grid, gaps, params)

        def v(p):
            return np.exp(-np.asarray(p, dtype=float) ** 2)

        kappas = np.logspace(0.0, 4.0, 9)
        fitted = smearing_scaling_check(occupation_profile(table), v, kappas)
        assert abs(fitted.slope + 0.5) <= 0.05
        diagonal = pairing_diagonal_term(table, v, kappas)
        assert np.ptp(diagonal) <= 1e-3 * abs(diagonal[0])
        assert time.perf_counter() - t0 < 5.0


def test_coupling_plane_scan_shows_pairing_only_where_expected():
    with check(10, "pairing appears only for strong lambda_b or attractive lambda_m"):
        rows = scan({"lambda_b": (-2.5, 2.5, 100), "lambda_m": (-2.5, 2.5, 100)},
                    {"mu": 1.0, "temperature": 0.3})
        assert len(rows) == 10000
        assert all(r.error is None for r in rows)
        weak = [r for r in rows if 0.0 < r.lambda_b <= 1.0]
        assert weak
        assert all(r.multiplicity == 0 for r in weak)
        attractive_mixed = [r for r in rows
                            if r.lambda_b < 0.0 and r.multiplicity > 0]
        assert attractive_mixed
        assert all(r.lambda_m < 0.0 for r in attractive_mixed)
        # along the zero mean-field line pairing needs lambda_b beyond mu
        line = scan({"lambda_b": (-2.5, 2.5, 101)},
                    {"lambda_m": 0.0, "mu": 1.0, "temperature": 0.3})
        paired = [r.lambda_b for r in line if r.multiplicity > 0]
        assert paired
        assert min(paired) > 1.0
