"""Root finding and branch assembly for the Fermi-surface scalar system."""

import builtins
import math
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import gapforge
from gapforge import scalar_gap
from gapforge.core_types import ModelParams, PhaseLabel
from gapforge.errors import (
    ConstraintViolation,
    DomainError,
    InvalidParameter,
    NotApplicable,
    NotAdmissible,
    SingularDenominator,
    ZeroCoupling,
)
from gapforge.phase_diagram import MultiplicityClass, multiplicity_class
from gapforge.scalar_gap import (
    critical_temperature,
    equilibrium_mu,
    mean_field_gap_given_w,
    pairing_energy_roots,
    pure_mean_field,
    recover_delta_b,
    solve_all,
)

from oracles import (
    mixed_delta_m,
    pairing_defect,
    pure_gap,
    scan_pairing_roots,
    tangency_point,
)


# ---------------------------------------------------------------------------
# pairing_energy_roots


def test_two_roots_match_brute_force_scan():
    # frozen from oracles.scan_pairing_roots(4, 1, 0.5, 1, 4)
    roots = pairing_energy_roots(ModelParams(4.0, 0.0, 1.0, 0.5))
    assert roots == pytest.approx(
        [1.351767112578786, 3.9793886954031126], abs=1e-9)


def test_attractive_coupling_single_root():
    # frozen from oracles.bisect on (0, 1)
    roots = pairing_energy_roots(ModelParams(-2.0, 0.0, 1.0, 0.5))
    assert roots == pytest.approx([0.6581880806211244], abs=1e-9)


def test_zero_mu_skips_the_trivial_node():
    # w = 0 always solves the equation at mu = 0 but carries no pairing;
    # only the strictly positive root should be reported.
    roots = pairing_energy_roots(ModelParams(4.0, 0.0, 0.0, 0.5))
    assert len(roots) == 1
    assert roots[0] > 0.1
    assert abs(pairing_defect(roots[0], 4.0, 0.0, 0.5)) < 1e-9


def test_zero_coupling_raises():
    with pytest.raises(ZeroCoupling):
        pairing_energy_roots(ModelParams(0.0, 1.0, 1.0, 0.5))


def test_exact_tangency_reports_single_degenerate_root():
    mu_e_bar, x_e = tangency_point(4.0)
    T = 0.5  # lambda_b_bar = lambda_b/(2T) = 4; mu = 2*T*mu_e_bar
    roots = pairing_energy_roots(ModelParams(4.0, 0.0, 2 * T * mu_e_bar, T))
    assert len(roots) == 1
    assert roots[0] == pytest.approx(2 * T * x_e, rel=1e-6)


def test_no_roots_above_critical_temperature():
    assert pairing_energy_roots(ModelParams(4.0, 0.0, 1.0, 2.0)) == []
    assert pairing_energy_roots(ModelParams(4.0, 0.0, 1.0, 2.5)) == []


def test_infinite_temperature_no_roots():
    assert pairing_energy_roots(ModelParams(4.0, 0.0, 1.0, math.inf)) == []


def test_zero_temperature_exact_root():
    # at T = 0 the equation is w = lambda_b * sign(w - mu)
    roots = pairing_energy_roots(ModelParams(4.0, 0.0, 1.0, 0.0))
    assert roots == [4.0]
    assert pairing_energy_roots(ModelParams(0.5, 0.0, 1.0, 0.0)) == []


@settings(max_examples=150, deadline=None)
@given(
    lb=st.floats(-8, 8), mu=st.floats(0, 5),
    T=st.floats(0.01, 5),
)
def test_every_root_satisfies_the_equation(lb, mu, T):
    assume(abs(lb) > 1e-6)
    roots = pairing_energy_roots(ModelParams(lb, 0.0, mu, T))
    assert len(roots) <= 2
    if lb < 0:
        assert len(roots) <= 1
    # a lone root of a repulsive coupling may be a degenerate tangency, where
    # the defect is only bounded by sqrt(tol) in reduced units
    loose = len(roots) == 1 and lb > 0
    for w in sorted(roots):
        bound = (2 * T * 2e-5 + 1e-7) if loose else 1e-7 * max(1.0, abs(lb))
        assert abs(pairing_defect(w, lb, mu, T)) < bound
        assert 0.0 < w <= abs(lb) + 1e-9


@settings(max_examples=60, deadline=None)
@given(lb=st.floats(1.05, 12), T=st.floats(0.05, 2))
def test_two_sided_multiplicity_structure(lb, T):
    """Below the tangency curve two roots bracket the minimum; above, none."""
    lb_bar = lb / (2 * T)
    assume(lb_bar > 1.02)
    mu_e_bar, _ = tangency_point(lb_bar)
    assume(mu_e_bar > 1e-3)
    below = pairing_energy_roots(ModelParams(lb, 0.0, 2 * T * mu_e_bar * 0.8, T))
    above = pairing_energy_roots(ModelParams(lb, 0.0, 2 * T * mu_e_bar * 1.2, T))
    assert len(below) == 2
    assert above == []


# ---------------------------------------------------------------------------
# mean-field recovery on a root


def test_mean_field_gap_closed_form():
    params = ModelParams(4.0, 1.0, 1.0, 0.5)
    dm = mean_field_gap_given_w(3.0, params)
    assert dm == pytest.approx(mixed_delta_m(3.0, 4.0, 1.0, 1.0))
    assert dm == pytest.approx(0.6)


def test_mean_field_gap_is_temperature_independent():
    a = mean_field_gap_given_w(2.0, ModelParams(4.0, -1.0, 1.0, 0.1))
    b = mean_field_gap_given_w(2.0, ModelParams(4.0, -1.0, 1.0, 7.0))
    assert a == b


def test_mean_field_gap_singular_denominator():
    with pytest.raises(SingularDenominator):
        mean_field_gap_given_w(2.0, ModelParams(4.0, -4.0, 1.0, 0.5))


def test_recover_delta_b_and_rejection():
    params = ModelParams(4.0, 0.0, 1.0, 0.5)
    w = 3.9793886954031126
    db = recover_delta_b(w, 0.0, params)
    assert db == pytest.approx(math.sqrt(w * w - 1.0))
    assert db >= 0.0
    with pytest.raises(NotAdmissible):
        recover_delta_b(0.9, 0.0, params)  # w_bar below the effective energy


# ---------------------------------------------------------------------------
# pure mean-field branch


def test_pure_gap_against_bisection_oracle():
    # frozen from oracles.pure_gap(1.0, 1.0)
    params = ModelParams(4.0, 1.0, 1.0, 1.0)
    assert pure_mean_field(params) == pytest.approx(0.6748316143423985, abs=1e-11)


def test_pure_gap_limits():
    assert pure_mean_field(ModelParams(1.0, 0.7, 1.0, math.inf)) == 0.7
    assert pure_mean_field(ModelParams(1.0, 0.7, 1.0, 0.0)) == 0.0
    assert pure_mean_field(ModelParams(1.0, -0.7, 1.0, 0.0)) == -1.4
    assert pure_mean_field(ModelParams(1.0, 0.0, 1.0, 0.3)) == 0.0


@settings(max_examples=100, deadline=None)
@given(lm=st.floats(-4, 4), T=st.floats(0.01, 20))
def test_pure_gap_solves_its_equation(lm, T):
    d = pure_mean_field(ModelParams(1.0, lm, 1.0, T))
    lhs = d * (1.0 + math.exp(min(d / T, 700.0)))
    # the defect slope grows like exp(d/T), so the bound scales accordingly
    assert lhs == pytest.approx(2.0 * lm, abs=1e-6 * max(1.0, abs(lm)))
    assert d * lm >= 0.0
    assert abs(d) <= 2.0 * abs(lm) + 1e-12


@settings(max_examples=100, deadline=None)
@given(lm=st.floats(-4, 4), mu=st.floats(0, 3), T=st.floats(0.01, 20))
def test_pure_gap_ignores_mu(lm, mu, T):
    a = pure_mean_field(ModelParams(2.0, lm, mu, T))
    b = pure_mean_field(ModelParams(-5.0, lm, 1.0, T))
    assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------------------------
# solve_all


def test_solve_all_report_structure():
    # lambda_m = -1 makes mu + delta_m = 0, so both pairing roots survive
    report = solve_all(ModelParams(4.0, -1.0, 1.0, 0.5))
    phases = [s.phase for s in report.solutions]
    assert phases == [PhaseLabel.PURE_MEAN_FIELD, PhaseLabel.MIXED_LOWER,
                      PhaseLabel.MIXED_UPPER]
    assert report.multiplicity == 2
    lower, upper = report.mixed
    assert lower.w_bar < upper.w_bar
    assert lower.delta_m == pytest.approx(-1.0)
    assert upper.delta_m == pytest.approx(-1.0)
    # with vanishing effective energy the gap carries the whole energy
    assert upper.delta_b == pytest.approx(upper.w_bar, rel=1e-12)
    assert lower.delta_b == pytest.approx(lower.w_bar, rel=1e-12)


def test_solve_all_positive_shift_kills_lower_branch():
    # the closed-form shift 0.6 raises the effective energy above the lower
    # pairing root, which is then dropped with a note
    report = solve_all(ModelParams(4.0, 1.0, 1.0, 0.5))
    assert report.multiplicity == 1
    (upper,) = report.mixed
    assert upper.phase is PhaseLabel.MIXED_UPPER
    assert upper.delta_m == pytest.approx(0.6)
    eff = 1.0 + 0.6
    assert upper.delta_b == pytest.approx(
        math.sqrt(upper.w_bar ** 2 - eff ** 2), rel=1e-9)
    assert any("dropped" in n for n in report.notes)


def test_solve_all_drops_inadmissible_root_with_note():
    # at lambda_m = 1 the lower root sits below mu + delta_m and is dropped
    report = solve_all(ModelParams(3.0, 1.0, 1.0, 0.3))
    assert report.multiplicity == 1
    assert report.mixed[0].phase is PhaseLabel.MIXED_UPPER
    assert any("dropped" in note for note in report.notes)
    # a tolerance outside [0, inf) would admit that root, or drop the valid one
    for tol in (math.nan, math.inf, -1.0):
        with pytest.raises(InvalidParameter, match="tol"):
            solve_all(ModelParams(3.0, 1.0, 1.0, 0.3), tol=tol)


def test_solve_all_zero_coupling_note_not_error():
    report = solve_all(ModelParams(0.0, 1.0, 1.0, 0.5))
    assert report.multiplicity == 0
    assert any("pairing channel inactive" in n for n in report.notes)


def test_solve_all_restricted_mixing_angle_filter():
    # lambda_m = -1.5 puts mu + delta_m below zero on the mixed branch
    free = solve_all(ModelParams(4.0, -1.5, 1.0, 0.5))
    assert free.multiplicity == 2
    restricted = solve_all(ModelParams(4.0, -1.5, 1.0, 0.5),
                           require_nonneg_effective_energy=True)
    assert restricted.multiplicity == 0
    assert sum("restricted mixing angle" in n for n in restricted.notes) == 2


@pytest.mark.parametrize("params, nonneg, notes", [
    ((4.0, -4.0, 1.0, 0.5), False, [  # singular denominator
        "root w_bar = 1.35176711 dropped: lambda_b + lambda_m = 0: "
        "the mean-field condition degenerates",
        "root w_bar = 3.9793887 dropped: lambda_b + lambda_m = 0: "
        "the mean-field condition degenerates"]),
    ((-2.0, 3.0, 1.0, 0.5), False, [  # sign constraint
        "root w_bar = 0.658188081 dropped: delta_m = -9 has the opposite sign "
        "of lambda_m = 3; no consistent mixed branch here"]),
    ((-2.0, 1.5, 1.0, 0.5), False, [  # sign constraint: the bound
        "root w_bar = 0.658188081 dropped: |delta_m| = 9 exceeds 2*|lambda_m| = 3"]),
    ((3.0, 1.0, 1.0, 0.3), False, [  # imaginary amplitude
        "root w_bar = 1.27138538 dropped: w_bar = 1.27139 lies below the "
        "effective energy |mu + delta_m| = 1.5: no mixed phase"]),
    ((4.0, -1.5, 1.0, 0.5), True, [  # restricted mixing angle
        f"root w_bar = {w} dropped: effective energy mu + delta_m = -0.8 < 0 "
        "(restricted mixing angle)" for w in ("1.35176711", "3.9793887")]),
])
def test_drop_notes_keep_their_text(params, nonneg, notes):
    report = solve_all(ModelParams(*params), require_nonneg_effective_energy=nonneg)
    assert list(report.notes) == notes


@pytest.mark.parametrize("params", [(3.0, 1.0, 1.0, 0.3), (0.0, 1.0, 1.0, 0.5),
                                    (4.0, -4.0, 1.0, 0.5), (5.0, 0.3, 1.0, 0.0)])
def test_solve_all_runs_no_import(params):
    built = ModelParams(*params)
    solve_all(built)
    real, names = builtins.__import__, []

    def counting(name, *args, **kwargs):
        names.append(name)
        return real(name, *args, **kwargs)

    with mock.patch.object(builtins, "__import__", counting):
        solve_all(built)
    assert names == []


def test_the_scalar_core_imports_without_numpy():
    src = os.path.dirname(os.path.dirname(gapforge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, {}; print('numpy' in sys.modules)"
    scalar = "gapforge, gapforge.scalar_gap, gapforge.phase_diagram, gapforge.asymptotics"
    for modules, loads_numpy in ((scalar, "False"), ("gapforge.cli", "True")):
        proc = subprocess.run([sys.executable, "-c", probe.format(modules)],
                              capture_output=True, text=True, env=env, check=True)
        assert proc.stdout.strip() == loads_numpy, modules


def test_moved_names_keep_their_old_import_paths():
    from gapforge import core_types, phase_diagram, thermal

    assert phase_diagram.classify_region is scalar_gap.classify_region
    assert phase_diagram.RegionLabel is core_types.RegionLabel
    assert thermal.bogoliubov_from_gaps is core_types.bogoliubov_from_gaps


def test_scalar_gap_imports_neither_thermal_nor_phase_diagram():
    import ast
    import pathlib

    tree = ast.parse(pathlib.Path(scalar_gap.__file__).read_text(encoding="utf-8"))
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not modules & {"thermal", "phase_diagram"}


def test_solve_all_tangent_label():
    mu_e_bar, x_e = tangency_point(4.0)
    report = solve_all(ModelParams(4.0, 0.0, mu_e_bar, 0.5))
    assert report.multiplicity == 1
    assert report.mixed[0].phase is PhaseLabel.TANGENT
    assert report.mixed[0].w_bar == pytest.approx(x_e, rel=1e-6)


def test_solve_all_above_tc_only_pure():
    report = solve_all(ModelParams(5.0, 0.0, 1.0, 2.6))
    assert report.multiplicity == 0
    assert [s.phase for s in report.solutions] == [PhaseLabel.PURE_MEAN_FIELD]


@pytest.mark.parametrize("lm", [0.7, 3.0])
@pytest.mark.parametrize("T", [0.0, 1e-300])
def test_pure_residual_at_zero_temperature_is_the_one_sided_limit(lm, T):
    # delta_m = 0+ at T = 0, where the occupation is 0, not the step's 1/2
    assert solve_all(ModelParams(2.0, lm, 1.0, T)).pure.residual <= 1e-12


def test_pure_branch_signed_energy():
    report = solve_all(ModelParams(4.0, -1.5, 1.0, 0.5))
    pure = report.pure
    assert pure.w_bar == pytest.approx(1.0 + pure.delta_m)
    assert pure.w_bar < 0.0  # strongly repulsive shift drives it negative
    assert pure.delta_b == 0.0


@settings(max_examples=120, deadline=None)
@given(
    lb=st.floats(-6, 6), lm=st.floats(-3, 3),
    mu=st.floats(0, 4), T=st.floats(0.02, 4),
)
def test_solve_all_solutions_pass_structural_checks(lb, lm, mu, T):
    from gapforge.core_types import solution_checks

    report = solve_all(ModelParams(lb, lm, mu, T))
    assert report.multiplicity == len(report.mixed) <= 2
    for sol in report.solutions:
        checks = solution_checks(sol, report.params)
        bad = {k: v for k, v in checks.items() if not v}
        assert not bad, (sol, bad)


@settings(max_examples=80, deadline=None)
@given(
    lb=st.floats(0.2, 6), lm=st.floats(-3, 3),
    mu=st.floats(0, 4), T=st.floats(0.02, 4),
)
def test_mixed_residuals_are_tiny(lb, lm, mu, T):
    report = solve_all(ModelParams(lb, lm, mu, T))
    for sol in report.mixed:
        if sol.phase is PhaseLabel.TANGENT:
            continue  # degenerate double root: defect only O(sqrt(tol))
        assert sol.residual < 1e-7


@pytest.mark.parametrize("c", [1.0, 1e150, 1e200, 1e300])
def test_stored_residual_keeps_the_energy_identity_where_the_squares_overflow(c):
    # w_bar = 4, mu + delta_m = 1, delta_b = 2 breaks w**2 = eff**2 + delta_b**2
    # by 11/16 of w**2; scaled by c, w**2 overflows from c ~ 1e154 on
    params = ModelParams(4.0 * c, 0.0, c, 0.5 * c)
    residual = scalar_gap._mixed_residual(4.0 * c, 0.0, 2.0 * c, params)
    assert residual == pytest.approx(0.6875, abs=1e-12)


def test_huge_coupling_lower_branch_is_the_true_root():
    # reduced coupling 5e149: the lower root sits at w = mu*(1 + 2T/lambda_b)
    report = solve_all(ModelParams(1e150, 0.0, 1.0, 1.0))
    lower = [s for s in report.mixed if s.phase is PhaseLabel.MIXED_LOWER]
    assert len(lower) == 1
    assert lower[0].w_bar == pytest.approx(1.0, rel=1e-12)
    assert lower[0].residual < 1e-12


@pytest.mark.parametrize("lb, lm, mu, T", [
    (1e300, 0.0, 1.0, 1e-10),
    (1e300, 0.5, 1.0, 1e-10),
    (1e308, 0.0, 1.0, 1e-300),
    (-1e300, 0.0, 1e301, 1e-10),
    (-1e300, 0.0, 1.0, 1e-10),
])
def test_overflowing_reduced_coupling_gives_the_zero_temperature_roots(lb, lm, mu, T):
    # lambda_b / T overflows the reduced coupling; tanh is saturated to
    # rounding, so the T = 0 branches are the answer, not an empty list
    params = ModelParams(lb, lm, mu, T)
    assert math.isinf(0.5 * lb / T)
    cold = solve_all(ModelParams(lb, lm, mu, 0.0))
    assert pairing_energy_roots(params) == pairing_energy_roots(
        ModelParams(lb, lm, mu, 0.0))
    report = solve_all(params)
    assert [(s.phase, s.w_bar, s.delta_b) for s in report.mixed] == [
        (s.phase, s.w_bar, s.delta_b) for s in cold.mixed]
    assert all(s.residual == 0.0 for s in report.mixed)
    expected = MultiplicityClass.UNIQUE if pairing_energy_roots(params) else (
        MultiplicityClass.NO_SOLUTION)
    assert multiplicity_class(params) is expected


def test_overflowing_reduced_coupling_keeps_the_upper_branch():
    report = solve_all(ModelParams(1e300, 0.0, 1.0, 1e-10))
    assert [(s.phase, s.w_bar) for s in report.mixed] == [
        (PhaseLabel.MIXED_UPPER, 1e300)]


@pytest.mark.parametrize("T", [0.0, 1e-300, 1e-12, 1e-3])
def test_label_is_continuous_as_temperature_goes_to_zero(T):
    # only the upper root survives the shift delta_m = 0.3*4/5.3
    report = solve_all(ModelParams(5.0, 0.3, 1.0, T))
    assert [s.phase for s in report.mixed] == [PhaseLabel.MIXED_UPPER]
    assert report.mixed[0].w_bar == pytest.approx(5.0, rel=1e-6)


@pytest.mark.parametrize("mu", [0.0, 1e-300, 1e-12, 1e-3])
def test_label_is_continuous_as_mu_goes_to_zero(mu):
    report = solve_all(ModelParams(5.0, 0.3, mu, 1.0))
    assert [s.phase for s in report.mixed] == [PhaseLabel.MIXED_UPPER]


def test_pure_gap_keeps_relative_accuracy_at_tiny_scale():
    c = 1e-20
    d = pure_mean_field(ModelParams(5.0 * c, 0.3 * c, c, 0.3 * c))
    assert d == pytest.approx(0.20245 * c, rel=1e-4, abs=0.0)
    assert d == pytest.approx(c * pure_mean_field(ModelParams(5.0, 0.3, 1.0, 0.3)),
                              rel=1e-12, abs=0.0)


@pytest.mark.parametrize("slope", [1.0, 0.0, -1.0, 1e-300, 1e300, math.inf, math.nan])
def test_newton_kernel_ends_on_the_root_whatever_slope_it_is_given(slope):
    from gapforge.scalar_gap import _bracketed_root

    calls = []

    def f(x):
        calls.append(x)
        return x - 1e-300, slope

    root = _bracketed_root(f, 0.0, 1.0)
    assert len(calls) <= 128
    assert 0.0 not in calls
    assert root == 1e-300


def test_newton_kernel_finds_a_sign_change_in_a_wide_rounding_zone():
    from gapforge.scalar_gap import _bracketed_root

    calls = []

    def f(x):
        # a root at 0.5 blurred by noise over about 1e-12 (~9000 ulps)
        calls.append(x)
        return (x - 0.5) + 1e-12 * math.sin(1e15 * x), 1.0

    root = _bracketed_root(f, 0.0, 1.0)
    assert len(calls) <= 128
    assert abs(root - 0.5) <= 2e-12
    assert f(root)[0] >= 0.0 > f(math.nextafter(root, 0.0))[0]


def _kernel_calls(params):
    """Solve ``params``; each root-kernel call as (f, lo, hi, root, xs).

    ``xs`` are the points where the kernel evaluated ``f``.
    """
    kernel = scalar_gap._bracketed_root
    calls = []

    def recording(f, lo, hi):
        seen = []

        def counted(x):
            seen.append(x)
            return f(x)

        root = kernel(counted, lo, hi)
        calls.append((f, lo, hi, root, seen))
        return root

    scalar_gap._pure_root.cache_clear()  # so that the pure root is polished here
    with mock.patch.object(scalar_gap, "_bracketed_root", recording):
        solve_all(params)
    return calls


@settings(max_examples=200, deadline=None)
@given(
    lb_bar=st.floats(1.0, 40.0), frac=st.floats(0.0, 1.0),
    attractive=st.booleans(), lm=st.floats(-3, 3), T=st.floats(0.01, 4),
    exponent=st.floats(-150, 150),
)
def test_every_root_is_a_sign_change_at_adjacent_doubles(
        lb_bar, frac, attractive, lm, T, exponent):
    # below the tangency curve the upper and lower brackets each hold a
    # root; on the attractive side the one bracket [0, min(mb, |lb|)] does
    if attractive:
        lb, mu = -2.0 * T * lb_bar, 4.0 * T * frac * lb_bar
    else:
        lb, mu = 2.0 * T * lb_bar, 2.0 * T * frac * equilibrium_mu(lb_bar)[0]
    c = 10.0 ** exponent
    calls = _kernel_calls(ModelParams(c * lb, c * lm, c * mu, c * T))
    assert len(calls) >= (c * lm != 0.0)  # the pure branch, unless lambda_m = 0
    for f, lo, hi, root, seen in calls:
        assert lo not in seen and len(seen) <= 128
        assert lo < root <= hi
        assert f(root)[0] >= 0.0
        below = math.nextafter(root, lo)
        assert below == lo or f(below)[0] < 0.0


@pytest.mark.parametrize("lm, root", [
    # roots of s*(1 + e^s) = 2*lambda_m from a 50-digit bisection; 2*lambda_m
    # overflows for the second, and e^s overflows near both
    (8e307, 703.110697926952),
    (1e308, 703.3335246129625),
])
def test_pure_root_at_huge_coupling(lm, root):
    params = ModelParams(1.0, lm, 1.0, 1.0)
    assert pure_mean_field(params) == pytest.approx(root, rel=1e-15)
    (f, lo, hi, found, seen), = _kernel_calls(params)
    assert f(found)[0] >= 0.0 > f(math.nextafter(found, lo))[0]


@pytest.mark.parametrize("lm", [5e-324, -5e-324, 1e-310, -1e-310])
def test_pure_root_at_subnormal_coupling(lm):
    # the halved defect must not round a subnormal root away
    (f, lo, hi, found, seen), = _kernel_calls(ModelParams(1.0, lm, 1.0, 1.0))
    below = math.nextafter(found, lo)
    assert lo < found <= hi and f(found)[0] >= 0.0
    assert below == lo or f(below)[0] < 0.0
    assert pure_mean_field(ModelParams(1.0, lm, 1.0, 1.0)) == math.copysign(found, lm)


def test_pure_root_beyond_the_largest_double_is_an_error():
    # s*(1 + e^-s) = 2e308 puts the root at about -2e308, past the largest double
    for T in (1.0, 0.0):
        with pytest.raises(DomainError):
            pure_mean_field(ModelParams(1.0, -1e308, 1.0, T))
    with pytest.raises(DomainError):
        solve_all(ModelParams(1.0, -1e308, 1.0, 1.0))
    # just inside the range the root is found; e^-s vanishes there
    assert pure_mean_field(ModelParams(1.0, -8e307, 1.0, 1.0)) == -1.6e308


def test_solve_all_needs_few_defect_evaluations():
    # the pure root and two mixed roots; bisection took about 165 evaluations
    calls = _kernel_calls(ModelParams(5.0, 0.3, 1.0, 0.3))
    assert len(calls) == 3
    assert sum(len(seen) for *_, seen in calls) <= 40


def _energies(report):
    return [(s.delta_m, s.delta_b, s.w_bar) for s in report.solutions]


@settings(max_examples=150, deadline=None)
@given(
    lb=st.floats(-8, 8), lm=st.floats(-3, 3), mu=st.floats(0, 4),
    T=st.one_of(st.just(0.0), st.floats(0.02, 4)),
    exponent=st.floats(-150, 150),
)
# a subnormal lambda_m scaled into the normal range: the mean-field shift once
# lost it in the units of the largest energy and dropped the upper root
@example(lb=1.0, lm=5e-324, mu=0.0, T=0.0, exponent=16.0)
def test_solutions_scale_with_the_energies(lb, lm, mu, T, exponent):
    """Scaling every input energy by c scales every output energy by c."""
    # mu + delta_m cancels down to rounding when |lambda_b| is far below the
    # other energies, so rounding decides whether so small a root is admitted
    assume(abs(lb) > 1e-6)
    c = 10.0 ** exponent
    # an input scaled below the normal range is no longer c times the base
    assume(all(abs(c * v) >= sys.float_info.min for v in (lb, lm, mu, T) if v))
    base = solve_all(ModelParams(lb, lm, mu, T))
    scaled = solve_all(ModelParams(c * lb, c * lm, c * mu, c * T))
    assert [s.phase for s in scaled.solutions] == [s.phase for s in base.solutions]
    assert scaled.multiplicity == base.multiplicity
    scale = max(abs(lb), abs(lm), mu, T)
    for got, want in zip(_energies(scaled), _energies(base)):
        for g, w in zip(got, want):
            assert abs(g / c - w) <= 1e-9 * scale


@pytest.mark.parametrize("c", [1e160, 1e-200])
def test_branches_survive_a_scale_where_the_mean_field_numerator_overflows(c):
    """lambda_m*(lambda_b - mu) over- or underflows here; delta_m must not."""
    base = solve_all(ModelParams(5.0, 0.3, 1.0, 0.3))
    scaled = solve_all(ModelParams(5.0 * c, 0.3 * c, 1.0 * c, 0.3 * c))
    assert [s.phase for s in base.solutions] == [
        PhaseLabel.PURE_MEAN_FIELD, PhaseLabel.MIXED_UPPER]
    assert [s.phase for s in scaled.solutions] == [s.phase for s in base.solutions]
    for got, want in zip(_energies(scaled), _energies(base)):
        assert got == pytest.approx([c * w for w in want], rel=1e-12)


def test_mean_field_sign_check_holds_where_the_product_underflows():
    # delta_m = 0.3*(1 - 2)/1.3 < 0 against lambda_m > 0, at any scale
    for c in (1.0, 1e-200):
        with pytest.raises(ConstraintViolation):
            mean_field_gap_given_w(c, ModelParams(c, 0.3 * c, 2.0 * c, 0.1 * c))


# ---------------------------------------------------------------------------
# tangency curve and critical temperature


def test_equilibrium_mu_frozen_value():
    # frozen from oracles.tangency_point(4.0)
    mu_e_bar, x_e = equilibrium_mu(4.0)
    assert mu_e_bar == pytest.approx(2.147143718212938, abs=1e-12)
    assert x_e == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)


def test_equilibrium_mu_boundary():
    mu_e_bar, x_e = equilibrium_mu(1.0)
    assert mu_e_bar == 0.0
    assert x_e == 0.0
    with pytest.raises(DomainError):
        equilibrium_mu(0.97)


@settings(max_examples=80, deadline=None)
@given(lb_bar=st.floats(1.001, 60))
def test_equilibrium_curve_is_a_tangency(lb_bar):
    """At (mu_e, x_e) the reduced defect and its derivative both vanish."""
    mu_e_bar, x_e = equilibrium_mu(lb_bar)
    f = x_e - lb_bar * math.tanh(x_e - mu_e_bar)
    fp = 1.0 - lb_bar / math.cosh(x_e - mu_e_bar) ** 2
    assert abs(f) < 1e-9 * max(1.0, lb_bar)
    assert abs(fp) < 1e-9 * max(1.0, lb_bar)
    assert mu_e_bar < x_e


def test_critical_temperature():
    assert critical_temperature(ModelParams(5.0, 0.0, 1.0, 1.0)) == 2.5
    with pytest.raises(NotApplicable):
        critical_temperature(ModelParams(-5.0, 0.0, 1.0, 1.0))
    with pytest.raises(NotApplicable):
        critical_temperature(ModelParams(0.0, 0.0, 1.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(lb=st.floats(0.5, 8), mu=st.floats(0.01, 4), frac=st.floats(1.0, 3.0))
def test_no_mixed_solutions_at_or_above_tc(lb, mu, frac):
    tc = critical_temperature(ModelParams(lb, 0.0, mu, 1.0))
    report = solve_all(ModelParams(lb, 0.0, mu, tc * frac))
    assert report.multiplicity == 0
