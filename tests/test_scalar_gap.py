"""Root finding and branch assembly for the Fermi-surface scalar system."""

import builtins
import dataclasses
import math
import os
import random
import struct
import subprocess
import sys
from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

import gapforge
from gapforge import scalar_gap
from gapforge.core_types import ModelParams, PhaseLabel, solution_checks
from gapforge.errors import (
    ConstraintViolation,
    DomainError,
    GapEquationError,
    NotApplicable,
    NotAdmissible,
    SingularDenominator,
    ZeroCoupling,
)
from gapforge.phase_diagram import MultiplicityClass, multiplicity_class
from gapforge.scalar_gap import (
    critical_temperature,
    effective_energy,
    equilibrium_mu,
    mean_field_gap_given_w,
    pairing_energy_roots,
    pure_mean_field,
    recover_delta_b,
    solve_all,
)

from oracles import (
    bisect,
    decimal_branches,
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
    for w in sorted(roots):
        assert abs(pairing_defect(w, lb, mu, T)) < 1e-7 * max(1.0, abs(lb))
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


def test_subnormal_couplings_take_the_unhalved_ratio():
    # both halves round to zero: the ratio is 1/2, and 5e-324/2 rounds to 0
    assert mean_field_gap_given_w(5e-324, ModelParams(5e-324, 5e-324, 0.0, 0.0)) == 0.0
    # one half rounds: the halved ratio read 0, the exact one is -1
    with pytest.raises(ConstraintViolation, match="opposite sign"):
        mean_field_gap_given_w(5e-324, ModelParams(5e-324, -1e-323, 0.0, 0.0))


def test_subnormal_couplings_are_singular_only_where_they_cancel():
    with pytest.raises(SingularDenominator):
        mean_field_gap_given_w(5e-324, ModelParams(5e-324, -5e-324, 0.0, 0.0))
    params = ModelParams(5e-324, 5e-324, 0.0, 0.0)
    # delta_m = 2.5e-324 is no double: the root is dropped for its residual
    assert solve_all(params).notes == (
        "root w_bar = 4.94065646e-324 dropped: residual 1 exceeds 1e-08",)


def test_recover_delta_b_and_rejection():
    # the arguments are the root's w_bar, its offset w_bar - mu, delta_m and
    # the effective energy mu + delta_m; here mu = 1
    w = 3.9793886954031126
    db = recover_delta_b(w, w - 1.0, 0.0, 1.0)
    assert db == pytest.approx(math.sqrt(w * w - 1.0))
    assert db >= 0.0
    with pytest.raises(NotAdmissible):
        recover_delta_b(0.9, -0.1, 0.0, 1.0)  # w_bar below the effective energy
    # w_bar = 1 + 2e-200 rounds to mu, yet its offset decides the sign exactly
    assert recover_delta_b(1.0, 2e-200, 0.0, 1.0) == pytest.approx(2e-100, rel=1e-15, abs=0.0)
    with pytest.raises(NotAdmissible):
        recover_delta_b(1.0, -2e-200, 0.0, 1.0)
    # an offset that underflowed keeps its sign as a signed zero
    with pytest.raises(NotAdmissible):
        recover_delta_b(1.0, -0.0, 0.0, 1.0)
    # a vanishing factor gives +0.0, never -0.0
    assert math.copysign(1.0, recover_delta_b(1.0, 0.0, 0.0, 1.0)) == 1.0
    assert math.copysign(1.0, recover_delta_b(1.0, -0.0, -0.0, 1.0)) == 1.0
    # below mu/2 the first factor is w_bar - omega_eff, from the smaller terms
    assert recover_delta_b(0.3, -0.7, -0.8, 0.2) == pytest.approx(math.sqrt(0.05))
    with pytest.raises(NotAdmissible):
        recover_delta_b(0.3, -0.7, -0.6, 0.4)
    # the halved second factor stays finite where w_bar + omega_eff overflows
    assert recover_delta_b(1.5e308, 0.5e308, 0.0, 1e308) == pytest.approx(math.sqrt(1.25) * 1e308)


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


def test_solve_all_zero_coupling_note_not_error():
    report = solve_all(ModelParams(0.0, 1.0, 1.0, 0.5))
    assert report.multiplicity == 0
    assert any("pairing channel inactive" in n for n in report.notes)


def test_solve_all_keeps_a_negative_effective_energy():
    # lambda_m = -1.5 puts mu + delta_m = -0.8 below zero on both mixed branches
    report = solve_all(ModelParams(4.0, -1.5, 1.0, 0.5))
    assert report.multiplicity == 2 and report.notes == ()
    assert all(1.0 + s.delta_m < 0.0 for s in report.mixed)
    with pytest.raises(TypeError):
        solve_all(ModelParams(4.0, -1.5, 1.0, 0.5), require_nonneg_effective_energy=True)


@pytest.mark.parametrize("params", [(-1e10, 0.0, 1.0, 1e-3), (-1e6, 0.0, 1.0, 1e-6),
                                    (-1e10, 0.0, 1.0, 1e-6)])
def test_an_attractive_root_below_mu_lifts_to_no_branch(params):
    # with lambda_m = 0, delta_m = 0 and the lone root lies in (0, min(mb, |lb|)),
    # so w_bar < mu = |mu + delta_m| and delta_b**2 < 0: no mixed branch exists.
    # w_bar rounds to within 2e-13 of mu, or to mu itself; the offset
    # w_bar - mu = 2T*u < 0 still rejects the root exactly
    report = solve_all(ModelParams(*params))
    assert report.multiplicity == 0
    assert [note.split(": ", 1)[1] for note in report.notes] == [
        "w_bar = 1 lies below the effective energy |mu + delta_m| = 1: no mixed phase"]
    assert all(b["below"] < 0 for b in decimal_branches(*params))


@pytest.mark.parametrize("params, notes", [
    ((4.0, -4.0, 1.0, 0.5), [  # singular denominator
        "root w_bar = 1.35176711 dropped: lambda_b + lambda_m = 0: "
        "the mean-field condition degenerates",
        "root w_bar = 3.9793887 dropped: lambda_b + lambda_m = 0: "
        "the mean-field condition degenerates"]),
    ((-2.0, 3.0, 1.0, 0.5), [  # sign constraint
        "root w_bar = 0.658188081 dropped: delta_m = -9 has the opposite sign "
        "of lambda_m = 3; no consistent mixed branch here"]),
    ((-2.0, 1.5, 1.0, 0.5), [  # sign constraint: the bound
        "root w_bar = 0.658188081 dropped: |delta_m| = 9 exceeds 2*|lambda_m| = 3"]),
    ((3.0, 1.0, 1.0, 0.3), [  # imaginary amplitude
        "root w_bar = 1.27138538 dropped: w_bar = 1.27139 lies below the "
        "effective energy |mu + delta_m| = 1.5: no mixed phase"]),
], ids=[f"params{i}-False-notes{i}" for i in range(4)])  # the ids the suite has always printed
def test_drop_notes_keep_their_text(params, notes):
    report = solve_all(ModelParams(*params))
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
    assert gapforge.classify_region is scalar_gap.classify_region is core_types.classify_region
    assert core_types.classify_region.__module__ == "gapforge.core_types"
    assert phase_diagram.RegionLabel is core_types.RegionLabel
    assert thermal.bogoliubov_from_gaps is core_types.bogoliubov_from_gaps


def test_scalar_gap_imports_neither_thermal_nor_phase_diagram():
    import ast
    import pathlib

    tree = ast.parse(pathlib.Path(scalar_gap.__file__).read_text(encoding="utf-8"))
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not modules & {"thermal", "phase_diagram"}


def test_a_solution_stores_only_what_the_solver_finds():
    from gapforge.core_types import GapSolution, SolveReport

    assert [f.name for f in dataclasses.fields(GapSolution)] == [
        "delta_m", "delta_b", "w_bar", "phase", "residual", "omega_eff"]
    assert [f.name for f in dataclasses.fields(SolveReport)] == ["params", "solutions", "notes"]
    # the rotation is derived on read, so the lift builds none
    assert not hasattr(scalar_gap, "bogoliubov_from_gaps")
    assert not hasattr(scalar_gap, "BogoliubovCoefficients")


def _bits(coeffs):
    return [struct.pack("<d", v) for v in (coeffs.c, coeffs.s, coeffs.phi)]


_SOLUTION_KEYS = ["delta_m", "delta_b", "w_bar", "coeffs", "phase", "residual",
                  "delta_b_sign_ambiguous", "omega_eff"]


@settings(max_examples=300, deadline=None)
@given(lb=st.floats(-20.0, 20.0), lm=st.floats(-3.0, 3.0), mu=st.floats(0.0, 5.0),
       T=st.one_of(st.just(0.0), st.floats(1e-3, 5.0), st.just(math.inf)))
@example(lb=4.0, lm=0.0, mu=1.0, T=0.5)  # two mixed branches
@example(lb=-2.0, lm=-1.5, mu=1.0, T=0.0)  # the attractive root at T = 0
def test_the_rotation_and_the_region_are_derived_from_the_stored_fields(lb, lm, mu, T):
    from gapforge.core_types import _UNROTATED, bogoliubov_from_gaps, classify_region

    params = ModelParams(lb, lm, mu, T)
    report = solve_all(params)
    assert report.region is classify_region(params)
    assert report.as_dict()["region"] == classify_region(params).value
    for sol in report.solutions:
        if sol.phase is PhaseLabel.PURE_MEAN_FIELD:
            assert sol.coeffs is _UNROTATED
        else:
            assert _bits(sol.coeffs) == _bits(bogoliubov_from_gaps(sol.omega_eff, sol.delta_b))
        assert list(sol.as_dict()) == _SOLUTION_KEYS
        assert sol.as_dict()["coeffs"] == dataclasses.asdict(sol.coeffs)


def test_a_hand_built_solution_with_no_energy_is_unrotated():
    # bogoliubov_from_gaps(0, 0) raises; a solution with omega_eff = delta_b = 0 is
    # not rotated, and solution_checks reads it without raising
    from gapforge.core_types import _UNROTATED, GapSolution

    params = ModelParams(4.0, -1.0, 1.0, 0.5)
    for phase in PhaseLabel:
        sol = GapSolution(-1.0, 0.0, 0.0, phase, 0.0, -0.0)
        assert sol.coeffs is _UNROTATED
        assert solution_checks(sol, params)["rotation_consistency"]


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


def test_a_subnormal_mixed_root_meets_its_own_equations():
    # the root lies below |lambda_b| = 5e-324, so w_bar rounds to the trivial
    # node 0 and is dropped; an emitted root would have to meet its equations
    params = ModelParams(-5e-324, -0.5, 2.225073858507e-311, 0.75)
    for sol in solve_all(params).mixed:
        assert sol.w_bar <= abs(params.lambda_b)
        assert sol.residual <= 1e-8


@pytest.mark.parametrize("point, notes", [
    # lower roots at subnormal mu: w_bar - mu underflows, so w_bar is mu plus
    # the smallest double, which misses the energy identity and the gate drops
    # it; w_bar = mu would break fermi_surface_side, whose band 1e-8*mu is 0
    ((3.0, 0.0, 5e-324, 0.5), ["residual 0.75 exceeds 1e-08"]),
    ((6.0, 0.0, 1e-323, 1.0), ["residual 0.555556 exceeds 1e-08"]),
    ((4.154697625382749, 0.0, 5e-324, 0.18260190966314907), ["residual 0.75 exceeds 1e-08"]),
    # w_bar - mu = 2e-350 underflows to +0.0: w_bar = mu, and delta_b = 2e-225
    # is taken from the unrounded factors (see test_an_underflowed_offset_keeps_its_gap)
    ((1e50, 0.0, 1e-100, 1e-200), []),
    # ... and -2e-350 to -0.0, which still rejects the attractive root
    ((-1e50, 0.0, 1e-100, 1e-200), ["w_bar = 1e-100 lies below the effective energy "
                                    "|mu + delta_m| = 1e-100: no mixed phase"]),
    # attractive roots whose w_bar rounds to the trivial node 0: no root
    ((-1.0, 0.0, 1.5e-323, 2.6334928927287415), []),
    ((-117.93279254264908, 0.0, 5e-324, 4.4970334408020284e-95), []),
])
def test_an_offset_that_rounds_to_zero_keeps_its_sign(point, notes):
    from gapforge.core_types import solution_checks

    params = ModelParams(*point)
    for w, offset, _, _ in scalar_gap._mixed_roots(params, params.beta):
        assert math.copysign(1.0, offset) == math.copysign(1.0, params.lambda_b)
        if params.lambda_b > 0.0:
            assert w == params.mu + (offset or 5e-324)
    report = solve_all(params)
    assert [note.split(": ", 1)[1] for note in report.notes] == notes
    assert report.multiplicity == len(pairing_energy_roots(params)) - len(notes)
    for sol in report.solutions:
        assert all(solution_checks(sol, params).values())


@pytest.mark.parametrize("params, delta_b", [
    ((1e20, 0.0, 1.0, 1.0), 2e-10),  # w_bar - mu = 2e-20 is below an ulp of mu
    ((1e200, 0.0, 1.0, 1.0), 2e-100),
    ((4.0, 0.0, 1.0, 1e-9), 3.196328e-5),
    ((4.0, 0.0, 1.0, 1e-300), 1.0107677e-150),
    ((4.0, -0.3, 1.0, 1e-12), 0.6536966),
    ((-4.0, -0.5, 1.0, 1e-9), 0.8958064),
])
def test_a_lower_root_next_to_mu_keeps_its_branch(params, delta_b):
    # each lower branch against a 60-digit solve of the same equations
    report = solve_all(ModelParams(*params))
    lower = [s for s in report.mixed if s.phase is PhaseLabel.MIXED_LOWER]
    want = [b for b in decimal_branches(*params) if b["label"] == "lower"]
    assert len(lower) == len(want) == 1
    assert float(want[0]["db2"].sqrt()) == pytest.approx(delta_b, rel=1e-7, abs=0.0)
    assert lower[0].delta_b == pytest.approx(float(want[0]["db2"].sqrt()), rel=1e-12, abs=0.0)
    assert lower[0].w_bar == pytest.approx(float(want[0]["w_bar"]), rel=1e-15, abs=0.0)
    assert lower[0].residual <= 1e-12
    assert not report.notes


@settings(max_examples=200, deadline=None)
@given(mu=st.floats(0.1, 5.0), ratio=st.floats(0.0, 12.0), scale=st.floats(-15.0, 0.0))
def test_an_attractive_coupling_without_mean_field_has_no_mixed_branch(mu, ratio, scale):
    # lambda_m = 0 gives delta_m = 0, and the attractive root lies below mu:
    # delta_b**2 = (w_bar - mu)*(w_bar + mu) < 0 wherever it rounds
    params = ModelParams(-mu * 10.0 ** ratio, 0.0, mu, mu * 10.0 ** scale)
    assert solve_all(params).multiplicity == 0


def test_an_attractive_root_far_below_mu_keeps_its_precision():
    # |lambda_b|/mu from 1e-20 to 1: the lone root lies in (0, |lambda_b|),
    # far below mu, where mu + 2T*u would carry an error of ulp(mu) and round
    # to 0 below |lambda_b| ~ ulp(mu); lambda_b*tanh(u) keeps a few ulps of w_bar
    rng = random.Random(33)
    points = [(-1e-17, 0.0, 1.0, 1.0), (-1e-20, -0.5, 1.0, 1.0)]
    for _ in range(300):
        mu = 10.0 ** rng.uniform(-1.0, 1.0)
        points.append((-mu * 10.0 ** rng.uniform(-20.0, 0.0),
                       rng.choice((0.0, -mu * rng.uniform(0.4, 2.0))),
                       mu, mu * 10.0 ** rng.uniform(-3.0, 1.0)))
    for point in points:
        params = ModelParams(*point)
        (want,) = decimal_branches(*point)
        (w,) = pairing_energy_roots(params)
        assert w == pytest.approx(float(want["w_bar"]), rel=4e-15, abs=0.0), point
        assert multiplicity_class(params) is MultiplicityClass.UNIQUE
        # a branch is emitted only where it exists, on that root
        exists = 0 <= want["ratio"] <= 2 and want["below"] >= 0 and want["above"] >= 0
        mixed = solve_all(params).mixed
        assert len(mixed) <= exists and all(s.w_bar == w for s in mixed), point


@pytest.mark.parametrize("lb, lm", [(4.0, -0.3), (4.0, 0.0), (10.0, 0.0), (-4.0, -0.5)])
def test_the_lower_branch_converges_as_the_temperature_goes_to_zero(lb, lm):
    # at T -> 0+ the lower root goes to w_bar = mu = 1, where delta_b**2 tends to
    # mu**2 - (mu + delta_m)**2; delta_b**2 - that limit is (2T*u)*(2*mu + 2T*u)
    # with |u| < 1 here, so it falls like 4T
    dm = lm * (lb - 1.0) / (lb + lm)
    limit = -dm * (2.0 + dm)
    for j in range(1, 991):
        temp = math.ldexp(1.0, -j)
        lower = [s for s in solve_all(ModelParams(lb, lm, 1.0, temp)).mixed
                 if s.phase is PhaseLabel.MIXED_LOWER]
        assert len(lower) == 1, j
        assert abs(lower[0].delta_b ** 2 - limit) <= 8.0 * temp + 1e-15, j


def _outside_rounding_zone(branch) -> bool:
    # the float offset, delta_m and w_bar carry a few ulps each: a branch whose
    # factors, or mean-field ratio, lie within 1e-12 of their terms' size of a
    # sign change is left out; delta_m = 0 is exact at lambda_m = 0
    zone = Decimal("1e-12")
    offset, dm, w, ratio = (branch[k] for k in ("offset", "delta_m", "w_bar", "ratio"))
    mu = w - offset
    return (abs(branch["below"]) > zone * (abs(offset) + abs(dm))
            and abs(branch["above"]) > zone * (w + mu + abs(dm))
            and (dm == 0 or (abs(ratio) > zone and abs(ratio - 2) > zone)))


def test_the_emitted_branches_are_those_decimal_admits():
    # seeded points with T/mu from 1e-300 to 1, both coupling signs, away
    # from the tangency curve (where the decimal Newton meets a double root)
    rng = random.Random(31)
    checked = 0
    for _ in range(400):
        mu = 10.0 ** rng.uniform(-1.0, 1.0)
        lb = rng.choice((-1.0, 1.0)) * mu * 10.0 ** rng.uniform(-0.5, 3.0)
        lm = rng.choice((0.0, mu * rng.uniform(-2.0, 2.0)))
        temp = mu * 10.0 ** rng.uniform(-300.0, 0.0)
        lb_bar, mb = lb / (2.0 * temp), mu / (2.0 * temp)
        if lb > 0.0 and (lb_bar <= 1.0 or abs(mb - tangency_point(lb_bar)[0]) <= 1e-3 * mb):
            continue
        branches = decimal_branches(lb, lm, mu, temp)
        if not all(map(_outside_rounding_zone, branches)):
            continue
        want = [b for b in branches
                if 0 <= b["ratio"] <= 2 and b["below"] >= 0 and b["above"] >= 0]
        report = solve_all(ModelParams(lb, lm, mu, temp))
        phases = {"lower": PhaseLabel.MIXED_LOWER, "upper": PhaseLabel.MIXED_UPPER}
        assert [s.phase for s in report.mixed] == [phases[b["label"]] for b in want], (
            lb, lm, mu, temp, report.notes)
        for sol, b in zip(report.mixed, want):
            assert sol.w_bar == pytest.approx(float(b["w_bar"]), rel=1e-14, abs=0.0)
            assert sol.delta_b == pytest.approx(float(b["db2"].sqrt()), rel=1e-6, abs=0.0)
        checked += 1
    assert checked >= 300


_NOT_ADMISSIBLE = "w_bar = 1 lies below the effective energy |mu + delta_m| = 1: no mixed phase"


@pytest.mark.parametrize("params, notes, lower", [
    # subnormal root below |lambda_b| = 5e-324: w_bar = lambda_b*tanh(u) rounds
    # to the trivial node 0, so no root reaches the lift
    ((-5e-324, -0.5, 2.225073858507e-311, 0.75), [], False),
    # T = 0: the sum mu + delta_m cancels to 0, which would leave a mean-field
    # residual of 0.625; its closed form omega_eff = -0.625*w_bar keeps the
    # root, with delta_b = 0.78*w_bar
    ((-1.87e-221, -1.0, 0.375, 0.0), [], True),
    # w_bar rounds to mu, but the offset 2T*u < 0 rejects the root exactly
    ((-4.0, 0.0, 1.0, 1e-300), [_NOT_ADMISSIBLE], False),
    # w_bar - mu below an ulp of mu: the offset keeps delta_b = 1.01e-150
    ((4.0, 0.0, 1.0, 1e-300), [], True),
], ids=["params0-2", "params1-0.625", "params2-0.75", "params3-1.25"])  # the ids the suite printed
def test_the_residual_gate_drops_a_lower_root_that_misses_its_equations(params, notes, lower):
    report = solve_all(ModelParams(*params))
    assert (PhaseLabel.MIXED_LOWER in [s.phase for s in report.mixed]) is lower
    assert report.multiplicity == len(report.mixed)
    assert [note.split(": ", 1)[1] for note in report.notes] == notes
    assert all(s.residual <= 1e-8 for s in report.solutions)


@pytest.mark.parametrize("d, phases", [
    (5e-6, []),  # above the curve: no root
    (-9e-6, [PhaseLabel.MIXED_LOWER, PhaseLabel.MIXED_UPPER]),  # 6.4e-3 apart
    (-1e-12, [PhaseLabel.MIXED_LOWER, PhaseLabel.MIXED_UPPER]),  # 2.1e-6 apart
])
def test_the_root_count_is_exact_next_to_the_tangency_curve(d, phases):
    # at T = 1/2 the reduced values are the raw ones; lambda_b_bar = 4
    mu_e, x_e = equilibrium_mu(4.0)
    params = ModelParams(4.0, 0.0, mu_e + d, 0.5)
    report = solve_all(params)
    assert [s.phase for s in report.mixed] == phases
    assert multiplicity_class(params) is list(MultiplicityClass)[len(phases)]
    for sol in report.mixed:
        assert abs(pairing_defect(sol.w_bar, 4.0, params.mu, 0.5)) <= 1e-8 * 4.0
        assert sol.residual <= 1e-12
    if len(phases) == 2:
        # each bracket of the convex defect holds one root, found independently
        lower, upper = (s.w_bar for s in report.mixed)
        defect = lambda x: pairing_defect(x, 4.0, params.mu, 0.5)  # noqa: E731
        # the defect's slope at a root is ~sqrt(|d|), which bounds the oracle's accuracy
        assert lower == pytest.approx(bisect(defect, params.mu, x_e), abs=1e-9)
        assert upper == pytest.approx(bisect(defect, x_e, 4.0), abs=1e-9)
        assert lower < x_e < upper


@pytest.mark.parametrize("lb_bar", [1.5, 4.0, 12.0])
@pytest.mark.parametrize("d", [-1e-6, -1e-9, -1e-12])
def test_roots_next_to_the_tangency_curve_cost_at_most_128_evaluations(lb_bar, d):
    # near a double root Newton converges only linearly; the kernel's own cap holds
    params = ModelParams(lb_bar, 0.0, equilibrium_mu(lb_bar)[0] + d, 0.5)
    calls = _kernel_calls(params)
    assert len(calls) == 2
    for f, lo, hi, root, seen in calls:
        assert len(seen) <= 128
        assert f(root)[0] >= 0.0 > f(math.nextafter(root, lo))[0]


@settings(max_examples=80, deadline=None)
@given(
    lb=st.floats(0.2, 6), lm=st.floats(-3, 3),
    mu=st.floats(0, 4), T=st.floats(0.02, 4),
)
def test_mixed_residuals_are_tiny(lb, lm, mu, T):
    report = solve_all(ModelParams(lb, lm, mu, T))
    for sol in report.mixed:
        assert sol.residual < 1e-7


@pytest.mark.parametrize("c", [1.0, 1e150, 1e200, 1e300])
def test_stored_residual_keeps_the_energy_identity_where_the_squares_overflow(c):
    # w_bar = 4, mu + delta_m = 1, delta_b = 2 breaks w**2 = eff**2 + delta_b**2
    # by 11/16 of w**2; scaled by c, w**2 overflows from c ~ 1e154 on
    params = ModelParams(4.0 * c, 0.0, c, 0.5 * c)
    residual = scalar_gap._mixed_residual(4.0 * c, 3.0 * c, 0.0, 2.0 * c, c, params, params.beta)
    assert residual == pytest.approx(0.6875, abs=1e-12)


@pytest.mark.parametrize("c", [1e-100, 1e-200, 1e-300])
def test_stored_residual_keeps_the_energy_identity_below_unit_scale(c):
    # the triple above, scaled so that w_bar**2 is far below 1 or underflows
    params = ModelParams(4.0 * c, 0.0, c, 0.5 * c)
    residual = scalar_gap._mixed_residual(4.0 * c, 3.0 * c, 0.0, 2.0 * c, c, params, params.beta)
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


@pytest.mark.parametrize("lb, lm", [(-8e-5, -8.0), (-8e-5, 0.0), (2.0, 0.0)])
def test_an_overflowing_mu_over_t_gives_the_zero_temperature_roots(lb, lm):
    # mu/2T = 4e308 overflows while lambda_b/2T does not: tanh is saturated at
    # the attractive root, which is |lambda_b| to rounding, and there is no other
    params, cold = ModelParams(lb, lm, 8.0, 1e-308), ModelParams(lb, lm, 8.0, 0.0)
    assert math.isinf(4.0 * params.beta) and not math.isinf(0.5 * lb * params.beta)
    assert pairing_energy_roots(params) == pairing_energy_roots(cold)
    assert [(s.phase, s.w_bar, s.delta_b) for s in solve_all(params).mixed] == [
        (s.phase, s.w_bar, s.delta_b) for s in solve_all(cold).mixed]


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


def _clear_pure_caches():
    scalar_gap._pure_root.cache_clear()
    scalar_gap._pure_solutions.clear()


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

    _clear_pure_caches()  # so that the pure root is polished here
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
    # root; on the attractive side the one bracket [-mb, min(0, |lb| - mb)] does
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


@pytest.mark.parametrize("lb, mb", [
    (31.828141140744382, 8.582293213731328),
    (-5.4611333400848086, 59.358482817574114),
    (-19.867859974968443, 57.84750256651796),
])
def test_a_bracket_end_where_tanh_saturates_keeps_the_sign_change(lb, mb):
    # |lb| - mb rounds down, and tanh rounds to +-1 there, so the defect at
    # that end reads negative; the bracket ends one double higher, where
    # u + mb >= |lb| holds exactly.  At T = 1/2 the reduced values are the
    # energies themselves
    calls = _kernel_calls(ModelParams(lb, 0.0, mb, 0.5))
    assert calls and (abs(lb) - mb) + mb < abs(lb)
    for f, lo, hi, root, _ in calls:
        assert f(root)[0] >= 0.0 > f(math.nextafter(root, lo))[0]


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


def test_pure_root_needs_few_evaluations_at_any_temperature():
    # Newton from lambda_m took up to 37 evaluations where beta*lambda_m is large
    kernel = scalar_gap._bracketed_root
    counts = []

    def recording(f, lo, hi):
        seen = []
        root = kernel(lambda x: seen.append(x) or f(x), lo, hi)
        counts.append(len(seen))
        assert f(root)[0] >= 0.0
        below = math.nextafter(root, lo)
        assert below == lo or f(below)[0] < 0.0
        return root

    with mock.patch.object(scalar_gap, "_bracketed_root", recording):
        for i in range(-300, 301, 3):
            lm = 10.0 ** i
            for j in range(-3, 301, 6):  # beta*lambda_m from 1e-3 to 1e297
                beta = 10.0 ** j / lm
                if 0.0 < beta < math.inf:
                    scalar_gap._pure_root.cache_clear()
                    scalar_gap._pure_root(lm, beta)
        scalar_gap._pure_root.cache_clear()
        scalar_gap._pure_root(1e-250, 1.7e308)  # 2*beta overflows, 2*(beta*lambda_m) does not
    scalar_gap._pure_root.cache_clear()
    assert len(counts) > 7000 and max(counts) <= 10


def _lambert_w(c: float) -> float:
    """W(c) for c >= e by Newton on w + ln w = ln c, from w = ln c."""
    w, log_c = math.log(c), math.log(c)
    for _ in range(50):
        step = (w + math.log(w) - log_c) / (1.0 + 1.0 / w)
        w -= step
        if abs(step) <= 1e-17 * w:
            break
    return w


def test_the_lambert_w_bound_lies_above_w():
    # the bound is exact at c = e and grows away from W faster than W does
    for k in range(2000):
        c = math.e * math.exp(10.0 ** (-12 + 14.85 * k / 1999))  # up to ~1.4e308
        assert _lambert_w(c) <= scalar_gap._lambert_w_bound(c), c
    for c in (math.e, 1.0, 0.0, -1.0, math.inf, math.nan):
        assert scalar_gap._lambert_w_bound(c) == math.inf


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


def _bits(value):
    """``value`` with every float as its bit pattern, so that -0.0 differs from 0.0."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    return value


def _outcome(params):
    """``solve_all(params)`` bit for bit, or the type and text of what it raised."""
    try:
        return _bits(dataclasses.astuple(solve_all(params)))
    except GapEquationError as exc:
        return type(exc), str(exc)


def _one_over_t_twin(T):
    """A neighbouring temperature with the same 1/T, or ``T`` where neither has it."""
    for other in (math.nextafter(T, math.inf), math.nextafter(T, 0.0)):
        if 0.0 < other < math.inf and 1.0 / other == 1.0 / T:
            return other
    return T


_SIGNED_ZERO = st.sampled_from([0.0, -0.0])
# (T, twin): the two zero-temperature flags, 1/T overflowing to inf as at
# T = 0, T = inf, and ordinary temperatures with a neighbour of the same 1/T
_TEMPERATURE_PAIRS = st.one_of(
    st.sampled_from([(0.0, 5e-324), (5e-324, 0.0), (1e-310, 5e-324), (math.inf, math.inf)]),
    st.floats(5e-324, 2e-308).map(lambda T: (T, 0.0)),
    st.floats(1e-3, 1e3).map(lambda T: (T, _one_over_t_twin(T))),
)


def _same_or_other(draw, strategy, value):
    """``value`` with the other sign of a zero, or a fresh draw from ``strategy``."""
    if draw(st.booleans()):
        return -value if value == 0.0 else value
    return draw(strategy)


_LM = st.one_of(_SIGNED_ZERO, st.floats(-1e3, 1e3))
_MU = st.one_of(_SIGNED_ZERO, st.floats(0.0, 1e3))


@st.composite
def _point_and_warming_point(draw):
    """A point and one solved before it, with any lambda_b and mostly the same branch key."""
    T, twin = draw(_TEMPERATURE_PAIRS)
    lm, mu = draw(_LM), draw(_MU)
    point = ModelParams(draw(st.floats(-1e3, 1e3)), lm, mu, T)
    warming = ModelParams(draw(st.floats(-1e3, 1e3)), _same_or_other(draw, _LM, lm),
                          _same_or_other(draw, _MU, mu), draw(st.sampled_from([T, twin])))
    return point, warming


@settings(max_examples=300, deadline=None)
@given(points=_point_and_warming_point())
@example(points=(ModelParams(4.0, -0.0, -0.0, 1.9999999999999998),
                 ModelParams(-1.0, 0.0, 0.0, 1.9999999999999996)))
@example(points=(ModelParams(4.0, 0.3, 1.0, 0.0), ModelParams(2.0, 0.3, 1.0, 5e-324)))
@example(points=(ModelParams(4.0, 0.3, 1.0, 0.3), ModelParams(4.0, 0.3, 2.0, 0.3)))
def test_a_warm_pure_branch_memo_gives_the_cold_report_bit_for_bit(points):
    point, warming = points
    _clear_pure_caches()
    cold = _outcome(point)
    _clear_pure_caches()
    warm_pure = solve_all(warming).pure
    assert _outcome(point) == cold
    # the memo keys on (lambda_m, mu, 1/T), where -0.0 == 0.0
    key = (point.lambda_m, point.mu, point.beta)
    assert (solve_all(point).pure is warm_pure) == (key == (warming.lambda_m, warming.mu,
                                                            warming.beta))


def test_the_pure_branch_memo_never_holds_more_than_its_bound():
    bound = scalar_gap._PURE_SOLUTIONS_MAX
    _clear_pure_caches()
    for i in range(3 * bound):
        solve_all(ModelParams(4.0, 0.3 + i % 7, i / bound, 0.3 + i % 5))
        assert 0 < len(scalar_gap._pure_solutions) <= bound


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
    c = 10.0 ** exponent
    # an input scaled below the normal range is no longer c times the base
    assume(all(abs(c * v) >= sys.float_info.min for v in (lb, lm, mu, T) if v))
    params = (ModelParams(lb, lm, mu, T), ModelParams(c * lb, c * lm, c * mu, c * T))
    # nor is a root below it: see test_a_root_below_the_normal_range_is_dropped;
    # lambda_b = 0 has none, as solve_all notes
    assume(all(w >= sys.float_info.min for p in params if p.lambda_b
               for w in pairing_energy_roots(p)))
    base, scaled = map(solve_all, params)
    assert [s.phase for s in scaled.solutions] == [s.phase for s in base.solutions]
    assert scaled.multiplicity == base.multiplicity
    scale = max(abs(lb), abs(lm), mu, T)
    for got, want in zip(_energies(scaled), _energies(base)):
        for g, w in zip(got, want):
            assert abs(g / c - w) <= 1e-9 * scale


def test_a_root_below_the_normal_range_is_dropped():
    # the lower root w_bar = 2*mu = 1e-323 has delta_b = sqrt(3)*mu, which no
    # double holds to the residual bound; scaled by 1e16 it is a normal root
    base = solve_all(ModelParams(2.0, 0.0, 5e-324, 0.5))
    assert [s.phase for s in base.solutions] == [PhaseLabel.PURE_MEAN_FIELD,
                                                 PhaseLabel.MIXED_UPPER]
    assert base.notes == ("root w_bar = 9.88131292e-324 dropped: residual 0.5 exceeds 1e-08",)
    scaled = solve_all(ModelParams(2e16, 0.0, 5e-308, 5e15))
    assert [s.phase for s in scaled.solutions] == [
        PhaseLabel.PURE_MEAN_FIELD, PhaseLabel.MIXED_LOWER, PhaseLabel.MIXED_UPPER]
    assert scaled.notes == ()


_COUPLING = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@settings(max_examples=300, deadline=None)
@given(
    lb=_COUPLING, lm=_COUPLING, mu=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    T=st.one_of(st.sampled_from([0.0, math.inf]), st.floats(1e-3, 1e3)),
    k=st.integers(-900, 900),
)
# mu + delta_m cancels here; a range switch of the mean-field shift once
# rounded it differently at 2**900 and moved delta_b by 1.1e-11
@example(lb=-0.0027911384, lm=-564.09982, mu=15.659459, T=0.7, k=900)
# delta_b**2 is subnormal at 2**-494 while w_bar**2 is not: the energy identity
# once took the unit-scale path there and stored a different residual
@example(lb=0.001, lm=128.0, mu=0.0, T=0.0, k=-494)
def test_solutions_scale_exactly_by_a_power_of_two(lb, lm, mu, T, k):
    """Scaling every input energy by c = 2**k scales every output energy by c,
    bit for bit, and leaves every label and residual as it was."""
    c = math.ldexp(1.0, k)
    # exact while every scaled input and output is a normal double or zero
    assume(all(abs(v * c) >= 2.0 ** -1021 for v in (lb, lm, mu, T) if v))
    base = solve_all(ModelParams(lb, lm, mu, T))
    assume(all(not v or sys.float_info.min <= abs(v * c) < math.inf
               for energies in _energies(base) for v in energies))
    scaled = solve_all(ModelParams(lb * c, lm * c, mu * c, T * c))
    assert [s.phase for s in scaled.solutions] == [s.phase for s in base.solutions]
    assert scaled.region is base.region
    assert scaled.multiplicity == base.multiplicity
    assert len(scaled.notes) == len(base.notes)
    assert [s.residual for s in scaled.solutions] == [s.residual for s in base.solutions]
    assert [s.coeffs for s in scaled.solutions] == [s.coeffs for s in base.solutions]
    assert _energies(scaled) == [tuple(v * c for v in energies)
                                 for energies in _energies(base)]


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


@pytest.mark.parametrize("lb", [-1e-10, -2.541657285077569e-88])
def test_a_root_far_below_mu_keeps_its_mean_field_equation(lb):
    # the attractive T = 0 root w_bar = |lambda_b| has mu + delta_m =
    # -w_bar/(2(1 + w_bar)), so delta_b = sqrt(3)/2 * w_bar to first order;
    # the sum would keep only an absolute ulp of mu, its closed form every digit
    (sol,) = solve_all(ModelParams(lb, -1.0, 0.5, 0.0)).mixed
    assert sol.delta_b == pytest.approx(math.sqrt(3.0) / 2.0 * abs(lb), rel=1e-6)


def test_the_effective_energy_is_mu_plus_delta_m_in_closed_form():
    # lambda_b*(mu + lambda_m)/(lambda_b + lambda_m): mu exactly at lambda_m = 0
    assert effective_energy(ModelParams(4.0, 0.0, 1.0, 0.5)) == 1.0
    params = ModelParams(4.0, 0.3, 1.0, 0.5)
    assert effective_energy(params) == pytest.approx(1.0 + mean_field_gap_given_w(1.0, params),
                                                     rel=1e-15, abs=0.0)
    # where the sum cancels to -w_bar/2 the closed form keeps every digit
    assert effective_energy(ModelParams(-1e-10, -1.0, 0.5, 0.0)) == pytest.approx(
        -0.5e-10 / (1.0 + 1e-10), rel=1e-15, abs=0.0)
    # a subnormal lambda_m that a half would round to 0 is kept
    assert effective_energy(ModelParams(1.0, 5e-324, 0.0, 0.0)) == 5e-324
    # the halves of sums that overflow stay finite
    assert effective_energy(ModelParams(1e308, 1e308, 1e308, 0.0)) == 1e308
    # a fraction (mu + lambda_m)/lambda_b = 1e-342 underflows: the product is
    # formed from the mantissas, and a power of two scales it exactly
    far = ModelParams(1e300, 1e-300, 1e-42, 0.3)
    assert effective_energy(far) == pytest.approx(1e-42, rel=1e-15, abs=0.0)
    assert effective_energy(ModelParams(1e300 / 1024, 1e-300 / 1024, 1e-42 / 1024, 0.3)) == (
        effective_energy(far) / 1024)
    with pytest.raises(SingularDenominator):
        effective_energy(ModelParams(5e-324, -5e-324, 0.0, 0.0))


def test_a_mean_field_ratio_that_underflows_keeps_its_sign_and_digits():
    # (lambda_b - mu)/(lambda_b + lambda_m) = -1e-343 underflows to -0.0; the
    # sums' signs still refuse the branch, whose closed-form effective energy
    # would otherwise admit it
    params = ModelParams(-7.089729676255431e-265, 1e300, 1.0644871691801172e-43, 0.0)
    with pytest.raises(ConstraintViolation, match="opposite sign"):
        mean_field_gap_given_w(abs(params.lambda_b), params)
    assert solve_all(params).mixed == ()
    # a ratio of -1e-322 keeps two digits as a double; from the mantissas
    # delta_m keeps all of them
    params = ModelParams(-1e-227, -2e276, 2e-46, 0.0)
    assert mean_field_gap_given_w(1e-227, params) == pytest.approx(-2e-46, rel=1e-15, abs=0.0)


def test_an_underflowed_offset_keeps_its_gap():
    # w_bar - mu = 2T*u = 2e-350 underflows, so w_bar = mu; delta_b**2 is
    # 2T*u*(w_bar + omega_eff), taken factor by factor: delta_b = 2e-225
    point = (1e50, 0.0, 1e-100, 1e-200)
    lower, _ = decimal_branches(*point)
    report = solve_all(ModelParams(*point))
    (sol,) = [s for s in report.mixed if s.phase is PhaseLabel.MIXED_LOWER]
    assert sol.delta_b == pytest.approx(float(lower["db2"].sqrt()), rel=1e-15, abs=0.0)
    assert sol.w_bar == sol.omega_eff == 1e-100
    assert all(solution_checks(sol, report.params).values())


@pytest.mark.parametrize("temperature", [0.0, 1.0])
def test_a_cancelling_denominator_beside_an_overflowing_sum_is_singular(temperature):
    # lambda_b - mu and mu + lambda_m overflow, so the sums are halved; their
    # denominator lambda_b + lambda_m is still 0, and the root is dropped with a note
    params = ModelParams(-1e308, 1e308, 1e308, temperature)
    for closed_form in (effective_energy, lambda p: mean_field_gap_given_w(1e308, p)):
        with pytest.raises(SingularDenominator):
            closed_form(params)
    report = solve_all(params)
    assert report.mixed == ()
    assert all("lambda_b + lambda_m = 0" in note for note in report.notes)
    assert len(report.notes) == (temperature > 0.0)


def test_a_w_bar_rounded_below_omega_eff_passes_the_strict_ordering():
    # w_bar = lambda_b*tanh(u) and omega_eff are rounded apart: the stored w_bar
    # is an ulp below omega_eff = 1, while in 60 digits w_bar = 1 - 2.3e-29 lies
    # above omega_eff = 1 - 1.9e-19, and delta_b = 6.16e-10 is real
    point = (-7.798029606245264e+29, -1.8998328376370532e-19, 1.0, 8.847008308622115)
    (branch,) = decimal_branches(*point)
    assert branch["below"] > 0 and branch["above"] > 0 and 0 <= branch["ratio"] <= 2
    report = solve_all(ModelParams(*point))
    (sol,) = report.mixed
    assert sol.phase is PhaseLabel.MIXED_LOWER
    assert sol.w_bar == 1.0 - 2.0 ** -53 and sol.omega_eff == 1.0
    assert sol.delta_b == pytest.approx(float(branch["db2"].sqrt()), rel=1e-9, abs=0.0)
    assert all(solution_checks(sol, report.params).values())


@settings(max_examples=200, deadline=None)
@given(lb_exponent=st.floats(-3.0, 30.0), sign=st.sampled_from([-1.0, 1.0]),
       lm_exponent=st.floats(-20.0, math.log10(3.0)), lm_sign=st.sampled_from([-1.0, 1.0]),
       t_exponent=st.floats(-3.0, 3.0))
@example(lb_exponent=math.log10(7.798029606245264e+29), sign=-1.0,
         lm_exponent=math.log10(1.8998328376370532e-19), lm_sign=-1.0,
         t_exponent=math.log10(8.847008308622115))
def test_the_branches_at_a_small_mean_field_shift_pass_their_checks(
        lb_exponent, sign, lm_exponent, lm_sign, t_exponent):
    """mu = 1, |lambda_b| from 1e-3 to 1e30, |lambda_m| from 1e-20 to 3, T from 1e-3 to 1e3.

    A small shift puts omega_eff next to a root near mu, where w_bar and
    omega_eff, each rounded, may be in either order.
    """
    lb, lm, temp = sign * 10.0 ** lb_exponent, lm_sign * 10.0 ** lm_exponent, 10.0 ** t_exponent
    assume(lb + lm != 0.0)  # the mean-field condition degenerates
    report = solve_all(ModelParams(lb, lm, 1.0, temp))
    for sol in report.solutions:
        checks = solution_checks(sol, report.params)
        assert all(checks.values()), (sol, checks)
    lb_bar, mb = lb / (2.0 * temp), 1.0 / (2.0 * temp)
    if lb > 0.0 and (lb_bar <= 1.0 or abs(mb - tangency_point(lb_bar)[0]) <= 1e-3 * mb):
        event("no root, or next to the tangency curve")
        return
    branches = decimal_branches(lb, lm, 1.0, temp)
    if not all(map(_outside_rounding_zone, branches)):
        event("within the rounding zone of a sign change")
        return
    want = [b for b in branches if 0 <= b["ratio"] <= 2 and b["below"] >= 0 and b["above"] >= 0]
    phases = {"lower": PhaseLabel.MIXED_LOWER, "upper": PhaseLabel.MIXED_UPPER}
    assert [s.phase for s in report.mixed] == [phases[b["label"]] for b in want], report.notes
    for sol, b in zip(report.mixed, want):
        event("w_bar <= omega_eff" if sol.w_bar <= sol.omega_eff else "w_bar > omega_eff")
        assert sol.w_bar == pytest.approx(float(b["w_bar"]), rel=1e-14, abs=0.0)
        assert sol.delta_b == pytest.approx(float(b["db2"].sqrt()), rel=1e-6, abs=0.0)


@pytest.mark.parametrize("point", [(-1e-10, -1.0, 0.5, 0.0), (-1.87e-221, -1.0, 0.375, 0.0),
                                   (4.0, 0.3, 1.0, 0.3), (-2.0, -1.5, 1.0, 0.3)])
def test_a_planted_wrong_delta_m_fails_the_effective_energy_check(point):
    # every other check reads the stored omega_eff, so only this one sees delta_m
    # move off it
    params = ModelParams(*point)
    report = solve_all(params)
    assert report.mixed
    for sol in report.solutions:
        assert all(solution_checks(sol, params).values())
        planted = dataclasses.replace(sol, delta_m=sol.delta_m * (1.0 - 1e-6))
        checks = solution_checks(planted, params)
        assert [name for name, ok in checks.items() if not ok] == ["effective_energy"]


def _near_a_sign_change(branch) -> bool:
    # within 1e-6 of w_bar = |omega_eff|, where the smaller factor of delta_b**2
    # cancels and changes sign, or of the mean-field bound ratio = 2
    zone = Decimal("1e-6")
    w = branch["w_bar"]
    return abs(w - abs(branch["omega_eff"])) <= zone * w or abs(branch["ratio"] - 2) <= zone


@settings(max_examples=200, deadline=None)
@given(mu=st.floats(1e-3, 1e3), exponent=st.floats(-300.0, -1.0),
       sign=st.sampled_from([-1.0, 1.0]), share=st.floats(-2.0, 0.0, exclude_max=True),
       t_exponent=st.floats(-300.0, 1.0))
def test_a_coupling_far_below_mu_gives_the_branches_decimal_admits(
        mu, exponent, sign, share, t_exponent):
    """|lambda_b|/mu from 1e-300 to 0.1, lambda_m in [-2 mu, 0), T/mu in [1e-300, 10]."""
    lb, lm, temp = sign * mu * 10.0 ** exponent, mu * share, mu * 10.0 ** t_exponent
    assume(lm < 0.0)
    # the oracle's w_bar = mu + offset cancels about -exponent digits of its 60
    branches = decimal_branches(lb, lm, mu, temp, digits=60 + math.ceil(-exponent))
    if any(map(_near_a_sign_change, branches)):
        event("within 1e-6 of w_bar = |omega_eff| or of ratio = 2")
        return
    want = [b for b in branches
            if 0 <= b["ratio"] <= 2 and b["below"] >= 0 and b["above"] >= 0]
    event(f"{len(want)} mixed branch(es)")
    report = solve_all(ModelParams(lb, lm, mu, temp))
    assert [s.phase for s in report.mixed] == [PhaseLabel.MIXED_LOWER] * len(want), report.notes
    for sol, b in zip(report.mixed, want):
        assert sol.w_bar == pytest.approx(float(b["w_bar"]), rel=1e-14, abs=0.0)
        assert sol.omega_eff == pytest.approx(float(b["omega_eff"]), rel=1e-14, abs=0.0)
        assert sol.delta_b == pytest.approx(float(b["db2"].sqrt()), rel=1e-9, abs=0.0)
