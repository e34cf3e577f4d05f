import dataclasses
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from gapforge.core_types import (
    RESIDUAL_BOUND,
    BogoliubovCoefficients,
    GapSolution,
    ModelParams,
    PhaseLabel,
    energy_identity_defect,
    fermi,
    solution_checks,
    tanh_half,
    validate,
)
from gapforge.errors import (
    InvalidParameter,
    NegativeChemicalPotential,
    NegativeTemperature,
)
from gapforge.thermal import _tanh_half


def test_beta_at_distinguished_temperatures():
    assert ModelParams(1, 0, 1, 0.0).beta == math.inf
    assert ModelParams(1, 0, 1, math.inf).beta == 0.0
    assert ModelParams(1, 0, 1, 0.5).beta == 2.0
    assert ModelParams(1, 0, 1, 0.0).is_zero_temperature
    assert not ModelParams(1, 0, 1, 1e-300).is_zero_temperature


def test_validate_rejects_bad_values():
    with pytest.raises(NegativeChemicalPotential):
        validate(ModelParams(1, 0, -0.5, 1))
    with pytest.raises(NegativeTemperature):
        validate(ModelParams(1, 0, 1, -1))
    with pytest.raises(InvalidParameter):
        validate(ModelParams(math.nan, 0, 1, 1))
    with pytest.raises(InvalidParameter):
        validate(ModelParams(1, math.inf, 1, 1))
    with pytest.raises(InvalidParameter):
        validate(ModelParams(1, 0, math.inf, 1))


def test_validate_normalizes_negative_zero_temperature():
    out = validate(ModelParams(1, 0, 1, -0.0))
    assert out.temperature == 0.0
    assert out.is_zero_temperature


def test_fermi_limits_and_midpoint():
    assert fermi(0.3, math.inf) == 0.0
    assert fermi(-0.3, math.inf) == 1.0
    assert fermi(0.0, math.inf) == 0.5
    assert fermi(123.4, 0.0) == 0.5
    assert fermi(math.log(3), 1.0) == pytest.approx(0.25)
    # large arguments must not overflow (clipped exponent, not exactly 0/1)
    assert 0.0 <= fermi(1e6, 10.0) < 1e-300
    assert fermi(-1e6, 10.0) == 1.0  # 1/(1 + e^-700) rounds to exactly 1.0


def test_tanh_half_limits():
    assert tanh_half(0.7, math.inf) == 1.0
    assert tanh_half(-0.7, math.inf) == -1.0
    assert tanh_half(0.0, math.inf) == 0.0
    assert tanh_half(5.0, 0.0) == 0.0
    assert tanh_half(2.0 * math.atanh(0.5), 1.0) == pytest.approx(0.5)


@pytest.mark.parametrize("x, beta", [
    (700.0 * 0.3, 1.0 / 0.3), (-700.0 * 0.3, 1.0 / 0.3),  # the clip, at T = 0.3
    (800.0, 1.0), (-800.0, 1.0), (1e300, 1e300),  # beyond it
    (0.0, math.inf), (-0.0, math.inf), (0.4, math.inf), (-0.4, math.inf),
    (0.0, 0.0), (3.0, 0.0), (math.inf, 0.5), (-math.inf, 0.5),
    (0.25, 2.0), (-1.5, 0.7),
])
def test_scalar_thermal_factors_match_the_array_path(x, beta):
    with np.errstate(over="ignore"):  # numpy's product overflows to inf
        # thermal's array evaluation, and the Fermi factor written out here
        expected_t = _tanh_half(np.array([x]), beta)[0]
        if math.isinf(beta):
            expected_f = np.heaviside(-x, 0.5)  # the T = 0 step
        else:
            expected_f = 1.0 / (1.0 + np.exp(np.clip(beta * np.float64(x), -700.0, 700.0)))
    for func, expected in ((fermi, expected_f), (tanh_half, expected_t)):
        for arg in (x, np.float64(x)):
            got = func(arg, beta)
            assert type(got) is float
            # math and numpy may round exp and tanh differently in the last bit
            assert math.isclose(got, expected, rel_tol=1e-15), (func, arg, beta)
    assert fermi(0.0, math.inf) == 0.5
    assert tanh_half(-0.0, math.inf) == 0.0


@given(x=st.floats(-50, 50), beta=st.floats(0, 100))
def test_fermi_bounded_and_complementary(x, beta):
    f = fermi(x, beta)
    assert 0.0 <= f <= 1.0
    assert fermi(-x, beta) == pytest.approx(1.0 - f, abs=1e-12)


@given(x=st.floats(-50, 50), beta=st.floats(0, 100))
def test_tanh_half_odd_and_bounded(x, beta):
    t = tanh_half(x, beta)
    assert -1.0 <= t <= 1.0
    assert tanh_half(-x, beta) == pytest.approx(-t, abs=1e-15)


def _solution(delta_m, delta_b, w_bar, phase, mu):
    """A solution at chemical potential ``mu``, storing ``omega_eff = mu + delta_m``."""
    return GapSolution(delta_m=delta_m, delta_b=delta_b, w_bar=w_bar, phase=phase,
                       residual=0.0, omega_eff=mu + delta_m)


def test_solution_checks_happy_path():
    # omega_eff = 3, delta_b = 4, w_bar = 5: the 3-4-5 rotation
    params = ModelParams(6.0, 1.0, 2.0, 0.5)
    sol = _solution(1.0, 4.0, 5.0, PhaseLabel.MIXED_UPPER, 2.0)
    assert sol.coeffs == BogoliubovCoefficients(math.sqrt(0.8), math.sqrt(0.2),
                                                0.5 * math.atan2(4.0, 3.0))
    checks = solution_checks(sol, params)
    assert all(checks.values()), checks


def test_solution_checks_flags_broken_identity():
    params = ModelParams(6.0, 1.0, 2.0, 0.5)
    sol = _solution(1.0, 4.0, 5.5, PhaseLabel.MIXED_UPPER, 2.0)
    checks = solution_checks(sol, params)
    assert not checks["energy_identity"]


@pytest.mark.parametrize("c", [1e200, 1e300])
def test_solution_checks_hold_where_the_squares_overflow(c):
    # the 3-4-5 rotation and a broken identity, scaled so that w_bar**2 overflows
    good = _solution(c, 4.0 * c, 5.0 * c, PhaseLabel.MIXED_UPPER, 2.0 * c)
    broken = _solution(c, 4.0 * c, 5.5 * c, PhaseLabel.MIXED_UPPER, 2.0 * c)
    params = ModelParams(6.0 * c, 1.0 * c, 2.0 * c, 0.5 * c)
    checks = solution_checks(good, params)
    assert all(checks.values()), checks
    assert not solution_checks(broken, params)["energy_identity"]


@pytest.mark.parametrize("c", [1.0, 1e-20])
def test_solution_check_bounds_are_relative_to_the_energies(c):
    # the upper branch with every energy tripled: w_bar ~ 12c exceeds
    # |lambda_b| = 4c, and delta_m ~ 0.63c exceeds 2*|lambda_m| = 0.6c, by far
    # more than an absolute allowance of 1e-8 at c = 1e-20
    from gapforge.scalar_gap import solve_all

    params = ModelParams(4.0 * c, 0.3 * c, 1.0 * c, 0.3 * c)
    upper = solve_all(params).mixed[-1]
    assert all(solution_checks(upper, params).values())
    tripled = dataclasses.replace(upper, delta_m=3.0 * upper.delta_m,
                                  delta_b=3.0 * upper.delta_b, w_bar=3.0 * upper.w_bar)
    checks = solution_checks(tripled, params)
    assert not checks["quasienergy_above_coupling_bound"]
    assert not checks["mean_field_bound"]


@pytest.mark.parametrize("k", [0, 900, -900])
def test_strict_ordering_excuses_only_a_gap_too_small_to_move_w_bar(k):
    # the lower branch at (1e20, 0, 1, 1): w_bar = 1 + 2e-20 rounds to
    # mu + delta_m = 1, and delta_b = 2e-10; a gap of 1e-5 would move w_bar
    # by 5e-11, so beside the same w_bar = mu it is a broken triple
    c = math.ldexp(1.0, k)
    params = ModelParams(1e20 * c, 0.0, c, c)
    correct = _solution(0.0, 2e-10 * c, c, PhaseLabel.MIXED_LOWER, c)
    checks = solution_checks(correct, params)
    assert checks["strictly_above_effective_energy"] and all(checks.values()), checks
    planted = dataclasses.replace(correct, delta_b=1e-5 * c)
    assert not solution_checks(planted, params)["strictly_above_effective_energy"]


@pytest.mark.parametrize("c", [1.0, 1e-100, 1e-200, 1e-300, 1e150, 1e300])
def test_energy_identity_defect_is_relative_at_any_scale(c):
    # w_bar = 5.5c, mu + delta_m = 3c, delta_b = 4c breaks the identity by 21/121 of w_bar**2
    assert energy_identity_defect(5.5 * c, 3.0 * c, 4.0 * c) == pytest.approx(21 / 121, rel=1e-12)
    assert energy_identity_defect(5.0 * c, 3.0 * c, 4.0 * c) < 1e-15
    params = ModelParams(6.0 * c, 1.0 * c, 2.0 * c, 0.5 * c)
    good = _solution(c, 4.0 * c, 5.0 * c, PhaseLabel.MIXED_UPPER, 2.0 * c)
    broken = _solution(c, 4.0 * c, 5.5 * c, PhaseLabel.MIXED_UPPER, 2.0 * c)
    assert solution_checks(good, params)["energy_identity"]
    assert not solution_checks(broken, params)["energy_identity"]


@pytest.mark.parametrize("w, eff, db, defect", [
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 1.0, 0.0, math.inf),
    (1e-200, 1.0, 0.0, math.inf),  # w_bar**2 does not show beside eff**2
    (1.0, 1e200, 0.0, math.inf),
])
def test_energy_identity_defect_at_a_vanishing_quasienergy(w, eff, db, defect):
    assert energy_identity_defect(w, eff, db) == defect


def test_solution_checks_mean_field_sign():
    params = ModelParams(6.0, -1.0, 2.0, 0.5)
    sol = _solution(0.5, 0.0, 2.5, PhaseLabel.PURE_MEAN_FIELD, 2.0)
    checks = solution_checks(sol, params)
    assert not checks["mean_field_sign"]


def test_report_round_trip_dict():
    from gapforge.scalar_gap import solve_all

    report = solve_all(ModelParams(4.0, 0.0, 1.0, 0.5))
    payload = report.as_dict()
    assert payload["multiplicity"] == 2
    assert [s["phase"] for s in payload["solutions"]] == [
        "pure_mean_field", "mixed_lower", "mixed_upper"]
    assert payload["solutions"][1]["coeffs"].keys() == {"c", "s", "phi"}


# ---------------------------------------------------------------------------
# the value types are frozen, slotted dataclasses


def _report():
    from gapforge.scalar_gap import solve_all

    return solve_all(ModelParams(4.0, 0.0, 1.0, 0.5))


def _values():
    report = _report()
    return [report.params, report.pure.coeffs, report.mixed[0], report]


@pytest.mark.parametrize("index", range(4))
def test_value_types_are_frozen_and_have_no_dict(index):
    value = _values()[index]
    name = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, name, getattr(value, name))
    assert not hasattr(value, "__dict__")


def test_equal_values_hash_equal():
    assert ModelParams(4, 0, 1, 0.5) == ModelParams(4.0, 0.0, 1.0, 0.5)
    assert hash(ModelParams(4, 0, 1, -0.0)) == hash(ModelParams(4.0, 0.0, 1.0, 0.0))
    assert _report() == _report()
    assert hash(_report()) == hash(_report())
    assert len({ModelParams(4.0, 0.0, 1.0, 0.5), ModelParams(4.0, 0.0, 1.0, 0.5)}) == 1


def test_replace_builds_a_changed_copy():
    report = _report()
    params = dataclasses.replace(report.params, mu=2)
    assert params == ModelParams(4.0, 0.0, 2.0, 0.5) and type(params.mu) is float
    with pytest.raises(NegativeChemicalPotential):
        dataclasses.replace(report.params, mu=-1.0)
    # the corruption a benchmark self-test plants into a report
    bad = dataclasses.replace(report.solutions[1], w_bar=report.solutions[1].w_bar * 1.01)
    planted = dataclasses.replace(report, solutions=(report.solutions[0], bad,
                                                     *report.solutions[2:]))
    assert planted.solutions[1].w_bar == report.solutions[1].w_bar * 1.01
    assert planted.solutions[2] is report.solutions[2]
    # the counts and flags derived from a copy are the copy's own
    assert report.multiplicity == 2
    assert dataclasses.replace(report, solutions=report.solutions[:1]).multiplicity == 0
    unpaired = dataclasses.replace(report.solutions[1], delta_b=0.0)
    assert report.solutions[1].delta_b_sign_ambiguous
    assert not unpaired.delta_b_sign_ambiguous
    assert not unpaired.as_dict()["delta_b_sign_ambiguous"]


def test_asdict_and_as_dict_agree():
    report = _report()
    assert dataclasses.asdict(report.params) == {
        "lambda_b": 4.0, "lambda_m": 0.0, "mu": 1.0, "temperature": 0.5}
    sol = report.mixed[0]
    expected = sol.as_dict()
    plain = dataclasses.asdict(sol)
    # the stored fields, and the derived rotation and flag in their places
    assert list(plain) == ["delta_m", "delta_b", "w_bar", "phase", "residual", "omega_eff"]
    assert list(expected) == ["delta_m", "delta_b", "w_bar", "coeffs", "phase", "residual",
                              "delta_b_sign_ambiguous", "omega_eff"]
    assert expected["coeffs"] == dataclasses.asdict(sol.coeffs)
    assert all(plain[k] == expected[k] for k in plain if k != "phase")
    assert plain["phase"] is sol.phase and expected["phase"] == sol.phase.value
    assert report.as_dict()["params"] == dataclasses.asdict(report.params)


def test_report_pickle_round_trip():
    report = _report()
    copy = pickle.loads(pickle.dumps(report))
    assert copy == report
    assert copy.as_dict() == report.as_dict()
    assert copy.solutions[0].phase is PhaseLabel.PURE_MEAN_FIELD


# ---------------------------------------------------------------------------
# a ModelParams is validated once, when it is built


@pytest.mark.parametrize("values, error", [
    ((1, 0, -0.5, 1), NegativeChemicalPotential),
    ((1, 0, 1, -1), NegativeTemperature),
    ((math.nan, 0, 1, 1), InvalidParameter),
    ((1, math.inf, 1, 1), InvalidParameter),
    ((1, 0, math.inf, 1), InvalidParameter),
])
def test_construction_rejects_bad_values(values, error):
    with pytest.raises(error):
        ModelParams(*values)


def test_construction_stores_plain_floats_and_canonical_zero_temperature():
    params = ModelParams(np.float64(4.0), 1, 1, -0.0)
    for value in (params.lambda_b, params.lambda_m, params.mu, params.temperature):
        assert type(value) is float
    assert params.temperature == 0.0
    assert math.copysign(1.0, params.temperature) == 1.0


class _Float(float):
    pass


@pytest.mark.parametrize("value", [3, True, np.float64(0.25), _Float(0.5), "0.75"],
                         ids=["int", "bool", "numpy-float64", "float-subclass", "str"])
def test_construction_stores_any_numeric_kind_as_a_plain_float(value):
    from gapforge import core_types

    with mock.patch.object(core_types, "validate", wraps=core_types.validate) as checked:
        for i in range(4):
            fields = [4.0, 1.0, 1.0, 0.5]
            fields[i] = value
            stored = dataclasses.astuple(ModelParams(*fields))
            assert [type(v) for v in stored] == [float] * 4
            assert stored[i] == float(value)
            assert checked.call_count == i + 1  # once per construction


def test_plain_floats_are_validated_once_and_a_negative_zero_temperature_stored_as_zero():
    from gapforge import core_types

    with mock.patch.object(core_types, "validate", wraps=core_types.validate) as checked:
        assert dataclasses.astuple(ModelParams(4.0, 1.0, -0.0, 0.5)) == (4.0, 1.0, -0.0, 0.5)
        params = ModelParams(4.0, 1.0, 1.0, -0.0)
        with pytest.raises(NegativeTemperature):
            ModelParams(4.0, 1.0, 1.0, -0.5)
    assert math.copysign(1.0, params.temperature) == 1.0
    assert checked.call_count == 3


def test_validate_returns_the_built_instance_itself():
    params = ModelParams(4.0, 1.0, 1.0, 0.5)
    assert validate(params) is params


@pytest.fixture
def validate_calls(monkeypatch):
    """Count calls of ``core_types.validate`` in every module that holds it."""
    import sys

    from gapforge import core_types

    real = core_types.validate
    calls = []

    def counting(params):
        calls.append(params)
        return real(params)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gapforge" and getattr(module, "validate", None) is real:
            monkeypatch.setattr(module, "validate", counting)
    return calls


def test_solvers_do_not_revalidate_a_built_params(validate_calls):
    from gapforge import asymptotics
    from gapforge.kernel_solver import (
        PARABOLIC,
        IterationControls,
        self_consistent_solve,
        shell_aligned_grid,
        shell_kernels,
    )
    from gapforge.scalar_gap import solve_all
    from gapforge.thermal import ModeTable

    two_roots = ModelParams(4.0, 0.0, 1.0, 0.5)
    repulsive = ModelParams(4.0, 0.1, 1.0, 0.5)
    attractive = ModelParams(-1.0, -1.5, 2.0, 0.5)
    grid = shell_aligned_grid(two_roots.mu, 0.05, n_shell=20, p_max=3.0, n_outer=40)
    kernels = shell_kernels(two_roots, 0.05)
    validate_calls.clear()

    assert solve_all(two_roots).multiplicity == 2
    asymptotics.regime_IA(repulsive)
    asymptotics.regime_IB(repulsive)
    asymptotics.regime_IIA(attractive)
    asymptotics.regime_IIB(attractive)
    ModeTable.build([0.0, 1.0], [1.0, 2.0], [0.0, 0.5], repulsive)
    self_consistent_solve(grid, kernels, PARABOLIC, two_roots, IterationControls())
    assert validate_calls == []


def test_scan_validates_each_lattice_point_once(validate_calls):
    from gapforge.phase_diagram import scan

    rows = scan({"lambda_b": (0.5, 6.0, 10), "mu": (0.0, 3.0, 10)},
                {"lambda_m": 0.3, "temperature": 0.4})
    assert len(rows) == 100
    assert len(validate_calls) == 100


# ---------------------------------------------------------------------------
# solution_checks gives the map of its former, field-by-field form


def _solution_checks_before(sol, params):
    """``solution_checks`` as it read before it was built in one pass.

    It reads the stored effective energy, and holds it to ``mu + delta_m``.
    """
    c, s = sol.coeffs.c, sol.coeffs.s
    omega_eff = sol.omega_eff
    slack = 1.0 + RESIDUAL_BOUND
    checks = {}
    checks["coefficient_norm"] = abs(c * c + s * s - 1.0) <= 1e-12
    checks["energy_identity"] = (
        energy_identity_defect(sol.w_bar, omega_eff, sol.delta_b) <= RESIDUAL_BOUND)
    checks["effective_energy"] = (abs(omega_eff - params.mu - sol.delta_m)
                                  <= RESIDUAL_BOUND * max(params.mu, abs(sol.delta_m)))
    if sol.w_bar != 0.0:
        checks["rotation_consistency"] = (
            abs((c * c - s * s) - omega_eff / sol.w_bar) <= RESIDUAL_BOUND
            and abs(2.0 * c * s - sol.delta_b / sol.w_bar) <= RESIDUAL_BOUND
        )
    else:
        checks["rotation_consistency"] = sol.delta_b == 0.0
    if params.lambda_m != 0.0:
        checks["mean_field_sign"] = sol.delta_m * params.lambda_m >= 0.0
        checks["mean_field_bound"] = abs(sol.delta_m) <= 2.0 * abs(params.lambda_m) * slack
    else:
        checks["mean_field_sign"] = sol.delta_m == 0.0
        checks["mean_field_bound"] = True
    if omega_eff >= 0.0:
        checks["mixing_angle_bound"] = abs(c) >= math.sqrt(0.5) - 1e-12
    if sol.phase is not PhaseLabel.PURE_MEAN_FIELD:
        checks["pairing_below_quasienergy"] = sol.delta_b <= sol.w_bar * slack
        checks["quasienergy_above_coupling_bound"] = sol.w_bar <= abs(params.lambda_b) * slack
        band = RESIDUAL_BOUND * params.mu
        if params.lambda_b > 0:
            checks["fermi_surface_side"] = sol.w_bar > params.mu - band
        elif params.lambda_b < 0:
            checks["fermi_surface_side"] = sol.w_bar < params.mu + band
        if sol.delta_b > 0.0:
            w = sol.w_bar
            # the rounding of w_bar, omega_eff and delta_m may hide a gap of
            # delta_b**2/(w_bar + omega_eff)
            rounding = 4.0 * (math.ulp(omega_eff) + math.ulp(sol.delta_m))
            gap = w - omega_eff + 12.0 * math.ulp(w) + rounding
            checks["strictly_above_effective_energy"] = w > omega_eff or (
                w > 0.0 and gap > 0.0 and sol.delta_b < math.sqrt(2.0 * (gap / w)) * w)
    return checks


def _assert_checks_as_before(sol, params):
    got = solution_checks(sol, params)
    assert list(got.items()) == list(_solution_checks_before(sol, params).items()), (sol, params)
    assert all(type(v) is bool for v in got.values()), got


def _planted_solutions():
    """The right and the planted wrong solutions of the tests above, with their params."""
    from gapforge.scalar_gap import solve_all

    cases = []
    for c in (1.0, 1e-100, 1e-200, 1e-300, 1e150, 1e200, 1e300):
        params = ModelParams(6.0 * c, 1.0 * c, 2.0 * c, 0.5 * c)
        cases += [(_solution(c, 4.0 * c, 5.0 * c, PhaseLabel.MIXED_UPPER, 2.0 * c), params),
                  (_solution(c, 4.0 * c, 5.5 * c, PhaseLabel.MIXED_UPPER, 2.0 * c), params)]
    for c in (1.0, 1e-20):
        params = ModelParams(4.0 * c, 0.3 * c, 1.0 * c, 0.3 * c)
        upper = solve_all(params).mixed[-1]
        tripled = dataclasses.replace(upper, delta_m=3.0 * upper.delta_m,
                                      delta_b=3.0 * upper.delta_b, w_bar=3.0 * upper.w_bar)
        cases += [(upper, params), (tripled, params)]
    for k in (0, 900, -900):
        c = math.ldexp(1.0, k)
        params = ModelParams(1e20 * c, 0.0, c, c)
        correct = _solution(0.0, 2e-10 * c, c, PhaseLabel.MIXED_LOWER, c)
        cases += [(correct, params), (dataclasses.replace(correct, delta_b=1e-5 * c), params)]
    cases.append((_solution(0.5, 0.0, 2.5, PhaseLabel.PURE_MEAN_FIELD, 2.0),
                  ModelParams(6.0, -1.0, 2.0, 0.5)))
    return cases


@pytest.mark.parametrize("sol, params", _planted_solutions())
def test_solution_checks_match_the_field_by_field_form_on_planted_solutions(sol, params):
    _assert_checks_as_before(sol, params)


def test_solution_checks_match_the_field_by_field_form_on_the_benchmark_mix():
    # every solution of the 20,000 seed-13 points the point_solve benchmark solves
    import sys
    from pathlib import Path

    from gapforge.scalar_gap import solve_all

    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    saved = {name: sys.modules.pop(name, None) for name in ("inputs", "oracle")}
    sys.path.insert(0, bench)
    try:
        import inputs

        points = inputs.point_mix(13, 20000)
    finally:
        sys.path.remove(bench)
        for name, module in saved.items():
            sys.modules.pop(name, None)
            if module is not None:
                sys.modules[name] = module
    count = 0
    for p in points:
        report = solve_all(ModelParams(p.lambda_b, p.lambda_m, p.mu, p.temperature))
        for sol in report.solutions:
            _assert_checks_as_before(sol, report.params)
            count += 1
    assert count > len(points)


def _at_bound(quantity, k):
    """The 3-4-5 upper solution with ``quantity`` moved ``k`` allowances past its bound.

    Also returns the rotation: ``None`` where it is the derived one, and for
    ``c`` and the coefficient ``norm`` the coefficients to plant in its place.
    """
    dm, db, w, lb, mu = 1.0, 4.0, 5.0, 6.0, 2.0
    step = 1.0 + k * RESIDUAL_BOUND
    rotation = None
    if quantity == "delta_b":
        db = w * step
    elif quantity == "w_bar":
        w = lb * step
    elif quantity == "delta_m":
        dm = 2.0 * step
    elif quantity == "mu":
        mu, lb = w * step, -lb if k < 0 else lb
    elif quantity == "c":
        c = math.sqrt(0.5) - abs(k) * 1e-12
        rotation = BogoliubovCoefficients(c, math.sqrt(1.0 - c * c), math.acos(c))
    else:  # the coefficient norm
        c, s = math.sqrt(0.8) * (1.0 + k * 1e-12), math.sqrt(0.2)
        rotation = BogoliubovCoefficients(c, s, math.atan2(s, c))
    sol = _solution(dm, db, w, PhaseLabel.MIXED_UPPER, mu)
    return sol, ModelParams(lb, 1.0, mu, 0.5), rotation


@pytest.mark.parametrize("k", [-2.5, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.5, 5.0, 20.0])
@pytest.mark.parametrize("quantity", ["delta_b", "w_bar", "delta_m", "mu", "c", "norm"])
def test_solution_checks_match_the_field_by_field_form_at_each_bound(quantity, k):
    sol, params, rotation = _at_bound(quantity, k)
    if rotation is None:
        _assert_checks_as_before(sol, params)
        return
    # a solution derives its rotation through the module's bogoliubov_from_gaps
    from gapforge import core_types

    with mock.patch.object(core_types, "bogoliubov_from_gaps", return_value=rotation):
        assert sol.coeffs is rotation
        _assert_checks_as_before(sol, params)
        check = solution_checks(sol, params)["mixing_angle_bound" if quantity == "c"
                                             else "coefficient_norm"]
    if abs(k) != 1.0:  # one allowance past the bound is a tie to rounding
        assert check is (abs(k) < 1.0)


_any_float = st.floats() | st.sampled_from([-0.0, 5e-324, -5e-324, 1e300, -1e300])


@given(values=st.tuples(*[_any_float] * 3), phase=st.sampled_from(PhaseLabel),
       lb=_any_float, lm=_any_float, mu=st.floats(min_value=0.0, allow_infinity=False),
       temperature=st.floats(min_value=0.0))
def test_solution_checks_match_the_field_by_field_form_on_any_solution(
        values, phase, lb, lm, mu, temperature):
    assume(math.isfinite(lb) and math.isfinite(lm))
    dm, db, w = values
    sol = GapSolution(dm, db, w, phase, 0.0, mu + dm)
    _assert_checks_as_before(sol, ModelParams(lb, lm, mu, temperature))


@given(lb=st.floats(-20.0, 20.0), lm=st.floats(-3.0, 3.0), mu=st.floats(0.0, 5.0),
       temperature=st.floats(0.0, 3.0), scale=st.sampled_from([1.0, 1e-300, 1e300]),
       factor=st.floats(0.5, 2.0))
def test_solution_checks_match_the_field_by_field_form_on_corrupted_solutions(
        lb, lm, mu, temperature, scale, factor):
    from gapforge.scalar_gap import solve_all

    params = ModelParams(lb * scale, lm * scale, mu * scale, temperature * scale)
    for sol in solve_all(params).solutions:
        _assert_checks_as_before(sol, params)
        for name in ("delta_m", "delta_b", "w_bar"):
            planted = dataclasses.replace(sol, **{name: getattr(sol, name) * factor})
            _assert_checks_as_before(planted, params)
