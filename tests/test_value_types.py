"""The value types keep every behaviour of the dataclass decorator (see ``value_parity``)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import value_parity
from gapforge.core_types import (
    BogoliubovCoefficients,
    GapSolution,
    ModelParams,
    PhaseLabel,
    RegionLabel,
    SolveReport,
)

# every float, -0.0, subnormals, infinities and nan payloads among them
_floats = st.floats() | st.sampled_from([-0.0, 5e-324, -5e-324, math.nan, -math.nan])
_finite = st.floats(allow_nan=False, allow_infinity=False)
_params = st.builds(ModelParams, _finite, _finite, _finite.map(abs),
                    st.floats(min_value=0.0) | st.sampled_from([-0.0, 5e-324]))
_coeffs = st.builds(BogoliubovCoefficients, _floats, _floats, _floats)
_solutions = st.builds(GapSolution, _floats, _floats, _floats, _coeffs,
                       st.sampled_from(PhaseLabel), _floats)
_reports = (st.builds(SolveReport, _params, st.lists(_solutions, max_size=3).map(tuple),
                      st.sampled_from(RegionLabel))
            | st.builds(SolveReport, _params, st.lists(_solutions, max_size=3).map(tuple),
                        st.sampled_from(RegionLabel), st.lists(st.text(), max_size=2).map(tuple)))


@pytest.mark.parametrize("cls", value_parity.VALUE_TYPES, ids=lambda cls: cls.__name__)
def test_the_signature_names_the_fields_with_their_defaults(cls):
    value_parity.check_signature(cls)


@given(value=st.one_of(_params, _coeffs, _solutions, _reports))
def test_every_rebuild_of_a_value_keeps_its_bits_and_it_stays_frozen(value):
    value_parity.check_value(value)


# the kinds a ModelParams field converts: int, bool, numpy.float64, a float subclass, str
_kinds = st.one_of(
    _floats,
    st.integers(min_value=-10**300, max_value=10**300),
    st.booleans(),
    _floats.map(np.float64),
    _floats.map(value_parity.FloatSubclass),
    _floats.map(repr),
    st.sampled_from(["", "zero"]),
)


@given(values=st.tuples(_kinds, _kinds, _kinds, _kinds))
@example(values=(4.0, 1.0, 1.0, -0.0))
@example(values=(4.0, 1.0, -0.0, 0.5))
@example(values=(4, True, np.float64(0.25), value_parity.FloatSubclass(0.5)))
@example(values=(4.0, 1.0, 1.0, "-0.0"))
@example(values=(4.0, 1.0, 1.0, np.float64(-0.0)))
def test_model_params_converts_and_validates_as_the_decorator_built_rule(values):
    value_parity.check_model_params(*values)


def test_the_seeded_driver_passes():
    assert value_parity.main(draws=100) == 0
