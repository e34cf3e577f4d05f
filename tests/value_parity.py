"""Parity of the value types with the dataclass decorator's own behaviour.

``ModelParams``, ``BogoliubovCoefficients``, ``GapSolution`` and
``SolveReport`` are frozen, slotted dataclasses with hand-written
``__init__`` methods.  The checks here hold each one to what the decorator
gives a class with the same fields: construction by position and by keyword,
``dataclasses.replace``, ``copy.replace`` where it exists, pickling and
copying, equality, hashing, ``repr``, the signature, no ``__dict__``, and
``FrozenInstanceError`` on assignment and deletion.  Every float is compared
by its bits, so ``-0.0``, nan payloads and subnormals count.  A
``ModelParams`` is also held to a decorator-built copy of its conversion
rule.

Only the standard library is used.  ``test_value_types`` draws the values
with hypothesis; run as a script, this module checks a fixed seeded set
instead, for an interpreter without numpy, pytest or hypothesis::

    PYTHONPATH=src python tests/value_parity.py
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import math
import pickle
import random
import struct
import sys

from gapforge import core_types
from gapforge.core_types import (
    BogoliubovCoefficients,
    GapSolution,
    ModelParams,
    PhaseLabel,
    RegionLabel,
    SolveReport,
)
from gapforge.errors import GapEquationError

VALUE_TYPES = (ModelParams, BogoliubovCoefficients, GapSolution, SolveReport)


def bits(value):
    """``value`` as nested tuples in which each float is its type and its bit pattern."""
    if isinstance(value, float):
        return (type(value), struct.pack("<d", value))
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                tuple(bits(getattr(value, f.name)) for f in dataclasses.fields(value)))
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return (type(value), value)


def _has_nan(value) -> bool:
    if isinstance(value, float):
        return math.isnan(value)
    if dataclasses.is_dataclass(value):
        return any(_has_nan(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return any(_has_nan(v) for v in value)
    return False


def _reference(cls, **namespace):
    """The class the decorator builds, with its own ``__init__``, from ``cls``'s fields."""
    specs = [(f.name, f.type) if f.default is dataclasses.MISSING
             else (f.name, f.type, dataclasses.field(default=f.default))
             for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(f"Reference{cls.__name__}", specs, namespace=namespace,
                                      frozen=True, slots=True)


def _reference_post_init(self) -> None:
    # ModelParams.__post_init__ as the decorator-built class had it
    lb, lm, mu, temp = self.lambda_b, self.lambda_m, self.mu, self.temperature
    if (type(lb) is not float or type(lm) is not float or type(mu) is not float
            or type(temp) is not float or temp == 0.0):
        set_field = object.__setattr__
        set_field(self, "lambda_b", float(lb))
        set_field(self, "lambda_m", float(lm))
        set_field(self, "mu", float(mu))
        temp = float(temp)
        set_field(self, "temperature", 0.0 if temp == 0.0 else temp)
    core_types.validate(self)


REFERENCES = {
    ModelParams: _reference(ModelParams, __post_init__=_reference_post_init),
    BogoliubovCoefficients: _reference(BogoliubovCoefficients),
    GapSolution: _reference(GapSolution),
    SolveReport: _reference(SolveReport),
}


def _outcome(build):
    """``("value", field bits)`` of what ``build()`` returns, or ``("raises", type, text)``."""
    try:
        value = build()
    except Exception as exc:  # noqa: BLE001 - the two sides must fail alike
        return ("raises", type(exc), str(exc))
    return ("value", bits(value)[1])


def _refuses(action) -> bool:
    try:
        action()
    except dataclasses.FrozenInstanceError:
        return True
    return False


def check_signature(cls) -> None:
    """``inspect.signature(cls)`` names the fields, in order, with their defaults."""
    params = list(inspect.signature(cls).parameters.values())
    fields = dataclasses.fields(cls)
    assert [p.name for p in params] == [f.name for f in fields], cls
    reference = list(inspect.signature(REFERENCES[cls]).parameters.values())
    for param, field, ref in zip(params, fields, reference):
        assert param.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD, (cls, param)
        default = inspect.Parameter.empty if field.default is dataclasses.MISSING else field.default
        assert param.default == default == ref.default, (cls, param)


def check_value(value) -> None:
    """Every way of rebuilding ``value`` gives the same bits; assignment and deletion fail."""
    cls = type(value)
    fields = dataclasses.fields(cls)
    args = [getattr(value, f.name) for f in fields]
    kwargs = dict(zip((f.name for f in fields), args))
    expected = bits(value)
    copies = [cls(*args), cls(**kwargs), pickle.loads(pickle.dumps(value)),
              copy.deepcopy(value), copy.copy(value), dataclasses.replace(value)]
    copies += [dataclasses.replace(value, **{name: arg}) for name, arg in kwargs.items()]
    if hasattr(copy, "replace"):  # Python 3.13
        copies.append(copy.replace(value))
    comparable = not _has_nan(value)  # nan equals no other nan object
    for other in copies:
        assert bits(other) == expected, (value, other)
        assert repr(other) == repr(value)
        if comparable:
            assert other == value and hash(other) == hash(value), (value, other)
    assert _outcome(lambda: REFERENCES[cls](*args)) == ("value", expected[1]), value
    for name in kwargs:
        assert _refuses(lambda: setattr(value, name, kwargs[name])), (value, name)
        assert _refuses(lambda: delattr(value, name)), (value, name)
    assert not hasattr(value, "__dict__")
    assert bits(value) == expected


def check_model_params(*values) -> None:
    """``ModelParams(*values)`` stores, or refuses, what the decorator-built rule did.

    It converts as that rule does, then calls the module-global ``validate``
    once, whether or not the values pass.  A value that ``float()``
    refuses stops it before that call.
    """
    calls = []
    validate = core_types.validate

    def counting(params):
        calls.append(params)
        return validate(params)

    core_types.validate = counting
    try:
        got = _outcome(lambda: ModelParams(*values))
        got_calls = len(calls)
        want = _outcome(lambda: REFERENCES[ModelParams](*values))
    finally:
        core_types.validate = validate
    assert got == want, (values, got, want)
    converted = got[0] == "value" or issubclass(got[1], GapEquationError)
    assert got_calls == converted, (values, got_calls)


# ---------------------------------------------------------------------------
# the seeded driver


class FloatSubclass(float):
    pass


_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, 1.0, -1.0, 0.5,
            sys.float_info.max, -sys.float_info.max, math.inf, -math.inf, math.nan,
            -math.nan, struct.unpack("<d", struct.pack("<Q", 0x7FF0000000000123))[0])


def _float(rng: random.Random) -> float:
    pick = rng.randrange(3)
    if pick == 0:
        return rng.choice(_SPECIAL)
    if pick == 1:
        return rng.uniform(-10.0, 10.0)
    return struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]


def _any_kind(rng: random.Random):
    x = _float(rng)
    pick = rng.randrange(6)
    if pick == 0 and math.isfinite(x):
        return int(x)
    if pick == 1:
        return rng.random() < 0.5
    if pick == 2:
        return FloatSubclass(x)
    if pick == 3:
        return repr(x)
    return x


def _params(rng: random.Random) -> ModelParams:
    mu = abs(_float(rng))
    temperature = abs(_float(rng))
    lb, lm = _float(rng), _float(rng)
    finite = [v if math.isfinite(v) else 1.0 for v in (lb, lm, mu)]
    return ModelParams(*finite, temperature if not math.isnan(temperature) else 0.5)


def _coeffs(rng: random.Random) -> BogoliubovCoefficients:
    return BogoliubovCoefficients(_float(rng), _float(rng), _float(rng))


def _solution(rng: random.Random) -> GapSolution:
    return GapSolution(_float(rng), _float(rng), _float(rng), _coeffs(rng),
                       rng.choice(list(PhaseLabel)), _float(rng))


def _report(rng: random.Random) -> SolveReport:
    solutions = tuple(_solution(rng) for _ in range(rng.randrange(4)))
    region = rng.choice(list(RegionLabel))
    if rng.random() < 0.5:
        return SolveReport(_params(rng), solutions, region)
    return SolveReport(_params(rng), solutions, region, tuple(repr(_float(rng)) for _ in range(2)))


def main(draws: int = 400, seed: int = 36) -> int:
    from gapforge.scalar_gap import solve_all

    rng = random.Random(seed)
    for cls in VALUE_TYPES:
        check_signature(cls)
    values = [solve_all(ModelParams(4.0, 0.0, 1.0, 0.5)),
              solve_all(ModelParams(4.0, 0.3, 1.0, 0.0))]
    for _ in range(draws):
        values += [_params(rng), _coeffs(rng), _solution(rng), _report(rng)]
    for value in values:
        check_value(value)
    for _ in range(draws):
        check_model_params(*(_any_kind(rng) for _ in range(4)))
    for temperature in (0.0, -0.0, 0, False, "-0.0", FloatSubclass(-0.0)):
        check_model_params(4.0, 1.0, 1.0, temperature)
    print(f"value parity: {len(values)} values and {draws + 6} constructions agree "
          f"on Python {sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
