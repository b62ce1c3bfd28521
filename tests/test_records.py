"""The six immutable records: repr, equality, hashing, immutability, construction.

Interval, Expansion, FunctionSpec, ApproximationModel, PointReport and
RunConfig are compared by value, shown by repr, and cannot be changed after
construction.  The reprs below were recorded from the frozen-dataclass
versions of these classes and must not move.
"""

import copy
import math
import pickle
from fractions import Fraction

import pytest

from funcseries import (
    ApproximationModel,
    Expansion,
    FunctionSpec,
    Interval,
    PointReport,
    assemble,
    builtin_function,
    get_expansion,
)
from funcseries.cli import RunConfig
from funcseries.exact import ExactScalar

_EXPANSION_FIELDS = ("key", "label", "params", "domain", "image", "side", "increasing",
                     "implicit", "_g", "_ginv", "_dginv", "_d1")


def _a7():
    return get_expansion("a7", alpha=Fraction(9, 4), beta=-2)


def _model():
    return assemble(get_expansion("a1"), builtin_function("exp"), 2)


def _copy_of(record):
    """A second, equal instance built from the first one's fields."""
    if isinstance(record, Interval):
        return Interval(record.lo, record.hi, record.lo_closed, record.hi_closed)
    if isinstance(record, Expansion):
        return Expansion(**{name: getattr(record, name) for name in _EXPANSION_FIELDS})
    if isinstance(record, FunctionSpec):
        return FunctionSpec(record.name, record.x0, record.domain, record._deriv,
                            record._value)
    if isinstance(record, ApproximationModel):
        return ApproximationModel(record.expansion, record.func, record.order,
                                  record.coefficients, record.route)
    if isinstance(record, PointReport):
        return PointReport(record.x, record.approx, record.exact, record.delta, record.note)
    return RunConfig(record.command, record.expansions, record.alpha, record.beta,
                     record.w, record.function, record.terms, record.at, record.grid,
                     record.out, record.fmt, record.n_list)


_RECORDS = {
    "Interval": (
        lambda: Interval(-1.0, 2.0, hi_closed=True),
        "Interval(lo=-1.0, hi=2.0, lo_closed=False, hi_closed=True)",
    ),
    "Expansion": (
        _a7,
        "Expansion(key='a7', label='powers of (x^2 + 2 sqrt(alpha) x)/beta', "
        "params=(('alpha', ExactScalar(9/4)), ('beta', ExactScalar(-2))), "
        "domain=Interval(lo=-1.5, hi=inf, lo_closed=True, hi_closed=False), "
        "image=Interval(lo=-inf, hi=1.125, lo_closed=False, hi_closed=True), "
        "side='both', increasing=False, implicit=False)",
    ),
    "FunctionSpec": (
        lambda: builtin_function("ln1p"),
        "FunctionSpec(name='ln1p', x0=ExactScalar(0), "
        "domain=Interval(lo=-1.0, hi=inf, lo_closed=False, hi_closed=False))",
    ),
    "ApproximationModel": (
        _model,
        "ApproximationModel(expansion=Expansion(key='a1', label='powers of ln(1+x)', "
        "params=(), domain=Interval(lo=-1.0, hi=inf, lo_closed=False, hi_closed=False), "
        "image=Interval(lo=-inf, hi=inf, lo_closed=False, hi_closed=False), "
        "side='both', increasing=True, implicit=False), "
        "func=FunctionSpec(name='exp', x0=ExactScalar(0), "
        "domain=Interval(lo=-inf, hi=inf, lo_closed=False, hi_closed=False)), "
        "order=2, coefficients=(ExactScalar(1), ExactScalar(1), ExactScalar(1)), "
        "route='bell')",
    ),
    "PointReport": (
        lambda: PointReport(0.5, 1.0, 1.25, -0.25),
        "PointReport(x=0.5, approx=1.0, exact=1.25, delta=-0.25, note='')",
    ),
    "RunConfig": (
        lambda: RunConfig("eval", ("a8",), alpha=Fraction(1, 2), function="ln1p",
                          grid=(-1.0, 1.0, 3)),
        "RunConfig(command='eval', expansions=('a8',), alpha=Fraction(1, 2), "
        "beta=None, w=None, function='ln1p', terms=8, at=None, grid=(-1.0, 1.0, 3), "
        "out=None, fmt='csv', n_list=(3, 7, 10, 20))",
    ),
}

_NAMES = sorted(_RECORDS)


@pytest.mark.parametrize("name", _NAMES)
def test_repr_is_pinned(name):
    make, text = _RECORDS[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", _NAMES)
def test_equal_instances_compare_and_hash_equal(name):
    record = _RECORDS[name][0]()
    twin = _copy_of(record)
    assert twin is not record
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert len({record, twin}) == 1


@pytest.mark.parametrize("name", _NAMES)
def test_other_types_are_not_implemented(name):
    record = _RECORDS[name][0]()
    assert record.__eq__(object()) is NotImplemented
    assert record.__eq__(repr(record)) is NotImplemented
    assert record != 1 and not record == None  # noqa: E711


@pytest.mark.parametrize("name", _NAMES)
def test_assignment_and_deletion_raise(name):
    record = _RECORDS[name][0]()
    field = repr(record).split("(", 1)[1].split("=", 1)[0]
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert repr(record) == before


def test_subclass_with_equal_fields_is_another_type():
    class Closed(Interval):
        pass

    class Noted(PointReport):
        pass

    assert Closed(0.0, 1.0) != Interval(0.0, 1.0)
    assert Interval(0.0, 1.0).__eq__(Closed(0.0, 1.0)) is NotImplemented
    assert Noted(0.5, 1.0, 1.0, 0.0) != PointReport(0.5, 1.0, 1.0, 0.0)


def test_one_field_difference_breaks_equality():
    assert Interval(0.0, 1.0) != Interval(0.0, 1.0, lo_closed=True)
    assert PointReport(0.5, 1.0, 1.0, 0.0) != PointReport(0.5, 1.0, 1.0, 0.0, "note")
    assert RunConfig("table") != RunConfig("table", terms=9)
    model = _model()
    assert model != ApproximationModel(model.expansion, model.func, model.order,
                                       model.coefficients, "composition")
    # an entry's evaluators are functions of (key, params): two builds of one
    # family are equal, and a different parameter set is a different entry
    assert get_expansion("a8") == get_expansion("a8")
    assert hash(get_expansion("a8")) == hash(get_expansion("a8"))
    assert get_expansion("a5") != get_expansion("a5", alpha=3)
    func = builtin_function("exp")
    assert assemble(get_expansion("a1"), func, 2) == assemble(get_expansion("a1"), func, 2)


def test_positional_and_keyword_construction_with_defaults():
    assert Interval(0.0, 1.0) == Interval(lo=0.0, hi=1.0, lo_closed=False, hi_closed=False)
    assert (Interval(0.0, 1.0).lo_closed, Interval(0.0, 1.0).hi_closed) == (False, False)
    with pytest.raises(TypeError):
        Interval(0.0)

    p = PointReport(1.0, 2.0, 3.0, -1.0)
    assert p.note == ""
    assert p == PointReport(x=1.0, approx=2.0, exact=3.0, delta=-1.0, note="")
    assert PointReport(1.0, 2.0, 3.0, -1.0, "n").note == "n"
    with pytest.raises(TypeError):
        PointReport(1.0, 2.0, 3.0)

    c = RunConfig("table")
    assert (c.expansions, c.alpha, c.beta, c.w, c.function, c.terms, c.at, c.grid,
            c.out, c.fmt, c.n_list) == ((), None, None, None, None, 8, None, None,
                                        None, "csv", (3, 7, 10, 20))
    assert RunConfig(command="table", terms=3, n_list=(1,)) == RunConfig(
        "table", (), None, None, None, None, 3, None, None, None, "csv", (1,))
    with pytest.raises(TypeError):
        RunConfig()

    f = builtin_function("exp")
    spec = FunctionSpec("e", ExactScalar(0), f.domain, _deriv=f._deriv)
    assert spec._value is None and spec.value_at(0.5) is None
    assert spec == FunctionSpec(name="e", x0=ExactScalar(0), domain=f.domain,
                                _deriv=f._deriv, _value=None)
    assert spec.derivative(3) == 1

    e = _a7()
    kw = Expansion(**{name: getattr(e, name) for name in _EXPANSION_FIELDS})
    pos = Expansion(*(getattr(e, name) for name in _EXPANSION_FIELDS))
    assert kw == pos == e

    m = _model()
    assert ApproximationModel(expansion=m.expansion, func=m.func, order=m.order,
                              coefficients=m.coefficients, route=m.route) == m


def test_interval_validation():
    for lo, hi, flags in [(math.nan, 1.0, ()), (0.0, math.nan, ()), (2.0, 1.0, ()),
                          (-math.inf, 1.0, (True, False)), (0.0, math.inf, (False, True))]:
        with pytest.raises(ValueError):
            Interval(lo, hi, *flags)
    assert Interval(1.0, 1.0, True, True).contains(1.0)


@pytest.mark.parametrize("make", [lambda: Interval(-1.0, 2.0, True),
                                  lambda: PointReport(0.5, 1.0, 1.25, -0.25, "x"),
                                  lambda: RunConfig("eval", ("a1",), terms=4)])
def test_plain_value_records_copy_and_pickle(make):
    record = make()
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert twin == record and repr(twin) == repr(record)
