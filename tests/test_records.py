"""The immutable value types: repr, equality, hashing, immutability, construction.

Interval, Expansion, FunctionSpec, ApproximationModel and PointReport are
compared by value, shown by repr, and cannot be changed after
construction.  The reprs below were recorded from the frozen-dataclass
versions of these classes and must not move.  These five, ExactScalar,
TruncatedSeries and the registry's Family share one record base, and each
of them copies and pickles to an equal twin.
"""

import copy
import math
import pickle
from fractions import Fraction

import pytest

from funcseries import (
    FAMILIES,
    FAMILY_KEYS,
    ApproximationModel,
    Family,
    DomainError,
    Expansion,
    FunctionSpec,
    Interval,
    PointReport,
    assemble,
    builtin_function,
    evaluate,
    function_from_derivatives,
    get_expansion,
)
from funcseries.exact import ExactScalar
from funcseries.pseries import TruncatedSeries

_EXPANSION_FIELDS = ("key", "label", "params", "domain", "image", "side", "increasing",
                     "implicit", "_g", "_ginv_d", "_d1")


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
        return FunctionSpec(record.name, record.x0, record.domain, record._table,
                            record._value)
    if isinstance(record, ApproximationModel):
        return ApproximationModel(record.expansion, record.func, record.order,
                                  record.coefficients, record.route)
    if isinstance(record, Family):
        return Family(record.key, record.label, record.formula, record.defaults,
                      record.nonzero, record.positive)
    return PointReport(record.x, record.approx, record.exact, record.delta, record.note)


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
    # repr leaves out the derivative formula, a function
    "Family": (
        lambda: FAMILIES["a7"],
        "Family(key='a7', label='powers of (x^2 + 2 sqrt(alpha) x)/beta', "
        "defaults=(('alpha', Fraction(4, 1)), ('beta', Fraction(3, 1))), "
        "nonzero=('beta',), positive=('alpha',))",
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

    # a Family's constraint lists default to empty
    fam = FAMILIES["a1"]
    assert Family("a1", fam.label, fam.formula) == fam
    assert (fam.defaults, fam.nonzero, fam.positive) == ((), (), ())
    assert Family(key="a1", label=fam.label, formula=fam.formula, defaults=(), nonzero=(),
                  positive=()) == fam
    with pytest.raises(TypeError):
        Family("a1", fam.label)

    f = builtin_function("exp")
    spec = FunctionSpec("e", ExactScalar(0), f.domain, _table=f._table)
    assert spec._value is None and spec._ode is None and spec._source is None
    assert spec.value_at(0.5) is None
    assert spec == FunctionSpec(name="e", x0=ExactScalar(0), domain=f.domain,
                                _table=f._table, _value=None, _ode=None, _source=None)
    assert spec.derivative(0) == 1
    with pytest.raises(ValueError, match="only up to order 0, order 3 requested"):
        spec.derivative(3)
    ode = FunctionSpec("e", ExactScalar(0), f.domain, f._table, _ode=f._ode, _source=f._source)
    assert ode == spec and ode.derivative(3) == 1

    e = _a7()
    kw = Expansion(**{name: getattr(e, name) for name in _EXPANSION_FIELDS})
    pos = Expansion(*(getattr(e, name) for name in _EXPANSION_FIELDS))
    assert kw == pos == e

    m = _model()
    assert ApproximationModel(expansion=m.expansion, func=m.func, order=m.order,
                              coefficients=m.coefficients, route=m.route) == m


def test_function_specs_compare_by_value():
    # builtins by (name, x0), where pow's name carries its alpha
    assert builtin_function("ln1p") == builtin_function("ln1p")
    assert hash(builtin_function("ln1p")) == hash(builtin_function("ln1p"))
    assert _model() == _model() and hash(_model()) == hash(_model())
    assert builtin_function("exp") != builtin_function("exp", x0=1)
    assert builtin_function("pow", alpha=Fraction(1, 5)) != builtin_function(
        "pow", alpha=Fraction(1, 3))
    assert builtin_function("sin") != builtin_function("exp")
    # derivative lists by (name, x0, values)
    a = function_from_derivatives([0, 1, Fraction(1, 2)])
    assert a == function_from_derivatives([0, 1, Fraction(1, 2)])
    assert hash(a) == hash(function_from_derivatives([0, 1, Fraction(1, 2)]))
    assert a != function_from_derivatives([0, 1, Fraction(1, 3)])
    assert a != function_from_derivatives([0, 1])
    assert a != function_from_derivatives([0, 1, Fraction(1, 2)], x0=1)


def test_exactness_is_part_of_identity():
    # 0.5 and 1/2 are equal numbers but build different models: a float
    # input makes the derivatives (or the basis values) approximate
    assert builtin_function("sq", x0=0.5) != builtin_function("sq", x0=Fraction(1, 2))
    assert get_expansion("a5", alpha=0.5) != get_expansion("a5", alpha=Fraction(1, 2))
    assert function_from_derivatives([0, 0.5]) != function_from_derivatives(
        [0, Fraction(1, 2)])
    assert builtin_function("pow", alpha=0.5) != builtin_function("pow", alpha=Fraction(1, 2))
    assert builtin_function("pow", alpha=0.5).name == "pow:0.5"
    exact = assemble(get_expansion("a1"), builtin_function("sq", x0=Fraction(1, 2)), 3)
    floated = assemble(get_expansion("a1"), builtin_function("sq", x0=0.5), 3)
    assert exact.is_exact() and not floated.is_exact() and exact != floated
    # equal records still compare and hash equal
    for make in (lambda: builtin_function("sq", x0=0.5),
                 lambda: get_expansion("a5", alpha=0.5),
                 lambda: get_expansion("a5", alpha=Fraction(1, 2)),
                 lambda: function_from_derivatives([0, 0.5]),
                 lambda: builtin_function("pow", alpha=0.5)):
        assert make() == make() and hash(make()) == hash(make())


def test_ode_stays_out_of_identity():
    # the declared ODE follows from name and x0, so a spec built without it
    # is the same target; every builtin declares it at every x0
    for f in (builtin_function("exp"), builtin_function("ln1p"),
              builtin_function("pow", alpha=Fraction(-1, 3)),
              builtin_function("exp", x0=Fraction(1, 2)), builtin_function("ln1p", x0=1),
              builtin_function("ln1p", x0=0.5), builtin_function("sin"),
              builtin_function("sin", x0=Fraction(1, 2)), builtin_function("sq", x0=0.5)):
        assert f._ode is not None
        twin = FunctionSpec(f.name, f.x0, f.domain, f._table, f._value)
        assert twin._ode is None and twin == f and hash(twin) == hash(f)
    assert builtin_function("exp")._ode == (0, (1,), 0)
    assert builtin_function("exp", x0=0.5)._ode == (0, (1,), 0)
    assert builtin_function("ln1p")._ode == (1, (0,), 1)
    # rho = b = 1 / (1 + x0), a float x0 taken as its exact binary value
    assert builtin_function("ln1p", x0=1)._ode == (Fraction(1, 2), (0,), Fraction(1, 2))
    rho = 1 / (1 + Fraction(-0.3))
    assert builtin_function("ln1p", x0=-0.3)._ode == (rho, (0,), rho)
    assert builtin_function("pow", alpha=Fraction(3, 2))._ode == (1, (Fraction(3, 2),), 0)
    # a float alpha declares its ODE too; assemble reads it as 1/2 exactly
    assert builtin_function("pow", alpha=0.5)._ode == (1, (0.5,), 0)
    # second order: sin'' = -sin, sq'' = 2, with f(x0) and f'(x0) in the table
    assert builtin_function("sin", x0=0.5)._ode == (0, (-1, 0), 0)
    assert builtin_function("sq", x0=Fraction(1, 2))._ode == (0, (0, 0), 2)
    assert function_from_derivatives([1, 1, 1])._ode is None


def test_a_target_is_data():
    # seven fields; no builtin or list carries a callable but its float
    # reference _value: derivatives come from _table or the ODE
    assert FunctionSpec._fields == ("name", "x0", "domain", "_table", "_value", "_ode",
                                    "_source")
    specs = [builtin_function(name, x0=x0) for name in ("exp", "sin", "sq", "ln1p")
             for x0 in (0, Fraction(1, 2), 0.5)]
    specs += [builtin_function("pow", alpha=alpha) for alpha in (Fraction(1, 5), 0.5, 0)]
    specs += [function_from_derivatives([0, 1, Fraction(1, 2)]),
              function_from_derivatives([0.5], x0=0.25)]
    for spec in specs:
        for name in spec._fields:
            value = getattr(spec, name)
            assert not callable(value) or name == "_value", (spec, name)
            if isinstance(value, tuple):
                assert not any(map(callable, value)), (spec, name)
        assert isinstance(spec._table, tuple) and spec._table


def test_interval_validation():
    for lo, hi, flags in [(math.nan, 1.0, ()), (0.0, math.nan, ()), (2.0, 1.0, ()),
                          (-math.inf, 1.0, (True, False)), (0.0, math.inf, (False, True))]:
        with pytest.raises(ValueError):
            Interval(lo, hi, *flags)
    assert str(Interval(1.0, 1.0, True, True)) == "[1.0, 1.0]"


_EXPANSIONS = [(key, {}) for key in FAMILY_KEYS] + [("a5", {"alpha": 0.5}),
                                                     ("a7", {"alpha": 2})]
_TARGETS = [(name, {"x0": x0}) for name in ("exp", "sin", "sq", "ln1p")
            for x0 in (0, Fraction(1, 2), 0.5)]
_TARGETS += [("pow", {"alpha": alpha}) for alpha in (Fraction(1, 5), 0.5, 0)]
_LISTS = ([Fraction(1, k + 1) for k in range(5)], [0.5, -1, 0, 2.25, Fraction(1, 3)])
_TARGETS += [(values, {"x0": x0}) for values, x0 in zip(_LISTS, (0, 0.25))]


def _label(name, kw):
    head = name if isinstance(name, str) else f"list{_LISTS.index(name)}"
    return head + "".join(f"-{k}={v}" for k, v in kw.items())


def _target(name, kw):
    if isinstance(name, str):
        return builtin_function(name, **kw)
    return function_from_derivatives(name, **kw)


def _outcome(model, x):
    try:
        return repr(evaluate(model, x))
    except DomainError as err:
        return str(err)


_VALUES = [
    lambda: Interval(-1.0, 2.0, True),
    lambda: PointReport(0.5, 1.0, 1.25, -0.25, "x"),
    pytest.param(lambda: ExactScalar(Fraction(1, 3)), id="ExactScalar-1/3"),
    pytest.param(lambda: ExactScalar(0.5), id="ExactScalar-0.5"),
    pytest.param(lambda: TruncatedSeries([0, 1, Fraction(1, 2), 0.25]), id="TruncatedSeries"),
]
_VALUES += [pytest.param(lambda key=key: FAMILIES[key], id=f"Family-{key}")
            for key in FAMILY_KEYS]
_VALUES += [pytest.param(lambda key=key, kw=kw: get_expansion(key, **kw),
                         id=f"Expansion-{_label(key, kw)}") for key, kw in _EXPANSIONS]
_VALUES += [pytest.param(lambda name=name, kw=kw: _target(name, kw),
                         id=f"FunctionSpec-{_label(name, kw)}") for name, kw in _TARGETS]
_VALUES += [pytest.param(lambda e=e, f=f: assemble(get_expansion(e[0], **e[1]), _target(*f), 4),
                         id=f"ApproximationModel-{_label(*e)}-{_label(*f)}")
            for e in _EXPANSIONS for f in _TARGETS]


@pytest.mark.parametrize("make", _VALUES)
def test_plain_value_records_copy_and_pickle(make):
    # every value type, models included: an equal twin with the same repr
    # and hash, whose fields cannot be assigned or deleted either, and a
    # model twin evaluates to the same bits
    record = make()
    for twin in (copy.copy(record), copy.deepcopy(record),
                 pickle.loads(pickle.dumps(record))):
        assert twin is not record and twin.__class__ is record.__class__
        assert twin == record and repr(twin) == repr(record) and hash(twin) == hash(record)
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(twin, name, None)
            with pytest.raises(AttributeError):
                delattr(twin, name)
        if isinstance(record, ApproximationModel):
            x0 = float(record.func.x0)
            for x in (x0 - 0.1, x0 + 0.05, x0 + 0.3):
                assert _outcome(twin, x) == _outcome(record, x), x
