"""Records against frozen dataclasses, the slow oracle they replace.

Every Record subclass in ouro is mirrored by a frozen dataclass with the
same name, fields and defaults; on representative instances the record and
its mirror must agree on repr, equality, hash and the field dict.
"""

import copy
import dataclasses
import pickle

import pytest

from ouro import catalog
from ouro._record import Record
from ouro.catalog import CatalogEntry, ScalarInstance, VectorInstance
from ouro.deriv import UnityReport, UnitySweep, check_unity, unity_sweep
from ouro.expr import BinOp, Call, Const, Expr, Neg, Var, parse
from ouro.finite import FiniteEndofunction
from ouro.verify import (DomainBox, SamplePlan, Status, Verdict, Witness,
                         check_membership)

# The field order of every record.  A Python whose class annotations are
# stored differently changes these, and must fail here rather than reorder
# a constructor silently.
FIELDS = {
    Expr: (),
    Const: ("literal",),
    Var: ("name",),
    Neg: ("operand",),
    BinOp: ("op", "left", "right"),
    Call: ("func", "args"),
    DomainBox: ("intervals",),
    SamplePlan: ("seed", "sample_count", "atol", "rtol", "kink_margin",
                 "k_max"),
    Witness: ("point", "value", "revalue", "residual", "reason", "detail"),
    Verdict: ("status", "witness", "samples_evaluated", "samples_skipped",
              "max_drift"),
    CatalogEntry: ("name", "kind", "summary", "arity", "params", "defaults",
                   "interval", "smooth", "symmetric", "exact_fixed_points"),
    ScalarInstance: ("entry", "expr", "arity", "box", "params"),
    VectorInstance: ("entry", "fn", "dim", "box", "params"),
    UnityReport: ("n", "point", "value", "outer_gradient", "shares",
                  "share_sum", "sum_to_one", "equal_shares",
                  "degenerate_reason", "tol"),
    UnitySweep: ("reports", "points_skipped"),
    FiniteEndofunction: ("table",),
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("ouro"):
            yield sub
        yield from _subclasses(sub)


def _samples():
    f = parse("max(x1, 2.5) - -sqrt(x2) * x1")
    box = DomainBox.uniform(0.5, 4.0, 2)
    fail = check_membership(parse("x / 2"), DomainBox.uniform(-1.0, 1.0, 1),
                            SamplePlan(sample_count=8))
    fault = check_membership(parse("ln(x)"), DomainBox.uniform(-1.0, 1.0, 1),
                             SamplePlan(sample_count=8))
    geo = catalog.instantiate("geo_mean", n=2)
    nodes = {}
    stack = [f]
    while stack:
        node = stack.pop()
        nodes.setdefault(type(node), []).append(node)
        stack.extend(node.children())
    return {
        **nodes,
        DomainBox: [box, DomainBox.uniform(-1.0, 1.0, 1)],
        SamplePlan: [SamplePlan(), SamplePlan(seed=-1, sample_count=4)],
        Witness: [fail.witness, fault.witness,
                  Witness((1.0, 2.0), (1.0, 2.0), (0.5, 2.0), -0.5, "DRIFT")],
        Verdict: [fail, fault, Verdict(Status.PASS, None, 8, 0, 0.0)],
        CatalogEntry: [geo.entry, catalog.get_entry("simplex_projection")],
        ScalarInstance: [geo, catalog.instantiate("abs")],
        VectorInstance: [catalog.instantiate("simplex_projection", d=3),
                         catalog.instantiate("box_clamp", d=2)],
        UnityReport: [check_unity(geo.expr, {"x1": 1.0, "x2": 4.0},
                                  SamplePlan()),
                      check_unity(parse("x1 * 0 + x2 * 0 + 1"),
                                  {"x1": 1.0, "x2": 4.0}, SamplePlan())],
        UnitySweep: [unity_sweep(geo.expr, geo.box, SamplePlan(sample_count=3)),
                     UnitySweep((), 2)],
        FiniteEndofunction: [FiniteEndofunction((0, 0, 2)),
                             FiniteEndofunction((1, 1))],
    }


SAMPLES = _samples()


def _mirror(cls):
    specs = []
    for name in cls._fields:
        options = {}
        if (cls, name) == (VectorInstance, "fn"):
            options["compare"] = False
        if hasattr(cls, name):
            options["default"] = getattr(cls, name)
        specs.append((name, object, dataclasses.field(**options)))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


def _hash(obj):
    try:
        return hash(obj)
    except TypeError:
        return TypeError


def test_every_record_is_pinned_and_sampled():
    records = set(_subclasses(Record))
    assert records == set(FIELDS)
    assert {cls: cls._fields for cls in records} == FIELDS
    assert records - {Expr} == set(SAMPLES)
    assert all(SAMPLES[cls] for cls in SAMPLES)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_record_agrees_with_its_dataclass_mirror(cls):
    mirror = _mirror(cls)
    recs = SAMPLES[cls]
    mirrors = [mirror(**r._asdict()) for r in recs]
    for r, m in zip(recs, mirrors):
        assert repr(r) == repr(m)
        assert r._asdict() == dataclasses.asdict(m)
        assert list(r._asdict()) == [f.name for f in dataclasses.fields(m)]
        assert _hash(r) == _hash(m)
        assert r != m and m != r
    for (a, ma) in zip(recs, mirrors):
        for (b, mb) in zip(recs, mirrors):
            assert (a == b) == (ma == mb)
            assert (a != b) == (ma != mb)


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_record_construction_and_immutability(cls):
    r = SAMPLES[cls][0]
    values = r._asdict()
    first = cls._fields[0]
    assert cls(*values.values()) == r
    assert cls(**values) == r
    rest = dict(list(values.items())[1:])
    assert cls(values[first], **rest) == r
    required = [n for n in cls._fields if not hasattr(cls, n)]
    if required:
        with pytest.raises(TypeError, match=repr(required[-1])):
            cls(**{k: v for k, v in values.items() if k != required[-1]})
    else:
        assert cls() == cls(**{n: getattr(cls, n) for n in cls._fields})
    with pytest.raises(TypeError, match="unexpected"):
        cls(**values, bogus=1)
    with pytest.raises(TypeError, match="arguments"):
        cls(*values.values(), None)
    with pytest.raises(TypeError, match="multiple values"):
        cls(values[first], **{first: values[first]})
    with pytest.raises(AttributeError):
        setattr(r, first, values[first])
    with pytest.raises(AttributeError):
        delattr(r, first)
    with pytest.raises(AttributeError):
        r.unrelated = 1
    assert r._asdict() == values


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_records_copy_and_pickle_by_value(cls):
    if cls is VectorInstance:  # its operator is a closure
        copies = [copy.copy]
    else:
        copies = [copy.copy, copy.deepcopy,
                  lambda r: pickle.loads(pickle.dumps(r))]
    for r in SAMPLES[cls]:
        for dup in copies:
            assert dup(r) == r
            assert repr(dup(r)) == repr(r)


class _Base(Record):
    a: int
    b: str = "b"


class _Child(_Base):
    c: float = 0.5


class _Twin(Record):
    a: int
    b: str = "b"


def test_fields_follow_the_bases_and_equality_needs_the_same_class():
    assert _Child._fields == ("a", "b", "c")
    assert _Child(1) == _Child(a=1, b="b", c=0.5)
    assert repr(_Child(1, c=2.0)) == "_Child(a=1, b='b', c=2.0)"
    assert _Base(1) != _Twin(1) and _Base(1)._key() == _Twin(1)._key()
    assert _Base(1, "x") != _Child(1, "x")


def test_const_value_is_derived_not_a_field():
    c = Const("2.50")
    assert c.value == 2.5
    assert repr(c) == "Const(literal='2.50')"
    other = Const("2.50")
    other.__dict__["value"] = 0.0
    assert c == other and hash(c) == hash(other)
    assert Const("2.5") != c


def test_vector_instances_differing_only_in_fn_are_equal():
    v = catalog.instantiate("simplex_projection", d=3)
    w = VectorInstance(**{**v._asdict(), "fn": lambda x: x})
    assert v == w and v.fn is not w.fn
    assert v != VectorInstance(**{**v._asdict(), "dim": 4})


def test_expr_program_is_cached_beside_the_fields():
    f = parse("x1 * x2 + 1")
    program = f.program
    assert f.program is program
    assert f == parse("x1 * x2 + 1") and "program" not in repr(f)
    assert "program" not in pickle.loads(pickle.dumps(f)).__dict__
