"""The value classes: construction, defaults, frozen fields, same-class
equality, repr, hashing and cached properties; and what importing the
command line pulls in."""
from __future__ import annotations

import functools
from fractions import Fraction

import pytest

import ccmv
from ccmv import build_heisenberg, check_normality, run_suite, validate_structure
from ccmv.core import Record, Status, Table, cached_property
from ccmv.model import CheckResult, ManifoldModel, SuiteReport
from ccmv.structures import ConnectionWorkspace
from ccmv.verify import (
    DiffEntry,
    DiffReport,
    ExpectedEntry,
    Identity,
    Workspace,
)
from conftest import run_python


def _run(ws):
    return CheckResult("X", Status.PASS)


_MODEL = build_heisenberg()
_CHECK = CheckResult("LIE-JACOBI", Status.FAIL, "slots=0,1,2")
_ROUTE = CheckResult("NORM-KORKMAZ", Status.PASS)
_RESULT = CheckResult("EQ-2.1", Status.FAIL, "slots=0 lhs=1 rhs=0")
_EXPECTED = ExpectedEntry("ric", (0, 0), Fraction(1, 2), 3)
_DIFF = DiffEntry("ric 0 0", True, "1/2", "1/2")

# class, its fields in order with one value each, and whether it hashes
# (a table, whose entries are a dict, or a record holding one, does not)
CASES = [
    (Table, {"dim": 3, "rank": 1, "entries": {(0,): 3, (2,): -1}, "den": 2}, False),
    (Table, {"dim": 2, "rank": 2, "entries": {(0, 1): 1}, "den": 1}, False),
    (Table, {"dim": 2, "rank": 4, "entries": {(0, 1, 1, 0): 1}, "den": 3}, False),
    (ManifoldModel, {"name": _MODEL.name, "n": _MODEL.n, "constants": _MODEL.constants,
                     "G": _MODEL.G, "H": _MODEL.H, "J": _MODEL.J}, False),
    (CheckResult, {"check_id": "LIE-JACOBI", "status": Status.FAIL, "witness": "slots=0,1,2"},
     True),
    (SuiteReport, {"model_name": "heisenberg", "checks": (_CHECK, _ROUTE, _RESULT)}, True),
    (Identity, {"identity_id": "X", "group": "axioms", "slots": (), "tables": None,
                "direct": _run}, True),
    (ExpectedEntry, {"kind": "ric", "indices": (0, 0), "expected": Fraction(1, 2), "line": 3},
     True),
    (DiffEntry, {"key": "ric 0 0", "matched": False, "expected_text": "1",
                 "computed_text": "1/2"}, True),
    (DiffReport, {"model_name": "heisenberg", "entries": (_DIFF,)}, True),
]
IDS = [cls.__name__ if cls is not Table or fields["rank"] == 1 else f"Table-rank{fields['rank']}"
       for cls, fields, _ in CASES]


@pytest.mark.parametrize("cls,fields,hashes", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, fields, hashes):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_position == by_keyword
    for name, value in fields.items():
        assert getattr(by_position, name) is value
        assert getattr(by_keyword, name) is value


@pytest.mark.parametrize("cls,fields,hashes", CASES, ids=IDS)
def test_repr_names_every_field_in_order(cls, fields, hashes):
    parts = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(cls(**fields)) == f"{cls.__name__}({parts})"


@pytest.mark.parametrize("cls,fields,hashes", CASES, ids=IDS)
def test_fields_are_frozen(cls, fields, hashes):
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value


@pytest.mark.parametrize("cls,fields,hashes", CASES, ids=IDS)
def test_the_instance_dict_holds_the_fields_only(cls, fields, hashes):
    # set once at construction; it cannot be replaced afterwards either
    record = cls(*fields.values())
    assert vars(record) == fields and list(vars(record)) == list(fields)
    assert all(vars(record)[name] is value for name, value in fields.items())
    with pytest.raises(AttributeError):
        record.__dict__ = {}
    with pytest.raises(AttributeError):
        del record.__dict__
    assert vars(record) == fields


@pytest.mark.parametrize("cls,fields,hashes", CASES, ids=IDS)
def test_equality_is_by_class_and_fields(cls, fields, hashes):
    record = cls(**fields)
    assert record == cls(**fields)
    assert not record != cls(**fields)
    assert record != object()
    name, value = next(iter(fields.items()))
    changed = cls(**{**fields, name: (value, "changed")})
    assert record != changed


@pytest.mark.parametrize("cls,fields,hashes", CASES, ids=IDS)
def test_hashing(cls, fields, hashes):
    if hashes:
        assert hash(cls(**fields)) == hash(cls(**fields))
        assert len({cls(**fields), cls(**fields)}) == 1
    else:
        # the fields hold a dict
        with pytest.raises(TypeError):
            hash(cls(**fields))


def test_every_tensor_is_a_plain_table():
    # no subclass of Table exists, so equal entries are equal tables
    assert ccmv.Table is Table
    assert Table.__subclasses__() == []


def test_records_of_different_classes_are_never_equal():
    # a DiffReport and a SuiteReport with the same fields included
    records = [Table(1, 1, {(0,): 1}), _EXPECTED, CheckResult("X", Status.PASS),
               DiffReport("X", ()), SuiteReport("X", ())]
    for i, a in enumerate(records):
        for b in records[i + 1:]:
            assert a != b, (a, b)


def test_every_list_of_checks_is_one_record():
    # the structural checks, the normality routes and the identities, in
    # report order, with the failures and the lookup by id of one class
    m = build_heisenberg()
    suite = run_suite(m)
    reports = (validate_structure(m), check_normality(Workspace(m)), suite)
    assert all(type(report) is SuiteReport for report in reports)
    assert [len(report.checks) for report in reports] == [12, 3, 73]
    assert [len(report.failures) for report in reports] == [0, 0, 9]
    for report in reports:
        assert report.model_name == "heisenberg"
        assert report.failures == tuple(c for c in report.checks if c.status is Status.FAIL)
        assert report.all_pass is (report.failures == ())
        assert all(report.result(c.check_id) is c for c in report.checks)
        with pytest.raises(KeyError):
            report.result("EQ-0.0")
    assert reports[1].checks == tuple(suite.result(r) for r in
                                      ("NORM-KORKMAZ", "NORM-PROP21", "NORM-THM45"))


def test_defaults():
    assert Table(2, 2, {}).den == 1
    assert Table(2, 2, {}) == Table(2, 2, {}, 1)
    assert CheckResult("X", Status.PASS).witness is None
    ident = Identity("X", "axioms", ())
    assert ident.tables is None and ident.direct is None
    ident = Identity(identity_id="X", group="axioms", slots=(), direct=_run)
    assert ident.tables is None and ident.direct is _run
    assert ident == Identity("X", "axioms", (), None, _run)


@pytest.mark.parametrize("record,defaulted", [
    (Table(2, 2, {}), ("den",)),
    (CheckResult("X", Status.PASS), ("witness",)),
    (Identity("X", "axioms", ()), ("tables", "direct")),
    (Identity("X", "axioms", (), direct=_run), ("tables",)),
], ids=["Table", "CheckResult", "Identity", "Identity-given-direct"])
def test_a_defaulted_field_is_in_the_instance_dict(record, defaulted):
    # as a given field is, so that `vars` reads every field
    assert sorted(vars(record)) == sorted(type(record)._fields)
    for name in defaulted:
        assert vars(record)[name] is getattr(type(record), name)


@pytest.mark.parametrize("cls,args,kwargs", [
    (SuiteReport, ("m",), {}),
    (SuiteReport, ("m", (), ()), {}),
    (SuiteReport, ("m", ()), {"checks": ()}),
    (SuiteReport, ("m", ()), {"extra": 1}),
    (CheckResult, ("X",), {}),
    (CheckResult, ("X", Status.PASS), {"extra": 1}),
    (Table, (2, 2), {}),
])
def test_wrong_arguments_raise_type_error(cls, args, kwargs):
    with pytest.raises(TypeError):
        cls(*args, **kwargs)


def test_cached_properties_are_kept_out_of_equality_and_repr():
    m = build_heisenberg()
    assert m.U == Table(m.dim, 1, {(m.U_index,): 1})
    assert m.U is m.U and m.V is m.V
    assert m.lie_results is m.lie_results
    assert m == build_heisenberg()
    assert "U=" not in repr(m) and "lie_results" not in repr(m)
    # a table's prefix index, built by the first read by prefix, and a
    # map's transpose, built by the first read of its input index
    for t, read, name in ((m.constants, lambda t: t.sub(0), "_prefixes"),
                          (m.G, lambda t: t.inputs(range(t.dim)), "_transpose")):
        assert read(t) and t == Table(t.dim, t.rank, dict(t.entries), t.den)
        assert name in vars(t) and name not in repr(t)
    assert m.G.permute((1, 0)) is vars(m.G)["_transpose"]


def test_cached_properties_compute_once_per_instance_without_a_lock():
    calls = []

    class Counted(Record):
        name: str

        @cached_property
        def upper(self) -> str:
            calls.append(self.name)
            return self.name.upper()

    class Untakeable:
        def __enter__(self):
            raise AssertionError("the lock was taken")

        def __exit__(self, *exc):
            return False

    # functools' version (Python 3.11) enters `lock` on each first read
    Counted.upper.lock = Untakeable()
    a, b = Counted("a"), Counted("b")
    assert [a.upper, b.upper, a.upper, b.upper] == ["A", "B", "A", "B"]
    assert calls == ["a", "b"] and vars(a) == {"name": "a", "upper": "A"}
    assert Counted.upper.__get__(None, Counted) is Counted.upper
    # every cached property of the package is this one, a subclass of
    # functools' whose lock it never takes
    assert isinstance(Counted.upper, functools.cached_property)
    assert not hasattr(cached_property, "__set__")
    for cls in (Table, ManifoldModel, ConnectionWorkspace, Workspace):
        found = [attr for attr in vars(cls).values()
                 if isinstance(attr, functools.cached_property)]
        assert found and all(type(attr) is cached_property for attr in found), cls


def test_importing_the_cli_loads_no_code_generation_modules():
    done = run_python("-c", "import sys; before = set(sys.modules); import ccmv.cli; "
                            "print(' '.join(sorted(set(sys.modules) - before)))")
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.split())
    assert {"ccmv", "ccmv.cli", "ccmv.verify"} <= loaded
    assert not loaded & {"dataclasses", "inspect"}
