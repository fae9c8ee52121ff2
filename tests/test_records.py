"""
The four frozen record classes: Template, TwoRowTableau, CheckReport and
StatTable.  Each compares, hashes, prints, refuses changes and survives
copy and pickle; a report or table refuses fields of the wrong types, and
its JSON line keeps its bytes; and importing permbij or its CLI loads neither
dataclasses, with the modules it brings in, nor json.
"""
import copy
import pickle

import pytest

import helpers
from permbij import CheckReport, StatTable, Template, TwoRowTableau

FAILURE = {"input": [1], "expected": 1, "actual": 2}

#: (record, an equal record built by keyword, an unequal record, its repr)
RECORDS = [
    (
        Template(2, [[1, 1, 1]]),
        Template(n=2, row_runs=((1, 1, 1),), col_runs=()),
        Template(2, [(2, 1, 1)]),
        "Template(n=2, row_runs=((1, 1, 1),), col_runs=())",
    ),
    (
        TwoRowTableau([1, 2], [3]),
        TwoRowTableau(row1=(1, 2), row2=(3,)),
        TwoRowTableau((1, 3), (2,)),
        "TwoRowTableau(row1=(1, 2), row2=(3,))",
    ),
    (
        CheckReport("fact2", 3, 5, (FAILURE,), 1.5),
        CheckReport(check="fact2", n=3, cases=5, failures=(dict(FAILURE),), elapsed_ms=1.5),
        CheckReport("fact2", 3, 5, (FAILURE,), 2.5),
        "CheckReport(check='fact2', n=3, cases=5, failures=({'input': [1], 'expected': 1, "
        "'actual': 2},), elapsed_ms=1.5)",
    ),
    (
        StatTable(2, "321", {(0, 1): 1, (2, 0): 1}),
        StatTable(n=2, pattern="321", rows={(0, 1): 1, (2, 0): 1}),
        StatTable(2, "132", {(0, 1): 1, (2, 0): 1}),
        "StatTable(n=2, pattern='321', rows={(0, 1): 1, (2, 0): 1})",
    ),
]
IDS = [type(record).__name__ for record, *_ in RECORDS]
FIELDS = {
    Template: ("n", "row_runs", "col_runs"),
    TwoRowTableau: ("row1", "row2"),
    CheckReport: ("check", "n", "cases", "failures", "elapsed_ms"),
    StatTable: ("n", "pattern", "rows"),
}


@pytest.mark.parametrize("record, equal, unequal, text", RECORDS, ids=IDS)
def test_a_record_compares_only_with_its_own_class(record, equal, unequal, text):
    assert record == equal and not record != equal
    assert record != unequal
    assert record.__eq__(object()) is NotImplemented
    assert record != tuple(getattr(record, name) for name in FIELDS[type(record)])


def test_tables_compare_by_their_rows_in_any_order():
    rows = {(0, 1): 1, (2, 0): 1}
    assert StatTable(2, "321", rows) == StatTable(2, "321", dict(reversed(rows.items())))


@pytest.mark.parametrize("record, equal, unequal, text", RECORDS, ids=IDS)
def test_a_record_prints_every_field_by_name(record, equal, unequal, text):
    assert repr(record) == repr(equal) == text


def test_templates_and_tableaux_hash_alike_when_equal():
    for record, equal, *_ in RECORDS[:2]:
        assert hash(record) == hash(equal)
    # a template hashes by its square set, so another run decomposition agrees
    a, b = Template(2, [(1, 1, 2)]), Template(2, [(1, 1, 1)], [(2, 1, 1)])
    assert a == b and hash(a) == hash(b)


def test_reports_with_failures_and_tables_refuse_to_hash():
    for record, *_ in RECORDS[2:]:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    assert hash(CheckReport("fact2", 3, 5)) == hash(CheckReport("fact2", 3, 5))


@pytest.mark.parametrize("record, equal, unequal, text", RECORDS, ids=IDS)
def test_a_record_refuses_to_change(record, equal, unequal, text):
    for name in (*FIELDS[type(record)], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text
    # slots only: a record holds no per-instance dict
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("record, equal, unequal, text", RECORDS, ids=IDS)
def test_copies_and_pickles_compare_equal(record, equal, unequal, text):
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(6)]
    for duplicate in copies:
        assert type(duplicate) is type(record)
        assert duplicate == record and repr(duplicate) == text


def test_private_constructors_build_records_equal_to_public_ones():
    template = Template._trusted(2, ((1, 1, 1),))
    tableau = TwoRowTableau._trusted((1, 2), (3,))
    for built, public in ((template, RECORDS[0][0]), (tableau, RECORDS[1][0])):
        assert built == public and hash(built) == hash(public) and repr(built) == repr(public)
        assert pickle.loads(pickle.dumps(built)) == public


def test_defaults_and_a_fresh_rows_dict_per_table():
    assert CheckReport("fact2", 3, 5) == CheckReport("fact2", 3, 5, (), 0.0)
    assert Template(3) == Template(3, (), ())
    assert TwoRowTableau((1,)) == TwoRowTableau((1,), ())
    first, second = StatTable(1, "321"), StatTable(1, "321")
    assert first.rows == {} and first.rows is not second.rows


def test_a_report_line_keeps_its_bytes():
    report = CheckReport("fact2", 3, 5, (FAILURE,), 1.5)
    assert report.json_line() == (
        '{"cases": 5, "check": "fact2", "elapsed_ms": 1.5, "failures": [{"actual": 2, '
        '"expected": 1, "input": [1]}], "n": 3, "passed": false}'
    )
    assert CheckReport.from_json_line(report.json_line()) == report
    table = StatTable(2, "321", {(2, 0): 1, (0, 1): 1})
    assert table.json_line() == (
        '{"class": "321", "n": 2, "rows": [{"count": 1, "excedances": 1, "fixed_points": 0}, '
        '{"count": 1, "excedances": 0, "fixed_points": 2}], "total": 2}'
    )
    assert StatTable.from_json_line(table.json_line()) == table


#: (record, constructor arguments with one field that the constructor refuses)
WRONG_FIELDS = [
    (CheckReport, (b"fact2", 3, 5)),
    (CheckReport, ("fact2", True, 5)),
    (CheckReport, ("fact2", 3, 5.0)),
    (CheckReport, ("fact2", 3, 5, [FAILURE])),
    (CheckReport, ("fact2", 3, 5, (5,))),
    (CheckReport, ("fact2", 3, 5, (), "1.5")),
    (StatTable, (13, "321")),
    (StatTable, (2, "231")),
    (StatTable, (2, "321", [((0, 1), 1)])),
    (StatTable, (2, "321", {(0, 1, 0): 1})),
    (StatTable, (2, "321", {0: 1})),
    (StatTable, (2, "321", {(True, 1): 1})),
    (StatTable, (2, "321", {(0, 1): 1.0})),
]


@pytest.mark.parametrize("record, args", WRONG_FIELDS,
                         ids=[f"{record.__name__}{args!r}" for record, args in WRONG_FIELDS])
def test_a_report_or_table_refuses_fields_of_the_wrong_type(record, args):
    with pytest.raises(ValueError):
        record(*args)


#: modules that importing permbij must not load; typing is left out, as on
#: some hosts site imports it before any user code
HEAVY = ("dataclasses", "inspect", "ast", "json")


def heavy_modules_loaded_by(module):
    """The HEAVY modules that a fresh ``import module`` loads, sorted."""
    code = (
        f"import sys; before = set(sys.modules); import {module}; "
        f"print(sorted(set({HEAVY!r}) & (set(sys.modules) - before)))"
    )
    return helpers.run_python("-c", code).strip()


def test_importing_permbij_loads_no_dataclasses_and_no_json():
    assert heavy_modules_loaded_by("permbij") == "[]"


def test_importing_the_cli_loads_no_dataclasses_and_no_json():
    # only --format json output needs json, and it imports json there
    assert heavy_modules_loaded_by("permbij.cli") == "[]"
