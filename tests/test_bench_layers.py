"""The bench tool's layer table and row plumbing, without timing anything."""
import importlib.util
import json
import random
import sys
from pathlib import Path

import helpers
import pytest
from permbij.verify import CHECKS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_sets_up_and_runs(layers):
    sigma = helpers.uniform_321_avoider(10, random.Random("bench:10"))
    entries = layers.layers()
    assert len({name for name, _, _ in entries}) == len(entries)
    for name, prepare, call in entries:
        call(*(() if prepare is None else prepare(sigma)))


def test_samples_alternate_parent_change_change_parent(layers):
    visits = []
    checkouts = {"parent": Path("parent"), "change": Path("change")}

    def measure(checkout):
        visits.append(checkout.name)
        return len(visits)

    samples = layers.alternate(checkouts, 3, measure)
    assert visits == ["parent", "change", "change", "parent", "parent", "change"]
    assert samples == {"parent": [1, 4, 5], "change": [2, 3, 6]}


@pytest.mark.parametrize("samples", [[3.0], [2.0, 1.0], [5.0, 1.0, 8.0, 2.0, 7.0, 3.0, 4.0, 6.0]])
def test_a_row_holds_its_median_and_quartiles_within_its_samples(layers, samples):
    row = layers.timed_row("some.layer", samples, n=7)
    assert row["layer"] == "some.layer" and row["n"] == 7 and row["calls"] == len(samples)
    assert min(samples) <= row["q1"] <= row["ms"] <= row["q3"] <= max(samples)


def test_import_rows_time_each_side_without_and_then_with_caches(layers, monkeypatch):
    monkeypatch.setattr(layers, "IMPORT_RUNS", 2)
    rows = layers.import_rows({"parent": ROOT, "change": ROOT}, "permbij")
    for side_rows in rows.values():
        assert [(row["layer"], row["bytecode"], row["calls"]) for row in side_rows] == [
            ("import.permbij", "none", 2), ("import.permbij", "cached", 2)
        ]
        assert all(0 < row["q1"] <= row["ms"] <= row["q3"] for row in side_rows)


def test_both_sides_run_each_layer_at_the_same_sizes_up_to_its_cap(layers, monkeypatch):
    runs = []

    def fresh_run(checkout, script, src, bench, name):
        runs.append(checkout.name)
        return json.dumps(layers.measure_layer(name, ROOT / "src"))

    monkeypatch.setattr(layers, "fresh_run", fresh_run)
    monkeypatch.setattr(layers, "layers", lambda: [("some.layer", lambda s: (s,), len)])
    monkeypatch.setattr(layers, "SIZES", (10, 100, 400))
    monkeypatch.setattr(layers, "LAYER_RUNS", 3)
    monkeypatch.setattr(sys, "path", sys.path[:])
    monkeypatch.setitem(helpers.LARGEST_N, "some.layer", 100)
    checkouts = {"parent": Path("parent"), "change": Path("change")}
    rows = layers.layer_rows(checkouts, "some.layer")

    assert runs == ["parent", "change", "change", "parent", "parent", "change"]
    for side_rows in rows.values():
        assert [(row["n"], row.get("calls")) for row in side_rows] == [
            (10, 3 * layers.MAX_CALLS), (100, 3 * layers.MAX_CALLS), (400, None)
        ]
        assert side_rows[2] == {"layer": "some.layer", "n": 400,
                                "skipped": "over its largest n, 100, in helpers.LARGEST_N"}


def test_two_count_runs_at_a_small_n_read_alike(layers, monkeypatch):
    monkeypatch.setattr(layers, "COUNT_SIZES", (4,))
    runs = [layers.count_rows({"parent": ROOT, "change": ROOT}) for _ in range(2)]
    assert runs[0] == runs[1] and runs[0]["parent"] == runs[0]["change"]
    rows = {row["layer"]: row["calls_per_member"] for row in runs[0]["parent"]}
    assert set(rows) == {"count.verify.run_suite", *(f"count.verify.{name}" for name in CHECKS)}
    # run_suite validates each member once in full, and then vouches for the class
    for fn in ("perm.is_permutation", "perm._contains_321"):
        assert sum(per_member.get(fn, 0) for per_member in rows.values()) == pytest.approx(1)
    assert rows["count.verify.theorem3"]["maps.theta_rsk"] == 1


def test_memory_and_rank_rows_read_each_side_in_their_units(layers):
    checkouts = {"parent": ROOT, "change": ROOT}
    mem = layers.fresh_rows(checkouts, "mem.run_suite", "mb", 1, layers.MEM_SCRIPT, 4)
    rank = layers.fresh_rows(checkouts, "perm._rank", "us", 1, layers.RANK_SCRIPT, 4, 3, 10)
    for side in layers.SIDES:
        (mem_row,), (rank_row,) = mem[side], rank[side]
        assert (mem_row["layer"], mem_row["n"], mem_row["calls"]) == ("mem.run_suite", 4, 1)
        assert 1 < mem_row["mb"] < 1000 and "ms" not in mem_row
        # three passes over the whole class: S_4(132) has 14 members
        assert (rank_row["layer"], rank_row["n"], rank_row["calls"]) == ("perm._rank", 4, 3)
        assert 0 < rank_row["q1"] <= rank_row["us"] <= rank_row["q3"]


def test_the_change_row_holds_the_ratio_of_each_pair_of_runs(layers):
    # runs made together: parent 2, 4, 10 and change 1, 3, 5, read at each run's median
    runs = {"parent": [[2.0], [3.0, 4.0, 5.0], [10.0]], "change": [[1.0], [3.0], [4.0, 5.0, 6.0]]}
    rows = layers.timed_rows("some.layer", runs, n=7)
    parent, change = rows["parent"][0], rows["change"][0]
    assert "ratio" not in parent and parent["calls"] == 5
    assert change["calls"] == 5 and change["pairs"] == 3
    # ratios 0.5, 0.75 and 0.5
    assert (change["ratio_q1"], change["ratio"], change["ratio_q3"]) == (0.5, 0.5, 0.625)
    assert layers.paired([[0.0]], [[1.0]]) == {}


def test_layer_rows_pair_the_runs_at_each_size(layers, monkeypatch):
    def fresh_run(checkout, script, src, bench, name):
        ms = {"parent": 2e-3, "change": 1e-3}[checkout.name]
        return json.dumps([{"n": 10, "times": [ms, ms]}, {"n": 100, "skipped": "too big"}])

    monkeypatch.setattr(layers, "fresh_run", fresh_run)
    monkeypatch.setattr(layers, "LAYER_RUNS", 3)
    rows = layers.layer_rows({"parent": Path("parent"), "change": Path("change")}, "some.layer")
    assert [row["ms"] for row in rows["parent"][:1] + rows["change"][:1]] == [2.0, 1.0]
    assert (rows["change"][0]["ratio"], rows["change"][0]["pairs"]) == (0.5, 3)
    assert rows["parent"][1] == rows["change"][1] == {"layer": "some.layer", "n": 100,
                                                       "skipped": "too big"}
