"""The bench tool's layer table and row plumbing, without timing anything."""
import importlib.util
import json
import random
from pathlib import Path

import helpers
import pytest

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


def test_the_first_run_of_each_side_sizes_the_layer_for_every_run(layers, monkeypatch):
    over = layers.BUDGET_S + 1
    first = {
        "parent": [{"n": 10, "times": [1e-3, 2e-3]}, {"n": 100, "times": [0.01]},
                   {"n": 400, "times": [over]}, {"n": 1000, "skipped": "projected 30 s"}],
        "change": [{"n": 10, "times": [1e-3]}, {"n": 100, "times": [0.01]},
                   {"n": 400, "times": [2.0]}, {"n": 1000, "times": [5.0]}],
    }
    runs = []

    def fresh_run(checkout, script, src, bench, name, sizes):
        sizes = json.loads(sizes)
        runs.append((checkout.name, sizes))
        if sizes is None:
            return json.dumps(first[checkout.name])
        return json.dumps([{"n": n, "times": [3e-3]} for n in sizes])

    monkeypatch.setattr(layers, "fresh_run", fresh_run)
    monkeypatch.setattr(layers, "LAYER_RUNS", 3)
    checkouts = {"parent": Path("parent"), "change": Path("change")}
    rows = layers.layer_rows(checkouts, "some.layer")

    # both first runs project; the later ones take the sizes both admitted and
    # leave out the size with a call past the budget, in the ABBA order
    assert runs == [("parent", None), ("change", None), ("change", [10, 100]),
                    ("parent", [10, 100]), ("parent", [10, 100]), ("change", [10, 100])]
    for side, first_calls in (("parent", 2), ("change", 1)):
        side_rows = rows[side]
        assert [row["n"] for row in side_rows] == [10, 100, 400, 1000]
        assert side_rows[0]["calls"] == first_calls + 2 and side_rows[1]["calls"] == 3
        assert side_rows[2]["calls"] == 1 and "single_sample" in side_rows[2]
        assert not any("single_sample" in row for row in side_rows[:2])
        assert side_rows[3] == {"layer": "some.layer", "n": 1000,
                                "skipped": "parent run projected 30 s"}
