"""
Direct-call timings of the 132 test, two-row insertion, the up-down word,
the template layers, template equality, the four template routes and the
two rewriting routes; in-process `permbij map` calls of the six routes and
one build of the CLI's argument parser; cold class enumeration and cold
statistics tables; the import of permbij and of its CLI in fresh
interpreters; per-check timings of the exhaustive verifier, and its
per-check calls into each library function; the peak memory of
run_suite(n, n) and the cost of one class-membership lookup (perm._rank);
the tier-1 test suite's wall time; and the line count of the library, for
two checkouts side by side.

    python bench/layers.py OUT.json PARENT [CHANGE]

measures the checkouts PARENT and CHANGE (default: this checkout) in
turn, one measurement at a time, so that a drift in the host's speed
during the run falls on both alike: alternate() samples each layer, cold
call, verifier run and test-suite run in the order parent, change,
change, parent (ABBA), and again for further runs, every run in a fresh
interpreter that imports permbij from that checkout's src.  The rows are
written to OUT.json under the labels "parent" and "change".  timed_row()
makes every timed row from its samples alike: their median in ms as
"ms", their quartiles as "q1" and "q3", and their count as "calls".  The
quartiles are statistics.quantiles' "inclusive" ones, which lie within
the samples (the default method puts them outside for two samples).
The change's timed rows also hold the paired ratio (timed_rows(),
paired()): run i of the change over run i of the parent, which
alternate() made one right after the other, each run read at the median
of its samples, so a drift in the host's speed falls on both runs of a
pair; the ratios' median is "ratio", their inclusive quartiles
"ratio_q1" and "ratio_q3", and their count "pairs".  A row cannot
resolve a change smaller than its ratio quartiles' spread.

Every layer that layers() lists runs, at each n in SIZES up to the largest
n that tests/helpers.LARGEST_N gives it, on one seeded uniform 321-avoider
drawn by tests/helpers.uniform_321_avoider, which shares no code with the
library; a larger size is recorded as skipped, so every run of both sides
takes the same sizes.  One run of a layer makes up to MAX_CALLS calls per
size (fewer once they add up to MIN_TOTAL_S); a row's samples are the
calls of all its side's runs.  The arguments a layer takes (tableaux,
templates, an up-down word) are built before timing.
The 132 test runs on sigma, which usually contains a 132, and on its
132-free image theta(sigma).  Rows "cli.map.<bijection>" time
cli_main(["map", "--bijection", <bijection>, "--input", <sigma's text>])
with standard output captured, so parsing the text and printing the image
count; a run's first call also pays for whatever parser set-up cli_main
makes on a first call, and later calls only for what it repeats.  Row
"cli.build_parser" takes no input and runs once per run, without a size:
each call builds the CLI's argument parser anew, past the cache that
cli_main keeps it in where it keeps one.  That is what a process's first
call pays, less argparse's own one-time set-up, which the run's first
build pays.

The verifier rows come from SUITE_RUNS runs per side of run_suite(1,
SUITE_N_MAX), each in a fresh interpreter so that the enumeration cache
starts cold, as in a `permbij verify` process.  Row "verify.<check>" at n
holds that check's elapsed_ms at n across the runs, for n in
SUITE_ROW_SIZES; a check's time includes whatever shared work it is the
first to do at that n (class enumeration, and where run_suite memoizes
route images, the fills it is the first to make).  Row "verify.run_suite"
holds the wall times of the whole call, imports left out.  Rows
"perm.enumerate_avoiders.<pattern>" at n hold COLD_RUNS fresh
interpreters per side, each timing one list(enumerate_avoiders(n,
pattern)) with nothing cached, for n from 1 to ENUMERATION_CAP; rows
"verify.stats_table.<pattern>" time one stats_table(n, pattern) the same
way, for n in STATS_SIZES, enumeration of the class included, as in a
`permbij stats` process.

Rows "count.verify.<check>" at n count work, not time, so they read the
same on every run: one run_suite(n, n) per side and n in COUNT_SIZES, in a
fresh interpreter apart from the timed runs, under sys.setprofile, as
tests/test_maps.py records each route's calls.  A row maps each permbij
function that the check's CHECKS[name](n) call entered, named
"module.function" as in tests/helpers.ROUTE_CALLS (comprehensions and
lambdas left out), to its calls per member of S_n(321); each resumption of
a generator counts as a call, so maps._least_132_rewrites counts the
rewrites it yields plus one per rewriting run.  Calls that run_suite makes
before its first check are row "count.verify.run_suite"; a check's row
includes the enumeration and the memo fills it is the first to make, and
the building of its report.

Rows "mem.run_suite" at n hold, in MB (key "mb"), the peak RSS
(ru_maxrss) of MEM_RUNS fresh interpreters per side, each running
run_suite(n, n) with every check, for n in MEM_SIZES.  Rows "perm._rank"
at n hold, in microseconds per call (key "us"), RANK_PASSES timed passes
of perm._rank in each of RANK_RUNS fresh interpreters per side, each pass
over the same RANK_WORDS fresh tuples, equal to seeded members of
S_n(132), looked up in that class as the checkout caches it, for n in
RANK_SIZES.

Rows "import.permbij" and "import.permbij.cli" hold IMPORT_RUNS fresh
interpreters per side, each timing one import of the module (interpreter
start left out), on a copy of the checkout's src made for the purpose.
The rows with bytecode "none" run first and write no caches, so every
import compiles the package, as in perfbench's setup_s; the rows with
bytecode "cached" follow one import per side that writes the caches, as
an installed package has them.

Row "tier1.pytest" holds the wall times of TIER1_RUNS runs per side of
the checkout's own test suite (python -m pytest -q in the checkout,
PYTHONPATH=src), with the summary line of the last.  Row "src.lines"
counts the lines of src/permbij/*.py.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SIZES = (10, 100, 400, 1_000, 10_000, 100_000)
MAX_CALLS = 7
MIN_TOTAL_S = 0.2
LAYER_RUNS = 4
SUITE_N_MAX = 10
SUITE_ROW_SIZES = (9, 10)
SUITE_RUNS = 8
COUNT_SIZES = (9, 10)
COLD_RUNS = 6
IMPORT_RUNS = 20
STATS_SIZES = (9, 10, 11, 12)
MEM_SIZES = (9, 10, 11, 12)
MEM_RUNS = 2
RANK_SIZES = (9, 10, 12)
RANK_RUNS = 4
RANK_PASSES = 5
RANK_WORDS = 2000
TIER1_RUNS = 2
SIDES = ("parent", "change")

#: one run of a layer in a fresh interpreter: a JSON list of its sizes' rows
LAYER_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import layers
print(json.dumps(layers.measure_layer(sys.argv[3], sys.argv[1])))
"""

#: one run_suite(1, n_max) in a fresh interpreter: its wall time, then (check, n, ms) rows
SUITE_SCRIPT = """
import json, sys, time
from permbij.verify import run_suite
start = time.perf_counter()
reports = run_suite(1, int(sys.argv[1]))
total = time.perf_counter() - start
print(json.dumps([total * 1e3, [[r.check, r.n, r.elapsed_ms] for r in reports]]))
"""

#: one profiled run_suite(n, n) in a fresh interpreter: [check, {function: calls per member}]
COUNT_SCRIPT = """
import collections, json, sys
from permbij import verify
from permbij.perm import catalan
n = int(sys.argv[1])
label = ["run_suite"]
counts = collections.defaultdict(collections.Counter)

def labelled(name, check):
    def run(n):
        label[0] = name
        return check(n)
    return run

def profile(frame, event, arg):
    module, name = frame.f_globals.get("__name__", ""), frame.f_code.co_name
    if event == "call" and module.startswith("permbij.") and not name.startswith("<"):
        counts[label[0]][f"{module[len('permbij.'):]}.{name}"] += 1

for name, check in list(verify.CHECKS.items()):
    verify.CHECKS[name] = labelled(name, check)
sys.setprofile(profile)
verify.run_suite(n, n)
sys.setprofile(None)
print(json.dumps([[check, {fn: round(c / catalan(n), 4) for fn, c in sorted(calls.items())}]
                  for check, calls in sorted(counts.items())]))
"""

#: one run_suite(n, n) in a child of a fresh interpreter: a JSON list of its
#: peak RSS in MB (ru_maxrss, which Linux gives in KB).  A child's ru_maxrss
#: starts from the high-water mark of the process it was spawned from, which
#: here is this small launcher's, not the bench's
MEM_SCRIPT = """
import json, resource, subprocess, sys
suite = f"from permbij.verify import run_suite; run_suite({int(sys.argv[1])}, {int(sys.argv[1])})"
subprocess.run([sys.executable, "-c", suite], check=True)
print(json.dumps([resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024]))
"""

#: RANK_PASSES timed passes of perm._rank over RANK_WORDS fresh tuples equal
#: to seeded members of S_n(132), in a fresh interpreter: a JSON list of the
#: microseconds per call of each pass
RANK_SCRIPT = """
import json, random, sys, time
from permbij import perm
n, passes, count = map(int, sys.argv[1:])
# the class as the checkout caches it: packed records, or a list of tuples before them
members = (getattr(perm, "_avoiders", None) or perm._avoider_list)(n, "132")
rng = random.Random(f"rank:{n}")
picked = set(rng.sample(range(len(members)), min(count, len(members))))
words = [tuple(list(p)) for i, p in enumerate(members) if i in picked]
rng.shuffle(words)
rank, times = perm._rank, []
for _ in range(passes):
    start = time.perf_counter()
    for word in words:
        rank(word, members)
    times.append((time.perf_counter() - start) / len(words) * 1e6)
print(json.dumps(times))
"""

#: one cold call in a fresh interpreter: the expression argv[2] after the import argv[1], in ms
COLD_SCRIPT = """
import sys, time
exec(sys.argv[1])
call = compile(sys.argv[2], "<cold call>", "eval")
start = time.perf_counter()
eval(call)
print((time.perf_counter() - start) * 1e3)
"""

#: one import of the module argv[1] in a fresh interpreter, in ms
IMPORT_SCRIPT = """
import importlib, sys, time
start = time.perf_counter()
importlib.import_module(sys.argv[1])
print((time.perf_counter() - start) * 1e3)
"""


def layers():
    """
    (name, set-up from sigma to the call's arguments, timed call); a layer
    whose set-up is None takes no arguments and runs once, at no size.
    """
    from permbij import cli, grid, maps, perm, rsk

    def dyck(sigma):
        return (rsk.dyck_from_tableaux(*rsk.rsk_tableaux(sigma)), len(sigma))

    def theorem1_templates(sigma):
        return (rsk.template_from_dyck(*dyck(sigma)), maps.theta_template(sigma))

    def equal_copies(a, b):
        return grid.Template(a.n, a.row_runs, a.col_runs) == grid.Template(
            b.n, b.row_runs, b.col_runs
        )

    def on_sigma(fn):
        return (f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}", lambda s: (s,), fn)

    def cli_map(bijection):
        def arguments(sigma):
            return (["map", "--bijection", bijection, "--input", perm.format_permutation(sigma)],)

        def call(argv):
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.cli_main(argv) != 0:
                    raise SystemExit(f"permbij map --bijection {bijection} failed")

        return (f"cli.map.{bijection}", arguments, call)

    # the undecorated builder where cli_main caches the parser
    build_parser = getattr(cli._build_parser, "__wrapped__", cli._build_parser)

    return [
        ("perm.avoids.132.sigma", lambda s: (s, "132"), perm.avoids),
        ("perm.avoids.132.theta_sigma", lambda s: (maps.theta(s), "132"), perm.avoids),
        on_sigma(grid.l_corners),
        on_sigma(grid.rcl_corners),
        on_sigma(grid.nested_template),
        on_sigma(grid.diagonal_template),
        on_sigma(grid.rc_template),
        on_sigma(maps.theta_template),
        on_sigma(maps.slide_flip_template),
        on_sigma(rsk.rsk_tableaux),
        ("rsk.dyck_from_tableaux", rsk.rsk_tableaux, rsk.dyck_from_tableaux),
        ("rsk.template_from_dyck", dyck, rsk.template_from_dyck),
        ("grid.bar_reflect", lambda s: (grid.rc_template(s),), grid.bar_reflect),
        ("grid.realize", lambda s: (grid.diagonal_template(s),), grid.realize),
        ("grid.rc_realize", lambda s: (grid.rc_template(s),), grid.rc_realize),
        ("grid.Template.__eq__", theorem1_templates, equal_copies),
        on_sigma(maps.gamma_template),
        on_sigma(maps.theta_corners),
        on_sigma(maps.theta_slide_flip),
        on_sigma(maps.theta_rsk),
        on_sigma(maps.gamma_iterative),
        on_sigma(maps.theta_via_gamma),
        *(cli_map(bijection) for bijection in (
            "gamma", "theta", "theta-rsk", "theta-slide-flip", "gamma-iterative",
            "theta-via-gamma",
        )),
        ("cli.build_parser", None, build_parser),
    ]


def measure_layer(name: str, src: str) -> list[dict]:
    """
    One run of the named layer, in this interpreter, which must import
    permbij from ``src``: per size in SIZES either the call times in seconds
    or the reason it was skipped.
    """
    sys.path.insert(0, str(ROOT / "tests"))
    import helpers
    import permbij

    if Path(permbij.__file__).resolve().parent.parent != Path(src).resolve():
        raise SystemExit(f"permbij imported from {permbij.__file__}, not from {src}")

    prepare, call = next((p, c) for layer, p, c in layers() if layer == name)
    if prepare is None:
        return [{"n": None, "times": call_times(call, ())}]
    largest = helpers.LARGEST_N.get(name, SIZES[-1])
    rows = []
    for n in SIZES:
        if n > largest:
            rows.append({"n": n, "skipped": f"over its largest n, {largest}, in helpers.LARGEST_N"})
            continue
        sigma = helpers.uniform_321_avoider(n, random.Random(f"bench:{n}"))
        rows.append({"n": n, "times": call_times(call, prepare(sigma))})
    return rows


def call_times(call, args) -> list[float]:
    """Seconds of up to MAX_CALLS calls, fewer once they add up to MIN_TOTAL_S."""
    times = []
    while len(times) < MAX_CALLS and sum(times) < MIN_TOTAL_S:
        start = time.perf_counter()
        call(*args)
        times.append(time.perf_counter() - start)
    return times


def fresh_run(checkout: Path, script: str, *args, env: dict[str, str] | None = None) -> str:
    """Standard output of ``script`` run with ``args`` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env={**os.environ, **(env or {}), "PYTHONPATH": str(checkout / "src")},
        capture_output=True, text=True, check=True,
    ).stdout


def alternate(checkouts: dict[str, Path], runs: int, measure, start: int = 0) -> dict[str, list]:
    """
    ``runs`` samples per side of ``measure(checkout)``: parent, change,
    change, parent, ...; from ``start`` pairs on, to go on from earlier ones.
    """
    samples: dict[str, list] = {side: [] for side in SIDES}
    for i in range(start, start + runs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            samples[side].append(measure(checkouts[side]))
    return samples


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """The inclusive quartiles and median of ``samples``: (q1, median, q3), all within them."""
    q1, _, q3 = (
        statistics.quantiles(samples, n=4, method="inclusive") if len(samples) > 1 else samples * 3
    )
    return q1, statistics.median(samples), q3


def timed_row(layer: str, samples: list[float], unit: str = "ms", **fields) -> dict:
    """
    The row of ``samples``, in ``unit`` (its key): their median, their
    inclusive quartiles and their count.
    """
    q1, median, q3 = quartiles(samples)
    return {"layer": layer, **fields, unit: round(median, 4),
            "q1": round(q1, 4), "q3": round(q3, 4), "calls": len(samples)}


def paired(parent_runs: list[list[float]], change_runs: list[list[float]]) -> dict:
    """
    The change/parent ratio of each pair of runs alternate() made together,
    run i of each side, each run read at the median of its samples: the
    ratios' median as "ratio", their inclusive quartiles as "ratio_q1" and
    "ratio_q3", and their count as "pairs".  A pair whose parent run reads
    0 has no ratio.
    """
    ratios = [statistics.median(change) / statistics.median(parent)
              for parent, change in zip(parent_runs, change_runs) if statistics.median(parent)]
    if not ratios:
        return {}
    q1, median, q3 = quartiles(ratios)
    return {"ratio": round(median, 4), "ratio_q1": round(q1, 4), "ratio_q3": round(q3, 4),
            "pairs": len(ratios)}


def timed_rows(layer: str, runs: dict[str, list[list[float]]], unit: str = "ms",
               **fields) -> dict[str, list[dict]]:
    """
    Row ``layer`` of each side from ``runs``, its samples grouped by run in
    the order alternate() took them: timed_row() of all the side's samples,
    and on the change's row the paired change/parent ratio (paired()).
    """
    rows = {side: [timed_row(layer, [x for run in side_runs for x in run], unit, **fields)]
            for side, side_runs in runs.items()}
    rows["change"][0].update(paired(runs["parent"], runs["change"]))
    return rows


def layer_rows(checkouts: dict[str, Path], name: str) -> dict[str, list[dict]]:
    """LAYER_RUNS runs per side of the named layer: per size its calls' row, or its skip."""
    runs = alternate(checkouts, LAYER_RUNS, lambda checkout: json.loads(
        fresh_run(checkout, LAYER_SCRIPT, checkout / "src", ROOT / "bench", name)
    ))
    rows: dict[str, list[dict]] = {side: [] for side in SIDES}
    # every run takes the same sizes, so its rows line up by size
    for size_runs in zip(*(zip(*runs[side]) for side in SIDES)):
        first = size_runs[0][0]
        if "skipped" in first:
            for side in SIDES:
                rows[side].append({"layer": name, **first})
            continue
        size_rows = timed_rows(name, {
            side: [[t * 1e3 for t in row["times"]] for row in side_size_runs]
            for side, side_size_runs in zip(SIDES, size_runs)
        }, n=first["n"])
        for side in SIDES:
            rows[side] += size_rows[side]
    return rows


def cold_rows(checkouts: dict[str, Path], layer: str, call: str, n: int, pattern: str):
    """Row "<layer>.<pattern>" at n: COLD_RUNS cold runs per side of ``call`` at n and pattern."""
    module, function = layer.split(".")
    samples = alternate(checkouts, COLD_RUNS, lambda checkout: [float(fresh_run(
        checkout, COLD_SCRIPT, f"from permbij.{module} import {function}",
        call.format(n=n, pattern=pattern),
    ))])
    return timed_rows(f"{layer}.{pattern}", samples, n=n)


def fresh_rows(checkouts: dict[str, Path], layer: str, unit: str, runs: int, script: str,
               n: int, *args) -> dict[str, list[dict]]:
    """Row ``layer`` at n: the samples of ``runs`` fresh runs per side of ``script`` at n."""
    samples = alternate(checkouts, runs,
                        lambda checkout: json.loads(fresh_run(checkout, script, n, *args)))
    return timed_rows(layer, samples, unit, n=n)


def import_rows(checkouts: dict[str, Path], module: str) -> dict[str, list[dict]]:
    """Rows "import.<module>": IMPORT_RUNS imports per side, without and then with caches."""
    rows: dict[str, list[dict]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as tmp:
        copies = {side: Path(tmp, side) for side in SIDES}
        for side, copy in copies.items():
            shutil.copytree(checkouts[side] / "src", copy / "src",
                            ignore=shutil.ignore_patterns("__pycache__"))
        # an empty value lets an import write its caches
        for bytecode, dont_write in (("none", "1"), ("cached", "")):
            env = {"PYTHONDONTWRITEBYTECODE": dont_write}
            if not dont_write:
                for copy in copies.values():
                    fresh_run(copy, IMPORT_SCRIPT, module, env=env)
            samples = alternate(copies, IMPORT_RUNS, lambda copy: [float(
                fresh_run(copy, IMPORT_SCRIPT, module, env=env)
            )])
            for side, side_rows in timed_rows(f"import.{module}", samples,
                                              bytecode=bytecode).items():
                rows[side] += side_rows
    return rows


def suite_rows(checkouts: dict[str, Path]) -> dict[str, list[dict]]:
    runs = alternate(checkouts, SUITE_RUNS,
                     lambda checkout: json.loads(fresh_run(checkout, SUITE_SCRIPT, SUITE_N_MAX)))
    # per (check, n) and side, one sample a run, in the order the runs were made
    per_check: dict[tuple[str, int], dict[str, list[list[float]]]] = {}
    for side, side_runs in runs.items():
        for _, reports in side_runs:
            for check, n, ms in reports:
                if n in SUITE_ROW_SIZES:
                    per_check.setdefault((check, n), {s: [] for s in SIDES})[side].append([ms])
    rows: dict[str, list[dict]] = {side: [] for side in SIDES}
    parts = [timed_rows(f"verify.{check}", samples, n=n)
             for (check, n), samples in sorted(per_check.items())]
    totals = {side: [[t] for t, _ in side_runs] for side, side_runs in runs.items()}
    parts.append(timed_rows("verify.run_suite", totals, n_min=1, n=SUITE_N_MAX))
    for part in parts:
        for side in SIDES:
            rows[side] += part[side]
    return rows


def count_rows(checkouts: dict[str, Path]) -> dict[str, list[dict]]:
    """Rows "count.verify.<check>": one profiled run_suite(n, n) per side and n in COUNT_SIZES."""
    rows: dict[str, list[dict]] = {side: [] for side in SIDES}
    for n in COUNT_SIZES:
        for side in SIDES:
            for check, per_member in json.loads(fresh_run(checkouts[side], COUNT_SCRIPT, n)):
                rows[side].append({"layer": f"count.verify.{check}", "n": n,
                                   "calls_per_member": per_member})
    return rows


def tier1_rows(checkouts: dict[str, Path]) -> dict[str, list[dict]]:
    """TIER1_RUNS runs per side of the checkout's test suite: wall time and summary line."""

    def run(checkout: Path) -> tuple[float, str]:
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
            cwd=checkout, env={**os.environ, "PYTHONPATH": str(checkout / "src")},
            capture_output=True, text=True,
        ).stdout.strip()
        return (time.perf_counter() - start) * 1e3, out.splitlines()[-1] if out else ""

    runs = alternate(checkouts, TIER1_RUNS, run)
    rows = timed_rows("tier1.pytest", {side: [[ms] for ms, _ in side_runs]
                                       for side, side_runs in runs.items()})
    for side, side_runs in runs.items():
        rows[side][0]["summary"] = side_runs[-1][1]
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="JSON file to write the rows to")
    parser.add_argument("parent", type=Path, help="checkout measured as the parent")
    parser.add_argument("change", type=Path, nargs="?", default=ROOT,
                        help="checkout measured as the change (default: this one)")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    # the layer names, the patterns and the enumeration cap, read from this checkout
    sys.path.insert(0, str(ROOT / "src"))
    from permbij.perm import ENUMERATION_CAP, PATTERNS

    cold = (
        ("perm.enumerate_avoiders", "list(enumerate_avoiders({n}, {pattern!r}))",
         range(1, ENUMERATION_CAP + 1)),
        ("verify.stats_table", "stats_table({n}, {pattern!r})", STATS_SIZES),
    )
    # one {side: rows} per measurement, each measured as the loop below reaches it
    parts = itertools.chain(
        (layer_rows(checkouts, name) for name, _, _ in layers()),
        (cold_rows(checkouts, layer, call, n, pattern)
         for layer, call, sizes in cold for pattern in PATTERNS for n in sizes),
        (import_rows(checkouts, module) for module in ("permbij", "permbij.cli")),
        (fresh_rows(checkouts, "mem.run_suite", "mb", MEM_RUNS, MEM_SCRIPT, n) for n in MEM_SIZES),
        (fresh_rows(checkouts, "perm._rank", "us", RANK_RUNS, RANK_SCRIPT, n, RANK_PASSES,
                    RANK_WORDS) for n in RANK_SIZES),
        (rows_of(checkouts) for rows_of in (suite_rows, count_rows, tier1_rows)),
    )
    rows: dict[str, list[dict]] = {side: [] for side in SIDES}
    for part in parts:
        for side, side_rows in part.items():
            for row in side_rows:
                unit = next((unit for unit in ("ms", "us", "mb") if unit in row), None)
                figure = (f"{row[unit]:10.3f} {unit}" if unit else row.get("skipped")
                          or f"{len(row['calls_per_member'])} functions")
                if "ratio" in row:
                    figure += f"  x{row['ratio']:.3f} ({row['ratio_q1']:.3f}-{row['ratio_q3']:.3f})"
                layer, n = row["layer"], row.get("n") or row.get("bytecode") or "-"
                print(f"{side:7s}{layer:30s} n={n!s:<7s} {figure}", file=sys.stderr)
            rows[side] += side_rows
    for side, checkout in checkouts.items():
        rows[side].append(
            {"layer": "src.lines", "count": sum(
                len(path.read_text().splitlines())
                for path in (checkout / "src" / "permbij").glob("*.py")
            )}
        )

    record = {
        "sizes": list(SIZES),
        "method": (
            f"parent and change measured alternately, in the order parent, change, "
            f"change, parent and so on, each run in a fresh interpreter; every timed row: "
            f"median (ms), quartiles q1 and q3 by statistics.quantiles(method='inclusive'), "
            f"which lie within the samples, and count (calls) of its samples; on the "
            f"change's timed rows, the change/parent ratio of each pair of runs made "
            f"together (run i of each side, each read at its samples' median): their "
            f"median (ratio), inclusive quartiles (ratio_q1, ratio_q3) and count (pairs); "
            f"layer rows: "
            f"the calls of {LAYER_RUNS} runs per side, each run up to {MAX_CALLS} calls per "
            f"size, fewer once they add up to {MIN_TOTAL_S} s, up to the largest n that "
            f"tests/helpers.LARGEST_N gives the layer, larger sizes skipped; verify.* rows: "
            f"{SUITE_RUNS} runs of run_suite(1, {SUITE_N_MAX}) per side; count.verify.* "
            f"rows: calls per member of S_n(321) into each permbij function, from one "
            f"run_suite(n, n) per side under sys.setprofile, untimed, for n in {COUNT_SIZES}; "
            f"perm.enumerate_avoiders.* and verify.stats_table.* rows: {COLD_RUNS} cold "
            f"runs per side; mem.run_suite rows: peak RSS (MB) of {MEM_RUNS} fresh "
            f"run_suite(n, n) runs per side; perm._rank rows: microseconds per call, "
            f"{RANK_PASSES} passes over {RANK_WORDS} fresh tuples equal to members of "
            f"S_n(132) in each of {RANK_RUNS} runs per side; import.* rows: "
            f"{IMPORT_RUNS} imports per side in fresh interpreters, without and then with "
            f"bytecode caches, interpreter start left out; tier1.pytest: "
            f"{TIER1_RUNS} runs of the checkout's test suite per side"
        ),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "runs": {side: {"rows": side_rows} for side, side_rows in rows.items()},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
