"""
Benchmark of permbij: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 40 --trace 0

Workloads (see BENCHMARK.json for why each was chosen); each operation
runs in a fresh single-threaded worker process (worker.py), one at a time:

* verify-sweep: ``run_suite(1, 9)`` with every check, the work of
  ``permbij verify --n-max 9``;
* map-large: a round of six in-process ``permbij map`` calls on seeded
  uniform 321-avoiders, four routes at n = 400 and the two rewriting
  routes at n = 100;
* class-tables: ``stats_table(9, "321")`` and ``stats_table(9, "132")``,
  the work of ``permbij stats --n 9``.

With ``--trace 0`` the run repeats the operation until the next one would
end after ``--seconds``, timing ``import permbij`` in fresh interpreters
before each.  Times are in reference seconds (clock.py): each step's wall
time scaled by how fast the shared host ran a fixed slice of work just
before and just after it.  It reports the end-to-end metrics:

* setup_s: interpreter start until ``import permbij`` returns, median;
* op_s: the operation's time, summed over its steps of each step's median
  across the run (steps: the (check, n) sweeps, the two tables, the six
  map calls);
* peak_rss_mb: peak resident memory of the worker processes, median.

The wall-clock figures are printed beside them.

With ``--trace 1`` it alternates an untraced and a traced pass over a fixed
amount of work and reports per-layer self times and call counts; the
difference between the two passes is the tracing overhead.

Every output is checked.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the exit
status is 0 only when every output was correct.  A fuller record of the
run is written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from clock import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("verify-sweep", "map-large", "class-tables")
#: interpreter starts timed for setup_s before each operation, so that the
#: samples spread over the run; the time the last operation leaves over then
#: takes more, up to SETUP_SAMPLES in all, since one start varies by +-30%
SETUP_PER_OP = 3
SETUP_SAMPLES = 50
#: map-large rounds in one traced or untraced pass of a --trace 1 run
TRACE_MAP_ROUNDS = 3
#: gamma_iterative's bound on rewrites, n**3, at the sizes the workloads use
VERIFY_GUARD, MAP_GUARD = 9**3, 100**3
#: no operation may push a run past the 180 s the benchmark is allowed
RUN_LIMIT_S = 170.0

MODULES = ("perm", "grid", "rsk", "maps", "verify", "cli")
#: spans reported with self time (.ms) and call count (.calls)
LAYERS = (
    "perm.enumerate_avoiders.321",
    "perm.enumerate_avoiders.132",
    "perm.avoids",
    "perm.smallest_132",
    "grid.l_corners",
    "grid.rcl_corners",
    "grid.nested_template",
    "grid.rc_template",
    "grid.diagonal_ls",
    "grid.diagonal_template",
    "grid.realize",
    "grid.rc_realize",
    "grid.bar_reflect",
    "grid.transpose",
    "rsk.rsk_tableaux",
    "rsk.dyck_from_tableaux",
    "rsk.template_from_dyck",
    "rsk.validate_dyck",
    "maps.gamma_template",
    "maps.gamma_iterative",
    "maps.theta_corners",
    "maps.theta_rsk",
    "maps.theta_slide_flip",
    "maps.theta_via_gamma",
    "maps.theta_template",
    "maps.slide_flip_template",
    "verify.run_suite",
    "verify.stats_table",
    "cli.map",
)
#: the verify checks, reported by self time with enumeration excluded
CHECKS = (
    "bar-reflection",
    "bijectivity-gamma",
    "bijectivity-theta",
    "catalan-counts",
    "excedances",
    "fact2",
    "fact3-route-agreement",
    "fixed-points",
    "inverse-commute-gamma",
    "inverse-commute-theta",
    "lemma1",
    "lemma3",
    "rc-template",
    "theorem1-route",
    "theorem2-route",
    "theorem3",
)


class Run:
    """Outcome counts and the record of one run."""

    def __init__(self, args) -> None:
        self.args = args
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.record: dict = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "src_lines": src_lines(),
        }

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def worker(self, index: int, trace: int = 0) -> dict:
        """One operation in a fresh worker process; its outcomes count toward the run."""
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--op", str(index),
            "--trace", str(trace),
        ]
        if trace:
            OUT.mkdir(exist_ok=True)
            cmd += ["--spans-out", str(OUT / f"spans-{self.args.workload}-op{index}.tsv.gz")]
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, RUN_LIMIT_S - self.elapsed()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
        result = json.loads(proc.stdout.splitlines()[-1])
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.errors += result["errors"]
        return result

    def repeat(self, step) -> list:
        """step(0), step(1), ... while the next would end within --seconds; at least one."""
        results: list = []
        last = 0.0
        while not results or self.elapsed() + last <= self.args.seconds:
            t0 = self.elapsed()
            results.append(step(len(results)))
            last = self.elapsed() - t0
        return results


def src_lines() -> dict[str, int]:
    return {
        path.stem: len(path.read_text().splitlines())
        for path in sorted((SRC / "permbij").glob("*.py"))
    }


def setup_seconds(clock: Clock, count: int) -> None:
    """
    Interpreter start until ``import permbij`` returns, in fresh interpreters,
    as steps ``setup <i>`` of ``clock``.
    """
    code = "import permbij, time; print(time.monotonic_ns(), permbij.__file__)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for _ in range(count):
        with clock.step(f"setup {len(clock.steps)}"):
            proc = subprocess.run(
                [sys.executable, "-c", code], cwd=ROOT, env=env,
                capture_output=True, text=True, timeout=60, check=True,
            )
        path = proc.stdout.split(maxsplit=1)[1].strip()
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"permbij imported from {path}, not from {SRC}")


def high_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if len(samples) * (100 - p) >= 1000:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


def by_step(ops: list[dict], key: str) -> dict[str, list[float]]:
    """Each step's times across the operations."""
    steps: dict[str, list[float]] = {}
    for op in ops:
        for name, t in op[key].items():
            steps.setdefault(name, []).append(t)
    return steps


def measure(run: Run):
    """The end-to-end metrics, with tracing off."""
    args = run.args
    clock = Clock()

    def step(index: int) -> dict:
        setup_seconds(clock, SETUP_PER_OP)
        return run.worker(index)

    ops = run.repeat(step)
    while len(clock.steps) < SETUP_SAMPLES and run.elapsed() + max(clock.raw.values()) <= args.seconds:
        setup_seconds(clock, 1)
    steps, raw = by_step(ops, "steps_s"), by_step(ops, "steps_raw_s")
    op_s = sum(statistics.median(v) for v in steps.values())
    op_wall = sum(statistics.median(v) for v in raw.values())
    setup = list(clock.steps.values())
    setup_wall = statistics.median(clock.raw.values())
    rss = [op["peak_rss_mb"] for op in ops]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s": (op_s, "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    named = {"verify-sweep": "verify_s", "class-tables": "stats_s"}.get(args.workload, "round_s")
    lines = [
        f"setup_s   {metrics['setup_s'][0]:10.4f} s   median of {len(setup)} interpreter starts"
        f"  (wall {setup_wall:.4f} s)",
        f"op_s      {op_s:10.4f} s   sum of {len(steps)} step medians over {len(ops)} operations"
        f"  (wall {op_wall:.4f} s)",
        f"{named:9s} {op_s:10.4f} s   (op_s of {args.workload})",
    ]
    if args.workload == "map-large":
        for bijection in steps:
            name = f"map_{bijection.replace('-', '_')}_ms"
            ms = [t * 1000.0 for t in steps[bijection]]
            high = high_percentile(ms)
            tail = f"p{high[0]} {high[1]:.2f} ms" if high else "no percentile with 10 samples beyond"
            lines.append(
                f"{name:24s} {statistics.median(ms):9.2f} ms  n={len(ms)}  {tail}"
                f"  (wall {statistics.median(raw[bijection]) * 1000.0:.2f} ms)"
            )
    lines.append(f"peak_rss_mb {metrics['peak_rss_mb'][0]:8.2f} MB  median of {len(rss)} processes")
    run.record.update(
        setup_s=setup, setup_wall_s=list(clock.raw.values()), steps_s=steps, steps_wall_s=raw,
        wall_s=[op["wall_s"] for op in ops], peak_rss_mb=rss,
    )
    return metrics, lines


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _merge(traces: list[dict]) -> dict:
    """One pass's trace summary from the summaries of its operations."""
    merged = {"self_ms": Counter(), "calls": Counter(), "spans": 0, "rewrites_total": 0, "rewrites_max": 0}
    for t in traces:
        merged["self_ms"].update(t["self_ms"])
        merged["calls"].update(t["calls"])
        merged["spans"] += t["spans"]
        merged["rewrites_total"] += t["rewrites_total"]
        merged["rewrites_max"] = max(merged["rewrites_max"], t["rewrites_max"])
    return merged


def measure_traced(run: Run):
    """Per-layer metrics from alternating untraced and traced passes over the same work."""
    args = run.args
    ops = range(TRACE_MAP_ROUNDS if args.workload == "map-large" else 1)

    def pair(_: int):
        plain = [run.worker(i) for i in ops]
        traced = [run.worker(i, trace=1) for i in ops]
        return (
            sum(op["wall_s"] for op in plain),
            sum(op["wall_s"] for op in traced),
            _merge([op["trace"] for op in traced]),
        )

    pairs = run.repeat(pair)
    untraced = _mean(p[0] for p in pairs)
    traced = _mean(p[1] for p in pairs)
    traces = [p[2] for p in pairs]

    def self_ms(match) -> float:
        return _mean(sum(v for k, v in t["self_ms"].items() if match(k)) for t in traces)

    def calls(match) -> float:
        return _mean(sum(v for k, v in t["calls"].items() if match(k)) for t in traces)

    def layer(name):
        # enumeration spans carry the class size: perm.enumerate_avoiders.321.n9
        return lambda k: k == name or k.startswith(name + ".n")

    metrics: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        metrics[f"{name}.ms"] = (self_ms(layer(name)), "ms")
        metrics[f"{name}.calls"] = (calls(layer(name)), "count")
    for check in CHECKS:
        metrics[f"verify.{check}.ms"] = (self_ms(layer(f"verify.{check}")), "ms")
    metrics["maps.gamma_iterative.rewrites"] = (_mean(t["rewrites_total"] for t in traces), "count")
    metrics["maps.gamma_iterative.rewrites_max"] = (max(t["rewrites_max"] for t in traces), "count")
    for module in MODULES:
        metrics[f"module.{module}.ms"] = (self_ms(lambda k: k.split(".", 1)[0] == module), "ms")
    lines_by_module = run.record["src_lines"]
    for module in MODULES:
        metrics[f"src.{module}.lines"] = (lines_by_module.get(module, 0), "count")
    metrics["src.lines"] = (sum(lines_by_module.values()), "count")
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.traced_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.spans"] = (_mean(t["spans"] for t in traces), "count")

    accounted = self_ms(lambda k: True) / 1000.0
    lines = [
        f"pass of {len(ops)} operation(s): untraced {untraced:.4f} s, traced {traced:.4f} s, "
        f"tracing overhead {traced - untraced:.4f} s, "
        f"mean of {len(pairs)} pair(s)",
        f"self times sum to {accounted:.4f} s of the traced pass; less the overhead, "
        f"{accounted - (traced - untraced):.4f} s against {untraced:.4f} s untraced",
    ]
    last = traces[-1]
    for k, v in sorted(last["self_ms"].items(), key=lambda kv: -kv[1]):
        lines.append(f"  {k:44s} {v:11.2f} ms self {last['calls'][k]:9d} calls")
    if metrics["maps.gamma_iterative.calls"][0]:
        lines.append(
            f"gamma_iterative rewrites: {metrics['maps.gamma_iterative.rewrites'][0]:g} in all, "
            f"at most {metrics['maps.gamma_iterative.rewrites_max'][0]} for one input "
            f"(guard n**3: {VERIFY_GUARD} at n = 9, {MAP_GUARD} at n = 100)"
        )
    run.record.update(
        traces=traces, untraced_s=[p[0] for p in pairs], traced_s=[p[1] for p in pairs]
    )
    return metrics, lines


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of permbij; see the module docstring.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "permbij" / "__init__.py").is_file():
        print(f"error: no permbij package under {SRC}; run from a checkout", file=sys.stderr)
        return 2

    run = Run(args)
    try:
        metrics, lines = (measure_traced if args.trace else measure)(run)
    except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = run.failed == 0 and run.attempted > 0
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for line in lines:
        print(line)
    print(f"error_rate   {run.failed / max(run.attempted, 1):.6f}  ({run.failed} of {run.attempted} outputs wrong)")
    for message in run.errors:
        print(f"  wrong: {message}")
    run.record.update(attempted=run.attempted, failed=run.failed, errors=run.errors)
    run.record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(run.record, indent=1) + "\n")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
