import argparse
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from permbij.cli import cli_main
from permbij.maps import gamma, theta
from permbij.perm import avoids, catalan, format_permutation, is_permutation
from permbij.verify import CHECKS, CheckReport

import helpers

GOLDEN_TEXT = "1 4 2 3 7 5 8 6"


def run(capsys, *argv):
    status = cli_main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


# ----------------------------------------------------------------------- map

def test_map_theta(capsys):
    status, out, _ = run(capsys, "map", "--bijection", "theta", "--input", GOLDEN_TEXT)
    assert status == 0
    assert out == "7 5 4 2 3 1 6 8\n"


def test_map_gamma(capsys):
    status, out, _ = run(capsys, "map", "--bijection", "gamma", "--input", GOLDEN_TEXT)
    assert status == 0
    assert out == "7 8 6 4 3 5 2 1\n"


def test_map_symmetries_compact(capsys):
    status, out, _ = run(
        capsys, "map", "--bijection", "rc", "--input", "14237586", "--compact"
    )
    assert status == 0
    assert out == "31426758\n"
    status, out, _ = run(
        capsys, "map", "--bijection", "irc", "--input", "14237586", "--compact"
    )
    assert out == "24137568\n"


def test_map_all_theta_routes_agree(capsys):
    outputs = set()
    for name in ("theta", "theta-rsk", "theta-slide-flip", "theta-via-gamma"):
        _, out, _ = run(capsys, "map", "--bijection", name, "--input", GOLDEN_TEXT)
        outputs.add(out)
    assert outputs == {"7 5 4 2 3 1 6 8\n"}


def test_map_json_record(capsys):
    status, out, _ = run(
        capsys, "map", "--bijection", "theta", "--input", GOLDEN_TEXT,
        "--format", "json",
    )
    assert status == 0
    record = json.loads(out)
    assert record == {
        "n": 8,
        "sigma": [1, 4, 2, 3, 7, 5, 8, 6],
        "map": "theta",
        "image": [7, 5, 4, 2, 3, 1, 6, 8],
        "fixed_points": 1,
        "excedances": 3,
    }
    assert json.loads(json.dumps(record)) == record


def test_map_domain_error_exits_2(capsys):
    status, out, err = run(capsys, "map", "--bijection", "theta", "--input", "3 2 1")
    assert status == 2
    assert out == ""
    assert "321" in err


def test_map_parse_error_exits_2(capsys):
    status, _, err = run(capsys, "map", "--bijection", "theta", "--input", "1 1")
    assert status == 2
    assert "duplicate" in err


# -------------------------------------------------------------------- render

def test_render_dyck(capsys):
    status, out, _ = run(capsys, "render", "--what", "dyck", "--input", GOLDEN_TEXT)
    assert status == 0
    assert out == "uuuduuddududdudd\n"


def test_render_tableaux(capsys):
    status, out, _ = run(capsys, "render", "--what", "tableaux", "--input", "14237586")
    assert status == 0
    assert out == "insertion: 1 2 3 5 6 / 4 7 8\nrecording: 1 2 4 5 7 / 3 6 8\n"


def test_render_tableaux_single_row(capsys):
    _, out, _ = run(capsys, "render", "--what", "tableaux", "--input", "123")
    assert out == "insertion: 1 2 3\nrecording: 1 2 3\n"


def test_render_t_sigma(capsys):
    status, out, _ = run(capsys, "render", "--what", "t-sigma", "--input", "14237586")
    assert status == 0
    assert out == (
        "o.#.##..\n"
        "###o##..\n"
        ".o..##..\n"
        "..o.##..\n"
        "######o.\n"
        "....o#..\n"
        "######.o\n"
        ".....o..\n"
    )


def test_render_t_hat(capsys):
    status, out, _ = run(capsys, "render", "--what", "t-hat", "--input", "14237586")
    assert status == 0
    assert out == (
        "######o.\n"
        "######.o\n"
        "#####o..\n"
        "###o....\n"
        "##o.....\n"
        "##..o...\n"
        "#o......\n"
        "o.......\n"
    )


def test_render_rc_bar(capsys):
    status, out, _ = run(capsys, "render", "--what", "rc-bar", "--input", "14237586")
    assert status == 0
    assert out == (
        "o.......\n"
        "...o....\n"
        ".o.#####\n"
        "..o#....\n"
        "...#..o.\n"
        "...#o.##\n"
        "...#..#o\n"
        "...#.o##\n"
    )


def test_render_theta_template(capsys):
    status, out, _ = run(
        capsys, "render", "--what", "theta-template", "--input", "14237586"
    )
    assert status == 0
    assert out == (
        "######o.\n"
        "####o...\n"
        "###o....\n"
        "#o......\n"
        "#.o.....\n"
        "o.......\n"
        ".....o..\n"
        ".......o\n"
    )


# -------------------------------------------------------------------- verify

def test_verify_text(capsys):
    status, out, _ = run(
        capsys, "verify", "--n-min", "1", "--n-max", "2",
        "--checks", "fact2,theorem3",
    )
    assert status == 0
    assert out == (
        "PASS fact2 n=1 cases=1 failures=0\n"
        "PASS fact2 n=2 cases=2 failures=0\n"
        "PASS theorem3 n=1 cases=1 failures=0\n"
        "PASS theorem3 n=2 cases=2 failures=0\n"
    )


@pytest.mark.parametrize("n_min, n_max, checks", [
    pytest.param(1, 3, ("lemma3",), id="lemma3-n1-3"),
    # every check (no --checks), over all 16,796 members of S_10(321)
    pytest.param(10, 10, (), marks=pytest.mark.ci, id="every-check-n10"),
    # Theorem 2's chain: the slide-and-flip route moves the rc-template's
    # L's, which rc-template and bar-reflection check
    pytest.param(11, 11, ("bar-reflection", "rc-template", "theorem2-route"),
                 marks=pytest.mark.ci, id="theorem2-chain-n11"),
])
def test_verify_json_lines_parse_and_round_trip(n_min, n_max, checks):
    # a new process, which exits nonzero when any check fails
    argv = ["verify", "--n-min", str(n_min), "--n-max", str(n_max), "--format", "json"]
    if checks:
        argv += ["--checks", ",".join(checks)]
    lines = helpers.run_python("-m", "permbij", *argv).splitlines()
    reports = [CheckReport.from_json_line(line) for line in lines]
    expected = [(c, n) for c in sorted(checks or CHECKS) for n in range(n_min, n_max + 1)]
    assert [(r.check, r.n) for r in reports] == expected
    for line, report in zip(lines, reports):
        assert report.passed and report.cases == catalan(report.n), line
        assert report.json_line() == line, f"{report.check} does not write its line back"


def test_verify_unknown_check_exits_2(capsys):
    status, _, err = run(capsys, "verify", "--checks", "made-up")
    assert status == 2
    assert "unknown checks" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    def always_failing(n):
        yield {"input": [1], "expected": 0, "actual": 1}

    monkeypatch.setitem(CHECKS, "fact2", always_failing)
    status, out, _ = run(capsys, "verify", "--n-max", "1", "--checks", "fact2")
    assert status == 1
    assert out.startswith("FAIL fact2 n=1")


def test_verify_n11_runs_without_warning(capsys):
    status, out, err = run(
        capsys, "verify", "--n-min", "11", "--n-max", "11", "--checks", "catalan-counts"
    )
    assert status == 0
    assert err == ""
    assert out == "PASS catalan-counts n=11 cases=58786 failures=0\n"


def test_verify_n_min_above_the_default_n_max_runs_that_n(capsys):
    status, out, err = run(capsys, "verify", "--n-min", "9", "--checks", "catalan-counts")
    assert status == 0
    assert err == ""
    assert out == "PASS catalan-counts n=9 cases=4862 failures=0\n"


def test_verify_reversed_range_exits_2(capsys):
    status, out, err = run(
        capsys, "verify", "--n-min", "9", "--n-max", "8", "--checks", "catalan-counts"
    )
    assert status == 2
    assert out == ""
    assert "n range 9..8 is empty or outside 1..12" in err


def test_verify_over_cap_exits_2(capsys):
    status, out, err = run(capsys, "verify", "--n-max", "13", "--checks", "fact2")
    assert status == 2
    assert out == ""
    assert "outside 1..12" in err


def test_input_dash_reads_standard_input(capsys, monkeypatch):
    for argv in (
        ("map", "--bijection", "theta"),
        ("map", "--bijection", "gamma", "--compact"),
        ("render", "--what", "t-sigma"),
        ("render", "--what", "tableaux"),
    ):
        from_argument = run(capsys, *argv, "--input", GOLDEN_TEXT)
        monkeypatch.setattr(sys, "stdin", io.StringIO(GOLDEN_TEXT + "\n"))
        assert run(capsys, *argv, "--input", "-") == from_argument


def test_input_dash_with_empty_standard_input_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    status, out, err = run(capsys, "map", "--bijection", "theta", "--input", "-")
    assert status == 2
    assert out == ""
    assert "empty permutation text" in err


#: (n, seed prefix, the in-process map, the `permbij map` chains that must
#: print its image); theta(s) = gamma(irc s), so gamma runs on irc s
MAP_CASES = [
    pytest.param(30_000, "cli:stdin", gamma, [("gamma",)], id="gamma-30000"),
    *(pytest.param(n, "cli", theta,
                   [("theta",), ("theta-slide-flip",), ("theta-rsk",), ("irc", "gamma")],
                   marks=pytest.mark.ci, id=f"template-routes-{n}")
      for n in (10_000, 100_000)),
    # the rewriting routes against the template routes, at their largest n
    *(pytest.param(helpers.LARGEST_N[f"cli.map.{route}"], "cli", image, [(route,), (other,)],
                   marks=pytest.mark.ci, id=route)
      for route, other, image in (("gamma-iterative", "gamma", gamma),
                                  ("theta-via-gamma", "theta", theta))),
]


@pytest.mark.parametrize("n, seed, image, chains", MAP_CASES)
def test_map_reads_an_input_over_the_argument_cap_from_stdin(n, seed, image, chains):
    # Linux refuses one command-line argument over 128 KiB, so every word
    # goes in on stdin, and the one at n = 30,000 is over it
    sigma = helpers.uniform_321_avoider(n, random.Random(f"{seed}:{n}"))
    text = format_permutation(sigma)
    assert n < 30_000 or len(text.encode()) > 128 * 1024
    expected = image(sigma)
    assert len(expected) == n and is_permutation(expected) and avoids(expected, "132")
    assert helpers.smallest_132_by_passes(expected) is None
    for chain in chains:
        out = text
        for bijection in chain:
            out = helpers.run_python("-m", "permbij", "map", "--bijection", bijection,
                                     "--input", "-", stdin=out)
        assert out == format_permutation(expected) + "\n", chain


def test_a_reader_that_closes_early_gets_no_traceback():
    # S_10(321) prints about 350 kB, more than a pipe holds, so the writer
    # is still printing when the reader goes away
    src = Path(__file__).resolve().parents[1] / "src"
    with subprocess.Popen(
        [sys.executable, "-m", "permbij", "enumerate", "--n", "10", "--avoid", "321"],
        env={**os.environ, "PYTHONPATH": str(src)},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        assert proc.stdout.readline() == "1 2 3 4 5 6 7 8 9 10\n"
        proc.stdout.close()
        assert proc.stderr.read() == ""
        assert proc.wait(timeout=60) == 141


# --------------------------------------------------------------------- stats

def test_stats_text(capsys):
    status, out, _ = run(capsys, "stats", "--n", "2", "--class", "321")
    assert status == 0
    assert out == (
        "n=2 avoid=321 total=2\n"
        "fixed_points=0 excedances=1 count=1\n"
        "fixed_points=2 excedances=0 count=1\n"
    )


def test_stats_json(capsys):
    status, out, _ = run(
        capsys, "stats", "--n", "3", "--class", "132", "--format", "json"
    )
    assert status == 0
    record = json.loads(out)
    assert record["n"] == 3
    assert record["class"] == "132"
    assert record["total"] == 5
    assert {(r["fixed_points"], r["excedances"]): r["count"] for r in record["rows"]} == {
        (3, 0): 1,
        (1, 1): 2,
        (0, 2): 1,
        (0, 1): 1,
    }


def test_stats_out_of_range_exits_2(capsys):
    status, _, err = run(capsys, "stats", "--n", "13", "--class", "321")
    assert status == 2
    assert "error:" in err


# ----------------------------------------------------------------- enumerate

def test_enumerate(capsys):
    status, out, _ = run(capsys, "enumerate", "--n", "3", "--avoid", "321")
    assert status == 0
    assert out == "1 2 3\n1 3 2\n2 1 3\n2 3 1\n3 1 2\n"


def test_enumerate_compact(capsys):
    status, out, _ = run(capsys, "enumerate", "--n", "3", "--avoid", "132", "--compact")
    assert status == 0
    assert out == "123\n213\n231\n312\n321\n"


def test_enumerate_over_cap_exits_2(capsys):
    status, _, err = run(capsys, "enumerate", "--n", "13", "--avoid", "321")
    assert status == 2
    assert "outside" in err


# ---------------------------------------------------------------- usage errors

def test_no_arguments_is_a_usage_error(capsys):
    assert run(capsys, *[])[0] == 2


def test_unknown_bijection_is_a_usage_error(capsys):
    status, _, err = run(capsys, "map", "--bijection", "sigma", "--input", "1")
    assert status == 2


# -------------------------------------------------------------- parser reuse

def test_later_calls_build_no_parser(capsys, monkeypatch):
    run(capsys, "map", "--bijection", "theta", "--input", GOLDEN_TEXT)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (
        ("map", "--bijection", "gamma", "--input", GOLDEN_TEXT),
        ("render", "--what", "dyck", "--input", GOLDEN_TEXT),
        ("verify", "--n-max", "1", "--checks", "fact2"),
        ("map", "--bijection", "sigma", "--input", "1"),
    ):
        run(capsys, *argv)
    assert built == []


def test_a_call_carries_nothing_into_the_next(capsys):
    def map_golden(*extra):
        return run(capsys, "map", "--bijection", "theta", "--input", GOLDEN_TEXT, *extra)

    plain = (0, "7 5 4 2 3 1 6 8\n", "")
    status, out, _ = map_golden("--format", "json")
    assert status == 0 and json.loads(out)["image"] == [7, 5, 4, 2, 3, 1, 6, 8]
    assert map_golden() == plain
    assert map_golden("--compact") == (0, "75423168\n", "")
    assert map_golden() == plain

    status, out, err = run(capsys, "map", "--bijection", "sigma", "--input", "1")
    assert (status, out) == (2, "")
    assert err.startswith("usage: permbij map ") and "invalid choice: 'sigma'" in err
    assert map_golden() == plain

    for argv in (("--help",), ("map", "--help")):
        status, out, err = run(capsys, *argv)
        assert (status, err) == (0, "")
        assert out.startswith(f"usage: {' '.join(('permbij', *argv[:-1]))} ")
        assert map_golden() == plain

    _, out, _ = run(capsys, "verify", "--checks", "fact2", "--n-max", "2")
    assert out.count("\n") == 2
    status, out, _ = run(capsys, "verify", "--n-max", "2")
    lines = out.splitlines()
    assert status == 0 and len(CHECKS) == 16 and len(lines) == 2 * 16
    assert {line.split()[1] for line in lines} == set(CHECKS)
    assert all(line.startswith("PASS ") for line in lines)
