import itertools
import operator

import pytest

from permbij import perm
from permbij.perm import (
    avoids,
    bar,
    catalan,
    complement,
    enumerate_avoiders,
    excedances,
    fixed_points,
    format_permutation,
    identity,
    inverse,
    inverse_reverse_complement,
    is_permutation,
    parse_permutation,
    reverse,
    reverse_complement,
)

import helpers

GOLDEN = (1, 4, 2, 3, 7, 5, 8, 6)


# ---------------------------------------------------------------- parsing

def test_parse_separated():
    assert parse_permutation("1 4 2 3 7 5 8 6") == GOLDEN


def test_parse_compact_digits():
    assert parse_permutation("14237586") == GOLDEN


def test_parse_commas_and_mixed_whitespace():
    assert parse_permutation("1,4, 2,3,\t7 5,8,6") == GOLDEN


def test_parse_singleton():
    assert parse_permutation("1") == (1,)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty"),
        ("   ", "empty"),
        ("1 1", "duplicate value 1"),
        ("1 5 2", "value 5 out of range 1..3"),
        ("0 1", "value 0 out of range"),
        ("1 x 2", "'x'"),
        ("12345678910", "separators"),
        # int() takes each of these; the parser takes ASCII digits only
        ("2 1_0 3 4 5 6 7 8 9 1", "invalid token '1_0'"),
        ("+2 1", r"invalid token '\+2'"),
        ("\u0662 1", "invalid token '\u0662'"),
    ],
)
def test_parse_errors_name_the_offender(text, fragment):
    with pytest.raises(ValueError, match=fragment.replace("..", r"\.\.")):
        parse_permutation(text)


def test_parse_format_round_trip():
    for n in range(1, 6):
        for word in helpers.all_words(n):
            assert parse_permutation(format_permutation(word)) == word


def test_format_compact():
    assert format_permutation(GOLDEN, compact=True) == "14237586"
    with pytest.raises(ValueError, match="n <= 9"):
        format_permutation(identity(10), compact=True)


def test_is_permutation():
    assert is_permutation((1,))
    assert is_permutation([2, 1])
    assert not is_permutation(())
    assert not is_permutation((1, 3))
    assert not is_permutation((1, 1, 2))
    assert not is_permutation((2.0, 1.0))
    # bool is a subclass of int, yet True is no entry of a permutation
    assert not is_permutation((True, 2))
    assert not is_permutation((2, True))
    assert not is_permutation((True,))


# ------------------------------------------------------------- symmetries

def test_inverse_golden():
    q = inverse(GOLDEN)
    assert q == (1, 3, 4, 2, 6, 8, 5, 7)
    # q really is the inverse: q[p[i]] == i
    assert all(q[GOLDEN[i] - 1] == i + 1 for i in range(8))


def test_inverse_trivial():
    assert inverse(identity(4)) == identity(4)
    assert inverse((2, 1)) == (2, 1)


def test_reverse():
    assert reverse(GOLDEN) == (6, 8, 5, 7, 3, 2, 4, 1)
    assert reverse(identity(3)) == (3, 2, 1)
    assert reverse((2, 1)) == (1, 2)


def test_complement():
    assert complement(GOLDEN) == (8, 5, 7, 6, 2, 4, 1, 3)
    assert complement(identity(3)) == (3, 2, 1)
    assert complement((2, 1)) == (1, 2)


def test_reverse_complement_golden():
    assert reverse_complement(GOLDEN) == (3, 1, 4, 2, 6, 7, 5, 8)
    assert reverse_complement(identity(5)) == identity(5)
    assert reverse_complement((2, 1)) == (2, 1)


def test_inverse_reverse_complement_golden():
    assert inverse_reverse_complement(GOLDEN) == (2, 4, 1, 3, 7, 5, 6, 8)
    assert inverse_reverse_complement(identity(4)) == identity(4)
    assert inverse_reverse_complement((2, 1)) == (2, 1)


def test_bar_is_an_involution():
    for n in range(1, 10):
        for v in range(1, n + 1):
            assert bar(bar(v, n), n) == v


def test_symmetries_are_involutions_exhaustively():
    # every word of S_n for n <= 8
    for n in range(1, 9):
        for word in helpers.all_words(n):
            assert inverse(inverse(word)) == word
            assert reverse(reverse(word)) == word
            assert complement(complement(word)) == word
            assert inverse_reverse_complement(inverse_reverse_complement(word)) == word


def test_reverse_and_complement_commute_exhaustively():
    for n in range(1, 9):
        for word in helpers.all_words(n):
            assert reverse(complement(word)) == complement(reverse(word))
            assert reverse_complement(word) == reverse(complement(word))


# ----------------------------------------------------------------- patterns

def test_avoids_golden_cases():
    assert avoids(GOLDEN, "321")
    assert avoids((7, 8, 6, 4, 3, 5, 2, 1), "132")
    assert not avoids((3, 2, 1), "321")
    assert not avoids((1, 3, 2), "132")


def test_avoids_rejects_unknown_pattern():
    with pytest.raises(ValueError, match="unknown pattern"):
        avoids(GOLDEN, "213")


def test_avoids_matches_literal_triple_scan():
    for n in range(1, 8):
        for word in helpers.all_words(n):
            for pattern in ("321", "132"):
                assert avoids(word, pattern) == (
                    not helpers.contains_by_triples(word, pattern)
                )


def test_smallest_132_golden():
    assert helpers.smallest_132_by_passes(GOLDEN) == (1, 2, 3)
    assert helpers.smallest_132_by_passes(identity(6)) is None
    assert helpers.smallest_132_by_passes((1, 3, 2)) == (1, 2, 3)


def test_smallest_132_matches_brute_force_minimum():
    for n in range(1, 8):
        for word in helpers.all_words(n):
            assert helpers.smallest_132_by_passes(word) == helpers.smallest_132_by_triples(word)


# --------------------------------------------------------------- statistics

def test_fixed_points():
    assert fixed_points(GOLDEN) == 1
    assert fixed_points(identity(5)) == 5
    assert fixed_points((7, 8, 6, 4, 3, 5, 2, 1)) == 1


def test_excedances():
    assert excedances(GOLDEN) == 3
    assert excedances(identity(5)) == 0
    assert excedances((7, 8, 6, 4, 3, 5, 2, 1)) == 3


def test_statistics_match_literal_loops_exhaustively():
    for n in range(1, 8):
        for word in helpers.all_words(n):
            assert fixed_points(word) == helpers.fixed_points_by_loop(word)
            assert excedances(word) == helpers.excedances_by_loop(word)


# -------------------------------------------------------------- enumeration

def test_enumerate_small_classes():
    assert list(enumerate_avoiders(3, "321")) == [
        (1, 2, 3),
        (1, 3, 2),
        (2, 1, 3),
        (2, 3, 1),
        (3, 1, 2),
    ]
    assert list(enumerate_avoiders(1, "132")) == [(1,)]
    assert sum(1 for _ in enumerate_avoiders(4, "321")) == 14


def test_enumerate_is_lexicographic_and_counted_by_catalan():
    for n in range(1, 8):
        for pattern in ("321", "132"):
            members = list(enumerate_avoiders(n, pattern))
            assert members == sorted(members)
            assert len(members) == catalan(n)
            assert all(avoids(p, pattern) for p in members)


@pytest.mark.parametrize("pattern", ["321", "132"])
def test_enumerate_matches_the_factorial_filter(pattern):
    for n in range(1, 10):
        assert list(enumerate_avoiders(n, pattern)) == helpers.avoiders_by_filter(n, pattern)


@pytest.mark.parametrize("n", [10, 11, 12])
@pytest.mark.parametrize("pattern", ["321", "132"])
def test_enumerate_is_exact_past_the_factorial_filter(n, pattern):
    # a count alone would pass a duplicate that offsets a miss; strictly
    # increasing rules out duplicates, and each member is held to an oracle
    # that shares no code with the library
    members = list(enumerate_avoiders(n, pattern))
    assert all(map(operator.lt, members, members[1:]))
    assert len(members) == catalan(n)
    values = list(range(1, n + 1))
    assert all(type(p) is tuple and sorted(p) == values for p in members)
    if pattern == "321":
        contains = helpers.contains_321_by_excedances
    elif n <= 11:
        contains = helpers.contains_132_by_pairs
    else:
        # the pair scan would take about a second at n = 12
        def contains(word):
            return helpers.smallest_132_by_passes(word) is not None
    assert not any(map(contains, members))


def test_contains_321_by_excedances_matches_the_triple_scan():
    for n in range(1, 8):
        for word in helpers.all_words(n):
            assert helpers.contains_321_by_excedances(word) == helpers.contains_by_triples(
                word, "321"
            )


def test_enumerate_counts_are_catalan_up_to_the_bound():
    for n in range(1, 13):
        for pattern in ("321", "132"):
            assert sum(1 for _ in enumerate_avoiders(n, pattern)) == catalan(n)


def test_enumerate_cap():
    with pytest.raises(ValueError, match="outside 1..12"):
        next(enumerate_avoiders(13, "321"))
    with pytest.raises(ValueError, match="outside 1..12"):
        next(enumerate_avoiders(0, "132"))
    with pytest.raises(ValueError, match="unknown pattern"):
        next(enumerate_avoiders(3, "231"))


def test_enumerate_checks_its_arguments_at_the_call():
    with pytest.raises(ValueError, match="outside 1..12"):
        enumerate_avoiders(13, "321")
    with pytest.raises(ValueError, match="unknown pattern"):
        enumerate_avoiders(3, "231")


@pytest.mark.parametrize("pattern", ["321", "132"])
def test_the_byte_records_and_the_tuples_hold_one_class(pattern):
    # stats_table reads the records and everything else the tuples
    for n in range(1, 11):
        records = b"".join(perm._avoider_records(n, pattern))
        assert records == bytes(itertools.chain.from_iterable(enumerate_avoiders(n, pattern)))


def test_catalan_against_recurrence():
    # C_0 = 1, C_{m+1} = sum C_i C_{m-i}
    values = [1]
    for m in range(12):
        values.append(sum(values[i] * values[m - i] for i in range(m + 1)))
    for n in range(1, 13):
        assert catalan(n) == values[n]


def test_classes_closed_under_the_right_symmetries():
    for n in range(1, 9):
        for p in enumerate_avoiders(n, "321"):
            assert avoids(inverse_reverse_complement(p), "321")
            assert avoids(inverse(p), "321")
        for p in enumerate_avoiders(n, "132"):
            assert avoids(inverse(p), "132")
