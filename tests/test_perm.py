import hashlib
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
    inverse,
    inverse_reverse_complement,
    is_permutation,
    parse_permutation,
    reverse,
    reverse_complement,
)

import helpers
from helpers import identity

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


@pytest.mark.parametrize("pattern, sizes", [
    *(pytest.param(pattern, range(1, 11), id=pattern) for pattern in ("321", "132")),
    *(pytest.param(pattern, (11, 12), marks=pytest.mark.ci, id=f"{pattern}-n11-12")
      for pattern in ("321", "132")),
])
def test_the_byte_records_and_the_tuples_hold_one_class(pattern, sizes):
    # stats_table reads the records and everything else the tuples
    for n in sizes:
        records = b"".join(perm._avoider_records(n, pattern))
        assert records == bytes(itertools.chain.from_iterable(enumerate_avoiders(n, pattern)))


#: (n, pattern, sha256 of the joined records, sha256 of the block lengths
#: written in decimal and joined by spaces), recorded from the generating
#: tree before its child keys were computed once per entry v
RECORD_DIGESTS = [
    (1, "321", "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
     "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
    (2, "321", "4aa0ba7550f743782ebb71f24c8d2b5c231cd59f98a7d7d4bdaf4ab4eb82600a",
     "04412575067f0bdb6722e31a7ee45744cc1ecf2dfacec4cfbfa70cfd364bb7e2"),
    (3, "321", "e6d28ac1ad3e8972684cecceb0470dc22f79ceb24c60b4850e4f8088b3e6e7e0",
     "2692915e27f0e1d50eea5a9ab5d4cdbbc1c6905e1ad6d7213b6743d37c54f0e0"),
    (4, "321", "3d1249afe2f8ae8586ac848ead3fdb84b4ed2214b777f582cdd7cf9936c30223",
     "9f65a55dbc9d0b61434f4194e656f7968c4d3eac2a78b80fd0904f5c57cf0120"),
    (5, "321", "7bcc515d67358e7c213f8c0ad10c4d9bedf136dfe940678f79c18ce846dd8097",
     "afc57f5d90eeb8d96d1a894a7cac88a96345e43a87a70c8257106eb79d14d837"),
    (6, "321", "12d38c44278404a7193b37111aa60074cbe74e78bdd477b7413f709f5b401a1e",
     "2c233759075edaa0357670b1218486f9c53e08220601b55bdf29456949511f32"),
    (7, "321", "c27033d5fa73d8a5711c9610e008e44e4f5e4496ab9cba23e464af1a25a9ec85",
     "06578a26cb5c1ac3b5126c1c7d865124e256bfb821f0fd4f5d9609b8462bd2fb"),
    (8, "321", "4f49ce4bdd5444b0fcc1d4a84fae6bd3addade0e9849948c151c04aed891ec41",
     "21d9c25dae58262a9a08e8a439bcd0b7465caab03bd3dcae4d743c710497d94e"),
    (9, "321", "6eb1f12249388cfb347f58c790e77d0cb7ae775021bb15fd80ed9e32202bef0a",
     "62d760c42124be0cb707b6d6f8bb7c015f0798f5c69983e56c117fe2bec8293e"),
    (10, "321", "3eff089f6f97e87dc6f5ed752438bc06e0c514e90a91dba8ae65c0f91e326e1c",
     "efddf350d61a206b4e0de3afa6cd0586be0245a09f1b789cac1b4141f9125e02"),
    (11, "321", "88fe21f0c3aa3d9e533b69f84c13a1d71e5c3b5e0bcfa2c880668e65060619da",
     "3602b0c57d06f4450b1f6a3a195ebbb08844fa11c7c6467a1916cf1fc1095829"),
    (12, "321", "5c32e3601e7c5fb9a60c94f715cc2205072ab6c54ac78451341b2c9f02f7c715",
     "48de1f94b9ac96d69b10d5100985c052834476a2ab159e989626621b7f96121d"),
    (1, "132", "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
     "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b"),
    (2, "132", "4aa0ba7550f743782ebb71f24c8d2b5c231cd59f98a7d7d4bdaf4ab4eb82600a",
     "04412575067f0bdb6722e31a7ee45744cc1ecf2dfacec4cfbfa70cfd364bb7e2"),
    (3, "132", "322e7c45c47670dea50e4ad3a3884366a064f53a4c915d398959b70bf45dae25",
     "2692915e27f0e1d50eea5a9ab5d4cdbbc1c6905e1ad6d7213b6743d37c54f0e0"),
    (4, "132", "88988671dd091b860b37561d303b5b0fe844295a9a9118b1595b9dc844d087c4",
     "4508753d036d24b8969d0ca32067ae28ed8be6eba7517a68ff68dc26683e4ab2"),
    (5, "132", "ec4f259bb072f707ba97a75ae0ff1445ea4eb069a0c100c91b8266e4eddd1092",
     "10c2d2c1933b536e068ead5d0b780b3136de2e445cb70331f4821af61425255b"),
    (6, "132", "4893dfd63c67227deee746619454f639ed94bab4dcf5e9b6cc2cc0ec8cbcf977",
     "1c77f526d3495dadf8fc27481437d6cf411a4904e08237e07ec48de44706320a"),
    (7, "132", "3670b3eba4b667e714706190726b2c3c7a49952d8d45645c26bb78cb7360e9b4",
     "7fceaa364dab626383eca28c7527362653f9e99f91f79638d931b961400d8e37"),
    (8, "132", "0ccfb8a16d31597f645b6c403f6926d96fd119b3039f4663ab12af75a8577e87",
     "77b99a59a0e923de94dbed977eabf87d415bcd7e30430a0ea336672ccfc587be"),
    (9, "132", "7ec963358cdeefe3880ce29c93737ecd95ceeccf6f4e541e6de391df9892d8ff",
     "2e0cc9e6be34c1a673341b5a51f6a8d2ffa856694690d2c5651868c972ec0589"),
    (10, "132", "95831f4a71ae6f04629782ab90bff2fcf1f1224b305cb21f68ac3767a9f9cda4",
     "bbb0c7faa445a07e790a0c5bff4a142bef20b51dda5784c1485bb9393de4ffc1"),
    (11, "132", "d29ca31c0f51923d634aef6d36ba26454ebf7633dd3e2630c9658c776264bb45",
     "f9dc4b06bdf5db67cc91261ef3f645bccc869974a18121262c0b2fe713687b7d"),
    (12, "132", "f4d8f8e06f9cb29ca45abe08ff7713bd47d529ef928d176067f07260d9a92bfc",
     "1c3e51331820ac3a030274d0fdb43294d2682529578051c2c2b209b54684e47d"),
]


@pytest.mark.parametrize(
    "n, pattern, records_digest, blocks_digest",
    [pytest.param(*case, id=f"{case[1]}-n{case[0]}") for case in RECORD_DIGESTS],
)
def test_the_generating_tree_grows_the_recorded_records_and_blocks(
    n, pattern, records_digest, blocks_digest
):
    blocks = perm._avoider_records(n, pattern)
    assert hashlib.sha256(b"".join(blocks)).hexdigest() == records_digest
    lengths = " ".join(str(len(block)) for block in blocks).encode()
    assert hashlib.sha256(lengths).hexdigest() == blocks_digest


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
