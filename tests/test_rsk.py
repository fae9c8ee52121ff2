import pytest

from permbij import rsk
from permbij.grid import Template
from permbij.perm import avoids, bar, enumerate_avoiders
from permbij.rsk import (
    TwoRowTableau,
    dyck_from_tableaux,
    rsk_tableaux,
    template_from_dyck,
    validate_dyck,
)

import helpers
from helpers import identity

GOLDEN = (1, 4, 2, 3, 7, 5, 8, 6)
GOLDEN_WORD = "uuuduuddududdudd"


# ----------------------------------------------------------- TwoRowTableau

@pytest.mark.parametrize(
    "row1, row2, fragment",
    [
        ((1,), (2, 3), "shorter"),
        ((2, 1, 3), (), "strictly increasing"),
        ((1, 2), (4,), "partition"),
        ((2, 3), (1,), "columns"),
        ((1.0, 2), (), "ints"),
        ((True,), (), "ints"),
        ((1, 2), (3.0,), "ints"),
        (None, (), "sequences"),
        ((1, 2), 5, "sequences"),
    ],
)
def test_tableau_validation(row1, row2, fragment):
    with pytest.raises(ValueError, match=fragment):
        TwoRowTableau(row1, row2)


@pytest.mark.parametrize("row1, row2", [([1, 2], (3,)), ([1, 2], [3])])
def test_tableau_stores_its_rows_as_tuples(row1, row2):
    tableau = TwoRowTableau(row1, row2)
    assert (tableau.row1, tableau.row2) == ((1, 2), (3,))
    assert tableau == TwoRowTableau((1, 2), (3,))
    assert hash(tableau) == hash(TwoRowTableau((1, 2), (3,)))


def test_tableau_column_violation_in_the_last_column_of_row2():
    # the column scan stops at the end of row2, so its last entry must count
    with pytest.raises(ValueError, match="columns"):
        TwoRowTableau((1, 4, 5), (2, 3))


def test_tableau_shape_and_size():
    t = TwoRowTableau((1, 2, 3, 5, 6), (4, 7, 8))
    assert t.shape == (5, 3)
    assert t.size == 8


# ------------------------------------------------------------- insertion

def test_rsk_golden():
    ins, rec = rsk_tableaux(GOLDEN)
    assert ins == TwoRowTableau((1, 2, 3, 5, 6), (4, 7, 8))
    assert rec == TwoRowTableau((1, 2, 4, 5, 7), (3, 6, 8))


def test_rsk_identity_gives_single_rows():
    ins, rec = rsk_tableaux(identity(4))
    assert ins == TwoRowTableau((1, 2, 3, 4))
    assert rec == TwoRowTableau((1, 2, 3, 4))


def test_rsk_transposition():
    ins, rec = rsk_tableaux((2, 1))
    assert ins == TwoRowTableau((1,), (2,))
    assert rec == TwoRowTableau((1,), (2,))


def test_rsk_rejects_exactly_the_321_containing_words():
    for n in range(1, 7):
        for word in helpers.all_words(n):
            if avoids(word, "321"):
                rsk_tableaux(word)
            else:
                with pytest.raises(ValueError, match="321"):
                    rsk_tableaux(word)


def test_rsk_shapes_agree_and_first_row_counts_upsteps():
    for n in range(1, 10):
        for p in enumerate_avoiders(n, "321"):
            ins, rec = rsk_tableaux(p)
            assert ins.shape == rec.shape
            word = dyck_from_tableaux(ins, rec)
            assert word[:n].count("u") == len(ins.row1)


def test_the_tableaux_of_the_last_tuple_are_kept_for_the_insertion_at_the_call(monkeypatch):
    calls = []

    def counted(word):
        calls.append(word)
        return rsk_tableaux(word)

    monkeypatch.setattr(rsk, "rsk_tableaux", counted)
    p = (2, 1, 4, 3)
    # two reads of one tuple, as lemma1's two sides make, insert it once
    assert rsk._tableaux_of(p) is rsk._tableaux_of(p)
    assert calls == [p]
    # an equal tuple is another tuple, and a list is never kept
    rsk._tableaux_of(tuple(list(p)))
    rsk._tableaux_of(list(p))
    rsk._tableaux_of(list(p))
    assert len(calls) == 4
    # rsk_tableaux patched again is honoured for the very tuple last read
    swapped = tuple(reversed(rsk_tableaux(p)))
    monkeypatch.setattr(rsk, "rsk_tableaux", lambda word: swapped)
    assert rsk._tableaux_of(p) == swapped


# ------------------------------------------------------------- path words

def test_dyck_word_golden_halves():
    word = dyck_from_tableaux(*rsk_tableaux(GOLDEN))
    assert word == GOLDEN_WORD
    assert word[:8] == "uuuduudd"
    assert word[8:] == "ududdudd"


def test_dyck_word_single_row():
    assert dyck_from_tableaux(*rsk_tableaux(identity(3))) == "uuuddd"


def test_dyck_word_transposition():
    assert dyck_from_tableaux(*rsk_tableaux((2, 1))) == "udud"


def test_dyck_word_rejects_mismatched_shapes():
    ins, _ = rsk_tableaux((2, 1))
    single, _ = rsk_tableaux(identity(2))
    with pytest.raises(ValueError, match="shapes differ"):
        dyck_from_tableaux(ins, single)


def test_dyck_words_always_validate():
    for n in range(1, 10):
        for p in enumerate_avoiders(n, "321"):
            assert validate_dyck(dyck_from_tableaux(*rsk_tableaux(p)))


def test_validate_dyck():
    assert validate_dyck(GOLDEN_WORD)
    assert validate_dyck("uudd")
    assert validate_dyck("udud")
    assert not validate_dyck("duud")
    assert not validate_dyck("ud" * 3 + "d")
    assert not validate_dyck("uu")
    assert not validate_dyck("uxd")


def test_validate_dyck_matches_recursive_generator():
    # for n = 3 the 20 words over {u,d} of length 6 split 5 / 15
    from itertools import product

    expected = set(helpers.dyck_words(3))
    for letters in product("ud", repeat=6):
        word = "".join(letters)
        assert validate_dyck(word) == (word in expected)


# -------------------------------------------------------- path to template

def test_template_from_dyck_golden_row_widths():
    t = template_from_dyck(GOLDEN_WORD, 8)
    rows = [helpers.shaded_row(t, i) for i in range(1, 9)]
    widths = [len(row) for row in rows]
    assert widths == [6, 4, 3, 1, 1, 0, 0, 0]
    assert all(row == frozenset(range(1, w + 1)) for row, w in zip(rows, widths))


def test_template_from_dyck_extremes():
    assert template_from_dyck("uuuddd", 3).shaded == frozenset()
    assert template_from_dyck("udud", 2).shaded == frozenset({(1, 1)})


def test_template_from_dyck_rejects_bad_input():
    with pytest.raises(ValueError, match="length 6"):
        template_from_dyck("udud", 3)
    with pytest.raises(ValueError, match="not a balanced"):
        template_from_dyck("dduu", 2)
    with pytest.raises(ValueError, match="grid size must be positive, got 0"):
        template_from_dyck("", 0)
    # a size the Template constructor rejects is rejected with its message
    for word, n in [("udud", 2.0), ("ud", True)]:
        with pytest.raises(ValueError, match="grid size and run entries must be ints"):
            template_from_dyck(word, n)


def test_template_from_dyck_matches_polygon_membership():
    # independent geometry: even-odd ray casting over the closed region
    for n in range(1, 6):
        for word in helpers.dyck_words(n):
            t = template_from_dyck(word, n)
            assert set(t.shaded) == helpers.left_of_path_by_polygon(word, n)
    assert set(template_from_dyck(GOLDEN_WORD, 8).shaded) == (
        helpers.left_of_path_by_polygon(GOLDEN_WORD, 8)
    )


def test_left_of_path_region_always_realizes_a_132_avoider():
    # for every balanced word, not only those arising from tableaux
    from permbij.grid import realize

    for n in range(1, 10):
        for word in helpers.dyck_words(n):
            assert avoids(realize(template_from_dyck(word, n)), "132")


# --------------------------------------------- inverted-L shape of the region

def test_path_template_decomposes_into_diagonal_ls():
    from permbij.grid import diagonal_ls

    for n in range(1, 7):
        for p in enumerate_avoiders(n, "321"):
            ins, rec = rsk_tableaux(p)
            legs = [(bar(a, n), bar(b, n)) for a, b in zip(ins.row2, rec.row2)]
            rebuilt = diagonal_ls(n, legs)
            walked = template_from_dyck(dyck_from_tableaux(ins, rec), n)
            assert rebuilt.shaded == walked.shaded
