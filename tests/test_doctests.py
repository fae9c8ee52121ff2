import doctest
from pathlib import Path

import pytest

import permbij.grid
import permbij.maps
import permbij.perm
import permbij.rsk


@pytest.mark.parametrize(
    "module",
    [permbij.perm, permbij.grid, permbij.rsk, permbij.maps],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0
    assert results.attempted > 0


def test_readme_examples():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    results = doctest.testfile(str(readme), module_relative=False, encoding="utf-8")
    assert results.failed == 0
    assert results.attempted > 0
