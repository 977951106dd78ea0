"""The README quickstart runs as a doctest, so its quoted values stay true."""

from __future__ import annotations

import doctest
import pathlib

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_pass():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted >= 14
    assert result.failed == 0
