"""The committed mutants still apply to the tree (``tests/mutants.py`` runs them)."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_exactly_once(mutant):
    text = (ROOT / "src" / "arcseq" / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
