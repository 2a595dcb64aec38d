"""``recipe_digests.py --expect``: the comparison with a saved run, on
hand-written lines and stand-in recipes (no training), and every recipe
against the digests saved in ``data/recipe_digests.txt``."""

from pathlib import Path

import numpy as np
import pytest

import recipe_digests

SAVED_DIGESTS = Path(__file__).parent / "data" / "recipe_digests.txt"

SAVED = """\
reference              records aaa params bbb embeddings eee reload rrr
stress                 records ccc params ddd embeddings fff reload sss

"""


def test_parse_and_compare_lines():
    expected = recipe_digests.parse_lines(SAVED.splitlines())
    assert sorted(expected) == ["reference", "stress"]
    assert not recipe_digests.differs(
        "reference records aaa params bbb embeddings eee reload rrr", expected)
    assert not recipe_digests.differs(
        "stress    records ccc  params ddd embeddings fff reload sss", expected)
    assert recipe_digests.differs(
        "stress                 records ccc params dde embeddings fff reload sss", expected)
    assert recipe_digests.differs(
        "reference              records aab params bbb embeddings eee reload rrr", expected)
    assert recipe_digests.differs(
        "reference              records aaa params bbb embeddings eef reload rrr", expected)
    assert recipe_digests.differs(
        "reference              records aaa params bbb embeddings eee reload rrs", expected)
    assert recipe_digests.differs(
        "reference              records aaa params bbb embeddings eee", expected)
    assert recipe_digests.differs(
        "criterion9             records aaa params bbb embeddings eee reload rrr", expected)


@pytest.fixture
def saved(tmp_path, monkeypatch):
    # stand-in recipes whose "training" returns fixed digests: reference
    # matches the saved run, stress differs in its parameter digest
    monkeypatch.setattr(recipe_digests, "recipes", lambda: iter(
        [("reference", ("aaa", "bbb", "eee", "rrr"), None),
         ("stress", ("ccc", "dde", "fff", "sss"), None)]))
    monkeypatch.setattr(recipe_digests, "digests", lambda fake, config: fake)
    path = tmp_path / "saved.txt"
    path.write_text(SAVED)
    return path


def test_expect_names_the_first_recipe_that_differs(saved, capsys):
    assert recipe_digests.main(["--expect", str(saved)]) == 1
    out, err = capsys.readouterr()
    assert out.split() == ("reference records aaa params bbb embeddings eee reload rrr "
                           "stress records ccc params dde embeddings fff reload sss").split()
    assert err == f"stress: digests differ from {saved}\n"


def test_expect_passes_when_every_line_matches(saved, capsys):
    assert recipe_digests.main(["reference", "--expect", str(saved)]) == 0
    out, err = capsys.readouterr()
    assert out.split() == "reference records aaa params bbb embeddings eee reload rrr".split()
    assert err == ""


def test_every_recipe_matches_the_saved_digests(capsys):
    """Training, the read path and a checkpoint round trip stay bit for bit
    what they were when the saved digests were made (with numpy 2.4.6)."""
    code = recipe_digests.main(["--expect", str(SAVED_DIGESTS)])
    err = capsys.readouterr().err.strip()
    assert code == 0, f"{err} (numpy {np.__version__})"
