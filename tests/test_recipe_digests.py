"""``recipe_digests.py --expect``: the comparison with saved runs, on
hand-written lines and stand-in recipes (no training), and every recipe
against the digests saved in ``data/recipe_digests.txt`` under the
pinned BLAS kernel."""

from pathlib import Path

import pytest

import recipe_digests

SAVED_DIGESTS = Path(__file__).parent / "data" / "recipe_digests.txt"

SAVED = """\
kernel K1 openblas 0.0 numpy 0.0
reference              records aaa params bbb embeddings eee reload rrr
stress                 records ccc params ddd embeddings fff reload sss

kernel K2 openblas 0.0 numpy 0.0
reference              records zzz params bbb embeddings eee reload rrr
"""


def test_parse_and_compare_lines():
    sets = recipe_digests.parse_lines(SAVED.splitlines())
    assert sorted(sets) == ["K1", "K2"]
    expected = sets["K1"]
    assert sorted(expected) == ["reference", "stress"]
    assert sorted(sets["K2"]) == ["reference"]
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
    assert recipe_digests.differs(
        "reference              records aaa params bbb embeddings eee reload rrr", sets["K2"])


@pytest.fixture
def saved(tmp_path, monkeypatch):
    # stand-in recipes whose "training" returns fixed digests on kernel K1:
    # reference matches the saved run, stress differs in its parameter digest
    monkeypatch.setattr(recipe_digests, "recipes", lambda: iter(
        [("reference", ("aaa", "bbb", "eee", "rrr"), None),
         ("stress", ("ccc", "dde", "fff", "sss"), None)]))
    monkeypatch.setattr(recipe_digests, "digests", lambda fake, config: fake)
    monkeypatch.setattr(recipe_digests, "blas_kernel", lambda: ("K1", "0.0"))
    path = tmp_path / "saved.txt"
    path.write_text(SAVED)
    return path


def test_expect_names_the_first_recipe_that_differs(saved, capsys):
    assert recipe_digests.main(["--kernel", "native", "--expect", str(saved)]) == 1
    out, err = capsys.readouterr()
    header, *lines = out.splitlines()
    assert header.startswith("kernel K1 openblas 0.0 numpy ")
    assert " ".join(lines).split() == (
        "reference records aaa params bbb embeddings eee reload rrr "
        "stress records ccc params dde embeddings fff reload sss").split()
    assert err == f"stress: digests differ from {saved} (kernel K1)\n"


def test_expect_passes_when_every_line_matches(saved, capsys):
    assert recipe_digests.main(["reference", "--kernel", "native", "--expect", str(saved)]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[1].split() == (
        "reference records aaa params bbb embeddings eee reload rrr").split()
    assert err == ""


def test_expect_without_a_line_set_for_the_kernel(saved, capsys, monkeypatch):
    monkeypatch.setattr(recipe_digests, "blas_kernel", lambda: ("K3", "0.0"))
    code = recipe_digests.main(["--kernel", "native", "--expect", str(saved)])
    assert code == recipe_digests.NO_LINE_SET
    out, err = capsys.readouterr()
    assert out.startswith("kernel K3 ") and len(out.splitlines()) == 1
    assert err == f"{saved} has no line set for kernel K3\n"


def test_every_recipe_matches_the_saved_digests(capsys):
    """Training, the read path and a checkpoint round trip stay bit for bit
    what they were when the saved digests were made, on the kernel every
    x86-64 CPU runs (in a child process, whatever kernel this one runs).
    Where that kernel cannot run (another architecture, or a numpy on
    another BLAS) there is no line set to compare with."""
    code = recipe_digests.main(["--expect", str(SAVED_DIGESTS)])
    out, err = capsys.readouterr()
    if code == recipe_digests.NO_LINE_SET:
        pytest.skip(err.strip())
    assert code == 0, f"{err.strip()} ({out.splitlines()[0] if out else 'no output'})"
