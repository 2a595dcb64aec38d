"""The batch-major forward pass computes what the per-instance one did.

``data/equivalence.npz`` was written by the per-instance implementation
at commit 6cd5abb9b17a2aa9340ca31eab908df0d67ca89e, with

    PYTHONPATH=src python tests/make_equivalence_fixture.py tests/data/equivalence.npz

run in a checkout of that commit. It holds, for every combination of
pg_mode and head count, each loss component, the mean reward and each
parameter gradient of one ``_batch_losses`` call on a seeded rollout
stream, and the deterministic per-instance embeddings. Matching the
stochastic cases also pins the order in which the rollout noise is drawn.
Each array must agree within 1e-12 x max(1, max|parent|).

That commit also ran every case with the action space's relaxed
straight-through forward, since retired; its ``-st1`` arrays stay in the
file unread, and the cases read here keep their ``-st0`` keys.
"""

import os

import numpy as np
import pytest

import make_equivalence_fixture as fixture

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "equivalence.npz")
REL_TOL = 1e-12


@pytest.fixture(scope="module")
def parent():
    with np.load(FIXTURE) as data:
        return {name: data[name] for name in data.files}


@pytest.mark.parametrize("case", fixture.cases())
def test_batched_losses_and_gradients_match_parent(parent, case):
    current = fixture.run_case(case)
    expected = {k: v for k, v in parent.items() if k.startswith(case + "/")}
    assert sorted(current) == sorted(expected)
    for name, want in expected.items():
        got = current[name]
        assert got.shape == want.shape, name
        bound = REL_TOL * max(1.0, float(np.max(np.abs(want))))
        err = float(np.max(np.abs(got - want)))
        assert err <= bound, f"{name}: max |diff| {err:.3g} > {bound:.3g}"
