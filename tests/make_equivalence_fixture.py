"""Write the numbers that ``test_equivalence.py`` compares against.

For a tiny model (d=8, B=4, 3 regions, 4 tokens) and every combination of
pg_mode and head count, it stores every loss component, the mean reward
and every parameter gradient of one ``training._batch_losses`` call with
a seeded rollout stream, plus the deterministic ``embed_image`` /
``embed_text`` output of each instance. Run it as::

    PYTHONPATH=src python tests/make_equivalence_fixture.py tests/data/equivalence.npz

The committed file was written at 6cd5abb, when the action space had a
relaxed straight-through forward and each case also ran with it switched
on. Those ``-st1`` arrays are still in the file but no longer read; the
kept cases carry the ``-st0`` suffix of that run.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

from pgmatch import autodiff as ad
from pgmatch.config import ModelConfig
from pgmatch.data import Instance
from pgmatch.model import MatchingModel
from pgmatch.training import _batch_losses

BATCH = 4
REGIONS = 3
TOKENS = 4
VOCAB = 7
PG_MODES = ("off", "discrete", "continuous", "compound")
HEADS = (1, 2)
ROLLOUT_SEED = 31


def cases():
    return [f"{pg}-h{heads}-st0" for pg, heads in itertools.product(PG_MODES, HEADS)]


def parse_case(name):
    pg, heads, _ = name.split("-")
    return pg, int(heads[1:])


def instances():
    rng = np.random.default_rng(2024)
    out = []
    for k in range(BATCH):
        tokens = rng.integers(0, VOCAB, TOKENS)
        out.append(Instance(class_id=k, regions=rng.standard_normal((REGIONS, 8)),
                            tokens=tokens.astype(np.int64)))
    return out


def build_model(pg_mode, heads):
    config = ModelConfig(feature_dim=8, word_dim=6, hidden=8, embed_dim=8, decoder_dim=5,
                         n_actions=9, batch_size=BATCH, epochs=1, heads=heads,
                         pg_mode=pg_mode, init_scale=0.3, decoder_init_scale=0.3, lam=4.0)
    return MatchingModel(config, VOCAB, BATCH, np.random.default_rng(5))


def run_case(name) -> dict:
    """Every array the fixture holds for one case, keyed ``<case>/<field>``."""
    pg_mode, heads = parse_case(name)
    model = build_model(pg_mode, heads)
    insts = instances()
    out = {}
    ad.clear_tape()
    bundle, mean_reward = _batch_losses(model, insts, list(range(BATCH)),
                                        np.random.default_rng(ROLLOUT_SEED))
    for component, value in bundle.as_floats().items():
        out[f"{name}/loss/{component}"] = np.asarray(value)
    out[f"{name}/reward_mean"] = np.asarray(mean_reward)
    ad.backward(bundle.total)
    for pname, tensor in model.named_parameters().items():
        grad = np.zeros_like(tensor.values) if tensor.grad is None else tensor.grad
        out[f"{name}/grad/{pname}"] = np.array(grad)
    ad.clear_tape()
    out[f"{name}/embed_image"] = np.stack([
        model.embed_image(inst.regions, None, mode="deterministic")[0].values.reshape(-1)
        for inst in insts])
    out[f"{name}/embed_text"] = np.stack([
        model.embed_text(inst.tokens, None, mode="deterministic")[0].values.reshape(-1)
        for inst in insts])
    ad.clear_tape()
    return out


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    arrays = {}
    for name in cases():
        arrays.update(run_case(name))
    np.savez_compressed(argv[0], **arrays)
    print(f"wrote {len(arrays)} arrays for {len(cases())} cases to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
