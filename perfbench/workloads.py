"""Workload definitions and their input generator.

A workload is a fixed training recipe plus a gallery of held-out
instances to rank afterwards. ``generate`` writes everything the measured
program reads: a dataset directory in the ``pgmatch-dataset-v1`` format
(written with ``data.export_dataset``, read back with ``data.load_dataset``)
and the model configuration as JSON.

The training splits and the training seed are pinned to the criterion-6
recipe of ``tests/reference_run.json`` (dataset seed 7, training seed 0).
Across other seeds that recipe reaches the R@1 >= 0.90 target between
epoch 8 and epoch 13 and sometimes misses it on test, so a seeded training
split would make ``time_to_target_s`` and the target check depend on the
seed rather than on the code. ``--seed`` picks the gallery instead: which
held-out instances of each class are embedded and ranked after training.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass

import numpy as np

# The criterion-6 recipe, copied from tests/reference_run.json so that a
# change to the repository defaults cannot silently change the workload.
REFERENCE_CONFIG = {
    "batch_size": 16, "beta": 0.5, "decoder_dim": 32, "decoder_init_scale": 0.2,
    "embed_dim": 64, "epochs": 50, "feature_dim": 64, "gcn_layers": 1, "heads": 1,
    "hidden": 64, "init_scale": 0.05, "lam": 20.0, "loss_decode": True,
    "loss_instance": True, "loss_triplet": True, "lr": 0.001, "lr_after_drop": 0.0001,
    "lr_drop_epoch": 35, "margin": 0.2, "n_actions": 100, "pg_batch_mean": True,
    "pg_mode": "compound", "reward_mode": "r1+ap", "seed": 0, "temperature": 1.0,
    "tied_affinity": False, "word_dim": 32,
}
RECIPE_DATA_SEED = 7
TARGET_R1 = 0.90


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    batch_size: int
    regions: int
    tokens: int
    classes: int
    train_per_class: int
    epochs: int
    gallery_per_class: int
    pool_per_class: int

    @property
    def steps(self) -> int:
        per_epoch = -(-self.classes * self.train_per_class // self.batch_size)
        return per_epoch * self.epochs

    def config(self) -> dict:
        return {**REFERENCE_CONFIG, "batch_size": self.batch_size, "epochs": self.epochs}


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="reference",
            why="criterion-6 recipe: B=16, 8 regions, 6 tokens; per-record overhead and the "
                "per-epoch eval dominate; then ranks a 128-instance gallery (the read path)",
            batch_size=16, regions=8, tokens=6, classes=32, train_per_class=1, epochs=20,
            gallery_per_class=4, pool_per_class=8),
        Workload(
            name="stress",
            why="B=32, 16 regions, 12 tokens: 4x the B^2 reward/triplet work, 4x the "
                "regions^2 GCN work and 2x the decode length per step; tape length grows",
            batch_size=32, regions=16, tokens=12, classes=32, train_per_class=2, epochs=12,
            gallery_per_class=1, pool_per_class=4),
    )
}


def generate(workload: Workload, seed: int, outdir: str) -> dict:
    """Write the workload's dataset and config under ``outdir``; return
    their paths. The same seed always writes the same files."""
    from pgmatch.data import export_dataset, generate_dataset

    shape = dict(classes=workload.classes, regions=workload.regions, tokens=workload.tokens,
                 dim=REFERENCE_CONFIG["feature_dim"], noise_scale=0.1, seed=RECIPE_DATA_SEED)
    ds = generate_dataset(**shape, train_per_class=workload.train_per_class)
    # Same seed, so the same class latents; only the test draws differ.
    pool = generate_dataset(**shape, train_per_class=workload.train_per_class,
                            test_per_class=workload.pool_per_class).split("test")
    rng = np.random.default_rng(seed)
    gallery = []
    for c in range(workload.classes):
        members = pool[c * workload.pool_per_class:(c + 1) * workload.pool_per_class]
        picks = np.sort(rng.choice(len(members), workload.gallery_per_class, replace=False))
        gallery.extend(members[i] for i in picks)
    ds.splits["gallery"] = gallery

    if os.path.isdir(outdir):
        shutil.rmtree(outdir)
    data_dir = os.path.join(outdir, "data")
    export_dataset(ds, data_dir)
    config_path = os.path.join(outdir, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(workload.config(), fh, sort_keys=True, indent=2)
    return {"data": data_dir, "config": config_path, "checkpoint": os.path.join(outdir, "ckpt")}
