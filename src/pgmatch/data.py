"""Synthetic paired-feature datasets and their on-disk format.

Each instance couples a region-feature matrix with a token sequence, both
derived from one latent class vector plus modality-specific noise. The
export format is a manifest plus raw binary matrices: a header of two
little-endian uint32 extents (rows, cols) followed by row-major
little-endian float64 values.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

SPLITS = ("train", "val", "test")
DATASET_FORMAT = "pgmatch-dataset-v1"


class DatasetError(ValueError):
    """A dataset or matrix file does not match its header or manifest."""


@dataclass
class Instance:
    class_id: int
    regions: np.ndarray   # (T, d)
    tokens: np.ndarray    # (N,) int64


@dataclass
class SyntheticDataset:
    classes: int
    regions_per_instance: int
    tokens_per_instance: int
    feature_dim: int
    noise_scale: float
    seed: int
    distractors: int
    splits: dict = field(default_factory=dict)

    @property
    def vocab_size(self) -> int:
        return self.classes + self.distractors

    def split(self, name: str) -> list:
        if name not in self.splits:
            raise KeyError(f"no split {name!r}; have {sorted(self.splits)}")
        return self.splits[name]


def generate_dataset(classes: int, regions: int = 8, tokens: int = 6, dim: int = 64,
                     noise_scale: float = 0.1, seed: int = 0,
                     train_per_class: int = 1, val_per_class: int = 1,
                     test_per_class: int = 1, class_token_rate: float = 0.75,
                     distractors: int | None = None) -> SyntheticDataset:
    """Sample class latents once, then emit per-split instances: regions are
    the latent prototype plus Gaussian noise, token sequences open with the
    class token and mix in distractor tokens."""
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if min(regions, tokens, dim) < 1:
        raise ValueError("regions, tokens and dim must all be >= 1")
    if noise_scale < 0:
        raise ValueError(f"noise_scale must be non-negative, got {noise_scale}")
    if min(train_per_class, val_per_class, test_per_class) < 1:
        raise ValueError("every split needs at least one instance per class")
    if distractors is None:
        distractors = max(4, classes // 4)

    rng = np.random.default_rng(seed)
    latents = rng.standard_normal((classes, dim))
    counts = {"train": train_per_class, "val": val_per_class, "test": test_per_class}
    splits = {}
    for split in SPLITS:
        instances = []
        for c in range(classes):
            for _ in range(counts[split]):
                feats = latents[c] + noise_scale * rng.standard_normal((regions, dim))
                toks = np.empty(tokens, dtype=np.int64)
                toks[0] = c
                for j in range(1, tokens):
                    if rng.random() < class_token_rate:
                        toks[j] = c
                    else:
                        toks[j] = classes + rng.integers(distractors)
                instances.append(Instance(class_id=c, regions=feats, tokens=toks))
        splits[split] = instances
    return SyntheticDataset(classes=classes, regions_per_instance=regions,
                            tokens_per_instance=tokens, feature_dim=dim,
                            noise_scale=noise_scale, seed=seed,
                            distractors=distractors, splits=splits)


# ---------------------------------------------------------------------------
# binary matrix format
# ---------------------------------------------------------------------------


def write_matrix(path, arr: np.ndarray):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"matrix files are 2-D, got shape {arr.shape}")
    header = np.asarray(arr.shape, dtype="<u4").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.astype("<f8", copy=False).tobytes(order="C"))


def read_matrix(path) -> np.ndarray:
    """The matrix in ``path`` as a new, writable float64 array. The file
    size is checked against the header before anything is allocated, so
    a header claiming more values than the file holds raises
    ``DatasetError``, whatever its size."""
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise DatasetError(f"{path}: truncated header")
        rows, cols = struct.unpack("<2I", header)
        size = os.fstat(fh.fileno()).st_size - 8
        if size != rows * cols * 8:
            raise DatasetError(f"{path}: header ({rows} x {cols}) expected {rows * cols * 8} "
                               f"bytes of float64 values, got {size}")
        out = np.empty((rows, cols), dtype="<f8")
        if fh.readinto(out) != size:
            raise DatasetError(f"{path}: file changed while it was read")
    return out.astype(np.float64, copy=False)


def export_dataset(ds: SyntheticDataset, outdir, force: bool = False):
    """Materialize a dataset directory: manifest.json plus one regions and
    one tokens matrix per split. Refuses a non-empty directory unless
    forced."""
    os.makedirs(outdir, exist_ok=True)
    if os.listdir(outdir) and not force:
        raise FileExistsError(f"output directory {outdir} is not empty (use force to overwrite)")
    manifest = {
        "format": DATASET_FORMAT,
        "classes": ds.classes,
        "regions_per_instance": ds.regions_per_instance,
        "tokens_per_instance": ds.tokens_per_instance,
        "feature_dim": ds.feature_dim,
        "noise_scale": ds.noise_scale,
        "seed": ds.seed,
        "distractors": ds.distractors,
        "vocab_size": ds.vocab_size,
        "splits": {},
    }
    for split, instances in ds.splits.items():
        regions = np.concatenate([inst.regions for inst in instances], axis=0)
        tokens = np.stack([inst.tokens for inst in instances]).astype(np.float64)
        write_matrix(os.path.join(outdir, f"{split}_regions.bin"), regions)
        write_matrix(os.path.join(outdir, f"{split}_tokens.bin"), tokens)
        manifest["splits"][split] = {
            "count": len(instances),
            "class_ids": [int(inst.class_id) for inst in instances],
        }
    with open(os.path.join(outdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path, error):
    """The JSON value in ``path``; a file that cannot be read or parsed
    raises ``error`` naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror})") from None
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise error(f"{path}: not valid JSON ({exc})") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# every manifest field load_dataset reads: (the test a value passes, what it must be)
_POSITIVE = (lambda v: _is_int(v) and v >= 1, "a positive integer")
_NON_NEGATIVE = (lambda v: _is_int(v) and v >= 0, "a non-negative integer")
_MANIFEST_FIELDS = {
    "classes": _POSITIVE,
    "regions_per_instance": _POSITIVE,
    "tokens_per_instance": _POSITIVE,
    "feature_dim": _POSITIVE,
    "noise_scale": (lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "a number"),
    "seed": (_is_int, "an integer"),
    "distractors": _NON_NEGATIVE,
    "splits": (lambda v: isinstance(v, dict), "an object"),
}


def load_dataset(path) -> SyntheticDataset:
    """Read a dataset directory; a malformed file raises ``DatasetError``
    naming the file and the field."""
    manifest_file = os.path.join(path, "manifest.json")
    manifest = read_json(manifest_file, DatasetError)
    if not isinstance(manifest, dict):
        raise DatasetError(f"{manifest_file}: expected a JSON object")
    if manifest.get("format") != DATASET_FORMAT:
        raise DatasetError(f"{path}: unknown dataset format {manifest.get('format')!r}")
    for key, (valid, what) in _MANIFEST_FIELDS.items():
        if key not in manifest:
            raise DatasetError(f"{manifest_file}: missing field {key!r}")
        if not valid(manifest[key]):
            raise DatasetError(f"{manifest_file}: field {key!r} is {manifest[key]!r}, "
                               f"expected {what}")
    ds = SyntheticDataset(**{key: manifest[key] for key in _MANIFEST_FIELDS if key != "splits"})
    for split, info in manifest["splits"].items():
        ds.splits[split] = _load_split(path, split, info, ds)
    return ds


def _load_split(path, split, info, ds: SyntheticDataset) -> list:
    """Read one split's matrices and check them against the manifest:
    batches are stacked from these arrays, so this is where they must be
    rectangular, finite and in range."""
    field = f"{os.path.join(path, 'manifest.json')}: field 'splits.{split}"
    if os.path.basename(split) != split or "\0" in split:
        raise DatasetError(f"{field}' names a split that is not a plain file name prefix")
    if not isinstance(info, dict):
        raise DatasetError(f"{field}' is {info!r}, expected an object")
    count, class_ids = info.get("count"), info.get("class_ids")
    if not (_is_int(count) and count >= 0):
        raise DatasetError(f"{field}.count' is {count!r}, expected a non-negative integer")
    if not isinstance(class_ids, list) or not all(type(c) is int for c in class_ids):
        raise DatasetError(f"{field}.class_ids' is {class_ids!r}, expected a list of integers")
    t, n = ds.regions_per_instance, ds.tokens_per_instance
    regions_file = os.path.join(path, f"{split}_regions.bin")
    tokens_file = os.path.join(path, f"{split}_tokens.bin")
    try:
        regions = read_matrix(regions_file)
        tokens = read_matrix(tokens_file)
    except OSError as exc:
        raise DatasetError(f"{exc.filename}: cannot read ({exc.strerror})") from None
    if len(class_ids) != count:
        raise DatasetError(f"{path}: {split} has {len(class_ids)} class_ids for count {count}")
    if regions.shape != (count * t, ds.feature_dim):
        raise DatasetError(f"{regions_file}: shape {regions.shape} inconsistent with count "
                           f"{count} x regions_per_instance {t}, feature_dim {ds.feature_dim}")
    if not np.all(np.isfinite(regions)):
        raise DatasetError(f"{regions_file}: region features contain non-finite values")
    if tokens.shape != (count, n):
        raise DatasetError(f"{tokens_file}: shape {tokens.shape} inconsistent with count "
                           f"{count} x tokens_per_instance {n}")
    # NaN and infinities fail these comparisons too
    bad = ~((tokens >= 0) & (tokens < ds.vocab_size) & (tokens == np.round(tokens)))
    if np.any(bad):
        row, col = np.argwhere(bad)[0]
        raise DatasetError(f"{tokens_file}: token id {tokens[row, col]} at row {row}, "
                           f"column {col} outside vocab_size [0, {ds.vocab_size})")
    # views: batches stack copies of them and nothing writes to them
    return list(map(Instance, class_ids, regions.reshape(count, t, ds.feature_dim),
                    tokens.astype(np.int64)))


def dataset_fingerprint(path) -> str:
    """sha256 over ``manifest.json`` and the two matrix files of each split
    it names, name-sorted; other files in ``path`` do not count."""
    import hashlib  # here, so that importing pgmatch does not load libcrypto

    splits = read_json(os.path.join(path, "manifest.json"), DatasetError)["splits"]
    names = {"manifest.json"} | {f"{split}_{kind}.bin" for split in splits
                                 for kind in ("regions", "tokens")}
    digest = hashlib.sha256()
    for name in sorted(names):
        digest.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()
