import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from manifest_fuzz import mutated
from pgmatch.data import (
    DatasetError,
    dataset_fingerprint,
    export_dataset,
    generate_dataset,
    load_dataset,
    read_matrix,
    write_matrix,
)


class TestGenerate:
    def test_zero_noise_regions_equal_prototype(self):
        ds = generate_dataset(classes=4, regions=5, tokens=3, dim=6, noise_scale=0.0, seed=1)
        for inst in ds.split("train"):
            assert np.all(inst.regions == inst.regions[0])

    def test_same_seed_identical(self):
        a = generate_dataset(classes=4, regions=3, tokens=4, dim=5, seed=9)
        b = generate_dataset(classes=4, regions=3, tokens=4, dim=5, seed=9)
        for split in ("train", "val", "test"):
            for x, y in zip(a.split(split), b.split(split)):
                assert np.array_equal(x.regions, y.regions)
                assert np.array_equal(x.tokens, y.tokens)
                assert x.class_id == y.class_id

    def test_nearest_prototype_separability(self):
        ds = generate_dataset(classes=32, regions=8, tokens=6, dim=64,
                              noise_scale=0.1, seed=3)
        prototypes = np.stack([inst.regions.mean(axis=0) for inst in ds.split("train")])
        correct = 0
        total = 0
        for split in ("val", "test"):
            for inst in ds.split(split):
                probe = inst.regions.mean(axis=0)
                nearest = int(np.linalg.norm(prototypes - probe, axis=1).argmin())
                correct += int(ds.split("train")[nearest].class_id == inst.class_id)
                total += 1
        assert correct / total >= 0.99

    def test_tokens_start_with_class_token(self):
        ds = generate_dataset(classes=5, regions=2, tokens=4, dim=3, seed=2)
        for split in ("train", "val", "test"):
            for inst in ds.split(split):
                assert inst.tokens[0] == inst.class_id
                assert np.all(inst.tokens < ds.vocab_size)

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(ValueError, match="classes"):
            generate_dataset(classes=1)
        with pytest.raises(ValueError):
            generate_dataset(classes=4, regions=0)
        with pytest.raises(ValueError):
            generate_dataset(classes=4, noise_scale=-0.5)

    def test_split_sizes(self):
        ds = generate_dataset(classes=4, train_per_class=3, val_per_class=2, test_per_class=1,
                              regions=2, tokens=3, dim=4, seed=0)
        assert len(ds.split("train")) == 12
        assert len(ds.split("val")) == 8
        assert len(ds.split("test")) == 4
        with pytest.raises(KeyError):
            ds.split("dev")


class TestBinaryFormat:
    def test_header_layout(self, tmp_path):
        path = tmp_path / "m.bin"
        arr = np.arange(6, dtype=np.float64).reshape(2, 3)
        write_matrix(path, arr)
        raw = path.read_bytes()
        assert len(raw) == 8 + 6 * 8
        rows, cols = np.frombuffer(raw[:8], dtype="<u4")
        assert (rows, cols) == (2, 3)
        np.testing.assert_array_equal(np.frombuffer(raw[8:], dtype="<f8").reshape(2, 3), arr)

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "m.bin"
        rng = np.random.default_rng(0)
        arr = rng.standard_normal((7, 4))
        write_matrix(path, arr)
        np.testing.assert_array_equal(read_matrix(path), arr)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "m.bin"
        write_matrix(path, np.ones((2, 2)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="expected"):
            read_matrix(path)

    @pytest.mark.parametrize("cut", [1, 3, 7])
    def test_partial_value_detected(self, tmp_path, cut):
        path = tmp_path / "m.bin"
        write_matrix(path, np.ones((2, 2)))
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(DatasetError, match=r"m\.bin.*\(2 x 2\) expected 32 bytes"):
            read_matrix(path)

    def test_trailing_bytes_detected(self, tmp_path):
        path = tmp_path / "m.bin"
        write_matrix(path, np.ones((2, 2)))
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(DatasetError, match="expected 32 bytes"):
            read_matrix(path)


def _header(rows, cols) -> bytes:
    return np.array([rows, cols], dtype="<u4").tobytes()


@st.composite
def matrix_files(draw):
    """Bytes of a matrix file: a truncated header, or a header with a
    payload that fits it, falls short of it or runs past it. Dimensions
    range up to 2**32 - 1, so rows x cols x 8 can exceed any file (and
    any memory) by far."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=7))
    dim = st.one_of(st.integers(0, 6), st.integers(0, 2**32 - 1))
    rows, cols = draw(dim), draw(dim)
    need = rows * cols * 8
    if need <= 512 and draw(st.booleans()):
        length = need + draw(st.integers(-min(need, 16), 16))
    else:
        length = draw(st.integers(0, 512))
    return _header(rows, cols) + draw(st.binary(min_size=length, max_size=length))


class TestReadMatrixFuzz:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(matrix_files())
    @example(b"")
    @example(b"\x02\x00\x00")
    @example(_header(2**32 - 1, 2**32 - 1))
    @example(_header(2**32 - 1, 2**32 - 1) + b"\0" * 64)
    @example(_header(2**31, 2) + b"\0" * 16)
    @example(_header(1, 2**29) + b"\0" * 8)
    def test_reads_exactly_or_raises_naming_the_file(self, tmp_path, content):
        path = tmp_path / "fuzz.bin"
        path.write_bytes(content)
        rows, cols = np.frombuffer(content[:8], dtype="<u4") if len(content) >= 8 else (0, 0)
        if len(content) >= 8 and len(content) - 8 == int(rows) * int(cols) * 8:
            arr = read_matrix(path)
            assert arr.shape == (rows, cols) and arr.flags.writeable
            assert arr.tobytes() == content[8:]
        else:
            with pytest.raises(DatasetError, match=re.escape(str(path))):
                read_matrix(path)


class TestExportImport:
    def test_roundtrip_exact(self, tmp_path):
        ds = generate_dataset(classes=3, regions=2, tokens=4, dim=5, seed=11)
        out = tmp_path / "ds"
        export_dataset(ds, out)
        loaded = load_dataset(out)
        assert loaded.classes == ds.classes
        assert loaded.vocab_size == ds.vocab_size
        for split in ("train", "val", "test"):
            for a, b in zip(ds.split(split), loaded.split(split)):
                np.testing.assert_array_equal(a.regions, b.regions)
                np.testing.assert_array_equal(a.tokens, b.tokens)
                assert a.class_id == b.class_id

    def test_instances_are_views_of_their_split_matrices(self, tmp_path):
        export_dataset(generate_dataset(classes=3, regions=2, tokens=4, dim=5, seed=11),
                       tmp_path / "ds")
        for instances in load_dataset(tmp_path / "ds").splits.values():
            for kind in ("regions", "tokens"):
                bases = {id(getattr(inst, kind).base) for inst in instances}
                assert len(bases) == 1 and getattr(instances[0], kind).base is not None
            assert all(type(inst.class_id) is int for inst in instances)

    def test_same_seed_byte_identical(self, tmp_path):
        for name in ("a", "b"):
            export_dataset(generate_dataset(classes=3, regions=2, tokens=3, dim=4, seed=5),
                           tmp_path / name)
        for fname in sorted((tmp_path / "a").iterdir()):
            assert fname.read_bytes() == (tmp_path / "b" / fname.name).read_bytes()

    def test_refuses_nonempty_without_force(self, tmp_path):
        out = tmp_path / "ds"
        out.mkdir()
        (out / "junk.txt").write_text("x")
        ds = generate_dataset(classes=2, regions=2, tokens=2, dim=3, seed=0)
        with pytest.raises(FileExistsError, match="force"):
            export_dataset(ds, out)
        export_dataset(ds, out, force=True)
        assert (out / "manifest.json").exists()

    def test_manifest_contents(self, tmp_path):
        ds = generate_dataset(classes=3, regions=2, tokens=3, dim=4, seed=21)
        export_dataset(ds, tmp_path / "ds")
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert manifest["seed"] == 21
        assert manifest["classes"] == 3
        assert manifest["splits"]["train"]["count"] == 3

    def test_fingerprint_tracks_content(self, tmp_path):
        export_dataset(generate_dataset(classes=2, regions=2, tokens=2, dim=3, seed=0),
                       tmp_path / "a")
        export_dataset(generate_dataset(classes=2, regions=2, tokens=2, dim=3, seed=0),
                       tmp_path / "b")
        export_dataset(generate_dataset(classes=2, regions=2, tokens=2, dim=3, seed=1),
                       tmp_path / "c")
        assert dataset_fingerprint(tmp_path / "a") == dataset_fingerprint(tmp_path / "b")
        assert dataset_fingerprint(tmp_path / "a") != dataset_fingerprint(tmp_path / "c")

    def test_fingerprint_ignores_files_the_manifest_does_not_name(self, tmp_path):
        """A forced export over a dataset with one more split leaves that
        split's matrix files behind; they are not part of the dataset."""
        ds = generate_dataset(classes=2, regions=2, tokens=2, dim=3, seed=0)
        ds.splits["extra"] = ds.split("val")
        export_dataset(ds, tmp_path / "a")
        del ds.splits["extra"]
        export_dataset(ds, tmp_path / "a", force=True)
        export_dataset(ds, tmp_path / "b")
        assert (tmp_path / "a" / "extra_regions.bin").exists()
        assert dataset_fingerprint(tmp_path / "a") == dataset_fingerprint(tmp_path / "b")


class TestLoadValidation:
    """Each malformed field raises a ValueError naming the file and the field."""

    @pytest.fixture()
    def ds_dir(self, tmp_path):
        out = tmp_path / "ds"
        export_dataset(generate_dataset(classes=3, regions=2, tokens=4, dim=5, seed=11), out)
        return out

    def rewrite(self, path, edit):
        arr = read_matrix(path)
        write_matrix(path, edit(arr))

    def test_truncated_regions_file(self, ds_dir):
        path = ds_dir / "val_regions.bin"
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match="val_regions.bin"):
            load_dataset(ds_dir)

    def test_tokens_not_count_by_tokens_per_instance(self, ds_dir):
        self.rewrite(ds_dir / "train_tokens.bin", lambda a: a[:, :-1])
        with pytest.raises(ValueError, match="train_tokens.bin.*tokens_per_instance"):
            load_dataset(ds_dir)

    @pytest.mark.parametrize("bad", [-1.0, 7.0, 2.5, np.nan])
    def test_token_id_outside_vocab(self, ds_dir, bad):
        def edit(a):
            a[2, 1] = bad
            return a

        self.rewrite(ds_dir / "test_tokens.bin", edit)
        with pytest.raises(ValueError, match="test_tokens.bin.*row 2, column 1.*vocab_size"):
            load_dataset(ds_dir)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_region_value(self, ds_dir, bad):
        def edit(a):
            a[1, 3] = bad
            return a

        self.rewrite(ds_dir / "val_regions.bin", edit)
        with pytest.raises(ValueError, match="val_regions.bin.*non-finite"):
            load_dataset(ds_dir)

    def test_regions_shape_names_the_file(self, ds_dir):
        self.rewrite(ds_dir / "train_regions.bin", lambda a: a[:-1])
        with pytest.raises(ValueError, match="train_regions.bin.*regions_per_instance"):
            load_dataset(ds_dir)

    @pytest.mark.parametrize("edit,field", [
        (lambda m: m.update(splits=[]), "field 'splits' is"),
        (lambda m: m.update(classes="4"), "field 'classes' is"),
        (lambda m: m.update(feature_dim=5.0), "field 'feature_dim' is"),
        (lambda m: m.update(noise_scale=None), "field 'noise_scale' is"),
        (lambda m: m["splits"]["val"].update(class_ids=None), "field 'splits.val.class_ids'"),
        (lambda m: m["splits"]["val"].update(class_ids=[0, 1, "2"]),
         "field 'splits.val.class_ids'"),
        (lambda m: m["splits"]["val"].update(class_ids=[0, True, 1]),
         "field 'splits.val.class_ids'"),
        (lambda m: m["splits"].update(test=[3, [0, 1, 2]]), "field 'splits.test' is"),
        (lambda m: m["splits"]["train"].update(count=3.0), "field 'splits.train.count'"),
        (lambda m: m["splits"].update({"../train": m["splits"]["train"]}),
         "field 'splits.../train'"),
        (lambda m: m["splits"].update({"train\0": m["splits"]["train"]}), "field 'splits.train\0'"),
    ])
    def test_manifest_field_of_the_wrong_type(self, ds_dir, edit, field):
        manifest = json.loads((ds_dir / "manifest.json").read_text())
        edit(manifest)
        (ds_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DatasetError, match=re.escape(f"manifest.json: {field}")):
            load_dataset(ds_dir)

    def test_missing_matrix_file(self, ds_dir):
        (ds_dir / "val_tokens.bin").unlink()
        with pytest.raises(DatasetError, match="val_tokens.bin: cannot read"):
            load_dataset(ds_dir)

    def test_missing_manifest_field(self, ds_dir):
        manifest = json.loads((ds_dir / "manifest.json").read_text())
        del manifest["feature_dim"]
        (ds_dir / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="manifest.json.*feature_dim"):
            load_dataset(ds_dir)


class TestManifestFuzz:
    """A damaged dataset manifest loads or raises ``DatasetError`` naming
    the dataset; no other exception gets out."""

    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("fuzz") / "ds"
        export_dataset(generate_dataset(classes=3, regions=2, tokens=4, dim=5, seed=11), out)
        return out, json.loads((out / "manifest.json").read_text())

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_loads_or_raises_dataset_error(self, dataset, data):
        path, manifest = dataset
        (path / "manifest.json").write_text(json.dumps(data.draw(mutated(manifest))))
        try:
            load_dataset(path)
        except DatasetError as exc:
            assert str(path) in str(exc)
