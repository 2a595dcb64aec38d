import argparse
import json
import os

import numpy as np
import pytest

from pgmatch.cli import _config_flags, main
from pgmatch.config import ModelConfig
from pgmatch.verify import CheckResult

FAST_TRAIN = ["--set", "feature_dim=6", "--set", "word_dim=5", "--set", "hidden=6",
              "--set", "embed_dim=6", "--set", "decoder_dim=4", "--set", "n_actions=8",
              "--batch-size", "4", "--epochs", "2"]
VALID_KEYS = ", ".join(sorted(ModelConfig().to_dict()))


def gen_args(out, classes=6, seed=3):
    return ["gen", "--out", str(out), "--classes", str(classes), "--regions", "3",
            "--tokens", "4", "--dim", "6", "--noise", "0.15", "--seed", str(seed)]


@pytest.fixture()
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    assert main(gen_args(out)) == 0
    return out


class TestGen:
    def test_writes_manifest_with_seed(self, tmp_path):
        out = tmp_path / "data"
        assert main(gen_args(out, seed=9)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9

    def test_same_flags_byte_identical(self, tmp_path):
        assert main(gen_args(tmp_path / "a")) == 0
        assert main(gen_args(tmp_path / "b")) == 0
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_single_class_is_user_error(self, tmp_path, capsys):
        assert main(gen_args(tmp_path / "data", classes=1)) == 1
        assert "2 classes" in capsys.readouterr().err

    def test_refuses_nonempty_without_force(self, tmp_path, capsys):
        out = tmp_path / "data"
        out.mkdir()
        (out / "x").write_text("occupied")
        assert main(gen_args(out)) == 1
        assert "force" in capsys.readouterr().err
        assert main(gen_args(out) + ["--force"]) == 0

    def test_env_var_supplies_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PGMATCH_DATA_DIR", str(tmp_path / "envdata"))
        args = gen_args(tmp_path)[:1] + gen_args(tmp_path)[3:]  # drop --out
        assert main(args) == 0
        assert (tmp_path / "envdata" / "manifest.json").exists()

    def test_no_dir_no_env_is_user_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("PGMATCH_DATA_DIR", raising=False)
        args = gen_args(tmp_path)[:1] + gen_args(tmp_path)[3:]
        assert main(args) == 1
        assert "PGMATCH_DATA_DIR" in capsys.readouterr().err


class TestTrain:
    def test_smoke_writes_artifacts(self, dataset_dir, tmp_path):
        run = tmp_path / "run"
        code = main(["train", "--data", str(dataset_dir), "--out", str(run)] + FAST_TRAIN)
        assert code == 0
        assert (run / "manifest.json").exists()
        records = [json.loads(line) for line in (run / "metrics.jsonl").read_text().splitlines()]
        assert any(r["type"] == "eval" for r in records)
        assert (run / "checkpoint-best" / "checkpoint.json").exists()
        assert (run / "checkpoint-final" / "checkpoint.json").exists()

    def test_manifests_differ_only_in_pg_key(self, dataset_dir, tmp_path):
        for name, pg in (("a", "off"), ("b", "compound")):
            assert main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / name),
                         "--pg", pg, "--epochs", "1"] + FAST_TRAIN[:-2]) == 0
        cfg_a = json.loads((tmp_path / "a" / "manifest.json").read_text())["config"]
        cfg_b = json.loads((tmp_path / "b" / "manifest.json").read_text())["config"]
        diff = {k for k in cfg_a if cfg_a[k] != cfg_b[k]}
        assert diff == {"pg_mode"}

    def test_config_file_with_flag_precedence(self, dataset_dir, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lam = 10.0\nepochs = 1\nbatch_size = 4\nfeature_dim = 6\n"
                       "word_dim = 5\nhidden = 6\nembed_dim = 6\ndecoder_dim = 4\n"
                       "n_actions = 8\n")
        run = tmp_path / "run"
        assert main(["train", "--data", str(dataset_dir), "--out", str(run),
                     "--config", str(cfg), "--lambda", "30.0"]) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["config"]["lam"] == 30.0
        assert manifest["config"]["epochs"] == 1

    def test_invalid_config_key_lists_valid(self, dataset_dir, tmp_path, capsys):
        assert main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "r"),
                     "--set", "bogus=1"]) == 1
        assert "valid keys" in capsys.readouterr().err

    def test_dimension_mismatch_is_user_error(self, dataset_dir, tmp_path, capsys):
        assert main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "r"),
                     "--set", "feature_dim=99"]) == 1
        assert "feature_dim" in capsys.readouterr().err

    def test_no_loss_term_is_user_error(self, dataset_dir, tmp_path, capsys):
        run = tmp_path / "r"
        assert main(["train", "--data", str(dataset_dir), "--out", str(run), "--pg", "off",
                     "--set", "loss_triplet=false", "--set", "loss_instance=false",
                     "--set", "loss_decode=false"] + FAST_TRAIN) == 1
        assert "no loss term is enabled" in capsys.readouterr().err
        assert not run.exists()

    @pytest.mark.parametrize("item", ["lam=inf", "lr=inf", "beta=inf", "init_scale=nan",
                                      "decoder_init_scale=-inf"])
    def test_non_finite_float_is_user_error(self, dataset_dir, tmp_path, capsys, item):
        run = tmp_path / "r"
        assert main(["train", "--data", str(dataset_dir), "--out", str(run),
                     "--set", item] + FAST_TRAIN) == 1
        assert f"{item.split('=')[0]} must be finite" in capsys.readouterr().err
        assert not run.exists()


class TestEval:
    @pytest.fixture()
    def run_dir(self, dataset_dir, tmp_path):
        run = tmp_path / "run"
        assert main(["train", "--data", str(dataset_dir), "--out", str(run)] + FAST_TRAIN) == 0
        return run

    def test_reproduces_final_log_eval_record(self, dataset_dir, run_dir, capsys):
        records = [json.loads(line)
                   for line in (run_dir / "metrics.jsonl").read_text().splitlines()]
        final_eval = [r for r in records if r["type"] == "eval"][-1]
        assert main(["eval", "--checkpoint", str(run_dir / "checkpoint-final"),
                     "--data", str(dataset_dir), "--split", "val"]) == 0
        out = capsys.readouterr().out
        printed = json.loads(out.strip().splitlines()[-1])
        for key in ("r1_i2t", "r5_i2t", "r1_t2i", "r5_t2i"):
            assert printed[key] == final_eval[key]

    def test_eval_twice_identical(self, dataset_dir, run_dir, capsys):
        args = ["eval", "--checkpoint", str(run_dir / "checkpoint-best"),
                "--data", str(dataset_dir), "--split", "test"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_missing_checkpoint(self, dataset_dir, tmp_path, capsys):
        assert main(["eval", "--checkpoint", str(tmp_path / "nope"),
                     "--data", str(dataset_dir)]) == 1
        assert "does not exist" in capsys.readouterr().err

    def test_dimension_mismatch(self, run_dir, tmp_path, capsys):
        other = tmp_path / "other"
        assert main(["gen", "--out", str(other), "--classes", "6", "--regions", "3",
                     "--tokens", "4", "--dim", "9", "--seed", "3"]) == 0
        assert main(["eval", "--checkpoint", str(run_dir / "checkpoint-best"),
                     "--data", str(other)]) == 1
        assert "feature_dim" in capsys.readouterr().err


class TestAblate:
    def test_smoke_grid(self, dataset_dir, tmp_path):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([
            {"name": "off", "overrides": {"pg_mode": "off"}},
            {"name": "on", "overrides": {"pg_mode": "compound"}},
        ]))
        out = tmp_path / "ablation"
        assert main(["ablate", "--data", str(dataset_dir), "--out", str(out),
                     "--grid", str(grid), "--seeds", "1", "--epochs", "1"]
                    + FAST_TRAIN) == 0
        runs = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()]
        assert len(runs) == 2
        assert {r["cell"] for r in runs} == {"off", "on"}
        assert (out / "table.txt").exists()


def truncate(path, nbytes):
    path.write_bytes(path.read_bytes()[:-nbytes])


def poison_token(data_dir, split="val"):
    from pgmatch.data import read_matrix, write_matrix
    path = data_dir / f"{split}_tokens.bin"
    tokens = read_matrix(path)
    tokens[1, 2] = 999.0
    write_matrix(path, tokens)


class TestMalformedDataset:
    """A broken dataset is a user error (exit 1) reported when it is
    loaded, naming the file; it never gets as far as training."""

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_truncated_matrix(self, dataset_dir, tmp_path, capsys, command):
        truncate(dataset_dir / "val_regions.bin", 3)
        assert main([command, "--data", str(dataset_dir), "--out", str(tmp_path / "r")]
                    + FAST_TRAIN) == 1
        assert "val_regions.bin" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_out_of_vocab_token(self, dataset_dir, tmp_path, capsys, command):
        poison_token(dataset_dir)
        assert main([command, "--data", str(dataset_dir), "--out", str(tmp_path / "r")]
                    + FAST_TRAIN) == 1
        err = capsys.readouterr().err
        assert "val_tokens.bin" in err and "vocab_size" in err
        assert not (tmp_path / "r" / "metrics.jsonl").exists()

    def test_eval_on_malformed_dataset(self, dataset_dir, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["train", "--data", str(dataset_dir), "--out", str(run),
                     "--epochs", "1"] + FAST_TRAIN[:-2]) == 0
        truncate(dataset_dir / "test_tokens.bin", 3)
        assert main(["eval", "--checkpoint", str(run / "checkpoint-best"),
                     "--data", str(dataset_dir)]) == 1
        assert "test_tokens.bin" in capsys.readouterr().err


def keep_instances(data_dir, split, count):
    """Cut ``split`` down to its first ``count`` instances, or drop it from
    the manifest with ``count`` None."""
    from pgmatch.data import read_matrix, write_matrix
    manifest_file = data_dir / "manifest.json"
    manifest = json.loads(manifest_file.read_text())
    if count is None:
        del manifest["splits"][split]
    else:
        info = manifest["splits"][split]
        info["count"], info["class_ids"] = count, info["class_ids"][:count]
        rows = {"regions": count * manifest["regions_per_instance"], "tokens": count}
        for kind, n in rows.items():
            path = data_dir / f"{split}_{kind}.bin"
            write_matrix(path, read_matrix(path)[:n])
    manifest_file.write_text(json.dumps(manifest))


class TestTooFewInstances:
    """A dataset that loads but lacks the instances a command needs is a
    user error (exit 1) naming the manifest and the split, reported
    before anything is written."""

    def refused(self, dataset_dir, tmp_path, capsys, command="train"):
        assert main([command, "--data", str(dataset_dir), "--out", str(tmp_path / "r")]
                    + FAST_TRAIN) == 1
        assert not (tmp_path / "r").exists()
        err = capsys.readouterr().err
        assert str(dataset_dir / "manifest.json") in err and "internal error" not in err
        return err

    def test_train_split_of_one_instance(self, dataset_dir, tmp_path, capsys):
        keep_instances(dataset_dir, "train", 1)
        err = self.refused(dataset_dir, tmp_path, capsys)
        assert "split 'train' has 1 instances; training needs at least 2" in err

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_no_val_split(self, dataset_dir, tmp_path, capsys, command):
        keep_instances(dataset_dir, "val", None)
        err = self.refused(dataset_dir, tmp_path, capsys, command)
        assert "no split 'val' for validation" in err

    def test_empty_val_split(self, dataset_dir, tmp_path, capsys):
        keep_instances(dataset_dir, "val", 0)
        err = self.refused(dataset_dir, tmp_path, capsys)
        assert "split 'val' has 0 instances; validation needs at least 1" in err

    def test_eval_on_a_split_the_dataset_lacks(self, dataset_dir, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["train", "--data", str(dataset_dir), "--out", str(run),
                     "--epochs", "1"] + FAST_TRAIN[:-2]) == 0
        keep_instances(dataset_dir, "test", None)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(run / "checkpoint-best"),
                     "--data", str(dataset_dir), "--split", "test"]) == 1
        err = capsys.readouterr().err
        assert str(dataset_dir / "manifest.json") in err
        assert "no split 'test' for evaluation" in err


class TestMalformedUserFiles:
    """A missing or malformed config, grid or dataset manifest is a user
    error (exit 1) naming the file, never an internal error."""

    def test_config_line_without_equals(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 1\nlam 10\n")
        assert main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "r"),
                     "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "run.cfg:2" in err and "key = value" in err

    @pytest.mark.parametrize("text,line,message", [
        ("headz = 2\n", 1, f"unknown config key 'headz'; valid keys: {VALID_KEYS}"),
        ("epochs = 1\nheads = abc\n", 2, "config key 'heads': cannot parse 'abc' as int"),
        ("# three\n\nheads = 3\n", 3, "heads must be 1 or 2, got 3"),
        ("lam = nan\n", 1, "lam must be positive, got nan")])
    def test_config_error_names_the_file_and_the_line(self, dataset_dir, tmp_path, capsys,
                                                       text, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        run = tmp_path / "r"
        assert main(["train", "--data", str(dataset_dir), "--out", str(run),
                     "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:{line}: {message}\n"
        assert not run.exists()

    def test_undecodable_config_file(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xffheads = 1\n")
        assert main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "r"),
                     "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cfg}: not UTF-8 text (")

    def test_unknown_set_key_has_no_stray_quotes(self, dataset_dir, tmp_path, capsys):
        assert main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "r"),
                     "--set", "nope=1"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: unknown config key 'nope'; valid keys: {VALID_KEYS}\n"

    def test_missing_config_file(self, dataset_dir, tmp_path, capsys):
        assert main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "r"),
                     "--config", str(tmp_path / "absent.cfg")]) == 1
        assert "absent.cfg" in capsys.readouterr().err

    def test_eval_on_missing_data_dir(self, tmp_path, capsys):
        assert main(["eval", "--checkpoint", str(tmp_path),
                     "--data", str(tmp_path / "nodata")]) == 1
        assert "nodata" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]",
                                      pytest.param("[" * 100_000, id="nested too deep")])
    def test_malformed_dataset_manifest(self, dataset_dir, tmp_path, capsys, text):
        (dataset_dir / "manifest.json").write_text(text)
        assert main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "r")]
                    + FAST_TRAIN) == 1
        assert "manifest.json" in capsys.readouterr().err

    def test_missing_grid_file(self, dataset_dir, tmp_path, capsys):
        assert main(["ablate", "--data", str(dataset_dir), "--out", str(tmp_path / "a"),
                     "--grid", str(tmp_path / "absent.json")] + FAST_TRAIN) == 1
        assert "absent.json" in capsys.readouterr().err

    def test_grid_entry_without_name(self, dataset_dir, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"overrides": {"pg_mode": "off"}}]))
        assert main(["ablate", "--data", str(dataset_dir), "--out", str(tmp_path / "a"),
                     "--grid", str(grid)] + FAST_TRAIN) == 1
        err = capsys.readouterr().err
        assert "grid.json" in err and "name" in err

    def test_grid_override_with_unknown_key(self, dataset_dir, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"name": "base"},
                                    {"name": "weak", "overrides": {"lamda": 10}}]))
        out = tmp_path / "a"
        assert main(["ablate", "--data", str(dataset_dir), "--out", str(out),
                     "--grid", str(grid), "--seeds", "2"] + FAST_TRAIN) == 1
        err = capsys.readouterr().err
        assert "grid.json" in err and "'weak'" in err and "'lamda'" in err
        assert not out.exists()  # refused before any run started


    def test_grid_override_of_the_wrong_type(self, dataset_dir, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"name": "base"},
                                    {"name": "two", "overrides": {"heads": 2.0}}]))
        out = tmp_path / "a"
        assert main(["ablate", "--data", str(dataset_dir), "--out", str(out),
                     "--grid", str(grid), "--seeds", "2"] + FAST_TRAIN) == 1
        err = capsys.readouterr().err
        assert "grid.json" in err and "'two'" in err and "'heads'" in err
        assert not out.exists()

    @pytest.mark.parametrize("first,message", [("three_heads", "heads must be 1 or 2, got 3"),
                                               ("neg_lam", "lam must be positive, got -1")])
    def test_grid_override_that_breaks_a_config_rule(self, dataset_dir, tmp_path, capsys,
                                                     first, message):
        entries = {"three_heads": {"heads": 3}, "neg_lam": {"lam": -1}}
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"name": name, "overrides": entries[name]}
                                    for name in sorted(entries, key=lambda n: n != first)]))
        out = tmp_path / "a"
        assert main(["ablate", "--data", str(dataset_dir), "--out", str(out),
                     "--grid", str(grid), "--seeds", "2"] + FAST_TRAIN) == 1
        assert capsys.readouterr().err == f"error: {grid}: entry {first!r}: {message}\n"
        assert not out.exists()

    def test_default_grid_is_checked_against_the_flags(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "a"
        assert main(["ablate", "--data", str(dataset_dir), "--out", str(out), "--pg", "discrete",
                     "--set", "loss_triplet=false", "--set", "loss_instance=false",
                     "--set", "loss_decode=false"] + FAST_TRAIN) == 1
        assert capsys.readouterr().err == ("error: the default grid: entry 'triplet_only': "
                                           "no loss term is enabled; nothing to train\n")
        assert not out.exists()


class TestMalformedCheckpoint:
    """A broken checkpoint is a user error (exit 1) naming the file and
    the field, never an internal error."""

    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("ckpt")
        data = root / "data"
        assert main(gen_args(data)) == 0
        assert main(["train", "--data", str(data), "--out", str(root / "run"),
                     "--epochs", "1"] + FAST_TRAIN[:-2]) == 0
        return data, root / "run" / "checkpoint-best"

    @pytest.fixture()
    def ckpt(self, trained, tmp_path):
        import shutil
        return shutil.copytree(trained[1], tmp_path / "ckpt")

    def eval_error(self, trained, ckpt, capsys):
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(trained[0])]) == 1
        return capsys.readouterr().err

    @staticmethod
    def edit_manifest(ckpt, edit):
        path = ckpt / "checkpoint.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))

    @staticmethod
    def param_file(ckpt, name):
        """The file the manifest of ``ckpt`` names for parameter ``name``."""
        return json.loads((ckpt / "checkpoint.json").read_text())["params"][name]["file"]

    def test_missing_parameter(self, trained, ckpt, capsys):
        self.edit_manifest(ckpt, lambda m: m["params"].pop("classifier"))
        err = self.eval_error(trained, ckpt, capsys)
        assert "checkpoint.json" in err and "'params'" in err and "classifier" in err

    def test_extra_parameter(self, trained, ckpt, capsys):
        self.edit_manifest(ckpt, lambda m: m["params"].update(
            stray=dict(m["params"]["classifier"])))
        err = self.eval_error(trained, ckpt, capsys)
        assert "checkpoint.json" in err and "'params'" in err and "stray" in err

    def test_shape_mismatch(self, trained, ckpt, capsys):
        self.edit_manifest(ckpt, lambda m: m["params"]["word_table"].update(
            shape=m["params"]["word_table"]["shape"][::-1]))
        err = self.eval_error(trained, ckpt, capsys)
        assert "checkpoint.json" in err and "word_table" in err and "shape" in err

    def test_shape_not_filled_by_file(self, trained, ckpt, capsys):
        fname = self.param_file(ckpt, "proj_img")
        self.edit_manifest(ckpt, lambda m: m["params"]["proj_img"].update(shape=[2, 2]))
        err = self.eval_error(trained, ckpt, capsys)
        assert fname in err and "params.proj_img.shape" in err

    def test_negative_shape_entries(self, trained, ckpt, capsys):
        # [-64, -64] has the file's value count as its product
        shape = [-n for n in json.loads((ckpt / "checkpoint.json").read_text())
                 ["params"]["proj_img"]["shape"]]
        self.edit_manifest(ckpt, lambda m: m["params"]["proj_img"].update(shape=shape))
        err = self.eval_error(trained, ckpt, capsys)
        assert "checkpoint.json" in err and "params.proj_img.shape" in err

    @pytest.mark.parametrize("name", ["../classifier.bin", "ABSOLUTE", "sub/classifier.bin",
                                      "classifier.bin\0"])
    def test_file_outside_the_checkpoint(self, trained, ckpt, capsys, name):
        outside = ckpt.parent / "classifier.bin"
        outside.write_bytes((ckpt / self.param_file(ckpt, "classifier")).read_bytes())
        if name == "ABSOLUTE":
            name = str(outside)
        self.edit_manifest(ckpt, lambda m: m["params"]["classifier"].update(file=name))
        err = self.eval_error(trained, ckpt, capsys)
        assert "checkpoint.json" in err and "params.classifier.file" in err

    def test_missing_manifest(self, trained, ckpt, capsys):
        (ckpt / "checkpoint.json").unlink()
        assert "checkpoint.json" in self.eval_error(trained, ckpt, capsys)

    def test_malformed_manifest(self, trained, ckpt, capsys):
        (ckpt / "checkpoint.json").write_text("{not json")
        err = self.eval_error(trained, ckpt, capsys)
        assert "checkpoint.json" in err and "JSON" in err

    def test_manifest_missing_field(self, trained, ckpt, capsys):
        self.edit_manifest(ckpt, lambda m: m.pop("vocab_size"))
        err = self.eval_error(trained, ckpt, capsys)
        assert "checkpoint.json" in err and "vocab_size" in err

    @pytest.mark.parametrize("field", ["vocab_size", "num_instances"])
    def test_count_not_positive(self, trained, ckpt, capsys, field):
        self.edit_manifest(ckpt, lambda m: m.update({field: -m[field]}))
        err = self.eval_error(trained, ckpt, capsys)
        assert "checkpoint.json" in err and f"'{field}'" in err

    @pytest.mark.parametrize("key,value", [("heads", 1.0), ("gcn_layers", 1.0), ("hidden", 64.0),
                                           ("tied_affinity", 0), ("pg_mode", None)])
    def test_config_value_of_the_wrong_type(self, trained, ckpt, capsys, key, value):
        self.edit_manifest(ckpt, lambda m: m["config"].update({key: value}))
        err = self.eval_error(trained, ckpt, capsys)
        assert "checkpoint.json" in err and "'config'" in err and f"'{key}'" in err

    def test_truncated_parameter_file(self, trained, ckpt, capsys):
        fname = self.param_file(ckpt, "classifier")
        truncate(ckpt / fname, 3)
        err = self.eval_error(trained, ckpt, capsys)
        assert fname in err and "params.classifier" in err

    def test_missing_parameter_file(self, trained, ckpt, capsys):
        fname = self.param_file(ckpt, "w_aff_a")
        (ckpt / fname).unlink()
        err = self.eval_error(trained, ckpt, capsys)
        assert fname in err and "params.w_aff_a" in err


class TestVerify:
    def test_metrics_suite_passes(self, capsys):
        assert main(["verify", "metrics"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "checks passed" in out

    def test_unknown_suite_lists_options(self, capsys):
        assert main(["verify", "nonsense"]) == 1
        err = capsys.readouterr().err
        assert "gradcheck" in err and "bandit" in err

    def test_failure_exit_code(self, monkeypatch, capsys):
        import pgmatch.cli as cli_mod
        monkeypatch.setitem(cli_mod.SUITES, "doomed",
                            lambda: [CheckResult("doomed.check", False, "forced", 0.0)])
        assert main(["verify", "doomed"]) == 3
        assert "[FAIL]" in capsys.readouterr().out


class TestParser:
    def test_config_flags_set_config_fields(self):
        # the CLI passes on every parsed value whose dest is a config field
        parser = argparse.ArgumentParser()
        _config_flags(parser)
        dests = {action.dest for action in parser._actions} - {"help", "extra"}
        assert len(dests) == 10 and dests <= set(ModelConfig().to_dict())

    def test_bad_flag_is_user_error(self, capsys):
        assert main(["train", "--no-such-flag"]) == 1

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "pgmatch" in capsys.readouterr().out
