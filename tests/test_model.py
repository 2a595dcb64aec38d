import json
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pgmatch.autodiff as ad
import pgmatch.model as model_module
from pgmatch.autodiff import Adam, ParamSource
from pgmatch.config import ModelConfig
from pgmatch.data import write_matrix
from pgmatch.model import CheckpointError, MatchingModel
from pgmatch.training import TrainResult
from manifest_fuzz import mutated, near


TINY = dict(feature_dim=6, word_dim=5, hidden=6, embed_dim=6, decoder_dim=4,
            n_actions=8, batch_size=2, epochs=1)


def tiny_model(seed=0, **overrides):
    config = ModelConfig(**{**TINY, **overrides})
    return MatchingModel(config, vocab_size=9, num_instances=4,
                         rng=np.random.default_rng(seed))


class TestParameters:
    def test_named_parameters_cover_everything(self):
        model = tiny_model()
        names = model.named_parameters()
        for expect in ("w_aff_a", "w_aff_b", "w_gcn.0", "word_table", "img.gru.w_xz",
                       "txt.w_mu.0", "img.fusion_gru.b_c", "proj_img", "proj_txt",
                       "classifier", "decoder.out_w"):
            assert expect in names
        assert len(set(map(id, names.values()))) == len(names)

    def test_tied_affinity_single_tensor(self):
        model = tiny_model(tied_affinity=True)
        assert model.w_aff_a is model.w_aff_b
        assert "w_aff_b" not in model.named_parameters()

    def test_two_heads_add_parameters(self):
        model = tiny_model(heads=2)
        names = model.named_parameters()
        assert "img.w_mu.1" in names and "txt.w_std.1" in names

    def test_configurable_gcn_depth(self):
        model = tiny_model(gcn_layers=3)
        assert "w_gcn.2" in model.named_parameters()
        rng = np.random.default_rng(0)
        assert model.encode_image(rng.standard_normal((4, 6))).shape == (1, 4, 6)

    def test_state_roundtrip(self):
        model = tiny_model(seed=1)
        other = MatchingModel(model.config, 9, 4, ParamSource(flat=model.flat.copy()))
        assert list(other.named_parameters()) == list(model.named_parameters())
        for name, t in model.named_parameters().items():
            np.testing.assert_array_equal(t.values, other.named_parameters()[name].values)

    def test_state_mismatch_detected(self):
        """Too few or too many values for the config's parameters raise
        ``ValueError``; too few name the parameter they run out at."""
        model = tiny_model()
        size, last = model.flat.size, list(model.named_parameters())[-1]
        with pytest.raises(ValueError, match=f"{size - 1} values run out at parameter '{last}'"):
            MatchingModel(model.config, 9, 4, ParamSource(flat=np.zeros(size - 1)))
        with pytest.raises(ValueError, match=f"{size + 1} values, but the parameters hold {size}"):
            MatchingModel(model.config, 9, 4, ParamSource(flat=np.zeros(size + 1)))


class TestForward:
    def test_embeddings_unit_norm(self):
        model = tiny_model()
        rng = np.random.default_rng(3)
        regions = rng.standard_normal((2, 4, 6))
        tokens = np.array([[1, 4, 2], [0, 0, 8]])
        img_noise, txt_noise = model.draw_noise(np.random.default_rng(0), 2, (4, 3))
        emb, trace = model.embed_image(regions, img_noise)
        assert emb.shape == (2, 6)
        np.testing.assert_allclose(np.linalg.norm(emb.values, axis=1), 1.0, atol=1e-9)
        assert trace.length == 4
        emb_t, trace_t = model.embed_text(tokens, txt_noise)
        np.testing.assert_allclose(np.linalg.norm(emb_t.values, axis=1), 1.0, atol=1e-9)
        assert trace_t.length == 3

    def test_single_instance_is_batch_of_one(self):
        model = tiny_model()
        rng = np.random.default_rng(6)
        regions = rng.standard_normal((3, 4, 6))
        tokens = np.array([[1, 4], [2, 2], [8, 0]])
        batch = model.embed_image(regions, None, mode="deterministic")[0].values
        words = model.embed_text(tokens, None, mode="deterministic")[0].values
        for b in range(3):
            one = model.embed_image(regions[b], None, mode="deterministic")[0].values
            np.testing.assert_allclose(one, batch[b:b + 1], rtol=1e-12, atol=1e-15)
            one = model.embed_text(tokens[b], None, mode="deterministic")[0].values
            np.testing.assert_allclose(one, words[b:b + 1], rtol=1e-12, atol=1e-15)

    def test_pg_off_uses_neutral_trace(self):
        model = tiny_model(pg_mode="off")
        rng = np.random.default_rng(4)
        emb, trace = model.embed_image(rng.standard_normal((3, 6)), None)
        assert np.all(trace.attention == 1 / model.config.lam)
        assert trace.weights.shape == (1, 3)  # no log-prob sum columns

    def test_deterministic_mode_no_rng_needed(self):
        model = tiny_model()
        rng = np.random.default_rng(5)
        regions = rng.standard_normal((3, 6))
        a, _ = model.embed_image(regions, None, mode="deterministic")
        ad.clear_tape()
        b, _ = model.embed_image(regions, None, mode="deterministic")
        np.testing.assert_array_equal(a.values, b.values)


class TestCheckpoint:
    def test_save_load_bitwise(self, tmp_path):
        model = tiny_model(seed=7)
        model.save_checkpoint(tmp_path / "ckpt")
        loaded = MatchingModel.load_checkpoint(tmp_path / "ckpt")
        assert loaded.config == model.config
        assert loaded.vocab_size == model.vocab_size
        for name, t in model.named_parameters().items():
            np.testing.assert_array_equal(t.values, loaded.named_parameters()[name].values)

    def test_loaded_model_same_outputs(self, tmp_path):
        model = tiny_model(seed=8)
        model.save_checkpoint(tmp_path / "ckpt")
        loaded = MatchingModel.load_checkpoint(tmp_path / "ckpt")
        rng = np.random.default_rng(9)
        regions = rng.standard_normal((3, 6))
        a, _ = model.embed_image(regions, None, mode="deterministic")
        ad.clear_tape()
        b, _ = loaded.embed_image(regions, None, mode="deterministic")
        np.testing.assert_array_equal(a.values, b.values)

    def test_overwrite_replaces_the_previous_checkpoint(self, tmp_path):
        tiny_model(seed=1).save_checkpoint(tmp_path / "ckpt")
        model = tiny_model(seed=2)
        model.save_checkpoint(tmp_path / "ckpt")
        loaded = MatchingModel.load_checkpoint(tmp_path / "ckpt")
        for name, t in model.named_parameters().items():
            assert loaded.named_parameters()[name].values.tobytes() == t.values.tobytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        previous = tiny_model(seed=3)
        previous.save_checkpoint(tmp_path / "ckpt")
        written = []

        def failing_write(path, arr):
            written.append(path)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(model_module, "write_matrix", failing_write)
        with pytest.raises(OSError, match="No space"):
            tiny_model(seed=4).save_checkpoint(tmp_path / "ckpt")
        with pytest.raises(OSError):
            tiny_model(seed=4).save_checkpoint(tmp_path / "fresh")
        assert len(written) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]
        loaded = MatchingModel.load_checkpoint(tmp_path / "ckpt")
        for name, t in previous.named_parameters().items():
            assert loaded.named_parameters()[name].values.tobytes() == t.values.tobytes()

    def test_failed_swap_puts_the_previous_checkpoint_back(self, tmp_path, monkeypatch):
        previous = tiny_model(seed=5)
        previous.save_checkpoint(tmp_path / "ckpt")
        calls = []

        def failing_replace(src, dst):
            calls.append(src)
            if len(calls) == 2:  # the manifest into place: the commit
                raise OSError(16, "Device or resource busy")
            real_replace(src, dst)

        real_replace = model_module.os.replace
        monkeypatch.setattr(model_module.os, "replace", failing_replace)
        with pytest.raises(OSError, match="busy"):
            tiny_model(seed=6).save_checkpoint(tmp_path / "ckpt")
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]
        loaded = MatchingModel.load_checkpoint(tmp_path / "ckpt")
        for name, t in previous.named_parameters().items():
            assert loaded.named_parameters()[name].values.tobytes() == t.values.tobytes()

    @staticmethod
    def files(path) -> dict:
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}

    @staticmethod
    def assert_holds(path, model):
        """``path`` loads as ``model`` bit for bit and holds only
        ``checkpoint.json`` and the files it names."""
        manifest = json.loads((path / "checkpoint.json").read_text())
        assert re.fullmatch(r"params-[0-9a-f]{16}\.bin", manifest["file"])
        assert sorted(p.name for p in path.iterdir()) == ["checkpoint.json", manifest["file"]]
        loaded = MatchingModel.load_checkpoint(path)
        for name, t in model.named_parameters().items():
            assert loaded.named_parameters()[name].values.tobytes() == t.values.tobytes()

    def test_every_failure_point_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        """The k-th ``write_matrix`` or ``os.replace`` of a save raises, for
        every k up to the commit: the previous checkpoint stays whole, and a
        save into a new directory leaves nothing."""
        previous = tiny_model(seed=14)
        previous.save_checkpoint(tmp_path / "ckpt")
        model = tiny_model(seed=15)
        calls = []
        real_write, real_replace = model_module.write_matrix, os.replace

        def counted(real):
            def call(*args):
                calls.append(real)
                if len(calls) == fail_at:
                    raise OSError(28, "No space left on device")
                real(*args)
            return call

        monkeypatch.setattr(model_module, "write_matrix", counted(real_write))
        monkeypatch.setattr(os, "replace", counted(real_replace))
        fail_at = 0
        model.save_checkpoint(tmp_path / "counted")
        total = len(calls)
        assert total == 3
        for fail_at in range(1, total + 1):
            for target in ("ckpt", "fresh"):
                calls.clear()
                with pytest.raises(OSError, match="No space"):
                    model.save_checkpoint(tmp_path / target)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt", "counted"]
            self.assert_holds(tmp_path / "ckpt", previous)
        monkeypatch.undo()
        self.assert_holds(tmp_path / "counted", model)

    def test_same_model_saves_byte_identical_directories(self, tmp_path):
        model = tiny_model(seed=16, heads=2)
        model.save_checkpoint(tmp_path / "a")
        model.save_checkpoint(tmp_path / "b")
        first = self.files(tmp_path / "a")
        model.save_checkpoint(tmp_path / "a")
        assert self.files(tmp_path / "a") == first == self.files(tmp_path / "b")
        self.assert_holds(tmp_path / "a", model)

    def test_save_over_a_v1_checkpoint_replaces_it(self, tmp_path):
        """A ``pgmatch-checkpoint-v1`` directory (one file per parameter)
        does not load; a save over it leaves only ``checkpoint.json`` and
        one params file."""
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        v1, params = tiny_model(seed=17), {}
        for name, t in v1.named_parameters().items():
            params[name] = {"file": f"{name.replace('.', '_')}.bin", "shape": list(t.shape)}
            write_matrix(ckpt / params[name]["file"], t.values.reshape(1, -1))
        (ckpt / "checkpoint.json").write_text(json.dumps({
            "format": "pgmatch-checkpoint-v1", "config": v1.config.to_dict(), "vocab_size": 9,
            "num_instances": 4, "params": params}))
        with pytest.raises(CheckpointError, match="field 'format'"):
            MatchingModel.load_checkpoint(ckpt)
        model = tiny_model(seed=18)
        model.save_checkpoint(ckpt)
        self.assert_holds(ckpt, model)

    def test_manifest_lists_the_parameters_in_order(self, tmp_path):
        model = tiny_model(seed=19, heads=2)
        model.save_checkpoint(tmp_path / "ckpt")
        manifest = json.loads((tmp_path / "ckpt" / "checkpoint.json").read_text())
        assert manifest["format"] == "pgmatch-checkpoint-v2"
        assert manifest["params"] == [[name, list(t.shape)]
                                      for name, t in model.named_parameters().items()]

    @pytest.mark.parametrize("how", ["fresh", "load_checkpoint", "rebuild"])
    def test_loaded_parameters_are_consecutive_views_of_one_buffer(self, tmp_path, how):
        model = tiny_model(seed=20, heads=2)
        model.save_checkpoint(tmp_path / "ckpt")
        flat = model.flat.copy()
        result = TrainResult(records=[], final_params=flat, best_params=flat, best_epoch=0,
                             best_metric=0.0, config=model.config, vocab_size=9, num_instances=4)
        built = {"fresh": lambda: model, "rebuild": result.rebuild,
                 "load_checkpoint": lambda: MatchingModel.load_checkpoint(tmp_path / "ckpt")}[how]()
        buffer = built.flat
        assert buffer.dtype == np.float64 and buffer.flags.c_contiguous
        assert buffer.size == sum(t.size for t in model.named_parameters().values())
        start = buffer.__array_interface__["data"][0]
        for t in built.parameters():
            assert np.shares_memory(t.values, buffer) and t.values.flags.c_contiguous
            assert t.values.__array_interface__["data"][0] == start
            start += t.values.nbytes
        assert start == buffer.__array_interface__["data"][0] + buffer.nbytes

    def test_a_load_reads_the_manifest_and_one_matrix(self, tmp_path, monkeypatch):
        tiny_model(seed=21, heads=2).save_checkpoint(tmp_path / "ckpt")
        calls = []
        for name in ("read_json", "read_matrix"):
            def counted(*args, real=getattr(model_module, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(model_module, name, counted)
        MatchingModel.load_checkpoint(tmp_path / "ckpt")
        assert sorted(calls) == ["read_json", "read_matrix"]


class TestLoading:
    """``load_checkpoint`` and ``TrainResult.rebuild`` build the model from
    the vector they hold: nothing is drawn, and each parameter gets its own
    writable memory in the model's buffer, equal bit for bit to the saved
    values."""

    @pytest.fixture(params=["load_checkpoint", "rebuild"])
    def loaded(self, request, tmp_path, monkeypatch):
        """(saved model, model loaded the way ``request.param`` names,
        vectors it was loaded from), with every rng construction failing."""
        model = tiny_model(seed=13, heads=2)
        model.save_checkpoint(tmp_path / "ckpt")
        state = model.flat.copy()
        result = TrainResult(records=[], final_params=state, best_params=state, best_epoch=0,
                             best_metric=0.0, config=model.config, vocab_size=9, num_instances=4)

        def no_rng(*args, **kwargs):
            raise AssertionError("loading drew from an rng")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        if request.param == "load_checkpoint":
            return model, MatchingModel.load_checkpoint(tmp_path / "ckpt"), []
        return model, result.rebuild(), [result.best_params]

    def test_parameters_are_the_saved_bits_in_owned_arrays(self, loaded):
        model, other, sources = loaded
        params = other.named_parameters()
        assert list(params) == list(model.named_parameters())
        arrays = [t.values for t in params.values()]
        for name, t in model.named_parameters().items():
            assert params[name].values.dtype == np.float64
            assert params[name].values.tobytes() == t.values.tobytes()
            assert params[name].values.flags.writeable
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:] + sources:
                assert not np.shares_memory(a, b)

    def test_adam_step_updates_in_place(self, loaded):
        _, other, sources = loaded
        params = other.trainable_parameters()
        before = [(t.values, t.values.copy()) for t in params]
        kept = [a.copy() for a in sources]
        for t in params:
            t.grad = np.ones(t.shape)
        Adam(params, lr=0.1).step()
        for t, (array, old) in zip(params, before):
            assert t.values is array
            assert not np.array_equal(array, old)
        for a, old in zip(sources, kept):
            assert a.tobytes() == old.tobytes()


class TestCheckpointFuzz:
    """A damaged checkpoint manifest, its ``config`` values included,
    loads or raises ``CheckpointError`` naming the checkpoint; no other
    exception gets out."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "ckpt"
        tiny_model(heads=2).save_checkpoint(path)
        return path, json.loads((path / "checkpoint.json").read_text())

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_loads_or_raises_checkpoint_error(self, saved, data):
        path, manifest = saved
        start = data.draw(st.sampled_from([(), ("config",)]))
        (path / "checkpoint.json").write_text(json.dumps(data.draw(mutated(manifest, start))))
        try:
            MatchingModel.load_checkpoint(path)
        except CheckpointError as exc:
            assert str(path) in str(exc)

    def test_every_near_edit_of_each_config_value(self, saved):
        path, manifest = saved
        for key, value in manifest["config"].items():
            for edit in near(value):
                damaged = {**manifest, "config": {**manifest["config"], key: edit}}
                (path / "checkpoint.json").write_text(json.dumps(damaged))
                try:
                    MatchingModel.load_checkpoint(path)
                except CheckpointError as exc:
                    assert str(path) in str(exc)
