import inspect
import itertools
import os

import numpy as np
import pytest

import pgmatch.autodiff as ad
import pgmatch.training as training
import recipe_digests
from pgmatch.config import PG_MODES, ModelConfig
from pgmatch.data import generate_dataset
from pgmatch.model import MatchingModel
from pgmatch.rewards import diagonal_ranks
from pgmatch.training import (
    TrainingDiverged,
    _batch_losses,
    canonical_records,
    evaluate,
    format_ablation_table,
    run_ablation,
    train,
)

TINY = dict(feature_dim=6, word_dim=5, hidden=6, embed_dim=6, decoder_dim=4,
            n_actions=8, batch_size=4, epochs=2)


_RUN_CELL = training._run_cell


def _run_cell_or_die(cell):
    """``training._run_cell``, except that the cell named "dies" kills its
    worker process."""
    if cell[1] == "dies":
        os._exit(3)
    return _RUN_CELL(cell)


def tiny_dataset(classes=8, seed=0):
    return generate_dataset(classes=classes, regions=3, tokens=4, dim=6,
                            noise_scale=0.15, seed=seed)


class TestTrain:
    def test_smoke_one_epoch(self):
        ds = tiny_dataset()
        result = train(ModelConfig(**{**TINY, "epochs": 1}), ds)
        evals = [r for r in result.records if r["type"] == "eval"]
        assert len(evals) >= 1
        trains = [r for r in result.records if r["type"] == "train"]
        assert len(trains) == 2  # 8 instances / batch 4
        assert {"triplet", "total", "reward_mean"} <= set(trains[0])

    def test_deterministic_across_runs(self):
        ds = tiny_dataset()
        config = ModelConfig(**TINY)
        a = train(config, ds)
        b = train(config, ds)
        assert canonical_records(a.records) == canonical_records(b.records)
        for name in a.final_params:
            np.testing.assert_array_equal(a.final_params[name], b.final_params[name])
            np.testing.assert_array_equal(a.best_params[name], b.best_params[name])

    def test_seed_changes_trajectory(self):
        ds = tiny_dataset()
        a = train(ModelConfig(**TINY, seed=0), ds)
        b = train(ModelConfig(**TINY, seed=1), ds)
        assert canonical_records(a.records) != canonical_records(b.records)

    def test_wall_time_present_but_stripped_by_canonicalizer(self):
        ds = tiny_dataset()
        result = train(ModelConfig(**{**TINY, "epochs": 1}), ds)
        assert all("wall_time" in r for r in result.records)
        assert all("wall_time" not in r for r in canonical_records(result.records))

    def test_pg_off_has_zero_pg_components(self):
        ds = tiny_dataset()
        result = train(ModelConfig(**{**TINY, "epochs": 1, "pg_mode": "off"}), ds)
        trains = [r for r in result.records if r["type"] == "train"]
        for r in trains:
            assert r["pg_discrete_image"] == 0.0
            assert r["pg_continuous_text"] == 0.0

    def test_loss_switches_zero_exact_components(self):
        ds = tiny_dataset()
        config = ModelConfig(**{**TINY, "epochs": 1, "loss_instance": False,
                                "loss_decode": False})
        result = train(config, ds)
        for r in result.records:
            if r["type"] == "train":
                assert r["instance"] == 0.0
                assert r["text_decode_image"] == 0.0
                assert r["triplet"] != 0.0

    def test_divergence_aborts_with_context(self, monkeypatch):
        import pgmatch.training as train_mod

        ds = tiny_dataset()
        real = train_mod._batch_losses
        calls = []

        def poisoned(model, instances, labels, rng):
            bundle, reward = real(model, instances, labels, rng)
            calls.append(1)
            if len(calls) == 2:
                bundle.total.values = np.asarray(np.nan)
            return bundle, reward

        monkeypatch.setattr(train_mod, "_batch_losses", poisoned)
        with pytest.raises(TrainingDiverged) as err:
            train(ModelConfig(**{**TINY, "epochs": 1}), ds)
        assert err.value.epoch == 1
        assert err.value.step == 1  # one successful step before the bad batch
        assert not np.isfinite(err.value.components["total"])
        assert err.value.parameter is None

    def test_nonfinite_gradient_aborts_naming_the_parameter(self, monkeypatch):
        import pgmatch.training as train_mod

        real = train_mod.backward
        seen = []

        def poisoned(loss):
            real(loss)
            seen.append(loss)
            if len(seen) == 2:
                # the first trainable parameter in optimizer order with a NaN
                for t in (model_params["txt.w_mu.0"], model_params["decoder.out_w"]):
                    t.grad[0, 0] = np.nan

        model_params = {}
        real_init = train_mod.MatchingModel.__init__

        def init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            model_params.update(self.named_parameters())

        monkeypatch.setattr(train_mod, "backward", poisoned)
        monkeypatch.setattr(train_mod.MatchingModel, "__init__", init)
        with pytest.raises(TrainingDiverged, match="gradient of txt.w_mu.0") as err:
            train(ModelConfig(**{**TINY, "epochs": 1}), tiny_dataset())
        assert (err.value.epoch, err.value.step) == (1, 1)
        assert err.value.parameter == "txt.w_mu.0"
        assert np.isfinite(err.value.components["total"])

    def test_best_checkpoint_tracks_best_validation(self):
        ds = tiny_dataset()
        result = train(ModelConfig(**{**TINY, "epochs": 3}), ds)
        evals = [r for r in result.records if r["type"] == "eval"]
        scores = [r["r1_i2t"] + r["r1_t2i"] for r in evals]
        assert result.best_metric == max(scores)
        assert result.best_epoch == int(np.argmax(scores)) + 1  # earliest max

    def test_rebuild_reproduces_validation_metrics(self):
        ds = tiny_dataset()
        result = train(ModelConfig(**TINY), ds)
        model = result.rebuild(best=True)
        metrics = evaluate(model, ds.split("val"), ks=(1, 5))
        best_eval = [r for r in result.records if r["type"] == "eval"
                     and r["epoch"] == result.best_epoch][0]
        assert metrics["r1_i2t"] == best_eval["r1_i2t"]
        assert metrics["r1_t2i"] == best_eval["r1_t2i"]


class TestBatchMajor:
    @pytest.mark.parametrize("overrides", [{}, {"heads": 2}, {"pg_mode": "off"},
                                           {"pg_mode": "continuous"}])
    def test_tape_records_independent_of_batch_size(self, overrides):
        ds = tiny_dataset()
        config = ModelConfig(**{**TINY, **overrides})
        model = MatchingModel(config, ds.vocab_size, 8, np.random.default_rng(0))
        counts = []
        for batch in (2, 8):
            ad.clear_tape()
            _batch_losses(model, ds.split("train")[:batch], list(range(batch)),
                          np.random.default_rng(1))
            counts.append(len(ad.active_tape().records))
        ad.clear_tape()
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("pg_mode", ["compound", "discrete", "continuous", "off"])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_tape_records_per_step_formula(self, pg_mode, heads):
        """The sequence kernels make the count independent of the regions,
        the tokens and the heads: each branch's fusion is one record, and
        with attention on its rollout is one more. The encoders,
        projections and losses are a fixed 53 records (each text decode
        is one), and each sampled stage adds, per branch, the pick and
        reshape of its log-prob sum and its PG surrogate (3)."""
        stages = {"off": 0, "discrete": 1, "continuous": 1, "compound": 2}[pg_mode]
        expect = 53 + 2 * (1 + (stages > 0)) + 2 * 3 * stages
        for regions, tokens in ((3, 4), (5, 6), (9, 2)):
            ds = generate_dataset(classes=8, regions=regions, tokens=tokens, dim=6,
                                  noise_scale=0.15, seed=0)
            config = ModelConfig(**{**TINY, "pg_mode": pg_mode, "heads": heads})
            model = MatchingModel(config, ds.vocab_size, 8, np.random.default_rng(0))
            ad.clear_tape()
            _batch_losses(model, ds.split("train")[:4], list(range(4)), np.random.default_rng(1))
            assert len(ad.active_tape().records) == expect
        ad.clear_tape()

    def test_evaluate_records_nothing(self):
        ds = tiny_dataset()
        model = MatchingModel(ModelConfig(**TINY), ds.vocab_size, 8, np.random.default_rng(0))
        tape = ad.active_tape()
        evaluate(model, ds.split("val"), ks=(1, 5))
        assert tape.records == [] and tape.recording

    def test_evaluate_turns_recording_back_on_after_an_error(self, monkeypatch):
        ds = tiny_dataset()
        model = MatchingModel(ModelConfig(**TINY), ds.vocab_size, 8, np.random.default_rng(0))
        seen = []

        def broken(self, *args, **kwargs):
            seen.append(ad.active_tape().recording)
            raise RuntimeError("embedding failed")

        monkeypatch.setattr(MatchingModel, "embed_text", broken)
        with pytest.raises(RuntimeError, match="embedding failed"):
            evaluate(model, ds.split("val"), ks=(1, 5))
        assert seen == [False] and ad.active_tape().recording
        assert ad.active_tape().records == []

    def test_evaluate_is_one_batch(self, monkeypatch):
        ds = tiny_dataset()
        model = MatchingModel(ModelConfig(**TINY), ds.vocab_size, 8, np.random.default_rng(0))
        calls = []
        real = MatchingModel.embed_image

        def spy(self, regions, *args, **kwargs):
            calls.append(np.shape(regions))
            return real(self, regions, *args, **kwargs)

        monkeypatch.setattr(MatchingModel, "embed_image", spy)
        evaluate(model, ds.split("val"), ks=(1, 5))
        assert calls == [(8, 3, 6)]


class TestEvaluate:
    def test_split_smaller_than_k(self):
        ds = tiny_dataset(classes=4)
        config = ModelConfig(**TINY)
        model = MatchingModel(config, ds.vocab_size, 4, np.random.default_rng(0))
        with pytest.raises(ValueError, match="smaller than K"):
            evaluate(model, ds.split("val"), ks=(1, 5, 10))

    def test_recall_nesting_on_random_rankings(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            sim = rng.standard_normal((12, 12))
            ranks = diagonal_ranks(sim)
            r1, r5, r10 = (np.mean(ranks <= k) for k in (1, 5, 10))
            assert r10 >= r5 >= r1

    def test_chance_level_on_random_embeddings(self):
        rng = np.random.default_rng(1)
        hits = []
        for _ in range(40):
            sim = rng.standard_normal((100, 100))
            ranks = diagonal_ranks(sim)
            hits.append(np.mean(ranks <= 1))
        assert abs(np.mean(hits) - 0.01) < 0.02

    def test_evaluate_deterministic(self):
        ds = tiny_dataset()
        config = ModelConfig(**TINY)
        model = MatchingModel(config, ds.vocab_size, len(ds.split("train")),
                              np.random.default_rng(0))
        a = evaluate(model, ds.split("val"), ks=(1, 5))
        b = evaluate(model, ds.split("val"), ks=(1, 5))
        assert a == b


class TestAblation:
    def test_grid_bookkeeping(self):
        ds = tiny_dataset()
        base = ModelConfig(**{**TINY, "epochs": 1})
        grid = [("pg_off", {"pg_mode": "off"}), ("pg_on", {"pg_mode": "compound"})]
        runs, rows = run_ablation(base, grid, ds, seeds=(0, 1), jobs=1)
        assert len(runs) == 4
        assert [row["cell"] for row in rows] == ["pg_off", "pg_on"]
        assert all(row["runs"] == 2 and row["failures"] == 0 for row in rows)
        table = format_ablation_table(rows)
        assert "pg_off" in table and "r1_i2t" in table

    def test_cell_failures_captured_not_raised(self):
        ds = tiny_dataset()
        base = ModelConfig(**{**TINY, "epochs": 1})
        grid = [("ok", {}), ("broken", {"heads": 3})]
        runs, rows = run_ablation(base, grid, ds, seeds=(0,), jobs=1)
        broken = [r for r in runs if r["cell"] == "broken"]
        assert all("error" in r for r in broken)
        assert rows[1]["failures"] == 1
        assert rows[0]["failures"] == 0

    def test_parallel_matches_serial(self):
        ds = tiny_dataset()
        base = ModelConfig(**{**TINY, "epochs": 1})
        grid = [("a", {"pg_mode": "off"}), ("b", {})]
        serial_runs, _ = run_ablation(base, grid, ds, seeds=(0,), jobs=1)
        parallel_runs, _ = run_ablation(base, grid, ds, seeds=(0,), jobs=2)
        assert serial_runs == parallel_runs

    def test_dying_worker_fails_only_its_own_cell(self, monkeypatch):
        ds = tiny_dataset()
        base = ModelConfig(**{**TINY, "epochs": 1})
        serial_runs, _ = run_ablation(base, [("healthy", {"pg_mode": "off"})], ds, seeds=(0,))
        monkeypatch.setattr(training, "_run_cell", _run_cell_or_die)
        grid = [("dies", {}), ("healthy", {"pg_mode": "off"})]
        runs, rows = run_ablation(base, grid, ds, seeds=(0,), jobs=2)
        assert runs[0]["cell"] == "dies" and "error" in runs[0]
        assert runs[1:] == serial_runs
        assert [(row["runs"], row["failures"]) for row in rows] == [(0, 1), (1, 0)]


# public functions of ``pgmatch.autodiff`` that are not ops recording under
# their own name, and the record name of each op whose name differs
NOT_RECORDING_OPS = {"constant", "record_op", "will_record", "backward", "grad_check",
                     "active_tape", "clear_tape", "l2_normalize"}
RECORD_NAMES = {"tsum": "sum"}


class TestOpSet:
    def test_every_engine_op_is_recorded_by_a_train_step(self):
        """The engine keeps only the ops the model records: one train step
        in each pg_mode, with one head and with two, records every op."""
        ds = tiny_dataset()
        split = ds.split("train")
        recorded = set()
        for pg_mode, heads in itertools.product(PG_MODES, (1, 2)):
            config = ModelConfig(**{**TINY, "pg_mode": pg_mode, "heads": heads})
            model = MatchingModel(config, ds.vocab_size, len(split), np.random.default_rng(0))
            ad.clear_tape()
            bundle, _ = _batch_losses(model, split[:4], [0, 1, 2, 3], np.random.default_rng(1))
            ad.backward(bundle.total)
            recorded |= {record[3] for record in ad.active_tape().records}
        ad.clear_tape()
        ops = {RECORD_NAMES.get(name, name) for name, fn in vars(ad).items()
               if inspect.isfunction(fn) and fn.__module__ == ad.__name__
               and not name.startswith("_") and name not in NOT_RECORDING_OPS}
        assert ops - recorded == set()


class TestRecordCount:
    @pytest.mark.parametrize("workload", ["reference", "stress"])
    def test_a_benchmark_train_step_records_69_entries(self, workload):
        """One train step of a benchmark recipe: the kernels keep the tape
        at 69 records whatever the batch size and sequence lengths, one
        of them per text decode."""
        _, data_args, config = next(r for r in recipe_digests.recipes() if r[0] == workload)
        ds = generate_dataset(**data_args)
        split = ds.split("train")
        model = MatchingModel(config, ds.vocab_size, len(split), np.random.default_rng(0))
        batch = split[:config.batch_size]
        ad.clear_tape()
        _batch_losses(model, batch, list(range(len(batch))), np.random.default_rng(1))
        names = [record[3] for record in ad.active_tape().records]
        ad.clear_tape()
        assert len(names) == 69
        assert names.count("text_decode") == 2
