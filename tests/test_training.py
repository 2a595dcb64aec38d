import contextlib
import inspect
import itertools
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

import pgmatch.attention as attention
import pgmatch.autodiff as ad
import pgmatch.training as training
import recipe_digests
from pgmatch._stepworker import TextWorker, WorkerDied
from pgmatch.config import PG_MODES, ModelConfig
from pgmatch.data import generate_dataset
from pgmatch.encoders import GruParams, GruSequence
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


def large_split(rows=128, **config):
    """A model of TINY's widths and a test split of ``rows`` instances, at
    least ``PARALLEL_MIN_ROWS`` of them."""
    ds = generate_dataset(classes=16, regions=3, tokens=4, dim=6, noise_scale=0.15,
                          seed=0, test_per_class=rows // 16)
    model = MatchingModel(ModelConfig(**{**TINY, **config}), ds.vocab_size, 16,
                          np.random.default_rng(0))
    split = ds.split("test")
    assert len(split) == rows >= training.PARALLEL_MIN_ROWS
    return model, split


def _evaluate_in_child(model, split, conn):
    conn.send(evaluate(model, split))
    conn.close()


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
        assert np.array_equal(a.final_params, b.final_params)
        assert np.array_equal(a.best_params, b.best_params)

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

    @pytest.mark.parametrize("poisoned", ["instance", "text_decode_text", None])
    def test_divergence_names_the_first_non_finite_term(self, monkeypatch, poisoned):
        """The term is the first non-finite component in ``COMPONENTS``
        order (``pg_discrete_text`` is also poisoned, after the others),
        or ``total`` when only the sum is."""
        import pgmatch.training as train_mod

        real = train_mod._batch_losses

        def poisoned_losses(model, instances, labels, rng):
            bundle, reward = real(model, instances, labels, rng)
            for name in ([poisoned, "pg_discrete_text"] if poisoned else []):
                getattr(bundle, name).values = np.asarray(np.inf)
            bundle.total.values = np.asarray(np.nan)
            return bundle, reward

        monkeypatch.setattr(train_mod, "_batch_losses", poisoned_losses)
        with pytest.raises(TrainingDiverged, match=rf"loss \({poisoned or 'total'}\)") as err:
            train(ModelConfig(**{**TINY, "epochs": 1}), tiny_dataset())
        assert err.value.term == (poisoned or "total")
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
        assert err.value.term is None
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
        projections and losses are a fixed 28 records (the triplet and
        instance losses and each text decode are one), and each sampled
        stage adds, per branch, its PG surrogate (1)."""
        stages = {"off": 0, "discrete": 1, "continuous": 1, "compound": 2}[pg_mode]
        expect = 28 + 2 * (1 + (stages > 0)) + 2 * 1 * stages
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


class TestEvaluateOnTwoThreads:
    """A split of ``PARALLEL_MIN_ROWS`` or more embeds its text branch on
    the worker thread; ``_usable_cpus`` is patched so that a 1-CPU runner
    takes that path too."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(training, "_usable_cpus", lambda: 2)

    @pytest.mark.parametrize("pg_mode", ["compound", "off"])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_the_worker_embeds_bit_for_bit(self, monkeypatch, pg_mode, heads):
        model, split = large_split(pg_mode=pg_mode, heads=heads)
        threads = []
        real = MatchingModel.embed_text

        def spy(self, *args, **kwargs):
            threads.append(threading.current_thread() is threading.main_thread())
            return real(self, *args, **kwargs)

        monkeypatch.setattr(MatchingModel, "embed_text", spy)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the threads hand over the GIL as often as they can
        try:
            parallel = training.embed_split(model, split)
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(training, "_usable_cpus", lambda: 1)
        serial = training.embed_split(model, split)
        assert threads == [False, True]
        assert [a.tobytes() for a in parallel] == [a.tobytes() for a in serial]

    def test_an_error_on_the_worker_reaches_the_caller(self, monkeypatch):
        model, split = large_split(rows=64)
        tape = ad.active_tape()
        images, seen = [], []
        real = MatchingModel.embed_image

        def image(self, *args, **kwargs):
            out = real(self, *args, **kwargs)
            images.append(out[0].shape)
            return out

        def broken(self, *args, **kwargs):
            seen.append((threading.current_thread() is threading.main_thread(),
                         tape.recording))
            raise RuntimeError("text embedding failed")

        monkeypatch.setattr(MatchingModel, "embed_image", image)
        monkeypatch.setattr(MatchingModel, "embed_text", broken)
        with pytest.raises(RuntimeError, match="text embedding failed"):
            evaluate(model, split)
        assert seen == [(False, False)] and images == [(64, TINY["embed_dim"])]
        assert tape.recording and tape.records == []

    def test_an_image_error_waits_for_the_worker(self, monkeypatch):
        model, split = large_split(rows=64)
        tape = ad.active_tape()
        seen, finished = [], []
        real = MatchingModel.embed_text

        def slow(self, *args, **kwargs):
            seen.append(tape.recording)
            time.sleep(0.2)
            out = real(self, *args, **kwargs)
            seen.append(tape.recording)
            finished.append(True)
            return out

        def broken(self, *args, **kwargs):
            raise RuntimeError("image embedding failed")

        monkeypatch.setattr(MatchingModel, "embed_text", slow)
        monkeypatch.setattr(MatchingModel, "embed_image", broken)
        with pytest.raises(RuntimeError, match="image embedding failed"):
            evaluate(model, split)
        assert finished == [True] and seen == [False, False]
        assert tape.recording and tape.records == []

    def test_a_forked_child_makes_its_own_worker(self):
        """The parent's worker thread does not exist in a forked child; a
        child that submitted to the parent's pool would wait forever."""
        model, split = large_split()
        expect = evaluate(model, split)
        assert training._worker is not None
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_evaluate_in_child, args=(model, split, send))
        child.start()
        send.close()
        try:
            assert receive.poll(60), "the forked child's evaluate did not return in 60 s"
            assert receive.recv() == expect
            child.join(60)
            assert child.exitcode == 0
        finally:
            if child.is_alive():
                child.kill()
            child.join()


def assert_no_child_process():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds):
    """Raise ``TimeoutError`` in the block if it runs ``seconds`` long."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# each head's categorical draw of a text rollout in a TINY batch of 4 has
# 4 tokens x 4 rows; an image rollout's has 3 regions x 4 rows
_TEXT_DRAW_ROWS = 16
_DRAW_FAILS_AT = """
import pgmatch.attention as attention
from pgmatch.autodiff import DomainError

_real, _calls = attention.categorical_sample, []


def categorical_sample(probs, uniforms):
    if len(probs) == {rows}:
        _calls.append(1)
        if len(_calls) == 2:
            raise DomainError(f"policy_rollout: zero probability in draw {{len(_calls)}}")
    return _real(probs, uniforms)


attention.categorical_sample = categorical_sample
""".format(rows=_TEXT_DRAW_ROWS)


@pytest.mark.skipif(not hasattr(os, "memfd_create"), reason="the step worker needs memfd")
class TestTrainOnTwoProcesses:
    """With two usable CPUs, ``train`` runs the text branch of its steps
    in a worker process. ``_usable_cpus`` is patched, so that a 1-CPU
    runner takes that path too, and the worker serves from the first
    step (``start_timeout``), so that a short training uses it."""

    @pytest.fixture
    def served(self, monkeypatch):
        """Two usable CPUs; the list gets one entry per step the worker served."""
        monkeypatch.setattr(training, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(TextWorker, "start_timeout", 60.0)
        served, real = [], TextWorker.finish

        def finish(self):
            served.append(1)
            return real(self)

        monkeypatch.setattr(TextWorker, "finish", finish)
        return served

    @staticmethod
    def outcome(monkeypatch, cpus, config, dataset):
        monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
        result = train(config, dataset)
        assert_no_child_process()
        return (canonical_records(result.records), result.final_params.tobytes(),
                result.best_params.tobytes())

    @pytest.mark.parametrize("overrides", [
        *({"pg_mode": mode, "heads": heads} for mode in PG_MODES for heads in (1, 2)),
        # PG losses only: the text embedding gets no adjoint
        {"loss_triplet": False, "loss_instance": False, "loss_decode": False},
        {"loss_triplet": False, "loss_instance": False, "loss_decode": False, "heads": 2,
         "pg_mode": "discrete"},
        # attention off and one task loss: the trace is a constant
        {"pg_mode": "off", "loss_triplet": False, "loss_instance": False},
    ], ids=str)
    def test_the_worker_trains_bit_for_bit(self, monkeypatch, served, overrides):
        config, dataset = ModelConfig(**{**TINY, **overrides}), tiny_dataset()
        two = self.outcome(monkeypatch, 2, config, dataset)
        assert len(served) == sum(r["type"] == "train" for r in two[0]) == 4
        one = self.outcome(monkeypatch, 1, config, dataset)
        assert len(served) == 4
        assert two == one

    def test_a_diverged_loss_ends_the_worker(self, monkeypatch, served):
        real = training._batch_losses

        def poisoned(model, instances, labels, rng):
            bundle, reward = real(model, instances, labels, rng)
            if len(served) == 2:
                bundle.total.values = np.asarray(np.nan)
            return bundle, reward

        monkeypatch.setattr(training, "_batch_losses", poisoned)
        with pytest.raises(TrainingDiverged) as err:
            train(ModelConfig(**{**TINY, "epochs": 1}), tiny_dataset())
        assert (err.value.step, err.value.parameter) == (1, None)
        assert_no_child_process()

    def test_a_non_finite_text_gradient_names_the_serial_parameter(self, monkeypatch, served):
        """A NaN adjoint of the text embedding at the second step reaches
        every text leaf in the worker; the divergence names the first of
        them in optimizer order, as one process does."""
        real, calls = training.text_decoding_loss, []

        def poisoned(embeddings, targets, decoder):
            loss = real(embeddings, targets, decoder)
            calls.append(1)
            if len(calls) != 4:  # the text branch's decode of the second step
                return loss
            return ad.record_op("poison", (loss, embeddings), loss.values,
                                lambda g: (g, np.full(embeddings.shape, np.nan)))

        monkeypatch.setattr(training, "text_decoding_loss", poisoned)
        errors = []
        for cpus in (2, 1):
            calls.clear()
            monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
            with pytest.raises(TrainingDiverged) as err:
                train(ModelConfig(**{**TINY, "epochs": 1}), tiny_dataset())
            errors.append((err.value.parameter, err.value.epoch, err.value.step))
            assert_no_child_process()
        assert len(served) == 2
        assert errors[0] == errors[1] == ("word_table", 1, 1)

    def test_a_domain_error_in_the_workers_rollout_reaches_the_caller(
            self, monkeypatch, served, tmp_path):
        """The worker is a new interpreter, so the failing draw reaches it
        through a ``sitecustomize`` module; this process gets the same one."""
        (tmp_path / "sitecustomize.py").write_text(_DRAW_FAILS_AT)
        src = os.path.dirname(os.path.dirname(training.__file__))
        monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(tmp_path), src]))
        namespace = {}
        exec(_DRAW_FAILS_AT, namespace)  # noqa: S102 - the module the worker imports
        errors, text_draws = [], []
        try:
            for cpus in (2, 1):
                monkeypatch.setattr(training, "_usable_cpus", lambda: cpus)
                namespace["_calls"].clear()
                with pytest.raises(ad.DomainError) as err:
                    train(ModelConfig(**{**TINY, "epochs": 1}), tiny_dataset())
                errors.append((type(err.value), str(err.value)))
                text_draws.append(len(namespace["_calls"]))
                assert_no_child_process()
        finally:
            attention.categorical_sample = namespace["_real"]
        # with the worker, this process made no text draw: the worker raised
        assert served == [1, 1] and text_draws == [0, 2]
        assert errors[0] == errors[1] == (
            ad.DomainError, "policy_rollout: zero probability in draw 2")

    def test_a_killed_worker_fails_the_training_in_bounded_time(self, monkeypatch, served):
        real = training._batch_losses

        def kill_the_worker(model, instances, labels, rng):
            if len(served) == 1:
                os.kill(training._step_worker.pid, signal.SIGKILL)
            return real(model, instances, labels, rng)

        monkeypatch.setattr(training, "_batch_losses", kill_the_worker)
        with deadline(60), pytest.raises(WorkerDied, match="exited"):
            train(ModelConfig(**{**TINY, "epochs": 1}), tiny_dataset())
        assert_no_child_process()

    def test_the_worker_exits_when_the_trainer_closes_its_end(self):
        ds = tiny_dataset()
        model = MatchingModel(ModelConfig(**TINY), ds.vocab_size, 8, np.random.default_rng(0))
        worker = TextWorker(model)
        worker.start_timeout = 60.0
        with deadline(60):
            assert worker.serves(worker.model)
            worker._send_fh.close()
            pid, status = os.waitpid(worker.pid, 0)
        worker._recv_fh.close()
        assert pid == worker.pid and os.waitstatus_to_exitcode(status) == 0
        assert_no_child_process()


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

    def test_importing_pgmatch_leaves_the_process_pool_out(self):
        """Only ``run_ablation`` imports the process pool, whose modules
        cost about 1 MB of RSS in every process that imports pgmatch, only
        a large ``evaluate`` the thread pool, and only ``train`` the step
        worker's transport."""
        code = ("import sys, pgmatch, pgmatch.cli; "
                "print(*(m in sys.modules for m in ('concurrent.futures', 'multiprocessing', "
                "'pgmatch._stepworker')))")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(training.__file__)))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False False False"


# public functions of ``pgmatch.autodiff`` that are not ops recording under
# their own name
NOT_RECORDING_OPS = {"constant", "record_op", "will_record", "backward", "grad_check",
                     "active_tape", "clear_tape"}


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
            recorded |= {record[3] for record in ad.active_tape().records}
            ad.backward(bundle.total)
        ad.clear_tape()
        ops = {name for name, fn in vars(ad).items()
               if inspect.isfunction(fn) and fn.__module__ == ad.__name__
               and not name.startswith("_") and name not in NOT_RECORDING_OPS}
        assert ops - recorded == set()


class TestRecordCount:
    @pytest.mark.parametrize("workload", ["reference", "stress"])
    def test_a_benchmark_train_step_records_36_entries(self, workload):
        """One train step of a benchmark recipe: the kernels keep the tape
        at 36 records whatever the batch size and sequence lengths, one
        of them per text decode, one per projection's normalization, one
        per loss of the head but the PG terms, and one per PG term."""
        _, data_args, config = next(r for r in recipe_digests.recipes() if r[0] == workload)
        ds = generate_dataset(**data_args)
        split = ds.split("train")
        model = MatchingModel(config, ds.vocab_size, len(split), np.random.default_rng(0))
        batch = split[:config.batch_size]
        ad.clear_tape()
        _batch_losses(model, batch, list(range(len(batch))), np.random.default_rng(1))
        names = [record[3] for record in ad.active_tape().records]
        ad.clear_tape()
        assert len(names) == 36
        assert names.count("text_decode") == 2
        assert names.count("l2_normalize") == 2
        assert names.count("triplet") == names.count("instance") == 1
        assert names.count("pg_surrogate") == 4


def _benchmark_model(workload):
    _, data_args, config = next(r for r in recipe_digests.recipes() if r[0] == workload)
    ds = generate_dataset(**data_args)
    split = ds.split("train")
    model = MatchingModel(config, ds.vocab_size, len(split), np.random.default_rng(0))
    return model, split[:config.batch_size]


class TestStepMemory:
    """What a train step holds, counted by ``tracemalloc`` (numpy reports
    its buffers to it), not timed."""

    def test_backward_frees_the_kernels_saved_state(self, monkeypatch):
        sequences = []

        class Watched(attention.GruSequence):
            def __init__(self, *args):
                super().__init__(*args)
                sequences.append(weakref.ref(self))

        monkeypatch.setattr(attention, "GruSequence", Watched)
        model, batch = _benchmark_model("reference")
        ad.clear_tape()
        bundle, _ = _batch_losses(model, batch, list(range(len(batch))), np.random.default_rng(1))
        assert len(sequences) == 4 and all(ref() is not None for ref in sequences)
        ad.backward(bundle.total)
        assert ad.active_tape().records == []
        assert [ref() for ref in sequences] == [None] * 4

    def test_building_adam_allocates_no_parameter_sized_buffer(self):
        model, _ = _benchmark_model("reference")
        params = model.trainable_parameters()
        smallest_vector = 8 * sum(p.size for p in params)
        tracemalloc.start()
        try:
            ad.Adam(params, lr=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < smallest_vector

    def test_a_warm_reference_step_peaks_under_4_2_mb(self):
        """One train step after two warm-up steps (Adam's buffers exist).
        Measured with numpy 2.4: 4.98 MB when backward kept the tape and
        Adam held five parameter-sized vectors, 3.40 MB while the kernels
        kept state no backward line read, 2.65 MB now."""
        model, batch = _benchmark_model("reference")
        opt = ad.Adam(model.trainable_parameters(), lr=1e-3)
        rng = np.random.default_rng(1)

        def step():
            ad.clear_tape()
            bundle, _ = _batch_losses(model, batch, list(range(len(batch))), rng)
            ad.backward(bundle.total)
            opt.step()

        step()
        step()
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            ad.clear_tape()
        assert peak < 4_200_000

    def test_a_stress_epoch_peaks_under_14_mb(self):
        """The traced peak of one ``stress``-shaped training epoch (two
        steps and a validation pass), from the start of ``train``; no
        timing enters it, and it repeats to within 25 KB for fixed code
        and shapes. Measured with numpy 2.4: 15.45 MB while the forward
        pass kept the whole noise draw, every GRU's (T, B, q) r h and the
        decoder's windows, 13.17 MB now."""
        _, data_args, config = next(r for r in recipe_digests.recipes() if r[0] == "stress")
        dataset = generate_dataset(**data_args)
        tracemalloc.start()
        try:
            train(config.replaced(epochs=1), dataset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14_000_000

    @pytest.mark.parametrize("action_mode", ["compound", "discrete", "continuous"])
    def test_each_noise_array_owns_its_memory(self, action_mode):
        """A branch's noise is freed with its rollout, so no returned
        array may be a view into a buffer that holds more: the whole draw."""
        noises = attention.draw_noise(np.random.default_rng(1), 4, (3, 2), 2, 6, action_mode)
        arrays = [a for noise in noises for a in (noise.gumbel, noise.uniform, noise.normal)
                  if a is not None]
        buffers = []
        for a in arrays:
            buffer = a
            while buffer.base is not None:
                buffer = buffer.base
            assert buffer.nbytes == a.nbytes
            buffers.append(buffer)
        for a, b in itertools.combinations(buffers, 2):
            assert not np.shares_memory(a, b)

    def test_a_kept_gru_sequence_holds_no_whole_sequence_reset_product(self):
        """``backward`` rebuilds r h from the kept gates and states."""
        rng = np.random.default_rng(3)
        run = GruSequence(GruParams.init(4, 5, rng), 3, 6, keep=True)
        run.forward(rng.standard_normal((6, 3, 4)))
        rh = run.zr[:, 1] * run.states[:-1]
        held = [v for value in vars(run).values()
                for v in (value if isinstance(value, (list, tuple)) else [value])
                if isinstance(v, np.ndarray)]
        assert not any(v.shape == rh.shape and np.array_equal(v, rh) for v in held)
