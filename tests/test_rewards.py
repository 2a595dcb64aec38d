import itertools

import numpy as np
import pytest

import pgmatch.autodiff as ad
from pgmatch.rewards import (
    RewardRecord,
    attach_baseline,
    average_precision,
    instance_rewards,
    pg_baseline,
    rank_of,
    recall_at_1,
    similarity_matrix,
)


class TestSimilarityMatrix:
    def test_identical_sets_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(0)
        embs = rng.standard_normal((4, 6))
        embs /= np.linalg.norm(embs, axis=1, keepdims=True)
        sim = similarity_matrix(embs, embs)
        np.testing.assert_allclose(np.diag(sim), 1.0, atol=1e-12)
        np.testing.assert_allclose(sim, sim.T, atol=1e-12)

    def test_orthogonal_pairs_identity(self):
        embs = np.eye(4)
        np.testing.assert_allclose(similarity_matrix(embs, embs), np.eye(4), atol=1e-15)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(1)
        img = rng.standard_normal((4, 5))
        txt = rng.standard_normal((4, 5))
        sim = similarity_matrix(img, txt)
        expect = np.array([[float(np.dot(img[i], txt[j])) for j in range(4)] for i in range(4)])
        np.testing.assert_allclose(sim, expect, atol=1e-12)

    def test_count_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            similarity_matrix(np.zeros((3, 4)), np.zeros((2, 4)))

    def test_detached_from_tape(self):
        ad.clear_tape()
        embs = ad.Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]), requires_grad=True)
        before = len(ad.active_tape().records)
        sim = similarity_matrix(embs, embs)
        assert len(ad.active_tape().records) == before
        assert isinstance(sim, np.ndarray)
        ad.clear_tape()


class TestRecallAt1:
    def test_identity_matrix(self):
        for k in range(4):
            assert recall_at_1(np.eye(4), k) == 1.0

    def test_off_diagonal_max(self):
        sim = np.eye(3)
        sim[0, 2] = 2.0
        assert recall_at_1(sim, 0) == 0.0

    def test_matches_enumeration(self):
        for perm in itertools.permutations(range(4)):
            row = np.array(perm, dtype=np.float64)
            sim = np.tile(row, (4, 1))
            for k in range(4):
                oracle = 1.0 if all(row[k] >= row[j] for j in range(4)) else 0.0
                assert recall_at_1(sim, k) == oracle


class TestAveragePrecision:
    def test_rank_one(self):
        assert average_precision(np.eye(3), 0) == 1.0

    def test_rank_two_of_four(self):
        row = np.array([0.9, 0.5, 0.2, 0.1])
        sim = np.tile(row, (4, 1))
        assert average_precision(sim, 1) == 0.5

    def test_mean_over_all_placements_in_five_gallery(self):
        # relevant item placed at every rank of a 5-gallery
        scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        total = 0.0
        for rank_pos in range(5):
            row = np.empty(5)
            row[0] = scores[rank_pos]
            others = [s for i, s in enumerate(scores) if i != rank_pos]
            row[1:] = others
            total += average_precision(np.tile(row, (5, 1)), 0)
        expect = (1 + 1 / 2 + 1 / 3 + 1 / 4 + 1 / 5) / 5
        np.testing.assert_allclose(total / 5, expect, rtol=1e-12)
        assert abs(total / 5 - 0.4567) < 1e-4

    def test_tie_rank_by_index(self):
        row = np.array([0.7, 0.7, 0.1])
        assert rank_of(row, 0) == 1
        assert rank_of(row, 1) == 2


class TestInstanceRewards:
    def test_identity_perfect(self):
        records = instance_rewards(np.eye(4))
        for rec in records:
            assert rec.reward == 2.0
            assert rec.r_at_1 == 1.0 and rec.ap == 1.0

    def test_mismatched_pairs(self):
        sim = np.fliplr(np.eye(4))  # anti-diagonal best
        records = instance_rewards(sim)
        for rec in records:
            assert rec.r_at_1 == 0.0
            assert rec.ap < 1.0

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        sim = rng.standard_normal((5, 5))
        records = instance_rewards(sim)
        for k, rec in enumerate(records):
            r1 = (recall_at_1(sim, k) + recall_at_1(sim.T, k)) / 2
            ap = (average_precision(sim, k) + average_precision(sim.T, k)) / 2
            assert rec.r_at_1 == r1
            assert rec.ap == ap
            assert rec.reward == r1 + ap

    def test_reward_bounds_and_perfect_condition(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            sim = rng.standard_normal((4, 4))
            for k, rec in enumerate(instance_rewards(sim)):
                assert 0.0 <= rec.reward <= 2.0
                both_first = rank_of(sim[k], k) == 1 and rank_of(sim.T[k], k) == 1
                assert (rec.reward == 2.0) == both_first

    def test_reward_modes(self):
        sim = np.eye(3)
        assert all(r.reward == 1.0 for r in instance_rewards(sim, mode="r1"))
        assert all(r.reward == 1.0 for r in instance_rewards(sim, mode="ap"))
        assert all(r.reward == 2.0 for r in instance_rewards(sim, mode="r1+ap"))
        with pytest.raises(ValueError, match="reward mode"):
            instance_rewards(sim, mode="r5")

    def test_single_direction(self):
        sim = np.array([[0.9, 0.95], [0.1, 0.8]])
        i2t = instance_rewards(sim, direction="i2t")
        assert i2t[0].r_at_1 == 0.0  # column 1 beats the pair in row 0
        t2i = instance_rewards(sim, direction="t2i")
        assert t2i[0].r_at_1 == 1.0


class TestPgBaseline:
    def test_leave_one_out_values(self):
        b, adv = pg_baseline([1.0, 2.0, 3.0], beta=0.5)
        np.testing.assert_array_equal(b, [2.5, 2.0, 1.5])
        np.testing.assert_allclose(adv, [1.0 - 1.25, 2.0 - 1.0, 3.0 - 0.75])

    def test_identical_rewards(self):
        beta = 0.5
        b, adv = pg_baseline([1.3] * 4, beta=beta)
        np.testing.assert_allclose(b, 1.3)
        np.testing.assert_allclose(adv, 1.3 * (1 - beta))

    def test_beta_zero_disables_baseline(self):
        r = [0.3, 1.7, 0.9]
        _, adv = pg_baseline(r, beta=0.0)
        np.testing.assert_array_equal(adv, r)

    def test_beta_one_advantages_sum_to_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            r = rng.random(int(rng.integers(2, 20))) * 2
            _, adv = pg_baseline(r, beta=1.0)
            assert abs(adv.sum()) < 1e-12

    def test_too_small_batch(self):
        with pytest.raises(ValueError, match="at least 2"):
            pg_baseline([1.0], beta=0.5)

    def test_attach_fills_records(self):
        records = [RewardRecord(1.0, 1.0, 2.0), RewardRecord(0.0, 0.5, 0.5)]
        attach_baseline(records, beta=0.5)
        assert records[0].baseline == 0.5
        assert records[0].advantage == 2.0 - 0.25
        assert records[1].baseline == 2.0
        assert records[1].advantage == 0.5 - 1.0
