import itertools

import numpy as np
import pytest

import pgmatch.autodiff as ad
from pgmatch.rewards import diagonal_ranks, instance_rewards, pg_baseline, similarity_matrix


def rank_of(row: np.ndarray, k: int) -> int:
    """Oracle: 1-based rank of entry k of ``row`` under a descending sort,
    ties going to the lower index."""
    idx = np.arange(row.size)
    return int(1 + (row > row[k]).sum() + ((row == row[k]) & (idx < k)).sum())


def reward_oracle(sim: np.ndarray, k: int, mode: str) -> float:
    """Instance k's reward one view at a time: R@1 by argmax (first
    maximum wins), AP as 1 / rank, each the mean over sim and sim.T."""
    views = (sim, sim.T)
    r1 = float(np.mean([1.0 if int(np.argmax(v[k])) == k else 0.0 for v in views]))
    ap = float(np.mean([1.0 / rank_of(v[k], k) for v in views]))
    return {"r1": r1, "ap": ap, "r1+ap": r1 + ap}[mode]


def tied_matrices(rng, count):
    """Square integer-valued matrices, sizes 1..8, with many ties."""
    for _ in range(count):
        n = int(rng.integers(1, 9))
        yield rng.integers(0, 3, (n, n)).astype(np.float64)


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


class TestDiagonalRanks:
    def test_matches_per_row_oracle_with_ties(self):
        rng = np.random.default_rng(5)
        sims = list(tied_matrices(rng, 300)) + [np.ones((4, 4)), rng.standard_normal((9, 9))]
        for sim in sims:
            for view in (sim, sim.T):
                oracle = [rank_of(view[k], k) for k in range(view.shape[0])]
                assert np.array_equal(diagonal_ranks(view), oracle)


class TestRecallAt1:
    """R@1 of a query is its diagonal rank being 1."""

    def test_identity_matrix(self):
        assert np.array_equal(diagonal_ranks(np.eye(4)) == 1, [True] * 4)

    def test_off_diagonal_max(self):
        sim = np.eye(3)
        sim[0, 2] = 2.0
        assert diagonal_ranks(sim)[0] != 1

    def test_matches_enumeration(self):
        for perm in itertools.permutations(range(4)):
            row = np.array(perm, dtype=np.float64)
            ranks = diagonal_ranks(np.tile(row, (4, 1)))
            for k in range(4):
                oracle = all(row[k] >= row[j] for j in range(4))
                assert (ranks[k] == 1) == oracle


class TestAveragePrecision:
    """With one relevant item, AP is 1 / rank."""

    def test_rank_one(self):
        assert 1.0 / diagonal_ranks(np.eye(3))[0] == 1.0

    def test_rank_two_of_four(self):
        row = np.array([0.9, 0.5, 0.2, 0.1])
        assert 1.0 / diagonal_ranks(np.tile(row, (4, 1)))[1] == 0.5

    def test_mean_over_all_placements_in_five_gallery(self):
        # relevant item placed at every rank of a 5-gallery
        scores = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        total = 0.0
        for rank_pos in range(5):
            row = np.empty(5)
            row[0] = scores[rank_pos]
            others = [s for i, s in enumerate(scores) if i != rank_pos]
            row[1:] = others
            total += 1.0 / diagonal_ranks(np.tile(row, (5, 1)))[0]
        expect = (1 + 1 / 2 + 1 / 3 + 1 / 4 + 1 / 5) / 5
        np.testing.assert_allclose(total / 5, expect, rtol=1e-12)
        assert abs(total / 5 - 0.4567) < 1e-4

    def test_tie_rank_by_index(self):
        ranks = diagonal_ranks(np.tile([0.7, 0.7, 0.1], (3, 1)))
        assert ranks[0] == 1
        assert ranks[1] == 2


class TestInstanceRewards:
    def test_identity_perfect(self):
        assert np.array_equal(instance_rewards(np.eye(4)), [2.0] * 4)
        assert np.array_equal(instance_rewards(np.eye(4), "r1"), [1.0] * 4)
        assert np.array_equal(instance_rewards(np.eye(4), "ap"), [1.0] * 4)

    def test_mismatched_pairs(self):
        sim = np.fliplr(np.eye(4))  # anti-diagonal best
        assert np.all(instance_rewards(sim, "r1") == 0.0)
        assert np.all(instance_rewards(sim, "ap") < 1.0)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(2)
        sims = [rng.standard_normal((5, 5))] + list(tied_matrices(rng, 200))
        for sim, mode in itertools.product(sims, ("r1", "ap", "r1+ap")):
            oracle = [reward_oracle(sim, k, mode) for k in range(sim.shape[0])]
            assert np.array_equal(instance_rewards(sim, mode), oracle), (sim, mode)

    def test_reward_bounds_and_perfect_condition(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            sim = rng.standard_normal((4, 4))
            for k, reward in enumerate(instance_rewards(sim)):
                assert 0.0 <= reward <= 2.0
                both_first = rank_of(sim[k], k) == 1 and rank_of(sim.T[k], k) == 1
                assert (reward == 2.0) == both_first

    def test_reward_modes(self):
        sim = np.eye(3)
        assert np.all(instance_rewards(sim, mode="r1") == 1.0)
        assert np.all(instance_rewards(sim, mode="ap") == 1.0)
        assert np.all(instance_rewards(sim, mode="r1+ap") == 2.0)
        with pytest.raises(ValueError, match="reward mode"):
            instance_rewards(sim, mode="r5")

    def test_leaves_sim_unchanged(self):
        sim = np.random.default_rng(4).integers(0, 3, (6, 6)).astype(np.float64)
        before = sim.copy()
        instance_rewards(sim)
        assert np.array_equal(sim, before)


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
