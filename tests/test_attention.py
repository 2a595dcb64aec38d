import math

import numpy as np
import pytest

import pgmatch.autodiff as ad
from pgmatch.attention import (
    PolicyParams,
    RolloutNoise,
    draw_noise,
    fuse,
    neutral_trace,
    policy_rollout,
)
from pgmatch.distributions import ActionSpace, gumbel_from_uniform
from pgmatch.encoders import GruParams
from unfused import gru_step, square, tsum


def zero_policy(dim, hidden, space, heads=1):
    z = lambda *shape: ad.Tensor(np.zeros(shape))
    gru = GruParams(w_xz=z(dim, hidden), w_hz=z(hidden, hidden), b_z=z(hidden),
                    w_xr=z(dim, hidden), w_hr=z(hidden, hidden), b_r=z(hidden),
                    w_xc=z(dim, hidden), w_hc=z(hidden, hidden), b_c=z(hidden))
    fusion = GruParams(w_xz=z(dim, dim), w_hz=z(dim, dim), b_z=z(dim),
                       w_xr=z(dim, dim), w_hr=z(dim, dim), b_r=z(dim),
                       w_xc=z(dim, dim), w_hc=z(dim, dim), b_c=z(dim))
    return PolicyParams(gru=gru,
                        w_mu=[z(hidden, space.num_labels) for _ in range(heads)],
                        w_std=[z(hidden, 1) for _ in range(heads)],
                        fusion_gru=fusion)


def random_policy(dim, hidden, space, rng, heads=1):
    return PolicyParams.init(dim, hidden, space, rng, heads=heads)


def random_features(rng, count, dim, batch=1):
    """A (batch, count, dim) sequence, drawn one timestep at a time."""
    return ad.Tensor(np.stack([rng.standard_normal((batch, dim)) for _ in range(count)], axis=1))


def noise_for(rng, feats, params, space, action_mode="compound"):
    batch, length = feats.shape[:2]
    return draw_noise(rng, batch, [length], len(params.w_mu), space.num_labels,
                      action_mode)[0]


def rollout(feats, params, space, rng, action_mode="compound"):
    noise = noise_for(rng, feats, params, space, action_mode)
    return policy_rollout(feats, params, space, noise, action_mode=action_mode)


def discrete_sums(trace):
    """The episode sums of the discrete log-probs, column ``length``."""
    return trace.weights.values[:, trace.length]


def continuous_sums(trace):
    """The episode sums of the continuous log-densities, column ``length + 1``."""
    return trace.weights.values[:, trace.length + 1]


def trace_values(trace):
    vals = (discrete_sums(trace).tolist()
            + continuous_sums(trace).tolist())
    vals.extend(trace.attention.T.ravel().tolist())
    return vals


def squashed_labels(n):
    """Every attention value a discrete action can take: logistic(k / n)."""
    return 1.0 / (1.0 + np.exp(-np.arange(n + 1) / n))


class TestPolicyRollout:
    def test_deterministic_zero_weights(self):
        space = ActionSpace(n=100)
        params = zero_policy(4, 5, space)
        feats = random_features(np.random.default_rng(0), 3, 4, batch=2)
        trace = policy_rollout(feats, params, space, mode="deterministic")
        # uniform logits tie-break to index 0 -> mu = logistic(0) = 0.5, and
        # the deterministic attention is logistic(mu)
        np.testing.assert_allclose(trace.attention, 1 / (1 + math.exp(-0.5)), rtol=1e-12)
        assert np.all(np.abs(trace.attention - 0.6225) < 5e-5)

    def test_stochastic_fixed_seed_bit_identical(self):
        space = ActionSpace(n=10)
        rng = np.random.default_rng(5)
        params = random_policy(4, 5, space, rng)
        feats = random_features(rng, 4, 4, batch=3)

        v1 = trace_values(rollout(feats, params, space, np.random.default_rng(77)))
        ad.clear_tape()
        v2 = trace_values(rollout(feats, params, space, np.random.default_rng(77)))
        assert v1 == v2

    def test_trace_invariants_over_random_rollouts(self):
        space = ActionSpace(n=8)
        master = np.random.default_rng(13)
        for trial in range(1000):
            ad.clear_tape()
            params = random_policy(3, 3, space, master)
            batch = int(master.integers(1, 4))
            feats = random_features(master, int(master.integers(1, 4)), 3, batch)
            trace = rollout(feats, params, space, master)
            assert trace.length == feats.shape[1]
            assert trace.attention.shape == (batch, feats.shape[1])
            assert discrete_sums(trace).shape == (batch,)
            assert np.all(discrete_sums(trace) <= 0.0)
            assert np.all((0.0 < trace.attention) & (trace.attention < 1.0))

    def test_episode_discrete_logprob_additivity(self):
        space = ActionSpace(n=6)
        rng = np.random.default_rng(3)
        params = random_policy(3, 4, space, rng)
        feats = random_features(rng, 5, 3, batch=2)
        noise = noise_for(rng, feats, params, space)
        whole = discrete_sums(policy_rollout(feats, params, space, noise))
        prev = np.zeros(2)
        for t in range(5):
            # the first t+1 steps of an episode are an episode of their own,
            # and each step adds one log-probability
            prefix = policy_rollout(ad.Tensor(feats.values[:, :t + 1]), params, space, noise)
            step = discrete_sums(prefix) - prev
            assert np.all(step < 0.0)
            prev = discrete_sums(prefix)
        np.testing.assert_allclose(whole, prev, rtol=1e-12)

    def test_batch_rows_match_single_instance_rollouts(self):
        space = ActionSpace(n=6)
        rng = np.random.default_rng(21)
        params = random_policy(3, 4, space, rng, heads=2)
        feats = random_features(rng, 4, 3, batch=3)
        noise = noise_for(np.random.default_rng(8), feats, params, space)
        batched = policy_rollout(feats, params, space, noise)
        for b in range(3):
            ad.clear_tape()
            row = RolloutNoise(gumbel=noise.gumbel[b:b + 1], uniform=noise.uniform[b:b + 1],
                               normal=noise.normal[b:b + 1])
            single = policy_rollout(ad.Tensor(feats.values[b:b + 1]), params, space, row)
            np.testing.assert_allclose(discrete_sums(single),
                                       discrete_sums(batched)[b:b + 1],
                                       rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(continuous_sums(single),
                                       continuous_sums(batched)[b:b + 1],
                                       rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(single.attention[0], batched.attention[b], rtol=1e-12)

    def test_deterministic_mode_is_pure(self):
        space = ActionSpace(n=6)
        rng = np.random.default_rng(4)
        params = random_policy(3, 4, space, rng)
        feats = random_features(rng, 3, 3, batch=2)
        a = trace_values(policy_rollout(feats, params, space, mode="deterministic"))
        ad.clear_tape()
        b = trace_values(policy_rollout(feats, params, space, mode="deterministic"))
        assert a == b

    def test_empty_features_rejected(self):
        space = ActionSpace(n=5)
        params = zero_policy(3, 3, space)
        with pytest.raises(ValueError, match="empty"):
            policy_rollout(ad.Tensor(np.zeros((1, 0, 3))), params, space, None,
                           mode="deterministic")

    def test_stochastic_needs_rng(self):
        space = ActionSpace(n=5)
        params = zero_policy(3, 3, space)
        feats = random_features(np.random.default_rng(0), 2, 3)
        with pytest.raises(ValueError, match="noise pre-drawn from the rollout rng"):
            policy_rollout(feats, params, space, None)


class TestDrawNoise:
    @pytest.mark.parametrize("action_mode", ["compound", "discrete", "continuous"])
    def test_instance_then_branch_then_step_then_head_order(self, action_mode):
        """The sampler's batched calls give the bits of scalar calls in the
        documented order (a one-stage mode draws its batch in one call)."""
        labels, heads, lengths = 4, 2, (3, 2)
        img, txt = draw_noise(np.random.default_rng(6), 2, lengths, heads, labels, action_mode)
        rng = np.random.default_rng(6)
        for b in range(2):
            for noise, n in zip((img, txt), lengths):
                for t in range(n):
                    for k in range(heads):
                        if action_mode != "continuous":
                            np.testing.assert_array_equal(
                                noise.gumbel[b, t, k], gumbel_from_uniform(rng.random(labels)))
                            assert noise.uniform[b, t, k] == rng.random()
                        if action_mode != "discrete":
                            assert noise.normal[b, t, k] == rng.standard_normal()

    def test_action_modes_draw_only_their_stages(self):
        rng = np.random.default_rng(7)
        (disc,) = draw_noise(rng, 2, (3,), 1, 5, "discrete")
        assert disc.normal is None and disc.gumbel.shape == (2, 3, 1, 5)
        (cont,) = draw_noise(rng, 2, (3,), 1, 5, "continuous")
        assert cont.gumbel is None and cont.uniform is None
        ref = np.random.default_rng(7)
        ref.random(2 * 3 * 6)
        np.testing.assert_array_equal(cont.normal.ravel(), ref.standard_normal(6))


class TestFuse:
    def test_neutral_attention_recovers_features(self):
        rng = np.random.default_rng(6)
        lam = 20.0
        feats = random_features(rng, 4, 3, batch=2)
        trace = neutral_trace(4, lam)
        gru = GruParams.init(3, 3, rng)
        out = fuse(feats, trace, lam, gru)

        h = ad.constant(np.zeros((2, 3)))
        for t in range(4):
            h = gru_step(ad.Tensor(feats.values[:, t]), h, gru)
        expect = h.values + np.mean(feats.values, axis=1)
        np.testing.assert_allclose(out.values, expect, atol=1e-12)

    def test_single_feature(self):
        rng = np.random.default_rng(7)
        feats = random_features(rng, 1, 3)
        trace = neutral_trace(1, 5.0)
        gru = GruParams.init(3, 3, rng)
        out = fuse(feats, trace, 5.0, gru)
        h = gru_step(ad.Tensor(feats.values[:, 0]), ad.constant(np.zeros((1, 3))), gru)
        np.testing.assert_allclose(out.values, h.values + feats.values[:, 0], atol=1e-12)

    def test_length_mismatch(self):
        rng = np.random.default_rng(9)
        feats = random_features(rng, 3, 4)
        with pytest.raises(ValueError, match="3 features vs trace length 2"):
            fuse(feats, neutral_trace(2, 1.0), 1.0, GruParams.init(4, 4, rng))

    @pytest.mark.parametrize("width, hidden", [(1, 4), (4, 3)])
    def test_fusion_gru_of_another_width(self, width, hidden):
        rng = np.random.default_rng(12)
        feats = random_features(rng, 3, width, batch=2)
        gru = GruParams.init(width, hidden, rng)
        with pytest.raises(ad.ShapeError, match=f"hidden size {hidden} .* width {width}"):
            fuse(feats, neutral_trace(3, 1.0), 1.0, gru)

    def test_invalid_lambda(self):
        feats = random_features(np.random.default_rng(0), 2, 3)
        with pytest.raises(ValueError, match="lambda"):
            fuse(feats, neutral_trace(2, 1.0), 0.0, GruParams.init(3, 3, np.random.default_rng(1)))

    def test_scaled_attention_bounded_by_lambda(self):
        space = ActionSpace(n=10)
        rng = np.random.default_rng(10)
        params = random_policy(3, 4, space, rng)
        feats = random_features(rng, 6, 3, batch=2)
        lam = 20.0
        trace = rollout(feats, params, space, rng)
        assert np.all((0.0 < lam * trace.attention) & (lam * trace.attention < lam))

    def test_gradients_reach_policy_heads_through_reparam(self):
        space = ActionSpace(n=6)
        rng = np.random.default_rng(11)
        params = random_policy(3, 4, space, rng)
        feats = random_features(rng, 3, 3, batch=2)
        trace = rollout(feats, params, space, rng)
        out = fuse(feats, trace, 2.0, params.fusion_gru)
        ad.backward(tsum(square(out)))
        assert params.w_std[0].grad is not None and np.any(params.w_std[0].grad != 0.0)
        assert params.w_mu[0].grad is not None and np.any(params.w_mu[0].grad != 0.0)


class TestMultiHead:
    def test_head_count_validated(self):
        space = ActionSpace(n=5)
        with pytest.raises(ValueError, match="head count"):
            zero_policy(3, 3, space, heads=3)

    def test_identical_heads_with_shared_draws_match_single_head(self):
        space = ActionSpace(n=6)
        rng = np.random.default_rng(14)
        single = random_policy(3, 4, space, rng, heads=1)
        double = PolicyParams(gru=single.gru,
                              w_mu=[single.w_mu[0], single.w_mu[0]],
                              w_std=[single.w_std[0], single.w_std[0]],
                              fusion_gru=single.fusion_gru)
        feats = random_features(rng, 3, 3, batch=2)

        noise = noise_for(np.random.default_rng(99), feats, single, space)
        t1 = policy_rollout(feats, single, space, noise)
        atts1 = t1.attention.tolist()
        d1 = discrete_sums(t1).copy()
        ad.clear_tape()
        # the second head sees the first head's noise
        shared = RolloutNoise(gumbel=np.repeat(noise.gumbel, 2, axis=2),
                              uniform=np.repeat(noise.uniform, 2, axis=2),
                              normal=np.repeat(noise.normal, 2, axis=2))
        t2 = policy_rollout(feats, double, space, shared)
        assert t2.attention.tolist() == atts1
        np.testing.assert_allclose(discrete_sums(t2), 2.0 * d1, rtol=1e-12)

    def test_deterministic_identical_heads_equal_single(self):
        space = ActionSpace(n=6)
        rng = np.random.default_rng(15)
        single = random_policy(3, 4, space, rng, heads=1)
        double = PolicyParams(gru=single.gru, w_mu=[single.w_mu[0]] * 2,
                              w_std=[single.w_std[0]] * 2, fusion_gru=single.fusion_gru)
        feats = random_features(rng, 4, 3, batch=2)
        a = policy_rollout(feats, single, space, mode="deterministic").attention
        b = policy_rollout(feats, double, space, mode="deterministic").attention
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_mean_attention_in_unit_interval(self):
        space = ActionSpace(n=6)
        rng = np.random.default_rng(16)
        params = random_policy(3, 4, space, rng, heads=2)
        feats = random_features(rng, 5, 3, batch=2)
        trace = rollout(feats, params, space, rng)
        assert np.all((0.0 < trace.attention) & (trace.attention < 1.0))

    def test_fixed_seed_deterministic(self):
        space = ActionSpace(n=6)
        rng = np.random.default_rng(17)
        params = random_policy(3, 4, space, rng, heads=2)
        feats = random_features(rng, 3, 3, batch=2)
        a = trace_values(rollout(feats, params, space, np.random.default_rng(4)))
        ad.clear_tape()
        b = trace_values(rollout(feats, params, space, np.random.default_rng(4)))
        assert a == b


class TestActionModes:
    def test_discrete_mode_uses_mu_as_attention(self):
        space = ActionSpace(n=6)
        rng = np.random.default_rng(18)
        params = random_policy(3, 4, space, rng)
        feats = random_features(rng, 3, 3, batch=2)
        trace = rollout(feats, params, space, rng, action_mode="discrete")
        assert np.all(np.isin(trace.attention, squashed_labels(space.n)))
        assert np.all(continuous_sums(trace) == 0.0)

    def test_continuous_mode_has_no_discrete_logprob(self):
        space = ActionSpace(n=6)
        rng = np.random.default_rng(19)
        params = random_policy(3, 4, space, rng)
        feats = random_features(rng, 3, 3, batch=2)
        trace = rollout(feats, params, space, rng, action_mode="continuous")
        assert np.all(discrete_sums(trace) == 0.0)
        assert np.all(continuous_sums(trace) != 0.0)

    def test_unknown_modes_rejected(self):
        space = ActionSpace(n=6)
        params = zero_policy(3, 3, space)
        feats = random_features(np.random.default_rng(0), 2, 3)
        with pytest.raises(ValueError, match="rollout mode"):
            policy_rollout(feats, params, space, None, mode="greedy")
        with pytest.raises(ValueError, match="action mode"):
            policy_rollout(feats, params, space, None, mode="deterministic",
                           action_mode="hybrid")
        with pytest.raises(ValueError, match="action mode"):
            draw_noise(np.random.default_rng(0), 1, (2,), 1, 7, "hybrid")


class TestNeutralTrace:
    def test_scale_is_inverse_lambda(self):
        trace = neutral_trace(4, 20.0)
        assert np.all(trace.attention == 1 / 20.0) and trace.attention.shape == (1, 4)
        assert trace.weights.shape == (1, 4)  # no log-prob sum columns
        assert trace.length == 4
