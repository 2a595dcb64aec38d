import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pgmatch.autodiff as ad
import pgmatch.attention as attention
from pgmatch.attention import ACTION_MODES, ROLLOUT_MODES
from pgmatch.distributions import ActionSpace, categorical_sample, greedy_label
from pgmatch.verify import _reparam_check, _state_gradient_check, _state_gradient_diff
from unfused import (
    action_to_mu,
    discrete_logprob,
    gumbel_softmax,
    mul,
    normal_logprob,
    normal_sample_reparam,
    sigmoid,
    soft_action_value,
    straight_through,
    tsum,
)


class TestActionSpace:
    def test_defaults(self):
        space = ActionSpace()
        assert space.n == 100
        assert space.num_labels == 101
        assert space.temperature == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ActionSpace(n=1)
        with pytest.raises(ValueError):
            ActionSpace(temperature=0.0)

    def test_frozen_with_two_fields(self):
        space = ActionSpace(n=4)
        assert [f.name for f in dataclasses.fields(space)] == ["n", "temperature"]
        # a leftover switch assigned to the space raises instead of being ignored
        with pytest.raises(dataclasses.FrozenInstanceError):
            space.relaxed_forward = True
        with pytest.raises(dataclasses.FrozenInstanceError):
            space.temperature = 0.5


class TestGumbelSoftmax:
    def test_dominated_logits_near_one_hot(self):
        rng = np.random.default_rng(0)
        out = gumbel_softmax(ad.Tensor([10.0, -10.0, -10.0]), 1.0, rng)
        assert out.values[0] > 0.99
        np.testing.assert_allclose(out.values.sum(), 1.0, atol=1e-12)

    def test_invalid_temperature(self):
        with pytest.raises(ValueError):
            gumbel_softmax(ad.Tensor([0.0, 0.0]), 0.0, np.random.default_rng(0))

    def test_seed_determinism(self):
        a = gumbel_softmax(ad.Tensor([0.3, -0.2, 0.1]), 0.7, np.random.default_rng(9))
        b = gumbel_softmax(ad.Tensor([0.3, -0.2, 0.1]), 0.7, np.random.default_rng(9))
        np.testing.assert_array_equal(a.values, b.values)

    def test_differentiable_in_logits(self):
        logits = ad.Tensor(np.array([0.4, 0.0, -0.4]))
        noise = np.array([0.3, -0.1, 0.2])

        def f(lg):
            out = gumbel_softmax(lg, 0.8, None, noise=noise)
            return tsum(mul(out, ad.constant(np.array([1.0, 2.0, 3.0]))))

        assert ad.grad_check(f, [logits]) < 1e-4

    def test_gumbel_max_frequencies_match_softmax(self):
        # argmax of the relaxed output inherits the Gumbel-max property
        logits = np.array([0.5, 0.0, -0.5])
        rng = np.random.default_rng(123)
        tiled = ad.constant(np.tile(logits, (100_000, 1)))
        winners = np.argmax(gumbel_softmax(tiled, 1.0, rng).values, axis=1)
        freqs = np.bincount(winners, minlength=3) / 100_000
        target = np.exp(logits) / np.exp(logits).sum()
        assert np.abs(freqs - target).max() < 0.01


class TestCategoricalSample:
    def test_degenerate(self):
        rng = np.random.default_rng(0)
        draws = categorical_sample(np.tile([1.0, 0.0, 0.0], (50, 1)), rng.random(50))
        assert np.all(draws == 0)

    def test_monte_carlo_two_outcomes(self):
        rng = np.random.default_rng(11)
        draws = categorical_sample(np.tile([0.25, 0.75], (100_000, 1)), rng.random(100_000))
        assert abs(np.mean(draws) - 0.75) < 0.01

    def test_monte_carlo_uniform_100(self):
        rng = np.random.default_rng(12)
        probs = np.broadcast_to(np.full(100, 0.01), (100_000, 100))
        draws = categorical_sample(probs, rng.random(100_000))
        freqs = np.bincount(draws, minlength=100) / 100_000
        assert np.abs(freqs - 0.01).max() < 0.003

    def test_rows_match_scalar_draws(self):
        """Each row's draw depends only on its own row and uniform: it is
        the first index whose running total exceeds the uniform."""
        rng = np.random.default_rng(13)
        p = rng.random((50, 6))
        p /= p.sum(axis=1, keepdims=True)
        u = rng.random(50)
        rows = categorical_sample(p, u)
        for b in range(50):
            assert rows[b] == categorical_sample(p[b:b + 1], u[b:b + 1])[0]
            assert rows[b] == int(np.sum(np.cumsum(p[b]) <= u[b] * p[b].sum()))

    def test_invalid_inputs(self):
        u = np.array([0.5])
        with pytest.raises(ValueError, match="negative"):
            categorical_sample(np.array([[-0.1, 1.1]]), u)
        with pytest.raises(ValueError, match="sum"):
            categorical_sample(np.array([[0.4, 0.4]]), u)
        with pytest.raises(ValueError, match="matrix"):
            categorical_sample(np.array([0.5, 0.5]), u)


def softmax_argmax(logits):
    with np.errstate(all="ignore"):
        return np.argmax(ad._softmax(logits), axis=-1)


@st.composite
def near_tie_rows(draw):
    """(rows, C) logits a few ulps apart around one magnitude."""
    rows, width = draw(st.integers(1, 4)), draw(st.integers(1, 101))
    base = np.float64(draw(st.floats(0.0, 1e6)))
    steps = draw(arrays(np.int64, (rows, width), elements=st.integers(0, 4)))
    sign = draw(st.sampled_from([1.0, -1.0]))
    return sign * (base.view(np.int64) + steps).view(np.float64)


class TestGreedyLabel:
    """``greedy_label`` is exactly the argmax of ``autodiff._softmax`` on
    (n, B, 101) blocks of logits, the shape a rollout's head reads."""

    def logits(self, seed, scale=1.0):
        return scale * np.random.default_rng(seed).standard_normal((3, 16, 101))

    def pair(self, seed, logits):
        """Two indices per row, the first below 50 and the second above."""
        rng = np.random.default_rng(seed)
        shape = logits.shape[:-1] + (1,)
        return rng.integers(0, 50, shape), rng.integers(51, 101, shape)

    def check(self, logits):
        with np.errstate(all="ignore"):
            got = greedy_label(logits)
        assert got.shape == logits.shape[:-1]
        assert np.array_equal(got, softmax_argmax(logits))
        return got

    def set_top_pair(self, logits, i, j, later):
        top = 2.0 * np.abs(logits).max(axis=-1, keepdims=True)  # above the row, same magnitude
        np.put_along_axis(logits, i, top, axis=-1)
        np.put_along_axis(logits, j, later(top), axis=-1)

    def test_exact_ties_take_the_first_index(self):
        logits = self.logits(0)
        i, j = self.pair(1, logits)
        self.set_top_pair(logits, i, j, lambda top: top)
        assert np.array_equal(self.check(logits), i[..., 0])

    @pytest.mark.parametrize("scale", [1e-3, 1e-2, 1.0, 1e6])
    def test_one_ulp_gaps_with_the_larger_logit_later(self, scale):
        logits = self.logits(2, scale)
        i, j = self.pair(3, logits)
        self.set_top_pair(logits, i, j, lambda top: np.nextafter(top, np.inf))
        self.check(logits)

    def test_one_ulp_gaps_defeat_the_plain_logit_argmax(self):
        # the near-tie fallback is needed: the rounded softmax ties the pair
        # and takes the first index, the logits take the later one
        logits = self.logits(4, 1e-3)
        i, j = self.pair(5, logits)
        self.set_top_pair(logits, i, j, lambda top: np.nextafter(top, np.inf))
        assert np.any(np.argmax(logits, axis=-1) != softmax_argmax(logits))
        self.check(logits)

    def test_gaps_of_1e_12(self):
        logits = self.logits(6)
        i, j = self.pair(7, logits)
        self.set_top_pair(logits, i, j, lambda top: top + 1e-12)
        self.check(logits)
        self.set_top_pair(logits, i, j, lambda top: top - 1e-12)
        self.check(logits)

    def test_rows_with_infinities_and_nan(self):
        logits = self.logits(8)
        logits[0, 0, 3] = np.inf
        logits[0, 1, [4, 90]] = np.inf
        logits[0, 2, 5] = -np.inf
        logits[0, 3] = -np.inf
        logits[0, 4, 60] = np.nan
        logits[0, 5, [1, 2]] = [np.inf, np.nan]
        logits[0, 6, [7, 8]] = [-np.inf, np.inf]
        logits[0, 7] = np.nan
        got = self.check(logits)
        assert got[0, 2] == np.argmax(logits[0, 2])  # a -inf below a finite max is safe

    def test_one_row(self):
        row = np.array([0.25, 0.5, np.nextafter(0.5, 1.0), -1.0])
        assert greedy_label(row) == softmax_argmax(row) == 1  # the logits say 2
        row[2] = 0.5  # an exact tie: the first index
        assert greedy_label(row) == softmax_argmax(row) == 1

    @pytest.mark.parametrize("exponent", range(-3, 7))
    def test_magnitudes(self, exponent):
        logits = self.logits(9 + exponent, 10.0 ** exponent)
        self.check(logits)
        self.check(logits + 10.0 ** exponent)

    @settings(max_examples=300, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 101)),
                  elements=st.floats(allow_nan=True, allow_infinity=True)))
    def test_any_float64_rows(self, logits):
        self.check(logits)

    @settings(max_examples=300, deadline=None)
    @given(near_tie_rows())
    def test_near_tie_rows(self, logits):
        self.check(logits)


class TestDiscreteLogprob:
    def test_one_logprob_per_row(self):
        probs = ad.Tensor(np.array([[0.2, 0.8], [0.5, 0.5], [1.0, 0.0]]))
        lp = discrete_logprob(probs, np.array([1, 0, 0]))
        np.testing.assert_allclose(lp.values, np.log([[0.8], [0.5], [1.0]]), rtol=1e-12)


    def test_certainty(self):
        lp = discrete_logprob(ad.Tensor([1.0, 0.0, 0.0]), 0)
        assert lp.item() == 0.0

    def test_half(self):
        lp = discrete_logprob(ad.Tensor([0.5, 0.5]), 1)
        np.testing.assert_allclose(lp.item(), math.log(0.5), rtol=1e-12)

    def test_uniform_100(self):
        probs = ad.Tensor(np.full(100, 0.01))
        np.testing.assert_allclose(discrete_logprob(probs, 37).item(), math.log(0.01), rtol=1e-12)

    def test_zero_probability_guarded(self):
        with pytest.raises(ad.DomainError):
            discrete_logprob(ad.Tensor([1.0, 0.0]), 1)

    def test_exp_roundtrip(self):
        rng = np.random.default_rng(3)
        p = rng.random(8)
        p /= p.sum()
        probs = ad.Tensor(p)
        for i in range(8):
            np.testing.assert_allclose(math.exp(discrete_logprob(probs, i).item()), p[i],
                                       rtol=1e-12)


class TestActionToMu:
    def test_endpoints(self):
        assert action_to_mu(0, 100) == 0.5
        assert action_to_mu(100, 100) == 1.0 / (1.0 + math.exp(-1.0))
        assert abs(action_to_mu(100, 100) - 0.7311) < 5e-5

    def test_midpoint(self):
        np.testing.assert_allclose(action_to_mu(50, 100), 1.0 / (1.0 + math.exp(-0.5)),
                                   rtol=1e-15)
        assert abs(action_to_mu(50, 100) - 0.6225) < 5e-5

    def test_strictly_monotone_and_bounded(self):
        values = [action_to_mu(i, 100) for i in range(101)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[0] >= 0.5 and values[-1] <= 0.7311 + 1e-4

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            action_to_mu(-1, 100)
        with pytest.raises(ValueError):
            action_to_mu(101, 100)


class TestNormalSampleReparam:
    def test_small_sigma_limit(self):
        mu = ad.Tensor(np.asarray(0.6))
        sigma = ad.Tensor(np.asarray(1e-12))
        out = normal_sample_reparam(mu, sigma, np.random.default_rng(0))
        assert abs(out.item() - 0.6) < 1e-10

    def test_monte_carlo_moments(self):
        rng = np.random.default_rng(21)
        mu = ad.Tensor(np.asarray(0.0))
        sigma = ad.Tensor(np.asarray(1.0))
        draws = np.array([normal_sample_reparam(mu, sigma, rng).item() for _ in range(100_000)])
        assert abs(draws.mean()) < 0.02
        assert abs(draws.var() - 1.0) < 0.03

    def test_seed_determinism(self):
        mu = ad.Tensor(np.asarray(0.1))
        sigma = ad.Tensor(np.asarray(0.5))
        a = normal_sample_reparam(mu, sigma, np.random.default_rng(5)).item()
        b = normal_sample_reparam(mu, sigma, np.random.default_rng(5)).item()
        assert a == b

    def test_invalid_sigma(self):
        with pytest.raises(ad.DomainError):
            normal_sample_reparam(ad.Tensor(np.asarray(0.0)), ad.Tensor(np.asarray(-1.0)),
                                  np.random.default_rng(0))

    def test_reparam_pathwise_derivatives(self):
        eps = -0.8321
        mu = ad.Tensor(np.asarray(0.2), requires_grad=True)
        sigma = ad.Tensor(np.asarray(0.7), requires_grad=True)
        out = normal_sample_reparam(mu, sigma, None, eps=eps)
        ad.backward(out)
        assert float(mu.grad) == 1.0
        assert float(sigma.grad) == eps


class TestNormalLogprob:
    def test_at_mean_unit_sigma(self):
        lp = normal_logprob(0.3, 0.3, 1.0)
        np.testing.assert_allclose(lp.item(), -0.5 * math.log(2 * math.pi), rtol=1e-12)
        assert abs(lp.item() - (-0.9189)) < 5e-5

    def test_one_sigma_away(self):
        sigma = 0.6
        lp = normal_logprob(0.2 + sigma, 0.2, sigma)
        expect = -0.5 * math.log(2 * math.pi) - math.log(sigma) - 0.5
        np.testing.assert_allclose(lp.item(), expect, rtol=1e-12)

    def test_gradients_match_finite_differences(self):
        x = ad.Tensor(np.asarray(0.4))
        mu = ad.Tensor(np.asarray(0.55))
        sigma = ad.Tensor(np.asarray(0.8))
        assert ad.grad_check(normal_logprob, [x, mu, sigma]) < 1e-4

    def test_density_integrates_to_one(self):
        mu, sigma = 0.3, 0.7
        xs = np.linspace(mu - 8 * sigma, mu + 8 * sigma, 20_001)
        dens = np.array([math.exp(normal_logprob(float(v), mu, sigma).item()) for v in xs])
        assert abs(np.trapezoid(dens, xs) - 1.0) < 1e-6

    def test_invalid_sigma(self):
        with pytest.raises(ad.DomainError):
            normal_logprob(0.0, 0.0, 0.0)


class TestStraightThrough:
    def test_one_hot_forward_and_backward_match_soft(self):
        one_hot = np.zeros(6)
        one_hot[4] = 1.0
        probs = ad.Tensor(one_hot, requires_grad=True)
        st = straight_through(4, probs, 5)
        assert st.item() == 4 / 5
        ad.backward(st)
        hard_grad = probs.grad.copy()

        ad.clear_tape()
        probs.grad = None
        ad.backward(soft_action_value(probs, 5))
        np.testing.assert_array_equal(hard_grad, probs.grad)

    def test_rows(self):
        probs = ad.Tensor(np.full((2, 6), 1 / 6), requires_grad=True)
        st = straight_through(np.array([4, 1]), probs, 5)
        np.testing.assert_array_equal(st.values, [[0.8], [0.2]])
        ad.backward(tsum(st))
        np.testing.assert_array_equal(probs.grad, np.tile(np.arange(6) / 5, (2, 1)))

    def test_forward_invariant_to_soft_probs(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            p = rng.random(6)
            p /= p.sum()
            st = straight_through(2, ad.Tensor(p), 5)
            assert st.item() == 2 / 5

    def test_end_to_end_mu_gradient_nonzero(self):
        logits = ad.Tensor(np.array([0.2, -0.1, 0.3, 0.0]), requires_grad=True)
        noise = np.array([0.05, 0.1, -0.2, 0.15])
        soft = gumbel_softmax(logits, 1.0, None, noise=noise)
        mu = sigmoid(straight_through(1, soft, 3))
        ad.backward(mu)
        assert np.any(logits.grad != 0.0)

    def test_compound_sample_invariants(self):
        rng = np.random.default_rng(17)
        space = ActionSpace(n=10)
        logits = ad.Tensor(rng.standard_normal(space.num_labels))
        soft = gumbel_softmax(logits, space.temperature, rng)
        hard = int(categorical_sample(soft.values[None], rng.random(1))[0])
        mu = sigmoid(straight_through(hard, soft, space.n))
        sigma = ad.Tensor(np.asarray(0.4))
        raw = normal_sample_reparam(mu, sigma, rng)
        att = sigmoid(raw)
        assert abs(soft.values.sum() - 1.0) < 1e-9
        np.testing.assert_allclose(mu.item(), 1.0 / (1.0 + math.exp(-hard / space.n)), rtol=1e-12)
        np.testing.assert_allclose(att.item(), 1.0 / (1.0 + math.exp(-raw.item())), rtol=1e-12)
        assert discrete_logprob(soft, hard).item() <= 0.0
        assert np.isfinite(normal_logprob(raw, mu, sigma).item())
        assert 0.0 < att.item() < 1.0


class TestHeadGradientCheck:
    """``reparam.derivatives`` compares the head's backward with its
    closed form in every sampling mode, so a broken backward fails it."""

    @staticmethod
    def diffs(detail):
        return {name: float(x) for name, x in re.findall(r"(\w+/\w+) ([^,;\s]+)", detail)}

    def test_passes_in_every_mode(self):
        ok, detail = _reparam_check()
        assert ok, detail
        diffs = self.diffs(detail)
        assert len(diffs) == 6 and max(diffs.values()) < 1e-12, detail

    def test_broken_logit_backward_fails_every_mode(self, monkeypatch):
        # drops the -soft * <g, soft> term of the softmax backward, so every
        # logit gradient is wrong while every forward value is not
        monkeypatch.setattr(attention, "_softmax_grad", lambda g, soft: g * soft)
        ok, detail = _reparam_check()
        assert not ok
        diffs = self.diffs(detail)
        assert len(diffs) == 6 and min(diffs.values()) > 1e-3, detail


class TestStateGradientCheck:
    """``reparam.state_gradient`` compares the head's state gradient
    d att/d h with its closed form; ``reparam.derivatives`` reads only the
    head weights' gradients, over a constant state."""

    @pytest.mark.parametrize("mode,action_mode",
                             list(itertools.product(ROLLOUT_MODES, ACTION_MODES)))
    def test_matches_closed_form(self, mode, action_mode):
        assert _state_gradient_diff(mode, action_mode) < 1e-12

    def test_spurious_state_gradient_fails_only_this_check(self, monkeypatch):
        # the backward sends an extra g_att * h into the state, as a head
        # without a sampled Normal would with h_parts = [g_mu * hs]
        head = attention._head

        def leaky_head(hs, *args, **kwargs):
            att, dlp, clp, backward = head(hs, *args, **kwargs)

            def leaky(g_att, g_dlp, g_clp):
                h_parts, g_wmu, g_wstd = backward(g_att, g_dlp, g_clp)
                return h_parts + [g_att * hs], g_wmu, g_wstd

            return att, dlp, clp, leaky

        monkeypatch.setattr(attention, "_head", leaky_head)
        ok, detail = _state_gradient_check()
        assert not ok
        diffs = TestHeadGradientCheck.diffs(detail)
        assert len(diffs) == 6 and min(diffs.values()) > 1e-3, detail
        assert _reparam_check()[0]
