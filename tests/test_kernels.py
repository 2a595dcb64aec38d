"""The fused kernels compute exactly what their primitive compositions
(``unfused.py``) compute: the same output bits and the same bits in every
input gradient, including a state that other ops read as well."""

import itertools

import numpy as np
import pytest

import pgmatch.autodiff as ad
import unfused
from pgmatch.attention import PolicyParams, RolloutNoise, _sample_head, draw_noise, policy_rollout
from pgmatch.distributions import ActionSpace
from pgmatch.encoders import GruParams, gru_step


@pytest.fixture(autouse=True)
def fresh_tape():
    ad.clear_tape()
    yield
    ad.clear_tape()


def gradients(loss, tensors):
    for t in tensors:
        t.grad = None
    ad.backward(loss)
    grads = [np.zeros_like(t.values) if t.grad is None else t.grad.copy() for t in tensors]
    ad.clear_tape()
    return grads


def assert_same_bits(fused, reference):
    assert len(fused) == len(reference)
    for i, (a, b) in enumerate(zip(fused, reference)):
        assert a.shape == b.shape, i
        assert np.array_equal(a, b), f"entry {i}: max |diff| {np.max(np.abs(a - b)):.3g}"


class TestGruKernel:
    @pytest.mark.parametrize("lead", [(), (4,)], ids=["vector", "batch"])
    def test_two_steps_match_primitive_graph(self, lead):
        rng = np.random.default_rng(3)
        params = GruParams.init(5, 4, rng, scale=0.5)
        xs = [ad.Tensor(rng.standard_normal(lead + (5,)), requires_grad=True) for _ in range(2)]
        h0 = ad.Tensor(0.5 * rng.standard_normal(lead + (4,)), requires_grad=True)
        w_out = ad.constant(rng.standard_normal(lead + (4,)))
        w_mid = ad.constant(rng.standard_normal(lead + (4,)))
        leaves = xs + [h0] + params.tensors()

        def run(step):
            h1 = step(xs[0], h0, params)
            h2 = step(xs[1], h1, params)
            # h1 feeds the second step and the loss directly, so its
            # adjoint sums parts from outside the kernel too
            loss = ad.add(ad.tsum(ad.mul(h2, w_out)), ad.tsum(ad.mul(ad.tanh(h1), w_mid)))
            return [h1.values.copy(), h2.values.copy()] + gradients(loss, leaves)

        assert_same_bits(run(gru_step), run(unfused.gru_step))

    def test_one_record_per_step(self):
        rng = np.random.default_rng(4)
        params = GruParams.init(3, 3, rng)
        gru_step(ad.Tensor(rng.standard_normal((2, 3))), ad.constant(np.zeros((2, 3))), params)
        assert [r[3] for r in ad.active_tape().records] == ["gru_step"]


MODES = ("stochastic", "deterministic")
ACTION_MODES = ("compound", "discrete", "continuous")


def head_inputs(rng, batch=3, hidden=4, labels=6):
    h = ad.Tensor(rng.standard_normal((batch, hidden)), requires_grad=True)
    w_mu = ad.Tensor(0.7 * rng.standard_normal((hidden, labels)), requires_grad=True)
    w_std = ad.Tensor(0.7 * rng.standard_normal((hidden, 1)), requires_grad=True)
    return h, w_mu, w_std


class TestHeadKernel:
    @pytest.mark.parametrize("action_mode,inputs", [("compound", 4), ("discrete", 2),
                                                     ("continuous", 4)])
    def test_one_record_with_one_input_per_use(self, action_mode, inputs):
        rng = np.random.default_rng(7)
        h, w_mu, w_std = head_inputs(rng)
        _sample_head(h, w_mu, w_std, ActionSpace(n=5), None, 0, 0, "deterministic",
                     action_mode, False)
        (record,) = ad.active_tape().records
        assert record[3] == "sample_head" and len(record[1]) == inputs

    def test_zero_probability_draw_rejected(self, monkeypatch):
        import pgmatch.attention as attention
        monkeypatch.setattr(attention, "categorical_sample", lambda p, uniforms: np.array([1]))
        noise = RolloutNoise(gumbel=np.zeros((1, 1, 1, 3)), uniform=np.full((1, 1, 1), 0.5),
                             normal=None)
        with pytest.raises(ad.DomainError, match="zero probability"):
            _sample_head(ad.Tensor(np.ones((1, 1))), ad.Tensor(np.array([[0.0, -1e4, 0.0]])),
                         ad.Tensor(np.zeros((1, 1))), ActionSpace(n=2), noise, 0, 0,
                         "stochastic", "discrete", False)


class TestRolloutKernels:
    @pytest.mark.parametrize("mode,action_mode,st_soft_forward,heads",
                             list(itertools.product(MODES, ACTION_MODES, (False, True), (1, 2))))
    def test_rollout_matches_primitive_graph(self, mode, action_mode, st_soft_forward, heads):
        rng = np.random.default_rng(8)
        space = ActionSpace(n=5, temperature=0.8)
        params = PolicyParams.init(4, 5, space, rng, heads=heads, scale=0.6)
        feats = [ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True) for _ in range(3)]
        noise = draw_noise(np.random.default_rng(9), 3, [3], heads, space.num_labels,
                           action_mode)[0]
        w_att = ad.constant(rng.standard_normal((3, 1)))
        adv = ad.constant(rng.standard_normal(3))
        leaves = feats + params.tensors()

        def run(rollout):
            trace = rollout(feats, params, space, noise, mode, action_mode,
                            st_soft_forward=st_soft_forward)
            loss = ad.tsum(ad.mul(trace.atts[0], w_att))
            for att in trace.atts[1:]:
                loss = ad.add(loss, ad.tsum(ad.mul(att, w_att)))
            for lp in (trace.discrete_logprob_sum, trace.continuous_logprob_sum):
                if ad.active_tape().is_tracked(lp):
                    loss = ad.add(loss, ad.tsum(ad.mul(lp, adv)))
            values = [a.values.copy() for a in trace.atts]
            values += [trace.discrete_logprob_sum.values.copy(),
                       trace.continuous_logprob_sum.values.copy()]
            return values + gradients(loss, leaves)

        assert_same_bits(run(policy_rollout), run(unfused.policy_rollout))


class TestSigmoid:
    def test_bitwise_equal_to_nine_op_form(self):
        rng = np.random.default_rng(10)
        specials = np.array([0.0, -0.0, 700.0, -700.0, 1e-300, -1e-300, 745.0, -745.0, 37.0])
        for x in (specials, rng.standard_normal(10_000) * 20, rng.standard_normal((7, 9))):
            got, want = ad._sigmoid(x), unfused.sigmoid_nine_ops(x)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestFlatAdam:
    def test_matches_per_parameter_update(self):
        rng = np.random.default_rng(11)
        params = [ad.Tensor(rng.standard_normal(s), requires_grad=True)
                  for s in ((3, 4), (5,), (2, 1))]
        opt = ad.Adam(params, lr=0.01)
        expect = [p.values.copy() for p in params]
        m = [np.zeros_like(p) for p in expect]
        v = [np.zeros_like(p) for p in expect]
        for t in range(1, 6):
            grads = [rng.standard_normal(p.shape) for p in expect]
            for p, g in zip(params, grads):
                p.grad = g.copy()
            opt.step()
            b1t, b2t = 1.0 - 0.9 ** t, 1.0 - 0.999 ** t
            for i, g in enumerate(grads):
                m[i] = 0.9 * m[i] + (1.0 - 0.9) * g
                v[i] = 0.999 * v[i] + (1.0 - 0.999) * g * g
                expect[i] = expect[i] - 0.01 * (m[i] / b1t) / (np.sqrt(v[i] / b2t) + 1e-8)
            for p, e in zip(params, expect):
                assert np.array_equal(p.values, e)
                assert p.grad is None
