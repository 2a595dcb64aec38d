"""The kernels compute exactly what their primitive compositions
(``unfused.py``) compute: the same output bits and the same bits in every
input gradient, including the features both sequence kernels read."""

import itertools

import numpy as np
import pytest

import pgmatch.attention as attention
import pgmatch.autodiff as ad
import unfused
from pgmatch.attention import (
    PolicyParams,
    RolloutNoise,
    draw_noise,
    fuse,
    neutral_trace,
    policy_rollout,
)
from pgmatch.distributions import ActionSpace
from pgmatch.encoders import GruParams, GruSequence
from pgmatch.losses import DecoderParams, text_decoding_loss


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


MODES = ("stochastic", "deterministic")
ACTION_MODES = ("compound", "discrete", "continuous")
# one block; three blocks of 2, 2 and 1 steps (128 // 48 = 2); a single row;
# the gallery batch, one step per block, so the workspaces serve every block
SHAPES = [(3, 3), (48, 5), (1, 4), (128, 3)]


def setup(batch, length, heads, action_mode, seed=8):
    rng = np.random.default_rng(seed)
    space = ActionSpace(n=5, temperature=0.8)
    params = PolicyParams.init(4, 5, space, rng, heads=heads, scale=0.6)
    features = ad.Tensor(rng.standard_normal((batch, length, 4)), requires_grad=True)
    noise = draw_noise(np.random.default_rng(seed + 1), batch, [length], heads,
                       space.num_labels, action_mode)[0]
    return rng, space, params, features, noise


def logprob_loss(loss, dsum, csum, adv):
    for lp in (dsum, csum):
        if ad.active_tape().is_tracked(lp):
            loss = ad.add(loss, ad.tsum(unfused.mul(lp, adv)))
    return loss


class TestRolloutKernels:
    @pytest.mark.parametrize("mode,action_mode,st_soft_forward,heads",
                             list(itertools.product(MODES, ACTION_MODES, (False, True), (1, 2))))
    def test_rollout_matches_primitive_graph(self, mode, action_mode, st_soft_forward, heads):
        rng, space, params, features, noise = setup(3, 3, heads, action_mode)
        space.st_soft_forward = st_soft_forward
        w_att = rng.standard_normal((3, 3))
        adv = ad.constant(rng.standard_normal(3))
        leaves = [features] + params.tensors()

        trace = policy_rollout(features, params, space, noise, mode, action_mode)
        weighted = unfused.mul(trace.weights, ad.constant(np.pad(w_att, ((0, 0), (0, 2)))))
        fused = [trace.attention.copy(), trace.discrete_logprob_sum.values.copy(),
                 trace.continuous_logprob_sum.values.copy()]
        fused += gradients(logprob_loss(ad.tsum(weighted), trace.discrete_logprob_sum,
                                        trace.continuous_logprob_sum, adv), leaves)

        atts, dsum, csum = unfused.policy_rollout(unfused.steps(features), params, space, noise,
                                                  mode, action_mode)
        loss = ad.tsum(unfused.mul(atts[0], ad.constant(w_att[:, :1])))
        for t, att in enumerate(atts[1:], start=1):
            loss = ad.add(loss, ad.tsum(unfused.mul(att, ad.constant(w_att[:, t:t + 1]))))
        reference = [np.concatenate([a.values for a in atts], axis=1), dsum.values.copy(),
                     csum.values.copy()]
        reference += gradients(logprob_loss(loss, dsum, csum, adv), leaves)
        assert_same_bits(fused, reference)

    def test_unsampled_stage_sums_are_constant_zeros(self):
        _, space, params, features, noise = setup(3, 3, 1, "continuous")
        trace = policy_rollout(features, params, space, noise, action_mode="continuous")
        assert not ad.active_tape().is_tracked(trace.discrete_logprob_sum)
        assert np.array_equal(trace.discrete_logprob_sum.values, np.zeros(3))

    def test_one_record_with_the_features_once_per_gate(self):
        _, space, params, features, noise = setup(2, 3, 2, "compound")
        trace = policy_rollout(features, params, space, noise)
        records = ad.active_tape().records
        assert [r[3] for r in records] == ["policy_rollout", "pick", "reshape", "pick", "reshape"]
        assert records[0][1][:4] == (features,) * 3 + (params.gru.w_xz,)
        assert trace.weights.shape == (2, 3 + 2)

    def test_zero_probability_draw_rejected(self, monkeypatch):
        monkeypatch.setattr(attention, "categorical_sample", lambda p, uniforms: np.array([1]))

        def const(value, *shape):
            return ad.constant(np.full(shape, value))

        # a saturated update gate and b_c = 20 hold the state at exactly 1.0,
        # so the logits are w_mu and label 1 has probability 0
        gru = GruParams(w_xz=const(0, 1, 1), w_hz=const(0, 1, 1), b_z=const(40.0, 1),
                        w_xr=const(0, 1, 1), w_hr=const(0, 1, 1), b_r=const(0, 1),
                        w_xc=const(0, 1, 1), w_hc=const(0, 1, 1), b_c=const(20.0, 1))
        params = PolicyParams(gru=gru, w_mu=[ad.Tensor(np.array([[0.0, -1e4, 0.0]]))],
                              w_std=[ad.Tensor(np.zeros((1, 1)))], fusion_gru=gru)
        noise = RolloutNoise(gumbel=np.zeros((1, 1, 1, 3)), uniform=np.full((1, 1, 1), 0.5),
                             normal=None)
        with pytest.raises(ad.DomainError, match="zero probability"):
            policy_rollout(ad.constant(np.zeros((1, 1, 1))), params, ActionSpace(n=2), noise,
                           action_mode="discrete")


class TestFuseKernel:
    @pytest.mark.parametrize("batch,length", SHAPES)
    @pytest.mark.parametrize("mode,action_mode", [("stochastic", a) for a in ACTION_MODES]
                             + [("deterministic", "compound")])
    @pytest.mark.parametrize("heads", [1, 2])
    def test_rollout_and_fuse_match_primitive_graph(self, batch, length, mode, action_mode,
                                                    heads):
        rng, space, params, features, noise = setup(batch, length, heads, action_mode)
        w_out = ad.constant(rng.standard_normal((batch, 4)))
        adv = ad.constant(rng.standard_normal(batch))
        leaves = [features] + params.tensors()

        trace = policy_rollout(features, params, space, noise, mode, action_mode)
        out = fuse(features, trace, 3.0, params.fusion_gru)
        fused = [out.values.copy(), trace.attention.copy(),
                 trace.discrete_logprob_sum.values.copy(),
                 trace.continuous_logprob_sum.values.copy()]
        fused += gradients(logprob_loss(ad.tsum(unfused.mul(out, w_out)),
                                        trace.discrete_logprob_sum,
                                        trace.continuous_logprob_sum, adv), leaves)

        steps = unfused.steps(features)
        atts, dsum, csum = unfused.policy_rollout(steps, params, space, noise, mode, action_mode)
        out = unfused.fuse(steps, atts, 3.0, params.fusion_gru)
        reference = [out.values.copy(), np.concatenate([a.values for a in atts], axis=1),
                     dsum.values.copy(), csum.values.copy()]
        reference += gradients(logprob_loss(ad.tsum(unfused.mul(out, w_out)), dsum, csum, adv),
                               leaves)
        assert_same_bits(fused, reference)

    @pytest.mark.parametrize("batch,length", SHAPES)
    def test_neutral_trace_matches_primitive_graph(self, batch, length):
        rng = np.random.default_rng(12)
        gru = GruParams.init(4, 4, rng, scale=0.6)
        features = ad.Tensor(rng.standard_normal((batch, length, 4)), requires_grad=True)
        w_out = ad.constant(rng.standard_normal((batch, 4)))
        leaves = [features] + gru.tensors()

        out = fuse(features, neutral_trace(length, 20.0), 20.0, gru)
        fused = [out.values.copy()] + gradients(ad.tsum(unfused.mul(out, w_out)), leaves)
        att = ad.constant(np.full((1, 1), 1.0 / 20.0))
        out = unfused.fuse(unfused.steps(features), [att] * length, 20.0, gru)
        reference = [out.values.copy()] + gradients(ad.tsum(unfused.mul(out, w_out)), leaves)
        assert_same_bits(fused, reference)

    def test_one_record(self):
        _, space, params, features, noise = setup(2, 3, 1, "compound")
        trace = policy_rollout(features, params, space, noise)
        before = len(ad.active_tape().records)
        fuse(features, trace, 2.0, params.fusion_gru)
        records = ad.active_tape().records[before:]
        assert [r[3] for r in records] == ["fuse"]
        assert records[0][1][:2] == (features, trace.weights)


class TestRecordingOff:
    @pytest.mark.parametrize("batch,length", [(48, 5), (128, 3)])
    def test_same_values_and_no_backward_state(self, monkeypatch, batch, length):
        keeps = []

        class Spy(attention.GruSequence):
            def __init__(self, *args):
                super().__init__(*args)
                keeps.append(self.keep)

        monkeypatch.setattr(attention, "GruSequence", Spy)
        _, space, params, features, noise = setup(batch, length, 2, "compound")

        def run():
            trace = policy_rollout(features, params, space, noise)
            out = fuse(features, trace, 3.0, params.fusion_gru)
            return [trace.weights.values.copy(), out.values.copy()]

        recorded = run()
        tape = ad.active_tape()
        ad.clear_tape()
        tape.recording = False
        try:
            unrecorded = run()
        finally:
            tape.recording = True
        assert tape.records == []
        assert keeps == [True, True, False, False]
        assert_same_bits(unrecorded, recorded)

    @pytest.mark.parametrize("batch,length", SHAPES)
    @pytest.mark.parametrize("action_mode", ACTION_MODES)
    @pytest.mark.parametrize("heads", [1, 2])
    def test_deterministic_read_path(self, batch, length, action_mode, heads):
        """The read path ``evaluate`` runs: one record when recording, the
        same bits without it, and zero-constant log-prob sums either way."""
        _, space, params, features, _ = setup(batch, length, heads, action_mode)
        tape = ad.active_tape()

        def run():
            trace = policy_rollout(features, params, space, None, "deterministic", action_mode)
            names = [r[3] for r in tape.records]
            out = fuse(features, trace, 3.0, params.fusion_gru)
            for lp in (trace.discrete_logprob_sum, trace.continuous_logprob_sum):
                assert not tape.is_tracked(lp)
                assert np.array_equal(lp.values, np.zeros(batch))
            assert not np.any(trace.weights.values[:, length:])
            return names, [trace.weights.values.copy(), out.values.copy()]

        names, recorded = run()
        assert names == ["policy_rollout"]
        ad.clear_tape()
        tape.recording = False
        try:
            names, unrecorded = run()
        finally:
            tape.recording = True
        assert names == [] and tape.records == []
        assert_same_bits(unrecorded, recorded)


class TestDecoderKernel:
    """``losses.text_decoding_loss`` (one record) against the 24 primitive
    records of ``unfused.text_decoding_loss``: the loss and the gradients
    of the embeddings and of all nine decoder weights."""

    def setup(self, batch, length):
        rng = np.random.default_rng(14)
        decoder = DecoderParams.init(7, 5, 4, rng, scale=0.6)
        # a vocabulary of 7 over up to 96 targets: ids repeat within and
        # across rows, so several adjoints add into one table row
        targets = rng.integers(0, 7, (batch, length))
        targets[:, -1] = targets[:, 0]
        return rng, decoder, targets

    def both(self, loss_fn, leaves):
        loss = loss_fn()
        return [loss.values.copy()] + gradients(loss, leaves)

    @pytest.mark.parametrize("batch,length", [(1, 1), (1, 2), (3, 6), (16, 6)])
    def test_matches_primitive_graph(self, batch, length):
        rng, decoder, targets = self.setup(batch, length)
        emb = ad.Tensor(rng.standard_normal((batch, 5)), requires_grad=True)
        leaves = [emb] + decoder.tensors()
        fused = self.both(lambda: text_decoding_loss(emb, targets, decoder), leaves)
        reference = self.both(lambda: unfused.text_decoding_loss(emb, targets, decoder), leaves)
        assert len(fused) == 11
        assert_same_bits(fused, reference)

    @pytest.mark.parametrize("batch,length", [(3, 6), (16, 6)])
    def test_two_branches_share_the_decoder_on_one_tape(self, batch, length):
        """As in a train step: the image branch's record, then the text
        branch's, summed, so each decoder weight adds two adjoints."""
        rng, decoder, targets = self.setup(batch, length)
        img = ad.Tensor(rng.standard_normal((batch, 5)), requires_grad=True)
        txt = ad.Tensor(rng.standard_normal((batch, 5)), requires_grad=True)
        leaves = [img, txt] + decoder.tensors()

        def pair(decode):
            return lambda: ad.add(decode(img, targets, decoder), decode(txt, targets, decoder))

        fused = self.both(pair(text_decoding_loss), leaves)
        reference = self.both(pair(unfused.text_decoding_loss), leaves)
        assert_same_bits(fused, reference)

    def test_one_record(self):
        rng, decoder, targets = self.setup(3, 6)
        emb = ad.Tensor(rng.standard_normal((3, 5)), requires_grad=True)
        text_decoding_loss(emb, targets, decoder)
        records = ad.active_tape().records
        assert [r[3] for r in records] == ["text_decode"]
        assert records[0][1] == (emb, *decoder.tensors())
        ad.clear_tape()
        unfused.text_decoding_loss(emb, targets, decoder)
        assert len(ad.active_tape().records) == 24


class TestSigmoid:
    SPECIALS = np.array([0.0, -0.0, 700.0, -700.0, 1e-300, -1e-300, 745.0, -745.0, 37.0,
                         np.inf, -np.inf])

    def inputs(self):
        rng = np.random.default_rng(10)
        return (self.SPECIALS, rng.standard_normal(10_000) * 20, rng.standard_normal((7, 9)))

    def test_bitwise_equal_to_nine_op_form(self):
        for x in self.inputs():
            got, want = ad._sigmoid(x), unfused.sigmoid_nine_ops(x)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_out_path_writes_the_same_bits_in_place(self):
        for x in self.inputs():
            want = unfused.sigmoid_nine_ops(x)
            out, work = np.full(x.shape, np.nan), np.empty(x.shape)
            assert ad._sigmoid(x, out=out, work=work) is out
            assert np.array_equal(out.view(np.uint64), want.view(np.uint64))
            inplace = x.copy()
            assert ad._sigmoid(inplace, out=inplace, work=work) is inplace
            assert np.array_equal(inplace.view(np.uint64), want.view(np.uint64))


class TestGruSequence:
    """``GruSequence`` on its own against a chain of ``unfused.gru_step``
    records, with input and hidden widths that differ either way (the text
    policy GRU reads 32-wide words into a 64-wide state)."""

    @pytest.mark.parametrize("batch,length", [(1, 4), (5, 3), (2, 40), (48, 5), (128, 3)])
    @pytest.mark.parametrize("width,hidden", [(3, 7), (7, 3)])
    def test_states_and_gradients_match_per_step_records(self, batch, length, width, hidden):
        rng = np.random.default_rng(13)
        gru = GruParams.init(width, hidden, rng, scale=0.6)
        x = rng.standard_normal((length, batch, width))
        w_out = rng.standard_normal((length, batch, hidden))

        kept = GruSequence(gru, batch, length, keep=True)
        unkept = GruSequence(gru, batch, length, keep=False)
        states = kept.forward(x).copy()
        unkept_states = unkept.forward(x).copy()
        g_xc, g_xr, g_xz = kept.backward((w_out,))
        fused = [states, unkept_states, (g_xc + g_xr) + g_xz] + kept.grads

        # each state's loss term is recorded before the next step reads the
        # state, as a rollout's heads are
        steps = [ad.Tensor(x[t], requires_grad=True) for t in range(length)]
        h, loss, values = ad.constant(np.zeros((batch, hidden))), None, []
        for t, step in enumerate(steps):
            h = unfused.gru_step(step, h, gru)
            term = ad.tsum(unfused.mul(h, ad.constant(w_out[t])))
            loss = term if loss is None else ad.add(loss, term)
            values.append(h.values)
        values = np.stack(values)
        grads = gradients(loss, steps + gru.tensors())
        reference = [values, values, np.stack(grads[:length])] + grads[length:]
        assert_same_bits(fused, reference)


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

    def test_non_finite_gradient_changes_nothing(self):
        params = [ad.Tensor(np.ones((2, 2)), requires_grad=True),
                  ad.Tensor(np.ones(3), requires_grad=True)]
        opt = ad.Adam(params, lr=0.01)
        params[0].grad = np.ones((2, 2))
        params[1].grad = np.array([1.0, np.inf, 0.0])
        with pytest.raises(ad.NonFiniteGradient) as err:
            opt.step()
        assert err.value.tensor is params[1]
        for p in params:
            assert np.array_equal(p.values, np.ones(p.shape))
        params[1].grad = np.zeros(3)
        opt.step()  # the first update after the refused one is step 1
        assert opt._t == 1 and np.all(params[0].values < 1.0)
