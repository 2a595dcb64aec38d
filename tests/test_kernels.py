"""The kernels compute exactly what their primitive compositions
(``unfused.py``) compute: the same output bits and the same bits in every
input gradient, including the features both sequence kernels read and
the packed rollout output that the fusion and the PG surrogates read."""

import itertools

import numpy as np
import pytest

import pgmatch.attention as attention
import pgmatch.autodiff as ad
import pgmatch.model as model_module
import pgmatch.training as training
import recipe_digests
import unfused
from pgmatch.attention import (
    PolicyParams,
    RolloutNoise,
    draw_noise,
    fuse,
    neutral_trace,
    policy_rollout,
)
from pgmatch.config import PG_MODES
from pgmatch.data import generate_dataset
from pgmatch.distributions import ActionSpace
from pgmatch.encoders import GruParams, GruSequence, gcn
from pgmatch.losses import (
    COMPONENTS,
    DecoderParams,
    continuous_pg_loss,
    discrete_pg_loss,
    instance_loss,
    text_decoding_loss,
    total_loss,
    triplet_loss,
)
from pgmatch.model import MatchingModel


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
# a small batch; a wide batch over more steps; a single row; the 128-row
# gallery batch, as the eval and read paths run the deterministic rollout
SHAPES = [(3, 3), (48, 5), (1, 4), (128, 3)]
# the action space the kernels are built with; the smallest one, at the
# unit temperature a default config trains with
SPACES = [ActionSpace(n=5, temperature=0.8), ActionSpace(n=2)]


def setup(batch, length, heads, action_mode, seed=8, space=SPACES[0]):
    rng = np.random.default_rng(seed)
    params = PolicyParams.init(4, 5, space, rng, heads=heads, scale=0.6)
    features = ad.Tensor(rng.standard_normal((batch, length, 4)), requires_grad=True)
    noise = draw_noise(np.random.default_rng(seed + 1), batch, [length], heads,
                       space.num_labels, action_mode)[0]
    return rng, space, params, features, noise


def sum_columns(trace):
    """Both log-prob sum columns of a kernel rollout's packed output."""
    return [trace.weights.values[:, trace.length + i].copy() for i in (0, 1)]


def with_pg_losses(loss, trace, adv):
    """``loss`` plus both PG surrogates of a kernel rollout; the one of a
    stage the rollout does not sample reads a column its backward ignores."""
    return unfused.add(unfused.add(loss, discrete_pg_loss(trace, adv)),
                       continuous_pg_loss(trace, adv))


def with_oracle_pg_losses(loss, dsum, csum, adv):
    """``loss`` plus the oracle's surrogate of each sum a sampled stage
    tracks (an unsampled stage's sum is a zero constant)."""
    for lp in (dsum, csum):
        if ad.active_tape().is_tracked(lp):
            loss = unfused.add(loss, unfused.pg_surrogate(lp, adv))
    return loss


class TestRolloutKernels:
    @pytest.mark.parametrize("space", SPACES, ids=lambda s: f"n{s.n}-T{s.temperature:g}")
    @pytest.mark.parametrize("mode,action_mode,heads",
                             list(itertools.product(MODES, ACTION_MODES, (1, 2))))
    def test_rollout_matches_primitive_graph(self, mode, action_mode, heads, space):
        rng, space, params, features, noise = setup(3, 3, heads, action_mode, space=space)
        w_att = rng.standard_normal((3, 3))
        adv = rng.standard_normal(3)
        leaves = [features] + params.tensors()

        trace = policy_rollout(features, params, space, noise, mode, action_mode)
        weighted = unfused.mul(trace.weights, ad.constant(np.pad(w_att, ((0, 0), (0, 2)))))
        fused = [trace.attention.copy()] + sum_columns(trace)
        fused += gradients(with_pg_losses(unfused.tsum(weighted), trace, adv), leaves)

        atts, dsum, csum = unfused.policy_rollout(unfused.steps(features), params, space, noise,
                                                  mode, action_mode)
        loss = unfused.tsum(unfused.mul(atts[0], ad.constant(w_att[:, :1])))
        for t, att in enumerate(atts[1:], start=1):
            term = unfused.tsum(unfused.mul(att, ad.constant(w_att[:, t:t + 1])))
            loss = unfused.add(loss, term)
        reference = [np.concatenate([a.values for a in atts], axis=1), dsum.values.copy(),
                     csum.values.copy()]
        reference += gradients(with_oracle_pg_losses(loss, dsum, csum, adv), leaves)
        assert_same_bits(fused, reference)

    def test_unsampled_stage_sum_column_is_zero(self):
        _, space, params, features, noise = setup(3, 3, 1, "continuous")
        trace = policy_rollout(features, params, space, noise, action_mode="continuous")
        assert np.array_equal(trace.weights.values[:, 3], np.zeros(3))

    def test_one_record_with_the_features_once_per_gate(self):
        _, space, params, features, noise = setup(2, 3, 2, "compound")
        trace = policy_rollout(features, params, space, noise)
        records = ad.active_tape().records
        assert [r[3] for r in records] == ["policy_rollout"]
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
        adv = rng.standard_normal(batch)
        leaves = [features] + params.tensors()

        trace = policy_rollout(features, params, space, noise, mode, action_mode)
        out = fuse(features, trace, 3.0, params.fusion_gru)
        fused = [out.values.copy(), trace.attention.copy()] + sum_columns(trace)
        fused += gradients(with_pg_losses(unfused.tsum(unfused.mul(out, w_out)), trace, adv),
                           leaves)

        steps = unfused.steps(features)
        atts, dsum, csum = unfused.policy_rollout(steps, params, space, noise, mode, action_mode)
        out = unfused.fuse(steps, atts, 3.0, params.fusion_gru)
        reference = [out.values.copy(), np.concatenate([a.values for a in atts], axis=1),
                     dsum.values.copy(), csum.values.copy()]
        reference += gradients(with_oracle_pg_losses(unfused.tsum(unfused.mul(out, w_out)),
                                                     dsum, csum, adv), leaves)
        assert_same_bits(fused, reference)

    @pytest.mark.parametrize("batch,length,width",
                             [pytest.param(b, t, 4, id=f"{b}-{t}") for b, t in SHAPES]
                             + [pytest.param(b, t, 1, id=f"{b}-{t}-width1")
                                for b, t in [(3, 3), (48, 5), (48, 9)]])
    def test_neutral_trace_matches_primitive_graph(self, batch, length, width):
        # at width 1 the time axis of the scaled features is the contiguous
        # one, along which numpy's add.reduce sums pairwise
        rng = np.random.default_rng(12)
        gru = GruParams.init(width, width, rng, scale=0.6)
        features = ad.Tensor(rng.standard_normal((batch, length, width)), requires_grad=True)
        w_out = ad.constant(rng.standard_normal((batch, width)))
        leaves = [features] + gru.tensors()

        out = fuse(features, neutral_trace(length, 20.0), 20.0, gru)
        fused = [out.values.copy()] + gradients(unfused.tsum(unfused.mul(out, w_out)), leaves)
        att = ad.constant(np.full((1, 1), 1.0 / 20.0))
        out = unfused.fuse(unfused.steps(features), [att] * length, 20.0, gru)
        reference = [out.values.copy()] + gradients(unfused.tsum(unfused.mul(out, w_out)), leaves)
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
        same bits without it, and log-prob sum columns of zeros either way."""
        _, space, params, features, _ = setup(batch, length, heads, action_mode)
        tape = ad.active_tape()

        def run():
            trace = policy_rollout(features, params, space, None, "deterministic", action_mode)
            names = [r[3] for r in tape.records]
            out = fuse(features, trace, 3.0, params.fusion_gru)
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
            return lambda: unfused.add(decode(img, targets, decoder),
                                       decode(txt, targets, decoder))

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


class TestL2Normalize:
    """``autodiff.l2_normalize`` (one record) against the 5 primitive
    records of ``unfused.l2_normalize``, by bytes, so a zero's sign counts:
    the output and the input gradient, with -0.0 entries in the input and
    in the adjoint, and with an all-zero row, whose norm is sqrt(eps)."""

    @staticmethod
    def run(normalize, x, w):
        """The normalized rows and the input gradient of their dot product
        with ``w``, whose entries are the adjoint the normalization gets."""
        leaf = ad.Tensor(x, requires_grad=True)
        out = normalize(leaf)
        records = [r[3] for r in ad.active_tape().records]
        loss = unfused.tsum(unfused.mul(out, ad.constant(w.reshape(x.shape))))
        (grad,) = gradients(loss, [leaf])
        return records, out.values, grad

    @pytest.mark.parametrize("zero_row", [False, True], ids=["signed-zeros", "zero-row"])
    @pytest.mark.parametrize("shape", [(5,), (1, 64), (16, 64), (32, 64), (2, 3, 4)])
    def test_same_bytes_as_primitive_graph(self, shape, zero_row):
        rng = np.random.default_rng(23)
        x = rng.standard_normal(shape)
        x[rng.random(shape) < 0.2] = -0.0
        if zero_row:
            x.reshape(-1, shape[-1])[0] = np.where(rng.random(shape[-1]) < 0.5, 0.0, -0.0)
        w = rng.standard_normal(x.size)
        w[rng.random(x.size) < 0.2] = -0.0
        records, out, grad = self.run(ad.l2_normalize, x, w)
        want_records, want_out, want_grad = self.run(unfused.l2_normalize, x, w)
        assert records == ["l2_normalize"]
        assert want_records == ["square", "sum", "add", "sqrt", "div"]
        assert out.tobytes() == want_out.tobytes()
        assert grad.tobytes() == want_grad.tobytes()


def scaled_loss_bytes(loss_fn, leaves, adjoint):
    """The record names ``loss_fn`` appends, its output's bytes, and the
    bytes of every leaf's gradient when the output's adjoint is
    ``adjoint`` (an oracle ``scalar_mul`` passes it on exactly)."""
    before = len(ad.active_tape().records)
    out = loss_fn()
    names = [r[3] for r in ad.active_tape().records[before:]]
    grads = gradients(unfused.scalar_mul(out, adjoint), leaves)
    return names, [out.values.tobytes()] + [g.tobytes() for g in grads]


def triplet_gallery(k_total, kind, rng):
    """A (K, K) similarity matrix. ``grid`` takes eighths in [-1, 1], so
    off-diagonal maxima tie; with the margin 0.25 every third row's
    text-side hinge is exactly 0 and the next row's is inactive.
    ``normal`` is a standard-normal draw with one tied maximum. In both,
    some zeros are +0.0 and some -0.0."""
    if kind == "grid":
        sim = rng.integers(-8, 9, (k_total, k_total)) / 8.0
        masked = sim.copy()
        np.fill_diagonal(masked, -np.inf)
        for offset, lift in ((0, 0.25), (1, 0.5)):
            rows = np.arange(offset, k_total, 3)
            sim[rows, rows] = masked[rows].max(axis=1) + lift
    else:
        sim = rng.standard_normal((k_total, k_total))
        sim[rng.random(sim.shape) < 0.1] = 0.0
        sim[0, 1] = sim[0, -1] = np.abs(sim).max() + 1.0
    sim[(sim == 0.0) & (rng.random(sim.shape) < 0.5)] = -0.0
    return sim


class TestLossHeadKernels:
    """The loss head's three records, ``triplet``, ``instance`` and
    ``pg_surrogate``, against the primitive chains of ``unfused.py`` (13,
    6 and 3 records), by bytes: the output and every input gradient."""

    @pytest.mark.parametrize("adjoint", [-1.0, -0.0, 0.75])
    @pytest.mark.parametrize("kind", ["grid", "normal"])
    @pytest.mark.parametrize("k_total", [2, 16, 32])
    def test_triplet_same_bytes_as_primitive_graph(self, k_total, kind, adjoint):
        rng = np.random.default_rng(40 + k_total)
        for _ in range(5):
            sim = ad.Tensor(triplet_gallery(k_total, kind, rng), requires_grad=True)
            names, got = scaled_loss_bytes(lambda: triplet_loss(sim, 0.25), [sim], adjoint)
            want_names, want = scaled_loss_bytes(lambda: unfused.triplet_loss(sim, 0.25), [sim],
                                                 adjoint)
            assert names == ["triplet"] and len(want_names) == 13
            assert got == want

    def test_triplet_gallery_has_ties_and_zero_hinges(self):
        """The grid gallery reaches the cases it is there for."""
        sim = triplet_gallery(16, "grid", np.random.default_rng(56))
        masked = sim.copy()
        np.fill_diagonal(masked, -np.inf)
        assert np.any((masked == masked.max(axis=1, keepdims=True)).sum(axis=1) > 1)
        hinges = 0.25 - np.diag(sim) + masked.max(axis=1)
        assert np.any(hinges == 0.0) and np.any(hinges < 0.0) and np.any(hinges > 0.0)
        assert np.any(np.signbit(sim) & (sim == 0.0)) and np.any(~np.signbit(sim) & (sim == 0.0))

    @pytest.mark.parametrize("adjoint", [1.0, -0.0])
    @pytest.mark.parametrize("batch", [1, 16, 32])
    def test_instance_same_bytes_as_primitive_graph(self, batch, adjoint):
        rng = np.random.default_rng(60 + batch)
        img, txt = (ad.Tensor(rng.standard_normal((batch, 8)), requires_grad=True)
                    for _ in range(2))
        classifier = ad.Tensor(rng.standard_normal((8, 5)), requires_grad=True)
        labels = rng.integers(0, 5, batch)  # five classes: labels repeat from B = 16
        leaves = [img, txt, classifier]
        names, got = scaled_loss_bytes(lambda: instance_loss(img, txt, labels, classifier),
                                       leaves, adjoint)
        want_names, want = scaled_loss_bytes(
            lambda: unfused.instance_loss(img, txt, labels, classifier), leaves, adjoint)
        assert names == ["instance"] and len(want_names) == 6
        assert got == want

    @pytest.mark.parametrize("advantages", ["zero", "mixed"])
    @pytest.mark.parametrize("batch_mean", [True, False])
    @pytest.mark.parametrize("stages", [("discrete",), ("continuous",),
                                        ("discrete", "continuous")])
    def test_pg_surrogate_same_bytes_as_primitive_graph(self, stages, batch_mean, advantages):
        """A compound rollout's packed output, read by the fusion and by
        the surrogates. The oracle picks its sums before the fusion runs,
        as the rollout used to, so the fusion's part of the packed
        output's adjoint came first there and comes last here. Zero
        advantages give -0.0 weights."""
        rng, space, params, features, noise = setup(6, 4, 1, "compound")
        adv = rng.standard_normal(6)
        adv[::2 if advantages == "mixed" else 1] = 0.0
        w_out = ad.constant(rng.standard_normal((6, 4)))
        leaves = [features] + params.tensors()
        columns = {"discrete": 0, "continuous": 1}
        kernels = {"discrete": discrete_pg_loss, "continuous": continuous_pg_loss}

        def loss(pg_terms):
            trace = policy_rollout(features, params, space, noise)
            sums = {stage: unfused.logprob_sum(trace, trace.length + columns[stage])
                    for stage in stages} if pg_terms is None else {}
            out = unfused.tsum(unfused.mul(fuse(features, trace, 3.0, params.fusion_gru), w_out))
            for stage in stages:
                term = (unfused.pg_surrogate(sums[stage], adv, batch_mean) if pg_terms is None
                        else pg_terms[stage](trace, adv, batch_mean))
                out = unfused.add(out, term)
            return out

        names, got = scaled_loss_bytes(lambda: loss(kernels), leaves, -1.0)
        want_names, want = scaled_loss_bytes(lambda: loss(None), leaves, -1.0)
        assert names.count("pg_surrogate") == len(stages) and "pick" not in names
        assert want_names.count("pick") == len(stages)
        assert got == want


class TestGcnKernel:
    """``encoders.gcn`` (one record) against the chain of ``unfused.gcn``
    (4 records plus 5 per layer), by bytes: the output and the gradient of
    every weight, tied or not, for an adjoint with -0.0 entries. Only a
    GCN of two or more layers sends an adjoint from one layer's input to
    the layer before."""

    @staticmethod
    def run(gcn, x, weights, tied, w_out):
        """The record names ``gcn`` appends, and the bytes of its output
        and of each weight's gradient for the adjoint ``w_out``."""
        w_a, w_b, *w_gcn = weights[:1] + weights if tied else weights
        out = gcn(x, w_a, w_b, w_gcn)
        names = [r[3] for r in ad.active_tape().records]
        grads = gradients(unfused.tsum(unfused.mul(out, ad.constant(w_out))), weights)
        return names, [out.values.tobytes()] + [g.tobytes() for g in grads]

    @staticmethod
    def setup(batch, regions, dim, weights):
        rng = np.random.default_rng(70 + batch + weights)
        x = rng.standard_normal((batch, regions, dim))
        x[rng.random(x.shape) < 0.1] = -0.0
        w_out = rng.standard_normal(x.shape)
        w_out[rng.random(x.shape) < 0.2] = -0.0
        return x, [ad.Tensor(0.4 * rng.standard_normal((dim, dim)), requires_grad=True)
                   for _ in range(weights)], w_out

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("tied", [False, True], ids=["untied", "tied"])
    @pytest.mark.parametrize("batch,regions,dim", [(1, 5, 8), (16, 8, 64), (32, 16, 64)])
    def test_same_bytes_as_primitive_graph(self, batch, regions, dim, tied, layers):
        x, weights, w_out = self.setup(batch, regions, dim, 2 - tied + layers)
        names, got = self.run(gcn, x, weights, tied, w_out)
        want_names, want = self.run(unfused.gcn, x, weights, tied, w_out)
        assert names == ["gcn"] and len(want_names) == 4 + 5 * layers
        assert got == want

    @pytest.mark.parametrize("layers", [1, 2])
    def test_recording_off_same_values_and_no_record(self, layers):
        x, weights, _ = self.setup(32, 16, 64, 2 + layers)
        w_a, w_b, *w_gcn = weights
        tape = ad.active_tape()
        want = unfused.gcn(x, w_a, w_b, w_gcn).values
        ad.clear_tape()
        tape.recording = False
        try:
            got = gcn(x, w_a, w_b, w_gcn)
        finally:
            tape.recording = True
        assert tape.records == [] and not tape.is_tracked(got)
        assert got.values.tobytes() == want.tobytes()


class TestTotalKernel:
    """``losses.total_loss``'s ``total`` (one record) against the chain
    of ``add`` records from a zero constant that it replaced, with zero
    constants for the missing terms: the total and every term's gradient,
    by bytes."""

    @pytest.mark.parametrize("adjoint", [-1.5, -0.0])
    @pytest.mark.parametrize("present", [COMPONENTS, COMPONENTS[1::3], COMPONENTS[-1:]],
                             ids=["all", "some", "last"])
    def test_same_bytes_as_add_chain(self, present, adjoint):
        rng = np.random.default_rng(80)
        values = rng.standard_normal(len(present))
        values[0] = -0.0
        terms = {name: ad.Tensor(np.asarray(v), requires_grad=True)
                 for name, v in zip(present, values)}
        names, got = scaled_loss_bytes(lambda: total_loss(**terms).total, list(terms.values()),
                                       adjoint)
        want_names, want = scaled_loss_bytes(lambda: unfused.total_loss(**terms).total,
                                             list(terms.values()), adjoint)
        assert names == ["total"] and set(want_names) == {"add"}
        assert got == want


class TestWholeStepAgainstOracle:
    """One train step's losses and backward with the GCN, loss-head and
    total kernels, and with the model's GCN and ``training``'s loss
    functions replaced by the oracle's chains: byte-identical gradients
    for every parameter."""

    @pytest.mark.parametrize("pg_mode", PG_MODES)
    def test_parameter_gradients_same_bytes(self, monkeypatch, pg_mode):
        _, data_args, config = next(r for r in recipe_digests.recipes() if r[0] == "reference")
        config = config.__class__.from_dict({**config.to_dict(), "pg_mode": pg_mode})
        ds = generate_dataset(**data_args)
        split = ds.split("train")
        model = MatchingModel(config, ds.vocab_size, len(split), np.random.default_rng(0))
        batch = split[:config.batch_size]

        def step():
            ad.clear_tape()
            bundle, _ = training._batch_losses(model, batch, list(range(len(batch))),
                                               np.random.default_rng(1))
            names = [r[3] for r in ad.active_tape().records]
            values = bundle.total.values.tobytes()
            grads = gradients(bundle.total, model.parameters())
            return names, [values] + [g.tobytes() for g in grads]

        names, got = step()
        for name in ("triplet_loss", "instance_loss", "discrete_pg_loss", "continuous_pg_loss",
                     "total_loss"):
            monkeypatch.setattr(training, name, getattr(unfused, name))
        monkeypatch.setattr(model_module, "gcn", unfused.gcn)
        want_names, want = step()
        for kernel in ("triplet", "gcn", "total"):
            assert kernel in names and kernel not in want_names
        assert got == want


class TestScatterRows:
    """The backward of ``gather_rows`` (the word lookup; the decoder's
    table lookup shares its ``_scatter_rows``) is one ``np.bincount``. It
    must give the bytes of ``np.add.at`` into zeros, the sign of a zero
    included: a row whose parts are all -0.0 sums to +0.0."""

    @pytest.mark.parametrize("shape", [(9,), (4, 6), (0,)])
    def test_same_bytes_as_add_at(self, shape):
        rng = np.random.default_rng(21)
        ids = rng.integers(0, 4, shape)  # table rows 4 and 5 take nothing
        g = rng.standard_normal(shape + (3,))
        g[ids == 0] = -0.0
        g[ids == 1, 1] = -0.0
        table = ad.Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        ad.gather_rows(table, ids)
        (got,) = ad.active_tape().records[-1][2](g)
        want = np.zeros((6, 3))
        np.add.at(want, ids, g)
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[got == 0.0]).any()


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

    @staticmethod
    def check(batch, length, width, hidden, adjoint="parts"):
        """States of a kept and an unkept run, the summed input gradient
        and the weight gradients. ``adjoint`` "parts" sends every state a
        per-step part, as a rollout's heads do; "end" sends only the last
        state one, as ``fuse`` does."""
        rng = np.random.default_rng(13)
        gru = GruParams.init(width, hidden, rng, scale=0.6)
        x = rng.standard_normal((length, batch, width))
        w_out = rng.standard_normal((length, batch, hidden))

        kept = GruSequence(gru, batch, length, keep=True)
        unkept = GruSequence(gru, batch, length, keep=False)
        states = kept.forward(x).copy()
        unkept_states = unkept.forward(x).copy()
        if adjoint == "parts":
            g_xc, g_xr, g_xz = kept.backward((w_out,))
        else:
            g_xc, g_xr, g_xz = kept.backward(g_end=w_out[-1])
        fused = [states, unkept_states, (g_xc + g_xr) + g_xz] + kept.grads

        # each state's loss term is recorded before the next step reads the
        # state, as a rollout's heads are
        steps = [ad.Tensor(x[t], requires_grad=True) for t in range(length)]
        h, loss, values = ad.constant(np.zeros((batch, hidden))), None, []
        for t, step in enumerate(steps):
            h = unfused.gru_step(step, h, gru)
            if adjoint == "parts" or t == length - 1:
                term = unfused.tsum(unfused.mul(h, ad.constant(w_out[t])))
                loss = term if loss is None else unfused.add(loss, term)
            values.append(h.values)
        values = np.stack(values)
        grads = gradients(loss, steps + gru.tensors())
        reference = [values, values, np.stack(grads[:length])] + grads[length:]
        assert_same_bits(fused, reference)

    @pytest.mark.parametrize("batch,length", [(1, 4), (5, 3), (2, 40), (48, 5), (128, 3)])
    @pytest.mark.parametrize("width,hidden", [(3, 7), (7, 3)])
    def test_states_and_gradients_match_per_step_records(self, batch, length, width, hidden):
        self.check(batch, length, width, hidden)

    @pytest.mark.parametrize("adjoint", ["parts", "end"])
    @pytest.mark.parametrize("batch", [1, 16, 32, 128])
    @pytest.mark.parametrize("width,hidden", [(64, 64), (32, 64), (32, 32), (7, 5), (64, 30),
                                              (32, 63)])
    def test_stacked_state_products_at_model_widths(self, batch, width, hidden, adjoint):
        """The model's GRU widths, and hidden widths at which one GEMM over
        the concatenated ``[W_hz | W_hr]`` changes the last bit: the
        stacked z|r state products of both directions keep every bit."""
        self.check(batch, 3, width, hidden, adjoint)


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
