import math

import numpy as np
import pytest

import pgmatch.autodiff as ad
from pgmatch.attention import AttentionTrace, neutral_trace
from pgmatch.losses import (
    DecoderParams,
    continuous_pg_loss,
    discrete_pg_loss,
    instance_loss,
    text_decoding_loss,
    total_loss,
    triplet_loss,
)
from unfused import add, concat, discrete_logprob, mul, normal_logprob, reshape, softmax, tsum


def make_trace(dsum, csum):
    """A trace of zero steps whose packed output is the two (B,) sums, as
    the columns the PG losses read."""
    batch = dsum.shape[0]
    return AttentionTrace(weights=concat([reshape(dsum, (batch, 1)), reshape(csum, (batch, 1))]),
                          length=0)


def sums(*values):
    return ad.constant(np.array(values, dtype=np.float64))


def logprobs(logits_tensor, indices):
    """One episode per index: the log-prob of drawing it from softmax(logits)."""
    n = len(indices)
    probs = mul(softmax(logits_tensor, axis=-1), ad.constant(np.ones((n, 1))))
    return reshape(discrete_logprob(probs, np.array(indices)), (n,))


def logprob_trace(logits_tensor, indices):
    return make_trace(logprobs(logits_tensor, indices), ad.constant(np.zeros(len(indices))))


class TestDiscretePgLoss:
    def test_zero_advantages_zero_loss_and_grads(self):
        logits = ad.Tensor(np.array([0.3, -0.4, 0.2]), requires_grad=True)
        loss = discrete_pg_loss(logprob_trace(logits, [0, 2]), [0.0, 0.0])
        assert loss.item() == 0.0
        ad.backward(loss)
        np.testing.assert_array_equal(logits.grad, np.zeros(3))

    def test_single_trace_value(self):
        dsum = sums(-2.0)
        loss = discrete_pg_loss(make_trace(dsum, dsum), [1.0])
        assert loss.item() == 2.0

    def test_batch_mean_toggle(self):
        dsum = sums(-3.0, -3.0, -3.0, -3.0)
        trace = make_trace(dsum, dsum)
        advs = [1.0] * 4
        assert discrete_pg_loss(trace, advs, batch_mean=True).item() == 3.0
        assert discrete_pg_loss(trace, advs, batch_mean=False).item() == 12.0

    def test_gradient_is_advantage_times_logprob_grad(self):
        adv = -1.7
        logits = ad.Tensor(np.array([0.1, 0.5, -0.2]), requires_grad=True)
        loss = discrete_pg_loss(logprob_trace(logits, [1]), [adv])
        ad.backward(loss)
        got = logits.grad.copy()

        ad.clear_tape()
        logits.grad = None
        ad.backward(tsum(logprobs(logits, [1])))
        np.testing.assert_allclose(got, -adv * logits.grad, rtol=1e-12)

    def test_finite_difference_check(self):
        logits = ad.Tensor(np.array([0.1, 0.5, -0.2]))

        def f(lg):
            return discrete_pg_loss(logprob_trace(lg, [1, 0]), [0.7, -0.3])

        assert ad.grad_check(f, [logits]) < 1e-4

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="vs"):
            discrete_pg_loss(make_trace(sums(), sums()), [1.0])

    def test_one_record_reading_its_column(self):
        """Each surrogate is one record on the packed output, and its
        gradient is minus the scaled advantages in its own column only."""
        packed = ad.Tensor(np.arange(8.0).reshape(2, 4), requires_grad=True)
        trace = AttentionTrace(weights=packed, length=2)
        loss = add(discrete_pg_loss(trace, [1.0, 2.0]),
                   continuous_pg_loss(trace, [3.0, -1.0], batch_mean=False))
        assert [r[3] for r in ad.active_tape().records] == ["pg_surrogate", "pg_surrogate", "add"]
        assert loss.item() == -(2.0 + 2.0 * 6.0) / 2 - (3.0 * 3.0 - 7.0)
        ad.backward(loss)
        np.testing.assert_array_equal(packed.grad, [[0.0, 0.0, -0.5, -3.0], [0.0, 0.0, -1.0, 1.0]])

    def test_neutral_trace_has_no_sums_to_read(self):
        with pytest.raises(ValueError, match="vs"):
            discrete_pg_loss(neutral_trace(3, 20.0), [1.0])


class TestContinuousPgLoss:
    def test_zero_advantages(self):
        csum = sums(-1.1)
        assert continuous_pg_loss(make_trace(csum, csum), [0.0]).item() == 0.0

    def test_closed_form_at_mean(self):
        # each step's density at the mean with sigma=1 is -log(2*pi)/2
        steps = 4
        adv = 0.8
        csum = sums(0.0)
        for _ in range(steps):
            csum = add(csum, normal_logprob(0.3, 0.3, 1.0))
        loss = continuous_pg_loss(make_trace(csum, csum), [adv])
        np.testing.assert_allclose(loss.item(), adv * steps * 0.5 * math.log(2 * math.pi),
                                   rtol=1e-12)
        assert abs(loss.item() - adv * steps * 0.9189) < 1e-3

    def test_sigma_gradient_sign_flips_with_advantage(self):
        x = 0.4
        for adv, expected_sign in ((1.0, 1.0), (-1.0, -1.0)):
            ad.clear_tape()
            sigma = ad.Tensor(np.asarray(0.7), requires_grad=True)
            sigma.grad = None
            lp = reshape(normal_logprob(ad.constant(np.asarray(x)),
                                        ad.constant(np.asarray(0.1)), sigma), (1,))
            loss = continuous_pg_loss(make_trace(lp, lp), [adv])
            ad.backward(loss)
            # |x - mu| = 0.3 < sigma: density falls as sigma grows, so the
            # loss gradient carries the advantage's sign
            assert np.sign(float(sigma.grad)) == expected_sign


class TestTripletLoss:
    def test_satisfied_margin(self):
        sim = np.full((4, 4), 0.1)
        np.fill_diagonal(sim, 0.9)
        assert triplet_loss(ad.Tensor(sim), margin=0.2).item() == 0.0

    def test_hinge_arithmetic(self):
        sim = np.full((3, 3), 0.5)
        loss = triplet_loss(ad.Tensor(sim), margin=0.2)
        np.testing.assert_allclose(loss.item(), 0.4, rtol=1e-12)

    def test_gradient_sparsity(self):
        rng = np.random.default_rng(0)
        sim = ad.Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        loss = triplet_loss(sim, margin=5.0)  # large margin keeps every hinge active
        ad.backward(loss)
        grad = sim.grad
        masked = sim.values.copy()
        np.fill_diagonal(masked, -np.inf)
        allowed = set()
        for k in range(4):
            allowed.add((k, k))
            allowed.add((k, int(masked[k].argmax())))
            allowed.add((int(masked[:, k].argmax()), k))
        for i in range(4):
            for j in range(4):
                if (i, j) not in allowed:
                    assert grad[i, j] == 0.0
        assert any(grad[i, j] != 0.0 for (i, j) in allowed)

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(1)
        sim = rng.standard_normal((5, 5))
        a = triplet_loss(ad.Tensor(sim), margin=0.2).item()
        b = triplet_loss(ad.Tensor(sim + 3.7), margin=0.2).item()
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_small_gallery_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            triplet_loss(ad.Tensor(np.array([[1.0]])), margin=0.2)


class TestInstanceLoss:
    def test_uniform_logits(self):
        classes = 7
        embs = ad.Tensor(np.random.default_rng(0).standard_normal((1, 4)))
        zero_cls = ad.Tensor(np.zeros((4, classes)))
        loss = instance_loss(embs, embs, [3], zero_cls)
        np.testing.assert_allclose(loss.item(), math.log(classes), rtol=1e-12)

    def test_confident_correct_goes_to_zero(self):
        emb = ad.Tensor(np.array([[1.0]]))
        cls = ad.Tensor(np.array([[40.0, 0.0, 0.0]]))
        assert instance_loss(emb, emb, [0], cls).item() < 1e-12

    def test_matches_naive_softmax_ce(self):
        """Both branches' rows, each against its instance's label."""
        rng = np.random.default_rng(2)
        img = ad.Tensor(rng.standard_normal((3, 4)))
        txt = ad.Tensor(rng.standard_normal((3, 4)))
        cls = ad.Tensor(rng.standard_normal((4, 8)))
        labels = [1, 5, 0]
        loss = instance_loss(img, txt, labels, cls)
        expect = 0.0
        for emb, label in zip(np.concatenate([img.values, txt.values]), labels * 2):
            logits = emb @ cls.values
            p = np.exp(logits - logits.max())
            p /= p.sum()
            expect -= math.log(p[label])
        np.testing.assert_allclose(loss.item(), expect / 6, atol=1e-12)

    def test_label_out_of_range(self):
        emb = ad.Tensor(np.zeros((1, 4)))
        cls = ad.Tensor(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="label 3"):
            instance_loss(emb, emb, [3], cls)

    def test_branch_shapes_must_match_the_labels(self):
        cls = ad.Tensor(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="vs 2 labels"):
            instance_loss(ad.Tensor(np.zeros((2, 4))), ad.Tensor(np.zeros((3, 4))), [0, 1], cls)
        with pytest.raises(ValueError, match="vs 1 labels"):
            instance_loss(ad.Tensor(np.zeros((2, 4))), ad.Tensor(np.zeros((2, 4))), [0], cls)


class TestTextDecodingLoss:
    def test_zeroed_output_layer_gives_uniform(self):
        rng = np.random.default_rng(3)
        vocab = 11
        dec = DecoderParams.init(vocab, embed_dim=5, channels=4, rng=rng)
        dec.out_w.values[:] = 0.0
        dec.out_b.values[:] = 0.0
        emb = ad.Tensor(rng.standard_normal((2, 5)))
        loss = text_decoding_loss(emb, np.array([[1, 4, 7], [0, 10, 2]]), dec)
        np.testing.assert_allclose(loss.item(), math.log(vocab), rtol=1e-12)

    def test_shared_weights_across_branches(self):
        rng = np.random.default_rng(4)
        dec = DecoderParams.init(9, embed_dim=5, channels=4, rng=rng)
        emb = ad.Tensor(rng.standard_normal((1, 5)))
        target = np.array([[2, 5, 1]])
        a = text_decoding_loss(emb, target, dec).item()
        b = text_decoding_loss(emb, target, dec).item()
        assert a == b

    def test_memorizes_single_target(self):
        rng = np.random.default_rng(5)
        dec = DecoderParams.init(8, embed_dim=4, channels=6, rng=rng)
        emb = ad.constant(rng.standard_normal((1, 4)))
        target = np.array([[3, 1, 6]])
        opt = ad.Adam(dec.tensors(), lr=0.02)
        loss_val = None
        for _ in range(500):
            ad.clear_tape()
            loss = text_decoding_loss(emb, target, dec)
            loss_val = loss.item()
            if loss_val < 0.1:
                break
            ad.backward(loss)
            opt.step()
        assert loss_val < 0.1

    def test_empty_target(self):
        rng = np.random.default_rng(6)
        dec = DecoderParams.init(5, embed_dim=3, channels=4, rng=rng)
        with pytest.raises(ValueError, match="empty"):
            text_decoding_loss(ad.Tensor(np.zeros((1, 3))), np.zeros((1, 0), dtype=np.int64), dec)

    def test_gradient_reaches_conditioning_embedding(self):
        rng = np.random.default_rng(7)
        dec = DecoderParams.init(6, embed_dim=4, channels=4, rng=rng)
        emb = ad.Tensor(rng.standard_normal((1, 4)), requires_grad=True)
        loss = text_decoding_loss(emb, np.array([[1, 3]]), dec)
        ad.backward(loss)
        assert emb.grad is not None and np.any(emb.grad != 0.0)


    def test_batch_is_mean_of_single_instances(self):
        rng = np.random.default_rng(9)
        dec = DecoderParams.init(7, embed_dim=4, channels=3, rng=rng)
        embs = rng.standard_normal((3, 4))
        targets = np.array([[1, 3, 6, 0], [2, 2, 5, 1], [6, 0, 0, 4]])
        batch = text_decoding_loss(ad.Tensor(embs), targets, dec).item()
        singles = [text_decoding_loss(ad.Tensor(embs[b:b + 1]), targets[b:b + 1], dec).item()
                   for b in range(3)]
        np.testing.assert_allclose(batch, np.mean(singles), rtol=1e-13)


class TestTotalLoss:
    def test_all_zero(self):
        bundle = total_loss()
        assert bundle.total.item() == 0.0
        for name in bundle.COMPONENTS:
            assert getattr(bundle, name).item() == 0.0

    def test_total_equals_component_sum(self):
        rng = np.random.default_rng(8)
        parts = {name: ad.constant(np.asarray(rng.standard_normal()))
                 for name in ("triplet", "instance", "pg_discrete_image")}
        bundle = total_loss(**parts)
        expect = sum(t.item() for t in parts.values())
        np.testing.assert_allclose(bundle.total.item(), expect, rtol=1e-12)
        floats = bundle.as_floats()
        np.testing.assert_allclose(floats["total"],
                                   sum(floats[n] for n in bundle.COMPONENTS), rtol=1e-12)

    def test_disabled_terms_are_exact_zeros(self):
        bundle = total_loss(triplet=ad.constant(np.asarray(1.5)))
        assert bundle.pg_discrete_image.item() == 0.0
        assert bundle.text_decode_text.item() == 0.0
        assert bundle.total.item() == 1.5
