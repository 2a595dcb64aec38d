import numpy as np
import pytest

import pgmatch.autodiff as ad
from pgmatch.attention import fuse, neutral_trace
from pgmatch.encoders import GruParams, GruSequence, embed_words, gcn, region_batch
from unfused import square, tsum


def zero_gru(p, q):
    z = lambda *shape: ad.Tensor(np.zeros(shape))
    return GruParams(w_xz=z(p, q), w_hz=z(q, q), b_z=z(q),
                     w_xr=z(p, q), w_hr=z(q, q), b_r=z(q),
                     w_xc=z(p, q), w_hc=z(q, q), b_c=z(q))


class TestRegionTypes:
    def test_region_set_validation(self):
        with pytest.raises(ValueError):
            region_batch(np.zeros(4))
        with pytest.raises(ValueError):
            region_batch(np.array([[1.0, np.inf]]))
        with pytest.raises(ValueError):
            region_batch(np.zeros((2, 0, 5)))
        assert region_batch(np.ones((3, 5))).shape == (1, 3, 5)
        assert region_batch(np.ones((2, 3, 5))).shape == (2, 3, 5)

    def test_token_seq_validation(self):
        table = ad.Tensor(np.arange(12.0).reshape(4, 3))
        with pytest.raises(ValueError):
            embed_words(np.array([], dtype=np.int64), table)
        with pytest.raises(ValueError):
            embed_words(np.zeros((2, 2, 2), dtype=np.int64), table)
        out = embed_words(np.array([1, 2, 1]), table)
        assert out.shape == (3, 3)
        np.testing.assert_array_equal(out.values, table.values[[1, 2, 1]])


def dense_gcn(x, w_a, w_b, w_gcn):
    """The region GCN in plain numpy."""
    rel = (x @ w_a) @ np.swapaxes(x @ w_b, -1, -2)
    e = np.exp(rel - rel.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)
    for w in w_gcn:
        x = x + np.maximum(0.0, s @ x @ w)
    return x


def run_gcn(x, w_a, w_b, w_gcn):
    return gcn(x, ad.Tensor(w_a), ad.Tensor(w_b), [ad.Tensor(w) for w in w_gcn]).values


class TestGcn:
    def test_zero_graph_weight_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 4, 5))
        w_a, w_b = rng.standard_normal((2, 5, 5))
        np.testing.assert_array_equal(run_gcn(x, w_a, w_b, [np.zeros((5, 5))]), x)

    def test_single_region(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 1, 5))
        w_a, w_b, w_g = rng.standard_normal((3, 5, 5))
        expect = x + np.maximum(0.0, x @ w_g)  # row-softmax of a single entry is [1]
        np.testing.assert_allclose(run_gcn(x, w_a, w_b, [w_g]), expect, atol=1e-12)

    @pytest.mark.parametrize("layers", [1, 2])
    @pytest.mark.parametrize("tied", [False, True])
    def test_matches_dense_oracle(self, layers, tied):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 5, 6))
        w_a, w_b, *w_gcn = 0.5 * rng.standard_normal((2 + layers, 6, 6))
        w_b = w_a if tied else w_b
        np.testing.assert_allclose(run_gcn(x, w_a, w_b, w_gcn), dense_gcn(x, w_a, w_b, w_gcn),
                                   atol=1e-12)

    def test_batch_matches_each_instance(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 4, 5))
        weights = rng.standard_normal((4, 5, 5))
        batched = run_gcn(x, weights[0], weights[1], weights[2:])
        for b in range(3):
            expect = run_gcn(x[b:b + 1], weights[0], weights[1], weights[2:])
            np.testing.assert_allclose(batched[b:b + 1], expect, rtol=1e-13, atol=1e-13)

    def test_one_record_with_weight_gradients_only(self):
        """The regions are a constant: the record lists the weights alone,
        ``w_b`` first."""
        rng = np.random.default_rng(6)
        w_a, w_b, w_g = (ad.Tensor(rng.standard_normal((3, 3)), requires_grad=True)
                         for _ in range(3))
        out = gcn(rng.standard_normal((2, 7, 3)), w_a, w_b, [w_g])
        assert out.shape == (2, 7, 3)
        records = ad.active_tape().records
        assert [r[3] for r in records] == ["gcn"] and records[0][1] == (w_b, w_a, w_g)
        ad.backward(tsum(square(out)))
        assert all(w.grad.shape == (3, 3) for w in (w_a, w_b, w_g))


class TestEmbedWords:
    def test_one_hot_table(self):
        table = ad.Tensor(np.eye(5))
        out = embed_words(np.array([3, 0, 3]), table)
        np.testing.assert_array_equal(out.values, np.eye(5)[[3, 0, 3]])

    def test_repeated_id_identical_rows(self):
        rng = np.random.default_rng(7)
        table = ad.Tensor(rng.standard_normal((6, 4)))
        out = embed_words(np.array([2, 2, 2]), table).values
        assert np.array_equal(out[0], out[1]) and np.array_equal(out[1], out[2])

    def test_gradient_accumulates_into_used_rows(self):
        table = ad.Tensor(np.zeros((5, 3)), requires_grad=True)
        out = embed_words(np.array([1, 1, 4]), table)
        ad.backward(tsum(out))
        expect = np.zeros((5, 3))
        expect[1] = 2.0
        expect[4] = 1.0
        np.testing.assert_array_equal(table.grad, expect)

    def test_batch_of_sequences(self):
        table = ad.Tensor(np.eye(5))
        ids = np.array([[3, 0], [1, 1]])
        np.testing.assert_array_equal(embed_words(ids, table).values, np.eye(5)[ids])

    def test_out_of_vocab(self):
        table = ad.Tensor(np.zeros((5, 3)))
        with pytest.raises(IndexError):
            embed_words(np.array([5]), table)


def gru_states(params, x):
    """The states of a GRU run over the (T, B, p) input x from a zero state."""
    run = GruSequence(params, x.shape[1], x.shape[0], keep=False)
    return run.forward(x)


class TestGruStep:
    """The GRU update h' = (1 - z) h + z c, as ``GruSequence`` rolls it."""

    def test_zero_params_halve_hidden(self):
        # zero weights open every gate halfway: each step halves the gap
        # between the state and the candidate tanh(b_c)
        params = zero_gru(3, 4)
        params.b_c = ad.Tensor(np.array([0.4, -0.2, 0.8, 0.0]))
        states = gru_states(params, np.ones((3, 1, 3)))
        for t, h in enumerate(states, start=1):
            np.testing.assert_allclose(h[0], (1 - 0.5 ** t) * np.tanh(params.b_c.values),
                                       atol=1e-15)

    def test_copy_gate_limit(self):
        rng = np.random.default_rng(7)
        params = GruParams.init(3, 4, rng, scale=0.8)
        params.b_z = ad.Tensor(np.full(4, -40.0))  # z -> 0 keeps the old (zero) state
        states = gru_states(params, rng.standard_normal((4, 2, 3)))
        np.testing.assert_allclose(states, 0.0, atol=1e-12)

    def test_bounded_output(self):
        # candidate is tanh-bounded, so the state stays inside (-1, 1)
        rng = np.random.default_rng(8)
        params = GruParams.init(5, 6, rng, scale=0.8)
        states = gru_states(params, 3.0 * rng.standard_normal((10, 2, 5)))
        assert np.all(np.abs(states) < 1.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        params = GruParams.init(3, 3, rng)
        x = ad.Tensor(rng.standard_normal((2, 3, 3)))

        def loss(f, *weights):
            return tsum(square(fuse(f, neutral_trace(3, 1.0), 1.0, params)))

        assert ad.grad_check(loss, [x] + params.tensors()) < 1e-4

    def test_rows_update_independently(self):
        rng = np.random.default_rng(10)
        params = GruParams.init(3, 4, rng, scale=0.5)
        x = rng.standard_normal((6, 5, 3))
        batched = gru_states(params, x)
        for b in range(5):
            single = gru_states(params, x[:, b:b + 1])
            np.testing.assert_allclose(batched[:, b:b + 1], single, rtol=1e-13, atol=1e-13)

    def test_shape_validation(self):
        params = zero_gru(3, 4)
        with pytest.raises(ad.ShapeError, match="width 5"):
            fuse(ad.Tensor(np.zeros((2, 3, 5))), neutral_trace(3, 1.0), 1.0, params)
        with pytest.raises(ad.ShapeError, match=r"\(B, T, d\)"):
            fuse(ad.Tensor(np.zeros((3, 3))), neutral_trace(3, 1.0), 1.0, params)

