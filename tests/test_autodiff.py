import numpy as np
import pytest

import pgmatch.autodiff as ad
from pgmatch.verify import GRAD_EPS, GRAD_TOL
from unfused import (
    add,
    concat,
    div,
    dot,
    gcn_reason,
    log,
    log_softmax,
    mul,
    pick,
    region_affinity,
    relu,
    reshape,
    scalar_mul,
    shift,
    sigmoid,
    softmax,
    sqrt,
    square,
    sub,
    tanh,
    tsum,
)


class TestForwardOps:
    def test_sigmoid_symmetry_point(self):
        out = sigmoid(ad.Tensor([0.0]))
        np.testing.assert_allclose(out.values, [0.5])

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((3, 3))
        out = ad.matmul(ad.Tensor(np.eye(3)), ad.Tensor(x))
        np.testing.assert_array_equal(out.values, x)

    def test_softmax_uniform_logits(self):
        out = softmax(ad.Tensor([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(out.values, [1 / 3] * 3)

    def test_softmax_simplex_property(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = ad.Tensor(rng.standard_normal((4, 6)) * rng.uniform(0.1, 50))
            s = softmax(x, axis=1).values
            assert np.all(s >= 0)
            np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)

    def test_shape_mismatch_names_op_and_shapes(self):
        with pytest.raises(ad.ShapeError, match=r"add.*\(3,\).*\(4,\)"):
            add(ad.Tensor(np.zeros(3)), ad.Tensor(np.zeros(4)))
        with pytest.raises(ad.ShapeError, match="matmul"):
            ad.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 2))))

    def test_matmul_of_a_vector_with_a_matrix_rejected(self):
        """A vector goes only with a vector (a dot product); a vector with
        a matrix, either way round, is not promoted."""
        v, m = ad.Tensor(np.ones(3)), ad.Tensor(np.ones((3, 3)))
        for a, b in ((v, m), (m, v), (v, ad.Tensor(np.ones((2, 3, 3))))):
            with pytest.raises(ad.ShapeError, match="matmul"):
                ad.matmul(a, b)

    def test_matmul_of_two_vectors_rejected(self):
        """The engine has no dot product: every operand has rank 2 or more."""
        v = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ad.ShapeError, match="matmul"):
            ad.matmul(v, v)
        assert ad.active_tape().records == []

    def test_finite_on_finite_inputs(self):
        rng = np.random.default_rng(2)
        x = ad.Tensor(rng.standard_normal((5, 5)) * 30)
        for op in (sigmoid, tanh, relu, square):
            assert np.all(np.isfinite(op(x).values)), op.__name__
        assert np.all(np.isfinite(softmax(x, axis=1).values))

    def test_constants_stay_off_tape(self):
        before = len(ad.active_tape().records)
        ad.matmul(ad.constant([[1.0]]), ad.constant([[2.0]]))
        assert len(ad.active_tape().records) == before


class TestBackward:
    def test_linear_sum(self):
        x = ad.Tensor([1.0, 2.0, 3.0, 4.0], requires_grad=True)
        ad.backward(tsum(x))
        np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0, 1.0])

    def test_quadratic(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        ad.backward(tsum(mul(x, x)))
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        a = ad.Tensor(rng.standard_normal((4, 3)))
        b = ad.Tensor(rng.standard_normal((3, 4)))

        def f(p, q):
            return tsum(tanh(ad.matmul(sigmoid(ad.matmul(p, q)), p)))

        assert ad.grad_check(f, [a, b], eps=1e-5) < 1e-4

    def test_gradient_linearity(self):
        rng = np.random.default_rng(4)
        vals = rng.standard_normal(5)
        x = ad.Tensor(vals, requires_grad=True)
        ad.backward(add(tsum(square(x)), scalar_mul(tsum(sigmoid(x)), 0.2)))
        combined = x.grad.copy()

        ad.clear_tape()
        x.grad = None
        ad.backward(tsum(square(x)))
        ad.backward(scalar_mul(tsum(sigmoid(x)), 0.2))
        np.testing.assert_allclose(x.grad, combined, atol=1e-15)

    def test_non_scalar_loss_rejected(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ad.ShapeError):
            ad.backward(mul(x, x))

    def test_stale_tape_rejected(self):
        x = ad.Tensor([1.0], requires_grad=True)
        loss = tsum(x)
        ad.clear_tape()
        with pytest.raises(ad.TapeError, match="stale"):
            ad.backward(loss)

    def test_double_backward_rejected(self):
        x = ad.Tensor([1.0], requires_grad=True)
        loss = tsum(square(x))
        ad.backward(loss)
        with pytest.raises(ad.TapeError, match="twice"):
            ad.backward(loss)

    def test_backward_consumes_the_tape(self):
        """After backward the tape holds no records and the leaf has its
        gradient; a second backward over the same graph raises before
        writing any gradient."""
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        loss = tsum(sigmoid(square(x)))
        ad.backward(loss)
        assert ad.active_tape().records == []
        grad = x.grad.copy()
        s = 1.0 / (1.0 + np.exp(-x.values ** 2))
        np.testing.assert_allclose(grad, 2.0 * x.values * s * (1.0 - s), rtol=1e-12)
        with pytest.raises(ad.TapeError, match="consumed"):
            ad.backward(loss)
        np.testing.assert_array_equal(x.grad, grad)

    def test_backward_reaching_a_consumed_record_raises(self):
        """A graph built on an output of a consumed record cannot send its
        gradient through that record, so backward raises before writing
        any gradient."""
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        y = square(x)
        ad.backward(tsum(y))
        grad = x.grad.copy()
        with pytest.raises(ad.TapeError, match="consumed"):
            ad.backward(tsum(scalar_mul(y, 2.0)))
        np.testing.assert_array_equal(x.grad, grad)

    def test_repeated_seeded_run_bit_identical(self):
        def run():
            ad.clear_tape()
            rng = np.random.default_rng(42)
            x = ad.Tensor(rng.standard_normal((6, 6)), requires_grad=True)
            y = ad.Tensor(rng.standard_normal((6, 6)))
            loss = tsum(sigmoid(ad.matmul(x, y)))
            ad.backward(loss)
            return loss.item(), x.grad.copy()

        v1, g1 = run()
        v2, g2 = run()
        assert v1 == v2
        np.testing.assert_array_equal(g1, g2)


class TestBatchOps:
    def test_broadcast_gradients_sum_over_stretched_axes(self):
        rng = np.random.default_rng(6)
        x = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        row = ad.Tensor(rng.standard_normal(4), requires_grad=True)
        col = ad.Tensor(rng.standard_normal((3, 1)), requires_grad=True)
        ad.backward(tsum(mul(add(x, row), col)))
        np.testing.assert_allclose(row.grad, np.full(4, col.values.sum()), rtol=1e-12)
        np.testing.assert_allclose(col.grad, (x.values + row.values).sum(axis=1, keepdims=True),
                                   rtol=1e-12)
        np.testing.assert_allclose(x.grad, np.broadcast_to(col.values, (3, 4)), rtol=1e-12)

    def test_non_broadcastable_shapes_rejected(self):
        with pytest.raises(ad.ShapeError, match=r"mul.*\(3, 4\).*\(3,\)"):
            mul(ad.Tensor(np.zeros((3, 4))), ad.Tensor(np.zeros(3)))

    def test_matmul_batched_matches_per_instance(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((3, 2, 4))
        w = rng.standard_normal((4, 5))
        b = rng.standard_normal((3, 4, 2))
        shared = ad.matmul(ad.Tensor(a), ad.Tensor(w)).values
        stacked = ad.matmul(ad.Tensor(a), ad.Tensor(b)).values
        for i in range(3):
            np.testing.assert_allclose(shared[i], a[i] @ w, rtol=1e-13)
            np.testing.assert_allclose(stacked[i], a[i] @ b[i], rtol=1e-13)

    def test_shared_weight_gradient_sums_over_batch(self):
        rng = np.random.default_rng(8)
        a = ad.Tensor(rng.standard_normal((3, 2, 4)))
        w = ad.Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        ad.backward(tsum(ad.matmul(a, w)))
        expect = sum(a.values[i].T @ np.ones((2, 5)) for i in range(3))
        np.testing.assert_allclose(w.grad, expect, rtol=1e-12)

    def test_pick_by_index_vector(self):
        m = ad.Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        out = pick(m, [[1], [3], [0]])
        np.testing.assert_array_equal(out.values, [[1.0], [7.0], [8.0]])
        ad.backward(tsum(out))
        expect = np.zeros((3, 4))
        expect[[0, 1, 2], [1, 3, 0]] = 1.0
        np.testing.assert_array_equal(m.grad, expect)
        with pytest.raises(ad.ShapeError):
            pick(m, [1, 3, 0])
        with pytest.raises(IndexError):
            pick(m, [[1], [4], [0]])

    def test_sum_along_axis(self):
        x = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        np.testing.assert_array_equal(tsum(x, axis=0).values, [3.0, 5.0, 7.0])
        np.testing.assert_array_equal(tsum(x, axis=-1, keepdims=True).values, [[3.0], [12.0]])
        ad.backward(tsum(mul(tsum(x, axis=1), ad.constant([1.0, 2.0]))))
        np.testing.assert_array_equal(x.grad, [[1.0] * 3, [2.0] * 3])

    def test_shift_and_concat(self):
        seq = np.arange(12.0).reshape(1, 4, 3)
        x = ad.Tensor(seq)
        shifted = shift(x, 1).values
        np.testing.assert_array_equal(shifted[:, 0], 0.0)
        np.testing.assert_array_equal(shifted[:, 1:], seq[:, :3])
        window = concat([shift(x, 1), x], axis=-1)
        assert window.shape == (1, 4, 6)
        with pytest.raises(ad.ShapeError, match="concat"):
            concat([x, ad.Tensor(np.zeros((1, 3, 3)))], axis=-1)

    def test_row_wise_l2_normalize(self):
        rng = np.random.default_rng(9)
        v = rng.standard_normal((4, 5))
        out = ad.l2_normalize(ad.Tensor(v)).values
        np.testing.assert_allclose(out, v / np.linalg.norm(v, axis=1, keepdims=True), rtol=1e-12)


def oracle_op_cases():
    rng = np.random.default_rng(7)
    x = ad.Tensor(rng.standard_normal((3, 4)))
    pos = ad.Tensor(0.5 + rng.random((3, 4)))
    a = ad.Tensor(rng.standard_normal((3, 4)))
    b = ad.Tensor(rng.standard_normal((3, 4)))
    row = ad.Tensor(rng.standard_normal(4))
    col = ad.Tensor(rng.standard_normal((3, 1)))
    seq = ad.Tensor(rng.standard_normal((2, 4, 3)))
    seq_weights = ad.constant(np.arange(24.0).reshape(2, 4, 3))
    pos_col = ad.Tensor(0.5 + rng.random((3, 1)))
    v1 = ad.Tensor(rng.standard_normal(3))
    v2 = ad.Tensor(rng.standard_normal(4))
    v3 = ad.Tensor(rng.standard_normal(4))
    mat = ad.Tensor(rng.standard_normal((4, 3)))
    rows = ad.Tensor(rng.standard_normal(3))
    pairs = ad.Tensor(rng.standard_normal((2, 4, 2)))
    weights_7 = ad.constant(np.arange(7.0))
    weights_12 = ad.constant(np.arange(12.0).reshape(3, 4))
    weights_24 = ad.constant(np.arange(24.0).reshape(4, 6))

    away = ad.Tensor(rng.standard_normal((3, 4)) + np.where(rng.random((3, 4)) > 0.5, 2.0, -2.0))
    feats = ad.Tensor(rng.standard_normal((2, 4, 3)))
    w_a, w_b, w_g = (ad.constant(0.3 * rng.standard_normal((3, 3))) for _ in range(3))

    def sum_of_squares(t):
        return tsum(square(t))

    def gcn_layer(f):
        return sum_of_squares(gcn_reason(f, region_affinity(f, w_a, w_b), w_g))

    return {
        "add": (lambda p, q: sum_of_squares(add(p, q)), (a, b)),
        "add_broadcast_row": (lambda p, q: sum_of_squares(add(p, q)), (a, row)),
        "add_broadcast_column": (lambda p, q: sum_of_squares(add(p, q)), (a, col)),
        "relu": (lambda t: tsum(relu(t)), (away,)),
        "softmax": (lambda t: tsum(mul(softmax(t, axis=1), weights_12)), (x,)),
        "region_affinity": (lambda f: sum_of_squares(region_affinity(f, w_a, w_b)), (feats,)),
        "gcn_reason": (gcn_layer, (feats,)),
        "sub": (lambda p, q: sum_of_squares(sub(p, q)), (a, b)),
        "scalar_mul": (lambda t: sum_of_squares(scalar_mul(t, 2.5)), (x,)),
        "scalar_mul_negative": (lambda t: sum_of_squares(scalar_mul(t, -0.8)), (x,)),
        "mean": (lambda t: scalar_mul(sum_of_squares(t), 1.0 / 12), (x,)),
        "sum_axis": (lambda t: sum_of_squares(tsum(t, axis=1)), (seq,)),
        "log_softmax": (lambda t: tsum(mul(log_softmax(t, axis=1), weights_12)), (x,)),
        "reshape": (lambda t: tsum(mul(reshape(t, (4, 6)), weights_24)), (seq,)),
        "concat": (lambda p, q: tsum(mul(concat([p, q]), weights_7)), (v1, v2)),
        "concat_last_axis": (lambda p, q: sum_of_squares(concat([p, scalar_mul(q, 2.0), p],
                                                                axis=-1)), (seq, pairs)),
        "concat_rows": (lambda p, q: sum_of_squares(concat([p, reshape(q, (1, 3))], axis=0)),
                        (mat, rows)),
        "pick_vector": (lambda t: sum_of_squares(pick(t, [1])), (v1,)),
        "pick_index_vector": (lambda t: sum_of_squares(pick(t, [[2], [0], [1], [2]])), (mat,)),
        "dot": (lambda p, q: sum_of_squares(dot(p, q)), (v2, v3)),
        "sigmoid": (lambda t: tsum(sigmoid(t)), (x,)),
        "tanh": (lambda t: tsum(tanh(t)), (x,)),
        "log": (lambda t: tsum(log(t)), (pos,)),
        "square": (lambda t: tsum(square(t)), (x,)),
        "sqrt": (lambda t: tsum(sqrt(t)), (pos,)),
        "div": (lambda p, q: tsum(div(p, q)), (a, pos)),
        "div_broadcast_column": (lambda p, q: tsum(div(p, q)), (a, pos_col)),
        "mul": (lambda p, q: tsum(mul(p, q)), (a, b)),
        "mul_scalar_operand": (lambda p, q: tsum(mul(p, q)), (a, ad.Tensor(np.asarray(0.7)))),
        "mul_broadcast_row": (lambda p, q: tsum(mul(square(p), q)), (a, row)),
        "mul_broadcast_column": (lambda p, q: tsum(mul(square(p), q)), (a, col)),
        "shift": (lambda t: tsum(mul(shift(t, 1), seq_weights)), (seq,)),
        "shift_by_two": (lambda t: tsum(mul(shift(t, 2), seq_weights)), (seq,)),
    }


class TestOracleOps:
    """Finite-difference checks of the ops the primitive-op oracle
    (``unfused.py``) records itself, at the gradcheck suite's ``GRAD_EPS``
    and ``GRAD_TOL``."""

    @pytest.mark.parametrize("name", list(oracle_op_cases()))
    def test_matches_finite_differences(self, name):
        fn, args = oracle_op_cases()[name]
        assert ad.grad_check(fn, list(args), eps=GRAD_EPS) < GRAD_TOL

    def test_domain_errors(self):
        with pytest.raises(ad.DomainError):
            log(ad.Tensor([1.0, -1.0]))
        with pytest.raises(ad.DomainError):
            div(ad.Tensor([1.0]), ad.Tensor([0.0]))
        with pytest.raises(ad.DomainError):
            sqrt(ad.Tensor([-2.0]))


class TestGradCheck:
    def test_sigmoid_matmul(self):
        rng = np.random.default_rng(5)
        a = ad.Tensor(rng.standard_normal((3, 3)))
        b = ad.Tensor(rng.standard_normal((3, 3)))
        err = ad.grad_check(lambda p, q: tsum(sigmoid(ad.matmul(p, q))), [a, b])
        assert err < 1e-4

    def test_constant_function_zero_error(self):
        x = ad.Tensor([1.0, 2.0])
        err = ad.grad_check(lambda t: tsum(ad.constant([3.0])), [x])
        assert err == 0.0


class TestAdam:
    def test_zero_grad_leaves_param_unchanged(self):
        p = ad.Tensor([1.5], requires_grad=True)
        opt = ad.Adam([p], lr=0.1)
        p.grad = np.zeros(1)
        opt.step()
        np.testing.assert_array_equal(p.values, [1.5])

    def test_missing_grad_rejected(self):
        p = ad.Tensor([1.5], requires_grad=True)
        opt = ad.Adam([p], lr=0.1)
        with pytest.raises(ValueError, match="missing grad"):
            opt.step()

    def test_descends_against_constant_gradient(self):
        p = ad.Tensor([0.0], requires_grad=True)
        opt = ad.Adam([p], lr=0.01)
        for _ in range(100):
            p.grad = np.array([2.5])
            opt.step()
        assert p.values[0] < 0.0

    def test_quadratic_bowl_convergence(self):
        p = ad.Tensor([0.0], requires_grad=True)
        opt = ad.Adam([p], lr=1e-2)
        target = ad.constant([5.0])
        for _ in range(5000):
            ad.clear_tape()
            loss = tsum(square(sub(p, target)))
            ad.backward(loss)
            opt.step()
            if abs(p.values[0] - 5.0) < 1e-2:
                break
        assert abs(p.values[0] - 5.0) < 1e-2

    def test_grads_cleared_after_step(self):
        p = ad.Tensor([1.0], requires_grad=True)
        opt = ad.Adam([p], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        assert p.grad is None
