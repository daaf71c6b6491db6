"""Tensor engine tests: forward values, gradient oracle, graph semantics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmc import autodiff as ad
from xmc.autodiff import Tensor
from xmc.contrastive import NegativeQueue, info_nce
from xmc.errors import DegenerateInputError, DimensionError, UsageError
from xmc.models import cross_entropy

from helpers import check_grads, finite_diff_grads, relative_error


def total(m: Tensor) -> Tensor:
    """Sum of all entries of a matrix, as a ones-vector matmul sandwich."""
    rows, cols = m.shape
    return ad.matmul(ad.matmul(Tensor(np.ones((1, rows))), m), Tensor(np.ones((cols, 1))))


class TestMatmul:
    def test_identity(self):
        a = Tensor([[2.0, -1.0], [0.5, 3.0]])
        eye = Tensor(np.eye(2))
        np.testing.assert_array_equal(ad.matmul(eye, a).data, a.data)

    def test_hand_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[1.0], [1.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[3.0], [7.0]])

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(3, 4\).*\(3, 2\)"):
            ad.matmul(Tensor(np.ones((3, 4))), Tensor(np.ones((3, 2))))

    def test_gradient_of_sum_equals_ones_times_bt(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        ad.backward(total(ad.matmul(a, b)))
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T)
        check_grads(lambda: total(ad.matmul(a, b)).item(), [a, b])


class TestElementwise:
    def test_relu_values(self):
        out = ad.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_subgradient_zero_at_zero(self):
        x = Tensor([[-1.0, 0.0, 2.0]], requires_grad=True)
        ad.backward(total(ad.relu(x)))
        np.testing.assert_array_equal(x.grad, [[0.0, 0.0, 1.0]])

    def test_add_zero_is_identity(self):
        x = Tensor([[1.5, -2.0]])
        out = ad.add_bias(x, Tensor([0.0, 0.0]))
        np.testing.assert_array_equal(out.data, x.data)

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ad.add_bias(Tensor(np.ones((2, 3))), Tensor(np.ones(4)))


class TestL2Normalize:
    def test_three_four_five(self):
        out = ad.l2_normalize(Tensor([[3.0, 4.0]]))
        np.testing.assert_allclose(out.data, [[0.6, 0.8]])

    def test_unit_row_unchanged(self):
        row = np.array([[1.0 / math.sqrt(2), -1.0 / math.sqrt(2)]])
        out = ad.l2_normalize(Tensor(row))
        np.testing.assert_allclose(out.data, row, atol=1e-15)

    def test_near_zero_row_names_index(self):
        bad = np.ones((3, 2))
        bad[1] = 0.0
        with pytest.raises(DegenerateInputError, match="row 1"):
            ad.l2_normalize(Tensor(bad))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
        w = Tensor(rng.normal(size=(8, 3)))  # fixed projection, makes loss generic

        def f():
            return total(ad.matmul(ad.l2_normalize(x), w)).item()

        ad.backward(total(ad.matmul(ad.l2_normalize(x), w)))
        check_grads(f, [x])


class TestLogsumexpRow:
    def test_two_zeros(self):
        lse, _ = ad.logsumexp_row(np.array([[0.0, 0.0]]))
        np.testing.assert_allclose(lse, [math.log(2.0)])

    def test_large_values_do_not_overflow(self):
        lse, softmax = ad.logsumexp_row(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(lse, [1000.0 + math.log(2.0)])
        np.testing.assert_allclose(softmax, [[0.5, 0.5]])

    def test_single_value_row_is_exact(self):
        x = np.array([[-123.456]])
        lse, softmax = ad.logsumexp_row(x)
        assert lse[0] == x[0, 0]
        assert softmax[0, 0] == 1.0

    def test_matches_naive_evaluation(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 5))
        naive = np.log(np.exp(x).sum(axis=1))
        lse, _ = ad.logsumexp_row(x)
        assert np.abs(lse - naive).max() < 1e-12

    def test_gradient_is_softmax(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 4)))
        _, softmax = ad.logsumexp_row(x.data)
        (numeric,) = finite_diff_grads(lambda: ad.logsumexp_row(x.data)[0].sum(), [x])
        assert relative_error(softmax, numeric) < 1e-8

    def test_rejects_non_matrix(self):
        with pytest.raises(DimensionError):
            ad.logsumexp_row(np.zeros(3))

    @given(st.lists(st.lists(st.floats(-50, 50), min_size=2, max_size=6),
                    min_size=1, max_size=4).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    @settings(max_examples=50, deadline=None)
    def test_bounded_by_max_plus_log_c(self, rows):
        x = np.array(rows)
        out, _ = ad.logsumexp_row(x)
        mx = x.max(axis=1)
        assert np.all(out >= mx - 1e-12)
        assert np.all(out <= mx + math.log(x.shape[1]) + 1e-12)


class TestBackward:
    def test_sum_grad_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.backward(total(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic_grad_is_2x(self):
        for v in (1.0, -2.0, 3.0):
            x = Tensor([[v]], requires_grad=True)
            ad.backward(ad.matmul(x, x))
            np.testing.assert_allclose(x.grad, [[2 * v]])

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(UsageError):
            ad.backward(ad.matmul(x, x))

    def test_accumulation_without_reset(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        w = Tensor([[3.0], [-1.0]])
        ad.backward(ad.matmul(x, w))
        first = x.grad.copy()
        ad.backward(ad.matmul(x, w))
        np.testing.assert_allclose(x.grad, 2 * first)

    def test_diamond_graph(self):
        # y = sum(A @ A): A feeds both operands, d/dA = 1 A^T + A^T 1
        a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        ad.backward(total(ad.matmul(a, a)))
        ones = np.ones((2, 2))
        np.testing.assert_allclose(a.grad, ones @ a.data.T + a.data.T @ ones)

    def test_detach_blocks_gradients(self):
        # a constant copy of the values (``.data``) carries no gradient
        x = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        ad.backward(total(ad.matmul(Tensor(x.data), x)))
        np.testing.assert_allclose(x.grad, x.data.T @ np.ones((2, 2)))  # only the live branch

    def test_deterministic_forward(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(5, 5))
        b = rng.normal(size=(5, 5))

        def run():
            t = ad.relu(ad.matmul(Tensor(a), Tensor(b)))
            return ad.logsumexp_row(t.data)[0].tobytes()

        assert run() == run()


class TestCompositeGradients:
    def test_mlp_with_bias_pick_and_concat(self):
        """One graph per fused loss over every remaining op, against the fd
        oracle: cross-entropy picks the label column, InfoNCE concatenates
        the positive score to the queue scores."""
        rng = np.random.default_rng(7)
        w1 = Tensor(rng.normal(size=(6, 5)) * 0.5, requires_grad=True)
        b1 = Tensor(rng.normal(size=5) * 0.1, requires_grad=True)
        w2 = Tensor(rng.normal(size=(5, 3)) * 0.5, requires_grad=True)
        x = Tensor(rng.normal(size=(4, 6)))
        labels = np.array([0, 2, 1, 0])
        unit = rng.normal(size=(10, 3))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        keys, queue = unit[:4], NegativeQueue(6)
        queue.enqueue(unit[4:])

        def losses():
            h = ad.relu(ad.add_bias(ad.matmul(x, w1), b1))
            out = ad.matmul(h, w2)
            return (cross_entropy(out, labels),
                    info_nce(ad.l2_normalize(out), keys, queue, tau=0.5))

        for loss in losses():
            ad.backward(loss)
        check_grads(lambda: sum(loss.item() for loss in losses()), [w1, b1, w2])
