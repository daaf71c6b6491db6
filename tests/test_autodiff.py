"""Chain backward tests: forward values, gradient oracle, layer semantics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmc import autodiff as ad
from xmc.contrastive import NegativeQueue, info_nce
from xmc.errors import DegenerateInputError, DimensionError
from xmc.models import EncoderModel, cross_entropy

from helpers import check_grads, finite_diff_grads, grad_views, relative_error


def chain(*layers) -> EncoderModel:
    """An MLP from (weight, bias) pairs."""
    dims = [layers[0][0].shape[0]] + [w.shape[1] for w, _ in layers]
    return EncoderModel(dims, np.concatenate([np.append(w, b) for w, b in layers]))


def identity(n: int):
    return np.eye(n), np.zeros(n)


class TestMatmul:
    def test_identity(self):
        a = np.array([[2.0, -1.0], [0.5, 3.0]])
        np.testing.assert_array_equal(chain(identity(2)).forward(a)[0], a)

    def test_hand_product(self):
        m = chain((np.array([[1.0], [1.0]]), np.zeros(1)))
        out, _ = m.forward(np.array([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out, [[3.0], [7.0]])

    def test_shape_mismatch_reports_both_shapes(self):
        m = chain((np.ones((4, 2)), np.zeros(2)))
        _, acts = m.forward(np.ones((3, 4)))
        with pytest.raises(DimensionError, match=r"\(3, 4\).*\(3, 2\)"):
            ad.backward(m, acts, np.ones((3, 4)))

    def test_gradient_of_sum_equals_ones_times_bt(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 4))
        m = chain((rng.normal(size=(4, 2)), np.zeros(2)))
        _, acts = m.forward(x)
        dx = ad.backward(m, acts, np.ones((3, 2)), input_grad=True)
        np.testing.assert_allclose(dx, np.ones((3, 2)) @ m.weights[0].T)
        np.testing.assert_allclose(grad_views(m).weights[0], x.T @ np.ones((3, 2)))
        check_grads(lambda: m.forward(x)[0].sum(), [(x, dx), (m.data, m.grad)])


class TestElementwise:
    def test_relu_values(self):
        out, _ = chain(identity(3), identity(3)).forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_relu_subgradient_zero_at_zero(self):
        m = chain(identity(3), identity(3))
        _, acts = m.forward(np.array([[-1.0, 0.0, 2.0]]))
        dx = ad.backward(m, acts, np.ones((1, 3)), input_grad=True)
        np.testing.assert_array_equal(dx, [[0.0, 0.0, 1.0]])

    def test_add_zero_is_identity(self):
        x = np.array([[1.5, -2.0]])
        np.testing.assert_array_equal(chain(identity(2)).forward(x)[0], x)
        shifted = chain((np.eye(2), np.array([1.0, -1.0]))).forward(x)[0]
        np.testing.assert_array_equal(shifted, [[2.5, -3.0]])


class TestL2Normalize:
    def test_three_four_five(self):
        out, _ = ad.l2_normalize(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [[0.6, 0.8]])

    def test_unit_row_unchanged(self):
        row = np.array([[1.0 / math.sqrt(2), -1.0 / math.sqrt(2)]])
        out, _ = ad.l2_normalize(row)
        np.testing.assert_allclose(out, row, atol=1e-15)

    def test_near_zero_row_names_index(self):
        bad = np.ones((3, 2))
        bad[1] = 0.0
        with pytest.raises(DegenerateInputError, match="row 1"):
            ad.l2_normalize(bad)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 8))
        w = rng.normal(size=(8, 3))  # fixed projection, makes the loss generic
        _, back = ad.l2_normalize(x)
        dx = back(np.ones((4, 3)) @ w.T)
        check_grads(lambda: (ad.l2_normalize(x)[0] @ w).sum(), [(x, dx)])


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
        x = rng.normal(size=(3, 4))
        _, softmax = ad.logsumexp_row(x)
        (numeric,) = finite_diff_grads(lambda: ad.logsumexp_row(x)[0].sum(), [x])
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
        m = chain(identity(3))
        _, acts = m.forward(np.arange(6.0).reshape(2, 3))
        dx = ad.backward(m, acts, np.ones((2, 3)), input_grad=True)
        np.testing.assert_array_equal(dx, np.ones((2, 3)))
        np.testing.assert_array_equal(grad_views(m).biases[0], [2.0, 2.0, 2.0])

    def test_quadratic_grad_is_2x(self):
        # loss = (x w)^2 at x = 1 has d/dw = 2 w
        for v in (1.0, -2.0, 3.0):
            m = chain((np.array([[v]]), np.zeros(1)))
            out, acts = m.forward(np.array([[1.0]]))
            ad.backward(m, acts, 2.0 * out)
            np.testing.assert_allclose(grad_views(m).weights[0], [[2 * v]])

    def test_repeated_backward_assigns_without_a_reset(self):
        m = chain((np.array([[3.0], [-1.0]]), np.zeros(1)))
        _, acts = m.forward(np.array([[1.0, 2.0]]))
        ad.backward(m, acts, np.ones((1, 1)))
        first = m.grad.copy()
        ad.backward(m, acts, np.ones((1, 1)))
        np.testing.assert_array_equal(m.grad, first)

    def test_input_grad_only_when_asked(self):
        m = chain(identity(2), identity(2))
        _, acts = m.forward(np.ones((1, 2)))
        assert ad.backward(m, acts, np.ones((1, 2))) is None
        assert ad.backward(m, acts, np.ones((1, 2)), input_grad=True).shape == (1, 2)

    def test_deterministic_forward(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(5, 5))
        m = chain((rng.normal(size=(5, 5)), np.zeros(5)), identity(5))

        def run():
            return ad.logsumexp_row(m.forward(a)[0])[0].tobytes()

        assert run() == run()


class TestCompositeGradients:
    def test_mlp_with_bias_pick_and_concat(self):
        """Both losses over one MLP, their output gradients summed, against
        the fd oracle: cross-entropy picks the label column, InfoNCE (after
        l2_normalize) concatenates the positive score to the queue scores."""
        rng = np.random.default_rng(7)
        m = chain((rng.normal(size=(6, 5)) * 0.5, rng.normal(size=5) * 0.1),
                  (rng.normal(size=(5, 3)) * 0.5, np.zeros(3)))
        x = rng.normal(size=(4, 6))
        labels = np.array([0, 2, 1, 0])
        unit = rng.normal(size=(10, 3))
        unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        keys, queue = unit[:4], NegativeQueue(6)
        queue.enqueue(unit[4:])

        def losses():
            out, acts = m.forward(x)
            ce, d_ce = cross_entropy(out, labels)
            q, back = ad.l2_normalize(out)
            nce, d_nce = info_nce(q, keys, queue, tau=0.5)
            return ce + nce, acts, d_ce + back(d_nce)

        _, acts, g = losses()
        ad.backward(m, acts, g)
        check_grads(lambda: losses()[0], [(m.data, m.grad)])
