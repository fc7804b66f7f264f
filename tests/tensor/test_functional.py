"""Fused functional ops: values and gradients."""

import numpy as np
import pytest

from repro.tensor import Tensor, set_precision
from repro.tensor import functional as F

from tests.helpers import numerical_grad


def fused_grad_check(op, *shapes, tol=1e-4, rng=None):
    rng = rng or np.random.default_rng(7)
    set_precision("fp64")
    arrays = [rng.standard_normal(s) for s in shapes]
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = op(*tensors)
    seed = rng.standard_normal(out.shape)
    out.backward(seed)
    for i, (arr, t) in enumerate(zip(arrays, tensors)):
        def scalar_f(x, i=i):
            args = [Tensor(a) for a in arrays]
            args[i] = Tensor(x)
            return float((op(*args).data * seed).sum())
        num = numerical_grad(scalar_f, arr)
        np.testing.assert_allclose(t.grad, num, rtol=tol, atol=tol)


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        x = Tensor(rng.standard_normal((5, 7)))
        s = F.softmax(x)
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(5), atol=1e-6)

    def test_matches_naive(self, rng):
        x = rng.standard_normal((3, 4))
        naive = np.exp(x) / np.exp(x).sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(F.softmax(Tensor(x)).data, naive, rtol=1e-5)

    def test_stable_for_large_inputs(self):
        x = Tensor(np.array([[1000.0, 1000.0]]))
        s = F.softmax(x)
        np.testing.assert_allclose(s.data, [[0.5, 0.5]])

    def test_grad(self):
        fused_grad_check(lambda a: F.softmax(a), (4, 5))

    def test_grad_axis0(self):
        fused_grad_check(lambda a: F.softmax(a, axis=0), (4, 5))

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = rng.standard_normal((3, 6))
        np.testing.assert_allclose(
            F.log_softmax(Tensor(x)).data,
            np.log(F.softmax(Tensor(x)).data), rtol=1e-5, atol=1e-6)

    def test_log_softmax_grad(self):
        fused_grad_check(lambda a: F.log_softmax(a), (3, 5))


class TestMaskedSoftmax:
    def test_zeros_outside_mask(self, rng):
        x = Tensor(rng.standard_normal((2, 4)))
        mask = np.array([[True, False, True, False], [True, True, True, True]])
        s = F.masked_softmax(x, mask)
        assert (s.data[~mask] == 0).all()
        np.testing.assert_allclose(s.data.sum(axis=-1), [1.0, 1.0], atol=1e-6)

    def test_empty_row_all_zero(self, rng):
        x = Tensor(rng.standard_normal((1, 3)))
        mask = np.zeros((1, 3), dtype=bool)
        s = F.masked_softmax(x, mask)
        np.testing.assert_allclose(s.data, np.zeros((1, 3)))

    def test_grad(self):
        mask = np.array([[True, True, False], [False, True, True]])
        fused_grad_check(lambda a: F.masked_softmax(a, mask), (2, 3))


class TestGelu:
    def test_values(self):
        x = Tensor(np.array([0.0, 100.0, -100.0]))
        y = F.gelu(x)
        np.testing.assert_allclose(y.data, [0.0, 100.0, 0.0], atol=1e-4)

    def test_grad(self):
        fused_grad_check(lambda a: F.gelu(a), (4, 3))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_workspace_path_is_bitwise(self, rng, dtype):
        x = rng.standard_normal((5, 7)).astype(dtype)
        ref_out, ref_t = F.gelu_forward(x)
        assert ref_out.dtype == dtype and ref_t.dtype == dtype
        ws = {}
        for _ in range(2):  # the second call reuses the workspace buffers
            out, t = F.gelu_forward(x, ws=ws)
            assert np.array_equal(out, ref_out)
            assert np.array_equal(t, ref_t)
        np.testing.assert_allclose(
            ref_out, 0.5 * x * (1 + np.tanh(np.sqrt(2 / np.pi) * (x + 0.044715 * x ** 3))),
            rtol=1e-6 if dtype == np.float32 else 1e-12)


class TestLayerNorm:
    def test_normalizes(self, rng):
        x = Tensor(rng.standard_normal((6, 8)) * 5 + 3)
        w = Tensor(np.ones(8))
        b = Tensor(np.zeros(8))
        y = F.layer_norm(x, w, b)
        np.testing.assert_allclose(y.data.mean(axis=-1), np.zeros(6), atol=1e-6)
        np.testing.assert_allclose(y.data.std(axis=-1), np.ones(6), atol=1e-2)

    def test_affine_applied(self, rng):
        x = Tensor(rng.standard_normal((2, 4)))
        w = Tensor(np.full(4, 2.0))
        b = Tensor(np.full(4, 1.0))
        y0 = F.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4)))
        y1 = F.layer_norm(x, w, b)
        np.testing.assert_allclose(y1.data, 2 * y0.data + 1, rtol=1e-6)

    def test_grad_all_inputs(self):
        fused_grad_check(lambda x, w, b: F.layer_norm(x, w, b), (3, 6), (6,), (6,),
                         tol=3e-4)


class TestDropout:
    def test_eval_mode_identity(self, rng):
        x = Tensor(rng.standard_normal((10, 10)))
        y = F.dropout(x, 0.5, rng, training=False)
        assert y is x

    def test_zero_p_identity(self, rng):
        x = Tensor(rng.standard_normal((4, 4)))
        assert F.dropout(x, 0.0, rng, training=True) is x

    def test_keeps_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        y = F.dropout(x, 0.3, rng, training=True)
        assert abs(y.data.mean() - 1.0) < 0.02

    def test_grad_masks_match_forward(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((50, 50)), requires_grad=True)
        y = F.dropout(x, 0.4, rng, training=True)
        y.backward(np.ones_like(y.data))
        # gradient is nonzero exactly where output survived
        np.testing.assert_allclose((x.grad > 0), (y.data > 0))


class TestEmbedding:
    def test_lookup_values(self, rng):
        table = Tensor(rng.standard_normal((5, 3)))
        idx = np.array([0, 4, 0])
        out = F.embedding_lookup(table, idx)
        np.testing.assert_allclose(out.data, table.data[idx])

    def test_scatter_add_grad(self):
        table = Tensor(np.zeros((4, 2)), requires_grad=True)
        idx = np.array([1, 1, 3])
        out = F.embedding_lookup(table, idx)
        out.backward(np.ones((3, 2)))
        expected = np.zeros((4, 2))
        expected[1] = 2
        expected[3] = 1
        np.testing.assert_allclose(table.grad, expected)

    def test_2d_indices(self, rng):
        table = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
        idx = np.array([[0, 1], [2, 3]])
        out = F.embedding_lookup(table, idx)
        assert out.shape == (2, 2, 4)
        out.backward(np.ones((2, 2, 4)))
        assert table.grad.sum() == pytest.approx(16.0)


class TestLosses:
    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((3, 4)))
        loss = F.cross_entropy(logits, np.array([0, 1, 2]))
        assert loss.item() == pytest.approx(np.log(4), rel=1e-5)

    def test_cross_entropy_grad(self):
        targets = np.array([0, 2, 1])
        fused_grad_check(lambda a: F.cross_entropy(a, targets), (3, 4))

    def test_cross_entropy_ignore_index(self):
        logits = Tensor(np.zeros((4, 3)), requires_grad=True)
        targets = np.array([0, -1, 1, -1])
        loss = F.cross_entropy(logits, targets, ignore_index=-1)
        loss.backward()
        # ignored rows have zero gradient
        assert np.abs(logits.grad[1]).sum() == 0
        assert np.abs(logits.grad[3]).sum() == 0
        assert np.abs(logits.grad[0]).sum() > 0

    def test_cross_entropy_ignore_matches_subset(self, rng):
        x = rng.standard_normal((6, 5))
        t = np.array([0, 1, -1, 2, -1, 4])
        full = F.cross_entropy(Tensor(x), t, ignore_index=-1).item()
        keep = t != -1
        sub = F.cross_entropy(Tensor(x[keep]), t[keep]).item()
        assert full == pytest.approx(sub, rel=1e-6)

    def test_bce_logits_values(self):
        logits = Tensor(np.array([[0.0]]))
        loss = F.binary_cross_entropy_with_logits(logits, np.array([[1.0]]))
        assert loss.item() == pytest.approx(np.log(2), rel=1e-5)

    def test_bce_logits_grad(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]])
        fused_grad_check(
            lambda a: F.binary_cross_entropy_with_logits(a, y), (2, 2))

    def test_bce_mask(self, rng):
        x = rng.standard_normal((2, 3))
        y = (rng.random((2, 3)) > 0.5).astype(float)
        mask = np.array([[True, False, True], [True, True, False]])
        masked = F.binary_cross_entropy_with_logits(Tensor(x), y, mask).item()
        manual = F.binary_cross_entropy_with_logits(
            Tensor(x[mask][None, :]), y[mask][None, :]).item()
        assert masked == pytest.approx(manual, rel=1e-6)

    def test_l1_loss_value_and_grad(self):
        pred = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        loss = F.l1_loss(pred, np.array([0.0, 0.0]))
        assert loss.item() == pytest.approx(1.5)
        loss.backward()
        np.testing.assert_allclose(pred.grad, [0.5, -0.5])

    def test_mse_loss_value_and_grad(self):
        pred = Tensor(np.array([3.0]), requires_grad=True)
        loss = F.mse_loss(pred, np.array([1.0]))
        assert loss.item() == pytest.approx(4.0)
        loss.backward()
        np.testing.assert_allclose(pred.grad, [4.0])
