"""Head-major bias gather and the per-bucket gradient reduction.

``head_bias_lookup`` must be bitwise the composed path it replaces, an
``(S, S, H)`` gather moved heads-first whose gradient is scattered back
with ``np.add.at``, and ``embedding_lookup``'s backward must be bitwise
``np.add.at`` too.  Both reduce through :class:`BucketSum`.
"""

import numpy as np
import pytest

from repro.attention.dense import dense_attention
from repro.tensor import Tensor, set_precision
from repro.tensor import functional as F

from tests.helpers import numerical_grad


def addat_lookup(table: Tensor, idx: np.ndarray) -> Tensor:
    """The scatter-add embedding gather the reduction must reproduce."""
    def backward(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, idx.reshape(-1), g.reshape(-1, table.data.shape[-1]))
        table._accumulate(buf)

    return Tensor._make(table.data[idx], (table,), backward)


def param(data: np.ndarray) -> Tensor:
    """A trainable tensor that keeps ``data``'s dtype whatever the precision."""
    t = Tensor(data, requires_grad=True)
    t.data = data.copy()
    return t


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def run_layers(bias: Tensor, inputs, seeds):
    """Feed one bias to a stack of dense-attention calls and backprop."""
    outs = [dense_attention(Tensor(q), Tensor(k), Tensor(v), bias=bias)
            for q, k, v in inputs]
    total = outs[0] * Tensor(seeds[0])
    for out, seed in zip(outs[1:], seeds[1:]):
        total = total + out * Tensor(seed)
    total.sum().backward()
    return [o.data for o in outs]


def spd_like_buckets(rng, s: int, num_buckets: int) -> np.ndarray:
    # mostly the far bucket, as on a disconnected graph, plus a few near
    b = np.full((s, s), num_buckets - 1, dtype=np.int16)
    near = rng.random((s, s)) < 0.3
    b[near] = rng.integers(0, num_buckets - 1, near.sum())
    return b


@pytest.mark.parametrize("table_dtype,precision", [
    (np.float32, "fp32"),   # a model built and trained at the default fp32
    (np.float64, "fp64"),
    (np.float64, "fp32"),
    (np.float32, "fp64"),   # fp32-built model trained at fp64: add.at rounds
])
def test_four_layers_bitwise_equal_to_composed_reference(rng, table_dtype, precision):
    set_precision(precision)
    s, h, d, nb = 37, 4, 8, 10
    dt = np.float64 if precision == "fp64" else np.float32
    buckets = spd_like_buckets(rng, s, nb)
    table0 = (rng.standard_normal((nb, h)) * 0.5).astype(table_dtype)
    inputs = [tuple(rng.standard_normal((h, s, d)).astype(dt) for _ in range(3))
              for _ in range(4)]
    seeds = [rng.standard_normal((h, s, d)).astype(dt) for _ in range(4)]

    ref_table = param(table0)
    ref_bias = addat_lookup(ref_table, buckets).transpose(2, 0, 1)
    ref_outs = run_layers(ref_bias, inputs, seeds)

    table = param(table0)
    bias = F.head_bias_lookup(table, buckets, sums=F.BucketSum(buckets, nb))
    outs = run_layers(bias, inputs, seeds)

    assert bias.data.flags.c_contiguous and not ref_bias.data.flags.c_contiguous
    assert same_bits(bias.data, np.ascontiguousarray(ref_bias.data))
    for a, b in zip(outs, ref_outs):
        assert same_bits(a, b)
    assert same_bits(table.grad, ref_table.grad)


@pytest.mark.parametrize("table_dtype", [np.float32, np.float64])
def test_int16_buckets_that_never_occur(rng, table_dtype):
    nb, h = 12, 3
    buckets = rng.choice(np.array([1, 4, 5, 11], dtype=np.int16), size=(20, 20))
    table0 = rng.standard_normal((nb, h)).astype(table_dtype)
    g = rng.standard_normal((h, 20, 20)).astype(table_dtype)

    table = param(table0)
    out = F.head_bias_lookup(table, buckets)
    out.backward(g)

    ref = np.zeros_like(table0)
    g32 = g.astype(np.float32)  # the fp32 output's gradient
    np.add.at(ref, buckets.reshape(-1), g32.transpose(1, 2, 0).reshape(-1, h))
    assert same_bits(table.grad, ref)
    missing = np.setdiff1d(np.arange(nb), buckets)
    assert not table.grad[missing].any()
    assert same_bits(out.data, table0.T[:, buckets].astype(np.float32))


def test_sums_must_be_built_over_the_same_buckets(rng):
    buckets = rng.integers(0, 4, (5, 5)).astype(np.int16)
    table = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        F.head_bias_lookup(table, buckets, sums=F.BucketSum(buckets.copy(), 4))


def test_finite_difference_gradient(rng):
    set_precision("fp64")
    nb, h, s = 5, 3, 6
    buckets = rng.integers(0, nb, (s, s)).astype(np.int16)
    table0 = rng.standard_normal((nb, h))
    seed = rng.standard_normal((h, s, s))
    table = Tensor(table0, requires_grad=True)
    F.head_bias_lookup(table, buckets).backward(seed)

    def f(x):
        return float((F.head_bias_lookup(Tensor(x), buckets).data * seed).sum())

    np.testing.assert_allclose(table.grad, numerical_grad(f, table0),
                               rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("table_dtype,grad_dtype", [
    (np.float32, np.float32),
    (np.float64, np.float64),
    (np.float64, np.float32),
    (np.float32, np.float64),
])
@pytest.mark.parametrize("idx", [
    np.arange(360) % 64,                       # degree buckets, repeats
    np.array([[0, 1], [1, -1], [5, 0]]),       # 2-D, negative wraps
    np.array([], dtype=np.int64),              # nothing gathered
])
def test_embedding_backward_bitwise_equal_to_add_at(rng, table_dtype, grad_dtype, idx):
    table0 = rng.standard_normal((64, 16)).astype(table_dtype)
    g = rng.standard_normal(idx.shape + (16,)).astype(grad_dtype)
    a = param(table0)
    F.embedding_lookup(a, idx).backward(g)
    b = param(table0)
    addat_lookup(b, idx).backward(g)
    assert a.grad.dtype == table_dtype
    assert same_bits(a.grad, b.grad)


class TestCachedReducer:
    def _graph_model(self):
        from repro.graph import load_node_dataset
        from repro.models import GRAPHORMER_SLIM, Graphormer

        ds = load_node_dataset("ogbn-arxiv", scale=0.05, seed=0)
        model = Graphormer(GRAPHORMER_SLIM(ds.features.shape[1],
                                           ds.num_classes), seed=0)
        return ds, model

    def _bias_grad(self, model, enc):
        model.zero_grad()
        bias = model._dense_bias(enc)
        g = np.random.default_rng(3).standard_normal(bias.shape)
        bias.backward(g.astype(bias.data.dtype))
        return bias, model.spd_bias_table.grad.copy()

    def test_reused_across_steps_and_rebuilt_after_a_delta(self):
        from repro.models import compute_encodings
        from repro.stream import apply_delta, make_churn_deltas

        ds, model = self._graph_model()
        nb = model.spd_bias_table.data.shape[0]
        enc0 = compute_encodings(ds.graph)
        sums0 = enc0.spd_sums(nb)
        assert enc0.spd_sums(nb) is sums0          # one operator per encodings

        for delta in make_churn_deltas(ds, 3, edges_per_delta=16, seed=1):
            apply_delta(ds, delta)
        enc1 = compute_encodings(ds.graph)
        assert not np.array_equal(enc0.spd_buckets, enc1.spd_buckets)
        assert enc1.spd_sums(nb) is not sums0
        with pytest.raises(ValueError):            # a stale operator is refused
            F.head_bias_lookup(model.spd_bias_table, enc1.spd_buckets, sums=sums0)

        bias, grad = self._bias_grad(model, enc1)
        ref = np.zeros_like(model.spd_bias_table.data)
        g = bias.grad
        np.add.at(ref, enc1.spd_buckets.reshape(-1),
                  g.transpose(1, 2, 0).reshape(-1, g.shape[0]))
        assert same_bits(grad, ref)

    def test_replacing_the_bucket_array_rebuilds(self):
        from repro.models import compute_encodings

        ds, model = self._graph_model()
        nb = model.spd_bias_table.data.shape[0]
        enc = compute_encodings(ds.graph)
        sums = enc.spd_sums(nb)
        enc.spd_buckets = enc.spd_buckets[::-1].copy()
        assert enc.spd_sums(nb) is not sums
        assert enc.spd_sums(nb).buckets is enc.spd_buckets
