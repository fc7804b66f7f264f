"""Block-rectangular attention kernel (the cluster-sparse execution path).

After Elastic Computation Reformation, the attention pattern is a union of
dense rectangles: diagonal dense clusters plus the db×db sub-blocks that
sparse clusters were compacted into (Fig. 5(c)).  This kernel evaluates
exactly that union with *contiguous* memory access — each rectangle is one
small dense matmul — using the online-softmax merge so rows covered by
multiple rectangles stay mathematically exact.

Training uses the autograd :func:`~repro.attention.sparse.sparse_attention`
over the reformed pattern (numerically identical output); this forward-only
kernel exists to measure the regular-vs-irregular access gap for the
kernel-level benchmarks (Fig. 12) with real wall-clock numbers, and its
byte accounting feeds the hardware model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .patterns import AttentionPattern
from .registry import register_kernel
from .stats import AttentionStats, collector

__all__ = ["Rect", "BlockLayout", "block_attention_forward", "layout_from_pattern"]


@dataclass(frozen=True)
class Rect:
    """A dense rectangle [r0, r1) × [c0, c1) of the S×S score layout."""

    r0: int
    r1: int
    c0: int
    c1: int

    @property
    def area(self) -> int:
        return (self.r1 - self.r0) * (self.c1 - self.c0)


@dataclass
class BlockLayout:
    """A cluster-sparse layout: rectangles sorted by row block."""

    seq_len: int
    rects: list[Rect]

    @property
    def covered_entries(self) -> int:
        return sum(r.area for r in self.rects)

    def density(self) -> float:
        s = self.seq_len
        return self.covered_entries / float(s * s) if s else 0.0

    def to_pattern(self) -> AttentionPattern:
        """Expand rectangles into an explicit entry pattern (for training)."""
        rows_parts, cols_parts = [], []
        for r in self.rects:
            rr = np.arange(r.r0, r.r1, dtype=np.int64)
            cc = np.arange(r.c0, r.c1, dtype=np.int64)
            rows_parts.append(np.repeat(rr, len(cc)))
            cols_parts.append(np.tile(cc, len(rr)))
        if rows_parts:
            rows = np.concatenate(rows_parts)
            cols = np.concatenate(cols_parts)
        else:
            rows = cols = np.empty(0, dtype=np.int64)
        return AttentionPattern.from_entries(self.seq_len, rows, cols)


def layout_from_pattern(pattern: AttentionPattern, bounds: np.ndarray,
                        dense_threshold: float = 0.5) -> BlockLayout:
    """Greedy rectangle cover of a clustered pattern (diagnostic helper).

    Cluster cells denser than ``dense_threshold`` become full rectangles;
    everything else becomes 1×1 rectangles per entry.  The ECR module in
    :mod:`repro.core.ecr` builds better layouts — this helper exists so the
    kernel can run on *any* pattern for testing.
    """
    k = len(bounds) - 1
    counts = pattern.cluster_entry_counts(bounds)
    rows, cols = pattern.rows, pattern.cols
    ri = np.searchsorted(bounds, rows, side="right") - 1
    ci = np.searchsorted(bounds, cols, side="right") - 1
    rects: list[Rect] = []
    dense_cell = np.zeros((k, k), dtype=bool)
    for a in range(k):
        ra = int(bounds[a + 1] - bounds[a])
        for b in range(k):
            cb = int(bounds[b + 1] - bounds[b])
            if ra * cb == 0:
                continue
            if counts[a, b] / (ra * cb) >= dense_threshold:
                dense_cell[a, b] = True
                rects.append(Rect(int(bounds[a]), int(bounds[a + 1]),
                                  int(bounds[b]), int(bounds[b + 1])))
    loose = ~dense_cell[ri, ci]
    for r, c in zip(rows[loose], cols[loose]):
        rects.append(Rect(int(r), int(r) + 1, int(c), int(c) + 1))
    return BlockLayout(seq_len=pattern.seq_len, rects=rects)


def block_attention_forward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    layout: BlockLayout,
    scale: float | None = None,
) -> np.ndarray:
    """Forward attention over the rectangle union (online-softmax merge).

    Inputs are raw ``(H, S, dh)`` arrays; output matches
    ``sparse_attention`` on ``layout.to_pattern()`` up to float error.
    """
    H, S, dh = q.shape
    if scale is None:
        scale = 1.0 / float(np.sqrt(dh))

    out = np.zeros_like(q)
    m = np.full((H, S), -np.inf)
    l = np.zeros((H, S))

    for r in layout.rects:
        qs = q[:, r.r0:r.r1]
        ks = k[:, r.c0:r.c1]
        vs = v[:, r.c0:r.c1]
        s_tile = np.matmul(qs, ks.swapaxes(-1, -2)) * scale
        tile_max = s_tile.max(axis=-1)
        m_old = m[:, r.r0:r.r1]
        m_new = np.maximum(m_old, tile_max)
        corr = np.exp(m_old - m_new)
        p = np.exp(s_tile - m_new[:, :, None])
        l[:, r.r0:r.r1] = l[:, r.r0:r.r1] * corr + p.sum(axis=-1)
        out[:, r.r0:r.r1] = (out[:, r.r0:r.r1] * corr[:, :, None]
                             + np.matmul(p, vs))
        m[:, r.r0:r.r1] = m_new

    out /= np.maximum(l, 1e-30)[:, :, None]

    covered = layout.covered_entries
    itemsize = q.itemsize
    collector.add(AttentionStats(
        kind="cluster-sparse", seq_len=S, num_heads=H, head_dim=dh,
        scores_computed=H * covered,
        flops=4 * H * covered * dh,
        # rectangles stream contiguously: all traffic is regular
        regular_bytes=itemsize * H * (covered * 2 + S * dh * 2),
        irregular_bytes=0,
    ))
    return out


def _block_kernel(q, k, v, *, pattern=None, bias=None, layout=None,
                  bounds=None, **kw):
    """Registry adapter: run the rectangle kernel from a pattern or layout.

    Without an explicit ``layout``/``bounds``, the pattern is covered as a
    single cluster cell (dense cells → rectangles, the rest 1×1) — correct
    for any pattern, fast only for reformed ones.  Returns a grad-less
    Tensor: this kernel is a forward-only measurement path.
    """
    from ..tensor import Tensor
    if layout is None:
        if bounds is None:
            bounds = np.array([0, pattern.seq_len], dtype=np.int64)
        layout = layout_from_pattern(pattern, bounds)
    out = block_attention_forward(q.data, k.data, v.data, layout, **kw)
    return Tensor(out)


register_kernel(
    "block", _block_kernel,
    supports_bias=False, needs_pattern=True, trainable=False, exact=True,
    complexity="O(covered·d), contiguous", attention_kind="cluster-sparse",
    bias_format=None,
    description="Forward-only rectangle-union kernel measuring the "
                "regular-access cluster-sparse path (ECR execution)")
