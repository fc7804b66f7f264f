"""Correctness checks: any failure makes the benchmark run fail.

The serving checks compare what crossed the wire with what an
in-process :class:`~repro.api.Session` computes for the same request at
the same ``graph_version`` — bitwise, dtype and shape included.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["CheckFailed", "check_training", "check_logits", "check_acks"]


class CheckFailed(AssertionError):
    """A benchmark output did not match its reference."""


def check_training(losses, test_acc: float, majority_rate: float) -> None:
    """Every epoch's loss is finite and accuracy beats the majority class."""
    bad = [i for i, loss in enumerate(losses) if not math.isfinite(loss)]
    if bad:
        raise CheckFailed(f"non-finite training loss at epochs {bad}")
    if not test_acc > majority_rate:
        raise CheckFailed(
            f"test accuracy {test_acc:.4f} does not beat the majority-class "
            f"rate {majority_rate:.4f}")


def check_logits(request_id: int, got: np.ndarray | None,
                 expected: np.ndarray) -> None:
    """``got`` equals ``expected`` bit for bit."""
    if got is None:
        raise CheckFailed(f"request {request_id}: reply carried no logits")
    if (got.dtype != expected.dtype or got.shape != expected.shape
            or got.tobytes() != expected.tobytes()):
        diff = (np.abs(got.astype(np.float64) - expected).max()
                if got.shape == expected.shape else "shape")
        raise CheckFailed(
            f"request {request_id}: logits differ from the reference "
            f"Session.predict (dtype {got.dtype}/{expected.dtype}, shape "
            f"{got.shape}/{expected.shape}, max |diff| {diff})")


def check_acks(versions, first: int = 1) -> None:
    """Mutate acks, in send order, carry consecutive graph versions."""
    expected = list(range(first, first + len(versions)))
    if list(versions) != expected:
        raise CheckFailed(f"mutate acks returned versions {list(versions)}, "
                          f"expected {expected}")
