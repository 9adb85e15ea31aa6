"""Soft labels and soft-label cross-entropy.

A soft label is the convex combination ``(1 - alpha) * onehot + alpha *
prior_row``. Cross-entropy is linear in the target, so the loss against a
soft label decomposes into ``(1 - alpha) * CE[onehot, p] + alpha *
CE[prior_row, p]`` -- training against a soft label is distillation from a
static teacher given by the prior.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .priors import PriorMatrix

PROB_EPS = 1e-12


@dataclass(frozen=True)
class SoftLabel:
    """A probability vector over the K classes."""

    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        if values.ndim != 1:
            raise ValueError(f"soft label must be a vector, got shape {values.shape}")
        if np.any(values < 0):
            raise ValueError("soft label entries must be non-negative")
        total = values.sum()
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"soft label sums to {total!r}, not 1")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def K(self) -> int:
        return self.values.shape[0]


def one_hot(class_id: int, K: int) -> SoftLabel:
    if not (0 <= class_id < K):
        raise IndexError(f"class_id {class_id} out of range (K={K})")
    values = np.zeros(K)
    values[class_id] = 1.0
    return SoftLabel(values)


def smooth_label(class_id: int, prior: PriorMatrix, alpha: float) -> SoftLabel:
    """(1 - alpha) * onehot(class_id) + alpha * prior row of class_id."""
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if not (0 <= class_id < prior.K):
        raise IndexError(f"class_id {class_id} out of range (K={prior.K})")
    values = alpha * prior.row(class_id)
    values[class_id] += 1.0 - alpha
    return SoftLabel(values)


def smooth_label_matrix(labels: np.ndarray, prior: PriorMatrix | None,
                        alpha: float,
                        num_classes: int | None = None) -> np.ndarray:
    """(N, K) matrix of soft labels for a label vector; prior=None or
    alpha=0 gives plain one-hot rows.

    K is the prior's, else ``num_classes``; given both, they must agree.
    """
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    labels = np.asarray(labels, dtype=np.int64)
    K = prior.K if prior is not None else num_classes
    if K is None:
        raise ValueError("need a prior or num_classes to know K")
    if num_classes is not None and K != num_classes:
        raise ValueError(f"prior has K={K}, expected {num_classes}")
    if labels.size and (labels.min() < 0 or labels.max() >= K):
        raise IndexError(f"label out of range for K={K}")
    if prior is None or alpha == 0.0:
        out = np.zeros((labels.shape[0], K))
        out[np.arange(labels.shape[0]), labels] = 1.0
        return out
    out = alpha * prior.rows[labels]
    out[np.arange(labels.shape[0]), labels] += 1.0 - alpha
    return out


def softmax(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Stable softmax along the last axis; non-finite input raises
    FloatingPointError, which training reports as TrainingDiverged.

    Shift, exponentiate and normalize all happen in one output array
    (``out``, which may be ``z``), in the order of ``exp(z - max) / sum``,
    so the bits do not depend on where the result is stored.
    """
    z = np.asarray(z, dtype=np.float64)
    # a row holds NaN or +inf exactly when its max is not finite, and -inf
    # exactly when its min is not, so no K-wide isfinite mask is needed
    top = z.max(axis=-1, keepdims=True)
    if not (np.isfinite(top).all() and np.isfinite(z.min(axis=-1)).all()):
        raise FloatingPointError("non-finite logits in forward pass")
    out = np.subtract(z, top, out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def soft_cross_entropy(target, probs: np.ndarray) -> float:
    """-sum_i target(i) * log(probs(i)), with probs clamped at 1e-12.

    ``target`` may be a SoftLabel or a plain probability vector.
    """
    t = target.values if isinstance(target, SoftLabel) else np.asarray(target,
                                                                       dtype=np.float64)
    p = np.asarray(probs, dtype=np.float64)
    if t.shape != p.shape:
        raise ValueError(f"target shape {t.shape} != probs shape {p.shape}")
    return float(-(t * np.log(np.maximum(p, PROB_EPS))).sum())
