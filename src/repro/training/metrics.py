"""Evaluation metrics (plain numpy; no gradients needed)."""

from __future__ import annotations

import numpy as np

from repro.obs import get_registry


def mape(pred: np.ndarray, target: np.ndarray, floor: float = 1.0) -> np.ndarray:
    """Mean absolute percentage error per output column.

    ``floor`` guards the denominator for targets that can be zero (DSP
    counts): the error is measured relative to ``max(|target|, floor)``,
    the standard convention for resource-count MAPE.
    """
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    denom = np.maximum(np.abs(target), floor)
    return np.mean(np.abs(pred - target) / denom, axis=0)


def binary_accuracy(logits: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per-column accuracy of sign(logit) against binary labels."""
    pred = (np.asarray(logits) > 0).astype(float)
    return np.mean(pred == np.asarray(target), axis=0)


def expm1_finite(log_values: np.ndarray) -> np.ndarray:
    """``expm1`` of log-space regressor outputs that cannot overflow.

    Regressors predict ``log1p`` targets; an output above
    ``log(finfo(dtype).max)`` (about 88.72 in float32) would map to
    ``inf`` with a RuntimeWarning. Inputs are clamped to the largest
    value whose ``expm1`` is finite in their dtype, so every prediction
    stays finite and every smaller output maps exactly as before. The
    number of clamped values is added to the ``predict.nonfinite_clamped``
    counter of the :mod:`repro.obs` registry.
    """
    log_values = np.asarray(log_values)
    dtype = log_values.dtype.type
    ceiling = np.nextafter(np.log(np.finfo(dtype).max), dtype(0))
    clamped = int(np.count_nonzero(log_values > ceiling))
    if clamped:
        get_registry().inc("predict.nonfinite_clamped", clamped)
    return np.expm1(np.minimum(log_values, ceiling))
