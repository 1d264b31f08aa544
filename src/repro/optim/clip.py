"""Global-norm gradient clipping."""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.tensor import Tensor


def clip_grad_norm(parameters: Iterable[Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (useful for logging divergence). The norm is
    summed in float64, so float32 gradients beyond ~1.8e19 do not overflow
    it. A non-finite norm (an ``inf`` or ``nan`` gradient) leaves every
    gradient untouched and is returned as is: no scale can repair it, and
    the caller should skip the step.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    clipped = [p for p in parameters if p.grad is not None]
    if not clipped:
        return 0.0
    total = 0.0
    for p in clipped:
        grad = p.grad.astype(np.float64, copy=False).ravel()
        total += float(grad @ grad)
    total = math.sqrt(total)
    if math.isfinite(total) and total > max_norm:
        scale = max_norm / (total + 1e-12)
        for p in clipped:
            # Replace rather than scale in place: with first-gradient
            # ownership a ``.grad`` buffer may be shared with another node.
            p.grad = p.grad * scale
    return total
