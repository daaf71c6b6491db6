"""Explicit reverse-mode gradients through the one network shape xmc trains.

Every trained model is an MLP chain (affine layers, relu between them, none
after the last) that feeds a loss with a closed-form gradient
(``models.cross_entropy``, ``contrastive.info_nce``, both on the numpy kernel
:func:`logsumexp_row`, which leaves the exponentials and returns the row sums:
each loss divides at whichever point its gradient is smallest). So there is
no graph: ``EncoderModel.forward`` returns each layer's input next to the
output, and :func:`backward` walks the layers in reverse from the loss
gradient. The one other differentiable step, :func:`l2_normalize` between
the radio encoder and InfoNCE, returns its backward as a closure.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericError

__all__ = ["backward", "l2_normalize", "logsumexp_row"]

NORM_EPS = 1e-12


def backward(model, acts: list[np.ndarray], g: np.ndarray,
             input_grad: bool = False) -> np.ndarray | None:
    """Assign ``model.grad`` for an ``EncoderModel`` whose ``forward`` gave
    the layer inputs ``acts``, from the loss gradient ``g`` with respect to
    its output: per layer, the pair (its input, the loss gradient at its
    output). ``models.sgd_step`` forms the weight and bias gradients from
    them. Returns the gradient with respect to the model's input iff
    ``input_grad``."""
    pairs = []
    for i in reversed(range(len(model.weights))):
        a, w = acts[i], model.weights[i]
        pairs.append((a, g))
        if i or input_grad:
            g = g @ w.T
        if i:
            g *= a > 0.0  # a is the previous layer's relu output
    model.grad = pairs[::-1]
    return g if input_grad else None


def logsumexp_row(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise log(sum(exp(x))) of an (M, N) float array, stabilized by
    subtracting the row max, and the (M, 1) row sums of exp(x - row max).

    ``x`` is overwritten with those exponentials, so a caller that still needs
    its scores passes a copy. ``x / sums``, the row softmax, is the gradient:
    each loss divides at whichever point its gradient is smallest."""
    mx = x.max(axis=1, keepdims=True)
    x -= mx
    np.exp(x, out=x)
    sums = x.sum(axis=1, keepdims=True)
    return (mx + np.log(sums)).reshape(-1), sums


def l2_normalize(m: np.ndarray) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Each row of an (M, N) matrix scaled to unit Euclidean norm, and the
    backward that maps a gradient on the result to one on ``m``."""
    norms = np.sqrt((m * m).sum(axis=1))
    bad = np.nonzero(norms <= NORM_EPS)[0]
    if bad.size:
        raise NumericError(f"l2_normalize: row {bad[0]} has near-zero norm")

    def back(g: np.ndarray) -> np.ndarray:
        dots = (g * m).sum(axis=1)
        return g / norms[:, None] - m * (dots / norms**3)[:, None]

    return m / norms[:, None], back
