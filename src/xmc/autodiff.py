"""Explicit reverse-mode gradients through the one network shape xmc trains.

Every trained model is an MLP chain (affine layers, relu between them, none
after the last) that feeds a loss with a closed-form gradient
(``models.cross_entropy``, ``contrastive.info_nce``, both on the numpy kernel
:func:`logsumexp_row`). So there is no graph: ``EncoderModel.forward``
returns each layer's input next to the output, and :func:`backward` walks
the layers in reverse from the loss gradient. The one other differentiable
step, :func:`l2_normalize` between the radio encoder and InfoNCE, returns
its backward as a closure.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from .errors import ContractError, DegenerateInputError, DimensionError

__all__ = ["backward", "l2_normalize", "logsumexp_row"]

NORM_EPS = 1e-12


def backward(model, acts: list[np.ndarray], g: np.ndarray,
             input_grad: bool = False) -> np.ndarray | None:
    """Assign ``model.grad``, the gradient of the parameter vector of an
    ``EncoderModel`` whose ``forward`` gave the layer inputs ``acts``, from
    the loss gradient ``g`` with respect to its output. The vector is new on
    each call and assigned, not added to. Returns the gradient with respect
    to the model's input iff ``input_grad``."""
    if model.frozen:
        raise ContractError("cannot backpropagate into a frozen model")
    if g.shape != (len(acts[0]), model.dims[-1]):
        raise DimensionError(
            f"backward: output gradient {g.shape} vs output "
            f"{(len(acts[0]), model.dims[-1])}")
    # a model over the new gradient vector lends it the parameters' layout
    grads = replace(model, data=np.empty_like(model.data))
    for i in reversed(range(len(model.weights))):
        a, w = acts[i], model.weights[i]
        g.sum(axis=0, out=grads.biases[i])
        np.matmul(a.T, g, out=grads.weights[i])
        if i or input_grad:
            g = g @ w.T
        if i:
            g *= a > 0.0  # a is the previous layer's relu output
    model.grad = grads.data
    return g if input_grad else None


def logsumexp_row(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise log(sum(exp(x))) of an (M, N) array, stabilized by subtracting
    the row max, and the row softmax, which is its gradient."""
    if x.ndim != 2:
        raise DimensionError(f"logsumexp_row: expected a matrix, got shape {x.shape}")
    mx = x.max(axis=1, keepdims=True)
    ex = np.exp(x - mx)
    sums = ex.sum(axis=1, keepdims=True)
    return (mx + np.log(sums)).reshape(-1), ex / sums


def l2_normalize(m: np.ndarray) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """Each row of an (M, N) matrix scaled to unit Euclidean norm, and the
    backward that maps a gradient on the result to one on ``m``."""
    if m.ndim != 2:
        raise DimensionError(f"l2_normalize: expected a matrix, got shape {m.shape}")
    norms = np.sqrt((m * m).sum(axis=1))
    bad = np.nonzero(norms <= NORM_EPS)[0]
    if bad.size:
        raise DegenerateInputError(f"l2_normalize: row {bad[0]} has near-zero norm")

    def back(g: np.ndarray) -> np.ndarray:
        dots = (g * m).sum(axis=1)
        return g / norms[:, None] - m * (dots / norms**3)[:, None]

    return m / norms[:, None], back
