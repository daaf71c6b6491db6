"""Shared test utilities: the finite-difference gradient oracle, and a
config overlay loaded from a YAML file."""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from xmc.config import ExperimentConfig, load_config
from xmc.models import EncoderModel


def load_overlay(overlay: dict) -> ExperimentConfig:
    """``load_config`` of ``overlay``, written to a temporary YAML file."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "overlay.yaml"
        path.write_text(yaml.safe_dump(overlay))
        return load_config(path)


def finite_diff_grads(f: Callable[[], float], arrays: list[np.ndarray],
                      h: float = 1e-5) -> list[np.ndarray]:
    """Central-difference gradients of a scalar function of the arrays.

    Each array is perturbed in place, one element at a time, so ``f`` must
    re-run the forward pass from the arrays' current values (a model's
    ``data``, or an input array); it is evaluated 2x per element.
    """
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        for i in range(a.size):
            keep = a.flat[i]
            a.flat[i] = keep + h
            up = f()
            a.flat[i] = keep - h
            down = f()
            a.flat[i] = keep
            g.flat[i] = (up - down) / (2.0 * h)
        grads.append(g)
    return grads


def relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max over elements of |a - n| / max(1, |a|, |n|)."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / denom).max())


def check_grads(f: Callable[[], float], pairs: list[tuple[np.ndarray, np.ndarray]],
                tol: float = 1e-4, h: float = 1e-5) -> float:
    """Assert analytic gradients match finite differences. ``pairs`` holds
    (array, its analytic gradient), e.g. ``(model.data, dense_grad(model))``."""
    for _, grad in pairs:
        assert grad is not None, "an array has no analytic gradient"
    numeric = finite_diff_grads(f, [a for a, _ in pairs], h)
    worst = max(relative_error(grad, num) for (_, grad), num in zip(pairs, numeric))
    assert worst < tol, f"gradient mismatch: {worst} >= {tol}"
    return worst


def dense_grad(model: EncoderModel) -> np.ndarray:
    """The gradient of ``model.data`` as one vector in its layout, formed
    from the per-layer ``(a, g)`` pairs of ``model.grad``: each layer's
    ``a.T @ g``, then its bias gradient ``g.sum(0)``."""
    return np.concatenate([np.append(a.T @ g, g.sum(axis=0)) for a, g in model.grad])
