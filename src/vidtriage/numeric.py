"""The special functions the package evaluates, on numpy alone."""

from __future__ import annotations

import math

import numpy as np


def sigmoid(z):
    """1 / (1 + e^-z); exactly 0.0, with no warning, once e^-z overflows."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def logsumexp(a: np.ndarray, axis: int, keepdims: bool = False) -> np.ndarray:
    """log(sum(exp(a))) along one axis, shifted by the maximum first."""
    top = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(a - top), axis=axis, keepdims=True)) + top
    return out if keepdims else np.squeeze(out, axis=axis)


def normal_two_sided_tail(z) -> np.ndarray:
    """P(|N(0, 1)| >= |z|) = erfc(|z| / sqrt(2)) for each element; scaling
    by sqrt(0.5), as scipy's ndtr does, rounds closer than dividing."""
    erfc = np.frompyfunc(math.erfc, 1, 1)
    return np.asarray(erfc(np.abs(z) * math.sqrt(0.5)), dtype=float)
