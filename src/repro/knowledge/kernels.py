"""Kernel functions used for background-knowledge estimation (Section II-C).

A kernel ``K`` maps a normalised distance ``x`` (in ``[0, 1]``, see
:mod:`repro.data.distance`) to a non-negative weight.  The bandwidth ``B``
rescales the distance: the weight of a point at distance ``x`` is
``K(x / B)`` up to a constant.  The paper uses the Epanechnikov kernel because
the choice of kernel matters much less than the choice of bandwidth; the
other classical kernels are provided for the ablation benchmark.

All kernels here are implemented as vectorised callables on numpy arrays and
expose a registry (:func:`get_kernel`) so that configuration files and
experiments can refer to kernels by name.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.exceptions import KnowledgeError

KernelFunction = Callable[[np.ndarray, float], np.ndarray]


def _validate_bandwidth(bandwidth: float) -> float:
    if not np.isfinite(bandwidth) or bandwidth <= 0.0:
        raise KnowledgeError(f"bandwidth must be a positive finite number, got {bandwidth!r}")
    return float(bandwidth)


def epanechnikov_kernel(distances: np.ndarray, bandwidth: float) -> np.ndarray:
    """Epanechnikov kernel ``K(x) = 3/(4B) * (1 - (x/B)^2)`` for ``|x/B| < 1``.

    This is the kernel the paper uses (Section II-C).
    """
    bandwidth = _validate_bandwidth(bandwidth)
    scaled = np.asarray(distances, dtype=np.float64) / bandwidth
    weights = 0.75 / bandwidth * (1.0 - scaled**2)
    return np.where(np.abs(scaled) < 1.0, np.maximum(weights, 0.0), 0.0)


def uniform_kernel(distances: np.ndarray, bandwidth: float) -> np.ndarray:
    """Uniform (boxcar) kernel ``K(x) = 1/(2B)`` for ``|x/B| <= 1``.

    With the bandwidth set to the attribute's domain range this reproduces the
    "t-closeness adversary" special case of Section II-D, where every tuple
    contributes equally and the prior collapses to the overall distribution.
    """
    bandwidth = _validate_bandwidth(bandwidth)
    scaled = np.abs(np.asarray(distances, dtype=np.float64) / bandwidth)
    return np.where(scaled <= 1.0, 0.5 / bandwidth, 0.0)


def triangular_kernel(distances: np.ndarray, bandwidth: float) -> np.ndarray:
    """Triangular kernel ``K(x) = (1 - |x/B|)/B`` for ``|x/B| < 1``."""
    bandwidth = _validate_bandwidth(bandwidth)
    scaled = np.abs(np.asarray(distances, dtype=np.float64) / bandwidth)
    return np.where(scaled < 1.0, (1.0 - scaled) / bandwidth, 0.0)


def biweight_kernel(distances: np.ndarray, bandwidth: float) -> np.ndarray:
    """Biweight (quartic) kernel ``K(x) = 15/(16B) * (1 - (x/B)^2)^2`` for ``|x/B| < 1``."""
    bandwidth = _validate_bandwidth(bandwidth)
    scaled = np.asarray(distances, dtype=np.float64) / bandwidth
    inside = np.maximum(1.0 - scaled**2, 0.0)
    return np.where(np.abs(scaled) < 1.0, 15.0 / 16.0 / bandwidth * inside**2, 0.0)


def gaussian_kernel(distances: np.ndarray, bandwidth: float) -> np.ndarray:
    """Gaussian kernel ``K(x) = exp(-(x/B)^2 / 2) / (B * sqrt(2 pi))`` (unbounded support)."""
    bandwidth = _validate_bandwidth(bandwidth)
    scaled = np.asarray(distances, dtype=np.float64) / bandwidth
    return np.exp(-0.5 * scaled**2) / (bandwidth * np.sqrt(2.0 * np.pi))


_KERNELS: dict[str, KernelFunction] = {
    "epanechnikov": epanechnikov_kernel,
    "uniform": uniform_kernel,
    "triangular": triangular_kernel,
    "biweight": biweight_kernel,
    "gaussian": gaussian_kernel,
}

# Kernels whose weight is *exactly* 0.0 whenever ``|x/B| > 1``.  The closed
# ball ``d <= B`` is therefore a support superset for every one of them
# (uniform includes the boundary; the strict-support kernels evaluate to an
# exact 0.0 there), which is what lets the factored backend hold each block
# joint as its support - neighbour lists enumerated from the ``d <= B`` balls
# of the per-attribute distance matrices - and sum only those terms.  Every
# term equals the dense joint's entry bit for bit, so a query with a single
# term gets the dense GEMM's exact result; longer supports are summed in
# ascending slot order and agree with the GEMM to round-off.  Custom kernels
# registered at runtime are conservatively treated as unbounded (dense)
# unless declared compact.
_COMPACT_SUPPORT: set[str] = {"epanechnikov", "uniform", "triangular", "biweight"}


def has_compact_support(name: str) -> bool:
    """Whether ``name``'s kernel is exactly zero outside ``|x/B| <= 1``."""
    return name.lower() in _COMPACT_SUPPORT


def kernel_names() -> tuple[str, ...]:
    """Names of all registered kernels."""
    return tuple(sorted(_KERNELS))


def get_kernel(name: str) -> KernelFunction:
    """Look up a kernel function by name (case-insensitive).

    Raises
    ------
    KnowledgeError
        If ``name`` does not correspond to a registered kernel.
    """
    try:
        return _KERNELS[name.lower()]
    except KeyError:
        raise KnowledgeError(
            f"unknown kernel {name!r}; available kernels: {', '.join(kernel_names())}"
        ) from None


def register_kernel(
    name: str, function: KernelFunction, *, compact_support: bool = False
) -> None:
    """Register a custom kernel under ``name`` (overwriting is not allowed).

    Declare ``compact_support=True`` only when ``function`` returns an exact
    ``0.0`` for every ``|x/B| > 1`` - the factored backend then contracts
    over the kernel's support alone, skipping every other entry.
    """
    key = name.lower()
    if key in _KERNELS:
        raise KnowledgeError(f"kernel {name!r} is already registered")
    _KERNELS[key] = function
    if compact_support:
        _COMPACT_SUPPORT.add(key)
