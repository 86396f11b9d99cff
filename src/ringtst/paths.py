"""Cyclic bead paths: generators, shifts, and exact free-polymer sampling.

A path is a plain 1-D numpy array of length P; index k is bead k with
cyclic wrap-around (index P is bead 0 again).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ThermoParams


def cyclic_shift(path: np.ndarray, shift: int) -> np.ndarray:
    """Relabel beads cyclically; the physical ring is unchanged."""
    return np.roll(path, shift)


@dataclass(frozen=True)
class SinusoidalPathSpec:
    """Single-mode path q_k = q0 + sqrt(2) A sin(2 pi n k / P + alpha)."""

    q0: float = 0.0
    amplitude: float = 1.0
    mode: int = 1
    phase: float = 0.0

    def __post_init__(self):
        if self.mode < 0:
            raise ValueError("mode must be nonnegative")


def sinusoidal_path(spec: SinusoidalPathSpec, bead_count: int) -> np.ndarray:
    if spec.mode > bead_count:
        raise ValueError("mode must not exceed the bead count")
    k = np.arange(bead_count)
    return spec.q0 + np.sqrt(2.0) * spec.amplitude * np.sin(
        2.0 * np.pi * spec.mode * k / bead_count + spec.phase
    )


def fourier_mode_basis(bead_count: int) -> np.ndarray:
    """Real orthonormal basis of the non-centroid cyclic Fourier modes.

    Returns a (P, P-1) matrix whose columns are unit vectors, paired as
    (cos, sin) per mode l = 1 .. P/2 with a single Nyquist column for even
    P; column j has the second-difference eigenvalue 4 sin^2(pi l / P)
    given by ``fourier_basis_eigenvalues(P)[j]``.
    """
    P = bead_count
    k = np.arange(P)
    cols = []
    for l in range(1, P // 2 + 1):
        if 2 * l == P:
            cols.append(np.cos(np.pi * k) / np.sqrt(P))
        else:
            cols.append(np.sqrt(2.0 / P) * np.cos(2.0 * np.pi * l * k / P))
            cols.append(np.sqrt(2.0 / P) * np.sin(2.0 * np.pi * l * k / P))
    return np.stack(cols, axis=1)


def fourier_basis_eigenvalues(bead_count: int) -> np.ndarray:
    """Eigenvalues matching the columns of fourier_mode_basis."""
    P = bead_count
    vals = []
    for l in range(1, P // 2 + 1):
        lam = 4.0 * np.sin(np.pi * l / P) ** 2
        if 2 * l == P:
            vals.append(lam)
        else:
            vals.extend((lam, lam))
    return np.asarray(vals)


def free_ring_mode_std(params: ThermoParams) -> np.ndarray:
    """Standard deviation sqrt(beta hbar^2 / (m P lambda_j)) of each
    fourier_mode_basis amplitude under the free ring-polymer weight."""
    P = params.bead_count
    return np.sqrt(params.beta * params.hbar**2 / (params.mass * P * fourier_basis_eigenvalues(P)))


def free_ring_paths(
    params: ThermoParams,
    n_samples: int,
    rng: np.random.Generator,
    centroid: float | np.ndarray = 0.0,
) -> np.ndarray:
    """Draw exact samples of the free-particle ring-polymer fluctuations.

    The spring weight exp(-(mP / 2 beta hbar^2) sum (q_k - q_{k+1})^2) is
    Gaussian in the Fourier modes; each non-centroid mode amplitude has
    variance beta hbar^2 / (m P lambda_l). The centroid is set explicitly
    (scalar or per-sample array) since the free weight does not constrain it.

    Returns an (n_samples, P) array.
    """
    P = params.bead_count
    basis = fourier_mode_basis(P)
    amps = rng.standard_normal((n_samples, P - 1)) * free_ring_mode_std(params)
    q = amps @ basis.T
    del amps  # with the centroid added in place, only q is left alive
    centroid = np.asarray(centroid, dtype=float)
    q += float(centroid) if centroid.ndim == 0 else centroid.reshape(-1, 1)
    return q
