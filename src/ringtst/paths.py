"""Cyclic bead paths: generators, shifts, and exact free-polymer sampling.

A path is a plain 1-D numpy array of length P; index k is bead k with
cyclic wrap-around (index P is bead 0 again).

Free ring-polymer ensembles are built in one of two ways, chosen by size
alone.  Up to INLINE_ELEMS path elements (8 MB), ``free_ring_paths`` draws
the whole (n, P) array with one dense matmul.  Larger ensembles go through
``map_free_ring_paths``: the calling thread draws the normals block by
block, in stream order, and a thread pool turns each block into paths with
``np.fft.irfft`` and reduces it to per-path values, so the whole ensemble
is never held at once.  Block boundaries are fixed by BLOCK_ELEMS, so the
results do not depend on the number of cores.
"""
from __future__ import annotations

import functools
import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .params import ThermoParams

# Elements per row block of a path array: about 1 MB, so a large batch
# costs no more scratch memory than one block.  The surfaces layer uses
# the same blocks.
BLOCK_ELEMS = 1 << 17

# Ensembles of at most this many elements (8 MB of paths) are drawn whole
# and evaluated in the calling thread; at small P the dense draw is
# cheaper than irfft, and pool threads would add a malloc arena each.
INLINE_ELEMS = 1 << 20


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


def _irfft_weights(params: ThermoParams) -> np.ndarray:
    """Per-normal factors that turn a row of fourier_mode_basis normals into
    the interleaved (real, imaginary) parts of the irfft spectrum.

    A (cos, sin) pair of amplitudes (a_l, b_l) becomes
    X_l = sqrt(P/2) (a_l - i b_l), and the Nyquist amplitude a_N (even P)
    becomes X_{P/2} = sqrt(P) a_N; irfft then gives
    q_k = sqrt(2/P) (a_l cos + b_l sin)(2 pi l k / P) + a_N (-1)^k / sqrt(P).
    """
    P = params.bead_count
    w = np.full(P - 1, np.sqrt(P / 2.0))
    w[1::2] = -w[1::2]
    if P % 2 == 0:
        w[-1] = np.sqrt(P)
    return w * free_ring_mode_std(params)


def _irfft_paths(z: np.ndarray, weights: np.ndarray, centroid) -> np.ndarray:
    """Paths from a (rows, P - 1) block of standard normals, with no BLAS
    call: the scaled normals fill the spectrum in place of a matmul.  The
    centroid is a scalar or a (rows, 1) column."""
    rows, P = z.shape[0], z.shape[1] + 1
    spec = np.zeros((rows, P // 2 + 1), dtype=complex)
    # columns 2 .. P of the (re, im) view are X_1 .. X_{P/2}, imaginary
    # part of the Nyquist term excluded (odd P has no Nyquist term)
    np.multiply(z, weights, out=spec.view(float)[:, 2 : P + 1])
    q = np.fft.irfft(spec, n=P, axis=-1)
    q += centroid
    return q


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@functools.cache
def _pool():
    """The one worker pool, created on first use (concurrent.futures is
    imported then too, not when this module is)."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=_usable_cores(), thread_name_prefix="ringtst")


def map_free_ring_paths(
    params: ThermoParams,
    n_samples: int,
    rng: np.random.Generator,
    per_path,
    centroid: float | np.ndarray = 0.0,
) -> tuple[np.ndarray, ...]:
    """per_path applied to free ring-polymer paths, the same draw as
    ``free_ring_paths(params, n_samples, rng, centroid)``.

    per_path maps an (rows, P) block of paths to a tuple of 1-D arrays of
    length rows; the result is each of those arrays over all n_samples
    paths, in draw order.  Up to INLINE_ELEMS elements this is
    ``per_path(free_ring_paths(...))`` in the calling thread.  Above, the
    paths come in blocks of BLOCK_ELEMS elements: the calling thread draws
    each block's normals in stream order (the same numbers as one draw),
    and a pool worker maps them to paths with irfft (equal to the dense
    draw to rounding) and applies per_path.  At most two blocks per core
    are in flight.  An exception raised by per_path reaches the caller.
    """
    P = params.bead_count
    if n_samples * P <= INLINE_ELEMS:
        return tuple(per_path(free_ring_paths(params, n_samples, rng, centroid)))
    from concurrent.futures import wait

    weights = _irfft_weights(params)
    centroid = np.asarray(centroid, dtype=float)
    rows = max(1, BLOCK_ELEMS // P)
    pool, limit = _pool(), 2 * _usable_cores()

    def block(z, c):
        return tuple(per_path(_irfft_paths(z, weights, c)))

    pending, parts = deque(), []
    try:
        for lo in range(0, n_samples, rows):
            hi = min(lo + rows, n_samples)
            if len(pending) == limit:
                parts.append(pending.popleft().result())
            z = rng.standard_normal((hi - lo, P - 1))
            pending.append(pool.submit(block, z, centroid if centroid.ndim == 0 else centroid[lo:hi, None]))
        while pending:
            parts.append(pending.popleft().result())
    finally:
        # after an error: drop the blocks not started, finish the running ones
        for f in pending:
            f.cancel()
        wait(pending)
    return tuple(np.concatenate(cols) for cols in zip(*parts))
