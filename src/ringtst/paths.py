"""Cyclic bead paths: generators and exact free-polymer sampling.

A path is a plain 1-D numpy array of length P; index k is bead k with
cyclic wrap-around (index P is bead 0 again).

The exact free ring-polymer sampler draws the P - 1 fluctuation amplitudes
of ``fourier_mode_basis`` as scaled normals (``free_ring_amplitudes``, the
one draw of every ensemble); a ``ModeBlock`` holds them, and builds the
real-space paths about the centroids a caller gives only when it asks.
``map_free_ring_paths`` hands an ensemble of at most BLOCK_ELEMS path
elements (1 MB), or of fewer than POOL_MIN_BEADS beads and at most
INLINE_ELEMS elements (8 MB), over in one block drawn in the calling
thread, whose paths are one dense matmul.  Larger ensembles run on a
thread pool in blocks of BLOCK_ELEMS elements: each block draws its own
amplitudes in its worker, from its own child of the caller's generator
(``rng.spawn``), and reduces them to per-path values or per-block sums,
building its paths, if asked, with ``np.fft.irfft``.  A pooled block takes
its scratch arrays (the spectrum and the paths, or amplitudes a caller
derives) by name from ``ModeBlock.scratch``: each worker thread keeps one
buffer per name for the call, grown when a request outgrows it and
dropped when the call returns, so the whole ensemble is never held at
once and no block allocates path-sized scratch of its own.  Block
boundaries are fixed by BLOCK_ELEMS and each child is tied to a block
index, so the results do not depend on the number of cores.
``mode_amplitudes`` is the inverse map, from real-space paths back to
their amplitudes and centroids.
"""
from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .params import ThermoParams

# Elements per row block of a path array: about 1 MB, so a large batch
# costs no more scratch memory than one block.  The surfaces layer uses
# the same blocks.
BLOCK_ELEMS = 1 << 17

# Ensembles of fewer beads than POOL_MIN_BEADS and at most INLINE_ELEMS
# elements (8 MB of paths) are drawn whole and evaluated in the calling
# thread: pooling the P = 3, n = 200k ensemble (600k elements) made its
# estimate about 8 % slower.  Above INLINE_ELEMS they are pooled, which
# keeps the memory of an ensemble bounded by its blocks.
POOL_MIN_BEADS = 16
INLINE_ELEMS = 1 << 20


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


def _basis_rows(P: int, beads: np.ndarray) -> np.ndarray:
    """Rows ``beads`` of fourier_mode_basis(P)."""
    k = np.asarray(beads)[:, None]
    l = np.arange(1, (P - 1) // 2 + 1)
    rows = np.empty((k.shape[0], P - 1))
    ang = 2.0 * np.pi * l * k / P
    rows[:, 0 : 2 * l.size : 2] = np.sqrt(2.0 / P) * np.cos(ang)
    rows[:, 1 : 2 * l.size : 2] = np.sqrt(2.0 / P) * np.sin(ang)
    if P % 2 == 0:
        rows[:, -1] = np.cos(np.pi * k[:, 0]) / np.sqrt(P)
    return rows


def fourier_mode_basis(bead_count: int) -> np.ndarray:
    """Real orthonormal basis of the non-centroid cyclic Fourier modes.

    Returns a (P, P-1) matrix whose columns are unit vectors, paired as
    (cos, sin) per mode l = 1 .. P/2 with a single Nyquist column for even
    P; column j has the second-difference eigenvalue 4 sin^2(pi l / P)
    given by ``fourier_basis_eigenvalues(P)[j]``.
    """
    return _basis_rows(bead_count, np.arange(bead_count))


def fourier_basis_eigenvalues(bead_count: int, offset: int = 1) -> np.ndarray:
    """Eigenvalues 4 sin^2(pi n l / P) of the offset-n ring Laplacian,
    q_k -> 2 q_k - q_{k+n} - q_{k-n}, on the columns of fourier_mode_basis
    (column j has mode l = j // 2 + 1); n = 1 is the spring term."""
    P = bead_count
    l = np.arange(P - 1) // 2 + 1
    return 4.0 * np.sin(np.pi * (offset * l % P) / P) ** 2


def free_ring_mode_std(params: ThermoParams) -> np.ndarray:
    """Standard deviation sqrt(beta hbar^2 / (m P lambda_j)) of each
    fourier_mode_basis amplitude under the free ring-polymer weight."""
    P = params.bead_count
    return np.sqrt(params.beta * params.hbar**2 / (params.mass * P * fourier_basis_eigenvalues(P)))


def free_ring_amplitudes(params: ThermoParams, n_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Exact samples of the free-particle ring-polymer fluctuations, as
    (n_samples, P - 1) amplitudes on the columns of fourier_mode_basis.

    The spring weight exp(-(mP / 2 beta hbar^2) sum (q_k - q_{k+1})^2) is
    Gaussian in the Fourier modes; each non-centroid mode amplitude has
    variance beta hbar^2 / (m P lambda_l), so a row is one row of standard
    normals times free_ring_mode_std, scaled in place.  Every ensemble,
    inline or pooled, is drawn here.
    """
    z = rng.standard_normal((n_samples, params.bead_count - 1))
    z *= free_ring_mode_std(params)
    return z


def _spectrum_scale(P: int) -> np.ndarray:
    """Per-amplitude factors of the interleaved (real, imaginary) rfft
    spectrum of a centred path: a (cos, sin) pair of amplitudes (a_l, b_l)
    is X_l = sqrt(P/2) (a_l - i b_l), and the Nyquist amplitude a_N (even P)
    is X_{P/2} = sqrt(P) a_N."""
    w = np.full(P - 1, np.sqrt(P / 2.0))
    w[1::2] = -w[1::2]
    if P % 2 == 0:
        w[-1] = np.sqrt(P)
    return w


def _irfft_paths(
    amps: np.ndarray, centroid, spec: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Paths from a (rows, P - 1) block of amplitudes, with no BLAS call:
    the scaled amplitudes fill the spectrum in place of a matmul, and irfft
    gives q_k = sqrt(2/P) (a_l cos + b_l sin)(2 pi l k / P) + a_N (-1)^k /
    sqrt(P).  The centroid is a scalar or a (rows, 1) column.  ``spec`` and
    ``out``, if given, are a complex (rows, P // 2 + 1) array and a
    (rows, P) array that the spectrum and the paths are written into."""
    rows, P = amps.shape[0], amps.shape[1] + 1
    if spec is None:
        spec = np.empty((rows, P // 2 + 1), dtype=complex)
    # columns 2 .. P of the (re, im) view are X_1 .. X_{P/2}; the DC term
    # and the imaginary part of the Nyquist term (even P) are zero
    re_im = spec.view(float)
    re_im[:, :2] = 0.0
    re_im[:, P + 1 :] = 0.0
    np.multiply(amps, _spectrum_scale(P), out=re_im[:, 2 : P + 1])
    q = np.fft.irfft(spec, n=P, axis=-1, out=out)
    q += centroid
    return q


def mode_amplitudes(q) -> tuple[np.ndarray, np.ndarray]:
    """The fourier_mode_basis amplitudes (..., P - 1) and the centroids
    (...) of paths q (..., P): one rfft of q - qbar, the inverse of the
    irfft construction.  Centring first keeps the rounding of the
    amplitudes at the scale of the fluctuations rather than of |q|."""
    q = np.asarray(q, dtype=float)
    P = q.shape[-1]
    c = np.mean(q, axis=-1, keepdims=True)
    spec = np.fft.rfft(q - c, axis=-1)
    return spec.view(float)[..., 2 : P + 1] / _spectrum_scale(P), c[..., 0]


@dataclass(frozen=True)
class ModeBlock:
    """A block of paths in Fourier-mode coordinates: amps is (rows, P - 1),
    the fluctuations amps @ fourier_mode_basis(P).T of each path about its
    centroid, and ``start`` the index of its first path in the ensemble, in
    draw order.  A block from the worker pool carries ``workspace``, the
    ``map_free_ring_paths`` call's per-thread store of scratch buffers
    (``scratch``)."""

    amps: np.ndarray
    workspace: threading.local | None = field(default=None, repr=False)
    start: int = 0

    @property
    def pooled(self) -> bool:
        """Whether the block runs on the worker pool."""
        return self.workspace is not None

    def paths(self, centroid) -> np.ndarray:
        """The (rows, P) real-space paths about centroid (a scalar or one
        value per row): one dense matmul for an ensemble handed over whole
        (at small P it is cheaper than irfft), irfft with no BLAS call for a
        pooled block, into its ``"spectrum"`` and ``"paths"`` scratch.  The
        caller may overwrite them in place."""
        c = np.asarray(centroid, dtype=float)
        c = float(c) if c.ndim == 0 else c.reshape(-1, 1)
        rows, P = self.amps.shape[0], self.amps.shape[1] + 1
        if self.pooled:
            spec = self.scratch("spectrum", (rows, P // 2 + 1), complex)
            return _irfft_paths(self.amps, c, spec, self.scratch("paths", (rows, P)))
        q = self.amps @ fourier_mode_basis(P).T
        q += c
        return q

    def scratch(self, name: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        """A C-contiguous array of ``shape`` for the caller to fill: a fresh
        one for an inline block.  A pooled block's is the start of its
        worker thread's buffer ``name`` for this call (one dtype per name),
        made on the first request and grown when a request outgrows it; it
        stays valid until that worker's next request for ``name``."""
        if not self.pooled:
            return np.empty(shape, dtype)
        size = math.prod(shape)
        bufs = vars(self.workspace)
        if name not in bufs or bufs[name].size < size:
            # the smaller buffer goes first, so that the two are never held
            # at once unless the caller still holds a view of the old one
            bufs.pop(name, None)
            bufs[name] = np.empty(size, dtype)
        return bufs[name][:size].reshape(shape)


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


def map_free_ring_paths(params: ThermoParams, n_samples: int, rng: np.random.Generator, per_path) -> tuple[np.ndarray, ...]:
    """per_path applied to blocks of free ring-polymer paths.

    per_path maps a ModeBlock of rows paths to a tuple of 1-D arrays,
    either of length rows, one value per path, or of per-block reductions
    of a fixed length; the result is each of those arrays concatenated in
    block order, which for per-path values is draw order.  When the
    ensemble fits in one block of BLOCK_ELEMS elements, or has fewer than
    POOL_MIN_BEADS beads and at most INLINE_ELEMS elements, it is one block,
    ``free_ring_amplitudes(params, n_samples, rng)`` in the calling thread.
    Otherwise block i holds BLOCK_ELEMS // P paths (the last one the rest)
    and runs on the pool: its worker draws them with
    ``free_ring_amplitudes(params, rows, rng.spawn(n_blocks)[i])`` and
    applies per_path.  A pooled block's scratch (``ModeBlock.scratch``,
    which its paths are built into) lives in a ``threading.local`` that this
    call makes and drops when it returns: each worker thread reuses its
    buffers for its later blocks, so a block's paths are valid until the
    next block in that worker builds its own, and the results that are
    views are copied.  The caller's own stream is not advanced.  An
    exception raised by per_path reaches the caller.
    """
    P = params.bead_count
    rows = max(1, BLOCK_ELEMS // P)
    if n_samples <= rows or (P < POOL_MIN_BEADS and n_samples * P <= INLINE_ELEMS):
        return tuple(per_path(ModeBlock(free_ring_amplitudes(params, n_samples, rng))))
    from concurrent.futures import wait

    # each worker thread's scratch for this call only: a thread runs one
    # block at a time, so its blocks take turns with its buffers
    workspace = threading.local()

    def block(child, lo):
        z = free_ring_amplitudes(params, min(rows, n_samples - lo), child)
        out = per_path(ModeBlock(z, workspace, lo))
        # views are copied, so that no result reads a buffer the next block
        # reuses; arrays that own their memory are passed on as they are
        return tuple(x if x.base is None else x.copy() for x in map(np.asarray, out))

    starts = range(0, n_samples, rows)
    futures = [_pool().submit(block, child, lo) for child, lo in zip(rng.spawn(len(starts)), starts)]
    try:
        parts = [f.result() for f in futures]
    finally:
        # after an error: drop the blocks not started, finish the running ones
        for f in futures:
            f.cancel()
        wait(futures)
    return tuple(np.concatenate(cols) for cols in zip(*parts))
