"""The blocked, pooled evaluation of large free ring-polymer ensembles:
the irfft transform and its rfft inverse, which ensembles stay in the
calling thread, the per-block random streams, independence of the worker
count, agreement with dense paths on the same normals, the per-worker,
per-call scratch buffers, and errors raised inside a worker."""
import dataclasses
import sys
import threading
import time
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringtst import paths
from ringtst.params import ThermoParams
from ringtst.paths import (
    fourier_mode_basis,
    free_ring_amplitudes,
    free_ring_mode_std,
    map_free_ring_paths,
)
from ringtst.potentials import Eckart
from ringtst.rates import rate_estimates
from ringtst.scaling import quaddiff_orders
from ringtst.surfaces import FourierNormSurface, QuadDiffSurface, SingularSurfaceError

# P >= paths.POOL_MIN_BEADS and n * P above paths.BLOCK_ELEMS: this ensemble
# runs on the pool, in 10 blocks
POOLED = dict(P=256, n=5_000)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 1024),
    st.integers(1, 9),
    st.floats(0.2, 5.0),
    st.one_of(st.floats(-3.0, 3.0), st.just("per-sample")),
    st.integers(0, 2**32 - 1),
)
def test_irfft_block_matches_mode_basis(P, rows, beta, centroid, seed):
    params = ThermoParams(beta=beta, bead_count=P)
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((rows, P - 1)) * free_ring_mode_std(params)
    c = rng.standard_normal((rows, 1)) if centroid == "per-sample" else centroid
    got = paths._irfft_paths(amps, c)
    want = amps @ fourier_mode_basis(P).T + c
    assert got.shape == (rows, P)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the centred rfft maps the paths back to their amplitudes and centroids
    back, c_back = paths.mode_amplitudes(got)
    assert np.max(np.abs(back - amps)) <= 1e-13 * np.max(np.abs(amps))
    assert np.max(np.abs(c_back - np.ravel(c))) <= 1e-13 * np.max(np.abs(want))


def _forbid_pool(monkeypatch):
    def no_pool():
        raise AssertionError("an inline ensemble reached the pool")

    monkeypatch.setattr(paths, "_pool", no_pool)


def _assert_inline_and_bit_identical(P, n):
    params = ThermoParams(bead_count=P)
    c = np.linspace(-1.0, 1.0, n)

    def per_path(block):
        assert not block.pooled and block.amps.shape == (n, P - 1)
        q = block.paths(c)
        return q.sum(axis=-1), q[:, 0], block.amps[:, 0]

    got = map_free_ring_paths(params, n, np.random.default_rng(3), per_path)
    q = free_ring_amplitudes(params, n, np.random.default_rng(3)) @ fourier_mode_basis(P).T + c[:, None]
    assert np.array_equal(got[0], q.sum(axis=-1))
    assert np.array_equal(got[1], q[:, 0])
    assert np.array_equal(got[2], free_ring_amplitudes(params, n, np.random.default_rng(3))[:, 0])


def test_small_ensemble_runs_inline_and_bit_identical(monkeypatch):
    """An ensemble of POOL_MIN_BEADS or more beads that fits in one block
    is one draw in the calling thread."""
    _forbid_pool(monkeypatch)
    P = paths.POOL_MIN_BEADS
    _assert_inline_and_bit_identical(P, paths.BLOCK_ELEMS // P)


def test_few_bead_ensemble_stays_inline_up_to_the_limit(monkeypatch):
    """Below POOL_MIN_BEADS an ensemble of up to INLINE_ELEMS elements is
    one draw in the calling thread, here P = 8 at the limit, eight blocks'
    worth, bit-identical to free_ring_amplitudes."""
    _forbid_pool(monkeypatch)
    n = paths.INLINE_ELEMS // 8
    assert 8 < paths.POOL_MIN_BEADS and n > paths.BLOCK_ELEMS // 8
    _assert_inline_and_bit_identical(8, n)


@pytest.mark.parametrize(
    "P, n",
    [(paths.POOL_MIN_BEADS, paths.BLOCK_ELEMS // paths.POOL_MIN_BEADS + 1), (8, paths.INLINE_ELEMS // 8 + 1)],
    ids=["16-beads-two-blocks", "8-beads-over-limit"],
)
def test_multi_block_ensemble_reaches_the_pool(monkeypatch, P, n):
    """From POOL_MIN_BEADS on, an ensemble one row larger than a block is
    two pooled blocks; below, one row over INLINE_ELEMS elements is pooled
    too, so no ensemble is held whole above that limit."""
    rows = paths.BLOCK_ELEMS // P
    submitted = []

    class CountingPool(ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            submitted.append(args)
            return super().submit(fn, *args, **kwargs)

    pool = CountingPool(max_workers=2)
    monkeypatch.setattr(paths, "_pool", lambda: pool)

    def per_path(block):
        assert block.pooled
        return (np.full(len(block.amps), len(block.amps)),)

    try:
        (sizes,) = map_free_ring_paths(ThermoParams(bead_count=P), n, np.random.default_rng(0), per_path)
    finally:
        pool.shutdown()
    assert len(submitted) == n // rows + 1 and n % rows == 1
    assert np.array_equal(sizes, np.r_[np.full(n - 1, rows), [1]])


@pytest.mark.parametrize("centroid", ["scalar", "per-sample"])
def test_blocked_draw_keeps_the_stream(centroid):
    """Pooled block i holds the normals of child i of rng.spawn(n_blocks),
    bit for bit, times free_ring_mode_std; its paths are the dense
    mode-basis paths of those amplitudes, and the caller's own stream is
    not advanced."""
    P, n = POOLED["P"], POOLED["n"]
    params = ThermoParams(beta=2.0, bead_count=P)
    rows = paths.BLOCK_ELEMS // P
    n_blocks = -(-n // rows)
    assert n_blocks > 1
    c = 0.4 if centroid == "scalar" else np.linspace(-2.0, 2.0, n)
    rng = np.random.default_rng(9)

    def per_path(block):
        assert block.pooled
        rows = slice(block.start, block.start + len(block.amps))
        return (*block.paths(c if np.ndim(c) == 0 else c[rows]).T, *block.amps.T)

    columns = map_free_ring_paths(params, n, rng, per_path)
    children = np.random.default_rng(9).spawn(n_blocks)
    want_amps = np.concatenate(
        [child.standard_normal((min(rows, n - i * rows), P - 1)) for i, child in enumerate(children)]
    ) * free_ring_mode_std(params)
    amps = np.stack(columns[P:], axis=1)
    assert np.array_equal(amps, want_amps)
    got = np.stack(columns[:P], axis=1)
    want = want_amps @ fourier_mode_basis(P).T + np.reshape(c, (-1, 1))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert rng.random() == np.random.default_rng(9).random()


@pytest.mark.parametrize("workers", [1, 5])
def test_results_independent_of_worker_count(monkeypatch, workers):
    """Bit-identical results with the default pool, one worker, and more
    workers than cores switching threads often."""
    spec = FourierNormSurface(mode=2, phi=0.5)
    params = ThermoParams(bead_count=POOLED["P"])

    def run():
        rep = rate_estimates(Eckart(), spec, 0.0, params, n_samples=POOLED["n"], seed=4, n_batches=25)
        orders = quaddiff_orders("half", P_list=(128, 256), n_paths=POOLED["n"], seed=5)
        return dataclasses.asdict(rep), {k: (s.points, s.fitted_exponent) for k, s in orders.series.items()}

    default = run()
    pool = ThreadPoolExecutor(max_workers=workers)
    monkeypatch.setattr(paths, "_pool", lambda: pool)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert run() == default
    finally:
        sys.setswitchinterval(interval)
        pool.shutdown()


@pytest.mark.parametrize(
    "spec", [FourierNormSurface(mode=2, phi=0.5), QuadDiffSurface(offset=3, phi=0.7)], ids=["fourier", "quaddiff"]
)
def test_pooled_matches_dense_draw(monkeypatch, spec):
    """The pooled irfft paths against dense mode-basis paths of the same
    normals, through the whole estimator."""
    params = ThermoParams(bead_count=POOLED["P"])
    basis = fourier_mode_basis(POOLED["P"])
    dense_blocks = []

    def dense_paths(amps, centroid, spec, out):
        dense_blocks.append(len(amps))
        np.matmul(amps, basis.T, out=out)
        out += centroid
        return out

    def estimate():
        return rate_estimates(Eckart(), spec, 0.0, params, n_samples=POOLED["n"], seed=6, n_batches=25)

    pooled = estimate()
    monkeypatch.setattr(paths, "_irfft_paths", dense_paths)
    dense = estimate()
    # every block was pooled, and its paths were the dense ones
    assert sum(dense_blocks) == POOLED["n"] and len(dense_blocks) > 1
    for key in ("kza_rpmd", "kza_ha", "ratio_ha_over_rpmd"):
        assert getattr(pooled, key) == pytest.approx(getattr(dense, key), rel=1e-12, abs=0.0)
    for key in ("kza_rpmd_err", "kza_ha_err", "ratio_err"):
        assert getattr(pooled, key) == pytest.approx(getattr(dense, key), rel=1e-9, abs=0.0)


def _two_worker_scratch(monkeypatch):
    """A fresh two-worker pool in place of the default one, and the pooled
    requests of ModeBlock.scratch as (thread, name, buffer) triples, which
    hold each buffer alive."""
    made = []
    scratch = paths.ModeBlock.scratch

    def spy(block, name, shape, dtype=float):
        out = scratch(block, name, shape, dtype)
        if block.pooled:
            made.append((threading.get_ident(), name, out.base))
        return out

    monkeypatch.setattr(paths.ModeBlock, "scratch", spy)
    pool = ThreadPoolExecutor(max_workers=2)
    monkeypatch.setattr(paths, "_pool", lambda: pool)
    return made, pool


def _buffers_per_worker(made):
    """The number of distinct buffers each (thread, name) was handed; made
    holds them all alive, so their ids are distinct."""
    return Counter((thread, name) for thread, name, _ in {(t, n, id(b)) for t, n, b in made})


def _assert_freed(made):
    """Every buffer in made dies once made lets go of it: the call that
    handed it out kept it in no store that outlives the call.  A worker
    drops its last block a moment after that block's result is set, so
    this waits up to 5 s."""
    refs = [weakref.ref(buf) for *_, buf in made]
    made.clear()
    deadline = time.monotonic() + 5.0
    while any(r() is not None for r in refs) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert refs and all(r() is None for r in refs)


def test_pooled_estimate_takes_each_buffer_once_per_worker(monkeypatch):
    """One pooled rate_estimates call of 10 blocks on two workers makes its
    "spectrum" and "paths" buffers at most once per worker thread, none in
    the calling thread, gives the same report as the default pool, and
    frees its buffers when it returns."""
    spec = FourierNormSurface(mode=2, phi=0.5)
    params = ThermoParams(bead_count=POOLED["P"])

    def estimate():
        return rate_estimates(Eckart(), spec, 0.0, params, n_samples=POOLED["n"], seed=8, n_batches=25)

    want = estimate()
    made, pool = _two_worker_scratch(monkeypatch)
    try:
        got = estimate()
        counts = _buffers_per_worker(made)
        assert {name for _, name in counts} == {"spectrum", "paths"}
        assert set(counts.values()) == {1}
        threads = {thread for thread, _ in counts}
        assert 1 <= len(threads) <= 2 and threading.get_ident() not in threads
        _assert_freed(made)
    finally:
        pool.shutdown()
    assert got == want


def test_quaddiff_orders_takes_no_path_buffers(monkeypatch):
    """quaddiff_orders reads only the amplitudes of its pooled blocks, so on
    two workers it asks for no path or spectrum buffer, only its rungs'
    amplitudes, in worker threads, with the same result as the default
    pool, and frees them when it returns."""

    def orders():
        rep = quaddiff_orders("one", P_list=(64, 128, 256), n_paths=POOLED["n"], seed=5)
        return {k: (s.points, s.fitted_exponent) for k, s in rep.series.items()}

    want = orders()
    made, pool = _two_worker_scratch(monkeypatch)
    try:
        got = orders()
        assert {name for _, name, _ in made} == {"rung"}
        assert threading.get_ident() not in {thread for thread, _, _ in made}
        _assert_freed(made)
    finally:
        pool.shutdown()
    assert got == want


def test_worker_exception_reaches_caller():
    params = ThermoParams(bead_count=POOLED["P"])
    calls = []
    lock = threading.Lock()

    def per_path(block):
        with lock:
            calls.append(len(block.amps))
            third = len(calls) == 3
        if third:
            raise SingularSurfaceError("norm term vanishes in block 3")
        return (block.amps[:, 0],)

    with pytest.raises(SingularSurfaceError, match="norm term vanishes in block 3"):
        map_free_ring_paths(params, POOLED["n"], np.random.default_rng(0), per_path)
    # the pool is still usable afterwards
    (first,) = map_free_ring_paths(params, POOLED["n"], np.random.default_rng(0), lambda b: (b.amps[:, 0],))
    assert first.shape == (POOLED["n"],)
