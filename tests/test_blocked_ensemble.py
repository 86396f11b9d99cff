"""The blocked, pooled evaluation of large free ring-polymer ensembles:
the irfft transform and its rfft inverse, the random stream, independence
of the worker count, agreement with the dense draw, and errors raised
inside a worker."""
import dataclasses
import sys
import threading
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

# n * P above paths.INLINE_ELEMS: this ensemble runs on the pool
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


def test_small_ensemble_runs_inline_and_bit_identical(monkeypatch):
    def no_pool():
        raise AssertionError("a small ensemble reached the pool")

    monkeypatch.setattr(paths, "_pool", no_pool)
    params = ThermoParams(bead_count=8)
    n = paths.INLINE_ELEMS // 8
    c = np.linspace(-1.0, 1.0, n)

    def per_path(block):
        assert not block.pooled and block.amps.shape == (n, 7)
        q = block.paths()
        return q.sum(axis=-1), q[:, 0], block.amps[:, 0], block.centroid

    got = map_free_ring_paths(params, n, np.random.default_rng(3), per_path, centroid=c)
    q = free_ring_amplitudes(params, n, np.random.default_rng(3)) @ fourier_mode_basis(8).T + c[:, None]
    assert np.array_equal(got[0], q.sum(axis=-1))
    assert np.array_equal(got[1], q[:, 0])
    assert np.array_equal(got[2], free_ring_amplitudes(params, n, np.random.default_rng(3))[:, 0])
    assert np.array_equal(got[3], c)


@pytest.mark.parametrize("centroid", ["scalar", "per-sample"])
def test_blocked_draw_keeps_the_stream(centroid):
    params = ThermoParams(beta=2.0, bead_count=POOLED["P"])
    n = POOLED["n"]
    assert n * POOLED["P"] > paths.INLINE_ELEMS
    c = 0.4 if centroid == "scalar" else np.linspace(-2.0, 2.0, n)
    rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)

    def per_path(block):
        assert block.pooled
        return (*block.paths().T, *block.amps.T)

    columns = map_free_ring_paths(params, n, rng_a, per_path, centroid=c)
    got = np.stack(columns[: POOLED["P"]], axis=1)
    want = free_ring_amplitudes(params, n, rng_b) @ fourier_mode_basis(POOLED["P"]).T + np.reshape(c, (-1, 1))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the amplitudes are the one draw's, bit for bit
    amps = np.stack(columns[POOLED["P"] :], axis=1)
    assert np.array_equal(amps, free_ring_amplitudes(params, n, np.random.default_rng(9)))
    # the same number of normals was consumed
    assert rng_a.random() == rng_b.random()


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
    params = ThermoParams(bead_count=POOLED["P"])

    def estimate():
        return rate_estimates(Eckart(), spec, 0.0, params, n_samples=POOLED["n"], seed=6, n_batches=25)

    pooled = estimate()
    monkeypatch.setattr(paths, "INLINE_ELEMS", 1 << 40)
    dense = estimate()
    for key in ("kza_rpmd", "kza_ha", "ratio_ha_over_rpmd"):
        assert getattr(pooled, key) == pytest.approx(getattr(dense, key), rel=1e-12, abs=0.0)
    for key in ("kza_rpmd_err", "kza_ha_err", "ratio_err"):
        assert getattr(pooled, key) == pytest.approx(getattr(dense, key), rel=1e-9, abs=0.0)


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
