import numpy as np
import pytest

from ringtst.params import ThermoParams
from ringtst.paths import (
    SinusoidalPathSpec,
    fourier_basis_eigenvalues,
    fourier_mode_basis,
    free_ring_amplitudes,
    sinusoidal_path,
)


def test_sinusoidal_spot_values():
    q = sinusoidal_path(SinusoidalPathSpec(q0=0.0, amplitude=1.0, mode=2, phase=0.0), 8)
    assert q[2] == pytest.approx(np.sqrt(2.0) * np.sin(np.pi), abs=1e-12)
    assert q[1] == pytest.approx(np.sqrt(2.0) * np.sin(np.pi / 2), abs=1e-12)


def test_sinusoidal_degenerate_modes():
    q = sinusoidal_path(SinusoidalPathSpec(q0=0.0, amplitude=1.0, mode=0, phase=0.7), 6)
    assert np.allclose(q, np.sqrt(2.0) * np.sin(0.7))
    q = sinusoidal_path(SinusoidalPathSpec(q0=1.0, amplitude=0.0, mode=3, phase=0.2), 6)
    assert np.allclose(q, 1.0)


def test_mode_basis_orthonormal():
    P = 12
    B = fourier_mode_basis(P)
    assert B.shape == (P, P - 1)
    assert B.T @ B == pytest.approx(np.eye(P - 1), abs=1e-12)
    # columns are orthogonal to the constant vector
    assert np.ones(P) @ B == pytest.approx(np.zeros(P - 1), abs=1e-12)


def test_basis_diagonalizes_ring_laplacian():
    P = 10
    B = fourier_mode_basis(P)
    L = 2 * np.eye(P) - np.roll(np.eye(P), 1, 0) - np.roll(np.eye(P), -1, 0)
    lam = fourier_basis_eigenvalues(P)
    assert B.T @ L @ B == pytest.approx(np.diag(lam), abs=1e-10)


def loop_basis_and_eigenvalues(P):
    """The tables built column by column, the reference for the array
    expressions."""
    k = np.arange(P)
    cols, vals = [], []
    for l in range(1, P // 2 + 1):
        lam = 4.0 * np.sin(np.pi * l / P) ** 2
        if 2 * l == P:
            cols.append(np.cos(np.pi * k) / np.sqrt(P))
            vals.append(lam)
        else:
            cols.append(np.sqrt(2.0 / P) * np.cos(2.0 * np.pi * l * k / P))
            cols.append(np.sqrt(2.0 / P) * np.sin(2.0 * np.pi * l * k / P))
            vals.extend((lam, lam))
    return np.stack(cols, axis=1), np.asarray(vals)


@pytest.mark.parametrize("P", [2, 3, 4, 7, 16, 33, 216, 256, 1024])
def test_mode_tables_match_loop_reference(P):
    basis, lam = loop_basis_and_eigenvalues(P)
    assert np.array_equal(fourier_mode_basis(P), basis)
    # the scalar ** 2 of the loop goes through libm pow, which at some P
    # (216 here) is one ulp off the correctly rounded square of the array
    np.testing.assert_array_max_ulp(fourier_basis_eigenvalues(P), lam, maxulp=1)
    # offset n: 4 sin^2(pi n l / P), the eigenvalues of 2 q_k - q_{k+n} - q_{k-n}
    for n in {1, 2, P // 2, P - 1} - {0}:
        shift = np.roll(np.eye(P), n, 0) + np.roll(np.eye(P), -n, 0)
        diag = basis.T @ (2.0 * np.eye(P) - shift) @ basis
        assert fourier_basis_eigenvalues(P, n) == pytest.approx(np.diag(diag), abs=1e-10)


def test_free_ring_paths_moments():
    params = ThermoParams(beta=3.0, bead_count=16)
    rng = np.random.default_rng(5)
    q = free_ring_amplitudes(params, 40000, rng) @ fourier_mode_basis(16).T
    # links of the free ring polymer: total variance (P-1) eps hbar^2 / m
    links = q - np.roll(q, -1, axis=-1)
    var = np.var(links)
    target = params.epsilon * (1 - 1 / params.bead_count)
    assert var == pytest.approx(target, rel=0.03)
    # centroid pinned at zero by default
    assert np.mean(q, axis=-1) == pytest.approx(np.zeros(40000), abs=1e-12)


def test_free_ring_paths_centroid_array():
    params = ThermoParams(bead_count=8)
    rng = np.random.default_rng(1)
    c = np.array([0.5, -1.0, 2.0])
    q = free_ring_amplitudes(params, 3, rng) @ fourier_mode_basis(8).T + c[:, None]
    assert np.mean(q, axis=-1) == pytest.approx(c, abs=1e-12)
