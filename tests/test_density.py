import numpy as np
import pytest

from ringtst.density import (
    log_rho_ring,
    momentum_avg_exact_free,
    momentum_avg_leading,
)
from ringtst.params import ThermoParams
from ringtst.paths import cyclic_shift
from ringtst.potentials import FreeParticle, Harmonic


def test_rho_free_particle_spot_value():
    params = ThermoParams(bead_count=2)
    q = np.array([0.5, 0.5])
    assert np.exp(log_rho_ring(q, params, FreeParticle())) == pytest.approx(1.0 / np.pi, rel=1e-12)


def test_rho_harmonic_spot_value():
    params = ThermoParams(bead_count=4)
    q = np.zeros(4)
    assert np.exp(log_rho_ring(q, params, Harmonic(omega=1.0))) == pytest.approx(
        (4.0 / (2.0 * np.pi)) ** 2, rel=1e-12
    )


def test_log_rho_cyclic_invariance_exact():
    params = ThermoParams(beta=2.0, bead_count=9)
    rng = np.random.default_rng(3)
    q = rng.standard_normal(9)
    pot = Harmonic(omega=0.7)
    base = log_rho_ring(q, params, pot)
    for s in range(1, 9):
        assert log_rho_ring(cyclic_shift(q, s), params, pot) == pytest.approx(
            base, rel=1e-14
        )


def test_log_rho_reflection_symmetry_even_potential():
    params = ThermoParams(bead_count=6)
    rng = np.random.default_rng(4)
    q = rng.standard_normal(6)
    pot = Harmonic(omega=1.2)
    assert log_rho_ring(-q, params, pot) == pytest.approx(
        log_rho_ring(q, params, pot), rel=1e-14
    )


def test_log_rho_batched():
    params = ThermoParams(bead_count=5)
    rng = np.random.default_rng(5)
    q = rng.standard_normal((7, 5))
    pot = Harmonic(omega=1.0)
    batch = log_rho_ring(q, params, pot)
    single = [log_rho_ring(row, params, pot) for row in q]
    assert batch == pytest.approx(single)


def test_log_rho_survives_large_P():
    params = ThermoParams(bead_count=2048)
    q = np.zeros(2048)
    val = log_rho_ring(q, params, FreeParticle())
    # finite in log domain even though the linear-domain weight overflows
    assert np.isfinite(val)
    assert val > 709.0


def test_momentum_leading_spot_value():
    params = ThermoParams(bead_count=4)
    q = np.array([0.3, 0.0, 0.0, 0.0])
    eta = np.zeros(4)
    # q_{k-1} - q_k = 0.3 at k=1: (i m P / hbar beta) * 0.3 = 1.2i
    assert momentum_avg_leading("plus", 1, q, eta, params) == pytest.approx(1.2j)


def test_momentum_constant_path_zero():
    params = ThermoParams(bead_count=4)
    q = np.full(4, 0.8)
    eta = np.zeros(4)
    assert momentum_avg_leading("plus", 2, q, eta, params) == 0.0
    assert momentum_avg_leading("minus", 2, q, eta, params) == 0.0


def test_momentum_plus_equals_shifted_minus():
    params = ThermoParams(bead_count=6)
    rng = np.random.default_rng(6)
    q = rng.standard_normal(6)
    eta = np.zeros(6)
    for k in range(6):
        assert momentum_avg_leading("plus", k, q, eta, params) == pytest.approx(
            momentum_avg_leading("minus", k - 1, q, eta, params)
        )


def test_momentum_exact_free_matches_leading():
    params = ThermoParams(bead_count=8)
    rng = np.random.default_rng(7)
    q = rng.standard_normal(8)
    eta = np.zeros(8)
    eps = params.epsilon
    for k in range(8):
        lead = momentum_avg_leading("plus", k, q, eta, params)
        exact = momentum_avg_exact_free(q[k - 1], q[k], eps, params)
        assert lead == pytest.approx(exact, rel=1e-12)


def test_momentum_exact_free_spot():
    params = ThermoParams(bead_count=4)
    v = momentum_avg_exact_free(0.3, 0.0, 0.25, params)
    assert v == pytest.approx(1.2j)
    assert v.real == 0.0
    assert momentum_avg_exact_free(0.4, 0.4, 0.25, params) == 0.0
