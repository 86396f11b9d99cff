import numpy as np
import pytest

from ringtst.density import log_rho_ring
from ringtst.params import ThermoParams
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
        assert log_rho_ring(np.roll(q, s), params, pot) == pytest.approx(
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

