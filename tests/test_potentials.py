import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ringtst.potentials import DoubleWell, Eckart, FreeParticle, Harmonic, from_config

ALL = [
    FreeParticle(),
    Harmonic(omega=1.3),
    Eckart(v0=2.0, a=0.7),
    DoubleWell(v0=1.5, q0=0.8),
]


@pytest.mark.parametrize("pot", ALL, ids=lambda p: type(p).__name__)
def test_value_finite(pot):
    xs = np.linspace(-50, 50, 101)
    assert np.all(np.isfinite(pot.value(xs)))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(ALL + [Eckart(v0=0.3, a=3.1)]),
    arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 9)),
        # |x / a| beyond about 710 overflows Eckart's cosh to inf
        elements=st.floats(-1e4, 1e4) | st.floats(-3.0, 3.0),
    ),
)
def test_value_in_place_is_bit_identical(pot, x):
    """value(x, out=x) and value(x, out=<new array>) give the bits of value(x)."""
    with np.errstate(over="ignore"):
        want = pot.value(x)
        fresh = np.empty_like(x)
        got_fresh = pot.value(x, out=fresh)
        y = x.copy()
        got_inplace = pot.value(y, out=y)
    assert got_fresh is fresh and got_inplace is y
    assert got_fresh.tobytes() == want.tobytes()
    assert got_inplace.tobytes() == want.tobytes()


def test_eckart_barrier_shape():
    pot = Eckart(v0=2.0, a=0.5)
    assert pot.value(0.0) == pytest.approx(2.0)
    assert pot.value(10.0) < 1e-6


def test_double_well_minima():
    pot = DoubleWell(v0=1.0, q0=1.5)
    assert pot.value(1.5) == pytest.approx(0.0, abs=1e-12)
    assert pot.value(-1.5) == pytest.approx(0.0, abs=1e-12)
    assert pot.value(0.0) == pytest.approx(1.0)


def test_from_config_round_trip():
    assert isinstance(from_config({"kind": "free"}), FreeParticle)
    h = from_config({"kind": "harmonic", "omega": 2.0})
    assert isinstance(h, Harmonic) and h.omega == 2.0
    assert isinstance(from_config({"kind": "eckart", "v0": 1.0, "a": 1.0}), Eckart)
    assert isinstance(
        from_config({"kind": "double_well", "v0": 1.0, "q0": 1.0}), DoubleWell
    )
    with pytest.raises(ValueError):
        from_config({"kind": "lennard_jones"})
