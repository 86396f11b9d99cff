"""Property tests over random bead counts, surfaces, phases and paths:
cyclic invariance of f and of the ring-polymer density, and the gradient
of f against central finite differences."""
import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reference import f_eval, fourier_mode_norm, quad_diff_norm
from ringtst.density import log_rho_ring
from ringtst.params import ThermoParams
from ringtst.potentials import DoubleWell, Eckart, FreeParticle, Harmonic
from ringtst.surfaces import CentroidSurface, FourierNormSurface, QuadDiffSurface, surface_factors


@st.composite
def surfaces(draw, P):
    phi = draw(st.floats(-1.5, 1.5))
    kind = draw(st.sampled_from(["centroid", "fourier_norm", "quad_diff"]))
    if kind == "centroid":
        return CentroidSurface()
    if kind == "fourier_norm":
        return FourierNormSurface(mode=draw(st.integers(1, P - 1)), phi=phi)
    return QuadDiffSurface(offset=draw(st.integers(1, P - 1)), phi=phi)


@st.composite
def paths(draw, P):
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.floats(0.1, 3.0))
    return scale * np.random.default_rng(seed).standard_normal(P) + draw(st.floats(-3.0, 3.0))


@st.composite
def surface_path_shift(draw, max_beads=64):
    P = draw(st.integers(2, max_beads))
    return draw(surfaces(P)), draw(paths(P)), draw(st.integers(1, P))


def norm_term(spec, q):
    if isinstance(spec, FourierNormSurface):
        return fourier_mode_norm(q, spec.mode)
    if isinstance(spec, QuadDiffSurface):
        return quad_diff_norm(q, spec.offset)
    return np.inf


@settings(max_examples=80, deadline=None)
@given(surface_path_shift())
def test_f_eval_cyclic_invariance(case):
    spec, q, shift = case
    base = f_eval(spec, q)
    moved = f_eval(spec, np.roll(q, shift))
    assert abs(moved - base) <= 1e-12 * (1.0 + np.max(np.abs(q)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 128),
    st.sampled_from([FreeParticle(), Harmonic(omega=0.7), Eckart(v0=1.0, a=1.0), DoubleWell(v0=1.0, q0=1.0)]),
    st.floats(0.2, 8.0),
    st.data(),
)
def test_log_rho_ring_cyclic_invariance(P, pot, beta, data):
    q = data.draw(paths(P))
    shift = data.draw(st.integers(1, P))
    params = ThermoParams(beta=beta, bead_count=P)
    base = log_rho_ring(q, params, pot)
    moved = log_rho_ring(np.roll(q, shift), params, pot)
    # each of the three sums rounds at eps times its own magnitude
    links = q - np.roll(q, -1)
    scale = (
        abs(0.5 * P * np.log(params.mass * P / (2.0 * np.pi * beta * params.hbar**2)))
        + params.epsilon * np.sum(np.abs(pot.value(q)))
        + params.spring_coefficient * np.sum(links**2)
    )
    assert abs(moved - base) <= 1e-13 * scale


def offset_path(P, seed):
    return 2.5 + 0.8 * np.random.default_rng(seed).standard_normal(P)


@settings(max_examples=60, deadline=None)
@given(surface_path_shift(max_beads=32))
# the Nyquist mode, mode P - 1 and offset P / 2, on paths away from the origin
@example((FourierNormSurface(mode=8, phi=0.6), offset_path(16, 11), 1))
@example((FourierNormSurface(mode=8, phi=-1.2), offset_path(9, 12), 1))
@example((QuadDiffSurface(offset=6, phi=0.9), offset_path(12, 13), 1))
def test_grad_f_matches_central_differences(case):
    spec, q, _ = case
    # the norm term's curvature grows like 1 / norm: keep clear of its kink
    assume(norm_term(spec, q) > 0.1)
    sf = surface_factors(spec, q)
    g = np.sqrt(sf.b_p) * sf.t_vec
    h = 1e-6
    P = q.shape[-1]
    steps = h * np.eye(P)
    fd = (f_eval(spec, q + steps) - f_eval(spec, q - steps)) / (2.0 * h)
    assert np.all(np.abs(g - fd) <= 1e-7 * (1.0 + np.max(np.abs(q))))
