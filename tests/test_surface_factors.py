"""surface_factors and mode_factors against the separate rolled-sum
definitions and the reference f, their invariants, and the
one-surface-pass-per-path guarantee of their callers: ensembles and the
grid oracle evaluate each path once, in Fourier-mode coordinates."""
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reference import f_eval, fourier_mode_norm, quad_diff_norm
from ringtst import paths, rates, scaling, surfaces
from ringtst.params import ThermoParams
from ringtst.paths import BLOCK_ELEMS
from ringtst.potentials import Eckart, Harmonic
from ringtst.rates import ORACLE_CELLS, grid_oracle_rate, integrand_factors, rate_estimates
from ringtst.scaling import quaddiff_orders
from ringtst.surfaces import (
    CentroidSurface,
    FourierNormSurface,
    QuadDiffSurface,
    SingularSurfaceError,
    g_p,
    mode_factors,
    surface_factors,
)

TOL = 1e-12


def reference_factors(spec, q, params):
    """The definitions written out with one rolled copy per neighbour sum,
    and f from the reference f_eval.  The mode sums are taken of q - qbar,
    which is exact since cos and sin of 2 pi n j / P sum to zero over j:
    uncentred, they round at the scale of |sum_j q_j|, which on offset paths
    with a small mode amplitude exceeds TOL of T.  The centring and the mode
    sums are carried in extended precision: T follows the direction of
    (C, S), so where the mode norm is small against |q - qbar| their
    rounding in double is amplified by that ratio."""
    q = np.asarray(q, dtype=float)
    P = q.shape[-1]
    if isinstance(spec, CentroidSurface):
        g = np.full(q.shape, 1.0 / P)
    elif isinstance(spec, FourierNormSurface):
        x = q.astype(np.longdouble)
        x -= np.mean(x, axis=-1, keepdims=True)
        ang_x = 2 * np.arccos(np.longdouble(-1.0)) * ((spec.mode * np.arange(P)) % P) / P
        c = np.sum(np.cos(ang_x) * x, axis=-1, keepdims=True).astype(float)
        s = np.sum(np.sin(ang_x) * x, axis=-1, keepdims=True).astype(float)
        ang = 2.0 * np.pi * spec.mode * np.arange(P) / P
        conv = np.cos(ang) * c + np.sin(ang) * s
        g = np.cos(spec.phi) / P + np.sqrt(2.0) * np.sin(spec.phi) * conv / (P * np.hypot(c, s))
    else:
        n = spec.offset
        diff = q - np.roll(q, -n, axis=-1)
        D = np.sqrt(np.sum(diff**2, axis=-1, keepdims=True))
        # 2 q_j - q_{j+n} - q_{j-n} from differences of near-equal beads,
        # which are exact: 2 q_j - q_{j+n} rounds at eps |q|
        curv = diff - np.roll(diff, n, axis=-1)
        g = np.cos(spec.phi) / P + np.sin(spec.phi) * curv / (spec.norm_factor(P) * D)
    B = np.sum(g**2, axis=-1)
    T = g / np.sqrt(B)[..., None]
    T_prev, T_next = np.roll(T, 1, axis=-1), np.roll(T, -1, axis=-1)
    coef = params.mass * P / (2.0 * params.beta * params.hbar)
    return {
        "f": f_eval(spec, q),
        "b_p": B,
        "t_vec": T,
        "flux_sum": np.sum(g * 0.25 * (T_prev + 2.0 * T + T_next), axis=-1),
        "sum_difference": 0.25 * np.sum(g * (T_prev + T_next - 2.0 * T), axis=-1),
        "g_p": coef * np.sum((np.roll(q, -1, axis=-1) - q) * T, axis=-1),
    }


def scales(q, params, B):
    """Bounds on each factor's magnitude: |f| <= |q| sqrt(B_P) and
    |g_P| <= coef |q_{k+1} - q_k| by Cauchy-Schwarz, since f = q . grad f
    and |T| = 1; |flux|, |sum-difference| <= 2 sqrt(B_P)."""
    P = q.shape[-1]
    coef = params.mass * P / (2.0 * params.beta * params.hbar)
    dq = np.roll(q, -1, axis=-1) - q
    return {
        "f": np.sqrt(np.sum(q**2, axis=-1) * B),
        "b_p": B,
        "t_vec": np.ones_like(q),
        "flux_sum": 2.0 * np.sqrt(B),
        "sum_difference": 2.0 * np.sqrt(B),
        "g_p": coef * np.sqrt(np.sum(dq**2, axis=-1)),
    }


@st.composite
def surface_and_paths(draw):
    P = draw(st.integers(2, 64))
    phi = draw(st.floats(-1.5, 1.5))
    kind = draw(st.sampled_from(["centroid", "fourier_norm", "quad_diff"]))
    if kind == "centroid":
        spec = CentroidSurface()
    elif kind == "fourier_norm":
        spec = FourierNormSurface(mode=draw(st.integers(1, P - 1)), phi=phi)
    else:
        spec = QuadDiffSurface(offset=draw(st.integers(1, P - 1)), phi=phi)
    block = max(1, BLOCK_ELEMS // P)
    rows = draw(st.sampled_from([None, 1, 7, block - 1, block, block + 1, 2 * block + 3]))
    shape = (P,) if rows is None else (rows, P)
    seed = draw(st.integers(0, 2**32 - 1))
    # 1e-6: near-constant paths far from the origin
    spread = draw(st.sampled_from([0.7, 1e-3, 1e-6]))
    q = spread * np.random.default_rng(seed).standard_normal(shape) + draw(st.floats(-2.0, 2.0))
    # among thousands of near-constant rows, one can come within rounding
    # of the singular floor (1e-12 of max(1, |q|)), where the evaluators
    # may rightly disagree on raising
    if not isinstance(spec, CentroidSurface):
        norm = fourier_mode_norm(q, spec.mode) if kind == "fourier_norm" else quad_diff_norm(q, spec.offset)
        assume(np.all(norm > 1e-10 * np.maximum(1.0, np.sqrt(np.sum(q**2, axis=-1)))))
    return spec, q, ThermoParams(bead_count=P, beta=draw(st.floats(0.5, 4.0)))


def assert_close(name, got, want, scale):
    got, want, scale = np.asarray(got), np.asarray(want), np.asarray(scale)
    assert got.shape == want.shape, name
    err = np.abs(got - want)
    assert np.all(err <= TOL * scale), f"{name}: worst {np.max(err / scale):.2e} of its scale"


def _offset_paths(seed, shape, offset, spread=0.7):
    return spread * np.random.default_rng(seed).standard_normal(shape) + offset


@settings(max_examples=60, deadline=None)
@given(surface_and_paths())
# Fourier-norm modes 1 and P - 1, the ends of the accepted range, on offset paths
@example((FourierNormSurface(mode=1, phi=0.6), _offset_paths(1, (7, 12), 1.5), ThermoParams(bead_count=12)))
@example((FourierNormSurface(mode=11, phi=-0.9), _offset_paths(2, (7, 12), -0.4), ThermoParams(bead_count=12)))
# the Nyquist mode, and its neighbours, on near-constant paths
@example((FourierNormSurface(mode=32, phi=0.8), _offset_paths(3, (9, 64), 1.7, 1e-6), ThermoParams(bead_count=64)))
@example((FourierNormSurface(mode=1, phi=-1.2), _offset_paths(4, (9, 2), -2.0, 1e-6), ThermoParams(bead_count=2)))
@example((FourierNormSurface(mode=33, phi=0.4), _offset_paths(5, (9, 64), 2.0, 1e-6), ThermoParams(bead_count=64)))
@example((QuadDiffSurface(offset=32, phi=1.1), _offset_paths(6, (9, 64), -1.9, 1e-6), ThermoParams(bead_count=64)))
@example((QuadDiffSurface(offset=62, phi=-0.5), _offset_paths(7, (9, 63), 1.3, 1e-6), ThermoParams(bead_count=63)))
# an uncentred reference is off by 1.19e-12 in T here; surface_factors is within 1.7e-14 of the exact value
@example((FourierNormSurface(mode=24, phi=1.0), _offset_paths(24, (3275, 40), 2.0), ThermoParams(bead_count=40)))
# row 1392 has L_n = 1.0e-3 |q - qbar|: amplitudes from a dense projection
# of q - qbar against a reference summed in double were 1.23e-12 apart in T;
# the rfft amplitudes and the extended-precision reference are 3.3e-14 apart
@example((FourierNormSurface(mode=24, phi=1.0), _offset_paths(43, (3047, 43), 2.0), ThermoParams(bead_count=43)))
def test_surface_factors_match_rolled_definitions(case):
    """The real-space entry against the definitions.  It is the amplitude
    entry fed the amplitudes and centroids of paths.mode_amplitudes (one
    centred rfft); a dense projection of q - qbar on fourier_mode_basis
    rounds (C, S) too coarsely for TOL of T on ill-conditioned rows."""
    spec, q, params = case
    P = q.shape[-1]
    ref = reference_factors(spec, q, params)
    sc = scales(q, params, ref["b_p"])
    sf = surface_factors(spec, q, params)
    for name, want in ref.items():
        assert_close(name, getattr(sf, name), want, sc[name])
    k = 3
    assert_close("t_diff", sf.t_diff(k), ref["t_vec"][..., (k - 1) % P] - ref["t_vec"][..., k % P], 2.0)


@settings(max_examples=40, deadline=None)
@given(surface_and_paths(), st.integers(1, 63))
# thousands of rows offset by 2: a projection of q rather than q - qbar
# rounds (C, S) at the scale of |q|, and T moved by 1.1e-12 of its scale
@example(
    (FourierNormSurface(mode=26, phi=1.0), _offset_paths(5, (3854, 34), 2.0), ThermoParams(bead_count=34, beta=1.0)),
    3,
)
def test_surface_factors_cyclic_invariance(case, shift):
    spec, q, params = case
    s = shift % q.shape[-1]
    base = surface_factors(spec, q, params)
    moved = surface_factors(spec, np.roll(q, s, axis=-1), params)
    sc = scales(q, params, base.b_p)
    for name in ("f", "b_p", "flux_sum", "sum_difference", "g_p"):
        assert_close(name, getattr(moved, name), getattr(base, name), sc[name])
    assert_close("t_vec", moved.t_vec, np.roll(base.t_vec, s, axis=-1), 1.0)


@settings(max_examples=40, deadline=None)
@given(surface_and_paths())
# two nearly equal beads far from the origin: a cyclic sum over absolute
# positions rounds at eps |q|, far above what the 2.4e-6 bead spacing allows
@example((FourierNormSurface(mode=1, phi=1.0), np.array([1.453079861, 1.453082256]), ThermoParams(bead_count=2)))
def test_link_and_cyclic_g_p_agree(case):
    spec, q, params = case
    sf = surface_factors(spec, q, params)
    cyc = g_p(sf.t_vec, q, params)
    assert_close("g_p", sf.g_p, cyc, scales(q, params, sf.b_p)["g_p"])


@pytest.mark.parametrize("P", [2, 3, 8, 1024])
def test_centroid_closed_form_matches_generic(P):
    """The centroid's closed form against the Fourier-norm evaluation at
    phi = 0, whose gradient is the same 1/P on every bead; its constant
    factors are scalars broadcast over the paths, not stored per path."""
    q = 0.7 * np.random.default_rng(P).standard_normal((50, P)) + 1.3
    params = ThermoParams(bead_count=P)
    closed = surface_factors(CentroidSurface(), q, params)
    generic = surface_factors(FourierNormSurface(mode=1, phi=0.0), q, params)
    sc = scales(q, params, generic.b_p)
    for name in ("f", "b_p", "t_vec", "flux_sum", "sum_difference", "g_p"):
        got, want = getattr(closed, name), getattr(generic, name)
        assert np.all(np.abs(got - want) <= 1e-15 * sc[name]), name
    assert np.all(closed.g_p == 0.0)
    for name in ("b_p", "flux_sum", "sum_difference", "g_p"):
        assert getattr(closed, name).strides == (0,), name
    block = mode_factors(CentroidSurface(), np.ones((4, 5, P - 1)), 0.0, params)
    for name in ("b_p", "flux_sum", "sum_difference", "g_p"):
        x = getattr(block, name)
        assert x.shape == (4, 5) and x.strides == (0, 0), name


def test_single_path_gives_scalars():
    spec = QuadDiffSurface(offset=2, phi=0.6)
    q = np.random.default_rng(0).standard_normal(9)
    sf = surface_factors(spec, q, ThermoParams(bead_count=9))
    for x in (sf.f, sf.b_p, sf.flux_sum, sf.sum_difference, sf.g_p):
        assert np.ndim(x) == 0
    assert sf.t_vec.shape == (9,)
    assert surface_factors(spec, q).g_p is None


def test_singular_row_raises_from_any_block():
    P = 16
    q = np.random.default_rng(1).standard_normal((3 * (BLOCK_ELEMS // P), P))
    q[-1] = 1.0  # constant path: zero norm term, in the last row
    amps = np.random.default_rng(2).standard_normal((3 * (BLOCK_ELEMS // P), P - 1))
    amps[-1] = 0.0
    for spec in (FourierNormSurface(mode=3, phi=0.5), QuadDiffSurface(offset=5, phi=0.5)):
        with pytest.raises(SingularSurfaceError):
            surface_factors(spec, q)
        with pytest.raises(SingularSurfaceError):
            mode_factors(spec, amps, 1.0)


@pytest.fixture
def mode_rows(monkeypatch):
    """Counts the path rows mode_factors is evaluated on, through the
    surfaces module and the names rates and scaling import."""
    rows = []
    inner = surfaces.mode_factors

    def counted(spec, amps, centroid, params=None):
        rows.append(int(np.prod(np.shape(amps)[:-1])))
        return inner(spec, amps, centroid, params)

    for module in (surfaces, rates, scaling):
        monkeypatch.setattr(module, "mode_factors", counted)
    return rows


@pytest.mark.parametrize(
    "spec",
    [CentroidSurface(), FourierNormSurface(mode=2, phi=0.5), QuadDiffSurface(offset=3, phi=0.7)],
    ids=["centroid", "fourier", "quaddiff"],
)
def test_integrand_factors_one_gradient_per_path(mode_rows, spec):
    """The gradient quantities of each path come from one mode_factors
    evaluation, in closed form."""
    P, n = 32, 3 * (BLOCK_ELEMS // 32) + 5
    q = np.random.default_rng(2).standard_normal((n, P))
    params = ThermoParams(bead_count=P)
    integrand_factors(surface_factors(spec, q, params), params)
    assert mode_rows == [n]


@pytest.mark.parametrize(
    "spec",
    [CentroidSurface(), FourierNormSurface(mode=1, phi=0.5), QuadDiffSurface(offset=1, phi=0.7)],
    ids=["centroid", "fourier", "quaddiff"],
)
def test_grid_oracle_one_surface_pass_per_node(mode_rows, spec):
    grid_oracle_rate(Harmonic(omega=1.0), spec, 0.0, ThermoParams(bead_count=3))
    # coarse and refined grid over the P - 1 = 2 fluctuation modes
    assert mode_rows == [ORACLE_CELLS**2, (2 * ORACLE_CELLS) ** 2]


def test_rate_estimates_one_gradient_per_path(mode_rows):
    # f comes from the same mode_factors pass
    spec = FourierNormSurface(mode=2, phi=0.5)
    rate_estimates(Eckart(), spec, 0.0, ThermoParams(bead_count=16), n_samples=2000, seed=1)
    assert mode_rows == [2000]
    # n P above paths.BLOCK_ELEMS at P >= POOL_MIN_BEADS: blocks evaluated on the worker pool
    mode_rows.clear()
    rate_estimates(Eckart(), spec, 0.0, ThermoParams(bead_count=256), n_samples=5000, seed=1)
    assert sum(mode_rows) == 5000 and len(mode_rows) == -(-5000 // (BLOCK_ELEMS // 256))


def test_quaddiff_orders_one_gradient_per_path(mode_rows, monkeypatch):
    """One mode_factors pass per path, and no real-space path: neither the
    paths of a block, nor t_vec, nor the real-space entry."""

    def forbidden(*args, **kwargs):
        raise AssertionError("quaddiff_orders built a real-space path")

    monkeypatch.setattr(paths.ModeBlock, "paths", forbidden)
    monkeypatch.setattr(paths, "_irfft_paths", forbidden)
    for module in (paths, surfaces):
        monkeypatch.setattr(module, "mode_amplitudes", forbidden)
    quaddiff_orders("half", P_list=(16, 32, 64), n_paths=500, seed=3)
    assert mode_rows == [500, 500, 500]
    # n P above paths.BLOCK_ELEMS at P >= POOL_MIN_BEADS: pooled blocks
    mode_rows.clear()
    quaddiff_orders("one", P_list=(128, 256), n_paths=5000, seed=3)
    assert sum(mode_rows) == 2 * 5000
