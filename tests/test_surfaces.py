import numpy as np
import pytest

from reference import (
    f_eval,
    fourier_mode_norm,
    gp_sinusoidal,
    half_mode_b_p,
    half_mode_gp,
    half_mode_tdiff_abs,
    mode_norm_sinusoidal,
    sum_difference_figure,
    sum_difference_gradient,
    tdiff_gradient,
)
from ringtst.closed_forms import tdiff_figure
from ringtst.params import ThermoParams
from ringtst.paths import SinusoidalPathSpec, sinusoidal_path
from ringtst.surfaces import (
    CentroidSurface,
    FourierNormSurface,
    QuadDiffSurface,
    SingularSurfaceError,
    equivalence_diagnostics,
    g_p,
    surface_factors,
)

PARAMS = ThermoParams(bead_count=16)

SURFACES = [
    CentroidSurface(),
    FourierNormSurface(mode=3, phi=np.pi / 4),
    FourierNormSurface(mode=8, phi=np.pi / 3),
    QuadDiffSurface(offset=1, phi=np.pi / 4),
    QuadDiffSurface(offset=8, phi=np.pi / 4),
]


def _ids(s):
    return type(s).__name__ + str(getattr(s, "mode", getattr(s, "offset", "")))


def gradient(spec, q):
    """df/dq_k = sqrt(B_P) T_k from one surface_factors pass."""
    sf = surface_factors(spec, q)
    return np.sqrt(sf.b_p)[..., None] * sf.t_vec


@pytest.mark.parametrize("spec", SURFACES, ids=_ids)
def test_gradient_matches_finite_differences(spec):
    rng = np.random.default_rng(0)
    q = rng.standard_normal(16)
    g = gradient(spec, q)
    h = 1e-6
    for k in range(16):
        e = np.zeros(16)
        e[k] = h
        fd = (f_eval(spec, q + e) - f_eval(spec, q - e)) / (2 * h)
        assert g[k] == pytest.approx(fd, rel=1e-6, abs=1e-10)


@pytest.mark.parametrize("spec", SURFACES, ids=_ids)
def test_cyclic_invariance_of_f(spec):
    rng = np.random.default_rng(1)
    q = rng.standard_normal(16)
    base = f_eval(spec, q)
    for s in range(1, 16):
        assert f_eval(spec, np.roll(q, s)) == pytest.approx(base, abs=1e-12)


def test_fourier_norm_b_p_path_independent():
    spec = FourierNormSurface(mode=3, phi=np.pi / 4)
    rng = np.random.default_rng(2)
    q = rng.standard_normal((200, 16))
    assert surface_factors(spec, q).b_p == pytest.approx(np.full(200, 1.0 / 16.0), rel=1e-12)


def test_gp_link_and_cyclic_forms_agree():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((1000, 16))
    for spec in SURFACES:
        sf = surface_factors(spec, q, PARAMS)
        link, cyc = sf.g_p, g_p(sf.t_vec, q, PARAMS)
        tol = 1e-10 * np.maximum(np.abs(link), 1.0)
        assert np.all(np.abs(link - cyc) <= tol)


@pytest.mark.parametrize("spec", SURFACES, ids=_ids)
def test_t_vec_unit_norm_and_flux_identity(spec):
    rng = np.random.default_rng(4)
    q = rng.standard_normal((50, 16))
    sf = surface_factors(spec, q)
    T = sf.t_vec
    assert np.sum(T**2, axis=-1) == pytest.approx(np.ones(50), abs=1e-12)
    lhs = np.sum(gradient(spec, q) * T, axis=-1)
    assert lhs == pytest.approx(np.sqrt(sf.b_p), abs=1e-12)


def test_flux_sum_decomposition():
    rng = np.random.default_rng(5)
    q = rng.standard_normal((20, 16))
    for spec in SURFACES:
        sf = surface_factors(spec, q)
        assert sf.flux_sum == pytest.approx(np.sqrt(sf.b_p) + sf.sum_difference, abs=1e-12)


def test_centroid_trivia():
    q = np.random.default_rng(6).standard_normal(16)
    spec = CentroidSurface()
    assert np.all(gradient(spec, q) == 1.0 / 16.0)
    sf = surface_factors(spec, q)
    assert np.all(sf.t_vec == 0.25)
    assert g_p(sf.t_vec, q, PARAMS) == pytest.approx(0.0, abs=1e-12)
    assert sf.t_diff(5) == 0.0
    assert sf.sum_difference == pytest.approx(0.0, abs=1e-15)


def test_f_eval_matching_sinusoidal_closed_form():
    # q0 cos(phi) + A sin(phi) for a matching-mode path
    phi = np.pi / 6
    spec = FourierNormSurface(mode=2, phi=phi)
    q = sinusoidal_path(SinusoidalPathSpec(q0=1.0, amplitude=0.5, mode=2, phase=0.3), 16)
    assert f_eval(spec, q) == pytest.approx(
        np.cos(phi) + 0.5 * np.sin(phi), rel=1e-12
    )
    assert f_eval(spec, q) == pytest.approx(1.1160254, abs=1e-7)


def test_t_vec_sinusoidal_closed_form():
    phi = 0.9
    n, P = 3, 16
    spec = FourierNormSurface(mode=n, phi=phi)
    alpha = 0.4
    q = sinusoidal_path(SinusoidalPathSpec(0.0, 1.0, n, alpha), P)
    k = np.arange(P)
    expected = (np.cos(phi) + np.sqrt(2) * np.sin(phi) * np.sin(2 * np.pi * n * k / P + alpha)) / np.sqrt(P)
    assert surface_factors(spec, q).t_vec == pytest.approx(expected, abs=1e-12)


def test_mode_norm_sinusoidal():
    q = sinusoidal_path(SinusoidalPathSpec(0.0, 0.7, 3, 0.2), 16)
    assert fourier_mode_norm(q, 3) == pytest.approx(mode_norm_sinusoidal(16, 3, 0.7), rel=1e-12)


def test_tdiff_generic_matches_gradient_closed_form():
    for P, n, k, alpha, phi in [(16, 3, 2, 0.0, np.pi / 2), (64, 5, 4, 0.3, 1.0), (256, 2, 2, 1.1, 0.7)]:
        spec = FourierNormSurface(mode=n, phi=phi, phi_floor=0.0)
        q = sinusoidal_path(SinusoidalPathSpec(0.0, 1.0, n, alpha), P)
        assert surface_factors(spec, q).t_diff(k) == pytest.approx(
            float(tdiff_gradient(P, n, k=k, alpha=alpha, phi=phi)), abs=1e-10
        )


def test_sumdiff_generic_matches_gradient_closed_form():
    for P, n, phi in [(16, 3, np.pi / 4), (12, 3, np.pi / 4), (64, 7, 1.0)]:
        spec = FourierNormSurface(mode=n, phi=phi)
        q = sinusoidal_path(SinusoidalPathSpec(0.0, 1.0, n, 0.0), P)
        assert surface_factors(spec, q).sum_difference == pytest.approx(
            float(sum_difference_gradient(P, n, phi=phi)), abs=1e-10
        )


def test_sumdiff_figure_form_magnitude_at_quarter_mode():
    # at n/P = 1/4 and phi = pi/4 the two normalizations coincide in magnitude
    val = sum_difference_figure(12, 3)
    assert val == pytest.approx(0.0721688, abs=1e-7)
    spec = FourierNormSurface(mode=3, phi=np.pi / 4)
    q = sinusoidal_path(SinusoidalPathSpec(0.0, 1.0, 3, 0.0), 12)
    assert abs(surface_factors(spec, q).sum_difference) == pytest.approx(val, abs=1e-10)


def test_sumdiff_root_of_bracket():
    # figure normalization vanishes where 3 cos^2(pi n / P) = 1
    a = np.arccos(np.sqrt(1.0 / 3.0))
    P = 360
    n = a * P / np.pi
    assert sum_difference_figure(P, n) == pytest.approx(0.0, abs=1e-12)


def test_gp_sinusoidal_closed_form():
    P, n = 16, 8
    spec = FourierNormSurface(mode=n, phi=np.pi / 2, phi_floor=0.0)
    q = sinusoidal_path(SinusoidalPathSpec(0.0, 1.0, n, np.pi / 4), P)
    pp = PARAMS.with_beads(P)
    assert g_p(surface_factors(spec, q).t_vec, q, pp) == pytest.approx(-64.0, abs=1e-10)
    assert float(gp_sinusoidal(P, n, 1.0, np.pi / 2, pp)) == pytest.approx(-64.0, abs=1e-10)


def test_half_mode_closed_forms_match_generic():
    P, phi = 16, np.pi / 4
    spec = FourierNormSurface(mode=P // 2, phi=phi)
    q = sinusoidal_path(SinusoidalPathSpec(0.0, 1.0, P // 2, np.pi / 4), P)
    sf = surface_factors(spec, q)
    assert sf.b_p == pytest.approx(float(half_mode_b_p(phi, P)), abs=1e-12)
    assert abs(sf.t_diff(2)) == pytest.approx(float(half_mode_tdiff_abs(phi, P)), abs=1e-10)
    assert g_p(sf.t_vec, q, PARAMS) == pytest.approx(float(half_mode_gp(phi, q, PARAMS)), rel=1e-10)


def test_tdiff_figure_series_spot_value():
    # the figure-normalized series at P=16, n=4, k=2, alpha=0
    assert abs(float(tdiff_figure(16, 4, k=2, alpha=0.0))) == pytest.approx(0.7071068, abs=1e-7)


@pytest.mark.parametrize(
    "spec",
    [
        FourierNormSurface(mode=3, phi=np.pi / 4),
        FourierNormSurface(mode=8, phi=np.pi / 4),
        QuadDiffSurface(offset=1, phi=np.pi / 4),
        QuadDiffSurface(offset=8, phi=np.pi / 4),
    ],
    ids=_ids,
)
def test_singular_surface_raises(spec):
    q = np.ones(16)  # a constant path has zero norm term on every surface
    with pytest.raises(SingularSurfaceError):
        surface_factors(spec, q)
    # f itself still evaluates
    assert f_eval(spec, q) == pytest.approx(np.cos(np.pi / 4))


def test_phi_floor_enforced():
    with pytest.raises(ValueError):
        FourierNormSurface(mode=1, phi=np.pi / 2)
    FourierNormSurface(mode=1, phi=np.pi / 2, phi_floor=0.0)
    with pytest.raises(ValueError):
        QuadDiffSurface(offset=1, phi=np.pi / 2 + 1e-9)


def test_equivalence_diagnostics_verdicts():
    from ringtst.scaling import ModeSchedule

    def family(sched):
        def f(P):
            n = sched.mode(P)
            return (
                FourierNormSurface(mode=n, phi=np.pi / 4, phi_floor=0.0),
                sinusoidal_path(SinusoidalPathSpec(0.0, 1.0, n, np.pi / 4), P),
            )

        return f

    Ps = [16, 32, 64, 128, 256]
    assert (
        equivalence_diagnostics(family(ModeSchedule.constant(1)), Ps, PARAMS).overall_verdict
        == "vanishing"
    )
    assert (
        equivalence_diagnostics(family(ModeSchedule.sqrt_p()), Ps, PARAMS).overall_verdict
        == "finite"
    )
    assert (
        equivalence_diagnostics(family(ModeSchedule.frac_p(0.25)), Ps, PARAMS).overall_verdict
        == "diverging"
    )


def test_equivalence_diagnostics_centroid_all_zero():
    def family(P):
        return CentroidSurface(), np.random.default_rng(P).standard_normal(P)

    tab = equivalence_diagnostics(family, [16, 32, 64], PARAMS)
    assert tab.overall_verdict == "vanishing"
    assert tab.bead_counts == (16, 32, 64)
    assert np.all(tab.t_gap * np.sqrt(tab.bead_counts) == 0.0)
    assert np.all(tab.g_p / np.sqrt(tab.bead_counts) < 1e-12)
