import threading

import numpy as np
import pytest

from reference import divergence_probe, eta0_factor_closed, eta0_factor_quadrature, f_eval
from ringtst import paths, rates
from ringtst.params import ThermoParams
from ringtst.paths import fourier_mode_basis, free_ring_amplitudes, map_free_ring_paths
from ringtst.potentials import Eckart, FreeParticle, Harmonic
from ringtst.rates import (
    ORACLE_CELLS,
    OVERFLOW_GUARD,
    free_ring_mean_f,
    grid_oracle_rate,
    ha_log_weight,
    integrand_factors,
    rate_estimates,
    ratio_sweep,
)
from ringtst.scaling import ModeSchedule
from ringtst.surfaces import CentroidSurface, FourierNormSurface, QuadDiffSurface, mode_factors, surface_factors

TWO_PI_INV = 1.0 / (2.0 * np.pi)


def exact_centroid_rate(P, beta=1.0, m=1.0, hbar=1.0, omega=1.0):
    """Gaussian linear-constraint oracle for the harmonic centroid rate."""
    eps = beta / P
    L = 2 * np.eye(P) - np.roll(np.eye(P), 1, 0) - np.roll(np.eye(P), -1, 0)
    A = (m / (eps * hbar**2)) * L + eps * m * omega**2 * np.eye(P)
    u = np.full(P, 1.0 / P)
    Z = np.sqrt((2 * np.pi) ** P / np.linalg.det(A))
    var_u = u @ np.linalg.solve(A, u)
    pref = (m * P / (2 * np.pi * beta * hbar**2)) ** (P / 2)
    rho_c0 = pref * Z / np.sqrt(2 * np.pi * var_u)
    return np.sqrt(P / (2 * np.pi * m * beta)) * np.sqrt(1.0 / P) * rho_c0


def test_window_reduction_matches_per_width_polyfit():
    # the same ensemble, rebuilt from real-space paths: each centroid drawn
    # given its amplitudes so that f - d = s z, the windows taken one width
    # at a time, each rate the np.polyfit zero-width intercept of its window
    # means in w^2 and its error bar the spread of the per-batch intercepts
    pot, spec, d = Eckart(), QuadDiffSurface(offset=1, phi=np.pi / 4), 0.1
    params = ThermoParams(bead_count=8)
    P, n, n_batches, seed = 8, 20_000, 20, 1
    cos_phi, sin_phi = np.cos(spec.phi), np.sin(spec.phi)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n)
    xi = free_ring_amplitudes(params, n, rng) @ fourier_mode_basis(P).T
    f0 = f_eval(spec, xi)  # f at centroid 0
    sigma_c = params.hbar * np.sqrt(params.beta / params.mass)
    # free ring: E[(q_k - q_{k+1})^2] = beta hbar^2 (P - 1) / (m P^2), so
    # E[D_1^2] = beta hbar^2 (P - 1) / (m P)
    mean_d2 = params.beta * params.hbar**2 * (P - 1) / (params.mass * P)
    s = 0.2 * np.sqrt(cos_phi**2 * sigma_c**2 + sin_phi**2 * mean_d2 / spec.norm_factor(P) ** 2)
    c_mean, c_std = (d - f0) / cos_phi, s / abs(cos_phi)
    c = c_mean + c_std * z
    q = xi + c[:, None]
    log_pi_c = -0.5 * ((c - c_mean) / c_std) ** 2 - np.log(c_std * np.sqrt(2 * np.pi))
    log_base = (
        0.5 * np.log(params.mass / (2.0 * np.pi * params.beta * params.hbar**2))
        - params.epsilon * np.sum(pot.value(q), axis=-1)
        - log_pi_c
    )
    f = f_eval(spec, q)
    # the widths: the spread of f with the centroid drawn from N(d, sigma_c^2)
    widths = np.array([0.2, 0.1, 0.05]) * np.sqrt(cos_phi**2 * sigma_c**2 + np.var(f0))
    F_rpmd, F_ha = integrand_factors(surface_factors(spec, q, params), params)
    pref = np.sqrt(params.bead_count / (2.0 * np.pi * params.mass * params.beta))
    per = n // n_batches

    def reduce(F):
        est, batch = [], []
        for w in widths:
            vals = np.exp(log_base) * np.exp(-0.5 * ((f - d) / w) ** 2) / (w * np.sqrt(2 * np.pi)) * F
            est.append(np.mean(vals))
            batch.append(vals[: per * n_batches].reshape(n_batches, per).mean(axis=1))
        batch = np.array(batch)
        value = np.polyfit(widths**2, est, 1)[1]
        per_batch = np.array([np.polyfit(widths**2, batch[:, b], 1)[1] for b in range(n_batches)])
        return pref * value, pref * np.std(per_batch, ddof=1) / np.sqrt(n_batches), per_batch

    kr, kr_err, kr_batch = reduce(F_rpmd)
    kh, kh_err, kh_batch = reduce(F_ha)
    ratios = kh_batch / kr_batch
    rep = rate_estimates(pot, spec, d, params, n_samples=n, seed=seed, n_batches=n_batches)
    assert abs(kh / kr - 1.0) > 0.1  # keeps the batch-ratio spread far above roundoff
    expected = {
        "kza_rpmd": kr,
        "kza_rpmd_err": kr_err,
        "kza_ha": kh,
        "kza_ha_err": kh_err,
        "ratio_ha_over_rpmd": kh / kr,
        "ratio_err": np.std(ratios, ddof=1) / np.sqrt(n_batches),
    }
    for key, value in expected.items():
        assert getattr(rep, key) == pytest.approx(value, rel=1e-12, abs=0.0), key
    assert rep.delta_widths == pytest.approx(widths, rel=1e-12)


def free_ring_mean_norm_sq(spec, P, beta=1.0, m=1.0, hbar=1.0):
    """E[N^2] of the surface's norm term over free ring polymers, from the
    bridge variance E[(q_j - q_k)^2] = (beta hbar^2 / m) r (P - r) / P^2,
    r = (j - k) mod P: D_n^2 sums n-apart differences, and
    L_n^2 = |sum_j e^{i theta j} q_j|^2 = -1/2 sum_jk cos(theta (j - k)) (q_j - q_k)^2."""
    r = np.arange(P)
    bridge = beta * hbar**2 / m * r * (P - r) / P**2
    if isinstance(spec, QuadDiffSurface):
        return P * bridge[spec.offset]
    return -0.5 * P * np.sum(np.cos(2.0 * np.pi * spec.mode * r / P) * bridge)


@pytest.mark.parametrize(
    "P, n", [(8, 2_000), (256, 5_000), (3, None), (4, None)], ids=["inline", "pooled", "oracle-P3", "oracle-P4"]
)
@pytest.mark.parametrize(
    "spec",
    [CentroidSurface(), FourierNormSurface(mode=2, phi=0.5), QuadDiffSurface(offset=3, phi=0.7)],
    ids=["centroid", "fourier", "quaddiff"],
)
def test_centroid_draw_puts_f_at_d_plus_s_z(monkeypatch, spec, P, n):
    """Every path the estimator builds has f(q) - d = s z, with z the
    seed's first n normals and s = 0.2 sqrt(cos^2 phi sigma_c^2 + E[f0^2])
    (f0 = sin(phi) N / R, f at centroid 0), and every path the grid oracle
    builds (n None; quad-diff offset at most P - 1) has f(q) = d, read back
    from the real-space paths through surface_factors."""
    blocks = []
    inner = paths.ModeBlock.paths
    caller = threading.get_ident()

    def spy(block, centroid):
        q = inner(block, centroid)
        # pooled: built in a worker thread
        blocks.append((block.start, threading.get_ident() != caller, q.copy()))
        return q

    monkeypatch.setattr(paths.ModeBlock, "paths", spy)
    params, d, seed = ThermoParams(beta=1.5, bead_count=P), 0.2, 3
    if n is None:
        if isinstance(spec, QuadDiffSurface):
            spec = QuadDiffSurface(offset=min(spec.offset, P - 1), phi=spec.phi)
        grid_oracle_rate(Eckart(), spec, d, params)
        # the coarse and the refined grid, each one dense block
        assert [(start, pooled, len(q)) for start, pooled, q in blocks] == [
            (0, False, ORACLE_CELLS ** (P - 1)),
            (0, False, (2 * ORACLE_CELLS) ** (P - 1)),
        ]
        for _, _, q in blocks:
            assert np.max(np.abs(surface_factors(spec, q).f - d)) < 1e-10
        return
    rate_estimates(Eckart(), spec, d, params, n_samples=n, seed=seed)
    blocks.sort(key=lambda b: b[0])
    assert {pooled for _, pooled, _ in blocks} == {P > 8}
    q = np.concatenate([b[2] for b in blocks])
    assert q.shape == (n, P)
    z = np.random.default_rng(seed).standard_normal(n)
    sigma_c_sq = params.hbar**2 * params.beta / params.mass
    if isinstance(spec, CentroidSurface):
        s = 0.2 * np.sqrt(sigma_c_sq)
    else:
        f0_sq = np.sin(spec.phi) ** 2 * free_ring_mean_norm_sq(spec, P, beta=1.5) / spec.norm_factor(P) ** 2
        s = 0.2 * np.sqrt(np.cos(spec.phi) ** 2 * sigma_c_sq + f0_sq)
    f = surface_factors(spec, q).f
    assert np.max(np.abs(f - d - s * z)) < 1e-10


def test_free_particle_mc_oracle():
    params = ThermoParams(bead_count=8)
    rep = rate_estimates(FreeParticle(), CentroidSurface(), 0.3, params, n_samples=200_000, seed=2)
    assert rep.kza_rpmd == pytest.approx(TWO_PI_INV, rel=0.01)
    assert rep.kza_ha == pytest.approx(TWO_PI_INV, rel=0.01)
    assert not rep.divergence_flag


def exact_free_fourier_norm(P, n, phi):
    """Free-particle kZ_rpmd and kZ_ha on FourierNormSurface(n, phi) with
    0 < n <= P/2, beta = m = hbar = 1, in closed form: the flux factors
    depend on the path only through the radius of mode n, whose free-ring
    distribution is known.  For n < P/2, with S_n = sin^2(pi n / P),
    kZ_rpmd = 1/(2 pi |cos phi|) and
    kZ_ha / kZ_rpmd = (1 - sin^2 phi S_n) / (1 - sin^2 phi S_n / 4); at the
    Nyquist mode, with b = cos^2 phi + 2 sin^2 phi,
    kZ_rpmd = sqrt(b) / (2 pi |cos phi|) and
    kZ_ha = (cos^2 phi / sqrt(b)) (1 - sin^2 phi / (2 b))^(-1/2) / (2 pi |cos phi|)."""
    c2, s2 = np.cos(phi) ** 2, np.sin(phi) ** 2
    unit = 1.0 / (2.0 * np.pi * abs(np.cos(phi)))
    if 2 * n == P:
        b = c2 + 2.0 * s2
        return np.sqrt(b) * unit, c2 / np.sqrt(b) * (1.0 - s2 / (2.0 * b)) ** -0.5 * unit
    S = np.sin(np.pi * n / P) ** 2
    return unit, unit * (1.0 - s2 * S) / (1.0 - s2 * S / 4.0)


@pytest.mark.parametrize("P, mode", [(64, 2), (64, 8), (64, 32), (256, 16)])
def test_free_particle_fourier_norm_exact(P, mode):
    spec = FourierNormSurface(mode=mode, phi=np.pi / 4)
    rep = rate_estimates(FreeParticle(), spec, 0.0, ThermoParams(bead_count=P), n_samples=20_000, seed=0)
    kr, kh = exact_free_fourier_norm(P, mode, spec.phi)
    assert abs(rep.kza_rpmd - kr) < 4.0 * rep.kza_rpmd_err
    assert abs(rep.kza_ha - kh) < 4.0 * rep.kza_ha_err
    assert abs(rep.ratio_ha_over_rpmd - kh / kr) < 4.0 * rep.ratio_err


def test_free_particle_d_independent():
    params = ThermoParams(bead_count=6)
    vals = [
        rate_estimates(FreeParticle(), CentroidSurface(), d, params, n_samples=100_000, seed=3).kza_rpmd
        for d in (-1.0, 0.0, 2.5)
    ]
    assert max(vals) - min(vals) < 0.01 * TWO_PI_INV


def test_grid_oracle_free_particle():
    params = ThermoParams(bead_count=3)
    grid = grid_oracle_rate(FreeParticle(), CentroidSurface(), 0.0, params)
    assert grid["kza_rpmd"] == pytest.approx(TWO_PI_INV, rel=1e-6)
    assert grid["kza_ha"] == pytest.approx(TWO_PI_INV, rel=1e-6)


@pytest.mark.parametrize("P", [2, 3, 4])
def test_grid_oracle_matches_exact_harmonic(P):
    params = ThermoParams(bead_count=P)
    v = grid_oracle_rate(Harmonic(omega=1.0), CentroidSurface(), 0.0, params)["kza_rpmd"]
    assert v == pytest.approx(exact_centroid_rate(P), rel=1e-6)


def test_mc_matches_grid_oracle_harmonic():
    params = ThermoParams(bead_count=3)
    grid = grid_oracle_rate(Harmonic(omega=1.0), CentroidSurface(), 0.0, params)["kza_rpmd"]
    rep = rate_estimates(Harmonic(omega=1.0), CentroidSurface(), 0.0, params, n_samples=200_000, seed=11)
    assert abs(rep.kza_rpmd - grid) < max(2 * rep.kza_rpmd_err, 0.05 * grid)


# surfaces where the two rates differ, at bead counts the grid oracle takes
ORACLE_CASES = [
    (Eckart(), QuadDiffSurface(offset=1, phi=np.pi / 4), 0.1, 3),
    (Eckart(), FourierNormSurface(mode=1, phi=0.5), 0.0, 3),
    (Harmonic(omega=1.0), QuadDiffSurface(offset=1, phi=np.pi / 4), 0.3, 4),
    (Eckart(), QuadDiffSurface(offset=2, phi=0.7), 0.0, 4),
]
ORACLE_IDS = ["eckart-quaddiff1-P3", "eckart-fourier1-P3", "harmonic-quaddiff1-P4", "eckart-quaddiff2-P4"]


@pytest.mark.parametrize("pot, spec, d, P", ORACLE_CASES, ids=ORACLE_IDS)
def test_mc_matches_grid_oracle_non_centroid(pot, spec, d, P):
    params = ThermoParams(bead_count=P)
    grid = grid_oracle_rate(pot, spec, d, params)
    rep = rate_estimates(pot, spec, d, params, n_samples=200_000, seed=0)
    assert abs(rep.kza_ha / rep.kza_rpmd - 1.0) > 0.1  # a surface where the two rates differ
    for key in ("kza_rpmd", "kza_ha"):
        assert abs(getattr(rep, key) - grid[key]) < 4 * getattr(rep, f"{key}_err"), key


@pytest.mark.parametrize(
    "pot, spec, d, P",
    [
        *ORACLE_CASES,
        (Harmonic(omega=1.0), CentroidSurface(), 0.0, 3),
    ],
    ids=[*ORACLE_IDS, "harmonic-centroid-P3"],
)
def test_mc_unbiased_against_grid_oracle(pot, spec, d, P):
    """The mean of 16 seeds lies within 3 of its standard errors, and within
    0.3 %, of the grid oracle: no bias left at the width of the windows."""
    params = ThermoParams(bead_count=P)
    grid = grid_oracle_rate(pot, spec, d, params)
    reps = [rate_estimates(pot, spec, d, params, n_samples=200_000, seed=seed) for seed in range(16)]
    for key in ("kza_rpmd", "kza_ha"):
        vals = np.array([getattr(rep, key) for rep in reps])
        mean, sem = vals.mean(), vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(mean - grid[key]) < 3 * sem, (key, (mean - grid[key]) / sem)
        assert abs(mean / grid[key] - 1.0) < 0.003, (key, mean / grid[key] - 1.0)


def test_grid_oracle_rejects_large_P():
    params = ThermoParams(bead_count=5)
    with pytest.raises(ValueError):
        grid_oracle_rate(FreeParticle(), CentroidSurface(), 0.0, params)


@pytest.mark.parametrize("mode", [0, 3])
def test_grid_oracle_rejects_centroid_dependent_mode(mode):
    # the surface rejects mode 0 when it is built, the bead-count check mode P
    params = ThermoParams(bead_count=3)
    message = "mode must be >= 1" if mode == 0 else "Fourier-norm mode 3 at P = 3.*depends on the centroid"
    with pytest.raises(ValueError, match=message):
        grid_oracle_rate(Harmonic(omega=1.0), FourierNormSurface(mode=mode, phi=0.5), 0.0, params)


def test_rate_estimates_rejects_fewer_samples_than_batches(monkeypatch):
    # 30 paths in 50 batches would leave the batches empty and the error bar NaN
    def no_draw(*args, **kwargs):
        raise AssertionError("drew paths")

    monkeypatch.setattr(rates, "map_free_ring_paths", no_draw)
    with pytest.raises(ValueError, match="n_samples = 30 is below n_batches = 50"):
        rate_estimates(Harmonic(omega=1.0), CentroidSurface(), 0.0, ThermoParams(bead_count=4), n_samples=30)


def test_centroid_degeneracy_per_configuration():
    params = ThermoParams(bead_count=12)
    rng = np.random.default_rng(8)
    q = rng.standard_normal((500, 12))
    sf = surface_factors(CentroidSurface(), q, params)
    F_rpmd, F_ha = integrand_factors(sf, params)
    assert F_ha == pytest.approx(F_rpmd, rel=1e-12)
    assert np.all(ha_log_weight(sf.g_p, params) < 1e-24)  # g_P is zero up to roundoff


def test_centroid_degeneracy_in_estimates():
    params = ThermoParams(bead_count=8)
    rep = rate_estimates(Harmonic(omega=1.0), CentroidSurface(), 0.0, params, n_samples=20_000, seed=5)
    assert rep.kza_ha == pytest.approx(rep.kza_rpmd, rel=1e-12)
    assert rep.ratio_ha_over_rpmd == pytest.approx(1.0, rel=1e-12)


def test_integrand_cyclic_invariance():
    params = ThermoParams(bead_count=10)
    rng = np.random.default_rng(9)
    q = rng.standard_normal(10)
    for spec in (CentroidSurface(), FourierNormSurface(mode=2, phi=np.pi / 4)):
        base = integrand_factors(surface_factors(spec, q, params), params)
        for s in range(1, 10):
            shifted = integrand_factors(surface_factors(spec, np.roll(q, s), params), params)
            for a, b in zip(base, shifted):
                assert b == pytest.approx(a, rel=1e-9)


def test_eta0_modes_agree_per_configuration():
    params = ThermoParams(bead_count=16)
    g = np.random.default_rng(10).normal(0.0, 3.0, 1000)
    closed = eta0_factor_closed(g, params)
    quad = eta0_factor_quadrature(g, params)
    assert np.max(np.abs(quad / closed - 1.0)) < 1e-3


def test_ratio_sweep_constant_schedule_tends_to_one():
    params = ThermoParams()
    rows = ratio_sweep(
        Harmonic(omega=1.0), ModeSchedule.constant(1), [16, 32, 64], params, n_samples=20_000, seed=4
    )
    assert not any(r["divergence_flag"] for r in rows)
    assert rows[-1]["ratio"] == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("P, mode", [(8, 3), (16, 4), (16, 8), (17, 12), (64, 40), (256, 128)])
def test_free_ring_mean_f_matches_sampled_mean(P, mode):
    """The closed-form mean of f at centroid 0 (Rayleigh mean of the mode
    norm, half-normal at the Nyquist mode) against 200k drawn paths, reduced
    block by block."""
    params = ThermoParams(beta=1.7, bead_count=P)
    spec = FourierNormSurface(mode=mode, phi=0.6)
    (f,) = map_free_ring_paths(
        params, 200_000, np.random.default_rng(P + mode), lambda block: (mode_factors(spec, block.amps, 0.0).f,)
    )
    z = (np.mean(f) - free_ring_mean_f(spec, params)) / (np.std(f) / np.sqrt(f.size))
    assert abs(z) < 4.0


def test_ratio_sweep_draws_no_pilot(monkeypatch):
    """Each window is centred on the closed-form mean of f: the one draw per
    bead count is the estimator's own."""
    calls, mode_rows = [], []

    def logged(pot, spec, d, params, **kwargs):
        calls.append((spec, d, params))
        return rate_estimates(pot, spec, d, params, **kwargs)

    def counted(spec, amps, centroid, params=None):
        mode_rows.append(len(amps))
        return mode_factors(spec, amps, centroid, params)

    monkeypatch.setattr(rates, "rate_estimates", logged)
    monkeypatch.setattr(rates, "mode_factors", counted)
    ratio_sweep(Harmonic(omega=1.0), ModeSchedule.sqrt_p(), [16, 64], ThermoParams(), n_samples=2000, seed=1)
    assert [d for _, d, _ in calls] == [free_ring_mean_f(spec, pp) for spec, _, pp in calls]
    assert mode_rows == [2000, 2000]
    with pytest.raises(ValueError, match="Fourier-norm mode 16 at P = 16"):
        ratio_sweep(Harmonic(omega=1.0), ModeSchedule.frac_p(1.0), [16], ThermoParams(), n_samples=2000)


def test_divergence_probe_flags_by_64():
    rows = divergence_probe([16, 32, 64, 128], ThermoParams())
    flags = {r["P"]: r["divergence_flag"] for r in rows}
    assert not flags[16]
    assert flags[64] and flags[128]
    # log-weight grows quadratically in P on these paths
    lw = {r["P"]: r["log_weight"] for r in rows}
    assert lw[32] / lw[16] == pytest.approx(4.0, rel=1e-6)
    # the plain flux factor stays finite throughout
    assert all(np.isfinite(r["rpmd_factor"]) for r in rows)


def test_divergence_flag_in_rate_report():
    # sampling at tiny bead count but huge excitation cannot reach the guard
    # thermally, so force it through the probe-style configuration instead:
    params = ThermoParams(bead_count=64)
    spec = FourierNormSurface(mode=32, phi=np.pi / 4)
    from ringtst.paths import SinusoidalPathSpec, sinusoidal_path
    from ringtst.surfaces import g_p

    q = sinusoidal_path(SinusoidalPathSpec(0.0, 1.0, 32, np.pi / 4), 64)
    lw = float(ha_log_weight(g_p(surface_factors(spec, q).t_vec, q, params), params))
    assert lw > OVERFLOW_GUARD
    _, F_ha = integrand_factors(surface_factors(spec, q[None, :], params), params)
    assert np.isinf(F_ha[0])
