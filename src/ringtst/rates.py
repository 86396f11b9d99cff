"""Rate-times-partition-function estimators for the two flux formulations.

Both quantities share the structure

    k Z_a = sqrt(P / 2 pi m beta) * Int dq rho(q, 0) delta(f(q) - d) F(q)

with F = sqrt(B_P) for the ring-polymer flux and
F = exp(beta g_P^2 / 2 m P) * flux_sum for the harmonic-analysis flux
(the eta0 Gaussian integral done in closed form).

Every surface reads f = cos(phi) c + f0, where neither f0 (f at centroid
0) nor the flux factors depend on the centroid c (phi = 0 and f0 = 0 on the
centroid surface).  So both backends put Fourier-mode amplitudes on the
surface f = shift, one value per path, in one place (``_on_surface``): one
``surfaces.mode_factors`` pass at centroid 0 gives f0 and the flux factors
(``integrand_factors``, whose infinite F_ha marks divergence for both), the
constraint fixes c = (shift - f0) / cos(phi), and real-space paths about c
are built for the potential alone.

Monte-Carlo backend: exact normal-mode sampling of the free ring polymer,
with each path's centroid drawn given its amplitudes from a Gaussian
proposal that puts f - d at s z (z standard normal, s at least the widest
window; shift = d + s z), re-weighted by the potential factor over the
proposal density.  An ensemble larger than one block (from 16 beads on) or
than 8 MB of paths (below) is drawn and evaluated in fixed blocks on a
thread pool, each block drawing its own normals
(``paths.map_free_ring_paths``), with results independent of the core
count.  The potential is evaluated in place, over the paths (in the
``"paths"`` scratch that each thread reuses for the call,
``paths.ModeBlock.scratch``).  The delta constraint is realized by
Gaussian windows of three fixed widths, whose means are extrapolated to
zero width by a line in the squared width.

Grid oracle, P <= 4: a midpoint-rule quadrature over the P - 1 fluctuation
modes, with the delta constraint solved exactly for the centroid
(shift = d); it covers every surface, since the norm term of each accepted
surface does not depend on the centroid.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import log_rho_ring
from .params import ThermoParams
from .paths import ModeBlock, free_ring_mode_std, map_free_ring_paths
from .potentials import Potential
from .surfaces import (
    CentroidSurface,
    FourierNormSurface,
    Surface,
    SurfaceFactors,
    _mode_weights,
    mode_factors,
)

# log-weight bound beyond which the harmonic-analysis factor counts as
# divergent at this bead count
OVERFLOW_GUARD = 700.0

# bead counts beyond which the tensor grid of the oracle is too large
ORACLE_MAX_BEADS = 4

# oracle grid: midpoint cells per fluctuation axis (even, so that no node
# sits at xi = 0) and half-width in free-ring standard deviations per mode
ORACLE_CELLS = 40
ORACLE_HALF_WIDTH = 6.0

# mixing angle of the Fourier-norm surfaces of the sweeps
SWEEP_PHI = np.pi / 4

# Gaussian window widths, in units of sigma_f, the spread of f (see rate_estimates)
WINDOW_WIDTHS = np.array([0.2, 0.1, 0.05])

# Weights of the per-width window means in the zero-width intercept of
# their least-squares line in w^2: a Gaussian-window mean is even in w,
# rho + w^2 rho'' / 2 + O(w^4), so a line in w would leave a bias of order
# w^2.  Scaling every width by sigma_f leaves the intercept unchanged, so
# one weight vector, (-1/6, 1/2, 2/3), serves every ensemble.
INTERCEPT_WEIGHTS = np.linalg.pinv(np.vander(WINDOW_WIDTHS**2, 2))[1]

# relative step between neighbouring window means beyond which a sign
# change in those steps counts as a failed extrapolation
MONOTONE_TOL = 0.5


@dataclass
class RateReport:
    kza_rpmd: float
    kza_rpmd_err: float
    kza_ha: float
    kza_ha_err: float
    ratio_ha_over_rpmd: float
    ratio_err: float
    divergence_flag: bool
    delta_widths: list = field(default_factory=list)
    n_samples: int = 0
    seed: int = 0


class WindowExtrapolationError(RuntimeError):
    """Window-width extrapolation is non-monotone beyond tolerance."""


def gaussian_window(x, w):
    """Normal density of width w at x, in one array of the shape of x / w."""
    g = np.square(x / w)
    g *= -0.5
    np.exp(g, out=g)
    g /= w * np.sqrt(2.0 * np.pi)
    return g


def ha_log_weight(g, params: ThermoParams):
    """beta g^2 / (2 m P), the log of the harmonic-analysis enhancement."""
    g = np.asarray(g, dtype=float)
    return params.beta * g**2 / (2.0 * params.mass * params.bead_count)


def integrand_factors(sf: SurfaceFactors, params: ThermoParams):
    """Per-configuration flux factors (F_rpmd, F_ha) from the surface
    factors of the paths (with g_P, so computed with ``params``).

    F_ha is inf exactly where the log-weight exceeds the overflow guard, the
    one divergence test of both estimators; elsewhere exp stays finite.
    """
    lw = ha_log_weight(sf.g_p, params)
    F_ha = np.where(lw > OVERFLOW_GUARD, np.inf, np.exp(np.minimum(lw, OVERFLOW_GUARD)) * sf.flux_sum)
    return np.sqrt(sf.b_p), F_ha


def _on_surface(spec: Surface, block: ModeBlock, shift: np.ndarray, params: ThermoParams):
    """The paths of a block put on the surface f(q) = shift, one value per
    path in an array that is overwritten with the centroids: one
    ``mode_factors`` pass at centroid 0 gives f0 = f there and the flux
    factors (``integrand_factors``), and c = (shift - f0) / cos(phi).
    Returns the real-space paths about c, the flux factors and f0."""
    sf = mode_factors(spec, block.amps, 0.0, params)
    factors = integrand_factors(sf, params)
    f0 = sf.f
    # sf is freed and c takes the memory of shift before the paths are
    # built, which lowers the peak memory of a large inline ensemble
    del sf
    c = np.subtract(shift, f0, out=shift)
    c /= np.cos(spec.phi)
    return block.paths(c), factors, f0


def rate_estimates(
    pot: Potential,
    spec: Surface,
    d: float,
    params: ThermoParams,
    n_samples: int = 50_000,
    seed: int = 0,
    n_batches: int = 50,
) -> RateReport:
    """Monte-Carlo estimates of both rate products from one shared ensemble.

    Free ring polymers are drawn exactly, and each path's centroid is drawn
    given its amplitudes, so that its f lands near d.  The ensemble goes
    through ``map_free_ring_paths`` once.  Each block is put on the surface
    f = d + s z (``_on_surface``: f0 = f at centroid 0 and the flux factors
    from one ``mode_factors`` pass, centroids c = (d + s z - f0) / cos(phi)),
    so that f - d = s z exactly, and reduces its real-space paths to their
    potential sums; large ensembles are thus
    evaluated in blocks on the worker pool and never held whole.  z is one
    standard normal per path, drawn here before the ensemble, and
    s = WINDOW_WIDTHS[0] * sqrt(cos^2(phi) sigma_c^2 + E[f0^2]), with
    sigma_c = hbar sqrt(beta / m) and E[f0^2] in closed form, is at least
    the widest window.  Each path is re-weighted by the potential factor
    over its proposal density N(c; (d - f0) / cos(phi), (s / cos(phi))^2).

    The delta constraint is a Gaussian window at each of WINDOW_WIDTHS *
    sigma_f, evaluated once for both flux factors, with
    sigma_f^2 = cos^2(phi) sigma_c^2 + var(f0): the spread of f when the
    centroid is drawn from N(d, sigma_c^2) independently of the amplitudes,
    so the widths do not depend on the proposal.  Window means are even in
    the width, so each rate is the zero-width intercept of the linear fit
    of its window means in w^2 (INTERCEPT_WEIGHTS), and its error bar comes
    from the same intercept of n_batches consecutive batch means.  Every
    path lands within a few window widths of d, so the batches can be
    small: 50 of them give the error bar 49 degrees of freedom, and its
    z-scores nearly normal tails (with 20, Student-t(19) tails: about six
    times as many 4.5-sigma excursions).  A surface the bead count does not
    admit is rejected before any number is drawn, and so is an ensemble of
    fewer paths than batches, which would leave batches empty.
    """
    P = params.bead_count
    cos_phi, mean_f0_sq = np.cos(spec.phi), 0.0
    if not isinstance(spec, CentroidSurface):
        # E[N^2] = sum_j w_j sigma_j^2 over the free-ring amplitudes; the
        # lookup rejects a surface the bead count does not admit
        cols, W, _ = _mode_weights(spec, P)
        mean_n_sq = W[:, 0] @ free_ring_mode_std(params)[cols] ** 2
        mean_f0_sq = (np.sin(spec.phi) / spec.norm_factor(P)) ** 2 * mean_n_sq
    if n_samples < n_batches:
        raise ValueError(f"n_samples = {n_samples} is below n_batches = {n_batches}")
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(n_samples)
    sigma_c = params.hbar * np.sqrt(params.beta / params.mass)
    s = WINDOW_WIDTHS[0] * np.sqrt(cos_phi**2 * sigma_c**2 + mean_f0_sq)

    def per_path(block):
        q, factors, f0 = _on_surface(spec, block, d + s * z[block.start : block.start + len(block.amps)], params)
        # the potential overwrites the paths (its thread's reused buffer) in
        # place; the sum and sum of squares of f0 are kept for sigma_f
        v = np.sum(pot.value(q, out=q), axis=-1)
        return (v, *factors, np.array([np.sum(f0), np.vdot(f0, f0)]))

    v_sum, F_rpmd, F_ha, f0_sums = map_free_ring_paths(params, n_samples, rng, per_path)
    f0_mean, f0_sq = f0_sums.reshape(-1, 2).sum(axis=0) / n_samples
    sigma_f = np.sqrt(cos_phi**2 * sigma_c**2 + max(f0_sq - f0_mean**2, 0.0))
    widths = WINDOW_WIDTHS * sigma_f
    # base weight sqrt(m / 2 pi beta hbar^2) e^{-eps sum V} / pi(c | a), in
    # place over v_sum, with log pi(c | a) = -z^2 / 2 - log(s sqrt(2 pi) / |cos phi|)
    base = v_sum
    base *= -params.epsilon
    base += 0.5 * np.log(params.mass / (2.0 * np.pi * params.beta * params.hbar**2)) + np.log(
        s * np.sqrt(2.0 * np.pi) / abs(cos_phi)
    )
    vals = np.square(z)  # (n,) scratch, reused by the windows below
    vals *= 0.5
    base += vals
    np.exp(base, out=base)
    x = np.multiply(z, s, out=z)  # f - d
    diverged = bool(np.any(np.isinf(F_ha)))

    pref = np.sqrt(P / (2.0 * np.pi * params.mass * params.beta))
    per = n_samples // n_batches
    factors = (F_rpmd,) if diverged else (F_rpmd, F_ha)
    means = np.empty((len(factors), len(widths)))
    batch_means = np.empty((len(factors), len(widths), n_batches))
    for i, w in enumerate(widths):
        window = gaussian_window(x, w)
        window *= base
        for k, F in enumerate(factors):
            np.multiply(window, F, out=vals)
            means[k, i] = vals.mean()
            batch_means[k, i] = vals[: per * n_batches].reshape(n_batches, per).mean(axis=1)

    estimates = []
    for m, bm in zip(means, batch_means):
        steps = np.diff(m)
        if m[-1] != 0.0:
            rel = np.abs(steps) / max(abs(m[-1]), 1e-300)
            if np.any(np.sign(steps[:-1]) * np.sign(steps[1:]) < 0) and np.max(rel) > MONOTONE_TOL:
                raise WindowExtrapolationError("window estimates non-monotone beyond tolerance")
        per_batch = INTERCEPT_WEIGHTS @ bm
        err = np.std(per_batch, ddof=1) / np.sqrt(n_batches)
        estimates.append((pref * (INTERCEPT_WEIGHTS @ m), pref * err, pref * per_batch))

    kr, kr_err, kr_batch = estimates[0]
    if diverged:
        kh, kh_err, ratio, ratio_err = float("nan"), float("nan"), float("nan"), float("nan")
    else:
        kh, kh_err, kh_batch = estimates[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            rb = kh_batch / kr_batch
        rb = rb[np.isfinite(rb)]
        ratio = kh / kr if kr != 0.0 else float("nan")
        ratio_err = np.std(rb, ddof=1) / np.sqrt(rb.size) if rb.size > 1 else float("nan")
    return RateReport(
        kza_rpmd=float(kr),
        kza_rpmd_err=float(kr_err),
        kza_ha=float(kh),
        kza_ha_err=float(kh_err),
        ratio_ha_over_rpmd=float(ratio),
        ratio_err=float(ratio_err),
        divergence_flag=diverged,
        delta_widths=[float(w) for w in widths],
        n_samples=int(n_samples),
        seed=seed,
    )


class GridConvergenceError(RuntimeError):
    """Grid refinement changed the quadrature result by more than 1%."""


def grid_oracle_rate(pot: Potential, spec: Surface, d: float, params: ThermoParams) -> dict:
    """Deterministic quadrature of the same integrand over the P - 1
    fluctuation modes, P <= 4, with the centroid solved from the constraint.

    Returns {"kza_rpmd": ..., "kza_ha": ...}; each grid is evaluated once
    for both.  A path is q = c 1 + B xi with B = fourier_mode_basis(P), so
    dq = sqrt(P) dc dxi, and every surface reads f = cos(phi) c + N(B xi)
    with a translation-invariant norm term N (N = 0 and cos(phi) = 1 for
    the centroid).  The delta constraint then fixes the centroid exactly,
    c* = (d - N) / cos(phi), and contributes 1 / |cos(phi)|.  The nodes xi
    are basis amplitudes, put on the surface f = d as one dense block by
    ``_on_surface``, whose one ``mode_factors`` pass at centroid 0 gives N
    and the flux factors; only the density reads the real-space paths
    B xi + c*.  Axis j spans +- ORACLE_HALF_WIDTH free-ring standard
    deviations of mode j with the midpoint rule on ORACLE_CELLS cells, an
    even number, so the node xi = 0, where the norm term vanishes, is never
    evaluated.  Refinement doubles the cells per axis and must change each
    result by less than 1%.
    """
    P = params.bead_count
    if P > ORACLE_MAX_BEADS:
        raise ValueError(f"grid oracle restricted to P <= {ORACLE_MAX_BEADS}")
    sigma = free_ring_mode_std(params)

    def quad(cells):
        # midpoint nodes of [-ORACLE_HALF_WIDTH, ORACLE_HALF_WIDTH] in units of sigma
        t = ORACLE_HALF_WIDTH * ((2.0 * np.arange(cells) + 1.0) / cells - 1.0)
        grids = np.meshgrid(*([t] * (P - 1)), indexing="ij")
        xi = np.stack([g.ravel() for g in grids], axis=-1) * sigma
        q, (F_rpmd, F_ha), _ = _on_surface(spec, ModeBlock(xi), np.full(len(xi), float(d)), params)
        rho = np.exp(log_rho_ring(q, params, pot))
        if np.any(np.isinf(F_ha)):
            raise OverflowError("harmonic-analysis weight overflows on grid")
        cell = np.prod(2.0 * ORACLE_HALF_WIDTH * sigma / cells)
        return {"kza_rpmd": np.sum(rho * F_rpmd) * cell, "kza_ha": np.sum(rho * F_ha) * cell}

    pref = np.sqrt(P / (2.0 * np.pi * params.mass * params.beta)) * np.sqrt(P) / abs(np.cos(spec.phi))
    coarse = {key: pref * v for key, v in quad(ORACLE_CELLS).items()}
    fine = {key: pref * v for key, v in quad(2 * ORACLE_CELLS).items()}
    for key, value in coarse.items():
        change = abs(fine[key] - value)
        if change > 0.01 * max(abs(fine[key]), 1e-300):
            raise GridConvergenceError(
                f"{key}: refinement changed the result by {change / abs(fine[key]):.2%}"
            )
    return {key: float(v) for key, v in fine.items()}


def free_ring_mean_f(spec: FourierNormSurface, params: ThermoParams) -> float:
    """Mean of f over free ring polymers at centroid 0, in closed form.

    f = sin(phi) L_n / R with R = P / sqrt(2) and L_n^2 = sum_j w_j a_j^2
    over the columns and weights of ``surfaces._mode_weights``, whose
    amplitudes a_j have the standard deviation sigma of
    ``free_ring_mode_std``: over a (cos, sin) pair L_n / sqrt(w) is a
    Rayleigh variable of mean sigma sqrt(pi / 2), on the Nyquist column a
    half-normal of mean sigma sqrt(2 / pi).
    """
    P = params.bead_count
    cols, W, _ = _mode_weights(spec, P)
    sigma = free_ring_mode_std(params)[cols][0]
    shape = np.sqrt(np.pi / 2.0) if W.shape[0] == 2 else np.sqrt(2.0 / np.pi)
    return float(np.sin(spec.phi) * np.sqrt(W[0, 0]) * sigma * shape / spec.norm_factor(P))


def ratio_sweep(
    pot: Potential,
    schedule,
    P_list,
    params: ThermoParams,
    n_samples: int = 20_000,
    seed: int = 0,
) -> list[dict]:
    """Table of (P, ratio, error, divergence_flag) for the Fourier-norm
    surface family at phi = SWEEP_PHI with mode n(P) from the schedule;
    each window is centered on the mean of f over free ring polymers at
    centroid 0, in closed form (``free_ring_mean_f``), so no path is
    drawn for it.  A schedule that gives mode P raises ValueError."""
    rows = []
    for i, P in enumerate(P_list):
        pp = params.with_beads(P)
        spec = FourierNormSurface(mode=schedule.mode(P), phi=SWEEP_PHI)
        d = free_ring_mean_f(spec, pp)
        rep = rate_estimates(pot, spec, d, pp, n_samples=n_samples, seed=seed + 7919 * i)
        rows.append(
            {
                "P": P,
                "ratio": rep.ratio_ha_over_rpmd,
                "error": rep.ratio_err,
                "divergence_flag": rep.divergence_flag,
            }
        )
    return rows
