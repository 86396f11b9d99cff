"""Rate-times-partition-function estimators for the two flux formulations.

Both quantities share the structure

    k Z_a = sqrt(P / 2 pi m beta) * Int dq rho(q, 0) delta(f(q) - d) F(q)

with F = sqrt(B_P) for the ring-polymer flux and
F = exp(beta g_P^2 / 2 m P) * flux_sum for the harmonic-analysis flux
(the eta0 Gaussian integral done in closed form).

Monte-Carlo backend: exact normal-mode sampling of the free ring polymer
with the centroid drawn from a Gaussian proposal, re-weighted by the
potential factor.  The delta constraint is realized by Gaussian windows of
decreasing width with linear extrapolation to zero width.  A brute-force
tensor-grid quadrature backend covers P <= 4 as an oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import log_rho_ring
from .params import ThermoParams
from .paths import free_ring_paths
from .potentials import Potential
from .surfaces import Surface, SurfaceFactors, f_eval, surface_factors

# log-weight bound beyond which the harmonic-analysis factor counts as
# divergent at this bead count
OVERFLOW_GUARD = 700.0

# bead counts beyond which the tensor grid of the oracle is too large
ORACLE_MAX_BEADS = 4


@dataclass(frozen=True)
class DeltaWindow:
    """Decreasing Gaussian window widths with optional extrapolation."""

    widths: tuple = (0.2, 0.1, 0.05)
    extrapolation: str = "linear_to_zero"

    def __post_init__(self):
        w = tuple(self.widths)
        if not w or any(b >= a for a, b in zip(w, w[1:])) or min(w) <= 0:
            raise ValueError("widths must be strictly decreasing and positive")
        if self.extrapolation not in ("none", "linear_to_zero"):
            raise ValueError("extrapolation must be 'none' or 'linear_to_zero'")


@dataclass
class RateReport:
    kza_rpmd: float
    kza_rpmd_err: float
    kza_ha: float
    kza_ha_err: float
    ratio_ha_over_rpmd: float
    ratio_err: float
    divergence_flag: bool
    backend: str
    eta0_mode: str
    delta_widths: list = field(default_factory=list)
    n_samples: int = 0
    seed: int = 0


class WindowExtrapolationError(RuntimeError):
    """Window-width extrapolation is non-monotone beyond tolerance."""


def gaussian_window(x, w):
    return np.exp(-0.5 * (x / w) ** 2) / (w * np.sqrt(2.0 * np.pi))


def eta0_factor_closed(g, params: ThermoParams):
    """Closed-form Gaussian integral over the collective fluctuation
    coordinate: sqrt(2 pi beta hbar^2 / m P) exp(beta g^2 / 2 m P)."""
    a = params.mass * params.bead_count / (2.0 * params.beta * params.hbar**2)
    b = np.asarray(g, dtype=float) / params.hbar
    return np.sqrt(np.pi / a) * np.exp(b**2 / (4.0 * a))


def eta0_factor_quadrature(g, params: ThermoParams, n_points: int = 4001):
    """Direct numerical integral of exp(-a eta^2 - b eta) on a grid
    centered at the stationary point, 10 Gaussian widths wide."""
    a = params.mass * params.bead_count / (2.0 * params.beta * params.hbar**2)
    b = np.asarray(g, dtype=float) / params.hbar
    center = -b / (2.0 * a)
    sigma = 1.0 / np.sqrt(2.0 * a)
    t = np.linspace(-10.0, 10.0, n_points)
    eta = center[..., None] + sigma * t
    # subtract the peak log-value so the exponential cannot overflow
    peak = b**2 / (4.0 * a)
    vals = np.exp(-a * eta**2 - b[..., None] * eta - peak[..., None])
    return np.trapezoid(vals, eta, axis=-1) * np.exp(peak)


def ha_log_weight(g, params: ThermoParams):
    """beta g^2 / (2 m P), the log of the harmonic-analysis enhancement."""
    g = np.asarray(g, dtype=float)
    return params.beta * g**2 / (2.0 * params.mass * params.bead_count)


def integrand_factors(spec: Surface, q, params: ThermoParams):
    """Per-configuration flux factors (F_rpmd, F_ha, log_weight).

    F_ha is inf where the log-weight exceeds the overflow guard.
    """
    return _flux_factors(surface_factors(spec, q, params), params)


def _flux_factors(sf: SurfaceFactors, params: ThermoParams):
    lw = ha_log_weight(sf.g_p, params)
    with np.errstate(over="ignore"):
        F_ha = np.where(lw > OVERFLOW_GUARD, np.inf, np.exp(np.minimum(lw, OVERFLOW_GUARD)) * sf.flux_sum)
    return np.sqrt(sf.b_p), F_ha, lw


def _window_estimates(base_w, fdev, F, widths, n_batches):
    """Batch-mean estimates of E[base_w * delta_w(fdev) * F] per width.

    Returns (est[n_widths], batch[n_widths, n_batches])."""
    n = base_w.size
    per = n // n_batches
    est = np.empty(len(widths))
    batch = np.empty((len(widths), n_batches))
    for i, w in enumerate(widths):
        vals = base_w * gaussian_window(fdev, w) * F
        est[i] = np.mean(vals)
        batch[i] = vals[: per * n_batches].reshape(n_batches, per).mean(axis=1)
    return est, batch


def _extrapolate(widths, est):
    """Linear fit in w, evaluated at w = 0."""
    slope, intercept = np.polyfit(widths, est, 1)
    return intercept


@dataclass
class _Ensemble:
    q: np.ndarray
    base_w: np.ndarray  # sqrt(m / 2 pi beta hbar^2) e^{-eps sum V} / pi_c(c)
    fdev: np.ndarray  # f(q) - d
    sigma_f: float


def _draw_ensemble(
    pot: Potential,
    spec: Surface,
    d: float,
    params: ThermoParams,
    n_samples: int,
    rng,
    sigma_c: float | None = None,
):
    if sigma_c is None:
        sigma_c = params.hbar * np.sqrt(params.beta / params.mass)
    c = d + sigma_c * rng.standard_normal(n_samples)
    q = free_ring_paths(params, n_samples, rng, centroid=c)
    log_pi_c = -0.5 * ((c - d) / sigma_c) ** 2 - np.log(sigma_c * np.sqrt(2 * np.pi))
    eps = params.epsilon
    log_base = (
        0.5 * np.log(params.mass / (2.0 * np.pi * params.beta * params.hbar**2))
        - eps * np.sum(pot.value(q), axis=-1)
        - log_pi_c
    )
    f = f_eval(spec, q)
    return _Ensemble(
        q=q,
        base_w=np.exp(log_base),
        fdev=f - d,
        sigma_f=float(np.std(f)),
    )


def _report_from_factors(
    ens: _Ensemble,
    F_rpmd,
    F_ha,
    lw,
    params: ThermoParams,
    window: DeltaWindow,
    n_batches: int,
    backend: str,
    eta0_mode: str,
    seed: int,
    monotone_tol: float = 0.5,
):
    pref = np.sqrt(params.bead_count / (2.0 * np.pi * params.mass * params.beta))
    widths = np.array(window.widths) * ens.sigma_f
    diverged = bool(np.any(lw > OVERFLOW_GUARD))

    def one(F):
        est, batch = _window_estimates(ens.base_w, ens.fdev, F, widths, n_batches)
        if window.extrapolation == "linear_to_zero" and len(widths) >= 2:
            diffs = np.diff(est)
            if est[-1] != 0.0:
                rel = np.abs(diffs) / max(abs(est[-1]), 1e-300)
                if np.any(np.sign(diffs[:-1]) * np.sign(diffs[1:]) < 0) and np.max(rel) > monotone_tol:
                    raise WindowExtrapolationError(
                        "window estimates non-monotone beyond tolerance"
                    )
            value = _extrapolate(widths, est)
            per_batch = np.array([_extrapolate(widths, batch[:, b]) for b in range(n_batches)])
        else:
            value = est[-1]
            per_batch = batch[-1]
        err = np.std(per_batch, ddof=1) / np.sqrt(n_batches)
        return pref * value, pref * err, pref * per_batch

    kr, kr_err, kr_batch = one(F_rpmd)
    if diverged:
        kh, kh_err, ratio, ratio_err = float("nan"), float("nan"), float("nan"), float("nan")
    else:
        kh, kh_err, kh_batch = one(F_ha)
        with np.errstate(divide="ignore", invalid="ignore"):
            rb = kh_batch / kr_batch
        rb = rb[np.isfinite(rb)]
        ratio = kh / kr if kr != 0.0 else float("nan")
        ratio_err = (
            float(np.std(rb, ddof=1) / np.sqrt(rb.size)) if rb.size > 1 else float("nan")
        )
    return RateReport(
        kza_rpmd=float(kr),
        kza_rpmd_err=float(kr_err),
        kza_ha=float(kh),
        kza_ha_err=float(kh_err),
        ratio_ha_over_rpmd=float(ratio),
        ratio_err=float(ratio_err),
        divergence_flag=diverged,
        backend=backend,
        eta0_mode=eta0_mode,
        delta_widths=[float(w) for w in widths],
        n_samples=int(ens.q.shape[0]),
        seed=seed,
    )


def rate_estimates(
    pot: Potential,
    spec: Surface,
    d: float,
    params: ThermoParams,
    n_samples: int = 50_000,
    seed: int = 0,
    window: DeltaWindow | None = None,
    eta0_mode: str = "gaussian_closed_form",
    n_batches: int = 20,
) -> RateReport:
    """Monte-Carlo estimates of both rate products from one shared ensemble."""
    if eta0_mode not in ("gaussian_closed_form", "quadrature"):
        raise ValueError("eta0_mode must be 'gaussian_closed_form' or 'quadrature'")
    window = window or DeltaWindow()
    rng = np.random.default_rng(seed)
    ens = _draw_ensemble(pot, spec, d, params, n_samples, rng)
    sf = surface_factors(spec, ens.q, params)
    F_rpmd, F_ha, lw = _flux_factors(sf, params)
    if eta0_mode == "quadrature" and not np.any(lw > OVERFLOW_GUARD):
        # replace the closed-form eta0 factor by direct quadrature
        coef = np.sqrt(
            params.mass * params.bead_count / (2.0 * np.pi * params.beta * params.hbar**2)
        )
        F_ha = coef * eta0_factor_quadrature(sf.g_p, params) * sf.flux_sum
    return _report_from_factors(
        ens, F_rpmd, F_ha, lw, params, window, n_batches, "mc", eta0_mode, seed
    )


class GridConvergenceError(RuntimeError):
    """Grid refinement changed the quadrature result by more than 1%."""


def grid_oracle_rate(
    pot: Potential,
    spec: Surface,
    d: float,
    params: ThermoParams,
    n_points: int = 41,
    half_width_sigmas: float = 6.0,
    base_window: float = 0.2,
    check_refinement: bool = True,
) -> dict:
    """Deterministic tensor-grid quadrature of the same integrand, P <= 4.

    Returns {"kza_rpmd": ..., "kza_ha": ...}; each grid is evaluated once
    for both.  The delta constraint uses Gaussian windows w and w/2 with
    Richardson extrapolation in w^2; refinement doubles the per-axis
    resolution and must change each result by less than 1%.
    """
    P = params.bead_count
    if P > ORACLE_MAX_BEADS:
        raise ValueError(f"grid oracle restricted to P <= {ORACLE_MAX_BEADS}")

    def quad(npts):
        sigma = params.hbar * np.sqrt(params.beta / params.mass)
        ax = np.linspace(d - half_width_sigmas * sigma, d + half_width_sigmas * sigma, npts)
        grids = np.meshgrid(*([ax] * P), indexing="ij")
        q = np.stack([g.ravel() for g in grids], axis=-1)
        rho = np.exp(log_rho_ring(q, params, pot))
        fdev = f_eval(spec, q) - d
        F_rpmd, F_ha, _ = integrand_factors(spec, q, params)
        if np.any(np.isinf(F_ha)):
            raise OverflowError("harmonic-analysis weight overflows on grid")
        dx = ax[1] - ax[0]
        w = base_window * sigma
        out = {"kza_rpmd": [], "kza_ha": []}
        for wi in (w, 0.5 * w):
            rw = rho * gaussian_window(fdev, wi)
            out["kza_rpmd"].append(np.sum(rw * F_rpmd) * dx**P)
            out["kza_ha"].append(np.sum(rw * F_ha) * dx**P)
        # Gaussian-window error is O(w^2): Richardson in w^2
        return {key: (4.0 * v[1] - v[0]) / 3.0 for key, v in out.items()}

    pref = np.sqrt(P / (2.0 * np.pi * params.mass * params.beta))
    values = {key: pref * v for key, v in quad(n_points).items()}
    if check_refinement:
        fine = {key: pref * v for key, v in quad(2 * n_points - 1).items()}
        for key, value in values.items():
            change = abs(fine[key] - value)
            if change > 0.01 * max(abs(fine[key]), 1e-300):
                raise GridConvergenceError(
                    f"{key}: refinement changed the result by {change / abs(fine[key]):.2%}"
                )
        values = fine
    return {key: float(v) for key, v in values.items()}


def ratio_sweep(
    pot: Potential,
    schedule,
    P_list,
    params: ThermoParams,
    phi: float = np.pi / 4,
    d: float | None = None,
    n_samples: int = 20_000,
    seed: int = 0,
) -> list[dict]:
    """Table of (P, ratio, error, divergence_flag) for a Fourier-norm
    surface family with mode n(P) from the schedule."""
    from .surfaces import FourierNormSurface

    rows = []
    for i, P in enumerate(P_list):
        pp = params.with_beads(P)
        spec = FourierNormSurface(mode=schedule.mode(P), phi=phi)
        if d is None:
            # center the window on the bulk of the f distribution
            rng = np.random.default_rng(seed + 7919 * i)
            probe = free_ring_paths(pp, 2000, rng)
            d_here = float(np.mean(f_eval(spec, probe)))
        else:
            d_here = d
        rep = rate_estimates(
            pot, spec, d_here, pp, n_samples=n_samples, seed=seed + 7919 * i
        )
        rows.append(
            {
                "P": P,
                "ratio": rep.ratio_ha_over_rpmd,
                "error": rep.ratio_err,
                "divergence_flag": rep.divergence_flag,
            }
        )
    return rows


def divergence_probe(
    P_list,
    params: ThermoParams,
    phi: float = np.pi / 4,
    amplitude: float = 1.0,
) -> list[dict]:
    """Log-weight of the harmonic-analysis factor on half-mode-excited
    sinusoidal paths, per bead count, with the overflow verdict.

    The ring-polymer flux factor stays finite on the same paths; only the
    exponential enhancement overflows, and it does so at a bead count that
    grows like the square root of the guard.
    """
    from .paths import SinusoidalPathSpec, sinusoidal_path
    from .surfaces import FourierNormSurface

    rows = []
    for P in P_list:
        if P % 2:
            raise ValueError("half-mode probe needs even P")
        pp = params.with_beads(P)
        spec = FourierNormSurface(mode=P // 2, phi=phi)
        q = sinusoidal_path(
            SinusoidalPathSpec(q0=0.0, amplitude=amplitude, mode=P // 2, phase=np.pi / 4), P
        )
        sf = surface_factors(spec, q, pp)
        lw = float(ha_log_weight(sf.g_p, pp))
        rows.append(
            {
                "P": P,
                "log_weight": lw,
                "divergence_flag": lw > OVERFLOW_GUARD,
                "rpmd_factor": float(np.sqrt(sf.b_p)),
            }
        )
    return rows
