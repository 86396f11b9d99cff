"""Cyclically invariant dividing surfaces and derived geometric quantities.

Three surface families over a P-bead cyclic path q:

* Centroid            f(q) = mean(q)
* FourierNorm         f(q) = (cos phi / P) sum q_j
                             + (sqrt(2) sin phi / P) L_n(q)
  with L_n the norm of the n-th Fourier mode of the path,
  L_n^2 = (sum_j cos(2 pi n j / P) q_j)^2 + (sum_j sin(...) q_j)^2.
* QuadDiff            f(q) = (cos phi / P) sum q_j
                             + (sin phi / R(n)) D_n(q)
  with D_n = (sum_j (q_j - q_{j+n})^2)^{1/2} and R(n) a normalization
  keeping D_n / R(n) of order unity for thermal paths.

All evaluators operate on the last axis, so a batch of paths with shape
(n_paths, P) is handled in one call.  ``surface_factors`` is the one
evaluator of the gradient-derived quantities: f, B_P, T, the flux sum, the
sum-difference and link-form g_P are attributes of the ``SurfaceFactors``
it returns.  Every surface is homogeneous of degree one in q, so f is read
from the same gradient through Euler's identity f(q) = sum_k q_k df/dq_k.
``g_p`` keeps the cyclic form of g_P as an independent cross-check.

The Fourier-mode sums of L_n are taken over q - qbar for 0 < n mod P: the
cosine and sine columns sum to zero, so the value is the same, but the
rounding follows the fluctuations of the path rather than |q|.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ThermoParams
from .paths import BLOCK_ELEMS


class SingularSurfaceError(ValueError):
    """Gradient requested where the surface norm term vanishes."""


@dataclass(frozen=True)
class CentroidSurface:
    """Bead-average dividing coordinate."""


@dataclass(frozen=True)
class FourierNormSurface:
    """Centroid mixed with the norm of one Fourier mode of the path.

    cos(phi) must stay away from zero, otherwise the surface loses all
    information about the average position.  The floor is a field, not a
    config key: the matching-path sweeps set it to 0 to reach phi = pi/2.
    """

    mode: int
    phi: float
    phi_floor: float = 1e-3

    def __post_init__(self):
        if self.mode < 0:
            raise ValueError("mode must be nonnegative")
        if abs(np.cos(self.phi)) < self.phi_floor:
            raise ValueError(
                f"|cos(phi)| = {abs(np.cos(self.phi)):.3e} below floor {self.phi_floor:.1e}"
            )


@dataclass(frozen=True)
class QuadDiffSurface:
    """Centroid mixed with the norm of offset-n bead differences."""

    offset: int
    phi: float
    phi_floor: float = 1e-3

    def __post_init__(self):
        if self.offset < 1:
            raise ValueError("offset must be >= 1")
        if abs(np.cos(self.phi)) < self.phi_floor:
            raise ValueError(
                f"|cos(phi)| = {abs(np.cos(self.phi)):.3e} below floor {self.phi_floor:.1e}"
            )

    def norm_factor(self, bead_count: int) -> float:
        """R(n): order 1 for n = O(1), order sqrt(P) for n near P/2."""
        return max(1.0, np.sqrt(2.0 * bead_count) * np.sin(np.pi * self.offset / bead_count))


Surface = CentroidSurface | FourierNormSurface | QuadDiffSurface

# Relative floor below which the norm term counts as singular.
_NORM_FLOOR = 1e-12


def _check(spec: Surface, q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    P = q.shape[-1]
    if isinstance(spec, FourierNormSurface) and spec.mode > P:
        raise ValueError("surface mode exceeds bead count")
    if isinstance(spec, QuadDiffSurface) and spec.offset > P - 1:
        raise ValueError("surface offset exceeds P - 1")
    return q


def _rowdot(a, b):
    """sum_k a_k b_k over the last axis."""
    return np.einsum("...k,...k->...", a, b)


def _mode_sums(q: np.ndarray, n: int):
    """(C, S) = q @ basis over the last axis, and the (P, 2) basis with
    columns cos(2 pi n j / P) and sin(2 pi n j / P); the angle is reduced
    as (n j) mod P before it is scaled.

    For 0 < n mod P the projection is of q - qbar: exact, since each basis
    column sums to zero, and rounded at the scale of the fluctuations.
    Modes 0 and P keep C = sum_j q_j, so that L_n = |sum_j q_j|.
    """
    P = q.shape[-1]
    ang = 2.0 * np.pi * ((n * np.arange(P)) % P) / P
    basis = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    if n % P:
        q = q - np.mean(q, axis=-1, keepdims=True)
    return q @ basis, basis


def fourier_mode_norm(q, n: int):
    """L_n(q), computed from the real cosine/sine sums."""
    cs, _ = _mode_sums(np.asarray(q, dtype=float), n)
    return np.hypot(cs[..., 0], cs[..., 1])


def quad_diff_norm(q, n: int):
    """D_n(q) = sqrt(sum_j (q_j - q_{j+n})^2)."""
    q = np.asarray(q, dtype=float)
    diff = q - np.roll(q, -n, axis=-1)
    return np.sqrt(_rowdot(diff, diff))


def _singular(norm, q) -> np.ndarray:
    """True where the norm term is below the floor relative to max(1, |q|)."""
    return norm <= _NORM_FLOOR * np.maximum(1.0, np.sqrt(_rowdot(q, q)))


def f_eval(spec: Surface, q):
    """Value of the dividing-surface function (not offset by d)."""
    q = _check(spec, q)
    P = q.shape[-1]
    mean = np.mean(q, axis=-1)
    if isinstance(spec, CentroidSurface):
        return mean
    if isinstance(spec, FourierNormSurface):
        L = fourier_mode_norm(q, spec.mode)
        return np.cos(spec.phi) * mean + np.sqrt(2.0) * np.sin(spec.phi) * L / P
    D = quad_diff_norm(q, spec.offset)
    return np.cos(spec.phi) * mean + np.sin(spec.phi) * D / spec.norm_factor(P)


def grad_f(spec: Surface, q):
    """Gradient of f with respect to each bead (last axis).

    The norm term is computed once; the singular check reads the same norm,
    and raises SingularSurfaceError where it vanishes.
    """
    q = _check(spec, q)
    P = q.shape[-1]
    if isinstance(spec, CentroidSurface):
        return np.broadcast_to(1.0 / P, q.shape).copy()
    if isinstance(spec, FourierNormSurface):
        cs, basis = _mode_sums(q, spec.mode)
        L = np.hypot(cs[..., 0], cs[..., 1])
        if np.any(_singular(L, q)):
            raise SingularSurfaceError("surface norm term vanishes on this path")
        # sum_j cos(2 pi n (k - j)/P) q_j = cos(ang_k) C + sin(ang_k) S
        g = cs @ basis.T
        g *= np.sqrt(2.0) * np.sin(spec.phi)
        g /= P * L[..., None]
    else:
        n = spec.offset
        diff = q - np.roll(q, -n, axis=-1)
        D = np.sqrt(_rowdot(diff, diff))
        if np.any(_singular(D, q)):
            raise SingularSurfaceError("surface norm term vanishes on this path")
        # 2 q_j - q_{j+n} - q_{j-n} = diff_j - diff_{j-n}
        g = diff - np.roll(diff, n, axis=-1)
        g *= np.sin(spec.phi)
        g /= spec.norm_factor(P) * D[..., None]
    g += np.cos(spec.phi) / P
    return g


def _g_p_coef(params: ThermoParams, P: int) -> float:
    return params.mass * P / (2.0 * params.beta * params.hbar)


@dataclass(frozen=True)
class SurfaceFactors:
    """Surface quantities of a path (scalars) or a batch of paths (arrays
    over the leading axes), all from one gradient evaluation per path.

    f:              f(q) = sum_k q_k df/dq_k (Euler's identity)
    b_p:            B_P = sum_k (df/dq_k)^2
    t_vec:          T_k = (df/dq_k) / sqrt(B_P), same shape as the paths
    flux_sum:       sum_k (df/dq_k) (T_{k-1} + 2 T_k + T_{k+1}) / 4
    sum_difference: flux_sum - sqrt(B_P)
    g_p:            link-form g_P; None when no ThermoParams were given
    """

    f: np.ndarray
    b_p: np.ndarray
    t_vec: np.ndarray
    flux_sum: np.ndarray
    sum_difference: np.ndarray
    g_p: np.ndarray | None

    def t_diff(self, k: int):
        """Backward unit-gradient difference T_{k-1} - T_k (cyclic in k)."""
        P = self.t_vec.shape[-1]
        return self.t_vec[..., (k - 1) % P] - self.t_vec[..., k % P]


def surface_factors(spec: Surface, q, params: ThermoParams | None = None) -> SurfaceFactors:
    """f, B_P, T, flux sum, sum-difference and link-form g_P of each path.

    One ``grad_f`` call per path, in row blocks of about BLOCK_ELEMS
    elements.  Every surface is homogeneous of degree one in q, so
    f = sum_k q_k df/dq_k is one row dot product of that gradient.  With
    S = sum_k (T_{k+1} - T_k)^2 = 2 (1 - A), where A = sum_k T_k T_{k+1},
    the rolled sums re-sum in closed form:

        flux_sum       = sqrt(B_P) (1 + A) / 2 = sqrt(B_P) (1 - S / 4)
        sum_difference = sqrt(B_P) (A - 1) / 2 = -sqrt(B_P) S / 4

    (S instead of A - 1: no cancellation, and exactly zero for a constant T).
    g_P = coef sum_k (q_{k+1} - q_k) T_k is a slice dot product plus the
    wrap-around term, with no rolled copy.

    The centroid surface has the gradient 1/P on every path, so one row is
    evaluated and broadcast (t_vec is then a read-only view): f is the
    mean, S = 0, and g_P = 0 exactly, since the link sum telescopes.
    """
    q = _check(spec, q)
    P = q.shape[-1]
    lead = q.shape[:-1]
    flat = q.reshape(-1, P)
    n = flat.shape[0]
    if isinstance(spec, CentroidSurface):
        g = grad_f(spec, flat[:1])
        B = np.broadcast_to(_rowdot(g, g), (n,)).copy()
        T = np.broadcast_to(g / np.sqrt(B[:1, None]), (n, P))
        f = np.mean(flat, axis=-1)
        S, link = np.zeros(n), np.zeros(n)
    else:
        T = np.empty((n, P))
        f, B, S, link = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
        rows = max(1, BLOCK_ELEMS // P)
        for lo in range(0, n, rows):
            blk = slice(lo, lo + rows)
            qb, Tb = flat[blk], T[blk]
            g = grad_f(spec, qb)
            f[blk] = _rowdot(qb, g)
            B[blk] = _rowdot(g, g)
            if np.any(B[blk] == 0.0):
                raise SingularSurfaceError("gradient vanishes; T undefined")
            np.divide(g, np.sqrt(B[blk])[:, None], out=Tb)
            dT = np.diff(Tb, axis=-1)
            S[blk] = _rowdot(dT, dT) + (Tb[:, 0] - Tb[:, -1]) ** 2
            link[blk] = _rowdot(np.diff(qb, axis=-1), Tb[:, :-1]) + (qb[:, 0] - qb[:, -1]) * Tb[:, -1]
    root = np.sqrt(B)
    sum_diff = -0.25 * root * S

    def shaped(x):
        return x.reshape(lead)[()]

    return SurfaceFactors(
        f=shaped(f),
        b_p=shaped(B),
        t_vec=T.reshape(q.shape),
        flux_sum=shaped(root + sum_diff),
        sum_difference=shaped(sum_diff),
        g_p=None if params is None else shaped(_g_p_coef(params, P) * link),
    )


def g_p(spec: Surface, q, params: ThermoParams):
    """Path-dependent coupling g_P(q) in the cyclic form,

        (m P / 2 beta hbar) sum_k (q_k - qbar) (T_{k-1} - T_k),

    the independent cross-check of the link form
    (m P / 2 beta hbar) sum_k (q_{k+1} - q_k) T_k that ``surface_factors``
    returns as ``SurfaceFactors.g_p``.  The two are identical by cyclic
    re-summation.  This form normalizes the gradient and rolls T itself.
    Subtracting the centroid qbar changes nothing exactly, since
    sum_k (T_{k-1} - T_k) = 0, but keeps the rounding at the scale of the
    fluctuations rather than of |q|.
    """
    q = _check(spec, q)
    g = grad_f(spec, q)
    T = g / np.sqrt(np.sum(g**2, axis=-1, keepdims=True))
    coef = _g_p_coef(params, q.shape[-1])
    dq = q - np.mean(q, axis=-1, keepdims=True)
    return coef * np.sum(dq * (np.roll(T, 1, axis=-1) - T), axis=-1)


@dataclass(frozen=True)
class DiagnosticsRow:
    bead_count: int
    t_gap_scaled: float
    g_scaled: float


@dataclass(frozen=True)
class DiagnosticsTable:
    """Equivalence-condition table: the two theories coincide in the large-P
    limit only if both scaled columns vanish."""

    rows: list[DiagnosticsRow]
    t_gap_verdict: str
    g_verdict: str

    @property
    def overall_verdict(self) -> str:
        order = {"vanishing": 0, "finite": 1, "diverging": 2}
        worst = max((self.t_gap_verdict, self.g_verdict), key=order.__getitem__)
        return worst


def _trend_verdict(P_list, values) -> str:
    from .fitting import fit_power_law

    vals = np.asarray(values, dtype=float)
    if np.all(np.abs(vals) < 1e-14):
        return "vanishing"
    fit = fit_power_law(P_list, np.abs(vals))
    if fit.exponent < -0.1:
        return "vanishing"
    if fit.exponent <= 0.1:
        return "finite"
    return "diverging"


def equivalence_diagnostics(family, P_list, params: ThermoParams) -> DiagnosticsTable:
    """Evaluate max_k |T_{k+1} - T_k| sqrt(P) and |g_P| / sqrt(P) over a
    family of (surface, path) pairs indexed by bead count.

    family(P) must return a (surface, path) pair with a length-P path.
    Both columns must tend to zero for the harmonic-analysis rate to reduce
    to the ring-polymer one; the fitted trend of each column is classified
    as vanishing, finite, or diverging.
    """
    rows = []
    for P in P_list:
        spec, q = family(P)
        q = np.asarray(q, dtype=float)
        if q.shape != (P,):
            raise ValueError("family returned a path of wrong length")
        sf = surface_factors(spec, q, params.with_beads(P))
        gap = float(np.max(np.abs(np.roll(sf.t_vec, -1) - sf.t_vec)))
        gp = float(sf.g_p)
        rows.append(
            DiagnosticsRow(
                bead_count=P,
                t_gap_scaled=gap * np.sqrt(P),
                g_scaled=abs(gp) / np.sqrt(P),
            )
        )
    Ps = [r.bead_count for r in rows]
    return DiagnosticsTable(
        rows=rows,
        t_gap_verdict=_trend_verdict(Ps, [r.t_gap_scaled for r in rows]),
        g_verdict=_trend_verdict(Ps, [r.g_scaled for r in rows]),
    )


def surface_from_config(cfg: dict) -> Surface:
    kind = cfg.get("kind", "centroid")
    if kind == "centroid":
        return CentroidSurface()
    if kind == "fourier_norm":
        return FourierNormSurface(mode=cfg["mode"], phi=cfg.get("phi", np.pi / 4))
    if kind == "quad_diff":
        return QuadDiffSurface(offset=cfg["offset"], phi=cfg.get("phi", np.pi / 4))
    raise ValueError(f"unknown surface kind: {kind!r}")
