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
(n_paths, P) is handled in one call.  ``mode_factors`` is the one evaluator
of the gradient-derived quantities: f, B_P, T, the flux sum, the
sum-difference and link-form g_P are attributes of the ``SurfaceFactors``
it returns.  Its input is the paths' amplitudes on ``paths.fourier_mode_basis``
and their centroids, the coordinates the free ring-polymer sampler draws.
The surfaces are cyclically invariant, so both non-centroid families read
f = cos(phi) c + sin(phi) N / R with N^2 a weighted sum of squared
amplitudes, and one code path evaluates them, with no real-space pass;
only f depends on c, so the estimators evaluate at c = 0.
``surface_factors`` takes real-space paths to the same evaluator through
one centred rfft; the gradient of f is sqrt(B_P) T.  ``g_p`` keeps the
cyclic form of g_P, a bead sum over the irfft-built T, as a cross-check
of the closed-form link sum; no ensemble calls them.  The real-space
reference of every quantity lives in the tests.

A Fourier-norm mode n lies in 1 .. P - 1 (``_check_order``): mode P, like
mode 0, has L_n = P |c|, a norm that depends on the centroid.  The rfft
is taken of q - qbar, so the rounding of the amplitudes follows the
fluctuations of the path rather than |q|.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .params import ThermoParams
from .paths import _basis_rows, _irfft_paths, fourier_basis_eigenvalues, mode_amplitudes


class SingularSurfaceError(ValueError):
    """Gradient requested where the surface norm term vanishes."""


# Smallest |cos(phi)| a surface accepts by default.
PHI_FLOOR = 1e-3


def _check_phi(phi: float, floor: float) -> None:
    if abs(np.cos(phi)) < floor:
        raise ValueError(f"|cos(phi)| = {abs(np.cos(phi)):.3e} below floor {floor:.1e}")


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
    phi_floor: float = PHI_FLOOR

    def __post_init__(self):
        if self.mode < 1:
            raise ValueError("mode must be >= 1")
        _check_phi(self.phi, self.phi_floor)

    def norm_factor(self, bead_count: int) -> float:
        """R = P / sqrt(2), so that f = cos(phi) c + sin(phi) L_n / R."""
        return bead_count / np.sqrt(2.0)


@dataclass(frozen=True)
class QuadDiffSurface:
    """Centroid mixed with the norm of offset-n bead differences; |cos(phi)|
    must be at least PHI_FLOOR."""

    offset: int
    phi: float

    def __post_init__(self):
        if self.offset < 1:
            raise ValueError("offset must be >= 1")
        _check_phi(self.phi, PHI_FLOOR)

    def norm_factor(self, bead_count: int) -> float:
        """R(n): order 1 for n = O(1), order sqrt(P) for n near P/2."""
        return max(1.0, np.sqrt(2.0 * bead_count) * np.sin(np.pi * self.offset / bead_count))


Surface = CentroidSurface | FourierNormSurface | QuadDiffSurface

# Relative floor below which the norm term counts as singular.
_NORM_FLOOR = 1e-12


def _check_order(spec: Surface, P: int) -> None:
    if isinstance(spec, FourierNormSurface) and spec.mode >= P:
        raise ValueError(
            f"Fourier-norm mode {spec.mode} at P = {P}: the mode must be below the bead count "
            "(the norm of mode P, P |c|, depends on the centroid)"
        )
    if isinstance(spec, QuadDiffSurface) and spec.offset > P - 1:
        raise ValueError("surface offset exceeds P - 1")


def _check(spec: Surface, q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    _check_order(spec, q.shape[-1])
    return q


def _raise_if_singular(norm, amps, centroid) -> None:
    """Raise SingularSurfaceError where the norm term is at most _NORM_FLOOR
    times max(1, |q|), with |q|^2 = sum amps^2 + P c^2 (the basis is
    orthonormal and orthogonal to the constant path)."""
    P = amps.shape[-1] + 1
    q_sq = np.einsum("...k,...k->...", amps, amps) + P * centroid**2
    if np.any(norm <= _NORM_FLOOR * np.maximum(1.0, np.sqrt(q_sq))):
        raise SingularSurfaceError("surface norm term vanishes on this path")


def _g_p_coef(params: ThermoParams, P: int) -> float:
    return params.mass * P / (2.0 * params.beta * params.hbar)


@dataclass(frozen=True)
class SurfaceFactors:
    """Surface quantities of a path (scalars) or a batch of paths (arrays
    over the leading axes), all from one evaluation per path.

    f:              f(q), the surface value (not offset by d)
    b_p:            B_P = sum_k (df/dq_k)^2
    t_vec:          T_k = (df/dq_k) / sqrt(B_P), same shape as the paths;
                    built on first read
    flux_sum:       sum_k (df/dq_k) (T_{k-1} + 2 T_k + T_{k+1}) / 4
    sum_difference: flux_sum - sqrt(B_P)
    g_p:            link-form g_P; None when no ThermoParams were given

    T is kept in Fourier-mode form, T_k = t0 + t1 sum_j mu_j a_j B_kj with
    B = fourier_mode_basis(P) and a the amplitudes of the path (mu = None
    for a T that is constant along the ring), so that ``t_diff`` reads two
    rows of B and no (rows, P) array is built unless t_vec is read.
    """

    f: np.ndarray
    b_p: np.ndarray
    flux_sum: np.ndarray
    sum_difference: np.ndarray
    g_p: np.ndarray | None
    _t0: np.ndarray = field(repr=False)
    _t1: np.ndarray = field(repr=False)
    _amps: np.ndarray = field(repr=False)
    _mu: np.ndarray | None = field(repr=False)

    @functools.cached_property
    def t_vec(self) -> np.ndarray:
        lead, P = self._amps.shape[:-1], self._amps.shape[-1] + 1
        a = self._amps.reshape(-1, P - 1)
        t0 = self._t0.reshape(-1, 1)
        if self._mu is None:
            return np.broadcast_to(t0, (a.shape[0], P)).reshape(lead + (P,))
        T = _irfft_paths(a * self._mu, 0.0)
        T *= self._t1.reshape(-1, 1)
        T += t0
        return T.reshape(lead + (P,))

    def t_diff(self, k: int):
        """Backward unit-gradient difference T_{k-1} - T_k (cyclic in k)."""
        if self._mu is None:
            return np.zeros_like(self._t0)[()]
        P = self._amps.shape[-1] + 1
        rows = _basis_rows(P, np.array([(k - 1) % P, k % P]))
        return (self._t1 * (self._amps @ ((rows[0] - rows[1]) * self._mu)))[()]


@functools.lru_cache(maxsize=64)
def _mode_weights(spec: FourierNormSurface | QuadDiffSurface, P: int) -> tuple[slice, np.ndarray, np.ndarray]:
    """(cols, W, mu) of N^2 = sum_j w_j a_j^2 over the columns a[:, cols], a
    slice so that a[:, cols] is a view: quad-diff offset n weights every
    column by lambda_n; Fourier-norm mode l = min(n, P - n) its (cos, sin)
    columns by P / 2, or the Nyquist column by P.  W = [w, w^2, w^2 lambda_1,
    -lambda_1 w / 2] and mu = w on all P - 1 columns are cached, read-only."""
    if isinstance(spec, QuadDiffSurface):
        cols, w = slice(None), fourier_basis_eigenvalues(P, spec.offset)
    else:
        l = min(spec.mode, P - spec.mode)
        if 2 * l == P:
            cols, w = slice(P - 2, P - 1), np.array([float(P)])
        else:
            cols, w = slice(2 * l - 2, 2 * l), np.full(2, P / 2.0)
    lam_1 = fourier_basis_eigenvalues(P)[cols]
    W = np.stack([w, w**2, w**2 * lam_1, -0.5 * lam_1 * w], axis=1)
    mu = np.zeros(P - 1)
    mu[cols] = w
    W.flags.writeable = mu.flags.writeable = False
    return cols, W, mu


def mode_factors(spec: Surface, amps, centroid, params: ThermoParams | None = None) -> SurfaceFactors:
    """f, B_P, T, flux sum, sum-difference and link-form g_P of paths given
    by their fourier_mode_basis amplitudes (..., P - 1) and centroids
    (a scalar or an array over the leading axes).

    Every quadratic form behind the surfaces is circulant, so diagonal in
    those amplitudes.  With S = sum_k (T_{k+1} - T_k)^2 and the link sum
    sum_k (q_{k+1} - q_k) T_k,

        flux_sum       = sqrt(B_P) (1 - S / 4)
        sum_difference = -sqrt(B_P) S / 4
        g_P            = (m P / 2 beta hbar) link.

    Fourier-norm and quad-diff surfaces share one form,
    f = cos(phi) c + sin(phi) N / R, with R = ``norm_factor(P)`` and
    N^2 = sum_j w_j a_j^2 over the columns and weights of ``_mode_weights``
    (N = L_n or D_n).  The gradient of N is curv / N with
    curv_k = sum_j w_j a_j B_kj (B = fourier_mode_basis(P)), and with
    A = a[:, cols]^2 and lambda_1 the spring eigenvalues of those columns,
    one product A @ W gives N^2 = A w, |curv|^2 = A w^2,
    sum_k (curv_{k+1} - curv_k)^2 = A w^2 lambda_1 and
    sum_k (q_{k+1} - q_k) curv_k = -A lambda_1 w / 2.  With
    t1 = sin(phi) / (R N): B_P = cos^2(phi) / P + t1^2 |curv|^2 and
    S = t1^2 sum_k (curv_{k+1} - curv_k)^2 / B_P.

    Only f depends on the centroid: at centroid 0 it is f0 = sin(phi) N / R
    (0 on the centroid surface), which the estimators read to solve the
    surface constraint for the centroid.  Where N is at most 1e-12 of
    max(1, |q|), with |q| at the given centroids, it raises
    SingularSurfaceError.
    """
    amps = np.asarray(amps, dtype=float)
    lead, P = amps.shape[:-1], amps.shape[-1] + 1
    _check_order(spec, P)
    a = amps.reshape(-1, P - 1)
    n = a.shape[0]
    c = np.broadcast_to(np.asarray(centroid, dtype=float), lead).reshape(-1)
    mu = None
    if isinstance(spec, CentroidSurface):
        f, B, t0, t1 = c.copy(), np.full(n, 1.0 / P), 1.0 / P, 0.0
        S, link = 0.0, 0.0
    else:
        cos_phi, sin_phi = np.cos(spec.phi), np.sin(spec.phi)
        t0 = cos_phi / P
        cols, W, mu = _mode_weights(spec, P)
        a_w = a[:, cols]
        N2, curv2, dcurv2, link = (np.square(a_w) @ W).T
        N = np.sqrt(N2)
        R = spec.norm_factor(P)
        f0 = sin_phi * N / R
        _raise_if_singular(N, a, c)
        t1 = sin_phi / (R * N)
        B = cos_phi**2 / P + t1**2 * curv2
        S = t1**2 * dcurv2 / B
        link = t1 * link
        f = cos_phi * c + f0
    root = np.sqrt(B)
    sum_diff = -0.25 * root * S
    # the link sum of the unit vector T is that of the gradient over sqrt(B_P)
    link = link / root

    def shaped(x):
        x = np.asarray(x)
        return (np.full(n, x) if x.ndim == 0 else x).reshape(lead)[()]

    return SurfaceFactors(
        f=shaped(f),
        b_p=shaped(B),
        flux_sum=shaped(root + sum_diff),
        sum_difference=shaped(sum_diff),
        g_p=None if params is None else shaped(_g_p_coef(params, P) * link),
        _t0=shaped(t0 / root),
        _t1=shaped(t1 / root),
        _amps=amps,
        _mu=mu,
    )


def surface_factors(spec: Surface, q, params: ThermoParams | None = None) -> SurfaceFactors:
    """``mode_factors`` of real-space paths q (..., P): one centred rfft
    maps them to their amplitudes and centroids.  Scalars for a single
    path, arrays over the leading axes for a batch."""
    q = _check(spec, q)
    return mode_factors(spec, *mode_amplitudes(q), params)


def g_p(spec: Surface, q, params: ThermoParams):
    """Path-dependent coupling g_P(q) in the cyclic form,

        (m P / 2 beta hbar) sum_k (q_k - qbar) (T_{k-1} - T_k),

    the cross-check of the link form
    (m P / 2 beta hbar) sum_k (q_{k+1} - q_k) T_k that ``surface_factors``
    returns as ``SurfaceFactors.g_p``.  The two are identical by cyclic
    re-summation: the link form is a closed form in the mode amplitudes,
    while this one rolls the real-space T that ``SurfaceFactors.t_vec``
    builds with irfft and sums over the beads.  Subtracting the centroid
    qbar changes nothing exactly, since sum_k (T_{k-1} - T_k) = 0, but
    keeps the rounding at the scale of the fluctuations rather than of |q|.
    """
    q = _check(spec, q)
    T = surface_factors(spec, q).t_vec
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
    """The surface of a config's ``surface`` mapping; ValueError names a missing key."""
    kind = cfg.get("kind", "centroid")
    if kind == "centroid":
        return CentroidSurface()
    families = {"fourier_norm": (FourierNormSurface, "mode"), "quad_diff": (QuadDiffSurface, "offset")}
    if kind not in families:
        raise ValueError(f"unknown surface kind: {kind!r}")
    cls, key = families[kind]
    if key not in cfg:
        raise ValueError(f"surface kind {kind!r} needs the key {key!r}")
    return cls(cfg[key], phi=cfg.get("phi", np.pi / 4))
