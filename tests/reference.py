"""Reference values the tests compare the library against.

Each is written out from its definition or closed form, independently of
``surfaces.mode_factors``: the real-space surface value f with its own
Fourier-mode and offset-difference sums, the closed forms of the
Fourier-norm surface on single-mode paths, and the eta0 Gaussian integral
by quadrature.  ``divergence_probe`` is the overflow demonstration on
half-mode-excited paths.
"""
import numpy as np

from ringtst import rates
from ringtst.params import ThermoParams
from ringtst.paths import SinusoidalPathSpec, sinusoidal_path
from ringtst.surfaces import CentroidSurface, FourierNormSurface, surface_factors

# ---------------------------------------------------------------------------
# surface value from its definition
# ---------------------------------------------------------------------------


def fourier_mode_norm(q, n: int):
    """L_n(q) = |sum_j (q_j - qbar) exp(2 pi i n j / P)|, from the real
    cosine and sine sums; the angle is reduced as (n j) mod P before it is
    scaled, and centring rounds at the scale of the fluctuations."""
    q = np.asarray(q, dtype=float)
    P = q.shape[-1]
    ang = 2.0 * np.pi * ((n * np.arange(P)) % P) / P
    basis = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    cs = (q - np.mean(q, axis=-1, keepdims=True)) @ basis
    return np.hypot(cs[..., 0], cs[..., 1])


def quad_diff_norm(q, n: int):
    """D_n(q) = sqrt(sum_j (q_j - q_{j+n})^2)."""
    q = np.asarray(q, dtype=float)
    diff = q - np.roll(q, -n, axis=-1)
    return np.sqrt(np.einsum("...k,...k->...", diff, diff))


def f_eval(spec, q):
    """Value of the dividing-surface function (not offset by d)."""
    q = np.asarray(q, dtype=float)
    P = q.shape[-1]
    mean = np.mean(q, axis=-1)
    if isinstance(spec, CentroidSurface):
        return mean
    if isinstance(spec, FourierNormSurface):
        L = fourier_mode_norm(q, spec.mode)
        return np.cos(spec.phi) * mean + np.sqrt(2.0) * np.sin(spec.phi) * L / P
    D = quad_diff_norm(q, spec.offset)
    return np.cos(spec.phi) * mean + np.sin(spec.phi) * D / spec.norm_factor(P)


# ---------------------------------------------------------------------------
# Fourier-norm surface on the matching single-mode path
# q_j = q0 + sqrt(2) A sin(2 pi n j / P + alpha)
# ---------------------------------------------------------------------------


def _theta(P, n):
    return 2.0 * np.pi * np.asarray(n, dtype=float) / np.asarray(P, dtype=float)


def sum_difference_figure(P, n):
    """(1 / sqrt(P)) sin^2(pi n / P) {3 cos^2(pi n / P) - 1}.

    Companion closed form of the figure series.  The gradient-based
    evaluation is ``sum_difference_gradient``; at n / P = 1/4 the two have
    equal magnitude for phi = pi/4.
    """
    a = np.pi * np.asarray(n, float) / np.asarray(P, float)
    return np.sin(a) ** 2 * (3.0 * np.cos(a) ** 2 - 1.0) / np.sqrt(np.asarray(P, float))


def tdiff_gradient(P, n, k: int = 2, alpha: float = 0.0, phi: float = np.pi / 2):
    """T_{k-1} - T_k, derived by differencing the surface gradient; exact
    for 0 < n < P with n != P/2."""
    th = _theta(P, n)
    half = np.sin(0.5 * th) ** 2
    A = th * k + alpha
    return -(np.sqrt(2.0) * np.sin(phi) / np.sqrt(np.asarray(P, float))) * (
        np.sin(th) * np.cos(A) + 2.0 * half * np.sin(A)
    )


def sum_difference_gradient(P, n, phi: float = np.pi / 2):
    """Gradient-consistent sum-difference: -sin^2(phi) sin^2(pi n / P) / sqrt(P)."""
    a = np.pi * np.asarray(n, float) / np.asarray(P, float)
    return -np.sin(phi) ** 2 * np.sin(a) ** 2 / np.sqrt(np.asarray(P, float))


def mode_norm_sinusoidal(P, n, amplitude):
    """L_n = A P / sqrt(2) (0 < n < P, n != P/2)."""
    return np.asarray(amplitude, float) * np.asarray(P, float) / np.sqrt(2.0)


def gp_sinusoidal(P, n, amplitude, phi, params: ThermoParams):
    """g_P (generic n): -(m sin(phi) / beta hbar) A sin^2(pi n / P) P^{3/2}."""
    a = np.pi * np.asarray(n, float) / np.asarray(P, float)
    return (
        -(params.mass * np.sin(phi) / (params.beta * params.hbar))
        * np.asarray(amplitude, float)
        * np.sin(a) ** 2
        * np.asarray(P, float) ** 1.5
    )


# half mode (even P, n = P/2): the mode norm degenerates to |Q2 - Q1| and
# B_P is no longer path independent


def half_mode_b_p(phi, P):
    """B_P = (cos^2 phi + 2 sin^2 phi) / P for even P, n = P/2."""
    return (np.cos(phi) ** 2 + 2.0 * np.sin(phi) ** 2) / np.asarray(P, float)


def half_mode_tdiff_abs(phi, P):
    """|T_{k-1} - T_k| = 2 sqrt(2) |sin phi| / sqrt(P (cos^2 phi + 2 sin^2 phi))."""
    P = np.asarray(P, float)
    return 2.0 * np.sqrt(2.0) * np.abs(np.sin(phi)) / np.sqrt(P * (np.cos(phi) ** 2 + 2.0 * np.sin(phi) ** 2))


def half_mode_gp(phi, q, params: ThermoParams):
    """g_P for even P, n = P/2 from the alternating bead sums.

    With Q2 - Q1 = sum_k (-1)^k q_k:
    -(m / beta hbar) sqrt(2) sin(phi) sqrt(P) |Q2 - Q1|
        / sqrt(cos^2 phi + 2 sin^2 phi)
    """
    q = np.asarray(q, dtype=float)
    P = q.shape[-1]
    if P % 2:
        raise ValueError("half-mode forms require even P")
    alt = np.sum(q * np.cos(np.pi * np.arange(P)), axis=-1)
    return (
        -(params.mass / (params.beta * params.hbar))
        * np.sqrt(2.0)
        * np.sin(phi)
        * np.sqrt(float(P))
        * np.abs(alt)
        / np.sqrt(np.cos(phi) ** 2 + 2.0 * np.sin(phi) ** 2)
    )


# ---------------------------------------------------------------------------
# eta0 integral and the harmonic-analysis overflow
# ---------------------------------------------------------------------------


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


def divergence_probe(P_list, params: ThermoParams) -> list[dict]:
    """Log-weight of the harmonic-analysis factor on unit-amplitude
    half-mode-excited sinusoidal paths (surface phi = rates.SWEEP_PHI), per
    bead count, with the overflow verdict.

    The ring-polymer flux factor stays finite on the same paths; only the
    exponential enhancement overflows, and it does so at a bead count that
    grows like the square root of the guard.
    """
    rows = []
    for P in P_list:
        if P % 2:
            raise ValueError("half-mode probe needs even P")
        pp = params.with_beads(P)
        spec = FourierNormSurface(mode=P // 2, phi=rates.SWEEP_PHI)
        q = sinusoidal_path(SinusoidalPathSpec(q0=0.0, amplitude=1.0, mode=P // 2, phase=np.pi / 4), P)
        sf = surface_factors(spec, q, pp)
        lw = float(rates.ha_log_weight(sf.g_p, pp))
        rows.append(
            {
                "P": P,
                "log_weight": lw,
                "divergence_flag": lw > rates.OVERFLOW_GUARD,
                "rpmd_factor": float(np.sqrt(sf.b_p)),
            }
        )
    return rows
