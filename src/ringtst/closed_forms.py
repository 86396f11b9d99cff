"""Closed-form expressions for the Fourier-norm surface on single-mode paths.

Two kinds of formulas live here:

* gradient-consistent forms, re-derived from the surface gradient; these
  match the generic (t_vec based) evaluation to round-off and are what the
  agreement tests use;
* the k-resolved trigonometric series used for the published log-log
  figure (``tdiff_figure``) and its companion sum-difference expression
  (``sum_difference_figure``).  Their P-scaling is identical to the
  gradient-consistent forms, but their normalization is not: see the
  docstrings.  They are kept verbatim because the figure reproduction and
  its spot values are defined in terms of them.
"""
from __future__ import annotations

import numpy as np

from .params import ThermoParams


def _theta(P, n):
    return 2.0 * np.pi * np.asarray(n, dtype=float) / np.asarray(P, dtype=float)


# ---------------------------------------------------------------------------
# figure-series forms (verbatim normalization of the published figure)
# ---------------------------------------------------------------------------

def tdiff_figure(P, n, k: int = 2, alpha: float = 0.0):
    """k-resolved T-difference series of the log-log figure.

    (2 sqrt(2) / sqrt(P)) { sin(2 pi n / P) cos(2 pi n k / P + alpha)
                            - sin^2(pi n / P) sin(2 pi n k / P + alpha) }

    Note: the gradient-based difference T_{k-1} - T_k on the same path is
    ``tdiff_gradient``; the two share the same P-scaling but differ in
    overall normalization and in the weight of the second harmonic term.
    """
    th = _theta(P, n)
    half = np.sin(0.5 * th) ** 2
    A = th * k + alpha
    return (2.0 * np.sqrt(2.0) / np.sqrt(np.asarray(P, float))) * (
        np.sin(th) * np.cos(A) - half * np.sin(A)
    )


def tdiff_figure_amplitude(P, n):
    """Oscillation amplitude of tdiff_figure over the bead index k.

    The k-resolved series sweeps through zeros of its phase factor as P
    varies, which contaminates finite-range log-log fits; the amplitude
    is the smooth envelope whose fitted slope reproduces the asymptotic
    exponent.
    """
    th = _theta(P, n)
    half = np.sin(0.5 * th) ** 2
    return (2.0 * np.sqrt(2.0) / np.sqrt(np.asarray(P, float))) * np.hypot(
        np.sin(th), half
    )


def sum_difference_figure(P, n):
    """(1 / sqrt(P)) sin^2(pi n / P) {3 cos^2(pi n / P) - 1}.

    Companion closed form of the figure series.  The gradient-based
    evaluation is ``sum_difference_gradient``; at n / P = 1/4 the two have
    equal magnitude for phi = pi/4.
    """
    a = np.pi * np.asarray(n, float) / np.asarray(P, float)
    return (
        np.sin(a) ** 2 * (3.0 * np.cos(a) ** 2 - 1.0) / np.sqrt(np.asarray(P, float))
    )


# ---------------------------------------------------------------------------
# gradient-consistent forms (agree with the generic evaluation to 1e-10)
# ---------------------------------------------------------------------------

def tdiff_gradient(P, n, k: int = 2, alpha: float = 0.0, phi: float = np.pi / 2):
    """T_{k-1} - T_k on the path q_j = q0 + sqrt(2) A sin(2 pi n j / P + alpha).

    Derived by differencing the surface gradient; equals the generic
    t_vec-based computation exactly for 0 < n < P with n != P/2.
    """
    th = _theta(P, n)
    half = np.sin(0.5 * th) ** 2
    A = th * k + alpha
    return -(np.sqrt(2.0) * np.sin(phi) / np.sqrt(np.asarray(P, float))) * (
        np.sin(th) * np.cos(A) + 2.0 * half * np.sin(A)
    )


def sum_difference_gradient(P, n, phi: float = np.pi / 2):
    """Gradient-consistent sum-difference on a matching single-mode path:

    - sin^2(phi) sin^2(pi n / P) / sqrt(P)
    """
    a = np.pi * np.asarray(n, float) / np.asarray(P, float)
    return -np.sin(phi) ** 2 * np.sin(a) ** 2 / np.sqrt(np.asarray(P, float))


def mode_norm_sinusoidal(P, n, amplitude):
    """L_n on the matching single-mode path: A P / sqrt(2) (0 < n < P, n != P/2)."""
    return np.asarray(amplitude, float) * np.asarray(P, float) / np.sqrt(2.0)


def gp_sinusoidal(P, n, amplitude, phi, params: ThermoParams):
    """g_P on the matching single-mode path (generic n):

    -(m sin(phi) / beta hbar) A sin^2(pi n / P) P^{3/2}
    """
    a = np.pi * np.asarray(n, float) / np.asarray(P, float)
    return (
        -(params.mass * np.sin(phi) / (params.beta * params.hbar))
        * np.asarray(amplitude, float)
        * np.sin(a) ** 2
        * np.asarray(P, float) ** 1.5
    )


# ---------------------------------------------------------------------------
# half mode (even P, n = P/2): the mode norm degenerates to |Q2 - Q1| and
# B_P is no longer path independent.  These forms are gradient-consistent.
# ---------------------------------------------------------------------------

def half_mode_b_p(phi, P):
    """B_P = (cos^2 phi + 2 sin^2 phi) / P for even P, n = P/2."""
    return (np.cos(phi) ** 2 + 2.0 * np.sin(phi) ** 2) / np.asarray(P, float)


def half_mode_tdiff_abs(phi, P):
    """|T_{k-1} - T_k| = 2 sqrt(2) |sin phi| / sqrt(P (cos^2 phi + 2 sin^2 phi))."""
    P = np.asarray(P, float)
    return (
        2.0
        * np.sqrt(2.0)
        * np.abs(np.sin(phi))
        / np.sqrt(P * (np.cos(phi) ** 2 + 2.0 * np.sin(phi) ** 2))
    )


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
