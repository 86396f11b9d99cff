"""The k-resolved trigonometric T-difference series of the published
log-log figure for the Fourier-norm surface on single-mode paths, and its
oscillation envelope.

Their P-scaling is that of the gradient-based T-difference, but their
normalization is not: see the docstrings.  They are kept verbatim because
the figure reproduction and its spot values are defined in terms of them.
"""
from __future__ import annotations

import numpy as np


def _theta(P, n):
    return 2.0 * np.pi * np.asarray(n, dtype=float) / np.asarray(P, dtype=float)


def tdiff_figure(P, n, k: int = 2, alpha: float = 0.0):
    """k-resolved T-difference series of the log-log figure.

    (2 sqrt(2) / sqrt(P)) { sin(2 pi n / P) cos(2 pi n k / P + alpha)
                            - sin^2(pi n / P) sin(2 pi n k / P + alpha) }

    Note: the gradient-based difference T_{k-1} - T_k on the same path
    (``SurfaceFactors.t_diff``) shares its P-scaling but differs in overall
    normalization and in the weight of the second harmonic term.
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
