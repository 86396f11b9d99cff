"""Boltzmann path weights and average imaginary-time momenta."""
from __future__ import annotations

import numpy as np

from .params import ThermoParams
from .potentials import Potential


def _check_length(path: np.ndarray, params: ThermoParams) -> np.ndarray:
    q = np.asarray(path, dtype=float)
    if q.shape[-1] != params.bead_count:
        raise ValueError(
            f"path length {q.shape[-1]} does not match bead_count {params.bead_count}"
        )
    return q


def log_rho_ring(path, params: ThermoParams, pot: Potential):
    """Log of the diagonal ring-polymer density weight.

    log rho = (P/2) log(mP / 2 pi beta hbar^2)
              - eps sum_k V(q_k) - (m / 2 eps hbar^2) sum_k (q_k - q_{k+1})^2

    Accepts a single path or a batch with paths along the last axis.
    The log domain is the primary representation: the prefactor alone
    overflows a double for P of a few hundred.
    """
    q = _check_length(path, params)
    P = params.bead_count
    eps = params.epsilon
    prefactor = 0.5 * P * np.log(
        params.mass * P / (2.0 * np.pi * params.beta * params.hbar**2)
    )
    links = q - np.roll(q, -1, axis=-1)
    spring = params.spring_coefficient * np.sum(links**2, axis=-1)
    potential = eps * np.sum(pot.value(q), axis=-1)
    return prefactor - potential - spring


def momentum_avg_leading(
    side: str,
    k: int,
    path,
    eta,
    params: ThermoParams,
) -> complex:
    """Leading-order average imaginary-time momentum at bead k.

    side='plus':  (i m P / hbar beta) (q_{k-1} - q_k - eta_{k-1}/2 - eta_k/2)
    side='minus': (i m P / hbar beta) (q_k - q_{k+1} - eta_k/2 - eta_{k+1}/2)
    """
    q = _check_length(path, params)
    e = np.asarray(eta, dtype=float)
    if e.shape != q.shape:
        raise ValueError("eta must have the same length as the path")
    P = params.bead_count
    coef = 1j * params.mass * P / (params.hbar * params.beta)
    if side == "plus":
        return coef * (q[(k - 1) % P] - q[k % P] - 0.5 * e[(k - 1) % P] - 0.5 * e[k % P])
    if side == "minus":
        return coef * (q[k % P] - q[(k + 1) % P] - 0.5 * e[k % P] - 0.5 * e[(k + 1) % P])
    raise ValueError("side must be 'plus' or 'minus'")


def momentum_avg_exact_free(
    x: float, y: float, epsilon: float, params: ThermoParams
) -> complex:
    """Exact <x|exp(-eps H)p|y> / <x|exp(-eps H)|y> for the free particle.

    The Gaussian kernel gives i m (x - y) / (hbar eps) exactly, which the
    leading-order expression reproduces at eta = 0 and eps = beta / P.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    return 1j * params.mass * (x - y) / (params.hbar * epsilon)
