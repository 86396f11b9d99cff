"""Log-domain Boltzmann weight of a discretized ring-polymer path."""
from __future__ import annotations

import numpy as np

from .params import ThermoParams
from .potentials import Potential


def log_rho_ring(path, params: ThermoParams, pot: Potential):
    """Log of the diagonal ring-polymer density weight.

    log rho = (P/2) log(mP / 2 pi beta hbar^2)
              - eps sum_k V(q_k) - (m / 2 eps hbar^2) sum_k (q_k - q_{k+1})^2

    Accepts a single path or a batch with paths along the last axis.
    The log domain is the primary representation: the prefactor alone
    overflows a double for P of a few hundred.
    """
    q = np.asarray(path, dtype=float)
    P = params.bead_count
    if q.shape[-1] != P:
        raise ValueError(f"path length {q.shape[-1]} does not match bead_count {P}")
    eps = params.epsilon
    prefactor = 0.5 * P * np.log(
        params.mass * P / (2.0 * np.pi * params.beta * params.hbar**2)
    )
    links = q - np.roll(q, -1, axis=-1)
    spring = params.spring_coefficient * np.sum(links**2, axis=-1)
    potential = eps * np.sum(pot.value(q), axis=-1)
    return prefactor - potential - spring
