"""Discretized imaginary-time ring-polymer paths, cyclically invariant
dividing surfaces, and the two transition-state-style rate expressions
built on them, plus scaling sweeps comparing their large-P behavior."""

__version__ = "0.1.0"

from .density import log_rho_ring
from .params import ThermoParams
from .paths import SinusoidalPathSpec, sinusoidal_path
from .potentials import DoubleWell, Eckart, FreeParticle, Harmonic, Potential
from .rates import (
    RateReport,
    grid_oracle_rate,
    rate_estimates,
    ratio_sweep,
)
from .scaling import (
    ModeSchedule,
    ScalingSeries,
    figure1_emit,
    gp_series,
    quaddiff_orders,
    sumdiff_series,
    tdiff_series,
)
from .surfaces import (
    CentroidSurface,
    FourierNormSurface,
    QuadDiffSurface,
    SingularSurfaceError,
    SurfaceFactors,
    equivalence_diagnostics,
    g_p,
    surface_factors,
)

__all__ = [
    "__version__",
    "ThermoParams",
    "Potential",
    "FreeParticle",
    "Harmonic",
    "Eckart",
    "DoubleWell",
    "SinusoidalPathSpec",
    "sinusoidal_path",
    "log_rho_ring",
    "CentroidSurface",
    "FourierNormSurface",
    "QuadDiffSurface",
    "SingularSurfaceError",
    "SurfaceFactors",
    "surface_factors",
    "g_p",
    "equivalence_diagnostics",
    "ModeSchedule",
    "ScalingSeries",
    "tdiff_series",
    "gp_series",
    "sumdiff_series",
    "figure1_emit",
    "quaddiff_orders",
    "RateReport",
    "rate_estimates",
    "grid_oracle_rate",
    "ratio_sweep",
]
