"""Bead-count sweeps: power-law behavior of surface quantities.

Deterministic series follow single-mode sinusoidal paths against a
Fourier-norm surface with a matching mode: ``tdiff_series`` gives the
T-difference and its envelope in closed form, with no surface pass, and
``matching_path_series`` reads |g_P| and |sum-difference| from one
``surface_factors`` pass per P.  Stochastic series average over
thermal free-particle paths against the quadratic-difference surface,
reduced block by block through ``paths.map_free_ring_paths`` (on the
worker pool, each block drawing its own normals, when the ensemble spans
more than one block at 16 beads or more, or exceeds 8 MB of paths below)
from the drawn Fourier-mode amplitudes, with no real-space path.  One
ensemble is drawn at the largest P of a sweep, and each smaller P reads
the leading P - 1 normals of every path (the coupling of multilevel Monte
Carlo), so every P is an exact free-ring ensemble and all share common
random numbers.  A block rescales them, one P after another, into its
``"rung"`` scratch (``paths.ModeBlock.scratch``), which each thread
reuses for the call.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .closed_forms import tdiff_figure, tdiff_figure_amplitude
from .fitting import fit_power_law
from .params import ThermoParams
from .paths import SinusoidalPathSpec, free_ring_mode_std, map_free_ring_paths, sinusoidal_path
from .surfaces import FourierNormSurface, QuadDiffSurface, mode_factors, surface_factors

DEFAULT_P_SWEEP = tuple(2**k for k in range(4, 13))  # 16 .. 4096
STOCHASTIC_P_SWEEP = tuple(2**k for k in range(4, 10))  # 16 .. 512

# mixing angle of the matching-path Fourier-norm surfaces (matching_path_series)
MATCHING_PHI = np.pi / 2

# quad-diff surface angle, T-difference index and largest accepted fit
# residual of the thermal-path orders
QUADDIFF_PHI = np.pi / 4
QUADDIFF_K = 2
QUADDIFF_RESIDUAL_THRESHOLD = 0.25


@dataclass(frozen=True)
class ModeSchedule:
    """Surface mode as a function of bead count: n(P)."""

    rule: str
    value: float = 1.0

    @classmethod
    def constant(cls, n0: int) -> "ModeSchedule":
        return cls("constant", float(n0))

    @classmethod
    def sqrt_p(cls) -> "ModeSchedule":
        return cls("sqrtP")

    @classmethod
    def frac_p(cls, c: float) -> "ModeSchedule":
        return cls("fracP", float(c))

    def mode(self, P: int) -> int:
        if self.rule == "constant":
            n = int(round(self.value))
        elif self.rule == "sqrtP":
            n = int(round(np.sqrt(P)))
        elif self.rule == "fracP":
            n = int(round(self.value * P))
        else:
            raise ValueError(f"unknown schedule rule: {self.rule!r}")
        if not 1 <= n <= P:
            raise ValueError(f"schedule gives mode {n} outside [1, {P}]")
        return n

    @property
    def label(self) -> str:
        if self.rule == "constant":
            return f"constant({int(round(self.value))})"
        if self.rule == "sqrtP":
            return "sqrtP"
        return f"fracP({self.value:g})"


def schedule_from_config(cfg: dict | None = None) -> ModeSchedule:
    """The config's ``schedule`` mapping, {'rule': ..., 'value': ...} with
    value defaulting to 1; None gives the default constant(1)."""
    if cfg is None:
        return ModeSchedule.constant(1)
    return ModeSchedule(cfg["rule"], float(cfg.get("value", 1.0)))


@dataclass(frozen=True)
class ScalingSeries:
    quantity_name: str
    points: list = field(default_factory=list)  # (P, value) pairs
    fitted_exponent: float = float("nan")
    fit_residual: float = float("nan")

    @classmethod
    def from_points(cls, name: str, P_list, values) -> "ScalingSeries":
        P_list = [int(P) for P in P_list]
        if any(b <= a for a, b in zip(P_list, P_list[1:])):
            raise ValueError("P values must be strictly increasing")
        values = [float(v) for v in values]
        nz = [(P, v) for P, v in zip(P_list, values) if v != 0.0]
        fit = fit_power_law([p for p, _ in nz], [v for _, v in nz])
        return cls(
            quantity_name=name,
            points=list(zip(P_list, values)),
            fitted_exponent=fit.exponent,
            fit_residual=fit.max_residual,
        )


def tdiff_series(
    schedule: ModeSchedule,
    k: int = 2,
    alpha: float = 0.0,
    P_list=DEFAULT_P_SWEEP,
) -> tuple[ScalingSeries, ScalingSeries]:
    """|T_{k-1} - T_k| on matching sinusoidal paths over a P sweep, as the
    pair (literal, envelope): the k-resolved trigonometric series of the
    log-log figure, which oscillates through phase zeros as P varies, so
    finite-range slope fits are biased; and its smooth oscillation
    envelope, whose fitted slope recovers the asymptotic exponent.
    """
    modes = [schedule.mode(P) for P in P_list]
    literal = [abs(float(tdiff_figure(P, n, k=k, alpha=alpha))) for P, n in zip(P_list, modes)]
    envelope = [float(tdiff_figure_amplitude(P, n)) for P, n in zip(P_list, modes)]
    return (
        ScalingSeries.from_points(f"tdiff[{schedule.label},figure]", P_list, literal),
        ScalingSeries.from_points(f"tdiff[{schedule.label},amplitude]", P_list, envelope),
    )


def matching_path_series(
    schedule: ModeSchedule,
    P_list,
    params: ThermoParams,
    alpha: float = 0.0,
) -> tuple[ScalingSeries, ScalingSeries]:
    """(|g_P|, |sum-difference|) on matching unit-amplitude sinusoidal
    paths, generic evaluation (phi = MATCHING_PHI): at each P the path of
    mode n(P) and phase alpha against the Fourier-norm surface of the same
    mode, both read from one ``surface_factors`` pass."""
    gp, sumdiff = [], []
    for P in P_list:
        n = schedule.mode(P)
        spec = FourierNormSurface(mode=n, phi=MATCHING_PHI, phi_floor=0.0)
        q = sinusoidal_path(SinusoidalPathSpec(q0=0.0, amplitude=1.0, mode=n, phase=alpha), P)
        sf = surface_factors(spec, q, params.with_beads(P))
        gp.append(abs(float(sf.g_p)))
        sumdiff.append(abs(float(sf.sum_difference)))
    return (
        ScalingSeries.from_points(f"gp[{schedule.label}]", P_list, gp),
        ScalingSeries.from_points(f"sumdiff[{schedule.label}]", P_list, sumdiff),
    )


FIGURE_SCHEDULES = (
    ModeSchedule.constant(1),
    ModeSchedule.sqrt_p(),
    ModeSchedule.frac_p(0.25),
)


def figure1_emit(P_list=DEFAULT_P_SWEEP, k: int = 2, alpha: float = 0.0):
    """Plot-ready log-log dataset for the three mode schedules.

    Returns (rows, fits): rows have keys (P, schedule, value, log10P,
    log10value) for the k-resolved series; fits maps schedule label to the
    pair of fitted slopes (literal k-resolved series, amplitude envelope).
    """
    rows = []
    fits = {}
    for sched in FIGURE_SCHEDULES:
        literal, envelope = tdiff_series(sched, k=k, alpha=alpha, P_list=P_list)
        fits[sched.label] = {
            "literal_slope": literal.fitted_exponent,
            "amplitude_slope": envelope.fitted_exponent,
            "literal_residual": literal.fit_residual,
            "amplitude_residual": envelope.fit_residual,
        }
        for P, v in literal.points:
            rows.append(
                {
                    "P": P,
                    "schedule": sched.label,
                    "value": v,
                    "log10P": float(np.log10(P)),
                    "log10value": float(np.log10(v)) if v > 0 else float("-inf"),
                }
            )
    return rows, fits


@dataclass(frozen=True)
class StochasticOrdersReport:
    """Fitted thermal-path orders of B_P, |T-difference|, and |g_P|."""

    series: dict
    residual_ok: bool
    max_residual: float


def quaddiff_orders(
    n_rule: str,
    P_list=STOCHASTIC_P_SWEEP,
    n_paths: int = 10_000,
    seed: int = 0,
) -> StochasticOrdersReport:
    """Average |B_P|, |T_{k-1}-T_k| (k = QUADDIFF_K), |g_P| of the
    quadratic-difference surface at phi = QUADDIFF_PHI over thermal
    free-particle paths (default ThermoParams) at each P, then fit exponents.

    n_rule is 'one' (offset 1) or 'half' (offset P/2).  P_list must be
    strictly increasing, from 2 beads up; it is checked before any draw.
    One ensemble of n_paths paths is drawn at the largest P.  Each smaller
    P reads the first P - 1 standard normals of every path (the low modes
    first, in fourier_mode_basis order) scaled by its own
    free_ring_mode_std, so it is an exact free-ring ensemble at that P, and
    all P share common random numbers: the noise of the fitted exponents is
    correlated across P, not independent.  Each block reduces every P to
    its sums, so no per-path array outlives its block.
    """
    if n_rule not in ("one", "half"):
        raise ValueError("n_rule must be 'one' or 'half'")
    P_list = [int(P) for P in P_list]
    if not P_list or P_list[0] < 2 or any(b <= a for a, b in zip(P_list, P_list[1:])):
        raise ValueError(f"P values must be strictly increasing and at least 2, got {P_list}")
    top = ThermoParams(bead_count=P_list[-1])
    std_top = free_ring_mode_std(top)
    rungs = []
    for P in P_list:
        pp = ThermoParams(bead_count=P)
        spec = QuadDiffSurface(offset=1 if n_rule == "one" else P // 2, phi=QUADDIFF_PHI)
        # takes the top amplitudes of the first P - 1 normals to rung P's;
        # the top rung reads them as drawn
        scale = None if pp == top else free_ring_mode_std(pp) / std_top[: P - 1]
        rungs.append((pp, spec, scale))

    def per_block(block):
        sums = np.empty((3, len(rungs)))
        for i, (pp, spec, scale) in enumerate(rungs):
            a = block.amps
            if scale is not None:
                a = np.multiply(a[:, : scale.size], scale, out=block.scratch("rung", (len(a), scale.size)))
            sf = mode_factors(spec, a, 0.0, pp)
            sums[:, i] = np.sum(sf.b_p), np.sum(np.abs(sf.t_diff(QUADDIFF_K))), np.sum(np.abs(sf.g_p))
            # sf holds a: let go of this rung's scratch before the next rung grows it
            del a, sf
        return tuple(sums)

    sums = map_free_ring_paths(top, n_paths, np.random.default_rng(seed), per_block)
    mean_b, mean_t, mean_g = (np.reshape(x, (-1, len(rungs))).sum(axis=0) / n_paths for x in sums)
    series = {
        "b_p": ScalingSeries.from_points(f"b_p[{n_rule}]", P_list, mean_b),
        "t_diff": ScalingSeries.from_points(f"t_diff[{n_rule}]", P_list, mean_t),
        "g_p": ScalingSeries.from_points(f"g_p[{n_rule}]", P_list, mean_g),
    }
    max_resid = max(s.fit_residual for s in series.values())
    return StochasticOrdersReport(
        series=series,
        residual_ok=max_resid <= QUADDIFF_RESIDUAL_THRESHOLD,
        max_residual=max_resid,
    )
