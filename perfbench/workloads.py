"""The benchmark workloads: inputs from the seed, one closed loop each.

Every workload is a closed loop with one caller: the next unit starts when
the previous one has returned.  A *pass* is one walk over the workload's
fixed list of units; a *call* is one unit.

* ``cli_rate_small`` -- four in-process ``ringtst.cli.main`` ``rate`` calls
  per pass at P = 3 and 8: dominated by the window reductions, config
  validation, artifact writing and the P = 3 grid oracle.
* ``figure_sweeps`` -- one pass reproduces the paper's figures: a ratio
  sweep over P, both stochastic quad-diff order fits, the figure-1 dataset
  and the three equivalence-condition verdicts.  Its traced run also times
  one large-P ``rate_estimates`` call at each of P = 32, 256 and 1024.

The library receives only the generated inputs; per-call seeds come from a
generator seeded by the workload seed.
"""
from __future__ import annotations

import json
import math
import statistics
import time
import traceback
from pathlib import Path

import numpy as np
import yaml

import checks
from ringtst import rates
from ringtst.cli import main as cli_main
from ringtst.params import ThermoParams
from ringtst.paths import SinusoidalPathSpec, sinusoidal_path
from ringtst.potentials import Eckart
from ringtst.scaling import DEFAULT_P_SWEEP, ModeSchedule, figure1_emit, quaddiff_orders
from ringtst.surfaces import FourierNormSurface, equivalence_diagnostics

# Large-P inputs, timed per layer in the traced figure_sweeps run only (as
# a timed workload its run-to-run spread exceeded the bounds).  One P = 1024
# call takes about 1.4 s and 0.25 GB on a 2-core machine.  25 batches of 200
# samples: at 100 samples per batch or fewer the ratio's error bar grows
# heavy-tailed outliers.
LARGE_P = dict(P=1024, n_samples=5_000, n_batches=25)
LARGE_P_TABLE = (32, 256, 1024)  # the re-anchor table rows

# cli_rate_small: at least this many calls per run, so that at least ten
# calls lie beyond the 90th percentile.
CLI_MIN_CALLS = 100

CLI_CONFIGS = {
    "harmonic_P3_oracle": {
        "command": "rate",
        "thermo": {"beta": 1.0, "bead_count": 3},
        "potential": {"kind": "harmonic", "omega": 1.0},
        "surface": {"kind": "centroid"},
        "n_samples": 200_000,
        "grid_oracle": True,
    },
    "eckart_P8_quaddiff": {
        "command": "rate",
        "thermo": {"beta": 1.0, "bead_count": 8},
        "potential": {"kind": "eckart", "v0": 1.0, "a": 1.0},
        "surface": {"kind": "quad_diff", "offset": 1},
        "n_samples": 20_000,
    },
    "doublewell_P8_fourier": {
        "command": "rate",
        "thermo": {"beta": 1.0, "bead_count": 8},
        "potential": {"kind": "double_well", "v0": 1.0, "q0": 1.0},
        "surface": {"kind": "fourier_norm", "mode": 1},
        "n_samples": 20_000,
    },
    "free_P8_centroid": {
        "command": "rate",
        "thermo": {"beta": 1.0, "bead_count": 8},
        "potential": {"kind": "free"},
        "surface": {"kind": "centroid"},
        "d": 0.3,
        "n_samples": 20_000,
    },
}

SWEEP_P = [16, 32, 64, 128, 256]
RATIO_SWEEP_N = 20_000
WORKLOAD_IDS = {"cli_rate_small": 2, "figure_sweeps": 3}


def large_p_inputs(P: int):
    return (
        Eckart(v0=1.0, a=1.0),
        FourierNormSurface(mode=2, phi=0.5),
        0.0,
        ThermoParams(beta=1.0, bead_count=P),
    )


def report_fields(rep) -> dict:
    keys = ("kza_rpmd", "kza_rpmd_err", "kza_ha", "kza_ha_err", "ratio_ha_over_rpmd", "ratio_err", "n_samples", "divergence_flag")
    return {k: getattr(rep, k) for k in keys}


# A relative error bar below this is floating-point roundoff, not sampling
# error: the centroid surface's ratio is 1 by construction.
ROUNDOFF_REL_ERR = 1e-12


class EstimatorLog:
    """Records wall time and report of every ``rates.rate_estimates`` call,
    including those made inside ``ratio_sweep`` and ``cli.main``, grouped
    by estimator input (potential, surface, thermo, options; not d or seed,
    since ``ratio_sweep`` moves d with the seed)."""

    def __init__(self):
        self.calls: list[tuple[str, float, dict]] = []
        self.inner = inner = rates.rate_estimates

        def logged(pot, spec, d, params, **kwargs):
            t0 = time.perf_counter()
            rep = inner(pot, spec, d, params, **kwargs)
            options = sorted((k, v) for k, v in kwargs.items() if k != "seed")
            self.calls.append((repr((pot, spec, params, options)), time.perf_counter() - t0, report_fields(rep)))
            return rep

        rates.rate_estimates = logged

    def _by_input(self) -> list[list[tuple[float, dict]]]:
        groups: dict[str, list] = {}
        for key, t, rep in self.calls:
            groups.setdefault(key, []).append((t, rep))
        return list(groups.values())

    def _per_input(self, key: str, err_key: str) -> list[tuple[float, float]]:
        """(mean call time, typical squared relative error) of each distinct
        input whose error bars are more than roundoff.  Typical is the
        geometric mean over calls, not the mean: batch-ratio error bars have
        rare outliers four times the typical value, and the geometric mean
        yields less to them while using every call, unlike the median."""
        out = []
        for g in self._by_input():
            e2 = [(r[err_key] / r[key]) ** 2 for _, r in g]
            if min(e2) > ROUNDOFF_REL_ERR**2:
                out.append((statistics.fmean(t for t, _ in g), statistics.geometric_mean(e2)))
        return out

    def typical_rel_err(self, key: str, err_key: str) -> float:
        """Geometric mean over inputs of the typical relative error."""
        per = self._per_input(key, err_key)
        return math.sqrt(statistics.geometric_mean(e2 for _, e2 in per)) if per else 0.0

    def cost_1pct_s(self, key: str, err_key: str) -> float:
        """Estimator time to 1 % relative error, t * (err / 0.01)^2, per
        input; geometric mean over inputs, so that each counts equally and
        no single input's error-bar noise sets the metric.  Inputs whose
        error bar is roundoff (the centroid surface's ratio is exactly 1 by
        construction) need no time and are left out."""
        per = self._per_input(key, err_key)
        return statistics.geometric_mean(t * e2 / 0.01**2 for t, e2 in per) if per else 0.0


class Run:
    """State of one benchmark run: timings, failures, z-scores."""

    def __init__(self, name: str, seed: int, seconds: float, tracer, out_dir: Path, setup_probe, setup_repeats: int):
        self.seconds = seconds
        self.setup_probe = setup_probe  # () -> seconds of one fresh-process import
        self.setup_repeats = setup_repeats
        self.setup_s: list[float] = []
        self.tracer = tracer
        self.out_dir = out_dir
        self.rng = np.random.default_rng([seed, WORKLOAD_IDS[name]])
        self.log = EstimatorLog()
        self.call_s: list[float] = []
        self.pass_s: list[tuple[bool, float]] = []  # (traced, seconds in calls)
        self.attempted = 0
        self.failures: list[str] = []
        self.z: list[float] = []
        self.wall_s = 0.0
        self.loop_spans = 0  # spans recorded by the timed loop
        self.loop_path_rows = 0  # distinct paths the surfaces layer saw in it
        self.extra: dict = {}

    def next_seed(self) -> int:
        return int(self.rng.integers(0, 2**31 - 1))

    def call(self, label: str, fn, check):
        """Time fn(); then check its result (untimed).  Raising, a bad exit
        code, a non-finite value and a failed check all count as failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
            problems = None
        except Exception:
            problems = [f"{label}: raised\n{traceback.format_exc(limit=3)}"]
        self.call_s.append(time.perf_counter() - t0)
        if self.tracer is not None:
            self.tracer.end_unit()
        if problems is None:
            try:
                problems = check(result)
            except Exception:
                problems = [f"{label}: check raised\n{traceback.format_exc(limit=3)}"]
        if problems:
            self.failures.append("; ".join(problems))

    def _probe_setup(self, share: float) -> float:
        """Run set-up probes until ``share`` of them are done; return the
        wall time they took."""
        t0 = time.perf_counter()
        while len(self.setup_s) < round(share * self.setup_repeats):
            self.setup_s.append(self.setup_probe())
        return time.perf_counter() - t0

    def loop(self, one_pass, min_calls: int = 0):
        """One untimed warm-up pass, then passes until the next one would end
        after ``seconds`` (and at least ``min_calls`` calls are done).

        The set-up probes run between passes, spread evenly over the run, so
        that their median sees the host over the same span as the passes;
        the host's speed swings by a quarter within seconds.  Their time is
        not counted in the run's ``seconds``.

        In a traced run, passes alternate untraced/traced in the order
        U T T U U T T U ..., so the tracing overhead can be measured without
        a drift favouring either side."""
        one_pass()
        self.call_s.clear()
        self.log.calls.clear()
        start = time.perf_counter()
        probe_s = 0.0
        i = 0
        while True:
            probe_s += self._probe_setup(min((time.perf_counter() - start - probe_s) / self.seconds, 1.0))
            elapsed = time.perf_counter() - start - probe_s
            typical = statistics.median(s for _, s in self.pass_s) if self.pass_s else 0.0
            enough = len(self.call_s) >= min_calls and (self.tracer is None or i >= 2)
            if i and enough and elapsed + typical > self.seconds:
                break
            traced = self.tracer is not None and i % 4 in (1, 2)
            if self.tracer is not None:
                self.tracer.active = traced
            first = len(self.call_s)
            one_pass()
            self.pass_s.append((traced, sum(self.call_s[first:])))
            i += 1
        probe_s += self._probe_setup(1.0)
        self.wall_s = time.perf_counter() - start - probe_s
        if self.tracer is not None:
            self.tracer.active = False
            self.loop_spans = len(self.tracer.spans)
            self.loop_path_rows = self.tracer.distinct_path_rows


# -- large-P table (traced figure_sweeps run) ------------------------------------

def _large_p_table(run: Run) -> dict:
    """Draw, surface-factor and total time and gradient evaluations per path
    of one traced rate_estimates call at each P of LARGE_P_TABLE, made after
    the timed loop.  The P = 1024 result is checked against its reference."""
    tr = run.tracer
    ref = checks.references()["rate_largeP"]
    rows = {}
    for P in LARGE_P_TABLE:
        first = len(tr.spans)
        seed = run.next_seed()
        tr.active = True
        run.call(
            f"large_p_P{P}",
            lambda: run.log.inner(*large_p_inputs(P), n_samples=LARGE_P["n_samples"], seed=seed, n_batches=LARGE_P["n_batches"]),
            lambda rep: checks.estimate_vs_reference("rate_largeP", report_fields(rep), ref, []) if P == LARGE_P["P"] else [],
        )
        tr.active = False
        rows[P] = _table_row(tr, first, len(tr.spans), LARGE_P["n_samples"])
    return {"n_samples": LARGE_P["n_samples"], "rows": {str(P): rows[P] for P in sorted(rows)}}


def _table_row(tr, first: int, last: int, n_samples: int) -> dict:
    spans = tr.spans[first:last]
    top = [s for s in spans if s[0] == "rates.rate_estimates"]
    calls = max(len(top), 1)

    def total(pred):
        return sum(s[2] - s[1] for s in spans if pred(s)) / calls

    def parent_layer(s):
        return tr.spans[s[3]][0].split(".", 1)[0] if s[3] >= 0 else ""

    return {
        "calls": len(top),
        "draw_s": total(lambda s: s[0] == "paths.free_ring_paths"),
        "surface_factors_s": total(lambda s: s[0].startswith("surfaces.") and parent_layer(s) != "surfaces"),
        "total_s": sum(s[2] - s[1] for s in top) / calls,
        "grad_evals_per_path": sum(s[4] for s in spans if s[0] == "surfaces.grad_f") / (calls * n_samples),
    }


# -- cli_rate_small -------------------------------------------------------------

def _check_cli(run: Run, label: str, code: int, path: Path) -> list[str]:
    if code != 0:
        return [f"{label}: exit code {code}"]
    doc = json.loads(path.read_text())
    est = doc["rate_report"]
    if label == "free_P8_centroid":
        return checks.free_particle(label, est, run.z)
    if label == "harmonic_P3_oracle":
        return checks.harmonic_oracle(label, est, doc.get("grid_oracle"), 3, run.z)
    return checks.estimate_vs_reference(label, est, checks.references()["cli_rate_small"][label], run.z)


def cli_rate_small(run: Run):
    cfg_dir = run.out_dir / "configs"
    art_dir = run.out_dir / "artifacts"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for label, cfg in CLI_CONFIGS.items():
        paths[label] = cfg_dir / f"{label}.yaml"
        paths[label].write_text(yaml.safe_dump(cfg))

    def one_pass():
        for label, cfg_path in paths.items():
            out = art_dir / label
            argv = ["--config", str(cfg_path), "--seed", str(run.next_seed()), "--out", str(out)]
            run.call(label, lambda: cli_main(argv), lambda code: _check_cli(run, label, code, out / "rate.json"))

    run.loop(one_pass, min_calls=CLI_MIN_CALLS)


# -- figure_sweeps ----------------------------------------------------------------

def _sinusoidal_family(sched: ModeSchedule):
    def family(P):
        n = sched.mode(P)
        return (
            FourierNormSurface(mode=n, phi=np.pi / 4, phi_floor=0.0),
            sinusoidal_path(SinusoidalPathSpec(0.0, 1.0, n, np.pi / 4), P),
        )

    return family


EQUIVALENCE_SCHEDULES = (ModeSchedule.constant(1), ModeSchedule.sqrt_p(), ModeSchedule.frac_p(0.25))


def figure1_and_verdicts(params):
    """Figure 1 and the criterion-8 table: one call, because each part alone
    takes about a millisecond, too short to time as a call of its own."""
    verdicts = {
        sched.label: equivalence_diagnostics(_sinusoidal_family(sched), SWEEP_P, params).overall_verdict
        for sched in EQUIVALENCE_SCHEDULES
    }
    return figure1_emit(), verdicts


def check_figure1_and_verdicts(result) -> list[str]:
    (rows, fits), verdicts = result
    out = checks.figure1(rows, fits, len(DEFAULT_P_SWEEP))
    for label, verdict in verdicts.items():
        out += checks.equivalence(label, verdict)
    return out


def figure_sweeps(run: Run):
    pot = Eckart(v0=1.0, a=1.0)
    params = ThermoParams(beta=1.0)

    def one_pass():
        seed = run.next_seed()
        run.call(
            "ratio_sweep",
            lambda: rates.ratio_sweep(pot, ModeSchedule.sqrt_p(), SWEEP_P, params, n_samples=RATIO_SWEEP_N, seed=seed),
            lambda rows: checks.ratio_sweep_rows(rows, run.z),
        )
        for rule in ("one", "half"):
            seed = run.next_seed()
            run.call(f"quaddiff_{rule}", lambda: quaddiff_orders(rule, seed=seed), lambda rep: checks.quaddiff(rule, rep))
        run.call("figure1_and_verdicts", lambda: figure1_and_verdicts(params), check_figure1_and_verdicts)

    run.loop(one_pass)
    if run.tracer is not None:
        run.extra["table"] = _large_p_table(run)


WORKLOADS = {
    "cli_rate_small": cli_rate_small,
    "figure_sweeps": figure_sweeps,
}
