#!/usr/bin/env python3
"""Regenerate perfbench/references.json from the checkout's ./src.

    python3 perfbench/make_references.py

Each reference is the mean of many independent estimator calls with the
benchmark's own inputs, with its standard error (sem) and the
call-to-call standard deviation (std).  The seeds used here come from a
stream the benchmark never draws from.  Re-run only when an estimator's
expected value is meant to change; a change of the random stream alone
leaves the references valid.
"""
from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_ENTROPY = 20170412  # disjoint from the workload streams in workloads.py
# independent calls averaged per reference
RUNS_LARGE = 60  # rate_largeP
RUNS_SMALL = 200  # each cli_rate_small config checked against a reference
RUNS_SWEEP = 30  # ratio_sweep


def summarize(values) -> dict:
    v = np.asarray(values, dtype=float)
    std = float(np.std(v, ddof=1))
    return {"mean": float(np.mean(v)), "sem": std / math.sqrt(v.size), "std": std, "runs": int(v.size)}


def summarize_reports(reps) -> dict:
    out = {}
    for key, err_key in (("kza_rpmd", "kza_rpmd_err"), ("kza_ha", "kza_ha_err"), ("ratio_ha_over_rpmd", "ratio_err")):
        s = summarize([r[key] for r in reps])
        s["mean_reported_err"] = float(np.mean([r[err_key] for r in reps]))
        out[key] = s
    return out


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    sys.path.insert(0, str(HERE))
    from ringtst import rates
    from ringtst.cli import validate_config
    from ringtst.potentials import from_config as potential_from_config
    from ringtst.params import ThermoParams
    from ringtst.scaling import ModeSchedule
    from ringtst.surfaces import surface_from_config

    import workloads

    rng = np.random.default_rng(REFERENCE_ENTROPY)

    def seed():
        return int(rng.integers(0, 2**31 - 1))

    t0 = time.time()
    lp = workloads.LARGE_P
    args_lp = workloads.large_p_inputs(lp["P"])
    reps = [
        workloads.report_fields(
            rates.rate_estimates(*args_lp, n_samples=lp["n_samples"], seed=seed(), n_batches=lp["n_batches"])
        )
        for _ in range(RUNS_LARGE)
    ]
    doc = {"rate_largeP": {**summarize_reports(reps), **{k: v for k, v in lp.items()}}}
    print(f"rate_largeP done in {time.time() - t0:.0f} s", file=sys.stderr)

    doc["cli_rate_small"] = {}
    for label in ("eckart_P8_quaddiff", "doublewell_P8_fourier"):
        cfg = validate_config(dict(workloads.CLI_CONFIGS[label]))
        params = ThermoParams(**cfg["thermo"])
        pot = potential_from_config(cfg["potential"])
        spec = surface_from_config(cfg["surface"])
        d = float(cfg.get("d", getattr(spec, "d", 0.0)))
        reps = [
            workloads.report_fields(rates.rate_estimates(pot, spec, d, params, n_samples=cfg["n_samples"], seed=seed()))
            for _ in range(RUNS_SMALL)
        ]
        doc["cli_rate_small"][label] = summarize_reports(reps)
    print(f"cli_rate_small done in {time.time() - t0:.0f} s", file=sys.stderr)

    pot = args_lp[0]
    rows_by_P = {P: [] for P in workloads.SWEEP_P}
    for _ in range(RUNS_SWEEP):
        rows = rates.ratio_sweep(
            pot, ModeSchedule.sqrt_p(), workloads.SWEEP_P, ThermoParams(beta=1.0), n_samples=workloads.RATIO_SWEEP_N, seed=seed()
        )
        for r in rows:
            rows_by_P[r["P"]].append(r)
    doc["ratio_sweep"] = {
        "schedule": "sqrtP",
        "n_samples": workloads.RATIO_SWEEP_N,
        "by_P": {
            str(P): {**summarize([r["ratio"] for r in rows]), "mean_reported_err": float(np.mean([r["error"] for r in rows]))}
            for P, rows in rows_by_P.items()
        },
    }
    print(f"ratio_sweep done in {time.time() - t0:.0f} s", file=sys.stderr)
    (HERE / "references.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
