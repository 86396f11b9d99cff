#!/usr/bin/env python3
"""ringtst benchmark: one workload per invocation, from the checkout root.

    python3 perfbench/run.py --workload figure_sweeps --seed 1 --seconds 45 --trace 0

Workloads (see workloads.py): cli_rate_small, figure_sweeps.
With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones, and the spans
are written to .perfbench_out/.  Each metric is described in
perfbench/README.md.

The library is imported from ./src of the current directory; without it
the command exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# setup_s: median of this many fresh-process imports, spread over the run
SETUP_REPEATS = 21
SETUP_IMPORTS = (
    "ringtst.cli",
    "ringtst.rates",
    "ringtst.scaling",
    "ringtst.surfaces",
    "ringtst.paths",
    "ringtst.potentials",
    "ringtst.density",
    "ringtst.report",
    "ringtst.fitting",
    "ringtst.closed_forms",
    "yaml",
)
SETUP_SNIPPET = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, 'src')\n"
    + "".join(f"import {m}\n" for m in SETUP_IMPORTS)
    + "print(repr(time.perf_counter() - t0))\n"
)


def cap_threads() -> int:
    """Cap BLAS/OpenMP pools at the cores this process may use.  Must run
    before numpy is imported; the setting is inherited by child processes."""
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        os.environ[var] = str(min(int(cur), n)) if cur.isdigit() and int(cur) > 0 else str(n)
    return n


def time_setup(root: Path) -> float:
    """Seconds one fresh process takes to import the modules."""
    res = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(res.stdout.strip().splitlines()[-1])


def rms(values) -> float:
    values = list(values)
    return math.sqrt(sum(v * v for v in values) / len(values)) if values else float("nan")


def end_to_end_metrics(run, peak_rss_mb) -> dict:
    log = run.log
    calls = run.call_s
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "samples_per_s": (sum(r["n_samples"] for _, _, r in log.calls) / sum(run.call_s), "1/s"),
        "call_p50_s": (statistics.median(calls), "s"),
        "call_p90_s": (statistics.quantiles(calls, n=10)[8] if len(calls) > 1 else calls[0], "s"),
        "sweep_s": (statistics.median(s for _, s in run.pass_s), "s"),
        "rpmd_cost_1pct_s": (log.cost_1pct_s("kza_rpmd", "kza_rpmd_err"), "s"),
        "ha_cost_1pct_s": (log.cost_1pct_s("kza_ha", "kza_ha_err"), "s"),
        "ratio_cost_1pct_s": (log.cost_1pct_s("ratio_ha_over_rpmd", "ratio_err"), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer_metrics(run, tracer, analysis) -> dict:
    by = analysis["by_name"]

    traced = [s for t, s in run.pass_s if t]
    plain = [s for t, s in run.pass_s if not t]
    per_pass = 1.0 / len(traced)

    # times and work counts are per traced pass, so they do not grow when a
    # faster program fits more passes into the run
    def incl(name):
        return by.get(name, {}).get("incl_s", 0.0) * per_pass

    def count(name):
        return by.get(name, {}).get("count", 0) * per_pass

    def under(name, ancestor):
        total = 0
        for s in tracer.spans[: run.loop_spans]:
            if s[0] != name:
                continue
            p = s[3]
            while p >= 0 and tracer.spans[p][0] != ancestor:
                p = tracer.spans[p][3]
            total += s[4] if p >= 0 else 0
        return total * per_pass

    paths_rows = max(run.loop_path_rows, 1) * per_pass
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    draw_s = incl("paths.free_ring_paths")
    m = {
        "paths.draw_s": (draw_s, "s"),
        "paths.beads_drawn": (count("paths.free_ring_paths"), "count"),
        "paths.beads_per_s": (count("paths.free_ring_paths") / draw_s if draw_s else 0.0, "1/s"),
        "potentials.value_s": (incl("potentials.value"), "s"),
        "potentials.evals": (count("potentials.value"), "count"),
        "surfaces.grad_evals_per_path": (count("surfaces.grad_f") / paths_rows, "count"),
        "surfaces.singular_checks_per_path": (count("surfaces.is_singular") / paths_rows, "count"),
        "surfaces.f_evals_per_path": (count("surfaces.f_eval") / paths_rows, "count"),
        "density.log_rho_s": (incl("density.log_rho_ring"), "s"),
        "density.points": (count("density.log_rho_ring"), "count"),
        "rates.window_evals": (count("rates.gaussian_window"), "count"),
        "rates.oracle_s": (incl("rates.grid_oracle_rate"), "s"),
        "rates.oracle_points": (under("density.log_rho_ring", "rates.grid_oracle_rate"), "count"),
        "rates.rel_err_rpmd": (run.log.typical_rel_err("kza_rpmd", "kza_rpmd_err"), "1"),
        "rates.rel_err_ha": (run.log.typical_rel_err("kza_ha", "kza_ha_err"), "1"),
        "rates.rel_err_ratio": (run.log.typical_rel_err("ratio_ha_over_rpmd", "ratio_err"), "1"),
        "rates.z_rms": (rms(run.z), "1"),
        "cli.validate_s": (incl("cli.load_config") + incl("cli.validate_config"), "s"),
        "report.write_s": (incl("report.write_json") + incl("report.write_csv"), "s"),
        "report.bytes_written": (count("report.write_json") + count("report.write_csv"), "count"),
        "trace.overhead_frac": (overhead, "1"),
        "trace.spans": (run.loop_spans * per_pass, "count"),
        "trace.absent_names": (len(tracer.absent), "count"),
    }
    for layer, self_s in analysis["layer_self_s"].items():
        m[f"{layer}.self_s"] = (self_s * per_pass, "s")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ringtst" / "__init__.py").is_file():
        print(f"error: no ringtst sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    threads = cap_threads()

    sys.path.insert(0, str(root / "src"))
    import resource

    import ringtst
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not Path(ringtst.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"error: ringtst imported from {ringtst.__file__}, not from ./src", file=sys.stderr)
        return 2

    out_root = root / ".perfbench_out"
    out_dir = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    run = workloads.Run(args.workload, args.seed, args.seconds, tracer, out_dir, functools.partial(time_setup, root), SETUP_REPEATS)
    workloads.WORKLOADS[args.workload](run)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {args.workload}: seed {args.seed}, {len(run.pass_s)} passes and {len(run.call_s)} calls timed "
          f"in {run.wall_s:.2f} s after a warm-up pass, {threads} BLAS/OpenMP threads, trace {args.trace}")
    p90 = statistics.quantiles(run.call_s, n=10)[8] if len(run.call_s) > 1 else run.call_s[0]
    print(f"calls beyond p90: {sum(t > p90 for t in run.call_s)}; estimator calls timed: {len(run.log.calls)}")
    print(f"attempted {run.attempted}, failed {len(run.failures)} (failed_frac {len(run.failures) / run.attempted:.4f})")
    for msg in run.failures[:10]:
        print(f"FAILED {msg}")

    if tracer is None:
        metrics = end_to_end_metrics(run, peak_rss_mb)
    else:
        analysis = tracer.analyse(run.loop_spans)
        metrics = per_layer_metrics(run, tracer, analysis)
        if tracer.absent:
            print("absent (metrics read 0): " + ", ".join(tracer.absent))
        table = run.extra.get("table")
        if table:
            print(f"per-call layer times, n = {table['n_samples']}:")
            for P, row in table["rows"].items():
                print(f"  P={P:>5}: draw {row['draw_s']:.4f} s, surface factors {row['surface_factors_s']:.4f} s, "
                      f"rate_estimates {row['total_s']:.4f} s, {row['grad_evals_per_path']:g} gradient evaluations per path")
        tracer.write(
            out_root / f"trace-{args.workload}-seed{args.seed}.json",
            {"threads": threads, "traced_passes": sum(t for t, _ in run.pass_s), "by_name": analysis["by_name"], **run.extra},
        )
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    shutil.rmtree(out_dir, ignore_errors=True)

    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
