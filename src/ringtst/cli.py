"""Command-line front end: validate a config, dispatch, write artifacts.

Commands (``COMMANDS``): ``surface-check`` (one ``surface_factors`` pass
over 1000 random paths: B_P and f statistics, and its link-form g_P
against the cyclic form ``surfaces.g_p`` rolls from the same pass's T,
relative to max(|g_P|, median |g_P|)), ``scaling`` (P sweeps on matching
sinusoidal paths: the closed-form T-difference and its envelope, then
|g_P| and |sum-difference| from one ``surface_factors`` pass per P),
``figure1`` (the log-log dataset and fitted slopes, from closed forms
alone), ``rate`` and ``ratio-sweep`` (the Monte-Carlo rate estimators).
Each command evaluates each path's surface once.

A config is YAML (parsed with libyaml when PyYAML has it) and is checked
by walking ``CONFIG_SCHEMA``, the one declarative description of the keys.
The walker knows the keywords that schema uses (``type``, ``enum``,
``required``, ``additionalProperties: false``, ``properties``, ``minimum``,
``exclusiveMinimum``, ``items``, ``minItems``) and raises on any other.  A
failure exits 2 with ``error: invalid config at <path>: <message>``: the
shallowest failing path, in jsonschema's wording (``('bogus' was
unexpected)``, ``1 is less than the minimum of 2``).  Unlike jsonschema, an
integral float is not an integer (``bead_count: 8.0``) and NaN and +-inf
are not numbers (``beta: .nan``, ``d: .inf``): both are rejected.  A YAML
syntax error is one line too, with the problem's line and column.

Exit codes: 0 success; 2 configuration/validation error (also a
Fourier-norm surface with no ``mode``, or a quad-diff one with no
``offset``, which the schema does not require), or a numerical failure
(window extrapolation non-monotone, grid oracle not converged under
refinement, harmonic-analysis weight overflow on the oracle grid), reported
as one ``error:`` line on stderr, with no output directory made (each
artifact writer makes its own); 3 run completed but produced only
divergence diagnostics (artifacts still written): ``rate`` when a
sample's harmonic-analysis log-weight passes the overflow guard,
``ratio-sweep`` when that happens at every bead count.  JSON has no NaN or
infinity, so a value that is not finite, such as the harmonic-analysis
rate and the ratio of a diverged ``rate``, is written as ``null``.

``rate`` writes ``rate.json``: ``rate_report`` holds both rate products
with error bars (``kza_rpmd``, ``kza_ha``), their ratio, the divergence
flag, the three window widths used (``delta_widths``: 0.2, 0.1 and 0.05
sigma_f, the spread of f when the centroid is drawn from
N(d, beta hbar^2 / m) independently of the amplitudes), ``n_samples`` and
``seed``.  Each path's centroid is drawn given its amplitudes, so that
f - d is a normal at least as wide as the widest window, and each rate is
the zero-width intercept of a line through its window means in the
squared width.  ``grid_oracle`` holds the P <= 4 quadrature values, with
the delta constraint solved exactly for the centroid, or why they were
skipped.
A Fourier-norm ``surface.mode`` lies in 1 .. P - 1: mode 0 fails
validation, and a mode of P or more, whose norm depends on the centroid,
exits 2 before any path is drawn.  The particle mass is ``thermo.mass``
alone, and the dividing-surface level is the top-level ``d`` (default 0).
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import numbers
import sys
from pathlib import Path

import numpy as np
import yaml

from .params import ThermoParams
from .potentials import from_config as potential_from_config
from .rates import GridConvergenceError, WindowExtrapolationError
from .report import config_sha256, write_csv, write_json
from .surfaces import surface_from_config

COMMANDS = ("surface-check", "scaling", "figure1", "rate", "ratio-sweep")

_SCHEDULE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["rule"],
    "properties": {
        "rule": {"enum": ["constant", "sqrtP", "fracP"]},
        "value": {"type": "number"},
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "command": {"enum": list(COMMANDS)},
        "seed": {"type": "integer", "minimum": 0},
        "out": {"type": "string"},
        "thermo": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "beta": {"type": "number", "exclusiveMinimum": 0},
                "mass": {"type": "number", "exclusiveMinimum": 0},
                "hbar": {"type": "number", "exclusiveMinimum": 0},
                "bead_count": {"type": "integer", "minimum": 2},
            },
        },
        "potential": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["free", "harmonic", "eckart", "double_well"]},
                "omega": {"type": "number", "exclusiveMinimum": 0},
                "v0": {"type": "number", "exclusiveMinimum": 0},
                "a": {"type": "number", "exclusiveMinimum": 0},
                "q0": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "surface": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["centroid", "fourier_norm", "quad_diff"]},
                "mode": {"type": "integer", "minimum": 1},
                "offset": {"type": "integer", "minimum": 1},
                "phi": {"type": "number"},
            },
        },
        "schedule": _SCHEDULE_SCHEMA,
        "p_list": {
            "type": "array",
            "items": {"type": "integer", "minimum": 2},
            "minItems": 2,
        },
        "n_samples": {"type": "integer", "minimum": 100},
        "d": {"type": "number"},
        "k_index": {"type": "integer", "minimum": 0},
        "alpha": {"type": "number"},
        "grid_oracle": {"type": "boolean"},
    },
}

DEFAULTS = {
    "command": "figure1",
    "seed": 0,
    "out": ".",
    "thermo": {},
    "potential": {"kind": "free"},
    "surface": {"kind": "centroid"},
    "n_samples": 100_000,
    "k_index": 2,
    "alpha": 0.0,
    "grid_oracle": False,
}


class ConfigError(Exception):
    pass


def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        # libyaml's parser feeds the same safe constructor, so the values match
        data = yaml.load(p.read_text(), Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as e:
        raise ConfigError(_yaml_problem(e))
    if data is None:
        raise ConfigError("config file is empty")
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return data


def _yaml_problem(e: yaml.YAMLError) -> str:
    """One line for a YAML error: the problem, where it is, and what the
    parser was in the middle of (PyYAML's own text spans several lines)."""
    mark = getattr(e, "problem_mark", None)
    where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark is not None else ""
    problem = getattr(e, "problem", None) or " ".join(str(e).split())
    context = getattr(e, "context", None)
    return f"config is not valid YAML{where}: {problem}" + (f" ({context})" if context else "")


_JSON_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool, "number": numbers.Number, "integer": int}


def _is_type(value, name: str) -> bool:
    """JSON Schema's types, except that an integral float is not an integer
    (numpy needs a real int for a count) and NaN and +-inf are not numbers
    (JSON has no such number, and a NaN passes every bound)."""
    if isinstance(value, float) and not math.isfinite(value):
        return False
    return isinstance(value, _JSON_TYPES[name]) and not (isinstance(value, bool) and name in ("number", "integer"))


def _schema_errors(schema: dict, value, path: tuple = ()):
    """Yield (path, message) for each way ``value`` breaks ``schema``, in
    schema keyword order, with jsonschema's message for each keyword.  Only
    the keywords CONFIG_SCHEMA uses are known; any other one raises."""
    for keyword, arg in schema.items():
        if keyword == "type":
            if not _is_type(value, arg):
                yield path, f"{value!r} is not of type {arg!r}"
        elif keyword == "enum":
            if value not in arg:
                yield path, f"{value!r} is not one of {arg!r}"
        elif keyword == "minimum":
            if _is_type(value, "number") and value < arg:
                yield path, f"{value!r} is less than the minimum of {arg!r}"
        elif keyword == "exclusiveMinimum":
            if _is_type(value, "number") and value <= arg:
                yield path, f"{value!r} is less than or equal to the minimum of {arg!r}"
        elif keyword == "minItems":
            if isinstance(value, list) and len(value) < arg:
                yield path, f"{value!r} is too short"
        elif keyword == "items":
            if isinstance(value, list):
                for i, item in enumerate(value):
                    yield from _schema_errors(arg, item, path + (i,))
        elif keyword == "required":
            if isinstance(value, dict):
                for name in arg:
                    if name not in value:
                        yield path, f"{name!r} is a required property"
        elif keyword == "additionalProperties" and arg is False:
            if isinstance(value, dict):
                extra = sorted((k for k in value if k not in schema.get("properties", {})), key=str)
                if extra:
                    verb = "was" if len(extra) == 1 else "were"
                    names = ", ".join(repr(k) for k in extra)
                    yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif keyword == "properties":
            if isinstance(value, dict):
                for name, sub in arg.items():
                    if name in value:
                        yield from _schema_errors(sub, value[name], path + (name,))
        else:
            raise NotImplementedError(f"schema keyword {keyword}: {arg!r} is not handled")


def validate_config(cfg: dict) -> dict:
    # the error jsonschema's best_match reports: the shallowest path, then the
    # greatest path among siblings, then the first keyword in schema order
    best = max(_schema_errors(CONFIG_SCHEMA, cfg), key=lambda e: (-len(e[0]), e[0]), default=None)
    if best is not None:
        key = "/".join(str(p) for p in best[0]) or "(root)"
        raise ConfigError(f"invalid config at {key}: {best[1]}")
    merged = dict(DEFAULTS)
    merged.update(cfg)
    return merged


def _thermo(cfg: dict) -> ThermoParams:
    return ThermoParams(**cfg.get("thermo", {}))


def cmd_figure1(cfg, out: Path, cfg_hash: str) -> int:
    from .scaling import DEFAULT_P_SWEEP, figure1_emit

    P_list = cfg.get("p_list", list(DEFAULT_P_SWEEP))
    rows, fits = figure1_emit(P_list, k=cfg["k_index"], alpha=cfg["alpha"])
    write_csv(out / "figure1.csv", ["P", "schedule", "value", "log10P", "log10value"], rows, cfg_hash)
    write_json(out / "figure1_slopes.json", {"fits": fits}, cfg_hash)
    return 0


def cmd_scaling(cfg, out: Path, cfg_hash: str) -> int:
    from .scaling import DEFAULT_P_SWEEP, matching_path_series, schedule_from_config, tdiff_series

    P_list = cfg.get("p_list", list(DEFAULT_P_SWEEP))
    sched = schedule_from_config(cfg.get("schedule"))
    params = _thermo(cfg)
    alpha = cfg["alpha"]
    if alpha == 0.0 and any(2 * sched.mode(P) == P for P in P_list):
        alpha = np.pi / 4  # the half-mode path vanishes identically at alpha = 0
    series = [
        *tdiff_series(sched, k=cfg["k_index"], alpha=alpha, P_list=P_list),
        *matching_path_series(sched, P_list, params, alpha=alpha),
    ]
    rows = [
        {"quantity": s.quantity_name, "P": P, "value": v}
        for s in series
        for P, v in s.points
    ]
    write_csv(out / "scaling.csv", ["quantity", "P", "value"], rows, cfg_hash)
    write_json(
        out / "scaling_summary.json",
        {
            "series": [
                {
                    "quantity": s.quantity_name,
                    "schedule": sched.label,
                    "exponent": s.fitted_exponent,
                    "residual": s.fit_residual,
                }
                for s in series
            ]
        },
        cfg_hash,
    )
    return 0


def cmd_rate(cfg, out: Path, cfg_hash: str) -> int:
    from .rates import ORACLE_MAX_BEADS, grid_oracle_rate, rate_estimates

    params = _thermo(cfg)
    pot = potential_from_config(cfg["potential"], params.mass)
    spec = surface_from_config(cfg["surface"])
    d = float(cfg.get("d", 0.0))
    # the oracle runs first, so an input it rejects exits 2 before any path is drawn
    oracle = None
    if cfg["grid_oracle"] and params.bead_count <= ORACLE_MAX_BEADS:
        oracle = grid_oracle_rate(pot, spec, d, params)
    elif cfg["grid_oracle"]:
        reason = f"bead_count {params.bead_count} > {ORACLE_MAX_BEADS}"
        oracle = {"skipped": reason}
        print(f"warning: grid oracle skipped: {reason}", file=sys.stderr)
    rep = rate_estimates(
        pot, spec, d, params, n_samples=cfg["n_samples"], seed=cfg["seed"]
    )
    payload = {"rate_report": dataclasses.asdict(rep)}
    if oracle is not None:
        payload["grid_oracle"] = oracle
    write_json(out / "rate.json", payload, cfg_hash)
    return 3 if rep.divergence_flag else 0


def cmd_ratio_sweep(cfg, out: Path, cfg_hash: str) -> int:
    from .rates import ratio_sweep
    from .scaling import schedule_from_config

    params = _thermo(cfg)
    pot = potential_from_config(cfg["potential"], params.mass)
    P_list = cfg.get("p_list", [16, 32, 64, 128])
    sched = schedule_from_config(cfg.get("schedule"))
    rows = ratio_sweep(pot, sched, P_list, params, n_samples=cfg["n_samples"], seed=cfg["seed"])
    write_csv(out / "ratio_sweep.csv", ["P", "ratio", "error", "divergence_flag"], rows, cfg_hash)
    all_flagged = all(r["divergence_flag"] for r in rows)
    return 3 if all_flagged else 0


def cmd_surface_check(cfg, out: Path, cfg_hash: str) -> int:
    from .surfaces import g_p, surface_factors

    params = _thermo(cfg)
    spec = surface_from_config(cfg["surface"])
    rng = np.random.default_rng(cfg["seed"])
    q = rng.standard_normal((1000, params.bead_count))
    sf = surface_factors(spec, q, params)
    g_cyc = g_p(sf.t_vec, q, params)
    # a path's mismatch is relative to max(|g_P|, the ensemble's median |g_P|)
    denom = np.maximum(np.abs(sf.g_p), max(np.median(np.abs(sf.g_p)), 1e-300))
    payload = {
        "bead_count": params.bead_count,
        "n_paths": 1000,
        "max_rel_gp_form_mismatch": float(np.max(np.abs(sf.g_p - g_cyc) / denom)),
        "max_unit_norm_deviation": float(np.max(np.abs(np.sum(sf.t_vec**2, axis=-1) - 1.0))),
        "b_p_mean": float(np.mean(sf.b_p)),
        "b_p_std": float(np.std(sf.b_p)),
        "f_mean": float(np.mean(sf.f)),
    }
    write_json(out / "surface_check.json", payload, cfg_hash)
    return 0


_DISPATCH = {
    "figure1": cmd_figure1,
    "scaling": cmd_scaling,
    "rate": cmd_rate,
    "ratio-sweep": cmd_ratio_sweep,
    "surface-check": cmd_surface_check,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="ringtst",
        description="Ring-polymer dividing-surface scaling sweeps and rate estimators.",
    )
    ap.add_argument("--config", help="YAML configuration file")
    ap.add_argument("--command", choices=COMMANDS, help="override the config command")
    ap.add_argument("--seed", type=int, help="override the config seed")
    ap.add_argument("--out", help="output directory")
    args = ap.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if args.command is not None:
            cfg["command"] = args.command
        if args.seed is not None:
            cfg["seed"] = args.seed
        if args.out is not None:
            cfg["out"] = args.out
        cfg = validate_config(cfg)
    except (ConfigError, TypeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    out = Path(cfg["out"])
    hash_input = {k: v for k, v in cfg.items() if k != "out"}
    cfg_hash = config_sha256(hash_input)
    try:
        return _DISPATCH[cfg["command"]](cfg, out, cfg_hash)
    except (ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (WindowExtrapolationError, GridConvergenceError, OverflowError) as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
