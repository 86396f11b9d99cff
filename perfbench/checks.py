"""Correctness checks applied to every benchmark output.

Each check returns a list of failure messages; an empty list means the
output passed.  Only targets that the repository's own tests assert as
passing are checked here, never the expected-fail acceptance targets.

Reference values for the Monte-Carlo outputs live in ``references.json``
(regenerate with ``make_references.py``); each holds the mean over many
independent seeds and its standard error.
"""
from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("references.json")


@functools.cache
def references() -> dict:
    return json.loads(REFERENCE_FILE.read_text())

# A Monte-Carlo estimate passes when it lies within Z_MC combined standard
# errors, sqrt(reported_err^2 + reference_err^2), of its reference.  The
# batch-means error has few degrees of freedom (20 batches by default), so
# the tail is Student-t rather than normal; 6 keeps the expected number of
# false failures over many benchmark runs well below one.
Z_MC = 6.0

# The grid oracle must match the exact Gaussian-constraint value to this
# relative tolerance (the repository's tests use the same 0.5 %).
ORACLE_REL_TOL = 0.005

# Monte-Carlo against the grid oracle: within Z_ORACLE reported errors.  The
# linear window extrapolation leaves an O(w^2) bias that the oracle's
# Richardson step removes, so the allowance is wider than Z_MC.
Z_ORACLE = 8.0

FREE_PARTICLE_RATE = 1.0 / (2.0 * math.pi)


def exact_harmonic_centroid_rate(P: int, beta=1.0, omega=1.0, m=1.0, hbar=1.0) -> float:
    """k Z for the harmonic centroid surface at d = 0, in closed form.

    The ring-polymer weight is a Gaussian exp(-q.A.q/2) and the constraint
    delta(u.q) with u = (1/P, ..., 1/P) is linear, so the constrained
    integral is Z / sqrt(2 pi u.A^-1.u); B_P = 1/P is constant.
    """
    eps = beta / P
    lap = 2 * np.eye(P) - np.roll(np.eye(P), 1, 0) - np.roll(np.eye(P), -1, 0)
    A = (m / (eps * hbar**2)) * lap + eps * m * omega**2 * np.eye(P)
    u = np.full(P, 1.0 / P)
    gauss = math.sqrt((2 * math.pi) ** P / np.linalg.det(A))
    var_u = float(u @ np.linalg.solve(A, u))
    norm = (m * P / (2 * math.pi * beta * hbar**2)) ** (P / 2)
    rho_on_surface = norm * gauss / math.sqrt(2 * math.pi * var_u)
    flux = math.sqrt(P / (2 * math.pi * m * beta)) * math.sqrt(1.0 / P)
    return flux * rho_on_surface


def finite(label: str, *values) -> list[str]:
    return [f"{label}: non-finite value {v!r}" for v in values if not math.isfinite(v)]


def within(label: str, value, err, ref, ref_err, zs: list, limit=Z_MC) -> list[str]:
    """|value - ref| <= limit * sqrt(err^2 + ref_err^2); the z-score
    (value - ref) / sigma is appended to zs whenever sigma > 0."""
    sigma = math.hypot(err, ref_err)
    if not (math.isfinite(value) and math.isfinite(sigma)):
        return [f"{label}: non-finite value {value!r} +- {err!r}"]
    if sigma == 0.0:
        return [] if value == ref else [f"{label}: {value!r} with zero error bar, reference {ref!r}"]
    zs.append((value - ref) / sigma)
    if abs(value - ref) > limit * sigma:
        return [f"{label}: {value:.8g} vs reference {ref:.8g}, off by {abs(value - ref) / sigma:.1f} sigma"]
    return []


ESTIMATES = (("kza_rpmd", "kza_rpmd_err"), ("kza_ha", "kza_ha_err"), ("ratio_ha_over_rpmd", "ratio_err"))


def estimate_vs_reference(label: str, est: dict, ref: dict, zs: list) -> list[str]:
    """Check the (kza_rpmd, kza_ha, ratio) triple of one estimator call."""
    out = finite(label, *(est[key] for key, _ in ESTIMATES))
    for key, err_key in ESTIMATES if not out else ():
        out += within(f"{label}.{key}", est[key], est[err_key], ref[key]["mean"], ref[key]["sem"], zs)
    return out


def free_particle(label: str, est: dict, zs: list) -> list[str]:
    out = within(f"{label}.kza_rpmd", est["kza_rpmd"], est["kza_rpmd_err"], FREE_PARTICLE_RATE, 0.0, zs)
    out += within(f"{label}.kza_ha", est["kza_ha"], est["kza_ha_err"], FREE_PARTICLE_RATE, 0.0, zs)
    if abs(est["ratio_ha_over_rpmd"] - 1.0) > 1e-12:
        out.append(f"{label}: centroid ratio {est['ratio_ha_over_rpmd']!r} is not 1")
    return out


def harmonic_oracle(label: str, est: dict, oracle: dict | None, P: int, zs: list) -> list[str]:
    """Grid oracle against the exact value, and Monte Carlo against the oracle."""
    if oracle is None:
        return [f"{label}: grid oracle missing from the artifact"]
    exact = exact_harmonic_centroid_rate(P)
    out = []
    for key in ("kza_rpmd", "kza_ha"):
        if abs(oracle[key] / exact - 1.0) > ORACLE_REL_TOL:
            out.append(f"{label}: oracle {key} {oracle[key]:.8g} vs exact {exact:.8g}")
        out += within(f"{label}.mc_vs_oracle.{key}", est[key], est[f"{key}_err"], oracle[key], 0.0, zs, Z_ORACLE)
    if abs(est["ratio_ha_over_rpmd"] - 1.0) > 1e-12:
        out.append(f"{label}: centroid ratio {est['ratio_ha_over_rpmd']!r} is not 1")
    return out


def ratio_sweep_rows(rows: list[dict], zs: list) -> list[str]:
    ref = references()["ratio_sweep"]
    out = []
    for row in rows:
        r = ref["by_P"].get(str(row["P"]))
        if r is None:
            out.append(f"ratio_sweep: no reference for P={row['P']}")
            continue
        if row["divergence_flag"]:
            out.append(f"ratio_sweep P={row['P']}: unexpected divergence flag")
        out += within(f"ratio_sweep.P{row['P']}", row["ratio"], row["error"], r["mean"], r["sem"], zs)
    return out


def quaddiff(rule: str, rep) -> list[str]:
    """Assertions the repository's scaling tests make on quaddiff_orders."""
    e = {k: s.fitted_exponent for k, s in rep.series.items()}
    out = []
    if rule == "one":
        if abs(e["b_p"] - 0.0) >= 0.15:
            out.append(f"quaddiff one: b_p exponent {e['b_p']:+.3f}, want 0")
        if abs(e["t_diff"] + 0.5) >= 0.15:
            out.append(f"quaddiff one: t_diff exponent {e['t_diff']:+.3f}, want -0.5")
    else:
        if abs(e["b_p"] + 1.0) >= 0.15:
            out.append(f"quaddiff half: b_p exponent {e['b_p']:+.3f}, want -1")
        if not rep.residual_ok:
            out.append(f"quaddiff half: residual {rep.max_residual:.3f} above threshold")
    return out


def figure1(rows, fits, n_P: int) -> list[str]:
    """Row count, monotone literal series and the envelope slopes."""
    out = []
    if len(rows) != 3 * n_P:
        out.append(f"figure1: {len(rows)} rows, want {3 * n_P}")
    for lab in ("constant(1)", "fracP(0.25)"):
        vals = [r["value"] for r in rows if r["schedule"] == lab]
        if not all(b < a for a, b in zip(vals, vals[1:])):
            out.append(f"figure1: {lab} series not decreasing")
    want = (("fracP(0.25)", "literal_slope", -0.5), ("constant(1)", "amplitude_slope", -1.5), ("sqrtP", "amplitude_slope", -1.0))
    for lab, key, w in want:
        if abs(fits[lab][key] - w) >= 0.05:
            out.append(f"figure1: {lab} {key} {fits[lab][key]:+.3f}, want {w:+.1f}")
    return out


EQUIVALENCE_WANT = {"constant(1)": "vanishing", "sqrtP": "finite", "fracP(0.25)": "diverging"}


def equivalence(label: str, verdict: str) -> list[str]:
    want = EQUIVALENCE_WANT[label]
    return [] if verdict == want else [f"equivalence {label}: {verdict}, want {want}"]
