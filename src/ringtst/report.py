"""Deterministic CSV/JSON artifact writers.

Every artifact embeds the configuration hash and library version so a
result file can always be traced back to its exact inputs, and a writer
makes its file's directory, so none exists without an artifact.  CSV
fields are quoted only where they must be (a comma, a quote, a line
break), and numbers are written with 9 significant digits; JSON keeps full
double precision and writes a non-finite number (NaN, +-inf), which JSON
has no literal for, as null.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

SCHEMA_VERSION = 1


def _library_version() -> str:
    from . import __version__

    return __version__


def config_sha256(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return format(v, ".9g")
    return str(v)


def write_csv(path, fieldnames, rows, cfg_hash: str) -> None:
    import csv  # here, so that a process that writes no CSV never loads it

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        fh.write(f"# config_sha256={cfg_hash}\n# library_version={_library_version()}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows([_fmt(row[k]) for k in fieldnames] for row in rows)


def _finite_or_null(v):
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {k: _finite_or_null(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_finite_or_null(x) for x in v]
    return v


def write_json(path, payload: dict, cfg_hash: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config_sha256": cfg_hash,
        "library_version": _library_version(),
    }
    doc.update(payload)
    path.write_text(json.dumps(_finite_or_null(doc), sort_keys=True, indent=2, allow_nan=False) + "\n")
