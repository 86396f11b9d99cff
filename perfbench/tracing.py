"""Spans around calls into the ringtst layers, recorded from outside src/.

Every public function of a layer module is wrapped at every module
attribute it is reached through (``rates.free_ring_paths`` and
``scaling.free_ring_paths`` both lead to ``paths.free_ring_paths``), so
calls made inside the library are caught too: module-level names are looked
up at call time.  Potential classes are wrapped at their ``value`` and
``derivative`` methods.  Names the benchmark asks for that no longer exist
are recorded as absent; their metrics read 0.

Spans live in memory as rows ``[name, start, end, parent, count]`` and are
written out once, when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

import numpy as np

# ringtst module -> layer name used in span and metric names
LAYER_OF_MODULE = {
    "ringtst.paths": "paths",
    "ringtst.potentials": "potentials",
    "ringtst.surfaces": "surfaces",
    "ringtst.density": "density",
    "ringtst.rates": "rates",
    "ringtst.scaling": "scaling",
    "ringtst.fitting": "scaling",
    "ringtst.closed_forms": "scaling",
    "ringtst.cli": "cli",
    "ringtst.report": "report",
}
LAYERS = ("paths", "potentials", "surfaces", "density", "rates", "scaling", "cli", "report")

# Modules whose attributes are scanned for wrapped functions.  The sampler
# stack is left alone: no command reaches it.
SKIPPED_MODULES = ("ringtst.sampling", "ringtst.kernels", "ringtst._ring_kernels", "ringtst._ring_kernels_py")

# Span names the per-layer metrics read; any missing one is reported absent.
EXPECTED = (
    "paths.free_ring_paths",
    "potentials.value",
    "surfaces.f_eval",
    "surfaces.grad_f",
    "surfaces.is_singular",
    "density.log_rho_ring",
    "rates.rate_estimates",
    "rates.integrand_factors",
    "rates.gaussian_window",
    "rates.grid_oracle_rate",
    "cli.load_config",
    "cli.validate_config",
    "report.write_json",
    "report.write_csv",
)


def _rows(a) -> int:
    """Number of paths in a path array (1 for a single path)."""
    shape = np.shape(a)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _path_arg(args):
    """The path array of a surfaces call: (spec, q, ...) or (q, ...)."""
    for a in args[:2]:
        if isinstance(a, np.ndarray) and a.dtype.kind == "f":
            return a
    return None


def _count(name: str, args, result) -> int:
    """Work done by one call, in the unit the layer's metric uses."""
    layer = name.split(".", 1)[0]
    if name == "paths.free_ring_paths":
        return int(np.size(result))  # beads drawn
    if layer == "potentials":
        return int(np.size(args[1]))  # bead positions evaluated
    if name == "density.log_rho_ring":
        return _rows(args[0])  # paths (grid points) weighted
    if name == "rates.gaussian_window":
        return int(np.size(args[0]))  # window values computed
    if layer == "surfaces":
        q = _path_arg(args)
        return _rows(q) if q is not None else 0
    if layer == "report" and name.startswith("report.write"):
        return os.path.getsize(args[0])  # bytes written
    return 0


class Tracer:
    """Wraps the layer functions; records spans while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.wrapped: set[str] = set()
        self.absent: list[str] = []
        # distinct path arrays seen by the surfaces layer in the current unit
        self._paths_seen: dict[int, np.ndarray] = {}
        self.distinct_path_rows = 0

    # -- installation -------------------------------------------------
    def _wrap(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, time.perf_counter(), 0.0, parent, 0]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()
            try:
                span[4] = _count(name, args, result)
            except (TypeError, ValueError, IndexError, OSError):
                span[4] = 0
            if name.startswith("surfaces."):
                tracer._see_paths(args)
            return result

        traced.__wrapped_by_perfbench__ = True
        return traced

    def _see_paths(self, args):
        q = _path_arg(args)
        if q is not None and id(q) not in self._paths_seen:
            self._paths_seen[id(q)] = q
            self.distinct_path_rows += _rows(q)

    def end_unit(self):
        """Forget path identities; called after each benchmark unit."""
        self._paths_seen.clear()

    def install(self):
        wrappers: dict[int, object] = {}
        modules = [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None
            and (n == "ringtst" or n.startswith("ringtst."))
            and not n.startswith(SKIPPED_MODULES)
        ]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = LAYER_OF_MODULE.get(obj.__module__)
                if layer is None or getattr(obj, "__wrapped_by_perfbench__", False):
                    continue
                name = f"{layer}.{obj.__name__}"
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj)
                setattr(mod, attr, wrappers[id(obj)])
                self.wrapped.add(name)
        pots = sys.modules.get("ringtst.potentials")
        if pots is not None:
            for cls in vars(pots).values():
                if not (inspect.isclass(cls) and cls.__module__ == pots.__name__):
                    continue
                for meth in ("value", "derivative"):
                    func = cls.__dict__.get(meth)
                    if inspect.isfunction(func):
                        setattr(cls, meth, self._wrap(f"potentials.{meth}", func))
                        self.wrapped.add(f"potentials.{meth}")
        self.absent = [n for n in EXPECTED if n not in self.wrapped]

    # -- analysis -----------------------------------------------------
    def analyse(self, n_spans: int) -> dict:
        """Per-name inclusive time, self time, calls and counts, and per-layer
        self time, over the first n_spans spans."""
        spans = self.spans[:n_spans]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        by_name: dict[str, dict] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for s, ct in zip(spans, child_time):
            dur = s[2] - s[1]
            d = by_name.setdefault(s[0], {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "count": 0})
            d["calls"] += 1
            d["self_s"] += dur - ct
            d["count"] += s[4]
            d["incl_s"] += dur  # no layer function calls itself
            layer_self[s[0].split(".", 1)[0]] += dur - ct
        return {"by_name": by_name, "layer_self_s": layer_self}

    def write(self, path, extra: dict):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "span_names": names,
            "columns": ["name", "start_s", "end_s", "parent", "count"],
            "spans": [
                [index[s[0]], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3], s[4]]
                for s in self.spans
            ],
            "absent": self.absent,
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
