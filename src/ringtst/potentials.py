"""One-dimensional model potentials.

Each potential exposes ``value``, vectorized over numpy arrays, and
computes it by one sequence of in-place ufuncs, into a given array (the
argument itself, for the rate estimators' path blocks) or a fresh one.
No estimator needs forces, since every path is an exact free-ring draw.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


@dataclass(frozen=True)
class Potential:
    """Base class; subclasses fill in ``_into``.

    ``value(x, out=None)`` is V at every element of x.  Given ``out``, an
    array of x's shape that may be x itself, it writes V into ``out`` and
    returns it; otherwise into a fresh array, or a numpy scalar for a
    scalar x.  ``_into(x, out)`` is one sequence of in-place ufuncs, so
    the values are the same bits wherever they are written, and no
    temporary of x's size is made.  Where a ufunc overflows far out (x^2,
    Eckart's cosh), V = inf (0 on Eckart's tails) is right, with no warning.
    """

    def value(self, x, out=None):
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):
            if out is not None:
                return self._into(x, out)
            return self._into(x, np.empty_like(x))[()]

    def _into(self, x, out):
        raise NotImplementedError


@dataclass(frozen=True)
class FreeParticle(Potential):
    def _into(self, x, out):
        out[...] = 0.0
        return out


@dataclass(frozen=True)
class Harmonic(Potential):
    """V(x) = m omega^2 x^2 / 2, with m the particle mass of the run."""

    omega: float = 1.0
    mass: float = 1.0

    def _into(self, x, out):
        np.square(x, out=out)
        return np.multiply(0.5 * self.mass * self.omega**2, out, out=out)


@dataclass(frozen=True)
class Eckart(Potential):
    """Symmetric barrier V(x) = V0 / cosh^2(x / a)."""

    v0: float = 1.0
    a: float = 1.0

    def _into(self, x, out):
        # on the far tails cosh or its square overflows to inf, and V to 0
        np.divide(x, self.a, out=out)
        np.cosh(out, out=out)
        np.square(out, out=out)
        return np.divide(self.v0, out, out=out)


@dataclass(frozen=True)
class DoubleWell(Potential):
    """V(x) = V0 ((x/q0)^2 - 1)^2 with minima at +-q0."""

    v0: float = 1.0
    q0: float = 1.0

    def _into(self, x, out):
        np.divide(x, self.q0, out=out)
        np.square(out, out=out)
        np.subtract(out, 1.0, out=out)
        np.square(out, out=out)
        return np.multiply(self.v0, out, out=out)


def from_config(cfg: dict, mass: float = 1.0) -> Potential:
    """Build a potential from a {'kind': ..., ...} mapping of its fields;
    ``mass`` is the particle mass of the thermodynamic parameters.
    ValueError names a key the kind does not read."""
    kinds = {"free": FreeParticle, "harmonic": Harmonic, "eckart": Eckart, "double_well": DoubleWell}
    kind = cfg.get("kind", "free")
    if kind not in kinds:
        raise ValueError(f"unknown potential kind: {kind!r}")
    cls = kinds[kind]
    keys = {f.name for f in fields(cls)} - {"mass"}
    extra = sorted(cfg.keys() - keys - {"kind"})
    if extra:
        raise ValueError(f"potential kind {kind!r} does not read the key {extra[0]!r}")
    args = {key: cfg[key] for key in keys & cfg.keys()}
    return cls(**args, mass=mass) if cls is Harmonic else cls(**args)
