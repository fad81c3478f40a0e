"""Coordinate-wise bounded maps, by registry name.

A map is checked once, when it is built, to stay within |phi| <= 1 on a
probe grid that also lies on both sides of each declared jump.  A map comes
with its Gaussian-smoothed mean g(m, s) = E phi(m + s Z), Z ~ N(0, 1), in
closed form, so E phi(X_i) = g(0, sigma_i) needs no sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BoundViolation, ValidationError

_cdf = np.vectorize(lambda z: 0.5 * math.erfc(-z / math.sqrt(2.0)), otypes=[float])  # Phi


@dataclass(frozen=True)
class BoundedMap:
    """A coordinate-wise map phi with |phi| <= 1, and its Gaussian mean.

    `smoothed_mean(m, s)` is E phi(m + s Z) for s > 0, elementwise over arrays.
    `breakpoints` declares the map's jumps.  They only place the |phi| <= 1
    probe on both sides of each jump, where a grid could step over a spike.
    """

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    smoothed_mean: Callable[[np.ndarray, np.ndarray], np.ndarray]
    breakpoints: tuple = ()

    def __post_init__(self):
        probe = [np.linspace(-50.0, 50.0, 2001)]
        for b in self.breakpoints:
            probe.append(b + np.array([-1e-3, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3]))
        xs = np.concatenate(probe)
        vals = np.abs(np.asarray(self.func(xs), dtype=float))
        worst = float(vals.max())
        if worst > 1.0 + 1e-12:
            raise BoundViolation(f"map {self.name!r} reaches |phi|={worst:.6g} above 1")

    def __call__(self, x):
        return self.func(np.asarray(x, dtype=float))


def _clamp_mean(m, s):
    """g of clip(x, -1, 1): the masses of both tails plus the mean of m + sZ between them."""
    lo, hi = (-1.0 - m) / s, (1.0 - m) / s
    pdf = lambda z: np.exp(-0.5 * np.square(z)) / math.sqrt(2.0 * math.pi)  # noqa: E731
    return _cdf(-hi) - _cdf(lo) + m * (_cdf(hi) - _cdf(lo)) - s * (pdf(hi) - pdf(lo))


# Built-in map registry ------------------------------------------------------

_BUILTINS = {
    "sgn": BoundedMap("sgn", np.sign, lambda m, s: 2.0 * _cdf(m / s) - 1.0, breakpoints=(0.0,)),
    "clamp": BoundedMap("clamp", lambda x: np.clip(x, -1.0, 1.0), _clamp_mean),
    "cos": BoundedMap("cos", np.cos, lambda m, s: np.cos(m) * np.exp(-0.5 * np.square(s))),
    "one": BoundedMap("one", lambda x: np.ones_like(np.asarray(x, dtype=float)),
                      lambda m, s: np.ones(np.broadcast(m, s).shape)),
}


def get_map(name: str) -> BoundedMap:
    """Resolve a registry name: 'sgn', 'clamp', 'cos', 'one', or 'threshold:t'."""
    if name in _BUILTINS:
        return _BUILTINS[name]
    if name.startswith("threshold:"):
        try:
            t = float(name.split(":", 1)[1]) + 0.0  # -0 names itself 0
        except ValueError as exc:
            raise ValidationError(f"bad threshold level in map name {name!r}") from exc
        if not math.isfinite(t):  # a non-finite level gives a constant map
            raise ValidationError(f"threshold level must be finite, got {name!r}")
        return BoundedMap(f"threshold:{t:g}",
                          lambda x: np.where(np.asarray(x, dtype=float) >= t, 1.0, -1.0),
                          lambda m, s: 2.0 * _cdf((m - t) / s) - 1.0, breakpoints=(t,))
    raise ValidationError(f"unknown map name {name!r}; known: "
                          f"{sorted(_BUILTINS)} or 'threshold:<level>'")
