"""Coordinate-wise bounded maps, by registry name.

A map is checked once, when it is built, to stay within |phi| <= 1 on a
probe grid that also lies on both sides of each declared jump.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BoundViolation, ValidationError


@dataclass(frozen=True)
class BoundedMap:
    """A coordinate-wise map phi with |phi| <= 1.

    `breakpoints` declares the map's jumps.  They only place the |phi| <= 1
    probe on both sides of each jump, where a grid could step over a spike.
    """

    name: str
    func: Callable[[np.ndarray], np.ndarray]
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


# Built-in map registry ------------------------------------------------------

_BUILTINS = {
    "sgn": BoundedMap("sgn", np.sign, breakpoints=(0.0,)),
    "clamp": BoundedMap("clamp", lambda x: np.clip(x, -1.0, 1.0)),
    "cos": BoundedMap("cos", np.cos),
    "one": BoundedMap("one", lambda x: np.ones_like(np.asarray(x, dtype=float))),
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
                          breakpoints=(t,))
    raise ValidationError(f"unknown map name {name!r}; known: "
                          f"{sorted(_BUILTINS)} or 'threshold:<level>'")
