"""Coordinate-wise bounded maps and their Gaussian-smoothed means.

The selftest checks the smoothed mean mu(x) = E phi(sqrt(a) Z + x) of sgn
against its erf closed form.  Plain Gauss-Hermite quadrature converges poorly
across jumps, so the numerical path splits the real line at declared
breakpoints and integrates adaptive Gauss-Kronrod panels against the explicit
Gaussian density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BoundViolation, QuadratureNonConvergence, ValidationError

QUAD_ABS_TOL = 1e-10      # requested quadrature tolerance
QUAD_ACCEPT_TOL = 1e-8    # reported abserr above this is a failure
TAIL_SIGMAS = 10.0        # integration window half-width in units of sqrt(a)


@dataclass(frozen=True)
class BoundedMap:
    """A coordinate-wise map phi with |phi| <= 1.

    Discontinuity locations must be declared in `breakpoints`; detection is
    unreliable, declaration is testable.
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


def smoothed_mean_quadrature(bmap: BoundedMap, a: float, x: float) -> float:
    """Numerical E phi(sqrt(a) Z + x), breakpoint-split adaptive quadrature."""
    from scipy.integrate import quad  # here, so importing the package does not load it

    if a <= 0:
        raise ValidationError(f"smoothing variance must be positive, got {a}")
    half = TAIL_SIGMAS * math.sqrt(a)
    lo, hi = x - half, x + half
    pts = sorted(b for b in bmap.breakpoints if lo < b < hi)
    norm = 1.0 / math.sqrt(2.0 * math.pi * a)

    def integrand(u):
        return float(bmap.func(u)) * norm * math.exp(-(u - x) ** 2 / (2.0 * a))

    result = quad(integrand, lo, hi, points=pts or None,
                  epsabs=QUAD_ABS_TOL, epsrel=QUAD_ABS_TOL, limit=500, full_output=1)
    value, abserr = result[0], result[1]
    # QUADPACK may warn (e.g. roundoff detection) while still meeting the
    # acceptance tolerance; only the achieved error estimate matters here.
    if not math.isfinite(value) or abserr > QUAD_ACCEPT_TOL:
        message = result[3] if len(result) > 3 else ""
        raise QuadratureNonConvergence(
            f"smoothed mean of {bmap.name}: abserr {abserr:.3e} above "
            f"{QUAD_ACCEPT_TOL:.0e} {message}".rstrip())
    # |mu| <= 1 by construction; trim quadrature overshoot.
    return float(np.clip(value, -1.0, 1.0))


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
            t = float(name.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"bad threshold level in map name {name!r}") from exc
        if not math.isfinite(t):  # a non-finite level gives a constant map
            raise ValidationError(f"threshold level must be finite, got {name!r}")
        return BoundedMap(f"threshold:{t:g}",
                          lambda x: np.where(np.asarray(x, dtype=float) >= t, 1.0, -1.0),
                          breakpoints=(t,))
    raise ValidationError(f"unknown map name {name!r}; known: "
                          f"{sorted(_BUILTINS)} or 'threshold:<level>'")
