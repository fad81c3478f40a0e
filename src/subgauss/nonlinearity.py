"""Coordinate-wise bounded maps and their Gaussian-smoothed means.

The smoothed mean mu(x) = E phi(sqrt(a) Z + x) is Lipschitz with constant
sqrt(2 / (pi a)) even when phi jumps.  Plain Gauss-Hermite quadrature converges
poorly across jumps, so the numerical path splits the real line at declared
breakpoints and integrates adaptive Gauss-Kronrod panels against the explicit
Gaussian density.  Built-in maps carry closed forms where they exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import BoundViolation, QuadratureNonConvergence, ValidationError

QUAD_ABS_TOL = 1e-10      # requested quadrature tolerance
QUAD_ACCEPT_TOL = 1e-8    # reported abserr above this is a failure
TAIL_SIGMAS = 10.0        # integration window half-width in units of sqrt(a)
DERIV_BOUND_TOL = 1e-9    # slack allowed on the Lipschitz bound
CERT_GRID_POINTS = 2001   # certificate grid on [-10 sqrt(a), 10 sqrt(a)]


@dataclass(frozen=True)
class BoundedMap:
    """A coordinate-wise map phi with a declared sup-norm certificate <= 1.

    Discontinuity locations must be declared in `breakpoints`; detection is
    unreliable, declaration is testable.  Closed forms, when present, are
    (a, x) -> E phi(sqrt(a) Z + x) and its x-derivative.
    """

    name: str
    func: Callable[[np.ndarray], np.ndarray]
    sup_norm_certificate: float = 1.0
    breakpoints: tuple = ()
    closed_form_smoothed_mean: Optional[Callable[[float, float], float]] = None
    closed_form_smoothed_mean_derivative: Optional[Callable[[float, float], float]] = None

    def __post_init__(self):
        if not (0.0 < self.sup_norm_certificate <= 1.0):
            raise ValidationError(
                f"sup-norm certificate must be in (0, 1], got {self.sup_norm_certificate}")
        probe = [np.linspace(-50.0, 50.0, 2001)]
        for b in self.breakpoints:
            probe.append(b + np.array([-1e-3, -1e-6, -1e-9, 0.0, 1e-9, 1e-6, 1e-3]))
        xs = np.concatenate(probe)
        vals = np.abs(np.asarray(self.func(xs), dtype=float))
        worst = float(vals.max())
        if worst > self.sup_norm_certificate + 1e-12:
            raise BoundViolation(
                f"map {self.name!r} reaches |phi|={worst:.6g} above its certificate "
                f"{self.sup_norm_certificate}")

    def __call__(self, x):
        return self.func(np.asarray(x, dtype=float))


def _panels(x: float, a: float, breakpoints) -> tuple[float, float, list[float]]:
    half = TAIL_SIGMAS * math.sqrt(a)
    lo, hi = x - half, x + half
    pts = sorted(b for b in breakpoints if lo < b < hi)
    return lo, hi, pts


def _quad_checked(integrand, lo, hi, pts, what: str) -> float:
    from scipy.integrate import quad  # here, so importing the package does not load it

    result = quad(integrand, lo, hi, points=pts or None,
                  epsabs=QUAD_ABS_TOL, epsrel=QUAD_ABS_TOL, limit=500, full_output=1)
    value, abserr = result[0], result[1]
    # QUADPACK may warn (e.g. roundoff detection) while still meeting the
    # acceptance tolerance; only the achieved error estimate matters here.
    if not math.isfinite(value) or abserr > QUAD_ACCEPT_TOL:
        message = result[3] if len(result) > 3 else ""
        raise QuadratureNonConvergence(
            f"{what}: abserr {abserr:.3e} above {QUAD_ACCEPT_TOL:.0e} {message}".rstrip())
    return value


def smoothed_mean_quadrature(bmap: BoundedMap, a: float, x: float) -> float:
    """Numerical E phi(sqrt(a) Z + x), breakpoint-split adaptive quadrature."""
    if a <= 0:
        raise ValidationError(f"smoothing variance must be positive, got {a}")
    lo, hi, pts = _panels(x, a, bmap.breakpoints)
    norm = 1.0 / math.sqrt(2.0 * math.pi * a)

    def integrand(u):
        return float(bmap.func(u)) * norm * math.exp(-(u - x) ** 2 / (2.0 * a))

    value = _quad_checked(integrand, lo, hi, pts, f"smoothed mean of {bmap.name}")
    # |mu| <= sup-norm by construction; trim quadrature overshoot.
    return float(np.clip(value, -1.0, 1.0))


def smoothed_mean(bmap: BoundedMap, a: float, x: float) -> float:
    """E phi(sqrt(a) Z + x): closed form when available, else quadrature."""
    if a <= 0:
        raise ValidationError(f"smoothing variance must be positive, got {a}")
    if bmap.closed_form_smoothed_mean is not None:
        return float(bmap.closed_form_smoothed_mean(a, x))
    return smoothed_mean_quadrature(bmap, a, x)


def smoothed_mean_derivative_quadrature(bmap: BoundedMap, a: float, x: float) -> float:
    """Numerical (1/sqrt(a)) E[Z phi(sqrt(a) Z + x)] via the kernel-derivative form."""
    if a <= 0:
        raise ValidationError(f"smoothing variance must be positive, got {a}")
    lo, hi, pts = _panels(x, a, bmap.breakpoints)
    norm = 1.0 / math.sqrt(2.0 * math.pi * a)

    def integrand(u):
        return float(bmap.func(u)) * (u - x) / a * norm * math.exp(-(u - x) ** 2 / (2.0 * a))

    value = _quad_checked(integrand, lo, hi, pts, f"smoothed derivative of {bmap.name}")
    bound = math.sqrt(2.0 / (math.pi * a))
    if abs(value) > bound + 1e-6:
        raise BoundViolation(
            f"derivative {value:.6g} of {bmap.name} exceeds sqrt(2/(pi a)) = {bound:.6g}")
    return float(np.clip(value, -bound, bound))


def smoothed_mean_derivative(bmap: BoundedMap, a: float, x: float) -> float:
    """d/dx of the smoothed mean; guaranteed within sqrt(2/(pi a)) + 1e-9."""
    if a <= 0:
        raise ValidationError(f"smoothing variance must be positive, got {a}")
    if bmap.closed_form_smoothed_mean_derivative is not None:
        return float(bmap.closed_form_smoothed_mean_derivative(a, x))
    return smoothed_mean_derivative_quadrature(bmap, a, x)


def lipschitz_certificate(bmap: BoundedMap, a: float) -> tuple[float, float]:
    """(max |mu'| on the certificate grid, theoretical bound sqrt(2/(pi a))).

    The grid covers [-10 sqrt(a), 10 sqrt(a)]; beyond it the Gaussian-weighted
    derivative of any bounded map is below 1e-12.  Raises BoundViolation when
    the numerical max exceeds the bound beyond tolerance.
    """
    if a <= 0:
        raise ValidationError(f"smoothing variance must be positive, got {a}")
    bound = math.sqrt(2.0 / (math.pi * a))
    half = 10.0 * math.sqrt(a)
    xs = np.linspace(-half, half, CERT_GRID_POINTS)
    if bmap.closed_form_smoothed_mean_derivative is not None:
        vals = np.abs([bmap.closed_form_smoothed_mean_derivative(a, x) for x in xs])
        max_abs = float(vals.max())
    else:
        max_abs = 0.0
        for x in xs:
            max_abs = max(max_abs, abs(smoothed_mean_derivative_quadrature(bmap, a, x)))
    if max_abs > bound + DERIV_BOUND_TOL:
        raise BoundViolation(
            f"|mu'| max {max_abs:.9g} exceeds bound {bound:.9g} for map {bmap.name!r}")
    return max_abs, bound


# Built-in map registry ------------------------------------------------------

def _sgn_mean(a, x):
    return math.erf(x / math.sqrt(2.0 * a))


def _sgn_deriv(a, x):
    return math.sqrt(2.0 / (math.pi * a)) * math.exp(-x * x / (2.0 * a))


def sgn_map() -> BoundedMap:
    return BoundedMap("sgn", np.sign, 1.0, breakpoints=(0.0,),
                      closed_form_smoothed_mean=_sgn_mean,
                      closed_form_smoothed_mean_derivative=_sgn_deriv)


def clamp_map() -> BoundedMap:
    return BoundedMap("clamp", lambda x: np.clip(x, -1.0, 1.0), 1.0)


def threshold_map(t: float) -> BoundedMap:
    t = float(t)
    return BoundedMap(
        f"threshold:{t:g}",
        lambda x, _t=t: np.where(np.asarray(x, dtype=float) >= _t, 1.0, -1.0),
        1.0,
        breakpoints=(t,),
        closed_form_smoothed_mean=lambda a, x, _t=t: math.erf((x - _t) / math.sqrt(2.0 * a)),
        closed_form_smoothed_mean_derivative=lambda a, x, _t=t: (
            math.sqrt(2.0 / (math.pi * a)) * math.exp(-(x - _t) ** 2 / (2.0 * a))),
    )


def cos_map() -> BoundedMap:
    return BoundedMap("cos", np.cos, 1.0,
                      closed_form_smoothed_mean=lambda a, x: math.cos(x) * math.exp(-a / 2.0),
                      closed_form_smoothed_mean_derivative=lambda a, x: (
                          -math.sin(x) * math.exp(-a / 2.0)))


def constant_one_map() -> BoundedMap:
    return BoundedMap("one", lambda x: np.ones_like(np.asarray(x, dtype=float)), 1.0,
                      closed_form_smoothed_mean=lambda a, x: 1.0,
                      closed_form_smoothed_mean_derivative=lambda a, x: 0.0)


_BUILTINS = {
    "sgn": sgn_map,
    "clamp": clamp_map,
    "cos": cos_map,
    "one": constant_one_map,
}


def get_map(name: str) -> BoundedMap:
    """Resolve a registry name: 'sgn', 'clamp', 'cos', 'one', or 'threshold:t'."""
    if name in _BUILTINS:
        return _BUILTINS[name]()
    if name.startswith("threshold:"):
        try:
            t = float(name.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"bad threshold level in map name {name!r}") from exc
        if not math.isfinite(t):  # a non-finite level gives a constant map
            raise ValidationError(f"threshold level must be finite, got {name!r}")
        return threshold_map(t)
    raise ValidationError(f"unknown map name {name!r}; known: "
                          f"{sorted(_BUILTINS)} or 'threshold:<level>'")
