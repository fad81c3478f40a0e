import math

import numpy as np
import pytest
from scipy import integrate

from subgauss.errors import BoundViolation, ValidationError
from subgauss.nonlinearity import BoundedMap, get_map

BUILTINS = ("sgn", "clamp", "cos", "one", "threshold:0.5")
XS = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
VALUES = {
    "sgn": [-1.0, -1.0, 0.0, 1.0, 1.0],
    "clamp": [-1.0, -0.5, 0.0, 0.5, 1.0],
    "cos": np.cos(XS),
    "one": [1.0] * 5,
    "threshold:0.5": [-1.0, -1.0, -1.0, 1.0, 1.0],  # the level itself maps to +1
}
# the registry with thresholds on both sides of 0, and each map's kinks
SMOOTHED = ("sgn", "clamp", "cos", "one",
            "threshold:-1", "threshold:0", "threshold:0.5", "threshold:2")
KINKS = {"clamp": (-1.0, 1.0)}
ZERO_MEAN = lambda m, s: np.zeros(np.broadcast(m, s).shape)  # noqa: E731


class TestBoundedMap:
    def test_unbounded_map_rejected(self):
        with pytest.raises(BoundViolation):
            BoundedMap("linear", lambda x: np.asarray(x, dtype=float), ZERO_MEAN)

    def test_certificate_above_one_rejected(self):
        # bounded, but not by 1
        with pytest.raises(BoundViolation):
            BoundedMap("big", lambda x: 1.5 * np.sign(x), ZERO_MEAN)

    def test_breakpoints_place_the_probe_at_a_jump(self):
        # above 1 only within 1e-5 of 0.123, which the grid steps over
        def spiky(x):
            return np.where(np.abs(x - 0.123) < 1e-5, 2.0, np.sign(x))

        BoundedMap("spiky", spiky, ZERO_MEAN)
        with pytest.raises(BoundViolation):
            BoundedMap("spiky", spiky, ZERO_MEAN, breakpoints=(0.123,))

    def test_a_map_needs_its_smoothed_mean(self):
        with pytest.raises(TypeError, match="smoothed_mean"):
            BoundedMap("sgn", np.sign)

    def test_registry_names(self):
        for name in BUILTINS:
            bmap = get_map(name)
            assert bmap.name == name

    def test_threshold_parsing(self):
        bmap = get_map("threshold:0.5")
        assert bmap.breakpoints == (0.5,)
        assert bmap(np.array([0.4, 0.6])).tolist() == [-1.0, 1.0]

    def test_unknown_name(self):
        with pytest.raises(ValidationError, match="unknown map"):
            get_map("kapow")

    def test_bad_threshold_level(self):
        with pytest.raises(ValidationError):
            get_map("threshold:zap")

    @pytest.mark.parametrize("name", BUILTINS)
    def test_builtin_values(self, name):
        np.testing.assert_array_equal(get_map(name)(XS), VALUES[name])

    @pytest.mark.parametrize("name", BUILTINS)
    def test_builtin_bounded_beyond_the_probe(self, name):
        # the probe grid spans [-50, 50]; the built-ins stay bounded past it
        xs = np.array([-1e300, -1e6, -51.0, 51.0, 1e6, 1e300])
        assert np.max(np.abs(get_map(name)(xs))) <= 1.0

    def test_call_takes_a_list(self):
        out = get_map("sgn")([-3, 0, 2])
        assert out.dtype == float
        assert out.tolist() == [-1.0, 0.0, 1.0]

    def test_threshold_name_is_normalised(self):
        assert get_map("threshold:0.50").name == "threshold:0.5"
        assert get_map("threshold:-1e0").breakpoints == (-1.0,)
        assert get_map("threshold:-0").name == get_map("threshold:0").name == "threshold:0"

    @pytest.mark.parametrize("level", ("inf", "-inf", "nan"))
    def test_non_finite_threshold_rejected(self, level):
        with pytest.raises(ValidationError, match="finite"):
            get_map(f"threshold:{level}")


class TestSmoothedMean:
    @pytest.mark.parametrize("name", SMOOTHED)
    @pytest.mark.parametrize("m", (-1.0, 0.0, 0.7))
    @pytest.mark.parametrize("s", (0.3, 1.0, 4.0))
    def test_matches_a_quadrature_of_the_map(self, name, m, s):
        # E phi(m + sZ) as the integral of phi against the N(m, s^2) density,
        # split at each jump and kink; beyond 12 s the density is below 1e-31
        bmap = get_map(name)

        def integrand(x):
            density = math.exp(-0.5 * ((x - m) / s) ** 2) / (s * math.sqrt(2 * math.pi))
            return float(bmap(x)) * density

        lo, hi = m - 12.0 * s, m + 12.0 * s
        points = [p for p in bmap.breakpoints + KINKS.get(name, ()) if lo < p < hi]
        exact, _ = integrate.quad(integrand, lo, hi, points=points or None,
                                  epsabs=1e-13, epsrel=1e-13, limit=200)
        assert abs(float(bmap.smoothed_mean(m, s)) - exact) <= 1e-9

    @pytest.mark.parametrize("name", SMOOTHED)
    def test_elementwise_over_scales(self, name):
        bmap = get_map(name)
        s = np.array([0.3, 1.0, 4.0])
        np.testing.assert_array_equal(bmap.smoothed_mean(0.0, s),
                                      [float(bmap.smoothed_mean(0.0, v)) for v in s])
