import math

import numpy as np
import pytest
from scipy import special, stats

from subgauss.errors import BoundViolation, ValidationError
from subgauss.nonlinearity import BoundedMap, get_map, smoothed_mean_quadrature

A_VALUES = (0.25, 1.0, 4.0)
BUILTINS = ("sgn", "clamp", "cos", "one", "threshold:0.5")


def _clamp_mean(a, x):
    # E clip(Y, -1, 1) for Y ~ N(x, a): the two tails plus E[Y; -1 < Y < 1]
    s = math.sqrt(a)
    lo, hi = (-1.0 - x) / s, (1.0 - x) / s
    cdf, pdf = stats.norm.cdf, stats.norm.pdf
    inside = x * (cdf(hi) - cdf(lo)) + s * (pdf(lo) - pdf(hi))
    return (1.0 - cdf(hi)) - cdf(lo) + inside


# closed forms of the smoothed mean E phi(sqrt(a) Z + x) of every built-in map
CLOSED_FORMS = {
    "sgn": lambda a, x: special.erf(x / math.sqrt(2.0 * a)),
    "clamp": _clamp_mean,
    "cos": lambda a, x: math.cos(x) * math.exp(-a / 2.0),
    "one": lambda a, x: 1.0,
    "threshold:0.5": lambda a, x: special.erf((x - 0.5) / math.sqrt(2.0 * a)),
}


class TestBoundedMap:
    def test_unbounded_map_rejected(self):
        with pytest.raises(BoundViolation):
            BoundedMap("linear", lambda x: np.asarray(x, dtype=float))

    def test_certificate_above_one_rejected(self):
        # bounded, but not by 1
        with pytest.raises(BoundViolation):
            BoundedMap("big", lambda x: 1.5 * np.sign(x))

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


class TestSmoothedMean:
    def test_sgn_at_zero(self):
        sgn = get_map("sgn")
        assert smoothed_mean_quadrature(sgn, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        # a threshold map is sgn moved to its level
        threshold = get_map("threshold:0.5")
        assert smoothed_mean_quadrature(threshold, 1.0, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_sgn_at_one(self):
        # closed form 1 - 2*Phi(-x/sqrt(a)) = erf(1/sqrt(2))
        assert smoothed_mean_quadrature(get_map("sgn"), 1.0, 1.0) == pytest.approx(
            0.6826895, abs=1e-6)

    def test_constant_one(self):
        for a in A_VALUES:
            assert smoothed_mean_quadrature(get_map("one"), a, 3.7) == 1.0

    @pytest.mark.parametrize("a", A_VALUES)
    def test_quadrature_matches_erf_grid(self, a):
        bmap = get_map("sgn")
        for x in np.arange(-5.0, 5.0 + 1e-9, 0.1):
            expected = special.erf(x / math.sqrt(2.0 * a))
            assert abs(smoothed_mean_quadrature(bmap, a, x) - expected) <= 1e-6

    @pytest.mark.parametrize("name", BUILTINS)
    def test_closed_form_agrees_with_quadrature(self, name):
        bmap = get_map(name)
        for a in (0.25, 1.0):
            for x in np.linspace(-3.0, 3.0, 13):
                cf = CLOSED_FORMS[name](a, x)
                q = smoothed_mean_quadrature(bmap, a, x)
                assert abs(cf - q) <= 1e-6

    @pytest.mark.parametrize("name", BUILTINS)
    def test_boundedness_inherited(self, name):
        bmap = get_map(name)
        for a in A_VALUES:
            for x in np.linspace(-8.0, 8.0, 17):
                assert abs(smoothed_mean_quadrature(bmap, a, x)) <= 1.0

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValidationError):
            smoothed_mean_quadrature(get_map("sgn"), 0.0, 1.0)
