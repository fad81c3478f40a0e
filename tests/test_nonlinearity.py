import math

import numpy as np
import pytest
from scipy import special

from subgauss.errors import BoundViolation, ValidationError
from subgauss.nonlinearity import (
    BoundedMap,
    clamp_map,
    constant_one_map,
    get_map,
    lipschitz_certificate,
    sgn_map,
    smoothed_mean,
    smoothed_mean_derivative,
    smoothed_mean_derivative_quadrature,
    smoothed_mean_quadrature,
    threshold_map,
)

A_VALUES = (0.25, 1.0, 4.0)
BUILTINS = ("sgn", "clamp", "cos", "one", "threshold:0.5")


class TestBoundedMap:
    def test_unbounded_map_rejected(self):
        with pytest.raises(BoundViolation):
            BoundedMap("linear", lambda x: np.asarray(x, dtype=float), 1.0)

    def test_certificate_above_one_rejected(self):
        with pytest.raises(ValidationError):
            BoundedMap("big", np.sign, 1.5)

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
        assert smoothed_mean(sgn_map(), 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        # a threshold map is sgn moved to its level
        assert smoothed_mean(threshold_map(0.5), 1.0, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_sgn_at_one(self):
        # closed form 1 - 2*Phi(-x/sqrt(a)) = erf(1/sqrt(2))
        assert smoothed_mean(sgn_map(), 1.0, 1.0) == pytest.approx(0.6826895, abs=1e-6)

    def test_constant_one(self):
        for a in A_VALUES:
            assert smoothed_mean(constant_one_map(), a, 3.7) == 1.0

    @pytest.mark.parametrize("a", A_VALUES)
    def test_quadrature_matches_erf_grid(self, a):
        bmap = sgn_map()
        for x in np.arange(-5.0, 5.0 + 1e-9, 0.1):
            expected = special.erf(x / math.sqrt(2.0 * a))
            assert abs(smoothed_mean_quadrature(bmap, a, x) - expected) <= 1e-6

    @pytest.mark.parametrize("name", BUILTINS)
    def test_closed_form_agrees_with_quadrature(self, name):
        bmap = get_map(name)
        if bmap.closed_form_smoothed_mean is None:
            pytest.skip("no closed form declared")
        for a in (0.25, 1.0):
            for x in np.linspace(-3.0, 3.0, 13):
                cf = bmap.closed_form_smoothed_mean(a, x)
                q = smoothed_mean_quadrature(bmap, a, x)
                assert abs(cf - q) <= 1e-6

    @pytest.mark.parametrize("name", BUILTINS)
    def test_boundedness_inherited(self, name):
        bmap = get_map(name)
        for a in A_VALUES:
            for x in np.linspace(-8.0, 8.0, 17):
                assert abs(smoothed_mean(bmap, a, x)) <= 1.0

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValidationError):
            smoothed_mean(sgn_map(), 0.0, 1.0)


class TestSmoothedMeanDerivative:
    def test_sgn_attains_bound_at_origin(self):
        for bmap, peak in ((sgn_map(), 0.0), (threshold_map(0.5), 0.5)):
            value = smoothed_mean_derivative(bmap, 1.0, peak)
            assert value == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-9)

    def test_sgn_a_four(self):
        value = smoothed_mean_derivative(sgn_map(), 4.0, 0.0)
        assert value == pytest.approx(0.3989423, abs=1e-6)

    def test_constant_is_flat(self):
        assert smoothed_mean_derivative(constant_one_map(), 1.0, 2.0) == 0.0

    def test_quadrature_matches_closed_form(self):
        bmap = sgn_map()
        for x in np.linspace(-3.0, 3.0, 13):
            cf = bmap.closed_form_smoothed_mean_derivative(1.0, x)
            q = smoothed_mean_derivative_quadrature(bmap, 1.0, x)
            assert abs(cf - q) <= 1e-7

    @pytest.mark.parametrize("name", ("sgn", "clamp", "cos"))
    @pytest.mark.parametrize("a", A_VALUES)
    def test_matches_finite_differences(self, name, a):
        bmap = get_map(name)
        h = 1e-4
        for x in np.linspace(-2.0, 2.0, 9):
            fd = (smoothed_mean(bmap, a, x + h) - smoothed_mean(bmap, a, x - h)) / (2 * h)
            assert abs(smoothed_mean_derivative(bmap, a, x) - fd) <= 1e-4


class TestLipschitzCertificate:
    def test_sgn_certificate_tight(self):
        max_abs, bound = lipschitz_certificate(sgn_map(), 1.0)
        assert bound == pytest.approx(0.7978846, abs=1e-6)
        assert max_abs == pytest.approx(bound, abs=1e-9)

    def test_clamp_below_bound(self):
        max_abs, bound = lipschitz_certificate(clamp_map(), 1.0)
        assert max_abs <= bound + 1e-9
        assert max_abs <= 1.0  # clamp is 1-Lipschitz before smoothing

    def test_constant_map(self):
        max_abs, bound = lipschitz_certificate(constant_one_map(), 1.0)
        assert max_abs == 0.0
        assert bound == pytest.approx(math.sqrt(2.0 / math.pi))

    @pytest.mark.parametrize("name", BUILTINS)
    @pytest.mark.parametrize("a", A_VALUES)
    def test_no_builtin_violates_bound(self, name, a):
        max_abs, bound = lipschitz_certificate(get_map(name), a)
        assert max_abs <= bound + 1e-9
