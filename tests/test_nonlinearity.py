import numpy as np
import pytest

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


class TestBoundedMap:
    def test_unbounded_map_rejected(self):
        with pytest.raises(BoundViolation):
            BoundedMap("linear", lambda x: np.asarray(x, dtype=float))

    def test_certificate_above_one_rejected(self):
        # bounded, but not by 1
        with pytest.raises(BoundViolation):
            BoundedMap("big", lambda x: 1.5 * np.sign(x))

    def test_breakpoints_place_the_probe_at_a_jump(self):
        # above 1 only within 1e-5 of 0.123, which the grid steps over
        def spiky(x):
            return np.where(np.abs(x - 0.123) < 1e-5, 2.0, np.sign(x))

        BoundedMap("spiky", spiky)
        with pytest.raises(BoundViolation):
            BoundedMap("spiky", spiky, breakpoints=(0.123,))

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

    @pytest.mark.parametrize("level", ("inf", "-inf", "nan"))
    def test_non_finite_threshold_rejected(self, level):
        with pytest.raises(ValidationError, match="finite"):
            get_map(f"threshold:{level}")
