"""Calibration of the bootstrap Orlicz estimate against laws whose psi2 is exact.

The oracles are the roots t of E exp(X^2/t^2) = 2 for laws where the
expectation has a closed form.  Point-mass supports (Rademacher and the
rank-one sign projection) give a one-point interval at the exact root plus
the Newton margin.  For the other laws the coverage and mean bias of the 95%
interval over a fixed seed set are printed (run with -s to see them); no
coverage bound is asserted, since the estimator's coverage is what is being
measured, not a property it has been shown to hold.
"""

import math

import numpy as np
import pytest
from scipy import integrate, optimize, special

from subgauss.gaussian_core import CovarianceSpec, sample_gaussian, substream
from subgauss.psi2_estimation import (
    NEWTON_TOL,
    _block_draw,
    _draw_support,
    _orlicz_estimate,
    scan_directions,
)

SAMPLES = 50_000
SEEDS = range(100)

GAUSSIAN = math.sqrt(8.0 / 3.0)               # E exp(X^2/t^2) = (1 - 2/t^2)^(-1/2)
RADEMACHER = 1.0 / math.sqrt(math.log(2.0))   # exp(1/t^2) = 2


def sign_sum_psi2(n):
    """psi2 of S_n / sqrt(n) for S_n a sum of n i.i.d. signs, from the binomial pmf."""
    k = np.arange(n + 1)
    pmf = np.array([math.comb(n, j) for j in k], dtype=float) / 2.0**n
    squares = (2.0 * k - n) ** 2 / n
    return optimize.brentq(lambda t: pmf @ np.exp(squares / t**2) - 2.0, 1.0, 3.0,
                           xtol=1e-15, rtol=1e-15)


def uniform_psi2():
    """psi2 of uniform[-1, 1]: E exp(U^2/t^2) = t (sqrt(pi)/2) erfi(1/t)."""
    return optimize.brentq(lambda t: t * math.sqrt(math.pi) / 2.0 * special.erfi(1.0 / t) - 2.0,
                           0.5, 2.0, xtol=1e-15, rtol=1e-15)


def rank_one_psi2(n):
    """psi2 of the all-ones projection of sgn(X), X ~ N(0, ones(n, n)): +-sqrt(n)."""
    return math.sqrt(n / math.log(2.0))


def sign_sum(n):
    return lambda rng: (2.0 * rng.binomial(n, 0.5, SAMPLES) - n) / math.sqrt(n)


LAWS = {
    "gaussian": (lambda rng: rng.standard_normal(SAMPLES), GAUSSIAN),
    "uniform": (lambda rng: rng.uniform(-1.0, 1.0, SAMPLES), uniform_psi2()),
    **{f"sign-sum-{n}": (sign_sum(n), sign_sum_psi2(n)) for n in (16, 64, 256)},
}


def estimates(law, seeds):
    """(value, ci_low, ci_high) rows of the scan's scalar estimate, one per seed."""
    draw, _ = LAWS[law]
    supports = []
    for seed in seeds:
        x = draw(substream(seed, "calibration", law))
        boot = _block_draw(SAMPLES, substream(seed, "calibration-boot", law))
        supports.append(_draw_support(x, boot))
    return _orlicz_estimate(supports)


class TestOracles:
    def test_sign_sum_values(self):
        for n, value in ((16, 1.5732493), (64, 1.6154996), (256, 1.6283347)):
            assert sign_sum_psi2(n) == pytest.approx(value, abs=1e-7)

    def test_one_sign_is_rademacher(self):
        assert sign_sum_psi2(1) == pytest.approx(RADEMACHER, rel=1e-13)

    def test_sign_sums_rise_to_the_gaussian(self):
        values = [sign_sum_psi2(n) for n in (1, 16, 64, 256)]
        assert values == sorted(values) and values[-1] < GAUSSIAN

    def test_gaussian_criterion_by_quadrature(self):
        mgf, _ = integrate.quad(
            lambda x: math.exp(x * x / GAUSSIAN**2 - x * x / 2.0) / math.sqrt(2.0 * math.pi),
            -math.inf, math.inf)
        assert mgf == pytest.approx(2.0, rel=1e-10)

    def test_uniform_criterion_by_quadrature(self):
        t = uniform_psi2()
        assert t == pytest.approx(0.7727078, abs=1e-7)
        mgf, _ = integrate.quad(lambda x: math.exp(x * x / t**2), 0.0, 1.0)
        assert mgf == pytest.approx(2.0, rel=1e-12)

    def test_rank_one_is_scaled_rademacher(self):
        for n in (16, 64, 256):
            assert rank_one_psi2(n) == pytest.approx(math.sqrt(n) * RADEMACHER, rel=1e-15)


class TestPointSupports:
    """A two-point support gives a one-point interval: the root plus the margin."""

    def assert_holds(self, value, lo, hi, truth):
        margin = NEWTON_TOL * truth
        assert lo - margin <= truth <= hi + margin
        assert value - margin <= truth <= value + margin

    def test_rademacher(self):
        x = np.where(substream(3, "calibration-rademacher").random(SAMPLES) < 0.5, -1.0, 1.0)
        draw = _block_draw(SAMPLES, substream(4, "calibration"))
        value, lo, hi = _orlicz_estimate([_draw_support(x, draw)])[0]
        self.assert_holds(value, lo, hi, RADEMACHER)

    @pytest.mark.parametrize("n", (16, 64, 256))
    def test_rank_one_sign_projection(self, n):
        y = np.sign(sample_gaussian(CovarianceSpec.rank_one_ones(n), 10**4, seed=5,
                                    stream_id=0))
        (est,) = scan_directions(y, 0, 5, 0)
        self.assert_holds(est.value, est.ci_low, est.ci_high, rank_one_psi2(n))


@pytest.mark.parametrize("law", LAWS)
def test_coverage_and_bias_reported(law):
    rows = estimates(law, SEEDS)
    truth = LAWS[law][1]
    coverage = np.mean((rows[:, 1] <= truth) & (truth <= rows[:, 2]))
    bias = np.mean(rows[:, 0]) / truth - 1.0
    print(f"{law}: psi2 {truth:.7f}, coverage {coverage:.2f} over {len(SEEDS)} seeds "
          f"of {SAMPLES} samples, mean bias {bias:+.3%}")
    assert np.all(np.isfinite(rows)) and np.all(rows[:, 1] <= rows[:, 2])
