import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subgauss import psi2_estimation
from subgauss.errors import GridTooWide, InsufficientSamples, ValidationError
from subgauss.gaussian_core import CovarianceSpec, sample_gaussian, substream
from subgauss.psi2_estimation import (
    BINS,
    BOOT_BLOCKS,
    PROJECT_TILE,
    RESAMPLES,
    _block_draw,
    _compress,
    _draw_support,
    _orlicz_estimate,
    _orlicz_roots,
    _project,
    _resample_counts,
    direction_set,
    psi2_scalar,
    scan_directions,
)

GAUSSIAN_PSI2 = math.sqrt(8.0 / 3.0)          # root of E exp(X^2/t^2) = 2 for N(0,1)
RADEMACHER_PSI2 = 1.0 / math.sqrt(math.log(2.0))


def rademacher(count, seed=0):
    return np.where(substream(seed, "rademacher").random(count) < 0.5, -1.0, 1.0)


def fitted_sigma(x, lambda_grid):
    """The MGF sigma psi2_scalar fits on the draw of its Orlicz estimate."""
    return psi2_scalar(x, lambda_grid=lambda_grid).mgf_sigma_max


class TestPsi2Scalar:
    def test_gaussian_closed_form_oracle(self):
        x = substream(0, "gauss").standard_normal(10**6)
        est = psi2_scalar(x)
        assert abs(est.value - GAUSSIAN_PSI2) <= 0.03
        assert est.ci_low <= est.value <= est.ci_high

    def test_rademacher_closed_form_oracle(self):
        est = psi2_scalar(rademacher(10**6))
        # every resample sees the same two-point support, so the estimate is exact
        assert est.value == pytest.approx(RADEMACHER_PSI2, abs=1e-9)
        assert est.ci_high - est.ci_low == 0.0

    def test_all_zero(self):
        est = psi2_scalar(np.zeros(5000))
        assert est.value == 0.0
        assert (est.ci_low, est.ci_high) == (0.0, 0.0)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            psi2_scalar(np.ones(999))

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_sample_rejected(self, bad):
        x = rademacher(2000)
        x[7] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            psi2_scalar(x)
        with pytest.raises(ValidationError, match="non-finite"):
            psi2_scalar(np.full(2000, bad))

    def test_sample_count(self):
        est = psi2_scalar(rademacher(2000))
        assert est.n_samples == 2000

    @given(c=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=20, deadline=None)
    def test_scale_equivariance(self, c):
        x = substream(5, "scale").standard_normal(2000)
        base = psi2_scalar(x, seed=7).value
        scaled = psi2_scalar(c * x, seed=7).value
        assert abs(scaled - c * base) <= 1e-6 * c * base

    def test_seed_fixes_bootstrap(self):
        x = substream(6, "boot").standard_normal(2000)
        a = psi2_scalar(x, seed=3)
        b = psi2_scalar(x, seed=3)
        assert (a.value, a.ci_low, a.ci_high) == (b.value, b.ci_low, b.ci_high)


def criterion(reps_sq, weights, t):
    """mean of exp(s / t^2) per weight column over the column's own total;
    weights has shape (K, R)."""
    expo = np.minimum(reps_sq[:, None] / (t * t)[None, :], 700.0)
    return (weights * np.exp(expo)).sum(axis=0) / weights.sum(axis=0)


def reference_roots(reps_sq, weights, iters=48):
    """Fixed-count bisection on t in (0, 10 max sqrt(s)]: the upper endpoints,
    where the criterion is <= 2.  Reference for the Newton solver."""
    lo = np.zeros(weights.shape[1])
    top = np.full(weights.shape[1], 10.0 * math.sqrt(reps_sq.max()))
    for _ in range(iters):
        mid = 0.5 * (lo + top)
        too_small = criterion(reps_sq, weights, mid) > 2.0
        lo = np.where(too_small, mid, lo)
        top = np.where(too_small, top, mid)
    return top


def bootstrap_support(kind, count=20_000, resamples=50):
    rng = substream(31, "roots", kind)
    x = {
        "binned-gaussian": lambda: rng.standard_normal(count),
        "binned-heavy": lambda: rng.standard_t(3, count),
        "binned-clipped": lambda: np.clip(2.0 * rng.standard_normal(count), -1.0, 1.0) + 0.3,
        "exact-three-point": lambda: rng.choice([-1.0, 0.5, 2.0], count),
        "exact-sparse": lambda: np.where(rng.random(count) < 1e-3, 40.0, 0.01),
    }[kind]()
    draw = _block_draw(count, substream(32, kind))[:resamples]
    _, squares, cells = _compress(x, draw.shape[1])  # the support every estimate solves
    return squares, _resample_counts(cells, draw).T


SUPPORTS = ("binned-gaussian", "binned-heavy", "binned-clipped",
            "exact-three-point", "exact-sparse")


def reference_compress(values, blocks):
    """The compression with a full sort of every sample: the reference for the
    prefix shortcut, which must give the same arrays.  Returns (reps, squares,
    counts, block counts); the block counts add one row at a time, each row
    to the block whose [b * len // blocks, (b + 1) * len // blocks) holds it."""
    block = np.searchsorted(np.arange(blocks) * len(values) // blocks,
                            np.arange(len(values)), side="right") - 1
    uniq, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    if len(uniq) <= BINS:
        cells = np.zeros((blocks, len(uniq)), dtype=np.int64)
        np.add.at(cells, (block, inverse), 1)
        return uniq, uniq * uniq, counts, cells
    lo, hi = float(uniq[0]), float(uniq[-1])
    idx = np.minimum(((values - lo) * (BINS / (hi - lo))).astype(np.int64), BINS - 1)
    cnt = np.bincount(idx, minlength=BINS)
    sums = np.bincount(idx, weights=values, minlength=BINS)
    squares = np.bincount(idx, weights=values * values, minlength=BINS)
    cells = np.zeros((blocks, BINS), dtype=np.int64)
    np.add.at(cells, (block, idx), 1)
    mask = cnt > 0
    return sums[mask] / cnt[mask], squares[mask] / cnt[mask], cnt[mask], cells[:, mask]


class TestCompress:
    def values(self, distinct, count=5000, seed=0):
        rng = substream(35, "compress", distinct, seed)
        levels = rng.standard_normal(distinct)
        return levels[np.arange(count) % distinct][rng.permutation(count)]

    def assert_matches_reference(self, values):
        reps, squares, cells = _compress(values, BOOT_BLOCKS)
        # the totals are the block counts' column sums, and each block's own
        # counts are checked too
        arrays = (reps, squares, cells.sum(axis=0), cells)
        for got, want in zip(arrays, reference_compress(values, BOOT_BLOCKS)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("distinct", (1, 2, BINS, BINS + 1, 640))
    def test_matches_full_sort(self, distinct):
        values = self.values(distinct)
        reps, squares, cells = _compress(values, BOOT_BLOCKS)
        counts = cells.sum(axis=0)
        assert len(reps) <= BINS and counts.sum() == len(values)
        self.assert_matches_reference(values)

    def test_exact_support_at_bins_distinct(self):
        values = self.values(BINS)
        reps, squares, _ = _compress(values, BOOT_BLOCKS)
        np.testing.assert_array_equal(reps, np.unique(values))
        np.testing.assert_array_equal(squares, reps * reps)

    def test_new_values_after_the_prefix(self):
        prefix = 2 * BINS + 2
        # the prefix holds BINS + 1 distinct values and the tail widens the range
        head = self.values(BINS + 1, count=prefix)
        tail = np.concatenate([self.values(3, count=100), [-50.0, 50.0]])
        self.assert_matches_reference(np.concatenate([head, tail]))
        # the prefix holds BINS distinct values and the tail adds more
        head = self.values(BINS, count=prefix)
        self.assert_matches_reference(np.concatenate([head, self.values(5, count=100)]))
        # the prefix holds three values and the tail adds a fourth
        head = self.values(3, count=prefix)
        self.assert_matches_reference(np.concatenate([head, [7.0], head[:50]]))

    def test_binned_squares_are_bin_means(self):
        values = substream(36, "compress").standard_normal(10_000)
        reps, squares, cells = _compress(values, BOOT_BLOCKS)
        counts = cells.sum(axis=0)
        assert np.all(squares >= reps * reps)  # Jensen within each bin
        assert squares @ counts == pytest.approx(values @ values, rel=1e-12)


class TestOrliczRoots:
    @pytest.mark.parametrize("kind", SUPPORTS)
    def test_matches_reference_bisection(self, kind):
        reps, weights = bootstrap_support(kind)
        roots = _orlicz_roots(reps, weights)
        reference = reference_roots(reps, weights)
        np.testing.assert_allclose(roots, reference, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("kind", SUPPORTS)
    def test_criterion_at_most_two(self, kind):
        reps, weights = bootstrap_support(kind)
        roots = _orlicz_roots(reps, weights)
        assert np.all(criterion(reps, weights, roots) <= 2.0)

    @pytest.mark.parametrize("s", (1e-6, 1.0, 3.5, 1e4))
    def test_single_point_support(self, s):
        roots = _orlicz_roots(np.array([s]), np.full((1, 7), 500.0))
        np.testing.assert_allclose(roots, math.sqrt(s / math.log(2.0)), rtol=1e-12)

    def test_all_weight_at_zero_gives_zero(self):
        reps = np.array([0.0, 4.0])
        weights = np.array([[100.0, 90.0], [0.0, 10.0]])  # row 0 draws only s = 0
        roots = _orlicz_roots(reps, weights)
        assert roots[0] == 0.0
        assert roots[1] > 0.0
        assert _orlicz_roots(np.array([0.0]), np.full((1, 3), 100.0)).tolist() == [0.0] * 3

    def test_samples_solved_together_match_solved_alone(self):
        # a scan's numbers must not depend on which directions share a block
        rng = substream(33, "together")
        samples = [rng.standard_normal(5000), np.sign(rng.standard_normal(5000)),
                   np.zeros(5000), rng.uniform(-1.0, 1.0, 5000)]
        supports = [_draw_support(x, _block_draw(5000, substream(34, i)))
                    for i, x in enumerate(samples)]
        together = _orlicz_estimate(supports)
        for i, support in enumerate(supports):
            alone = _orlicz_estimate([support])
            np.testing.assert_array_equal(together[i], alone[0])


class TestRootGroups:
    """A block's supports are solved in groups of at most ROOT_GROUP_CELLS
    padded cells; no estimate depends on where the groups end."""

    def supports(self):
        rng = substream(35, "groups")
        samples = [np.sign(rng.standard_normal(5000)),              # two points
                   rng.integers(-20, 21, 5000).astype(float),        # 41 exact values
                   np.zeros(5000),                                   # None
                   rng.uniform(-2.0, 2.0, 5000),                     # 256 bins
                   np.clip(rng.uniform(-1.5, 1.5, 5000), -1.0, 1.0), # 256 bins
                   np.sign(rng.standard_normal(5000)),
                   rng.integers(0, 3, 5000) - 0.5]                   # 3 exact values
        supports = [_draw_support(x, _block_draw(5000, substream(36, i)))
                    for i, x in enumerate(samples)]
        assert [None if s is None else len(s[1]) for s in supports] == [
            2, 41, None, BINS, BINS, 2, 3]
        return supports

    def solves(self, monkeypatch, supports):
        calls = []

        def counted(reps_sq, weights):
            calls.append(reps_sq.shape[1])
            return _orlicz_roots(reps_sq, weights)

        monkeypatch.setattr(psi2_estimation, "_orlicz_roots", counted)
        return _orlicz_estimate(supports), calls

    def test_estimates_do_not_depend_on_the_groups(self, monkeypatch):
        supports = self.supports()
        default, calls = self.solves(monkeypatch, supports)
        # the default budget ends groups inside the list: a 256-bin support
        # solves alone, and the narrow ones around them share a solve
        assert calls == [2, 1, 1, 2]
        for budget, groups in ((1, [1] * 6), (2**40, [6])):
            monkeypatch.setattr(psi2_estimation, "ROOT_GROUP_CELLS", budget)
            estimates, calls = self.solves(monkeypatch, supports)
            assert calls == groups
            assert np.array_equal(estimates, default)

    @pytest.mark.parametrize("threads", (1, 3))
    def test_scan_does_not_depend_on_the_groups(self, monkeypatch, threads):
        # two blocks: the first's two-point canonical and few-point all-ones
        # directions share a default group, its random ones solve alone
        y = np.sign(substream(16, "groups-scan").standard_normal((2 * 10**4, 8)))
        grid = [0.25, 0.5, 1.0]
        (default,) = scan_directions(y, 24, 5, 0, lambda_grid=grid, threads=1)
        monkeypatch.setattr(psi2_estimation, "ROOT_GROUP_CELLS", 1)
        (alone,) = scan_directions(y, 24, 5, 0, lambda_grid=grid, threads=threads)
        assert (alone.value, alone.ci_low, alone.ci_high, alone.mgf_sigma_max) == (
            default.value, default.ci_low, default.ci_high, default.mgf_sigma_max)
        np.testing.assert_array_equal(alone.argmax_direction, default.argmax_direction)


class TestMgfSigma:
    def test_gaussian_sigma_near_one(self):
        x = substream(1, "mgf-gauss").standard_normal(10**6)
        sigma = fitted_sigma(x, [0.25, 0.5, 1.0, 2.0])
        assert abs(sigma - 1.0) <= 0.05

    def test_rademacher_dominated_by_gaussian(self):
        # cosh(lambda) <= exp(lambda^2/2) with a growing analytic margin
        sigma = fitted_sigma(rademacher(10**6, seed=2), [0.5, 1.0, 2.0])
        assert sigma <= 1.0

    def test_zero_sample(self):
        sigma = fitted_sigma(np.zeros(5000), [0.5, 1.0])
        assert sigma == 0.0

    def test_grid_symmetrized(self):
        x = substream(3, "mgf-sym").standard_normal(2000)
        assert fitted_sigma(x, [1.0, 0.5]) == fitted_sigma(x, [-1.0, -0.5, 0.5, 1.0])

    def test_overflow_guard(self):
        x = np.concatenate([np.zeros(1999), [20.0]])
        with pytest.raises(GridTooWide):
            fitted_sigma(x, [2.0])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValidationError):
            fitted_sigma(rademacher(2000), [0.0])

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_sample_rejected(self, bad):
        x = rademacher(2000)
        x[7] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            fitted_sigma(x, [0.5, 1.0])
        with pytest.raises(ValidationError, match="non-finite"):
            fitted_sigma(np.full(2000, bad), [0.5, 1.0])


class TestDomination:
    """Orlicz and MGF-fit estimates agree up to a universal factor."""

    @pytest.mark.parametrize("dist", ("gaussian", "rademacher", "uniform", "clipped"))
    def test_ratio_within_factor_four(self, dist):
        rng = substream(17, "domination", dist)
        x = {
            "gaussian": lambda: rng.standard_normal(10**5),
            "rademacher": lambda: np.where(rng.random(10**5) < 0.5, -1.0, 1.0),
            "uniform": lambda: rng.uniform(-1.0, 1.0, 10**5),
            "clipped": lambda: np.clip(rng.standard_normal(10**5), -2.0, 2.0),
        }[dist]()
        est = psi2_scalar(x, lambda_grid=[0.5, 1.0, 2.0])
        ratio = est.value / est.mgf_sigma_max
        assert 0.25 <= ratio <= 4.0


class TestPsi2Vector:
    """The vector norm: the scalar norm's maximum over the scanned directions."""

    def test_rademacher_coordinates_n16(self):
        y = np.where(substream(42, "vec-rad").random((10**5, 16)) < 0.5, -1.0, 1.0)
        (est,) = scan_directions(y, 16, 9, 0)
        assert 1.0 <= est.value <= 1.6
        assert est.n_directions == 16 + 1 + 16

    def test_rank_one_sgn_attains_sqrt_n(self):
        cov = CovarianceSpec.rank_one_ones(16)
        y = np.sign(sample_gaussian(cov, 10**5, seed=7, stream_id=0))
        (est,) = scan_directions(y, 16, 7, 0)
        assert est.value == pytest.approx(math.sqrt(16.0 / math.log(2.0)), rel=1e-6)
        ones = np.ones(16) / 4.0
        assert abs(abs(est.argmax_direction @ ones) - 1.0) <= 1e-9

    @pytest.mark.parametrize("n", (4, 16))
    def test_sign_image_needs_no_random_directions(self, n):
        # on +-(1, ..., 1) a unit v estimates |v.1| / sqrt(ln 2), so by
        # Cauchy-Schwarz no random direction beats the all-ones one, which
        # comes first among ties
        y = np.sign(sample_gaussian(CovarianceSpec.rank_one_ones(n), 10**4, seed=5,
                                    stream_id=0))
        (none,) = scan_directions(y, 0, 6, 1)
        (full,) = scan_directions(y, n, 6, 1)
        assert (none.value, none.ci_low, none.ci_high) == (full.value, full.ci_low,
                                                           full.ci_high)
        np.testing.assert_array_equal(none.argmax_direction, full.argmax_direction)
        np.testing.assert_array_equal(none.argmax_direction, np.ones(n) / math.sqrt(n))

    def test_zero_batch(self):
        (est,) = scan_directions(np.zeros((10**4, 4)), 6, 0, 0)
        assert (est.value, est.ci_low, est.ci_high) == (0.0, 0.0, 0.0)
        assert est.n_directions == 4 + 1 + 6
        np.testing.assert_array_equal(est.argmax_direction, np.eye(4)[0])

    def test_monotone_in_direction_budget(self):
        y = np.where(substream(8, "vec-mono").random((10**4, 8)) < 0.5, -1.0, 1.0)
        values = [scan_directions(y, budget, 11, 0)[0].value for budget in (8, 16, 32)]
        assert values[0] <= values[1] <= values[2]

    def test_thread_count_invariance(self):
        # several direction blocks, so the threads really share the scan
        y = np.clip(substream(14, "vec-threads").standard_normal((2 * 10**4, 8)), -1.5, 1.5)
        (one,) = scan_directions(y, 48, 5, 0, threads=1)
        (three,) = scan_directions(y, 48, 5, 0, threads=3)
        assert (one.value, one.ci_low, one.ci_high) == (three.value, three.ci_low, three.ci_high)
        np.testing.assert_array_equal(one.argmax_direction, three.argmax_direction)

    @pytest.mark.parametrize("side", ("left", "right"))
    def test_column_slice_scans_as_its_copy(self, side):
        # a block of a wider array is read in place: its canonical directions
        # are copied out of the view, the others multiplied by it
        x = sample_gaussian(CovarianceSpec.identity(12), 2 * 10**4, seed=3, stream_id=0)
        y = np.sign(x @ substream(3, "vec-slice").standard_normal((12, 12)).T)
        block = y[:, :5] if side == "left" else y[:, 5:]
        (view,) = scan_directions(block, 8, 2, 1, lambda_grid=[0.25, 0.5, 1.0], threads=2)
        (copy,) = scan_directions(block.copy(), 8, 2, 1, lambda_grid=[0.25, 0.5, 1.0],
                                  threads=2)
        assert (view.value, view.ci_low, view.ci_high, view.mgf_sigma_max) == (
            copy.value, copy.ci_low, copy.ci_high, copy.mgf_sigma_max)
        np.testing.assert_array_equal(view.argmax_direction, copy.argmax_direction)

    def test_peak_memory_is_about_one_block_projection(self):
        # the root solve runs in cache-sized groups, so a block's working set is
        # its projection and its supports, not six arrays of its resamples x bins
        rows, n = 5 * 10**4, 64
        y = np.clip(substream(17, "vec-memory").standard_normal((rows, n)), -1.0, 1.0)
        size = psi2_estimation.SCAN_BLOCK_BYTES // (8 * (rows + 6 * RESAMPLES * BINS))
        tracemalloc.start()  # it sees numpy's buffers
        try:
            scan_directions(y, 64, 1, 0, lambda_grid=[0.25, 0.5, 1.0], threads=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * size * rows * 8

    def test_deterministic_given_seed(self):
        y = np.where(substream(13, "vec-det").random((10**4, 4)) < 0.5, -1.0, 1.0)
        (a,) = scan_directions(y, 4, 3, 0)
        (b,) = scan_directions(y, 4, 3, 0)
        assert (a.value, a.ci_low, a.ci_high) == (b.value, b.ci_low, b.ci_high)
        np.testing.assert_array_equal(a.argmax_direction, b.argmax_direction)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_sample_rejected(self, bad):
        y = np.ones((2000, 3))
        y[11, 1] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            scan_directions(y, 2, 0, 0)

    @pytest.mark.parametrize("shape", ((2000,), (0, 3), (2000, 0), (10, 3, 2)))
    def test_not_a_two_dimensional_sample_rejected(self, shape):
        with pytest.raises(ValidationError, match="2-D"):
            scan_directions(np.ones(shape), 2, 0, 0)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValidationError, match="n_random"):
            scan_directions(np.ones((2000, 3)), -1, 0, 0)

    @pytest.mark.parametrize("parts", (
        (), (range(0),), (range(2, 1),), (range(0, 3, 2),), (range(-1, 2),),
        (range(1, 4),), (range(3), range(3, 3)), ([0, 1],), (slice(0, 2),), [range(3)],
        range(3)), ids=("no-part", "empty", "reversed", "step-2", "negative", "past-n",
                        "empty-second", "list-part", "slice-part", "list", "bare-range"))
    def test_bad_parts_rejected(self, parts):
        with pytest.raises(ValidationError, match="parts"):
            scan_directions(np.ones((2000, 3)), 2, 0, 0, parts=parts)


class TestProject:
    """A block of canonical directions is copied out of y, every other block is
    the product: on finite data each block has the product's bits."""

    @pytest.mark.parametrize("n", (5, 16, 64))
    @pytest.mark.parametrize("rows", (255, 4097))
    @pytest.mark.parametrize("kind", ("clamp", "sign"))
    def test_every_block_is_the_product(self, n, rows, kind):
        assert rows < PROJECT_TILE or rows % PROJECT_TILE
        x = substream(n, "project", rows).standard_normal((rows, n + 3))
        wide = np.clip(x, -1.5, 1.5) if kind == "clamp" else np.sign(x)
        dirs = direction_set(n, n, substream(n, "project-dirs"))
        # n falls inside a block of 3 and of 23 (or below it), on the edge of 1 and n
        for size in (1, 3, n, 23):
            blocks = [range(lo, min(lo + size, len(dirs)))
                      for lo in range(0, len(dirs), size)]
            for y in (wide[:, :n].copy(), wide[:, :n], wide[:, 3:]):
                for block in blocks:
                    assert np.array_equal(_project(y, dirs, block),
                                          dirs[block.start:block.stop] @ y.T)

    @pytest.fixture
    def three_per_block(self, monkeypatch):
        """Scans of 2000 rows project three directions per block: n = 8's
        canonical directions fill two blocks and share a third with all-ones."""
        monkeypatch.setattr(psi2_estimation, "SCAN_BLOCK_BYTES",
                            3 * 8 * (2000 + 6 * RESAMPLES * BINS))

    def test_thread_count_invariance(self, three_per_block):
        y = np.clip(substream(15, "project-threads").standard_normal((2000, 8)), -1.5, 1.5)
        (one,) = scan_directions(y, 8, 5, 0, lambda_grid=[0.25, 0.5, 1.0], threads=1)
        (three,) = scan_directions(y, 8, 5, 0, lambda_grid=[0.25, 0.5, 1.0], threads=3)
        assert (one.value, one.ci_low, one.ci_high, one.mgf_sigma_max) == (
            three.value, three.ci_low, three.ci_high, three.mgf_sigma_max)
        np.testing.assert_array_equal(one.argmax_direction, three.argmax_direction)

    @pytest.mark.parametrize("column", (4, 7))  # a copied block, the mixed block
    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_outside_the_first_block_rejected(self, three_per_block,
                                                         column, bad):
        # the pytest config turns a RuntimeWarning into an error
        y = np.ones((2000, 8))
        y[11, column] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            scan_directions(y, 2, 0, 0, threads=2)


class TestSharedDraw:
    def scan(self, y, **kwargs):
        (scan,) = scan_directions(y, 6, 3, 0, **kwargs)
        return scan

    def data(self):
        return np.clip(substream(37, "shared").standard_normal((20_000, 4)), -1.5, 1.5)

    def count_calls(self, monkeypatch):
        calls = {"_block_draw": 0, "_compress": 0, "_resample_counts": 0}
        for name in calls:
            original = getattr(psi2_estimation, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(psi2_estimation, name, counted)
        return calls

    def test_one_draw_per_scan_and_one_compression_per_direction(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        scan = self.scan(self.data(), lambda_grid=[0.25, 0.5, 1.0], threads=2)
        assert scan.n_directions == 4 + 1 + 6
        assert calls == {"_block_draw": 1, "_compress": 11, "_resample_counts": 11}

    def test_parts_share_one_draw_and_each_canonical_direction(self, monkeypatch):
        # n canonical directions once, then each part's all-ones and 6 random ones
        calls = self.count_calls(monkeypatch)
        scans = scan_directions(self.data(), 6, 3, 0, parts=(range(2), range(2, 4), range(4)),
                                lambda_grid=[0.25, 0.5, 1.0], threads=2)
        assert [scan.n_directions for scan in scans] == [2 + 7, 2 + 7, 4 + 7]
        assert calls == {"_block_draw": 1, "_compress": 4 + 3 * (1 + 6),
                         "_resample_counts": 4 + 3 * (1 + 6)}

    def test_one_compression_and_one_draw_per_scalar_estimate(self, monkeypatch):
        calls = self.count_calls(monkeypatch)
        est = psi2_scalar(self.data()[:, 0], lambda_grid=[0.25, 0.5, 1.0])
        assert est.mgf_sigma_max > 0.0
        assert calls == {"_block_draw": 1, "_compress": 1, "_resample_counts": 1}

    def test_uneven_blocks_give_each_resample_its_own_total(self):
        # 20,001 rows in 256 blocks of 78 or 79 rows: a resample's total is its
        # blocks' rows, and each root is the bisection on that total
        rows = 20_001
        x = np.clip(substream(38, "uneven").standard_normal(rows), -1.5, 1.5)
        _, squares, weights = _draw_support(x, _block_draw(rows, substream(39, "uneven")))
        totals = weights.sum(axis=1)
        assert len(np.unique(totals)) > 1 and np.all(np.abs(totals - rows) < BOOT_BLOCKS)
        roots = _orlicz_roots(squares, weights.T)
        np.testing.assert_allclose(roots, reference_roots(squares, weights.T),
                                   rtol=1e-12, atol=0.0)
        assert np.all(criterion(squares, weights.T, roots) <= 2.0)

    def test_fewer_rows_than_blocks(self, monkeypatch):
        # 100 rows give 100 one-row blocks, the row bootstrap: no resample is empty
        totals = []

        def recorded(cells, draw):
            weights = _resample_counts(cells, draw)
            totals.append(weights.sum(axis=1))
            return weights

        monkeypatch.setattr(psi2_estimation, "_resample_counts", recorded)
        y = self.data()[:100]
        scan = self.scan(y, lambda_grid=[0.25, 0.5, 1.0])
        assert len(totals) == scan.n_directions
        assert np.all(np.concatenate(totals) == 100.0)
        assert all(math.isfinite(v) and v > 0.0 for v in (
            scan.value, scan.ci_low, scan.ci_high, scan.mgf_sigma_max))

    def test_direction_estimates_do_not_depend_on_the_budget(self, monkeypatch):
        # one direction per block, so each projection has the same bits at any
        # budget; the shared draw then gives each direction the same estimates
        rows = 2000
        monkeypatch.setattr(psi2_estimation, "SCAN_BLOCK_BYTES",
                            8 * (rows + 6 * RESAMPLES * BINS))
        estimates, sigmas = [], []
        fit = psi2_estimation.mgf_sigma

        def orlicz(supports):
            estimates.append(_orlicz_estimate(supports))
            return estimates[-1]

        def mgf(x, lambda_grid, support):
            sigmas.append(fit(x, lambda_grid, support))
            return sigmas[-1]

        monkeypatch.setattr(psi2_estimation, "_orlicz_estimate", orlicz)
        monkeypatch.setattr(psi2_estimation, "mgf_sigma", mgf)
        y = self.data()[:rows]
        per_budget = []
        for budget in (8, 32):
            estimates.clear()
            sigmas.clear()
            scan_directions(y, budget, 3, 0, lambda_grid=[0.25, 0.5, 1.0], threads=1)
            per_budget.append((np.concatenate(estimates), list(sigmas)))
        first = 4 + 1 + 8
        np.testing.assert_array_equal(per_budget[0][0], per_budget[1][0][:first])
        assert per_budget[0][1] == per_budget[1][1][:first]

    def test_scalar_estimate_independent_of_mgf_fit(self):
        x = self.data()[:, 0]
        plain = psi2_scalar(x, seed=4)
        fitted = psi2_scalar(x, seed=4, lambda_grid=[0.25, 0.5, 1.0])
        assert (plain.value, plain.ci_low, plain.ci_high) == (
            fitted.value, fitted.ci_low, fitted.ci_high)
        assert plain.mgf_sigma_max is None and fitted.mgf_sigma_max > 0.0

    def test_orlicz_estimate_independent_of_mgf_fit(self):
        y = self.data()
        plain = self.scan(y)
        fitted = self.scan(y, lambda_grid=[0.25, 0.5, 1.0])
        assert (plain.value, plain.ci_low, plain.ci_high) == (
            fitted.value, fitted.ci_low, fitted.ci_high)
        assert plain.mgf_sigma_max is None and fitted.mgf_sigma_max > 0.0
        assert plain.n_samples == fitted.n_samples == 20_000


class TestDirectionSet:
    def test_contains_canonical_and_ones(self):
        dirs = direction_set(4, 3, substream(0, "ds"))
        np.testing.assert_array_equal(dirs[:4], np.eye(4))
        np.testing.assert_allclose(dirs[4], np.ones(4) / 2.0)
        assert dirs.shape == (8, 4)

    def test_prefix_property(self):
        small = direction_set(4, 3, substream(1, "ds"))
        large = direction_set(4, 6, substream(1, "ds"))
        np.testing.assert_array_equal(large[: small.shape[0]], small)

    def test_random_rows_are_unit(self):
        dirs = direction_set(5, 10, substream(2, "ds"))
        np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)


class TestParts:
    """A scan's parts share its direction stream and its block draw."""

    def data(self, n=16, rows=20_000):
        w = substream(22, "parts-W").standard_normal((n, n))
        x = sample_gaussian(CovarianceSpec.identity(n), rows, seed=8, stream_id=0)
        return np.sign(x @ w.T)

    def test_first_part_scans_as_its_columns(self):
        # the first part draws the first random directions of the stream
        y = self.data()
        grid = [0.25, 0.5, 1.0]
        first = scan_directions(y, 8, 4, 2, parts=(range(8), range(8, 16), range(16)),
                                lambda_grid=grid, threads=2)[0]
        (alone,) = scan_directions(y[:, :8], 8, 4, 2, lambda_grid=grid, threads=2)
        assert (first.value, first.ci_low, first.ci_high, first.mgf_sigma_max) == (
            alone.value, alone.ci_low, alone.ci_high, alone.mgf_sigma_max)
        assert first.n_directions == alone.n_directions == 8 + 1 + 8
        np.testing.assert_array_equal(first.argmax_direction, alone.argmax_direction)

    def test_thread_count_invariance(self):
        y = self.data()
        parts = (range(8), range(8, 16), range(16))
        one = scan_directions(y, 24, 5, 1, parts=parts, lambda_grid=[0.25, 0.5, 1.0],
                              threads=1)
        three = scan_directions(y, 24, 5, 1, parts=parts, lambda_grid=[0.25, 0.5, 1.0],
                                threads=3)
        for a, b in zip(one, three):
            assert (a.value, a.ci_low, a.ci_high, a.mgf_sigma_max) == (
                b.value, b.ci_low, b.ci_high, b.mgf_sigma_max)
            np.testing.assert_array_equal(a.argmax_direction, b.argmax_direction)

    def test_argmax_direction_is_as_wide_as_its_part(self):
        scans = scan_directions(self.data(), 4, 6, 0, parts=(range(3, 7), range(16)))
        assert [len(scan.argmax_direction) for scan in scans] == [4, 16]
        assert [scan.n_directions for scan in scans] == [4 + 1 + 4, 16 + 1 + 4]


class TestTriangleCombine:
    def test_blocks_dominate_full_vector(self):
        # triangle-inequality oracle on a fixed sign-quantized map
        n = 8
        w = substream(21, "tri-W").standard_normal((n, n))
        x = sample_gaussian(CovarianceSpec.identity(n), 5 * 10**4, seed=6, stream_id=0)
        y = np.sign(x @ w.T)
        b1, b2, full = scan_directions(y, n, 6, 1, parts=(range(n // 2), range(n // 2, n),
                                                          range(n)))
        slack = (b1.ci_high - b1.value) + (b2.ci_high - b2.value) + (full.value - full.ci_low)
        assert full.value <= b1.value + b2.value + slack + 1e-9
