import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from subgauss.errors import SingularCovariance, ValidationError
from subgauss.experiments import make_conditioned_covariance
from subgauss.gaussian_core import (
    CHUNK_SIZE,
    SAMPLE_TILE,
    CovarianceSpec,
    _malloc_trim,
    condition_number,
    sample_gaussian,
    subseed,
    substream,
)
from subgauss.nonlinearity import get_map


def wishart_spec(m, n, seed=0):
    w = substream(seed, "test-wishart").standard_normal((m, n))
    return CovarianceSpec.from_matrix(w @ w.T)


class TestCovarianceSpec:
    def test_eigenvalues_nonincreasing(self):
        cov = wishart_spec(8, 16)
        assert np.all(np.diff(cov.eigenvalues) <= 0)

    def test_decomposition_matches_matrix(self):
        cov = wishart_spec(8, 16)
        recon = (cov.eigenvectors * cov.eigenvalues) @ cov.eigenvectors.T
        assert np.max(np.abs(cov.matrix - recon)) <= 1e-8

    def test_asymmetric_rejected(self):
        m = np.eye(3)
        m[0, 1] = 1e-6
        with pytest.raises(ValidationError, match="asymmetry"):
            CovarianceSpec.from_matrix(m)

    def test_negative_definite_rejected(self):
        with pytest.raises(ValidationError, match="PSD"):
            CovarianceSpec.from_matrix(-np.eye(3))

    def test_small_negative_eigenvalues_clamped(self):
        m = np.eye(2) * 1e-12 - 1e-11 * np.ones((2, 2))
        cov = CovarianceSpec.from_matrix(m)
        assert cov.eigenvalues[-1] >= 0.0

    def test_diagonal_constructor(self):
        cov = CovarianceSpec.from_matrix(np.diag([1.0, 4.0]))
        np.testing.assert_array_equal(cov.eigenvalues, [4.0, 1.0])
        np.testing.assert_array_equal(np.abs(cov.eigenvectors), [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("shape", ((3,), (2, 3), (2, 2, 2)))
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValidationError, match="square"):
            CovarianceSpec.from_matrix(np.zeros(shape))

    def test_from_factors_sorts_eigenvalues(self):
        t = 0.3
        q = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
        cov = CovarianceSpec.from_factors(q, [1.0, 3.0])
        np.testing.assert_array_equal(cov.eigenvalues, [3.0, 1.0])
        np.testing.assert_array_equal(cov.eigenvectors, q[:, ::-1])
        np.testing.assert_allclose(cov.matrix, (q * [1.0, 3.0]) @ q.T, atol=1e-15)

    def test_from_factors_agrees_with_from_matrix(self):
        base = wishart_spec(6, 12, seed=4)
        cov = CovarianceSpec.from_factors(base.eigenvectors, base.eigenvalues)
        np.testing.assert_allclose(cov.matrix, base.matrix, atol=1e-10)
        np.testing.assert_array_equal(cov.eigenvalues, base.eigenvalues)

    def test_non_orthogonal_factors_rejected(self):
        with pytest.raises(ValidationError, match="orthogonality"):
            CovarianceSpec.from_factors([[1.0, 0.5], [0.0, 1.0]], [1.0, 2.0])

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            CovarianceSpec.from_matrix([[bad, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_factors_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            CovarianceSpec.from_factors(np.eye(2), [bad, 1.0])
        with pytest.raises(ValidationError, match="finite"):
            CovarianceSpec.from_factors([[bad, 0.0], [0.0, 1.0]], [1.0, 1.0])

    def test_large_matrix_accepted(self):
        # entries near 1e8: absolute residuals near 1e-7 are rounding alone
        cov = wishart_spec(64, 128, seed=8)
        assert CovarianceSpec.from_matrix(1e6 * cov.matrix).dim == 64

    def test_large_factors_accepted(self):
        q = np.linalg.qr(substream(9, "large-factors").standard_normal((64, 64)))[0]
        cov = CovarianceSpec.from_factors(q, 1e8 * np.geomspace(16.0, 1.0, 64))
        assert cov.eigenvalues[0] == 1.6e9

    @pytest.mark.parametrize("c", (1e-6, 1e6))
    def test_sampling_factor_scales(self, c):
        base = wishart_spec(64, 128, seed=8)
        f0 = base.sampling_factor
        f = CovarianceSpec.from_matrix(c * base.matrix).sampling_factor
        f = f * np.sign(np.sum(f * f0, axis=0))  # eigenvector signs are arbitrary
        np.testing.assert_allclose(f, np.sqrt(c) * f0, rtol=0,
                                   atol=1e-9 * np.sqrt(c) * np.abs(f0).max())

    def test_low_rank_wishart(self):
        # W W^T of an 8 x 3 W has rank 3: singular, with a 3-column factor
        w = substream(5, "low-rank").standard_normal((8, 3))
        cov = CovarianceSpec.from_matrix(w @ w.T)
        assert cov.dim == 8
        assert cov.eigenvalues[-1] <= 1e-12 * cov.eigenvalues[0]
        assert cov.sampling_factor.shape == (8, 3)

    @pytest.mark.parametrize("make, singular", [
        (lambda: CovarianceSpec.identity(4), False),
        (lambda: CovarianceSpec.from_matrix(np.diag([1e-3, 1.0])), False),
        (lambda: CovarianceSpec.rank_one_ones(4), True),
        (lambda: CovarianceSpec.from_matrix(np.zeros((3, 3))), True),
    ], ids=("identity", "diagonal", "rank-one", "zero"))
    def test_is_singular(self, make, singular):
        matrix = make().matrix
        if singular:
            with pytest.raises(SingularCovariance):
                condition_number(matrix)
        else:
            assert np.isfinite(condition_number(matrix))

    @pytest.mark.parametrize("n", (2, 16, 64, 256))
    def test_identity_matrix_is_exact(self, n):
        # built from its factors, whose product is a permutation's: exact
        np.testing.assert_array_equal(CovarianceSpec.identity(n).matrix, np.eye(n))

    def test_matrix_is_immutable(self):
        cov = CovarianceSpec.identity(3)
        with pytest.raises(ValueError):
            cov.matrix[0, 0] = 2.0


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(3)) == 1.0

    def test_diagonal(self):
        assert condition_number(np.diag([1.0, 4.0])) == pytest.approx(4.0)

    def test_rank_one_singular(self):
        with pytest.raises(SingularCovariance):
            condition_number(np.ones((2, 2)))

    @given(c=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, c):
        base = wishart_spec(6, 12, seed=3).matrix
        k0 = condition_number(base)
        k1 = condition_number(c * base)
        assert abs(k1 - k0) <= 1e-9 * k0

    @pytest.mark.parametrize("shape", ((3,), (2, 3), (2, 2, 2)))
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValidationError, match="square"):
            condition_number(np.zeros(shape))

    def test_asymmetric_rejected(self):
        m = np.eye(3)
        m[0, 1] = 1e-6
        with pytest.raises(ValidationError, match="asymmetry"):
            condition_number(m)

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            condition_number(np.diag([bad, 1.0]))


class TestSampleGaussian:
    def test_identity_empirical_covariance(self):
        # law-of-large-numbers oracle at m = 1e5
        x = sample_gaussian(CovarianceSpec.identity(8), 10**5, seed=1, stream_id=0)
        emp = x.T @ x / x.shape[0]
        assert np.max(np.abs(emp - np.eye(8))) < 0.05

    def test_rank_one_rows_constant(self):
        x = sample_gaussian(CovarianceSpec.rank_one_ones(16), 500, seed=2, stream_id=0)
        spread = x.max(axis=1) - x.min(axis=1)
        assert spread.max() <= 1e-12

    def test_zero_covariance_samples_zeros(self):
        # a zero covariance has a zero-width sampling factor
        cov = CovarianceSpec.from_matrix(np.zeros((5, 5)))
        assert cov.sampling_factor.shape == (5, 0)
        x = sample_gaussian(cov, 2000, seed=1, stream_id=0)
        assert np.max(np.abs(x)) == 0.0

    def test_diagonal_empirical_covariance(self):
        cov = CovarianceSpec.from_matrix(np.diag([1.0, 4.0]))
        x = sample_gaussian(cov, 10**5, seed=2, stream_id=0)
        emp = x.T @ x / x.shape[0]
        assert np.max(np.abs(emp - np.diag([1.0, 4.0]))) < 0.1

    def test_same_law_as_direct_sampling(self):
        # two-sample KS oracle, coordinate-wise, against numpy's own sampler
        cov = wishart_spec(4, 4, seed=7)
        x = sample_gaussian(cov, 10**5, seed=3, stream_id=0)
        direct = np.random.default_rng(4).multivariate_normal(np.zeros(4), cov.matrix, 10**5)
        for j in range(4):
            assert stats.ks_2samp(x[:, j], direct[:, j]).statistic < 0.02

    def test_streams_are_uncorrelated(self):
        cov = wishart_spec(3, 3, seed=8)
        a = sample_gaussian(cov, 2000, seed=5, stream_id=0)
        b = sample_gaussian(cov, 2000, seed=5, stream_id=1)
        assert abs(np.corrcoef(a[:, 0], b[:, 0])[0, 1]) < 0.1

    def test_determinism(self):
        cov = wishart_spec(4, 8, seed=5)
        b1 = sample_gaussian(cov, 5000, seed=9, stream_id=3)
        b2 = sample_gaussian(cov, 5000, seed=9, stream_id=3)
        np.testing.assert_array_equal(b1, b2)

    def test_stream_separation(self):
        cov = CovarianceSpec.identity(4)
        b1 = sample_gaussian(cov, 1000, seed=9, stream_id=0)
        b2 = sample_gaussian(cov, 1000, seed=9, stream_id=1)
        assert not np.array_equal(b1, b2)

    def test_thread_count_invariance(self):
        cov = wishart_spec(6, 12, seed=6)
        count = 3 * CHUNK_SIZE + 17  # several chunks plus a ragged tail
        single = sample_gaussian(cov, count, seed=4, stream_id=1, threads=1)
        multi = sample_gaussian(cov, count, seed=4, stream_id=1, threads=4)
        np.testing.assert_array_equal(single, multi)

    def test_chunk_concatenation_matches(self):
        # the first CHUNK_SIZE rows of a long batch equal a one-chunk batch
        cov = CovarianceSpec.identity(3)
        long = sample_gaussian(cov, CHUNK_SIZE + 100, seed=8, stream_id=2)
        short = sample_gaussian(cov, CHUNK_SIZE, seed=8, stream_id=2)
        np.testing.assert_array_equal(long[:CHUNK_SIZE], short)

    def test_count_validation(self):
        with pytest.raises(ValidationError):
            sample_gaussian(CovarianceSpec.identity(2), 0, seed=0, stream_id=0)


W_ROWS = substream(12, "test-phi-W").standard_normal((6, 6))


class TestMappedSample:
    """sample_gaussian(..., phi=f) maps each chunk as it is drawn."""

    @pytest.mark.parametrize("threads", (1, 3))
    @pytest.mark.parametrize(
        "phi", (np.sign, get_map("clamp"), lambda x: np.sign(x @ W_ROWS.T)),
        ids=("sign", "clamp", "sign_of_Wx"))
    def test_equals_the_map_of_the_sample(self, phi, threads):
        count = CHUNK_SIZE + 100  # two chunks, the second ragged
        for cov in (wishart_spec(6, 12, seed=3), CovarianceSpec.identity(6)):
            mapped = sample_gaussian(cov, count, 5, 2, threads=threads, phi=phi)
            plain = sample_gaussian(cov, count, 5, 2, threads=threads)
            np.testing.assert_array_equal(mapped, phi(plain))
            assert not mapped.flags.writeable


class TestTiledChunks:
    """A chunk is drawn, multiplied or gathered, mapped and stored into the
    column-major sample a tile at a time.  It has the bits of the chunk's
    whole draw and of its whole-chunk gather and map; a dense factor's
    product, whose bits can depend on how many rows it takes, has those of
    its SAMPLE_TILE-row products."""

    @pytest.mark.parametrize("threads", (1, 2))
    @pytest.mark.parametrize("phi", (None, get_map("clamp")), ids=("plain", "clamp"))
    @pytest.mark.parametrize("make, product_rows", [
        (lambda: CovarianceSpec.identity(16), CHUNK_SIZE),
        (lambda: CovarianceSpec.rank_one_ones(16), CHUNK_SIZE),
        (lambda: wishart_spec(17, 17, seed=4), SAMPLE_TILE),   # a dense product of odd width
        (lambda: wishart_spec(17, 5, seed=4), SAMPLE_TILE),    # dense and narrower than a row
        (lambda: CovarianceSpec.from_matrix(np.zeros((4, 4))), CHUNK_SIZE),
    ], ids=("identity", "rank-one", "dense", "low-rank", "zero"))
    def test_equals_the_whole_chunk_product(self, make, product_rows, phi, threads):
        cov = make()
        count = 2 * CHUNK_SIZE + SAMPLE_TILE + 17  # the last chunk and tile ragged
        width = cov.sampling_factor.shape[1]
        chunks = []
        for c, lo in enumerate(range(0, count, CHUNK_SIZE)):
            z = substream(6, 3, 0, c).standard_normal((min(CHUNK_SIZE, count - lo), width))
            x = np.concatenate([z[a:a + product_rows] @ cov.sampling_factor.T
                                for a in range(0, len(z), product_rows)])
            chunks.append(x if phi is None else phi(x))
        y = sample_gaussian(cov, count, 6, 3, threads=threads, phi=phi)
        assert y.flags.f_contiguous and not y.flags.writeable
        assert np.array_equal(y.view(np.uint64), np.concatenate(chunks).view(np.uint64))

    def assert_no_chunk_buffer(self, cov, threads):
        import tracemalloc

        cov.gather  # noqa: B018  (built before the trace)
        chunk_bytes = CHUNK_SIZE * cov.dim * 8
        tracemalloc.start()
        try:
            y = sample_gaussian(cov, 4 * CHUNK_SIZE, 1, 0, threads=threads, phi=get_map("clamp"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - y.nbytes < chunk_bytes / 2

    @pytest.mark.parametrize("threads", (1, 2))
    def test_a_gather_holds_no_chunk_buffer(self, threads):
        self.assert_no_chunk_buffer(CovarianceSpec.identity(256), threads)

    @pytest.mark.parametrize("threads", (1, 2))
    def test_a_dense_product_holds_no_chunk_buffer(self, threads):
        # the theorem study's kappa = 16 covariance at n = 256
        cov = make_conditioned_covariance(256, 16.0, 1)
        assert cov.gather is None
        self.assert_no_chunk_buffer(cov, threads)

    def test_malloc_trim_is_callable(self):
        assert _malloc_trim(0) in (0, 1)


class TestCenteringMap:
    """A map that subtracts a mean draws the centered image, with the bits of
    the image less the mean."""

    @pytest.mark.parametrize("threads", (1, 2, 3))
    @pytest.mark.parametrize("count", (
        1001,                    # one chunk
        2 * CHUNK_SIZE + 100,    # the half inside a chunk
        2 * 3 * CHUNK_SIZE,      # the half on a chunk boundary
        3 * CHUNK_SIZE + 17,     # odd
    ), ids=("one-chunk", "half-inside-a-chunk", "half-on-a-boundary", "odd"))
    @pytest.mark.parametrize("phi", (np.sign, get_map("clamp")), ids=("sgn", "clamp"))
    def test_equals_the_image_less_the_mean(self, phi, count, threads):
        # a mean taken from an independent half; clamp's sums are inexact,
        # and a dense factor's product must see whole chunks
        for cov in (CovarianceSpec.identity(256), wishart_spec(16, 32, seed=3)):
            half = count // 2
            m = sample_gaussian(cov, half, 5, 9, threads=threads, phi=phi).mean(axis=0)
            y = sample_gaussian(cov, count - half, 5, 2, threads=threads, phi=phi)
            centered = sample_gaussian(cov, count - half, 5, 2, threads=threads,
                                       phi=lambda x: phi(x) - m)
            assert np.array_equal(centered.view(np.uint64), (y - m).view(np.uint64))
            assert not centered.flags.writeable


# the one case whose sampling factor has more than one nonzero in a row
DENSE_FACTOR = lambda n: wishart_spec(n, n, seed=13)  # noqa: E731


class TestFactorProduct:
    """A gather is bit-identical to the dense z @ factor.T."""

    @pytest.mark.parametrize("make, n", [
        (CovarianceSpec.identity, 16), (CovarianceSpec.identity, 256),
        (CovarianceSpec.rank_one_ones, 16), (CovarianceSpec.rank_one_ones, 64),
        (CovarianceSpec.rank_one_ones, 256),
        (lambda n: CovarianceSpec.from_matrix(np.diag(np.arange(1.0, n + 1.0))), 16),
        (DENSE_FACTOR, 16),
    ])
    def test_matches_dense_product(self, make, n):
        cov = make(n)
        assert (cov.gather is None) == (make is DENSE_FACTOR)
        if cov.gather is None:
            return
        cols, scale = cov.gather
        width = cov.sampling_factor.shape[1]
        z = substream(14, "factor-product", n).standard_normal((CHUNK_SIZE, width))
        x = np.take(z, cols, axis=1) * scale
        np.testing.assert_array_equal(x, z @ cov.sampling_factor.T)
        assert x.flags.c_contiguous  # row tiles are scaled, mapped, stored

    @pytest.mark.parametrize("make", [
        lambda: CovarianceSpec.identity(8),
        lambda: CovarianceSpec.rank_one_ones(8),
        lambda: CovarianceSpec.from_matrix(np.diag(np.arange(1.0, 9.0))),
        lambda: wishart_spec(8, 8, seed=11),
        lambda: CovarianceSpec.from_matrix(np.zeros((8, 8))),
    ], ids=("identity", "rank-one", "diagonal", "wishart", "zero"))
    def test_factor_reconstructs_matrix(self, make):
        cov = make()
        f = cov.sampling_factor
        np.testing.assert_allclose(f @ f.T, cov.matrix, atol=1e-10 * max(cov.eigenvalues[0], 1.0))

    def test_rank_one_factor_is_one_column(self):
        assert CovarianceSpec.rank_one_ones(64).sampling_factor.shape == (64, 1)

    def test_identity_factor_is_a_permutation(self):
        # tied eigenvalues are reordered, so the factor is not eye(n)
        factor = CovarianceSpec.identity(16).sampling_factor
        np.testing.assert_array_equal(np.sort(factor, axis=1)[:, -1], np.ones(16))
        np.testing.assert_array_equal(factor.sum(axis=0), np.ones(16))


class TestSampledArrays:
    def test_sampled_data_is_read_only(self):
        x = sample_gaussian(CovarianceSpec.identity(3), 100, seed=1, stream_id=0)
        assert not x.flags.writeable


class TestSubstream:
    def test_same_key_same_draws(self):
        np.testing.assert_array_equal(substream(3, "a", 1).standard_normal(8),
                                      substream(3, "a", 1).standard_normal(8))

    @pytest.mark.parametrize("other", [(4, "a", 1), (3, "b", 1), (3, "a", 2), (3, "a")],
                             ids=("seed", "label", "index", "shorter"))
    def test_each_key_part_changes_the_draws(self, other):
        base = substream(3, "a", 1).standard_normal(8)
        assert not np.array_equal(base, substream(*other).standard_normal(8))

    def test_subseed_is_stable_and_keyed(self):
        assert subseed(3, "a") == subseed(3, "a")
        assert subseed(3, "a") != subseed(3, "b")
        assert 0 <= subseed(3, "a") < 2**64
