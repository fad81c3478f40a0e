import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from subgauss.errors import SingularCovariance, ValidationError
from subgauss.gaussian_core import (
    CHUNK_SIZE,
    CovarianceSpec,
    condition_number,
    sample_centered_half,
    sample_gaussian,
    split_covariance,
    substream,
)
from subgauss.nonlinearity import get_map


def wishart_spec(m, n, seed=0):
    w = substream(seed, "test-wishart").standard_normal((m, n))
    return CovarianceSpec.wishart_of(w)


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
        assert cov.lambda_min >= 0.0

    def test_diagonal_constructor(self):
        cov = CovarianceSpec.diagonal([1.0, 4.0])
        np.testing.assert_array_equal(cov.eigenvalues, [4.0, 1.0])

    def test_matrix_is_immutable(self):
        cov = CovarianceSpec.identity(3)
        with pytest.raises(ValueError):
            cov.matrix[0, 0] = 2.0


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(CovarianceSpec.identity(3)) == 1.0

    def test_diagonal(self):
        assert condition_number(CovarianceSpec.diagonal([1.0, 4.0])) == pytest.approx(4.0)

    def test_rank_one_singular(self):
        with pytest.raises(SingularCovariance):
            condition_number(CovarianceSpec.rank_one_ones(2))

    @given(c=st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=25, deadline=None)
    def test_scale_invariance(self, c):
        base = wishart_spec(6, 12, seed=3)
        scaled = CovarianceSpec.from_matrix(c * base.matrix)
        k0 = condition_number(base)
        k1 = condition_number(scaled)
        assert abs(k1 - k0) <= 1e-9 * k0


class TestSplitCovariance:
    def test_identity(self):
        split = split_covariance(CovarianceSpec.identity(4))
        assert split.a == pytest.approx(1.0)
        assert np.max(np.abs(split.residual.matrix)) <= 1e-12

    def test_diag_1_4(self):
        split = split_covariance(CovarianceSpec.diagonal([1.0, 4.0]))
        assert split.a == pytest.approx(1.0)
        np.testing.assert_allclose(split.residual.matrix, np.diag([0.0, 3.0]), atol=1e-12)

    def test_wishart_reconstruction(self):
        # oracle: direct matrix addition must give back the input
        cov = wishart_spec(8, 8, seed=11)
        split = split_covariance(cov)
        recon = split.a * np.eye(8) + split.residual.matrix
        assert np.max(np.abs(recon - cov.matrix)) <= 1e-10

    def test_residual_psd(self):
        cov = wishart_spec(8, 8, seed=12)
        split = split_covariance(cov)
        assert split.residual.lambda_min >= -1e-10

    def test_singular_rejected(self):
        with pytest.raises(SingularCovariance):
            split_covariance(CovarianceSpec.rank_one_ones(3))


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


class TestCenteredHalf:
    """sample_centered_half holds one half at a time, with the full sample's bits."""

    @pytest.mark.parametrize("threads", (1, 2, 3))
    @pytest.mark.parametrize("count", (
        1001,                    # one chunk
        2 * CHUNK_SIZE + 100,    # the half inside a chunk
        2 * 3 * CHUNK_SIZE,      # the half on a chunk boundary
        3 * CHUNK_SIZE + 17,     # odd
    ), ids=("one-chunk", "half-inside-a-chunk", "half-on-a-boundary", "odd"))
    @pytest.mark.parametrize("phi", (np.sign, get_map("clamp")), ids=("sgn", "clamp"))
    def test_equals_the_centered_second_half(self, phi, count, threads):
        # clamp's sums are inexact, so the mean must be summed as numpy sums the
        # stored half; a dense factor's product must see whole chunks
        for cov in (CovarianceSpec.identity(256), wishart_spec(16, 32, seed=3)):
            y = sample_gaussian(cov, count, 5, 2, threads=threads, phi=phi)
            half = count // 2
            centered = sample_centered_half(cov, count, 5, 2, threads=threads, phi=phi)
            assert np.array_equal(centered, y[half:] - y[:half].mean(axis=0))
            assert not centered.flags.writeable

    def test_count_validation(self):
        with pytest.raises(ValidationError, match="count"):
            sample_centered_half(CovarianceSpec.identity(2), 1, seed=0, stream_id=0)


class TestFactorProduct:
    """The structured products are bit-identical to the dense z @ factor.T."""

    @pytest.mark.parametrize("make, n", [
        (CovarianceSpec.identity, 16), (CovarianceSpec.identity, 256),
        (CovarianceSpec.rank_one_ones, 16), (CovarianceSpec.rank_one_ones, 64),
        (CovarianceSpec.rank_one_ones, 256),
        (lambda n: CovarianceSpec.diagonal(np.arange(1.0, n + 1.0)), 16),
        (lambda n: wishart_spec(n, n, seed=13), 16),
    ])
    def test_matches_dense_product(self, make, n):
        cov = make(n)
        width = cov.sampling_factor.shape[1]
        z = substream(14, "factor-product", n).standard_normal((CHUNK_SIZE, width))
        x = cov.factor_product(z)
        np.testing.assert_array_equal(x, z @ cov.sampling_factor.T)
        assert x.flags.c_contiguous  # a gather too: row chunks are scaled, mapped, stored

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


class TestSampleSplitGaussian:
    def test_identity_residual_is_zero(self):
        # the residual of an isotropic covariance has a zero-width sampling factor
        split = split_covariance(CovarianceSpec.identity(5))
        g = sample_gaussian(split.residual, 2000, seed=1, stream_id=0)
        assert np.max(np.abs(g)) == 0.0

    # X = sqrt(a) Z + G, with Z ~ N(0, I) and G ~ N(0, Sigma_G) drawn on two
    # streams, has the law N(0, Sigma) of the covariance that was split
    @staticmethod
    def _split_draws(split, count, seed):
        z = sample_gaussian(CovarianceSpec.identity(split.residual.dim), count,
                            seed=seed, stream_id=0)
        g = sample_gaussian(split.residual, count, seed=seed, stream_id=1)
        return z, g

    def test_combined_covariance(self):
        split = split_covariance(CovarianceSpec.diagonal([1.0, 4.0]))
        z, g = self._split_draws(split, 10**5, seed=2)
        x = np.sqrt(split.a) * z + g
        emp = x.T @ x / x.shape[0]
        assert np.max(np.abs(emp - np.diag([1.0, 4.0]))) < 0.1

    def test_same_law_as_direct_sampling(self):
        # two-sample KS oracle, coordinate-wise
        cov = wishart_spec(4, 4, seed=7)
        split = split_covariance(cov)
        z, g = self._split_draws(split, 10**5, seed=3)
        x = np.sqrt(split.a) * z + g
        direct = sample_gaussian(cov, 10**5, seed=4, stream_id=0)
        for j in range(4):
            ks = stats.ks_2samp(x[:, j], direct[:, j]).statistic
            assert ks < 0.02

    def test_z_and_g_independent_streams(self):
        split = split_covariance(wishart_spec(3, 3, seed=8))
        z, g = self._split_draws(split, 2000, seed=5)
        assert not np.array_equal(z, g)
        corr = np.corrcoef(z[:, 0], g[:, 0])[0, 1]
        assert abs(corr) < 0.1
