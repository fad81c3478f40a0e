"""Covariance specs, spectral splitting, and reproducible multivariate Gaussian sampling.

Sampling uses the spectral factor Q * sqrt(Lambda) on the range, one normal
per nonzero eigenvalue, so singular covariances (rank-one all-ones, split
residuals) are handled uniformly where Cholesky would fail.  A factor with one
nonzero per row (identity, diagonal, rank-one) is applied as a column gather,
bit-identical to the dense product.  Draws come in fixed-size chunks, each from
its own counter-based substream, so results are bit-identical for any worker
count.  A map given to the sampler is applied to each chunk as it is drawn, so
a study that needs only the image phi(X) never holds X whole.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SingularCovariance, ValidationError

# Numerical contract constants.
SYMMETRY_TOL = 1e-10     # max abs asymmetry accepted at construction
DECOMP_TOL = 1e-8        # max abs residual of the cached eigendecomposition
PSD_TOL = 1e-10          # eigenvalues below -PSD_TOL are rejected, above are clamped to 0
SINGULARITY_REL = 1e-12  # lambda_min <= SINGULARITY_REL * lambda_max counts as singular

CHUNK_SIZE = 4096        # fixed chunk size: determinism must not depend on thread count
# Default worker count: the CPUs this process may run on.
THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

_LANE_DIRECT = 0
_LANE_SPLIT_Z = 1
_LANE_SPLIT_G = 2


def _key_part(part) -> int:
    if isinstance(part, str):
        return int.from_bytes(hashlib.sha256(part.encode()).digest()[:8], "big")
    return int(part) % (2**64)


def substream(seed, *key) -> np.random.Generator:
    """Independent generator derived from a master seed and a key tuple.

    String key parts are hashed so callers can label logical streams; the
    derivation is stable across platforms and runs.
    """
    entropy = [_key_part(seed)] + [_key_part(k) for k in key]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def subseed(seed, *key) -> int:
    """Derived 64-bit integer seed, for APIs that take a plain seed."""
    entropy = [_key_part(seed)] + [_key_part(k) for k in key]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, with writing switched off."""
    a.setflags(write=False)
    return a


def thread_map(work, jobs, threads: int) -> list:
    """[work(job) for job in jobs], on `threads` worker threads when above 1."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(work, jobs))
    return [work(job) for job in jobs]


@dataclass(frozen=True)
class CovarianceSpec:
    """Symmetric PSD matrix with its cached eigendecomposition.

    eigenvalues are stored nonincreasing; eigenvectors columns match them.
    """

    dim: int
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_matrix(cls, matrix) -> "CovarianceSpec":
        m = np.array(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValidationError(f"covariance must be square, got shape {m.shape}")
        asym = float(np.max(np.abs(m - m.T))) if m.size else 0.0
        if asym > SYMMETRY_TOL:
            raise ValidationError(f"matrix asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e}")
        sym = (m + m.T) / 2.0
        w, q = np.linalg.eigh(sym)
        w, q = w[::-1].copy(), q[:, ::-1].copy()
        return cls._build(sym, w, q)

    @classmethod
    def from_factors(cls, eigenvectors, eigenvalues, matrix=None) -> "CovarianceSpec":
        """Construct from a known decomposition, skipping the eigensolver."""
        q = np.array(eigenvectors, dtype=float)
        w = np.array(eigenvalues, dtype=float)
        ortho = float(np.max(np.abs(q.T @ q - np.eye(q.shape[1]))))
        if ortho > SYMMETRY_TOL:
            raise ValidationError(f"eigenvector orthogonality defect {ortho:.3e}")
        order = np.argsort(w)[::-1]
        w, q = w[order], q[:, order]
        if matrix is None:
            m = (q * w) @ q.T
            matrix = (m + m.T) / 2.0
        return cls._build(np.asarray(matrix, dtype=float), w, q)

    @classmethod
    def _build(cls, sym, w, q) -> "CovarianceSpec":
        if w.size and w[-1] < -PSD_TOL:
            raise ValidationError(
                f"matrix is not PSD: smallest eigenvalue {w[-1]:.3e} < -{PSD_TOL:.0e}")
        w = np.clip(w, 0.0, None)
        resid = float(np.max(np.abs(sym - (q * w) @ q.T)))
        if resid > DECOMP_TOL:
            raise ValidationError(f"decomposition residual {resid:.3e} exceeds {DECOMP_TOL:.0e}")
        return cls(dim=sym.shape[0], matrix=_frozen(sym), eigenvalues=_frozen(w),
                   eigenvectors=_frozen(q))

    # Common constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "CovarianceSpec":
        return cls.from_factors(np.eye(n), np.ones(n), matrix=np.eye(n))

    @classmethod
    def diagonal(cls, values) -> "CovarianceSpec":
        v = np.asarray(values, dtype=float)
        order = np.argsort(v)[::-1]
        return cls.from_factors(np.eye(len(v))[:, order], v[order], matrix=np.diag(v))

    @classmethod
    def rank_one_ones(cls, n: int) -> "CovarianceSpec":
        return cls.from_matrix(np.ones((n, n)))

    @classmethod
    def wishart_of(cls, w_matrix) -> "CovarianceSpec":
        w_matrix = np.asarray(w_matrix, dtype=float)
        return cls.from_matrix(w_matrix @ w_matrix.T)

    # Spectral quantities ----------------------------------------------------

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def is_singular(self) -> bool:
        return self.lambda_min <= SINGULARITY_REL * self.lambda_max

    @cached_property
    def sampling_factor(self) -> np.ndarray:
        # n x rank: eigenvalues at or below the singularity threshold count as
        # exact zeros, so singular covariances produce exactly degenerate samples.
        keep = self.eigenvalues > SINGULARITY_REL * self.lambda_max
        return _frozen(self.eigenvectors[:, keep] * np.sqrt(self.eigenvalues[keep]))

    @cached_property
    def factor_product(self):
        """Function z -> z @ sampling_factor.T, bit-identical to the dense product.

        When the factor has one nonzero per row it is a column gather and
        scale: every other term of the dense product is an exact zero.  That
        covers identity and diagonal covariances, whose factor is a permutation
        times a diagonal (tied eigenvalues are reordered), and the rank-one
        all-ones covariance, whose factor is a single column.
        """
        f = self.sampling_factor
        nonzero = f != 0.0
        if np.all(np.count_nonzero(nonzero, axis=1) == 1):
            cols = np.argmax(nonzero, axis=1)
            scale = f[np.arange(self.dim), cols]
            return lambda z: z[:, cols] * scale
        return lambda z: z @ f.T


@dataclass(frozen=True)
class CovarianceSplit:
    """Decomposition Sigma = a*I + residual with a = lambda_min(Sigma)."""

    a: float
    residual: CovarianceSpec


def condition_number(cov: CovarianceSpec) -> float:
    """Ratio of the extreme eigenvalues, lambda_max / lambda_min."""
    if cov.is_singular:
        raise SingularCovariance(
            f"lambda_min={cov.lambda_min:.3e} at or below threshold "
            f"{SINGULARITY_REL:.0e} * lambda_max={cov.lambda_max:.3e}")
    return cov.lambda_max / cov.lambda_min


def split_covariance(cov: CovarianceSpec) -> CovarianceSplit:
    """Split Sigma into a*I + Sigma_G with a = lambda_min.

    Requires a nonsingular input: a = 0 would make the smoothing step's
    Lipschitz constant infinite downstream.
    """
    if cov.is_singular:
        raise SingularCovariance("cannot split a singular covariance (a would be 0)")
    a = cov.lambda_min
    residual = CovarianceSpec.from_factors(
        cov.eigenvectors, np.clip(cov.eigenvalues - a, 0.0, None),
        matrix=cov.matrix - a * np.eye(cov.dim))
    recon = float(np.max(np.abs(a * np.eye(cov.dim) + residual.matrix - cov.matrix)))
    if recon > PSD_TOL:
        raise ValidationError(f"split reconstruction residual {recon:.3e}")
    return CovarianceSplit(a=a, residual=residual)


def _fill_chunks(out: np.ndarray, seed, stream_id, lane, cov, threads: int,
                 phi=None) -> None:
    """Standard normal chunks z, one column per column of cov's sampling factor,
    stored as x = cov.factor_product(z), or as phi(x) on the worker that drew
    the chunk when phi is given; with cov None, n columns and x = z."""
    count, n = out.shape
    width = n if cov is None else cov.sampling_factor.shape[1]

    def work(chunk_index_lo):
        chunk_index, lo = chunk_index_lo
        hi = min(lo + CHUNK_SIZE, count)
        rng = substream(seed, stream_id, lane, chunk_index)
        z = rng.standard_normal((hi - lo, width))
        x = z if cov is None else cov.factor_product(z)
        out[lo:hi] = x if phi is None else phi(x)

    thread_map(work, list(enumerate(range(0, count, CHUNK_SIZE))), threads)


def sample_gaussian(cov: CovarianceSpec, count: int, seed: int, stream_id: int,
                    *, threads: int = THREADS, phi=None) -> np.ndarray:
    """Draw count i.i.d. N(0, Sigma) rows via the spectral factor, as a
    read-only count x n array; given phi, the image phi(X) instead.

    phi maps a chunk of rows to as many rows of n values (a coordinate-wise
    map, or a row-wise one such as x -> sgn(x @ W.T) with W n x n).  It is
    applied chunk by chunk as the draws are made, so only the image is held
    whole.  Deterministic per (seed, stream_id) and independent of `threads`.
    Singular covariances are allowed.
    """
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    data = np.empty((count, cov.dim))
    _fill_chunks(data, seed, stream_id, _LANE_DIRECT, cov, threads, phi)
    return _read_only(data)


def sample_split_gaussian(split: CovarianceSplit, count: int, seed: int, stream_id: int,
                          *, threads: int = THREADS) -> tuple[np.ndarray, np.ndarray]:
    """Draw the isotropic part Z ~ N(0, I) and residual part G ~ N(0, Sigma_G),
    as read-only count x n arrays.

    Z and G come from independent substreams; sqrt(a)*Z + G has the law of the
    original covariance.
    """
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    n = split.residual.dim
    z = np.empty((count, n))
    _fill_chunks(z, seed, stream_id, _LANE_SPLIT_Z, None, threads)
    g = np.empty((count, n))
    _fill_chunks(g, seed, stream_id, _LANE_SPLIT_G, split.residual, threads)
    return _read_only(z), _read_only(g)
