"""Covariance specs and reproducible multivariate Gaussian sampling.

Sampling uses the spectral factor Q * sqrt(Lambda) on the range, one normal
per nonzero eigenvalue, so singular covariances such as the rank-one all-ones
one are handled uniformly where Cholesky would fail.  A factor with one
nonzero per row (identity, diagonal, rank-one) is applied as a column gather,
bit-identical to the dense product.  Draws come in fixed-size chunks,
each from its own counter-based substream, so results are bit-identical for any
worker count.  A sample is stored column-major, so each coordinate is one
contiguous column.  A map given to the sampler maps each row on its own, and
is applied as a chunk is drawn to tiles of at most SAMPLE_TILE of its rows, so
a study that needs only the image phi(X) never holds X whole.  While more than
one worker runs, numpy's bundled OpenBLAS is held at one thread, so workers
and BLAS threads do not oversubscribe the cores.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

import numpy as np

from .errors import SingularCovariance, ValidationError, check_count

# Numerical contract constants; the first three are multiplied by a matrix's _scale.
SYMMETRY_TOL = 1e-10     # max asymmetry accepted at construction
DECOMP_TOL = 1e-8        # max residual of a computed eigendecomposition
PSD_TOL = 1e-10          # eigenvalues below -PSD_TOL are rejected, above are clamped to 0
SINGULARITY_REL = 1e-12  # lambda_min <= SINGULARITY_REL * lambda_max counts as singular

CHUNK_SIZE = 4096        # fixed chunk size: determinism must not depend on thread count
SAMPLE_TILE = 256        # rows of a chunk drawn, mapped and stored at a time
# Default worker count: the CPUs this process may run on.
THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)

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


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, with writing switched off."""
    a.setflags(write=False)
    return a


def _scale(m: np.ndarray) -> float:
    """max(1, max |m_ij|), so no tolerance is looser for entries at most 1 in size."""
    return float(np.max(np.abs(m), initial=1.0))


def _symmetric(matrix) -> np.ndarray:
    """matrix made exactly symmetric, once checked square, finite and nearly symmetric."""
    m = np.array(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError("matrix entries must be finite")
    asym = float(np.max(np.abs(m - m.T), initial=0.0))
    if asym > SYMMETRY_TOL * _scale(m):
        raise ValidationError(f"matrix asymmetry {asym:.3e} exceeds {SYMMETRY_TOL:.0e} x scale")
    return (m + m.T) / 2.0


@cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None when
    numpy links no such library.  Looked up on first use, not at import."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, set_.argtypes, set_.restype = ctypes.c_int, [ctypes.c_int], None
        return get, set_
    return None


try:  # glibc's malloc_trim(pad); a no-op where the C library has none
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
except (OSError, TypeError, AttributeError):
    _malloc_trim = lambda pad: 0  # noqa: E731


def thread_map(work, jobs, threads: int) -> list:
    """[work(job) for job in jobs], on `threads` worker threads when above 1.

    While they run, numpy's OpenBLAS is held at one thread and then restored:
    workers times BLAS threads must not exceed the cores.  That count is
    process-wide, so calls are made from one thread at a time.  Then the heap
    the workers freed is returned, where glibc keeps an amount that varies by run.
    """
    if threads <= 1:
        return [work(job) for job in jobs]
    get, set_ = _openblas_threads() or (lambda: None, lambda count: None)
    previous = get()
    set_(1)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(work, jobs))
    finally:
        set_(previous)
        _malloc_trim(0)


@dataclass(frozen=True)
class CovarianceSpec:
    """A sampler's covariance: a symmetric PSD matrix with its cached eigendecomposition.

    eigenvalues are stored nonincreasing; eigenvectors columns match them.
    """

    dim: int
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @classmethod
    def from_matrix(cls, matrix) -> "CovarianceSpec":
        sym = _symmetric(matrix)
        w, q = np.linalg.eigh(sym)
        w, q = w[::-1].copy(), q[:, ::-1].copy()
        resid = float(np.max(np.abs(sym - (q * w) @ q.T)))
        if resid > DECOMP_TOL * _scale(sym):
            raise ValidationError(
                f"decomposition residual {resid:.3e} exceeds {DECOMP_TOL:.0e} x scale")
        return cls._build(sym, w, q)

    @classmethod
    def from_factors(cls, eigenvectors, eigenvalues) -> "CovarianceSpec":
        """Construct from a known decomposition, skipping the eigensolver."""
        q = np.array(eigenvectors, dtype=float)
        w = np.array(eigenvalues, dtype=float)
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(w))):
            raise ValidationError("eigenvectors and eigenvalues must be finite")
        ortho = float(np.max(np.abs(q.T @ q - np.eye(q.shape[1]))))
        if ortho > SYMMETRY_TOL:
            raise ValidationError(f"eigenvector orthogonality defect {ortho:.3e}")
        order = np.argsort(w)[::-1]
        w, q = w[order], q[:, order]
        m = (q * w) @ q.T
        return cls._build((m + m.T) / 2.0, w, q)

    @classmethod
    def _build(cls, sym, w, q) -> "CovarianceSpec":
        if w.size and w[-1] < -PSD_TOL * _scale(sym):
            raise ValidationError(
                f"matrix is not PSD: smallest eigenvalue {w[-1]:.3e} < -{PSD_TOL:.0e} x scale")
        # every caller passes arrays of its own, so none is copied
        return cls(dim=sym.shape[0], matrix=_read_only(sym),
                   eigenvalues=_read_only(np.clip(w, 0.0, None)), eigenvectors=_read_only(q))

    # Common constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "CovarianceSpec":
        return cls.from_factors(np.eye(n), np.ones(n))

    @classmethod
    def rank_one_ones(cls, n: int) -> "CovarianceSpec":
        return cls.from_matrix(np.ones((n, n)))

    @cached_property
    def sampling_factor(self) -> np.ndarray:
        # n x rank: eigenvalues at or below the singularity threshold count as
        # exact zeros, so singular covariances produce exactly degenerate samples.
        keep = self.eigenvalues > SINGULARITY_REL * self.eigenvalues[0]
        return _read_only(self.eigenvectors[:, keep] * np.sqrt(self.eigenvalues[keep]))

    @cached_property
    def gather(self):
        """(cols, scale) of a sampling factor with one nonzero per row, else None.

        np.take(z, cols, axis=1) * scale is then bit-identical to the dense
        z @ sampling_factor.T, whose other terms are exact zeros.  That covers
        identity and diagonal covariances, whose factor is a permutation times a
        diagonal (tied eigenvalues are reordered), and the rank-one all-ones
        covariance, whose factor is one column.
        """
        nonzero = self.sampling_factor != 0.0
        if not np.all(np.count_nonzero(nonzero, axis=1) == 1):
            return None
        cols = np.argmax(nonzero, axis=1)
        return cols, self.sampling_factor[np.arange(self.dim), cols]


def condition_number(matrix) -> float:
    """lambda_max / lambda_min of a symmetric PSD matrix, from its eigenvalues alone."""
    w = np.linalg.eigvalsh(_symmetric(matrix))
    if w[0] <= SINGULARITY_REL * w[-1]:
        raise SingularCovariance(
            f"lambda_min={w[0]:.3e} at or below {SINGULARITY_REL:.0e} * lambda_max={w[-1]:.3e}")
    return float(w[-1] / w[0])


def _fill_chunks(out: np.ndarray, seed, stream_id, cov, threads: int, phi=None) -> None:
    """Standard normal chunks z, one column per column of cov's sampling factor,
    stored in out's rows (in any memory order) as x = z @ cov.sampling_factor.T,
    or as phi(x) on the worker that drew the chunk when phi is given.  Each
    chunk is drawn, multiplied or gathered, mapped and stored SAMPLE_TILE rows
    at a time, so no worker holds a chunk-sized buffer."""
    count = out.shape[0]
    width = cov.sampling_factor.shape[1]
    cols, scale = cov.gather or (None, None)

    def work(chunk_index_lo):
        chunk_index, lo = chunk_index_lo
        rows = out[lo:lo + CHUNK_SIZE]
        # the constant 0 is part of every chunk's key; changing it changes every draw
        rng = substream(seed, stream_id, 0, chunk_index)
        # A generator fills row-major, so the tiles of z have the bits of the
        # chunk's draw.  A gather's bits do not depend on how many rows it
        # takes; a dense product's are those of a SAMPLE_TILE-row product.
        for a in range(0, len(rows), SAMPLE_TILE):
            tile = slice(a, a + SAMPLE_TILE)
            x = rng.standard_normal((len(rows[tile]), width))  # z, freed as x is rebound
            x = x @ cov.sampling_factor.T if cols is None else np.take(x, cols, axis=1) * scale
            rows[tile] = x if phi is None else phi(x)

    thread_map(work, list(enumerate(range(0, count, CHUNK_SIZE))), threads)


def sample_gaussian(cov: CovarianceSpec, count: int, seed: int, stream_id: int,
                    *, threads: int = THREADS, phi=None) -> np.ndarray:
    """Draw count i.i.d. N(0, Sigma) rows via the spectral factor, as a
    read-only column-major count x n array; given phi, the image phi(X) instead.

    phi maps rows of x to as many rows of n values, each row on its own (a
    coordinate-wise map, or a row-wise one such as x -> sgn(x @ W.T) with W
    n x n, or x -> phi(x) - mean).  It is applied as the draws are made, to
    tiles of at most SAMPLE_TILE rows, so only the image is held whole.
    Deterministic per (seed, stream_id) and independent of `threads`.
    Singular covariances are allowed.
    """
    check_count("count", count, 1)
    data = np.empty((cov.dim, count)).T  # column-major: each coordinate is contiguous
    _fill_chunks(data, seed, stream_id, cov, threads, phi)
    return _read_only(data)
