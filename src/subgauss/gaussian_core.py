"""Covariance specs and reproducible multivariate Gaussian sampling.

Sampling uses the spectral factor Q * sqrt(Lambda) on the range, one normal
per nonzero eigenvalue, so singular covariances such as the rank-one all-ones
one are handled uniformly where Cholesky would fail.  A factor with one
nonzero per row (identity, diagonal, rank-one) is applied as a column gather,
bit-identical to the dense product.  Draws come in fixed-size chunks,
each from its own counter-based substream, so results are bit-identical for any
worker count.  A map given to the sampler is applied to each chunk as it is
drawn, so a study that needs only the image phi(X) never holds X whole,
and in tiles of the chunk's own rows, so a worker holds no chunk-sized buffer.
`sample_centered_half` gives the second half of such a sample centered by the
mean of the first, and frees the first half before it draws the second, so
only one half is held at a time.  While more than one worker runs, numpy's
bundled OpenBLAS is held at one thread, so workers and BLAS threads do not
oversubscribe the cores.
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

# Numerical contract constants.
SYMMETRY_TOL = 1e-10     # max abs asymmetry accepted at construction
DECOMP_TOL = 1e-8        # max abs residual of the cached eigendecomposition
PSD_TOL = 1e-10          # eigenvalues below -PSD_TOL are rejected, above are clamped to 0
SINGULARITY_REL = 1e-12  # lambda_min <= SINGULARITY_REL * lambda_max counts as singular

CHUNK_SIZE = 4096        # fixed chunk size: determinism must not depend on thread count
SAMPLE_TILE = 256        # rows of a chunk mapped and stored at a time
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
    def from_factors(cls, eigenvectors, eigenvalues) -> "CovarianceSpec":
        """Construct from a known decomposition, skipping the eigensolver."""
        q = np.array(eigenvectors, dtype=float)
        w = np.array(eigenvalues, dtype=float)
        ortho = float(np.max(np.abs(q.T @ q - np.eye(q.shape[1]))))
        if ortho > SYMMETRY_TOL:
            raise ValidationError(f"eigenvector orthogonality defect {ortho:.3e}")
        order = np.argsort(w)[::-1]
        w, q = w[order], q[:, order]
        m = (q * w) @ q.T
        return cls._build((m + m.T) / 2.0, w, q)

    @classmethod
    def _build(cls, sym, w, q) -> "CovarianceSpec":
        if w.size and w[-1] < -PSD_TOL:
            raise ValidationError(
                f"matrix is not PSD: smallest eigenvalue {w[-1]:.3e} < -{PSD_TOL:.0e}")
        w = np.clip(w, 0.0, None)
        resid = float(np.max(np.abs(sym - (q * w) @ q.T)))
        if resid > DECOMP_TOL:
            raise ValidationError(f"decomposition residual {resid:.3e} exceeds {DECOMP_TOL:.0e}")
        # every caller passes arrays of its own, so none is copied
        return cls(dim=sym.shape[0], matrix=_read_only(sym), eigenvalues=_read_only(w),
                   eigenvectors=_read_only(q))

    # Common constructors ---------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "CovarianceSpec":
        return cls.from_factors(np.eye(n), np.ones(n))

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
        return _read_only(self.eigenvectors[:, keep] * np.sqrt(self.eigenvalues[keep]))

    @cached_property
    def factor_product(self):
        """Function z -> z @ sampling_factor.T, bit-identical to the dense product.

        When the factor has one nonzero per row it is a column gather and
        scale: every other term of the dense product is an exact zero.  That
        covers identity and diagonal covariances, whose factor is a permutation
        times a diagonal (tied eigenvalues are reordered), and the rank-one
        all-ones covariance, whose factor is a single column.  np.take gathers a
        row-major chunk; z[:, cols] would give a column-major one, slow to store.
        """
        if self.gather is None:
            return lambda z: z @ self.sampling_factor.T
        cols, scale = self.gather
        return lambda z: np.take(z, cols, axis=1) * scale

    @cached_property
    def gather(self):
        """(cols, scale) of a sampling factor with one nonzero per row, else None."""
        nonzero = self.sampling_factor != 0.0
        if not np.all(np.count_nonzero(nonzero, axis=1) == 1):
            return None
        cols = np.argmax(nonzero, axis=1)
        return cols, self.sampling_factor[np.arange(self.dim), cols]


def condition_number(cov: CovarianceSpec) -> float:
    """Ratio of the extreme eigenvalues, lambda_max / lambda_min."""
    if cov.is_singular:
        raise SingularCovariance(
            f"lambda_min={cov.lambda_min:.3e} at or below threshold "
            f"{SINGULARITY_REL:.0e} * lambda_max={cov.lambda_max:.3e}")
    return cov.lambda_max / cov.lambda_min


def _fill_chunks(out: np.ndarray, seed, stream_id, cov, threads: int, phi=None,
                 first: int = 0) -> None:
    """Standard normal chunks z, one column per column of cov's sampling factor,
    stored as x = cov.factor_product(z), or as phi(x) on the worker that drew
    the chunk when phi is given.  out holds the sample's rows from chunk
    `first` on, to its last.  z is drawn into the chunk's rows of out when it
    is as wide as they are, and phi(x) is stored SAMPLE_TILE rows at a time,
    so a worker holds no chunk-sized buffer but a dense product's x."""
    offset = first * CHUNK_SIZE
    count = offset + out.shape[0]
    width = cov.sampling_factor.shape[1]

    def work(chunk_index_lo):
        chunk_index, lo = chunk_index_lo
        rows = out[lo - offset:min(lo + CHUNK_SIZE, count) - offset]
        # the constant 0 is part of every chunk's key; changing it changes every draw
        rng = substream(seed, stream_id, 0, chunk_index)
        z = rows if width == rows.shape[1] else np.empty((len(rows), width))
        rng.standard_normal(out=z)
        # A gather's bits do not depend on how many rows it takes, so it goes
        # a tile at a time; a dense product's can, so it takes the chunk whole.
        x = None if cov.gather is not None else cov.factor_product(z)
        for a in range(0, len(rows), SAMPLE_TILE):
            tile = slice(a, a + SAMPLE_TILE)
            x_tile = cov.factor_product(z[tile]) if x is None else x[tile]
            rows[tile] = x_tile if phi is None else phi(x_tile)  # z[tile] is read by now

    thread_map(work, list(enumerate(range(offset, count, CHUNK_SIZE), first)), threads)


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
    check_count("count", count, 1)
    data = np.empty((count, cov.dim))
    _fill_chunks(data, seed, stream_id, cov, threads, phi)
    return _read_only(data)


def sample_centered_half(cov: CovarianceSpec, count: int, seed: int, stream_id: int,
                         *, threads: int = THREADS, phi=None) -> np.ndarray:
    """Rows count // 2 on of sample_gaussian(cov, count, seed, stream_id,
    phi=phi), centered by the mean of the rows before them, as a read-only
    array: y[half:] - y[:half].mean(axis=0) for that sample y, bit for bit.

    The whole sample is never held.  The chunks that hold the first half are
    sampled first; they give the mean and the rest of their rows, and are
    freed before the later chunks are drawn into the result, which is then
    centered in place.  Every chunk is drawn whole, as in the full sample, so
    its rows keep their bits.
    """
    check_count("count", count, 2)
    half = count // 2
    chunks = -(-half // CHUNK_SIZE)  # the chunks holding the first half
    head = sample_gaussian(cov, min(chunks * CHUNK_SIZE, count), seed, stream_id,
                           threads=threads, phi=phi)
    mean = head[:half].mean(axis=0)
    rest = head[half:].copy()  # less than a chunk
    del head
    out = np.empty((count - half, cov.dim))
    out[:len(rest)] = rest
    _fill_chunks(out[len(rest):], seed, stream_id, cov, threads, phi, first=chunks)
    out -= mean
    return _read_only(out)
