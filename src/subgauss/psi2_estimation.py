"""Empirical subgaussian norms for scalar and vector samples.

Scalar norm: the Orlicz form inf{t > 0 : E exp(X^2/t^2) <= 2}.  The raw
empirical-mean criterion has heavy sample variance near the true root, so the
estimator solves the bootstrap-median criterion instead: it solves the
criterion for each of 200 multinomial resamples and reports the median root,
with a percentile interval from the same roots.  The roots come from one
vectorized, safeguarded Newton solve on the log criterion in u = 1/t^2; each
returned t is on the conservative side, where the criterion is at most 2.

Every estimate compresses its sample once, at one resolution: exact value
counts when it has at most BINS distinct values (sign data is the common case
here), otherwise BINS uniform bins with each bin's mean of x and of x^2.  It
is then resampled once, as one matrix of multinomial counts.  The Orlicz
criterion reads the mean squares and the MGF band the representatives, both
under the same weights.  The binning error is quadratic in the bin width and
below the bootstrap noise: 4096 bins gave the coverage of 256.

Vector norm: maximum of the scalar norm over a declared direction set
(canonical basis + normalized all-ones + seeded random unit vectors).  The
search is a lower bound on the true supremum over the sphere and is reported
with its direction count.  One entry, `scan_directions`, runs every such
scan on a rows x n array: it projects the directions in blocks of bounded
memory, compresses and resamples each projection once for both estimates,
solves each block's roots together and spreads the blocks over worker threads.

Every norm estimate is one `Psi2Estimate`.  With a lambda grid it holds the
MGF variance proxy sigma `mgf_sigma` fits (a scan's is the largest over its
set); a scan's also holds its direction count and argmax direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GridTooWide, InsufficientSamples, ValidationError
from .gaussian_core import THREADS, substream, thread_map

RESAMPLES = 200          # bootstrap resamples for medians and 95% percentile CIs
BINS = 256               # support compression of every estimate
ZERO_TOL = 1e-12         # |x| at or below this counts as almost-surely zero
MGF_EXP_GUARD = 30.0     # reject grids with lambda * max|x| above this
NEWTON_TOL = 1e-14       # relative Newton step that ends a root solve; also the
                         # relative margin added to each root
NEWTON_MAX_ITERS = 50    # a row whose step stalls at rounding level stops here
SCAN_BLOCK_BYTES = 2**26  # working-set budget of one block of directions in a scan

_LOG2 = math.log(2.0)

_TAG_SCALAR = 101
_TAG_SCAN_DIRS = 201     # substream of a scan's direction set
_TAG_SCAN_BOOT = 202     # substreams of a scan's per-direction resamples


@dataclass(frozen=True)
class Psi2Estimate:
    """Orlicz norm estimate with its bootstrap 95% interval, from n_samples rows.

    With a lambda grid it gives the fitted MGF sigma, a scan's largest; a scan
    also gives its direction count and the direction of the largest estimate.
    """

    value: float
    ci_low: float
    ci_high: float
    n_samples: int
    n_directions: int = 0
    argmax_direction: Optional[np.ndarray] = None
    mgf_sigma_max: Optional[float] = None

    def __post_init__(self):
        if not (self.ci_low <= self.value <= self.ci_high):
            raise ValidationError(
                f"interval [{self.ci_low}, {self.ci_high}] does not bracket {self.value}")


def _compress(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(representatives, mean squares, counts) of a sample.

    A sample with at most BINS distinct values gives those values, their
    exact squares and their counts; a wider one gives BINS uniform bins over
    its range, each bin's mean of x and mean of x^2, with empty bins dropped.
    When a prefix already holds more than BINS distinct values the sample is
    binned without sorting it: the range then comes from its min and max,
    which are the ends of the full sort, so the result is the same.
    """
    if len(np.unique(values[:2 * BINS + 2])) > BINS:
        lo, hi = float(values.min()), float(values.max())
    else:
        uniq, counts = np.unique(values, return_counts=True)
        if len(uniq) <= BINS:
            return uniq, uniq * uniq, counts
        lo, hi = float(uniq[0]), float(uniq[-1])
    idx = np.minimum(((values - lo) * (BINS / (hi - lo))).astype(np.int64), BINS - 1)
    cnt = np.bincount(idx, minlength=BINS)
    sums = np.bincount(idx, weights=values, minlength=BINS)
    squares = np.bincount(idx, weights=values * values, minlength=BINS)
    mask = cnt > 0
    return sums[mask] / cnt[mask], squares[mask] / cnt[mask], cnt[mask]


def _resample_counts(counts: np.ndarray, n: int, rng: np.random.Generator,
                     resamples: int) -> np.ndarray:
    p = counts / counts.sum()
    return rng.multinomial(n, p, size=resamples)


def _orlicz_roots(reps_sq: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Roots t of sum_k(w * exp(s / t^2)) / n = 2 for each weight row.

    reps_sq holds the support points s, shape (K, ...); weights the counts w,
    shape (K, ..., R), each of their R rows summing to n.  Returns roots of
    shape (..., R).  The support axis leads, so every sum over it adds the
    terms in support order: zero-weight padding then leaves the sums exactly
    unchanged, and a sample's roots do not depend on the samples solved with it.

    Safeguarded Newton on K(u) = log(sum(w exp(s u)) / n) - log 2 in u = 1/t^2.
    K + log 2 is convex and increasing with value 0 at u = 0, so Newton started
    right of the root decreases monotonically onto it.  Two starts are right of
    the root: the zero of the tangent at u = 0, and the u at which the row's
    largest drawn support point (weight >= 1) reaches the criterion alone; the
    smaller one is used, which also keeps every exponent below log(2n).  A row
    stops when its step falls to NEWTON_TOL relative, or after
    NEWTON_MAX_ITERS steps when rounding keeps it from settling.  Each t is then
    raised by the relative margin NEWTON_TOL and checked, and a t whose
    criterion still evaluates above 2 is raised again by a doubling margin: the
    criterion at a returned t evaluates <= 2, the conservative side.  A row
    whose weight all sits on s = 0 meets the criterion for every t and gets
    t = 0.
    """
    w = np.asarray(weights, dtype=float)
    # Support points a row does not draw play no part in its criterion.
    s = np.where(w > 0.0, np.asarray(reps_sq, dtype=float)[..., None], 0.0)
    ws = w * s
    top = s.max(axis=0)
    live = top > 0.0
    u = np.where(live, np.minimum(
        _LOG2 * n / np.where(live, ws.sum(axis=0), 1.0),
        (_LOG2 + math.log(n)) / np.where(live, top, 1.0)), 0.0)
    active = live
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(NEWTON_MAX_ITERS):
            e = np.exp(s * u)
            m = (w * e).sum(axis=0)
            step = (np.log(m / n) - _LOG2) * m / (ws * e).sum(axis=0)
            u = np.where(active, u - step, u)
            active = active & (np.abs(step) > NEWTON_TOL * u)
            if not active.any():
                break
        t = np.where(live, (1.0 + NEWTON_TOL) / np.sqrt(u), 0.0)
        margin = NEWTON_TOL
        while True:  # ends: the criterion falls as t grows, and the raise doubles
            crit = (w * np.exp(s / (t * t))).sum(axis=0) / n
            low = live & (crit > 2.0)
            if not low.any():
                return t
            t = np.where(low, t * (1.0 + margin), t)
            margin *= 2.0


def _draw_support(x: np.ndarray, rng: np.random.Generator):
    """(representatives, mean squares, weights) of sample x: its support
    compressed to at most BINS points, and RESAMPLES rows of multinomial
    counts over it drawn with rng, each row summing to len(x).  An
    almost-surely-zero sample gives None and draws nothing; a sample with a
    NaN or infinite value raises ValidationError."""
    max_abs = float(np.max(np.abs(x)))
    if not math.isfinite(max_abs):
        raise ValidationError(f"sample has a non-finite value (max |x| = {max_abs})")
    if max_abs <= ZERO_TOL:
        return None
    reps, squares, counts = _compress(x)
    return reps, squares, _resample_counts(counts, len(x), rng, RESAMPLES)


def _orlicz_estimate(supports, n: int) -> np.ndarray:
    """(median root, ci_low, ci_high) of the bootstrap-median Orlicz criterion,
    one row per drawn support of an n-point sample, with the roots of every
    support solved together.  A None support (a zero sample) gives zeros.
    """
    out = np.zeros((len(supports), 3))
    rows = [i for i, support in enumerate(supports) if support is not None]
    if not rows:
        return out
    width = max(len(supports[i][1]) for i in rows)
    reps_sq = np.zeros((width, len(rows)))
    weights = np.zeros((width, len(rows), RESAMPLES))
    for j, i in enumerate(rows):
        _, squares, counts = supports[i]
        reps_sq[:len(squares), j] = squares
        weights[:len(squares), j] = counts.T
    roots = _orlicz_roots(reps_sq, weights, n)
    out[rows, 0] = np.median(roots, axis=-1)
    out[rows, 1:] = np.percentile(roots, [2.5, 97.5], axis=-1).T
    return out


def psi2_scalar(samples, *, seed: int = 0, lambda_grid=None) -> Psi2Estimate:
    """Orlicz subgaussian norm of a scalar sample with a bootstrap 95% CI.

    The seed fixes the bootstrap resamples, making results reproducible and
    scale-equivariant (scaling the sample by c > 0 scales the estimate by c).
    With a lambda grid, mgf_sigma_max is the MGF sigma fitted on the draw of
    the Orlicz estimate, as a scan does for each direction; else it is None.
    """
    x = np.asarray(samples, dtype=float).ravel()
    if len(x) < 1000:
        raise InsufficientSamples(f"need at least 1000 samples, got {len(x)}")
    support = _draw_support(x, substream(seed, _TAG_SCALAR))
    value, lo, hi = _orlicz_estimate([support], len(x))[0]
    sigma = None if lambda_grid is None else mgf_sigma(x, lambda_grid, support)
    return Psi2Estimate(value=float(value), ci_low=float(lo), ci_high=float(hi),
                        n_samples=len(x), mgf_sigma_max=sigma)


def mgf_sigma(x: np.ndarray, lambda_grid, support) -> float:
    """Smallest sigma with the bootstrap upper band of the log-empirical-MGF
    below sigma^2 lambda^2 / 2 on the grid, symmetrized as {-|lambda|, |lambda|}.

    x is centered internally.  The band is the 97.5% percentile of the
    resampled log-MGF on `support`, the draw `_draw_support` made of x for its
    Orlicz estimate, so sigma already carries the statistical slack.  An
    almost-surely-constant sample gives 0.
    """
    lam = np.unique(np.abs(np.asarray(lambda_grid, dtype=float)))
    lam = lam[lam > 0]
    if len(lam) == 0:
        raise ValidationError("lambda grid must contain nonzero points")
    grid = np.concatenate([-lam[::-1], lam])
    mean = x.mean()
    max_abs = float(max(x.max() - mean, mean - x.min()))  # max |x - mean|
    if lam[-1] * max_abs > MGF_EXP_GUARD:
        raise GridTooWide(
            f"lambda*max|X| = {lam[-1] * max_abs:.3g} exceeds {MGF_EXP_GUARD}")
    if support is None or max_abs <= ZERO_TOL:
        return 0.0

    reps, _, weights = support
    means = weights @ np.exp(np.outer(reps - mean, grid)) / len(x)
    bands = np.percentile(np.log(means), 97.5, axis=0)
    return float(np.sqrt(np.max(2.0 * np.clip(bands, 0.0, None) / grid**2)))


def direction_set(n: int, n_random: int, rng: np.random.Generator) -> np.ndarray:
    """Rows: n canonical basis vectors, all-ones / sqrt(n), n_random unit vectors.

    Random vectors are drawn sequentially so a larger budget extends the set.
    """
    rows = [np.eye(n), np.ones((1, n)) / math.sqrt(n)]
    randoms = np.empty((n_random, n))
    for i in range(n_random):
        v = rng.standard_normal(n)
        randoms[i] = v / np.linalg.norm(v)
    rows.append(randoms)
    return np.vstack(rows)


def scan_directions(y, n_random: int, seed: int, stream_id: int,
                    *, lambda_grid=None, threads: int = THREADS) -> Psi2Estimate:
    """Max bootstrap Orlicz estimate of the projections y @ v over the canonical
    + all-ones + n_random random direction set, as a Psi2Estimate holding its
    interval, the rows of y, the direction count and the argmax direction; with
    a lambda grid, its mgf_sigma_max is the max fitted MGF sigma over the same
    set, and without one it is None.  y is a rows x n array, used uncentered.

    The set is drawn from substream(seed, stream_id, 201), and direction d
    draws its one resample matrix from substream(seed, stream_id, 202, d), so
    its draws do not depend on the budget and the estimate does not fall as
    the budget grows.  Each projection is compressed once and resampled once:
    its Orlicz estimate and its MGF fit read the same weights, the MGF on the
    representatives shifted by the projection's mean.

    Directions go in fixed blocks whose working set fits SCAN_BLOCK_BYTES, so
    the full rows x directions projection is never built.  A block is
    projected as block @ y.T, which BLAS reads in place: y is never copied,
    not even when it is a column slice of a wider array.  Blocks run on
    `threads` workers and are reduced in direction order, the first maximum
    winning ties: the result is the same for any thread count.  (A block's
    product can round its last bits differently when its width changes, which
    only the last block of a smaller budget sees.)
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2 or 0 in y.shape:
        raise ValidationError(f"need a 2-D sample with rows and columns, got shape {y.shape}")
    if n_random < 0:
        raise ValidationError(f"n_random must be >= 0, got {n_random}")
    rows, n = y.shape
    dirs = direction_set(n, n_random, substream(seed, stream_id, _TAG_SCAN_DIRS))
    # One direction holds its projection and about six resamples x bins arrays
    # in the root solve.
    size = max(1, SCAN_BLOCK_BYTES // (8 * (rows + 6 * RESAMPLES * BINS)))
    blocks = [range(lo, min(lo + size, len(dirs))) for lo in range(0, len(dirs), size)]

    def work(block):
        # _draw_support rejects what NaN or inf in y project to (errstate is per thread)
        with np.errstate(invalid="ignore", over="ignore"):
            proj = dirs[block.start:block.stop] @ y.T
        supports = [_draw_support(x, substream(seed, stream_id, _TAG_SCAN_BOOT, d))
                    for x, d in zip(proj, block)]
        estimates = _orlicz_estimate(supports, rows)
        if lambda_grid is None:
            return estimates, []
        return estimates, [mgf_sigma(x, lambda_grid, support)
                           for x, support in zip(proj, supports)]

    results = thread_map(work, blocks, threads)
    estimates = np.concatenate([est for est, _ in results])
    best = int(np.argmax(estimates[:, 0]))
    value, lo, hi = (float(v) for v in estimates[best])
    sigmas = [sigma for _, block_sigmas in results for sigma in block_sigmas]
    return Psi2Estimate(value=value, ci_low=lo, ci_high=hi, n_samples=rows,
                        n_directions=len(dirs), argmax_direction=dirs[best].copy(),
                        mgf_sigma_max=max(sigmas) if lambda_grid is not None else None)
