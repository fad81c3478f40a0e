"""The four reproducible studies.

* theorem: fitted MGF variance proxies of phi(X) for conditioned covariances,
  checked against the 4 + (2/pi)(kappa - 1) <= 4 kappa envelope, plus
  dimension-independence of the norm estimates.
* corollary: sign-quantized square Gaussian maps, row-partitioned into two
  well-conditioned rectangular blocks combined by the triangle inequality.
* wishart: conditioning of the half-height block, median and tail statistics.
* counterexample: rank-one all-ones covariance, where the norm grows like
  sqrt(n) and well-conditioning is seen to be necessary.

Every row's pass flag follows one convention: pass iff value <= bound when a
bound is present, else the row is informational (pass is vacuously true).
Interval criteria are therefore encoded as deviation rows (value = distance
from the window center, bound = half-width).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from itertools import product
from typing import Optional

import numpy as np

from . import __version__
from .errors import DimensionTooSmall, DomainError, ValidationError, check_count
from .gaussian_core import (
    THREADS,
    CovarianceSpec,
    condition_number,
    sample_gaussian,
    subseed,
    substream,
)
from .nonlinearity import get_map
from .psi2_estimation import scan_directions

LAMBDA_GRID = (0.25, 0.5, 1.0)   # MGF check grid, symmetrized internally
FLATNESS_BOUND = 1.3             # max/min ratio separating O(1) from sqrt(n) growth
KAPPA_WINDOW = (20.0, 50.0)      # asymptotic-regime window for median kappa of a half block
EXCEEDANCE_THRESHOLD = 100.0     # reporting proxy for the ill-conditioned event
EXCEEDANCE_RATE_BOUND = 0.01
SLOPE_WINDOW_HALFWIDTH = 0.05    # accepted deviation of the log-log slope from 1/2
DEFAULT_SEED = 42                # master seed of every study config and the CLI


# Report structures ----------------------------------------------------------

@dataclass(frozen=True)
class ReportRow:
    experiment: str
    n: Optional[int]
    kappa: Optional[float]
    estimator: str
    value: float
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None
    bound: Optional[float] = None

    @property
    def passed(self) -> bool:
        if self.bound is None:
            return True
        return self.value <= self.bound

    def as_dict(self) -> dict:
        """The row's report columns, in order: its fields, then pass."""
        return {**asdict(self), "pass": self.passed}


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    rows: tuple
    metadata: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def select(self, prefix: str) -> list:
        return [r for r in self.rows if r.estimator.startswith(prefix)]


def config_echo(cfg) -> dict:
    """A study config's fields but its seed, tuples as lists: its report's echo."""
    return {key: list(value) if isinstance(value, tuple) else value
            for key, value in asdict(cfg).items() if key != "seed"}


def report_metadata(experiment: str, seed: int, echo: dict) -> dict:
    digest = hashlib.sha256(json.dumps(
        {"experiment": experiment, "seed": seed, "config": echo,
         "version": __version__},  # numpy counts are written as Python ints
        sort_keys=True, default=np.generic.item).encode()).hexdigest()
    return {
        "experiment": experiment,
        "seed": seed,
        "config": echo,
        "package_version": __version__,
        "artifact_version": digest[:12],
    }


# Configs ---------------------------------------------------------------------

# Each class is its study's whole parameter table (the CLI's keys, defaults and
# help line), and building one checks every limit.

def _check_grid(key: str, values: tuple) -> None:
    if not values:  # an empty grid would report vacuous passes
        raise ValidationError(f"{key} must not be empty")
    if len(set(values)) < len(values):  # a repeat would run and report a cell twice
        raise ValidationError(f"{key} must not repeat, got {list(values)}")


def _check_dims(dims: tuple, least: int) -> None:
    _check_grid("dims", dims)
    for n in dims:
        check_count("dims", n, least)


@dataclass(frozen=True)
class TheoremConfig:
    """Bounded-map concentration grid, one map after another."""
    dims: tuple = (16, 64, 256)
    kappas: tuple = (1.0, 4.0, 16.0)
    maps: tuple = ("sgn", "clamp")
    samples: int = 100_000
    directions: int = 64
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        _check_dims(self.dims, 2)
        _check_grid("kappas", self.kappas)
        if not all(1 <= k < math.inf for k in self.kappas):  # NaN fails too
            raise ValidationError(f"kappas must be finite and >= 1, got {self.kappas}")
        check_count("samples", self.samples, 10_000)
        check_count("directions", self.directions, 0)
        _check_grid("maps", tuple(get_map(name).name for name in self.maps))


@dataclass(frozen=True)
class CorollaryConfig:
    """Sign-quantized square maps, row partition."""
    dims: tuple = (32, 64, 128)
    w_draws: int = 50
    samples: int = 100_000
    directions: int = 32
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        _check_dims(self.dims, 2)
        check_count("w_draws", self.w_draws, 20)
        check_count("samples", self.samples, 10_000)
        check_count("directions", self.directions, 0)


@dataclass(frozen=True)
class WishartConfig:
    """Half-block conditioning statistics."""
    dims: tuple = (64, 128, 256)
    trials: int = 1000
    threshold: float = EXCEEDANCE_THRESHOLD
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        _check_dims(self.dims, 2)  # the half block needs a row
        check_count("trials", self.trials, 100)
        if not math.isfinite(self.threshold):
            raise ValidationError(f"threshold must be finite, got {self.threshold}")


@dataclass(frozen=True)
class CounterexampleConfig:
    """Rank-one all-ones covariance growth."""
    dims: tuple = (16, 64, 256)
    samples: int = 100_000
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        _check_dims(self.dims, 1)
        if len(self.dims) < 3 or max(self.dims) < 8 * min(self.dims):
            raise ValidationError(
                f"counterexample dims need >= 3 values spanning a factor >= 8, "
                f"got {list(self.dims)}")
        check_count("samples", self.samples, 10_000)  # the row floor of every vector study


# Bounds and fixtures ---------------------------------------------------------

def sigma_sq_bound(kappa: float) -> float:
    """Variance proxy 4 + (2/pi)(kappa - 1); always at most 4*kappa."""
    if not 1.0 <= kappa < math.inf:  # NaN fails too
        raise DomainError(f"kappa must be finite and >= 1, got {kappa}")
    return 4.0 + (2.0 / math.pi) * (kappa - 1.0)


def make_conditioned_covariance(n: int, kappa: float, seed: int) -> CovarianceSpec:
    """Random-orthogonal covariance with eigenvalues log-spaced on [1, kappa]."""
    check_count("dimension", n, 2)
    if not 1.0 <= kappa < math.inf:
        raise DomainError(f"kappa must be finite and >= 1, got {kappa}")
    if kappa == 1.0:
        return CovarianceSpec.identity(n)
    rng = substream(seed, "conditioned-cov")
    a = rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))[None, :]  # fix the sign convention for determinism
    eigvals = np.geomspace(kappa, 1.0, n)
    return CovarianceSpec.from_factors(q, eigvals)


def partition_rows(w_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split an n x n matrix into its first floor(n/2) rows and the remainder."""
    w_matrix = np.asarray(w_matrix)
    n = w_matrix.shape[0]
    if n < 2:
        raise DimensionTooSmall(f"need at least 2 rows to partition, got {n}")
    m = n // 2
    return w_matrix[:m], w_matrix[m:]


def _ratio(values) -> float:
    values = [v for v in values if v > 0]
    return max(values) / min(values) if values else 1.0


# Experiment runners ------------------------------------------------------------

def run_theorem_experiment(cfg: TheoremConfig, *, threads: int = THREADS) -> ExperimentReport:
    """For each map in turn, seeded by its name, and per (n, kappa) cell: take
    the mean of phi(X), X ~ N(0, Sigma), over a centering half of the draws,
    draw the scanned half from an independent stream already centered by it,
    and scan the direction set for the max Orlicz estimate and the max fitted
    MGF sigma.  The sampler maps each half as it draws it, so a cell never
    holds X or the whole image, only one half at a time.  The rows are the
    concatenation of one single-map run's rows per map, in the order given.

    The pass gate on each cell is the theorem's variance proxy: fitted sigma
    at most sqrt(4 + (2/pi)(kappa - 1)).  Orlicz estimates are reported as
    informational rows.
    """
    rows = []
    for name in cfg.maps:
        bmap = get_map(name)
        eff_seed = subseed(cfg.seed, "theorem", name)
        orlicz_by_kappa = {k: {} for k in cfg.kappas}
        sigma_by_kappa = {k: {} for k in cfg.kappas}
        for cell, (n, kappa) in enumerate(product(cfg.dims, cfg.kappas)):
            cov = make_conditioned_covariance(n, kappa, subseed(eff_seed, "cov", cell))
            half = cfg.samples // 2
            mean = sample_gaussian(cov, half, eff_seed, subseed(eff_seed, "centering", cell),
                                   threads=threads, phi=bmap).mean(axis=0)
            centered = sample_gaussian(cov, cfg.samples - half, eff_seed, cell,
                                       threads=threads, phi=lambda x: bmap(x) - mean)
            (scan,) = scan_directions(centered, cfg.directions, eff_seed, cell,
                                      lambda_grid=LAMBDA_GRID, threads=threads)
            del centered  # the next cell samples before this name is rebound
            rows.append(ReportRow("theorem", n, kappa, f"mgf_fit:{name}", scan.mgf_sigma_max,
                                  bound=math.sqrt(sigma_sq_bound(kappa))))
            rows.append(ReportRow("theorem", n, kappa, f"orlicz:{name}",
                                  scan.value, scan.ci_low, scan.ci_high))
            orlicz_by_kappa[kappa][n] = scan.value
            sigma_by_kappa[kappa][n] = scan.mgf_sigma_max
        for kappa in cfg.kappas:
            rows.append(ReportRow("theorem", None, kappa, f"dim_flatness:{name}",
                                  _ratio(orlicz_by_kappa[kappa].values()), bound=FLATNESS_BOUND))
            rows.append(ReportRow("theorem", None, kappa, f"sigma_flatness:{name}",
                                  _ratio(sigma_by_kappa[kappa].values())))
    return ExperimentReport("theorem", tuple(rows),
                            report_metadata("theorem", cfg.seed, config_echo(cfg)))


def run_corollary_experiment(cfg: CorollaryConfig, *, threads: int = THREADS) -> ExperimentReport:
    """Sign-quantized square maps: for each W draw, partition rows, estimate the
    conditional norms of both blocks (x resampled, W fixed), combine them by the
    triangle inequality, and compare against the direct full-vector estimate.
    The blocks and the full vector are parts of one scan under the same
    resamples, so `triangle_gap` compares them on one bootstrap draw.

    The blocks need no centering: W x is symmetric about the origin, which is
    asserted empirically (coordinate means within 3 standard errors of 0).
    """
    rows = []
    combined_means = {}
    for n in cfg.dims:
        eff_seed = subseed(cfg.seed, "corollary", n)
        combined_values = []
        for w_idx in range(cfg.w_draws):
            w_matrix = substream(cfg.seed, "corollary-W", n, w_idx).standard_normal((n, n))
            y = sample_gaussian(CovarianceSpec.identity(n), cfg.samples,
                                eff_seed, w_idx, threads=threads,
                                phi=lambda x: np.sign(x @ w_matrix.T))
            tag = f"w{w_idx:02d}"

            # Symmetry of W x about the origin: coordinate means should sit
            # within 3 standard errors of 0.  Checked as an exceedance
            # fraction (expected 0.27%), since the max over n coordinates
            # exceeds 3 SE routinely by multiplicity alone.
            z_scores = np.abs(y.mean(axis=0)) * math.sqrt(cfg.samples)
            rows.append(ReportRow("corollary", n, None, f"symmetry_exceed:{tag}",
                                  float(np.mean(z_scores > 3.0)), bound=0.05))

            parts = (range(n // 2), range(n // 2, n), range(n))
            *blocks, full = scan_directions(y, cfg.directions, eff_seed, w_idx, parts=parts,
                                            lambda_grid=LAMBDA_GRID, threads=threads)
            for b, (scan, w_b) in enumerate(zip(blocks, partition_rows(w_matrix)), start=1):
                kappa_b = condition_number(w_b @ w_b.T)
                trivial = math.sqrt(len(w_b) / math.log(2.0))  # |<v, Y_b>| <= sqrt(m_b)
                rows.append(ReportRow("corollary", n, kappa_b, f"orlicz:{tag}:block{b}",
                                      scan.value, scan.ci_low, scan.ci_high, bound=trivial))
                rows.append(ReportRow("corollary", n, kappa_b, f"mgf_fit:{tag}:block{b}",
                                      scan.mgf_sigma_max,
                                      bound=math.sqrt(sigma_sq_bound(kappa_b))))

            combined = blocks[0].value + blocks[1].value
            combined_values.append(combined)
            rows.append(ReportRow("corollary", n, None, f"combined:{tag}", combined))
            rows.append(ReportRow("corollary", n, None, f"orlicz:{tag}:full",
                                  full.value, full.ci_low, full.ci_high))
            rows.append(ReportRow("corollary", n, None, f"triangle_gap:{tag}",
                                  full.ci_low - (blocks[0].ci_high + blocks[1].ci_high),
                                  bound=0.0))
        combined_means[n] = float(np.mean(combined_values))
        rows.append(ReportRow("corollary", n, None, "combined_mean", combined_means[n]))
    rows.append(ReportRow("corollary", None, None, "combined_flatness",
                          _ratio(combined_means.values()), bound=FLATNESS_BOUND))
    return ExperimentReport("corollary", tuple(rows),
                            report_metadata("corollary", cfg.seed, config_echo(cfg)))


def run_wishart_conditioning(cfg: WishartConfig) -> ExperimentReport:
    """Distribution of kappa(W1 W1^T) for the half-height block of a square
    Gaussian matrix: median, 5th/95th percentiles, and the exceedance rate of
    a configurable threshold as the proxy for the ill-conditioned event."""
    rows = []
    center = 0.5 * (KAPPA_WINDOW[0] + KAPPA_WINDOW[1])
    halfwidth = 0.5 * (KAPPA_WINDOW[1] - KAPPA_WINDOW[0])
    for n in cfg.dims:
        kappas = np.empty(cfg.trials)
        for t in range(cfg.trials):
            # the first n // 2 rows of the n x n draw, drawn alone
            w1 = substream(cfg.seed, "wishart", n, t).standard_normal((n // 2, n))
            kappas[t] = condition_number(w1 @ w1.T)
        median = float(np.median(kappas))
        rows.append(ReportRow("wishart", n, None, "kappa_median", median))
        rows.append(ReportRow("wishart", n, None, "kappa_p05",
                              float(np.percentile(kappas, 5))))
        rows.append(ReportRow("wishart", n, None, "kappa_p95",
                              float(np.percentile(kappas, 95))))
        if n // 2 >= 32:  # the window check targets the asymptotic regime
            rows.append(ReportRow("wishart", n, None, "kappa_median_dev",
                                  abs(median - center), bound=halfwidth))
        rows.append(ReportRow("wishart", n, None, "kappa_exceed_rate",
                              float(np.mean(kappas > cfg.threshold)),
                              bound=EXCEEDANCE_RATE_BOUND))
    metadata = report_metadata("wishart", cfg.seed, config_echo(cfg))
    metadata["kappa_exceedance_threshold_note"] = (
        f"exceedance threshold kappa > {cfg.threshold:g} is a reporting "
        "choice for the ill-conditioned tail, not a derived constant")
    return ExperimentReport("wishart", tuple(rows), metadata)


def run_counterexample(cfg: CounterexampleConfig, *, threads: int = THREADS) -> ExperimentReport:
    """Rank-one all-ones covariance: the norm of sgn(X) grows like sqrt(n).

    The image is +-(1, ..., 1), so a unit direction v's estimate is exactly
    |v.1| / sqrt(ln 2), by Cauchy-Schwarz at most the all-ones direction's: the
    scan takes the canonical and all-ones directions alone, with no random
    ones.  The report carries the fitted log-log slope.
    """
    eff_seed = subseed(cfg.seed, "counterexample")
    rows = []
    values = []
    for i, n in enumerate(cfg.dims):
        y = sample_gaussian(CovarianceSpec.rank_one_ones(n), cfg.samples, eff_seed, i,
                            threads=threads, phi=np.sign)
        (est,) = scan_directions(y, 0, eff_seed, i, threads=threads)
        del y  # the next dimension samples before this name is rebound
        exact = math.sqrt(n / math.log(2.0))
        rows.append(ReportRow("counterexample", n, None, "orlicz",
                              est.value, est.ci_low, est.ci_high))
        rows.append(ReportRow("counterexample", n, None, "value_dev",
                              abs(est.value - exact) / exact, bound=0.05))
        values.append(est.value)
    slope = float(np.polyfit(np.log(cfg.dims), np.log(values), 1)[0])
    rows.append(ReportRow("counterexample", None, None, "loglog_slope", slope))
    rows.append(ReportRow("counterexample", None, None, "slope_dev",
                          abs(slope - 0.5), bound=SLOPE_WINDOW_HALFWIDTH))
    return ExperimentReport("counterexample", tuple(rows),
                            report_metadata("counterexample", cfg.seed, config_echo(cfg)))
