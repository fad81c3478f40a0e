"""Acceptance suite.

One test per criterion, each printed as a pass/fail line (run with -s to see
them) and asserted at its stated tolerance and runtime budget.  The heavy
study runs are shared between criteria through module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from subgauss.cli_report import run_cli, run_selftest
from subgauss.experiments import (
    CorollaryConfig,
    CounterexampleConfig,
    TheoremConfig,
    WishartConfig,
    run_corollary_experiment,
    run_counterexample,
    run_theorem_experiment,
    run_wishart_conditioning,
    sigma_sq_bound,
)

SEED = 42


def _criterion(num: int, description: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({description}): {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def theorem_grid():
    t0 = time.time()
    report = run_theorem_experiment(TheoremConfig(
        dims=(16, 64, 256), kappas=(1.0, 4.0, 16.0), maps=("sgn", "clamp"),
        samples=100_000, directions=64, seed=SEED))
    return report, time.time() - t0


@pytest.fixture(scope="module")
def corollary_run():
    t0 = time.time()
    report = run_corollary_experiment(CorollaryConfig(
        dims=(32, 64, 128), w_draws=50, samples=100_000,
        directions=32, seed=SEED))
    return report, time.time() - t0


def test_criterion_1_closed_form_selftest(capsys):
    t0 = time.time()
    code = run_selftest()
    elapsed = time.time() - t0
    with capsys.disabled():
        _criterion(1, "closed-form oracle selftest",
                   code == 0 and elapsed < 60.0,
                   f"exit={code}, runtime {elapsed:.1f}s (budget 60s)")


def test_criterion_2_theorem_mgf_bound(theorem_grid, capsys):
    report, elapsed = theorem_grid
    rows = report.select("mgf_fit")
    assert len(rows) == 2 * 3 * 3
    worst = max(row.value / math.sqrt(sigma_sq_bound(row.kappa)) for row in rows)
    ok = worst <= 1.0 and elapsed < 600.0
    with capsys.disabled():
        _criterion(2, "log-MGF within the variance-proxy envelope",
                   ok, f"worst sigma/envelope ratio {worst:.3f} over {len(rows)} cells, "
                       f"runtime {elapsed:.0f}s (budget 600s)")


def test_criterion_3_dimension_independence(theorem_grid, capsys):
    report, _ = theorem_grid
    orlicz = [r for r in report.rows if r.estimator.startswith("orlicz") and r.n]
    worst = 0.0
    for kappa in (1.0, 4.0, 16.0):
        means = {}
        for n in (16, 64, 256):
            cell = [r.value for r in orlicz if r.n == n and r.kappa == kappa]
            means[n] = float(np.mean(cell))
        worst = max(worst, max(means.values()) / min(means.values()))
    with capsys.disabled():
        _criterion(3, "per-n mean estimates flat at fixed kappa",
                   worst <= 1.3, f"worst max/min ratio {worst:.3f} (bound 1.3)")


def test_criterion_4_corollary_blocks(corollary_run, capsys):
    report, elapsed = corollary_run
    means = {row.n: row.value for row in report.select("combined_mean")}
    flat = max(means.values()) / min(means.values())
    mgf_rows = report.select("mgf_fit")
    assert len(mgf_rows) == 3 * 50 * 2
    worst_block = max(row.value / row.bound for row in mgf_rows)
    ok = flat <= 1.3 and worst_block <= 1.0 and elapsed < 1200.0
    with capsys.disabled():
        _criterion(4, "block-combined conditional norms flat and within bound",
                   ok, f"flatness {flat:.3f} (bound 1.3), worst block sigma ratio "
                       f"{worst_block:.3f}, runtime {elapsed:.0f}s (budget 1200s)")


def test_criterion_5_wishart_conditioning(capsys):
    t0 = time.time()
    report = run_wishart_conditioning(WishartConfig((256,), trials=1000, seed=SEED))
    elapsed = time.time() - t0
    median = next(r.value for r in report.rows if r.estimator == "kappa_median")
    rate = next(r.value for r in report.rows if r.estimator == "kappa_exceed_rate")
    ok = 20.0 <= median <= 50.0 and rate < 0.01 and elapsed < 300.0
    with capsys.disabled():
        _criterion(5, "half-block conditioning at n=256",
                   ok, f"median kappa {median:.1f} (window [20, 50]), exceedance "
                       f"rate {rate:.4f} (bound 0.01), runtime {elapsed:.0f}s (budget 300s)")


def test_criterion_6_counterexample_growth(capsys):
    t0 = time.time()
    report = run_counterexample(CounterexampleConfig((16, 64, 256), samples=100_000, seed=SEED))
    elapsed = time.time() - t0
    slope = next(r.value for r in report.rows if r.estimator == "loglog_slope")
    v16 = next(r.value for r in report.rows
               if r.estimator == "orlicz" and r.n == 16)
    exact16 = math.sqrt(16.0 / math.log(2.0))
    ok = (0.45 <= slope <= 0.55
          and abs(v16 - exact16) <= 0.05 * exact16
          and elapsed < 120.0)
    with capsys.disabled():
        _criterion(6, "rank-one counterexample sqrt(n) growth",
                   ok, f"slope {slope:.4f} (window [0.45, 0.55]), n=16 value "
                       f"{v16:.4f} vs {exact16:.4f} (tol 5%), runtime {elapsed:.0f}s "
                       f"(budget 120s)")


def test_criterion_7_thread_determinism(tmp_path, capsys):
    runs = {
        "counterexample": ["counterexample", "--dims", "16,64,256",
                           "--samples", "20000"],
        "wishart": ["wishart", "--dims", "64", "--trials", "200"],
    }
    identical = True
    details = []
    for name, args in runs.items():
        out1, out2 = tmp_path / f"{name}-t1", tmp_path / f"{name}-t3"
        assert run_cli(args + ["--seed", "7", "--threads", "1", "--out", str(out1)]) == 0
        assert run_cli(args + ["--seed", "7", "--threads", "3", "--out", str(out2)]) == 0
        for suffix in (".csv", "_curves.csv"):
            a = (out1 / f"{name}{suffix}").read_bytes()
            b = (out2 / f"{name}{suffix}").read_bytes()
            same = a == b
            identical = identical and same
            details.append(f"{name}{suffix}:{'=' if same else '!='}")
    with capsys.disabled():
        _criterion(7, "byte-identical CSV across --threads",
                   identical, " ".join(details))
