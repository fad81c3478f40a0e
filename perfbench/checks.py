"""Checks of a study's CSV output against theory, not against saved output.

Only `<experiment>.csv` is read: the JSON sidecar carries a wall-clock
`generated_at` stamp.  Each check returns a list of failure messages; an
empty list means the run's outputs are correct.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

LN2 = math.log(2.0)
RADEMACHER_ORLICZ = 1.0 / math.sqrt(LN2)
# The smallest lambda of the theorem's MGF grid (0.25) gives the largest
# Rademacher proxy 2 log cosh(l) / l^2, so every fit is at least this.
RADEMACHER_MGF = math.sqrt(2.0 * math.log(math.cosh(0.25))) / 0.25
FLATNESS = 1.3
EXACT_RTOL = 1e-12        # 48-step bisection on (0, 10 sqrt(n)] resolves ~3e-14
KAPPA_RTOL = 1e-9         # eigh vs svd on a 128 x 256 block, CSV keeps 12 digits


def read_rows(out_dir: Path, experiment: str) -> list[dict]:
    with open(out_dir / f"{experiment}.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        for key in ("n", "kappa", "value", "ci_low", "ci_high", "bound"):
            row[key] = float(row[key]) if row[key] else None
    return rows


def envelope(kappa: float) -> float:
    """Theorem variance-proxy envelope sqrt(4 + (2/pi)(kappa - 1)), on sigma."""
    return math.sqrt(4.0 + (2.0 / math.pi) * (kappa - 1.0))


def check_theorem(out_dir: Path, maps, dims, kappas) -> list[str]:
    rows = read_rows(out_dir, "theorem")
    errors = []
    cells = {}
    for row in rows:
        kind, _, map_name = row["estimator"].partition(":")
        if kind in ("mgf_fit", "orlicz"):
            cells[(kind, map_name, row["n"], row["kappa"])] = row
    expected = {(kind, m, float(n), float(k)) for kind in ("mgf_fit", "orlicz")
                for m in maps for n in dims for k in kappas}
    if set(cells) != expected:
        errors.append(f"theorem cells {sorted(set(cells) ^ expected)} missing or extra")
        return errors
    for (kind, m, n, k), row in cells.items():
        if kind == "mgf_fit" and not row["value"] <= envelope(k):
            errors.append(f"mgf_fit {m} n={n:g} kappa={k:g}: {row['value']:.6g} "
                          f"above the envelope {envelope(k):.6g}")
    for m in maps:
        for k in kappas:
            values = [cells[("orlicz", m, float(n), float(k))]["value"] for n in dims]
            if not max(values) <= FLATNESS * min(values):
                errors.append(f"orlicz {m} kappa={k:g}: max/min over n "
                              f"{max(values) / min(values):.4f} above {FLATNESS}")
    if "sgn" in maps and 1 in kappas:
        # At kappa = 1 each canonical coordinate of sgn(X) is Rademacher, and
        # canonical directions are in the scanned set, so the maxima are at
        # least the Rademacher values, up to the bootstrap interval's width.
        for n in dims:
            orlicz = cells[("orlicz", "sgn", float(n), 1.0)]
            mgf = cells[("mgf_fit", "sgn", float(n), 1.0)]
            rel_width = (orlicz["ci_high"] - orlicz["ci_low"]) / orlicz["value"]
            if orlicz["value"] < RADEMACHER_ORLICZ * (1.0 - rel_width):
                errors.append(f"orlicz sgn n={n} kappa=1: {orlicz['value']:.6g} below "
                              f"the Rademacher value {RADEMACHER_ORLICZ:.6g}")
            if mgf["value"] < RADEMACHER_MGF * (1.0 - rel_width):
                errors.append(f"mgf_fit sgn n={n} kappa=1: {mgf['value']:.6g} below "
                              f"the Rademacher value {RADEMACHER_MGF:.6g}")
    return errors


def check_counterexample(out_dir: Path, dims) -> list[str]:
    rows = read_rows(out_dir, "counterexample")
    errors = []
    orlicz = {int(r["n"]): r for r in rows if r["estimator"] == "orlicz"}
    if sorted(orlicz) != sorted(dims):
        return [f"counterexample orlicz rows for n={sorted(orlicz)}, expected {dims}"]
    for n, row in orlicz.items():
        # sgn(X) = sgn(g) 1 for X = g 1, so the all-ones projection is exactly
        # +-sqrt(n), no unit direction gives more (Cauchy-Schwarz), and the
        # Orlicz root of a constant |projection| is sqrt(n / ln 2) for every
        # bootstrap resample.
        exact = math.sqrt(n / LN2)
        for key in ("value", "ci_low", "ci_high"):
            if abs(row[key] - exact) > EXACT_RTOL * exact:
                errors.append(f"counterexample n={n} {key} {row[key]!r} != "
                              f"sqrt(n/ln 2) = {exact!r}")
    values = [orlicz[n]["value"] for n in dims]
    slope = float(np.polyfit(np.log(dims), np.log(values), 1)[0])
    reported = next((r["value"] for r in rows if r["estimator"] == "loglog_slope"), None)
    if abs(slope - 0.5) > 1e-9 or reported is None or abs(reported - slope) > 1e-9:
        errors.append(f"counterexample log-log slope {slope!r} (reported {reported!r}) != 1/2")
    return errors


def half_block_kappas(seed: int, n: int, trials: int) -> np.ndarray:
    """kappa(W1 W1^T) of every trial's half block, from singular values.

    W is regenerated from the study's own substream; the conditioning is
    computed by SVD of W1, apart from the program's eigh of W1 W1^T.
    """
    from subgauss.gaussian_core import substream

    kappas = np.empty(trials)
    for t in range(trials):
        w1 = substream(seed, "wishart", n, t).standard_normal((n, n))[: n // 2]
        s = np.linalg.svd(w1, compute_uv=False)
        kappas[t] = (s[0] / s[-1]) ** 2
    return kappas


def check_wishart(out_dir: Path, n: int, threshold: float, kappas: np.ndarray) -> list[str]:
    rows = {r["estimator"]: r["value"] for r in read_rows(out_dir, "wishart")
            if r["n"] == n}
    errors = []
    try:
        median, p05, p95 = rows["kappa_median"], rows["kappa_p05"], rows["kappa_p95"]
        rate = rows["kappa_exceed_rate"]
    except KeyError as exc:
        return [f"wishart n={n}: row {exc} missing"]
    if not p05 <= median <= p95:
        errors.append(f"wishart quantiles out of order: {p05}, {median}, {p95}")
    if not 20.0 <= median <= 50.0:
        errors.append(f"wishart median kappa {median} outside [20, 50]")
    if not rate < 0.01:
        errors.append(f"wishart exceedance rate {rate} not below 0.01")
    expected = {"kappa_median": float(np.median(kappas)),
                "kappa_p05": float(np.percentile(kappas, 5)),
                "kappa_p95": float(np.percentile(kappas, 95)),
                "kappa_exceed_rate": float(np.mean(kappas > threshold))}
    for key, want in expected.items():
        if abs(rows[key] - want) > KAPPA_RTOL * max(abs(want), 1.0):
            errors.append(f"wishart {key} {rows[key]!r} != SVD recomputation {want!r}")
    return errors
