"""subgauss benchmark: one CLI study per workload, each run in a fresh process.

    python3 perfbench/run.py --workload theorem --seed 1 --seconds 25 --trace 0

Run from the repository root.  With `--trace 0` it prints the end-to-end
metrics (wall_s, peak_rss_mb, setup_s); with `--trace 1` the per-layer
metrics of a traced run next to an untraced one.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  See
perfbench/README.md for the workloads, seeds and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Application threads x BLAS threads must stay within the cores; every study
# here runs with one BLAS thread, and the parent's own checks do too.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread pinning)

import checks  # noqa: E402
from trace_layers import layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
CHILD_TIMEOUT_S = 150.0
SETUP_PROBES = 4          # import-only processes per run, on top of each study's own set-up

THEOREM = {"maps": ["sgn", "clamp"], "dims": [16, 256], "kappas": [1, 16]}
COUNTEREXAMPLE_DIMS = [16, 64, 256]
WISHART = {"n": 256, "trials": 1000, "threshold": 100.0}

WORKLOADS = {
    "theorem": {"threads": 2, "args": [
        "theorem", "--maps", ",".join(THEOREM["maps"]),
        "--dims", ",".join(map(str, THEOREM["dims"])),
        "--kappas", ",".join(map(str, THEOREM["kappas"])),
        "--samples", "100000", "--directions", "64"]},
    "counterexample": {"threads": 1, "args": [
        "counterexample", "--dims", ",".join(map(str, COUNTEREXAMPLE_DIMS)),
        "--samples", "100000"]},
    "wishart": {"threads": 1, "args": [
        "wishart", "--dims", str(WISHART["n"]), "--trials", str(WISHART["trials"]),
        "--threshold", str(WISHART["threshold"])]},
}

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {"_s": "s", "_mb": "MB", "_gflop": "GFLOP", "_bytes": "bytes"}


def layer_unit(name: str) -> str:
    return next((u for suffix, u in LAYER_UNITS.items() if name.endswith(suffix)), "count")


def spawn(result_path: Path, cli_args=None, traced=False) -> tuple[float, dict | None, str]:
    """Run child.py once; (setup_s, its result or None, error text)."""
    cmd = [sys.executable, str(HERE / "child.py"), str(result_path)]
    if traced:
        cmd.append("--trace")
    if cli_args:
        cmd += ["--", *cli_args]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return float("nan"), None, f"timed out after {CHILD_TIMEOUT_S:.0f}s"
    if proc.returncode != 0 or not result_path.exists():
        return float("nan"), None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    result = json.loads(result_path.read_text())
    return result["ready"] - t_spawn, result, ""


class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.spec = WORKLOADS[workload]
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0
        self.setups = []
        self.runs = []         # results of untraced study runs
        self.traced = []       # results of traced study runs
        self.errors = []
        # Every study of one run uses the same seed, so the SVD recomputation
        # is done once, before the measuring window.
        self.wishart_kappas = (
            checks.half_block_kappas(seed, WISHART["n"], WISHART["trials"])
            if workload == "wishart" else None)

    def probe_setup(self) -> None:
        for i in range(SETUP_PROBES):
            setup, _, error = spawn(self.workdir / f"probe{i}.json")
            if error:
                raise RuntimeError(f"set-up probe failed: {error}")
            self.setups.append(setup)

    def study(self, traced: bool) -> None:
        index = self.attempted
        self.attempted += 1
        out = self.workdir / f"out{index}"
        cli_args = [*self.spec["args"], "--seed", str(self.seed), "--out", str(out),
                    "--threads", str(self.spec["threads"])]
        setup, result, error = spawn(self.workdir / f"run{index}.json", cli_args, traced)
        if not error and result["exit_code"] != 0:
            error = f"run_cli returned {result['exit_code']}"
        if not error:
            self.setups.append(setup)
            check_errors = self.check(out)
            if check_errors:
                self.check_failures += 1
                error = "; ".join(check_errors)
        if not error and traced:
            result["layers"], trace_errors = layer_metrics(result, self.workload)
            result["trace_errors"] = trace_errors
            if trace_errors:
                error = "; ".join(trace_errors)
            del result["spans"]
        if error:
            self.failed += 1
            self.errors.append(f"run {index}: {error}")
            print(f"{self.workload} run {index} failed: {error}", file=sys.stderr)
            return
        (self.traced if traced else self.runs).append(result)
        shutil.rmtree(out, ignore_errors=True)

    def check(self, out: Path) -> list[str]:
        if self.workload == "theorem":
            return checks.check_theorem(out, THEOREM["maps"], THEOREM["dims"],
                                        THEOREM["kappas"])
        if self.workload == "counterexample":
            return checks.check_counterexample(out, COUNTEREXAMPLE_DIMS)
        return checks.check_wishart(out, WISHART["n"], WISHART["threshold"],
                                    self.wishart_kappas)

    def measure(self, seconds: float, trace: bool) -> None:
        """Whole rounds until `seconds` have passed: one untraced study, plus
        one traced study when tracing."""
        t0 = time.monotonic()
        while self.attempted == 0 or time.monotonic() - t0 < seconds:
            self.study(traced=False)
            if trace:
                self.study(traced=True)

    def metrics(self, trace: bool) -> dict:
        """Medians over the run's successful study processes."""
        median = statistics.median
        if not trace:
            values = {"wall_s": median([r["wall_s"] for r in self.runs]),
                      "peak_rss_mb": median([r["peak_rss_mb"] for r in self.runs]),
                      "setup_s": median(self.setups)}
            return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        values = {name: median([r["layers"][name] for r in self.traced])
                  for name in self.traced[0]["layers"]}
        values["process.cpu_s"] = median([r["cpu_s"] for r in self.runs])
        values["trace.overhead_s"] = (median([r["wall_s"] for r in self.traced])
                                      - median([r["wall_s"] for r in self.runs]))
        return {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    import scipy

    return {"machine": platform.machine(), "processor": platform.processor(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "subgauss" / "cli_report.py").is_file():
        print(f"error: no subgauss sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    threads = WORKLOADS[args.workload]["threads"]
    if threads * BLAS_THREADS > (env["nproc"] or 1):
        print(f"warning: {threads} study threads x {BLAS_THREADS} BLAS threads exceed "
              f"{env['nproc']} cores", file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="tmp-", dir=RESULTS) as workdir:
        bench = Bench(args.workload, args.seed, Path(workdir))
        try:
            bench.probe_setup()
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        bench.measure(args.seconds, bool(args.trace))
    if not bench.runs or (args.trace and not bench.traced):
        print(f"error: every {args.workload} study failed; nothing to report", file=sys.stderr)
        return 1
    metrics = bench.metrics(bool(args.trace))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "study_threads": threads, "environment": env,
              "cli": WORKLOADS[args.workload]["args"], "setups_s": bench.setups,
              "runs": bench.runs, "traced_runs": bench.traced, "errors": bench.errors,
              "metrics": metrics}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} attempted {bench.attempted} failed {bench.failed}")
    print(json.dumps({"correct": bench.check_failures == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
