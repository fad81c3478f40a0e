"""Command-line front end: config ingestion, dispatch, and report emission.

Config files are strict-schema JSON: unknown keys are rejected so a typo can
never silently corrupt a study.  CSV is the primary tabular output (one row
per report row plus a long-format curves file); a JSON sidecar carries the
seed, the config echo, and versions needed to re-run.  The sidecar is the same
for the same run apart from its `run_env` block (the wall-clock time and the
thread count).

Exit codes: 0 all pass flags true, 1 some bound violated, 2 operational
error, 64 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import IoError, SchemaError, SubgaussError, ValidationError
from .experiments import (
    CorollaryConfig,
    CounterexampleConfig,
    ExperimentReport,
    TheoremConfig,
    WishartConfig,
    merge_reports,
    run_corollary_experiment,
    run_counterexample,
    run_theorem_experiment,
    run_wishart_conditioning,
)
from .gaussian_core import THREADS, CovarianceSpec, split_covariance, substream
from .nonlinearity import get_map, smoothed_mean_quadrature
from .psi2_estimation import psi2_scalar

DEFAULT_SEED = 42

# The parameters of each study: key -> (kind, default).  A kind is "int",
# "num" (an int or a float), "str" or a list of one of these ("[int]"); it alone
# fixes the JSON type check, the flag (--w-draws for w_draws) and the help line.
# Value limits are checked by the study's config dataclass in experiments.
STUDIES = {
    "theorem": {"dims": ("[int]", [16, 64, 256]), "kappas": ("[num]", [1, 4, 16]),
                "maps": ("[str]", ["sgn", "clamp"]), "samples": ("int", 100_000),
                "directions": ("int", 64)},
    "corollary": {"dims": ("[int]", [32, 64, 128]), "w_draws": ("int", 50),
                  "samples": ("int", 100_000), "directions": ("int", 32)},
    "wishart": {"dims": ("[int]", [64, 128, 256]), "trials": ("int", 1000),
                "threshold": ("num", 100.0)},
    "counterexample": {"dims": ("[int]", [16, 64, 256]), "samples": ("int", 100_000)},
}
_COMMON = {"seed": ("int", None), "format": ("str", "csv"), "output_dir": ("str", "out")}
_KINDS = {"int": ((int,), int), "num": ((int, float), float), "str": ((str,), str)}
EXPERIMENTS = (*STUDIES, "all")

SCHEMA_HELP = "\n".join([
    "Config file schema (strict JSON object; unknown keys are errors):",
    f"  common:          experiment (one of {', '.join(EXPERIMENTS)}),\n{'':19}"
    + ", ".join(f"{key} ({kind})" for key, (kind, _) in _COMMON.items()),
    *(f"  {name + ':':<17}" + ", ".join(
        f"{key} {kind}" if kind.startswith("[") else f"{key} ({kind})"
        for key, (kind, _) in params.items()) for name, params in STUDIES.items()),
    "A num is an int or a float, never a bool.  An error names the limit it breaks.", ""])


def _check_kind(key: str, kind: str, value) -> None:
    types = _KINDS[kind.strip("[]")][0]
    items = value if kind.startswith("[") else [value]
    if not isinstance(items, list) or any(
            isinstance(v, bool) or not isinstance(v, types) for v in items):
        raise ValidationError(f"key {key!r} must be {kind}, got {value!r}")


def _flag_type(kind: str):
    parse = _KINDS[kind.strip("[]")][1]
    if not kind.startswith("["):
        return parse

    def parse_list(text: str) -> list:
        return [parse(tok) for tok in text.split(",") if tok]

    parse_list.__name__ = kind  # argparse names the type in its error message
    return parse_list


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError as exc:
        raise ValidationError(f"{name} must be an integer, got {os.environ[name]!r}") from exc


class RunConfig:
    """A validated run: experiment, parameters, output options and study configs."""

    def __init__(self, experiment: str, parameters: dict, output_dir: str = "out",
                 seed: int | None = None, format: str = "csv"):
        if experiment not in EXPERIMENTS:
            raise ValidationError(
                f"unknown experiment {experiment!r}; expected one of {EXPERIMENTS}")
        if format not in ("csv", "json"):
            raise ValidationError(f"format must be 'csv' or 'json', got {format!r}")
        self.experiment = experiment
        self.parameters = dict(parameters)
        self.output_dir = str(output_dir)
        self.seed = _env_int("SUBGAUSS_SEED", DEFAULT_SEED) if seed is None else int(seed)
        self.format = format
        empty = [key for key, value in self.parameters.items() if value == []]
        if empty:
            raise ValidationError(f"key {empty[0]!r} must not be empty")
        self.configs = build_experiment_configs(self)  # every precondition, up front

    def __eq__(self, other):
        return isinstance(other, RunConfig) and self.echo() == other.echo()

    def echo(self) -> dict:
        return {"experiment": self.experiment, **self.parameters, "seed": self.seed,
                "format": self.format, "output_dir": self.output_dir}


def _read_config(file_contents: str) -> tuple[str, dict]:
    """The experiment and the type-checked keys of a strict-schema JSON config."""
    try:
        doc = json.loads(file_contents)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"config must be a JSON object, got {type(doc).__name__}")
    experiment = doc.pop("experiment", None)
    if experiment is None:
        raise SchemaError("missing required key 'experiment'")
    if experiment not in EXPERIMENTS:
        raise ValidationError(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
    table = {**STUDIES.get(experiment, {}), **_COMMON}
    for key, value in doc.items():
        if key not in table:
            raise SchemaError(f"unknown key {key!r} for experiment {experiment!r}")
        _check_kind(key, table[key][0], value)
    return experiment, doc


def _run_config(experiment: str, values: dict) -> RunConfig:
    common = {key: values.pop(key, default) for key, (_, default) in _COMMON.items()}
    return RunConfig(experiment, values, **common)


def parse_config(file_contents: str) -> RunConfig:
    """Parse a strict-schema JSON config into a validated RunConfig."""
    return _run_config(*_read_config(file_contents))


def build_experiment_configs(run: RunConfig) -> dict:
    """Expand a RunConfig into the studies' config objects, whose construction
    checks every precondition."""
    out = {}
    for name in STUDIES if run.experiment == "all" else (run.experiment,):
        p = {**{key: default for key, (_, default) in STUDIES[name].items()}, **run.parameters}
        if name == "theorem":
            out[name] = tuple(
                TheoremConfig(dims=tuple(p["dims"]), kappas=tuple(map(float, p["kappas"])),
                              map_name=m, samples_per_cell=p["samples"],
                              directions=p["directions"], seed=run.seed)
                for m in p["maps"])
        elif name == "corollary":
            out[name] = CorollaryConfig(dims=tuple(p["dims"]), w_draws=p["w_draws"],
                                        samples_per_w=p["samples"],
                                        directions=p["directions"], seed=run.seed)
        elif name == "wishart":
            out[name] = WishartConfig(tuple(p["dims"]), p["trials"], float(p["threshold"]), run.seed)
        else:
            out[name] = CounterexampleConfig(tuple(p["dims"]), p["samples"], run.seed)
    return out


def run_experiments(run: RunConfig, *, threads: int = THREADS) -> list[ExperimentReport]:
    reports = []
    for name, cfg in run.configs.items():
        if name == "theorem":
            reports.append(merge_reports(
                [run_theorem_experiment(c, threads=threads) for c in cfg]))
        elif name == "corollary":
            reports.append(run_corollary_experiment(cfg, threads=threads))
        elif name == "wishart":
            reports.append(run_wishart_conditioning(
                cfg.dims, cfg.trials, cfg.seed, threshold=cfg.threshold))
        else:
            reports.append(run_counterexample(cfg.dims, cfg.samples, cfg.seed, threads=threads))
    return reports


# Report emission --------------------------------------------------------------

_CSV_COLUMNS = ("experiment", "n", "kappa", "estimator", "value",
                "ci_low", "ci_high", "bound", "pass")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _prepare_target(path: Path, force: bool) -> None:
    if path.exists() and not force:
        raise IoError(f"refusing to overwrite {path} without --force")


def emit_report(report: ExperimentReport, format: str, output_dir, *,
                force: bool = False, run_config_echo: dict | None = None,
                threads: int | None = None) -> list[Path]:
    """Write the report and return the created paths.

    csv format: <experiment>.csv (one row per report row), <experiment>.json
    sidecar with full metadata, and <experiment>_curves.csv in long format for
    value-vs-n plots.  json format: a single file that also embeds the rows.
    `threads`, the worker count the report was computed with, goes to the
    sidecar's run_env block (null when not given).
    """
    out = Path(output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output dir {out}: {exc}") from exc
    if not os.access(out, os.W_OK):
        raise IoError(f"output dir {out} is not writable")

    sidecar = {
        "experiment": report.experiment,
        "all_passed": report.all_passed,
        "row_count": len(report.rows),
        "metadata": report.metadata,
        "versions": {"subgauss": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__, "python": platform.python_version()},
        "run_env": {"generated_at": datetime.now(timezone.utc).isoformat(),
                    "threads": threads},
    }
    if run_config_echo is not None:
        sidecar["run_config"] = run_config_echo

    paths = []
    try:
        if format == "json":
            target = out / f"{report.experiment}.json"
            _prepare_target(target, force)
            sidecar["rows"] = [r.as_dict() for r in report.rows]
            target.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
            return [target]

        csv_path = out / f"{report.experiment}.csv"
        json_path = out / f"{report.experiment}.json"
        curves_path = out / f"{report.experiment}_curves.csv"
        for target in (csv_path, json_path, curves_path):
            _prepare_target(target, force)
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for r in report.rows:
                writer.writerow([_fmt(v) for v in
                                 (r.experiment, r.n, r.kappa, r.estimator, r.value,
                                  r.ci_low, r.ci_high, r.bound, r.passed)])
        paths.append(csv_path)
        json_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
        paths.append(json_path)
        with open(curves_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("experiment", "series", "n", "value"))
            for r in report.rows:
                if r.n is not None:
                    writer.writerow([_fmt(v) for v in
                                     (r.experiment, r.estimator, r.n, r.value)])
        paths.append(curves_path)
    except OSError as exc:
        raise IoError(f"failed writing report files in {out}: {exc}") from exc
    return paths


# Self test ----------------------------------------------------------------------

def run_selftest() -> int:
    """Closed-form oracle suite; returns 0 when every check passes."""
    t_start = time.time()
    checks = []

    sgn = get_map("sgn")
    worst = 0.0
    for a in (0.25, 1.0, 4.0):
        for x in np.arange(-5.0, 5.0 + 1e-9, 0.1):
            dev = abs(smoothed_mean_quadrature(sgn, a, x)
                      - math.erf(x / math.sqrt(2.0 * a)))
            worst = max(worst, dev)
    checks.append(("smoothed_mean(sgn) vs erf on grid", worst <= 1e-6,
                   f"max dev {worst:.2e} (tol 1e-06)"))

    gauss = substream(DEFAULT_SEED, "selftest-gaussian").standard_normal(10**6)
    est = psi2_scalar(gauss)
    target = math.sqrt(8.0 / 3.0)
    checks.append(("psi2 of 1e6 gaussian draws", abs(est.value - target) <= 0.03,
                   f"value {est.value:.4f} vs {target:.4f} (tol 0.03)"))

    rad = np.where(substream(DEFAULT_SEED, "selftest-rademacher").random(10**6) < 0.5,
                   -1.0, 1.0)
    est = psi2_scalar(rad)
    target = 1.0 / math.sqrt(math.log(2.0))
    checks.append(("psi2 of 1e6 rademacher draws", abs(est.value - target) <= 0.02,
                   f"value {est.value:.4f} vs {target:.4f} (tol 0.02)"))

    w = substream(DEFAULT_SEED, "selftest-wishart").standard_normal((8, 16))
    cov = CovarianceSpec.wishart_of(w)
    split = split_covariance(cov)
    resid = float(np.max(np.abs(split.a * np.eye(8) + split.residual.matrix - cov.matrix)))
    checks.append(("covariance split reconstruction", resid <= 1e-10,
                   f"max residual {resid:.2e} (tol 1e-10)"))

    ok = True
    for name, passed, detail in checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
        ok = ok and passed
    print(f"selftest finished in {time.time() - t_start:.1f}s")
    return 0 if ok else 1


# CLI ------------------------------------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_COMMAND_HELP = {
    "theorem": "bounded-map concentration grid",
    "corollary": "sign-quantized square maps, row partition",
    "wishart": "half-block conditioning statistics",
    "counterexample": "rank-one all-ones covariance growth",
    "all": "run all four studies with defaults",
    "selftest": "closed-form oracle suite",
}


def build_parser() -> _Parser:
    parser = _Parser(prog="subgauss", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in _COMMAND_HELP.items():
        p = sub.add_parser(command, help=help_text)
        if command == "selftest":
            continue
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="master seed (default: SUBGAUSS_SEED or 42)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--force", action="store_true", help="overwrite existing output files")
        p.add_argument("--threads", type=int, help="worker threads (speed only, never results)")
        for key, (kind, default) in STUDIES.get(command, {}).items():
            p.add_argument("--" + key.replace("_", "-"), type=_flag_type(kind),
                           help=f"{kind}, default {default}")
    return parser


def _assemble_run_config(args) -> RunConfig:
    """The config file's keys, overridden by the flags given, as one RunConfig."""
    values = {}
    if args.config is not None:
        try:
            contents = Path(args.config).read_text()
        except OSError as exc:
            raise IoError(f"cannot read config file {args.config}: {exc}") from exc
        experiment, values = _read_config(contents)
        if experiment != args.command:
            raise ValidationError(
                f"config is for experiment {experiment!r} but the "
                f"{args.command!r} subcommand was invoked")
    flags = {key: getattr(args, key) for key in STUDIES.get(args.command, {})}
    flags.update(seed=args.seed, format=args.format, output_dir=args.out)
    values.update({key: value for key, value in flags.items() if value is not None})
    return _run_config(args.command, values)


def run_cli(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(SCHEMA_HELP, file=sys.stderr)
        return 64

    if args.command == "selftest":
        return run_selftest()

    try:
        run = _assemble_run_config(args)
        threads = _env_int("SUBGAUSS_THREADS", THREADS) if args.threads is None else args.threads
        if threads < 1:
            raise ValidationError(f"threads must be >= 1, got {threads}")
    except (SchemaError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        print(SCHEMA_HELP, file=sys.stderr)
        return 64
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        reports = run_experiments(run, threads=threads)
        all_passed = True
        for report in reports:
            paths = emit_report(report, run.format, run.output_dir, force=args.force,
                                run_config_echo=run.echo(), threads=threads)
            for path in paths:
                print(f"wrote {path}")
            n_fail = sum(1 for r in report.rows if not r.passed)
            print(f"{report.experiment}: {len(report.rows)} rows, "
                  f"{n_fail} bound violations")
            all_passed = all_passed and report.all_passed
        return 0 if all_passed else 1
    except SubgaussError as exc:  # IoError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
