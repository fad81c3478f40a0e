"""Command-line front end: config ingestion, dispatch, and report emission.

Config files are strict-schema JSON: unknown keys are rejected so a typo can
never silently corrupt a study.  CSV is the primary tabular output (one row
per report row plus a long-format curves file); a JSON sidecar carries the
versions and the report's `metadata`, whose experiment, seed and config read
back as a config file that re-runs the study.  The sidecar is the same for the
same run, whatever its output directory, apart from its `run_env` block (the
wall-clock time and the thread count).

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
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import IoError, SchemaError, SubgaussError, ValidationError, check_count
from .experiments import (
    DEFAULT_SEED,
    CorollaryConfig,
    CounterexampleConfig,
    ExperimentReport,
    ReportRow,
    TheoremConfig,
    WishartConfig,
    run_corollary_experiment,
    run_counterexample,
    run_theorem_experiment,
    run_wishart_conditioning,
)
from .gaussian_core import THREADS, substream
from .psi2_estimation import psi2_scalar

# Each study's config class is its parameter table: its fields but seed are the
# study's keys (and flags, --w-draws for w_draws), with their defaults, and its
# docstring is the study's help line.  Limits are checked when a config is built.
STUDIES = {"theorem": TheoremConfig, "corollary": CorollaryConfig,
           "wishart": WishartConfig, "counterexample": CounterexampleConfig}
DEFAULTS = {name: {f.name: f.default for f in fields(cls) if f.name != "seed"}
            for name, cls in STUDIES.items()}
# The kind of every key: "int", "num" (an int or a float), "str" or a list of
# one of these ("[int]").  It alone fixes the JSON type check, the flag's parse,
# the value a config field is given and the help line.
KINDS = {"dims": "[int]", "kappas": "[num]", "maps": "[str]", "samples": "int",
         "directions": "int", "w_draws": "int", "trials": "int", "threshold": "num",
         "seed": "int", "format": "str", "output_dir": "str"}
_COMMON = ("seed", "format", "output_dir")  # every experiment's keys
_TYPES = {"int": ((int,), int), "num": ((int, float), float), "str": ((str,), str)}
EXPERIMENTS = (*STUDIES, "all")

SCHEMA_HELP = "\n".join([
    "Config file schema (strict JSON object; unknown keys are errors):",
    f"  common:          experiment (one of {', '.join(EXPERIMENTS)}),\n{'':19}"
    + ", ".join(f"{key} ({KINDS[key]})" for key in _COMMON),
    *(f"  {name + ':':<17}" + ", ".join(
        f"{key} {KINDS[key]}" if KINDS[key].startswith("[") else f"{key} ({KINDS[key]})"
        for key in params) for name, params in DEFAULTS.items()),
    "A num is an int or a float, never a bool.  An error names the limit it breaks.", ""])


def _check_kind(key: str, value) -> None:
    kind = KINDS[key]
    types = _TYPES[kind.strip("[]")][0]
    items = value if kind.startswith("[") else [value]
    if not isinstance(items, list) or any(
            isinstance(v, bool) or not isinstance(v, types) for v in items):
        raise ValidationError(f"key {key!r} must be {kind}, got {value!r}")


def _flag_type(kind: str):
    parse = _TYPES[kind.strip("[]")][1]
    if not kind.startswith("["):
        return parse

    def parse_list(text: str) -> list:
        return [parse(tok) for tok in text.split(",") if tok]

    parse_list.__name__ = kind  # argparse names the type in its error message
    return parse_list


def _field_value(key: str, value):
    """A checked key's value as its config field holds it: lists as tuples, nums as floats."""
    parse = _TYPES[KINDS[key].strip("[]")][1]
    return tuple(map(parse, value)) if isinstance(value, list) else parse(value)


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError as exc:
        raise ValidationError(f"{name} must be an integer, got {os.environ[name]!r}") from exc


@dataclass(frozen=True)
class RunConfig:
    """A validated run: each study's built config and the run's output options."""
    configs: dict
    output_dir: str
    format: str


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
    keys = (*DEFAULTS.get(experiment, ()), *_COMMON)
    for key, value in doc.items():
        if key not in keys:
            raise SchemaError(f"unknown key {key!r} for experiment {experiment!r}")
        _check_kind(key, value)
    return experiment, doc


def _run_config(experiment: str, values: dict) -> RunConfig:
    """Build every study config of a run from its type-checked keys, checking each."""
    seed = values.pop("seed", None)
    format = values.pop("format", "csv")
    output_dir = values.pop("output_dir", "out")
    if format not in ("csv", "json"):
        raise ValidationError(f"format must be 'csv' or 'json', got {format!r}")
    if seed is None:
        seed = _env_int("SUBGAUSS_SEED", DEFAULT_SEED)
    params = {key: _field_value(key, value) for key, value in values.items()}
    names = STUDIES if experiment == "all" else (experiment,)
    return RunConfig({name: STUDIES[name](**params, seed=seed) for name in names},
                     output_dir, format)


def parse_config(file_contents: str) -> RunConfig:
    """Parse a strict-schema JSON config into a validated RunConfig."""
    return _run_config(*_read_config(file_contents))


def run_experiments(run: RunConfig, *, threads: int = THREADS) -> list[ExperimentReport]:
    # The runners are looked up at each call, so a rebound module name (a
    # tracer's wrapper, say) is the one that runs.
    runners = {
        "theorem": lambda cfg: run_theorem_experiment(cfg, threads=threads),
        "corollary": lambda cfg: run_corollary_experiment(cfg, threads=threads),
        "wishart": run_wishart_conditioning,
        "counterexample": lambda cfg: run_counterexample(cfg, threads=threads),
    }
    return [runners[name](cfg) for name, cfg in run.configs.items()]


# Report emission --------------------------------------------------------------

_CSV_COLUMNS = (*(f.name for f in fields(ReportRow)), "pass")  # ReportRow.as_dict's keys


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def report_paths(experiment: str, format: str, output_dir) -> list[Path]:
    """The files a report is written to: csv rows, sidecar and curves, or one json."""
    out = Path(output_dir)
    if format == "json":
        return [out / f"{experiment}.json"]
    return [out / f"{experiment}{suffix}" for suffix in (".csv", ".json", "_curves.csv")]


def _prepare_target(path: Path, force: bool) -> None:
    if path.exists() and not force:
        raise IoError(f"refusing to overwrite {path} without --force")


def emit_report(report: ExperimentReport, format: str, output_dir, *,
                force: bool = False, threads: int | None = None) -> list[Path]:
    """Write the report and return the created paths.

    csv format: <experiment>.csv (one row per report row), <experiment>.json
    sidecar with the report's metadata (experiment, seed and config, which
    read back as a config file) and versions, and <experiment>_curves.csv in
    long format for value-vs-n plots.  json format: a single file that also
    embeds the rows.
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

    paths = report_paths(report.experiment, format, out)
    for target in paths:
        _prepare_target(target, force)
    try:
        if format == "json":
            sidecar["rows"] = [r.as_dict() for r in report.rows]
            paths[0].write_text(json.dumps(sidecar, indent=2, sort_keys=True,
                                           default=np.generic.item) + "\n")
            return paths

        csv_path, json_path, curves_path = paths
        with open(csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(_CSV_COLUMNS)
            for r in report.rows:
                writer.writerow([_fmt(v) for v in r.as_dict().values()])
        json_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True,
                                        default=np.generic.item) + "\n")
        with open(curves_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("experiment", "series", "n", "value"))
            for r in report.rows:
                if r.n is not None:
                    writer.writerow([_fmt(v) for v in
                                     (r.experiment, r.estimator, r.n, r.value)])
    except OSError as exc:
        raise IoError(f"failed writing report files in {out}: {exc}") from exc
    return paths


# Self test ----------------------------------------------------------------------

def run_selftest() -> int:
    """Closed-form oracle suite; returns 0 when every check passes."""
    t_start = time.time()
    checks = []

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


def build_parser() -> _Parser:
    parser = _Parser(prog="subgauss", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in EXPERIMENTS:
        study = STUDIES.get(command)
        p = sub.add_parser(command, help=study.__doc__ if study else
                           "Run all four studies with defaults.")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int,
                       help=f"master seed (default: SUBGAUSS_SEED or {DEFAULT_SEED})")
        p.add_argument("--out", help="output directory")
        p.add_argument("--format", choices=("csv", "json"))
        p.add_argument("--force", action="store_true", help="overwrite existing output files")
        p.add_argument("--threads", type=int, help="worker threads (speed only, never results)")
        for key, default in DEFAULTS.get(command, {}).items():
            text = ",".join(map(str, default)) if isinstance(default, tuple) else default
            p.add_argument("--" + key.replace("_", "-"), type=_flag_type(KINDS[key]),
                           help=f"{KINDS[key]}, default {text}")
    sub.add_parser("selftest", help="Closed-form oracle suite.")
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
    flags = {key: getattr(args, key) for key in DEFAULTS.get(args.command, {})}
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
        check_count("threads", threads, 1)
    except (SchemaError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        print(SCHEMA_HELP, file=sys.stderr)
        return 64
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        for name in run.configs:  # refuse before any study runs, not after all of them
            for path in report_paths(name, run.format, run.output_dir):
                _prepare_target(path, args.force)
        reports = run_experiments(run, threads=threads)
        all_passed = True
        for report in reports:
            paths = emit_report(report, run.format, run.output_dir, force=args.force,
                                threads=threads)
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
