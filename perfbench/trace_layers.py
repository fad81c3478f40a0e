"""Spans around the calls into each layer of subgauss, recorded from outside.

`Tracer.install()` wraps the functions at the module boundaries listed in
TARGETS and rebinds every reference to them held by a subgauss module (for
example `experiments` imports `_orlicz_estimate` and `mgf_sigma` by name).
Each call records a span (name, start, end, parent index) plus the work it
did as counts, in memory; `dump()` returns them when the run ends.  A target
that no longer exists is listed as missing, so a refactor of the program does
not break the benchmark.  `layer_metrics()` turns a dump into the per-layer
metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

import numpy as np


def _rows(x) -> int:
    return int(np.shape(x)[0])


def _support(args, kwargs, result):
    return {"support_points": len(result[0])}


def _resample(args, kwargs, result):
    return {"cells": int(np.size(result))}


def _roots(args, kwargs, result):
    return {"cells": int(np.size(args[1]))}


def _directions(args, kwargs, result):
    return {"directions": _rows(result)}


def _scan_rows(args, kwargs, result):
    return {"rows": _rows(args[0])}


def _vector_rows(args, kwargs, result):
    return {"rows": int(args[0].count)}


def _draws(args, kwargs, result):
    cov, count = args[0], int(args[1])
    return {"draws": count, "flop": 2.0 * count * cov.dim * cov.dim}


def _map_elements(args, kwargs, result):
    return {"elements": int(np.size(args[1]))}  # args[0] is the BoundedMap


def _report_bytes(args, kwargs, result):
    return {"bytes": sum(p.stat().st_size for p in result)}


_COVARIANCE = "gaussian_core.CovarianceSpec."

# (module, attribute path, counter of the work done by one call)
TARGETS = (
    ("gaussian_core", "sample_gaussian", _draws),
    ("gaussian_core", "_fill_chunks", None),
    *(("gaussian_core", "CovarianceSpec." + ctor, None)
      for ctor in ("from_matrix", "from_factors", "identity", "scaled_identity",
                   "diagonal", "rank_one_ones", "wishart_of")),
    ("nonlinearity", "BoundedMap.__call__", _map_elements),
    ("psi2_estimation", "direction_set", _directions),
    ("psi2_estimation", "_orlicz_estimate", None),
    ("psi2_estimation", "_compress", _support),
    ("psi2_estimation", "_resample_counts", _resample),
    ("psi2_estimation", "_orlicz_roots", _roots),
    ("psi2_estimation", "mgf_sigma", None),
    ("psi2_estimation", "psi2_vector", _vector_rows),
    ("experiments", "_scan", _scan_rows),
    *(("experiments", runner, None)
      for runner in ("run_theorem_experiment", "run_corollary_experiment",
                     "run_wishart_conditioning", "run_counterexample")),
    ("cli_report", "_assemble_run_config", None),
    ("cli_report", "emit_report", _report_bytes),
)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent, counts]
        self.missing = []
        self._local = threading.local()

    def _wrap(self, name, func, counter):
        spans, local = self.spans, self._local

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            index = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    span[4] = counter(args, kwargs, result)
                except Exception as exc:  # a changed signature must not fail the run
                    span[4] = {"counter_error": repr(exc)}
            return result

        return wrapper

    def install(self) -> None:
        modules = {name: importlib.import_module("subgauss." + name)
                   for name in {t[0] for t in TARGETS}}
        holders = [m for key, m in sys.modules.items()
                   if m is not None and (key == "subgauss" or key.startswith("subgauss."))]
        for module_name, path, counter in TARGETS:
            name = f"{module_name}.{path}"
            owner, _, attr = path.rpartition(".")
            owner = getattr(modules[module_name], owner, None) if owner else modules[module_name]
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(name)
                continue
            if isinstance(owner, type):
                if isinstance(raw, classmethod):
                    # cls is the first positional argument of the wrapped function
                    wrapped = classmethod(self._wrap(name, raw.__func__, counter))
                else:
                    wrapped = self._wrap(name, raw, counter)
                setattr(owner, attr, wrapped)
                continue
            wrapped = self._wrap(name, raw, counter)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is raw:
                        setattr(holder, key, wrapped)

    def dump(self) -> dict:
        return {"spans": self.spans, "missing": self.missing}


# Layer metrics -----------------------------------------------------------------

# Layers that do work on each workload; zero calls there is a trace error.
REQUIRED = {
    "theorem": ("gaussian_core.sample_gaussian", "nonlinearity.BoundedMap.__call__",
                "experiments._scan", "psi2_estimation.direction_set",
                "psi2_estimation._orlicz_estimate", "psi2_estimation._compress",
                "psi2_estimation._resample_counts", "psi2_estimation._orlicz_roots",
                "psi2_estimation.mgf_sigma", "experiments.run_theorem_experiment"),
    "counterexample": ("gaussian_core.sample_gaussian", "psi2_estimation.psi2_vector",
                       "psi2_estimation.direction_set", "psi2_estimation._orlicz_estimate",
                       "psi2_estimation._compress", "psi2_estimation._resample_counts",
                       "psi2_estimation._orlicz_roots", "experiments.run_counterexample"),
    "wishart": ("gaussian_core.CovarianceSpec.wishart_of",
                "experiments.run_wishart_conditioning"),
}
COMMON_REQUIRED = ("cli_report._assemble_run_config", "cli_report.emit_report")


def layer_metrics(dump: dict, workload: str) -> tuple[dict, list]:
    """(metric name -> value, trace errors) for one traced run."""
    spans = dump["spans"]
    missing = set(dump["missing"])
    children = [[] for _ in spans]
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)
        if span[3] is not None:
            children[span[3]].append(i)

    def duration(i):
        return spans[i][2] - spans[i][1]

    def select(name):
        return by_name.get(name, [])

    def total(name):
        return sum(duration(i) for i in select(name))

    def self_time(name):
        return sum(duration(i) - sum(duration(c) for c in children[i]) for i in select(name))

    def count(name, key):
        return sum((spans[i][4] or {}).get(key, 0) for i in select(name))

    def outermost(prefix):
        return [i for i, s in enumerate(spans) if s[0].startswith(prefix)
                and (s[3] is None or not spans[s[3]][0].startswith(prefix))]

    # Largest N x directions float64 projection built by a scan.
    projection = 0
    for scan in select("experiments._scan") + select("psi2_estimation.psi2_vector"):
        dirs = sum((spans[c][4] or {}).get("directions", 0) for c in children[scan]
                   if spans[c][0] == "psi2_estimation.direction_set")
        projection = max(projection, (spans[scan][4] or {}).get("rows", 0) * dirs * 8)

    covariances = outermost(_COVARIANCE)
    study_s = sum(total(f"experiments.{r}") for r in (
        "run_theorem_experiment", "run_corollary_experiment",
        "run_wishart_conditioning", "run_counterexample"))
    metrics = {
        "psi2_estimation.root_solve_s": total("psi2_estimation._orlicz_roots"),
        "psi2_estimation.root_solve_cells": count("psi2_estimation._orlicz_roots", "cells"),
        "psi2_estimation.resample_s": total("psi2_estimation._resample_counts"),
        "psi2_estimation.resample_cells": count("psi2_estimation._resample_counts", "cells"),
        "psi2_estimation.compress_s": total("psi2_estimation._compress"),
        "psi2_estimation.compress_calls": len(select("psi2_estimation._compress")),
        "psi2_estimation.support_points": count("psi2_estimation._compress", "support_points"),
        "psi2_estimation.mgf_s": total("psi2_estimation.mgf_sigma"),
        "psi2_estimation.mgf_fits": len(select("psi2_estimation.mgf_sigma")),
        "psi2_estimation.orlicz_estimate_s": total("psi2_estimation._orlicz_estimate"),
        "psi2_estimation.orlicz_estimates": len(select("psi2_estimation._orlicz_estimate")),
        "psi2_estimation.direction_set_s": total("psi2_estimation.direction_set"),
        "psi2_estimation.directions": count("psi2_estimation.direction_set", "directions"),
        "psi2_estimation.vector_s": total("psi2_estimation.psi2_vector"),
        "psi2_estimation.vector_self_s": self_time("psi2_estimation.psi2_vector"),
        "experiments.scan_s": total("experiments._scan"),
        "experiments.scan_self_s": self_time("experiments._scan"),
        "experiments.projection_mb": projection / 2**20,
        "experiments.study_s": study_s,
        "gaussian_core.sample_s": total("gaussian_core.sample_gaussian"),
        "gaussian_core.fill_chunks_s": total("gaussian_core._fill_chunks"),
        "gaussian_core.draws": count("gaussian_core.sample_gaussian", "draws"),
        "gaussian_core.sample_gflop": count("gaussian_core.sample_gaussian", "flop") / 1e9,
        "gaussian_core.covariance_s": sum(duration(i) for i in covariances),
        "gaussian_core.covariances": len(covariances),
        "nonlinearity.map_s": total("nonlinearity.BoundedMap.__call__"),
        "nonlinearity.map_elements": count("nonlinearity.BoundedMap.__call__", "elements"),
        "cli_report.config_s": total("cli_report._assemble_run_config"),
        "cli_report.emit_s": total("cli_report.emit_report"),
        "cli_report.report_bytes": count("cli_report.emit_report", "bytes"),
        "trace.spans": len(spans),
        "trace.missing_targets": len(missing),
    }
    errors = [f"layer {name} recorded no calls on {workload}"
              for name in REQUIRED[workload] + COMMON_REQUIRED
              if name not in missing and not select(name)]
    errors += sorted({f"counter of {s[0]} failed: {s[4]['counter_error']}"
                      for s in spans if s[4] and "counter_error" in s[4]})
    return metrics, errors
