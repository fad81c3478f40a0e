"""One study run in a fresh process, as started by run.py.

    python3 perfbench/child.py RESULT_JSON [--trace] [-- CLI ARGS...]

Without CLI args the process only imports `subgauss.cli_report` (a set-up
probe).  With them it calls `run_cli` exactly as the `subgauss` command would
and writes to RESULT_JSON: the monotonic time at which the import finished
(the parent subtracts its own spawn time to get `setup_s`), the wall time of
`run_cli`, this process's own peak RSS and CPU time, the exit code and, with
`--trace`, the recorded spans.
"""

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from subgauss import cli_report  # noqa: E402  (the import is what set-up measures)

READY = time.monotonic()


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> None:
    result_path = Path(argv[0])
    traced = len(argv) > 1 and argv[1] == "--trace"
    cli_args = argv[argv.index("--") + 1:] if "--" in argv else []
    result = {"ready": READY}
    if cli_args:
        tracer = None
        if traced:
            from trace_layers import Tracer  # noqa: PLC0415  (only traced runs pay for it)
            tracer = Tracer()
            tracer.install()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        code = cli_report.run_cli(cli_args)
        wall = time.perf_counter() - t0
        result.update(exit_code=code, wall_s=wall, cpu_s=_cpu_s() - cpu0)
        if tracer is not None:
            result.update(tracer.dump())
    # ru_maxrss is in KiB on Linux and covers this process alone.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result_path.write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
