"""One measured benchmark operation, run in a fresh process by ``run.py``.

    child.py setup SCENARIO FLAGS_JSON
        import jumpguard, call ``cli.parse_config`` and print the monotonic
        clock reading at which it returned;
    child.py run CALLS_JSON [--trace]
        run ``jumpguard.cli.main`` once per call and print, as one JSON line,
        the wall time of the calls, the CPU time and peak RSS of the process,
        each call's exit code, and with ``--trace`` the per-layer report.

CALLS_JSON is a list of ``[scenario, flags, out_dir]``. ``jumpguard`` is
imported from the ``src/`` directory next to this benchmark, never from an
installed copy.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def import_cli():
    sys.path.insert(0, str(SRC))
    from jumpguard import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"jumpguard imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(scenario: str, flags: dict):
    cli = import_cli()
    cli.parse_config(scenario, None, flags)
    print(json.dumps({"done_at": time.monotonic()}))


def run(calls: list, trace: bool):
    sys.path.insert(0, str(HERE))
    from workloads import cli_argv

    cli = import_cli()
    tracer = None
    if trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    codes, error = [], None
    start = time.perf_counter()
    with redirect_stdout(sys.stderr):
        for scenario, flags, out_dir in calls:
            try:
                codes.append(cli.main(cli_argv(scenario, flags, out_dir)))
            except Exception:
                traceback.print_exc()
                error = f"{scenario} raised; traceback on stderr"
                break
    wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "codes": codes,
        "error": error,
    }
    if tracer is not None:
        out["layers"] = tracer.report(wall)
    print(json.dumps(out))


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(sys.argv[2], json.loads(sys.argv[3]))
    elif mode == "run":
        run(json.loads(sys.argv[2]), trace="--trace" in sys.argv[3:])
    else:
        sys.exit(f"unknown mode {mode!r}")
