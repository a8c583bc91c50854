"""Benchmark worker: runs excol CLI commands sent by bench/run.py.

Usage: python3 -I bench/worker.py ROOT [--trace]

ROOT is the checkout whose ``src/excol`` is imported.  The worker imports
excol, prints one ``ready`` line and then serves one JSON request per line
on stdin, one JSON reply per line on stdout:

  {"pass": [argv, ...]}  -> {"wall": s, "cpu": s, "results": [...]}
  {"stats": true}        -> {"maxrss_kb": n, "trace": {...} or null}

Each result is [exit code, stdout, stderr, seconds, uncaught exception or
null].  Commands run one at a time through ``excol.cli.main`` with stdout
and stderr captured, as the ``excol`` console script would run them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _run(main, argv: list[str]) -> list:
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # what the console script would print as a traceback
            code = 1
            crash = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        dt = time.perf_counter() - t0
    return [code, out.getvalue(), err.getvalue(), dt, crash]


def main() -> int:
    root = os.path.abspath(sys.argv[1])
    traced = "--trace" in sys.argv[2:]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import excol
    import excol.cli

    if not os.path.abspath(excol.__file__).startswith(src + os.sep):
        print(f"excol imported from {excol.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = None
    if traced:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    proto = sys.stdout
    proto.write(json.dumps({"ready": True, "python": sys.version.split()[0],
                            "cpu_count": os.cpu_count()}) + "\n")
    proto.flush()
    for line in sys.stdin:
        req = json.loads(line)
        if "pass" in req:
            cli_main = excol.cli.main
            c0, t0 = time.process_time(), time.perf_counter()
            results = [_run(cli_main, argv) for argv in req["pass"]]
            reply = {"wall": time.perf_counter() - t0,
                     "cpu": time.process_time() - c0, "results": results}
        else:
            reply = {"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     "trace": tracer.snapshot() if tracer else None}
        proto.write(json.dumps(reply) + "\n")
        proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
