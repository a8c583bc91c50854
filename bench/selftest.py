"""Self-test of the benchmark harness.

Usage (from the root of a checkout): python3 bench/selftest.py

* BENCHMARK.json names the workloads and metrics that run.py emits, with
  the same units.
* A tiny run of each workload (two cycles, the queries session cut to 40
  commands), untraced and traced, prints a result line with exactly the
  required keys and every named metric.
* A deliberately corrupted golden is reported as a failure, not a pass,
  and so is a golden command that raises an uncaught exception.

Takes about three minutes; exits non-zero on the first failed assertion.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import sys

import run

TINY_QUERIES = 40


def _result(argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    if code != 0:
        raise AssertionError(f"run.py {' '.join(argv)} exited {code}")
    return json.loads(out.getvalue().splitlines()[-1])


def _tiny(workload: str, trace: int) -> dict:
    return _result(["--workload", workload, "--seed", "1", "--seconds", "0",
                    "--trace", str(trace)])


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}", file=sys.stderr)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json lists the workloads of run.py")
    check(units[0] == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    check(units[1] == run.per_layer_units(), "BENCHMARK.json per_layer matches run.py")

    full_stream = run.query_stream
    run.query_stream = lambda seed, goldens: full_stream(seed, goldens)[:TINY_QUERIES]

    for workload in run.WORKLOADS:
        for trace in (0, 1):
            res = _tiny(workload, trace)
            check(set(res) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload} trace {trace}: result keys")
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            check(got == units[trace], f"{workload} trace {trace}: every metric, with units")
            check(all(math.isfinite(m["value"]) for m in res["metrics"].values()),
                  f"{workload} trace {trace}: finite values")
            check(res["correct"] and res["attempted"] > 0,
                  f"{workload} trace {trace}: correct")
            if trace == 0:
                check(all(m["value"] > 0 for m in res["metrics"].values()),
                      f"{workload}: end-to-end metrics are positive")

    # A command recorded as well-formed that raises (rank 0 escapes from
    # build_root_system at the defining commit) is a wrong answer, unlike
    # the same command in the malformed slice.
    raising = run.Op(["cells", "--space=A0:P1"],
                     {"kind": "query", "exit": 0, "stdout": ""})
    run.query_stream = lambda seed, goldens: [raising]
    res = _tiny("queries", 0)
    check(not res["correct"] and res["failed"] == res["attempted"],
          "a golden command that raises fails and makes the run incorrect")
    run.query_stream = lambda seed, goldens: full_stream(seed, goldens)[:TINY_QUERIES]

    goldens = run.load_goldens()
    corrupted = copy.deepcopy(goldens)
    corrupted["verify"]["beilinson:6 chi_only"]["det"] += 1
    for entries in corrupted["queries"].values():
        for e in entries:
            e["stdout"] += "corrupted\n"
    run.load_goldens = lambda: corrupted
    res = _tiny("verify-chi", 0)
    check(not res["correct"] and 3 * res["failed"] == res["attempted"],
          "a corrupted verify golden fails its operation (one of three) in every pass")
    res = _tiny("queries", 0)
    well_formed = sum(op.expect["kind"] == "query"
                      for op in run.query_stream(1, goldens))
    check(not res["correct"]
          and res["failed"] >= res["attempted"] // TINY_QUERIES * well_formed,
          "corrupted query goldens fail every well-formed command in every pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
