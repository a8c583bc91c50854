"""excol benchmark: end-to-end CLI workloads and a traced per-layer run.

Usage (from the root of a checkout):

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are described in bench/README.md.  Each run starts fresh worker
processes (bench/worker.py) that import excol from ``src/`` and execute
``excol.cli.main(argv)`` one command at a time (closed loop, one client).
A *cycle* is one fresh worker running the workload's commands: on verify-*
the cold pass, then the warm pass; on queries the cold pass alone.  A run
has at least two cycles, and more while the next one is expected to end
within S seconds; metrics are medians over the run's cycles.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced cycles and prints the per-layer metrics.  Every command
is checked against bench/goldens.json.  Human-readable results go to
stderr; stdout carries an environment record and, as its last line, the
JSON result.  The exit code is non-zero, with no result printed, when the
run cannot complete.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from typing import NamedTuple

from tracer import ATTRIBUTION, HIT_METRICS, MODULES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDENS = os.path.join(HERE, "goldens.json")

# A whole run must end well inside the 180 s a run is allowed.
RUN_DEADLINE_S = 170
# Set-up probes run before every cycle, so that the set-up samples span
# the run rather than its first second.
SETUP_PROBES_PER_CYCLE = 3
MIN_CYCLES = 2

VERIFY_WORKLOADS = {
    "verify-hom": [("igr26", "exact"), ("quadric:7", "exact"),
                   ("quadric:8", "exact"), ("quadric:9", "exact")],
    "verify-flag": [("symplectic:3", "exact")],
    "verify-chi": [("orthogonal:3", "chi_only"), ("symplectic:3", "chi_only"),
                   ("beilinson:6", "chi_only")],
}
WORKLOADS = (*VERIFY_WORKLOADS, "queries")

# A queries session takes one of every QUERY_GROUP recorded commands
# (998 of the 1,996), and about 5 % of it is malformed: about 1,050
# commands, so that p99 has ten commands beyond it.
QUERY_GROUP = 2
MALFORMED_PER_WELL_FORMED = 1 / 19

# Spaces of rank <= 4 over A/B/C/D: every non-empty set of crossed nodes.
RANKS = {"A": (1, 2, 3, 4), "B": (2, 3, 4), "C": (2, 3, 4), "D": (3, 4)}


def _spaces() -> list[tuple[str, int, tuple[int, ...]]]:
    out = []
    for family, ranks in RANKS.items():
        for n in ranks:
            for bits in range(1, 2**n):
                out.append((family, n, tuple(i + 1 for i in range(n) if bits >> i & 1)))
    return out


SPACES = _spaces()


def space_name(family: str, n: int, crossed) -> str:
    return f"{family}{n}:P{','.join(map(str, crossed))}"


def coord_count(family: str, n: int) -> int:
    return n + 1 if family == "A" else n


def n_chain(family: str, n: int) -> int:
    """Nodes i whose simple root is e_i - e_(i+1)."""
    return n if family == "A" else n - 1


def verify_argv(builder: str, mode: str) -> list[str]:
    return ["verify", f"--builder={builder}", f"--mode={mode}", "--json"]


# --------------------------------------------------------------------------
# Worker processes


class Worker:
    """A fresh benchmark worker; ``setup_s`` is spawn-to-ready time."""

    def __init__(self, traced: bool = False) -> None:
        env = dict(os.environ)
        env.pop("EXCOL_CACHE_DIR", None)  # the disk cache is never used
        cmd = [sys.executable, "-I", os.path.join(HERE, "worker.py"), ROOT]
        if traced:
            cmd.append("--trace")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
            cwd=ROOT,
        )
        try:
            self.info = self._read()
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def request(self, obj: dict) -> dict:
        self.proc.stdin.write(json.dumps(obj) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------------
# Inputs


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


def _malformed(rng: random.Random) -> list[str]:
    """One command from a fixed grammar of mistakes; each must end in exit 2
    or 3 with a one-line ``error:`` message."""
    family, n, crossed = rng.choice(SPACES)
    good = space_name(family, n, crossed)
    zeros = ",".join(["0"] * coord_count(family, n))
    kind = rng.randrange(10)
    if kind == 0:  # space string that does not parse
        bad = rng.choice([
            good.replace(":", ""), good.lower(), "E" + good[1:], good.replace("P", "Q"),
            good.split(":")[0] + ":P", good + "x", "x" + good, good.replace(":P", ":"),
        ])
        return rng.choice([["cells", f"--space={bad}"], ["canonical", f"--space={bad}"],
                           ["bwb", f"--space={bad}", f"--weight={zeros}"]])
    if kind == 1:  # crossed node out of range
        bad = space_name(family, n, (rng.choice([0, n + 1]),))
        return rng.choice([["cells", f"--space={bad}"], ["canonical", f"--space={bad}"]])
    if kind == 2:  # rank 0
        bad = f"{rng.choice('ABCD')}0:P1"
        return rng.choice([["cells", f"--space={bad}"],
                           ["bwb", f"--space={bad}", "--weight=0"]])
    if kind == 3:  # D1, which is not a root system
        return rng.choice([["cells", "--space=D1:P1"], ["canonical", "--space=D1:P1"]])
    if kind == 4:  # wrong number of coordinates
        count = coord_count(family, n) + rng.choice([-1, 1])
        return ["bwb", f"--space={good}", f"--weight={','.join(['0'] * (count or 2))}"]
    if kind == 5:  # denominator beyond 2
        coords = ["0"] * coord_count(family, n)
        coords[0] = rng.choice(["1/3", "-1/3", "2/3", "1/4", "3/5"])
        return ["bwb", f"--space={good}", f"--weight={','.join(coords)}"]
    if kind == 6:  # mixed integer and half-integer coordinates in type B or D
        family, n, crossed = rng.choice([s for s in SPACES if s[0] in "BD"])
        coords = ["1/2"] + ["0"] * (n - 1)
        rng.shuffle(coords)
        return ["bwb", f"--space={space_name(family, n, crossed)}",
                f"--weight={','.join(coords)}"]
    if kind == 7:  # not dominant for the Levi: -1, 1 across an uncrossed node
        family, n, crossed = rng.choice([
            s for s in SPACES
            if any(i not in s[2] for i in range(1, n_chain(s[0], s[1]) + 1))
        ])
        node = rng.choice([i for i in range(1, n_chain(family, n) + 1) if i not in crossed])
        coords = ["0"] * coord_count(family, n)
        origin = ",".join(coords)
        coords[node - 1], coords[node] = "-1", "1"
        space = space_name(family, n, crossed)
        return rng.choice([
            ["bwb", f"--space={space}", f"--weight={','.join(coords)}"],
            ["hom", f"--space={space}", f"--from={origin}", f"--to={','.join(coords)}"],
        ])
    if kind == 8:  # unknown bundle name
        name = rng.choice(["Q(3)", "V*", "O[2]", "S^U", "Lambda2U", "O(x)", "T(-1)"])
        return ["hom", f"--space={good}", f"--from={name}", f"--to={zeros}"]
    # base that is not a quotient of the total space
    family, n, crossed = rng.choice([s for s in SPACES if len(s[2]) < s[1]])
    other = rng.choice([i for i in range(1, n + 1) if i not in crossed])
    return ["push", f"--space={space_name(family, n, crossed)}",
            f"--base={space_name(family, n, (other,))}",
            f"--bundle={','.join(['0'] * coord_count(family, n))}"]


class Op(NamedTuple):
    """One command and what its outcome must be."""

    argv: list[str]
    expect: dict


def query_stream(seed: int, goldens: dict) -> list[Op]:
    """One interactive session: one command of every recorded group, plus
    about 5 % malformed commands, in seeded order.

    The pool of each command kind is sorted by recorded cost and cut into
    groups of QUERY_GROUP neighbours, so every seed draws a different
    stream with the same mix of cheap and expensive commands.
    """
    rng = random.Random(f"queries:{seed}")
    ops = []
    for entries in goldens["queries"].values():
        for i in range(0, len(entries), QUERY_GROUP):
            e = rng.choice(entries[i:i + QUERY_GROUP])
            ops.append(Op(e["argv"], e))
    bad = round(len(ops) * MALFORMED_PER_WELL_FORMED)
    ops += [Op(_malformed(rng), {"kind": "malformed"}) for _ in range(bad)]
    rng.shuffle(ops)
    return ops


def cycle_ops(workload: str, rng: random.Random, goldens: dict, stream) -> list[Op]:
    if workload == "queries":
        return stream
    ops = [Op(verify_argv(b, m), goldens["verify"][f"{b} {m}"])
           for b, m in VERIFY_WORKLOADS[workload]]
    rng.shuffle(ops)
    return ops


# --------------------------------------------------------------------------
# Checks

VERIFY_FIELDS = ("summary", "verdict", "gram", "det", "thread")


def check(op: Op, result: list) -> str:
    """'ok', 'wrong', or 'crash': a malformed command that escaped as an
    uncaught exception instead of an ``error:`` line.  An uncaught exception
    from a verify operation or a well-formed query is 'wrong'."""
    code, out, err, _, crash = result
    exp = op.expect
    if crash is not None:
        return "crash" if exp["kind"] == "malformed" else "wrong"
    if exp["kind"] == "malformed":
        lines = err.strip().splitlines()
        good = code in (2, 3) and not out and len(lines) == 1 and lines[0].startswith("error:")
        return "ok" if good else "wrong"
    if code != exp["exit"]:
        return "wrong"
    if exp["kind"] == "query":
        return "ok" if out == exp["stdout"] else "wrong"
    try:
        doc = json.loads(out)
    except ValueError:
        return "wrong"
    return "ok" if all(doc.get(f) == exp[f] for f in VERIFY_FIELDS) else "wrong"


# --------------------------------------------------------------------------
# Measurement


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def passes_per_cycle(workload: str) -> int:
    """A verify-* cycle is a cold pass and a warm pass.  A queries cycle is
    the cold pass alone: a replay of a session with every memo filled is not
    the low-reuse traffic the workload stands for."""
    return 1 if workload == "queries" else 2


def run_cycle(ops: list[Op], n_passes: int, traced: bool, tally: dict) -> dict:
    """Fresh worker, ``n_passes`` passes over ``ops``; every result is checked."""
    argvs = [op.argv for op in ops]
    with Worker(traced) as w:
        passes = [w.request({"pass": argvs}) for _ in range(n_passes)]
        stats = w.request({"stats": True})
    for p in passes:
        for op, res in zip(ops, p["results"]):
            status = check(op, res)
            tally[status] += 1
            if status != "ok" and len(tally["examples"]) < 5:
                tally["examples"].append(f"{status}: {' '.join(op.argv)} -> exit {res[0]}"
                                         f" {(res[4] or res[2]).strip()[:120]!r}")
    # A command can occur more than once in a pass (a malformed one, say).
    seen: Counter = Counter()
    keys = []
    for argv in argvs:
        keys.append((tuple(argv), seen[tuple(argv)]))
        seen[tuple(argv)] += 1
    return {
        "setup_s": w.setup_s,
        "latencies": [dict(zip(keys, (r[3] for r in p["results"]))) for p in passes],
        "cycle_s": sum(p["wall"] for p in passes),
        "cpu_s": sum(p["cpu"] for p in passes),
        "peak_rss_mb": stats["maxrss_kb"] / 1024,
        "trace": stats["trace"],
        "info": w.info,
    }


def end_to_end(cycles: list[dict], setups: list[float], pooled: bool) -> dict[str, float]:
    """End-to-end values from untraced cycles.

    A command's latency is its median over the cycles, which keeps a burst
    of load on the shared machine during one cycle out of the result.
    cold_s and warm_s sum those latencies over the workload's commands.

    With ``pooled`` (queries) the percentiles are taken over every
    cold-pass latency of every cycle, as commands were served: the pooled
    p99 has about 20 commands beyond it and is steadier than one cycle's.
    Otherwise a cycle has only one to four verify operations, whose pooled
    p99 would be the single slowest sample; each cycle's percentile is
    taken instead, and its median over the cycles.

    Every run must report every metric.  Where a metric does not apply it
    is derived from the cold pass: warm_s on queries (no warm pass) equals
    cold_s, and on verify-* the query_* metrics are taken over the few
    verify operations.
    """
    med = statistics.median
    keys = list(cycles[0]["latencies"][0])
    cold, warm = (
        [med(c["latencies"][i][k] for c in cycles) for k in keys]
        for i in (0, -1)
    )
    served = [list(c["latencies"][0].values()) for c in cycles]
    if pooled:
        served = [[v for cycle in served for v in cycle]]
    return {
        "setup_s": med(setups),
        "cold_s": sum(cold),
        "warm_s": sum(warm),
        "queries_per_s": len(keys) / sum(cold),
        "query_p50_ms": 1000 * med(percentile(v, 50) for v in served),
        "query_p99_ms": 1000 * med(percentile(v, 99) for v in served),
        "peak_rss_mb": med(c["peak_rss_mb"] for c in cycles),
    }


END_TO_END = {
    "setup_s": "s", "cold_s": "s", "warm_s": "s", "queries_per_s": "1/s",
    "query_p50_ms": "ms", "query_p99_ms": "ms", "peak_rss_mb": "MB",
}

# Functions with per-layer metrics: calls and self_frac, plus the share
# named in tracer.HIT_METRICS where there is one.
LAYER_FUNCTIONS = (
    "characters.tensor_decompose", "characters.irrep_character", "characters.weyl_dim",
    "roots.is_dominant", "roots.weyl_orbit", "roots.plain_dominantize",
    "roots.make_dominant_dot", "roots.subsystem", "roots.parabolic_cell_count",
    "homcalc.thread_check", "homcalc.serre_operator", "homcalc.chi_line",
    "homcalc.euler_pairing", "homcalc.kclass_of", "homcalc.gram_matrix",
    "bwb.cohomology", "bwb.graded_hom", "bwb.space_from_string", "bwb.bundle_weight",
    "collections.verify", "cli.main",
)


def per_layer_units() -> dict[str, str]:
    units = {}
    for fn in LAYER_FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_frac"] = "frac"
        if fn in HIT_METRICS:
            units[f"{fn}.{HIT_METRICS[fn]}"] = "frac"
    for mod in MODULES:
        units[f"{mod}.self_frac"] = "frac"
        units[f"{mod}.raised"] = "count"
    units["traced_cpu_s"] = "s"
    units["trace_overhead_frac"] = "frac"
    return units


def layer_values(cycle: dict) -> dict[str, float]:
    """Per-layer values of one traced cycle (all its passes together)."""
    trace, cpu = cycle["trace"], cycle["cpu_s"]
    out: dict[str, float] = {}
    for fn in LAYER_FUNCTIONS:
        calls, self_s, _, hits = trace.get(fn, [0, 0.0, 0, 0])
        out[f"{fn}.calls"] = calls
        out[f"{fn}.self_frac"] = self_s / cpu
        if fn in HIT_METRICS:
            out[f"{fn}.{HIT_METRICS[fn]}"] = hits / calls if calls else 0.0
    for mod in MODULES:
        rows = [v for name, v in trace.items() if name.startswith(mod + ".")]
        out[f"{mod}.self_frac"] = sum(r[1] for r in rows) / cpu
        out[f"{mod}.raised"] = sum(r[2] for r in rows)
    out["traced_cpu_s"] = cpu
    return out


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Medians over the traced cycles, plus the overhead of tracing."""
    med = statistics.median
    per_cycle = [layer_values(c) for c in traced]
    out = {k: med(v[k] for v in per_cycle) for k in per_cycle[0]}
    out["trace_overhead_frac"] = (
        med(c["cycle_s"] for c in traced) / med(c["cycle_s"] for c in plain) - 1
    )
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            goldens: dict, tally: dict) -> tuple[list, list, list, dict]:
    """Run cycles for about ``seconds``: untraced ones, and with ``trace``
    a traced one after each.  Returns (untraced cycles, traced cycles,
    set-up times, environment record)."""
    start = time.monotonic()
    rng = random.Random(f"{workload}:{seed}")
    stream = query_stream(seed, goldens) if workload == "queries" else None
    n_passes = passes_per_cycle(workload)
    setups = []
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        t0 = time.monotonic()
        for _ in range(SETUP_PROBES_PER_CYCLE):
            with Worker() as w:
                setups.append(w.setup_s)
        ops = cycle_ops(workload, rng, goldens, stream)
        plain.append(run_cycle(ops, n_passes, False, tally))
        if trace:
            traced.append(run_cycle(ops, n_passes, True, tally))
        now = time.monotonic()
        # Start another cycle only if it is expected to end in time, so a
        # run lasts about ``seconds``; a median needs two cycles at least.
        enough = len(plain) + len(traced) >= MIN_CYCLES
        if enough and now + (now - t0) > start + seconds:
            break
    setups += [c["setup_s"] for c in plain]
    info = plain[0]["info"]
    env = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": info["python"],
        "cpu_count": info["cpu_count"],
        "verify_jobs": info["cpu_count"],
        "excol_cache_dir": "unset",
        "cycles": len(plain),
        "traced_cycles": len(traced),
        "setup_samples": len(setups),
        "passes_per_cycle": n_passes,
        "commands_per_pass": len(plain[0]["latencies"][0]),
    }
    return plain, traced, setups, env


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "excol")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _timeout(signum, frame):
    raise TimeoutError(f"run exceeded {RUN_DEADLINE_S} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(RUN_DEADLINE_S)
    tally = {"ok": 0, "wrong": 0, "crash": 0, "examples": []}
    try:
        goldens = load_goldens()
        plain, traced, setups, env = measure(args.workload, args.seed, args.seconds,
                                             bool(args.trace), goldens, tally)
    except (OSError, ValueError, KeyError, RuntimeError, TimeoutError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    if args.trace:
        values, units = per_layer(plain, traced), per_layer_units()
    else:
        values = end_to_end(plain, setups, pooled=args.workload == "queries")
        units = END_TO_END
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    attempted = tally["ok"] + tally["wrong"] + tally["crash"]
    failed = tally["wrong"] + tally["crash"]
    env["failed_frac"] = failed / attempted
    log = sys.stderr
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}", file=log)
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}", file=log)
    print(f"  attempted {attempted}  failed {failed} (failed_frac {env['failed_frac']:.4f}:"
          f" {tally['wrong']} wrong, {tally['crash']} malformed escaped as exceptions)", file=log)
    for line in tally["examples"]:
        print(f"    {line}", file=log)
    print(f"  correct: {tally['wrong'] == 0}", file=log)
    if args.trace:
        print("  time of unwrapped code is self time of:", file=log)
        for helper, owner in ATTRIBUTION.items():
            print(f"    {helper} -> {owner}", file=log)
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": tally["wrong"] == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
