"""Record bench/goldens.json: the expected outputs every benchmark run checks.

Usage (from the root of a checkout): python3 bench/record_goldens.py

Run it only on a commit whose answers are trusted; the file it writes is the
reference for every later commit.  It records:

* for each verify operation: exit code, summary, verdict, Gram matrix,
  determinant and thread verdict (not the wall time);
* the queries pool: well-formed commands drawn with a fixed seed, each with
  its exact stdout, exit code and cost in a fresh worker, sorted by that
  cost within each command kind (see ``query_stream`` in run.py).  A drawn
  command that the program rejects with an input error is left out of the
  pool, and printed and counted per kind.

It also runs the malformed-input grammar over many seeds and prints how
each kind of mistake ends, so that a grammar entry that is not really an
error would be noticed.
"""

from __future__ import annotations

import json
import os
import random
import sys
from collections import Counter
from fractions import Fraction

from run import (
    GOLDENS, ROOT, SPACES, VERIFY_FIELDS, VERIFY_WORKLOADS, Worker, _malformed,
    coord_count, space_name, verify_argv,
)

POOL_SEED = 612800
# Pool size per command kind, each a multiple of run.QUERY_GROUP.
POOL = {"bwb": 800, "hom": 800, "push": 100, "canonical": 100, "cells": 196}
NAMES = ["O", "O(1)", "O(-1)", "U", "U*", "U(1)", "U(-1)", "U*(1)", "U*(-1)"]


def _bundle(rng: random.Random, space, family: str, n: int, crossed) -> str:
    from excol import Weight, plain_dominantize

    if len(crossed) == 1 and rng.random() < 0.2:
        return rng.choice(NAMES)
    dim = coord_count(family, n)
    if family in "BD" and rng.random() < 0.3:
        coords = [Fraction(rng.choice((-1, 1)), 2) for _ in range(dim)]
    else:
        coords = [Fraction(rng.randint(-1, 1)) for _ in range(dim)]
    w = plain_dominantize(space.levi, Weight(tuple(coords)))
    return ",".join(str(c) for c in w.coords)


def _candidates(rng: random.Random, kind: str):
    from excol import space_from_string

    if kind == "cells":
        for family, n, crossed in SPACES:
            name = space_name(family, n, crossed)
            yield ["cells", f"--space={name}"]
            yield ["cells", f"--space={name}", "--json"]
        return
    while True:
        if kind == "push":
            family, n, crossed = rng.choice([s for s in SPACES if len(s[2]) > 1])
            base = rng.sample(crossed, rng.randrange(1, len(crossed)))
            argv = ["push", f"--space={space_name(family, n, crossed)}",
                    f"--base={space_name(family, n, sorted(base))}"]
        else:
            family, n, crossed = rng.choice(SPACES)
            argv = [kind, f"--space={space_name(family, n, crossed)}"]
        space = space_from_string(space_name(family, n, crossed))
        args = (rng, space, family, n, crossed)
        if kind == "bwb":
            argv.append(f"--weight={_bundle(*args)}")
        elif kind == "hom":
            argv += [f"--from={_bundle(*args)}", f"--to={_bundle(*args)}"]
        elif kind == "push":
            argv.append(f"--bundle={_bundle(*args)}")
        if rng.random() < 0.25:
            argv.append("--json")
        yield argv


def _run_alone(argv: list[str]) -> list:
    with Worker() as w:
        return w.request({"pass": [argv]})["results"][0]


def record_queries() -> dict[str, list[dict]]:
    rng = random.Random(POOL_SEED)
    pool = {}
    for kind, size in POOL.items():
        entries, seen, rejected = [], set(), 0
        for argv in _candidates(rng, kind):
            if len(entries) == size:
                break
            if tuple(argv) in seen:
                continue
            seen.add(tuple(argv))
            code, out, err, cost, crash = _run_alone(argv)
            if crash is None and code != 0:
                # A reported input error belongs to the malformed slice; a
                # generator that keeps hitting it, or a valid input the
                # program wrongly rejects, shows in this log and count.
                rejected += 1
                print(f"well-formed command rejected (exit {code}): {argv}:"
                      f" {err.strip()[:200]}", file=sys.stderr)
                continue
            if crash is not None:
                print(f"well-formed command raised: {argv}: {crash}", file=sys.stderr)
            entries.append({"kind": "query", "argv": argv, "exit": code,
                            "stdout": out, "cost_s": round(cost, 6)})
        assert len(entries) == size, f"pool for {kind} has only {len(entries)} commands"
        entries.sort(key=lambda e: e["cost_s"])
        pool[kind] = entries
        costs = [e["cost_s"] for e in entries]
        print(f"{kind:10s} {size} commands, total {sum(costs):.2f} s,"
              f" max {max(costs):.3f} s, {rejected} candidates rejected",
              file=sys.stderr)
    return pool


def record_verify() -> dict:
    out = {}
    for ops in VERIFY_WORKLOADS.values():
        for builder, mode in ops:
            code, stdout, _, cost, crash = _run_alone(verify_argv(builder, mode))
            assert crash is None, crash
            doc = json.loads(stdout)
            out[f"{builder} {mode}"] = {"kind": "verify", "exit": code,
                                        **{f: doc[f] for f in VERIFY_FIELDS}}
            print(f"verify {builder} {mode}: exit {code}, {cost:.2f} s: {doc['summary']}",
                  file=sys.stderr)
    return out


def survey_malformed(count: int = 2000) -> None:
    rng = random.Random(POOL_SEED)
    argvs = [_malformed(rng) for _ in range(count)]
    with Worker() as w:
        results = w.request({"pass": argvs})["results"]
    outcomes: Counter = Counter()
    examples: dict = {}
    for argv, (code, out, err, _, crash) in zip(argvs, results):
        lines = err.strip().splitlines()
        if crash:
            ending = crash.split(":")[0]
        elif code in (2, 3) and not out and len(lines) == 1 and lines[0].startswith("error:"):
            ending = f"exit {code}, one-line error"
        else:
            ending = f"exit {code}, unexpected output"
        outcomes[ending] += 1
        examples.setdefault(ending, " ".join(argv))
    for ending, n in sorted(outcomes.items()):
        print(f"malformed: {n:5d} x {ending}  (e.g. {examples[ending]})", file=sys.stderr)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    survey_malformed()
    goldens = {"verify": record_verify(), "queries": record_queries()}
    with open(GOLDENS, "w") as fh:
        json.dump(goldens, fh, indent=0)
        fh.write("\n")
    print(f"wrote {GOLDENS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
