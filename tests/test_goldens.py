"""Every benchmark golden, replayed through the command line.

bench/goldens.json holds the verify goldens and the 1,996-command query
pool recorded when the benchmark was defined.  Replaying them here makes
byte-identical output a standing test: each verify golden must give the
same exit code, summary, verdict, Gram matrix, determinant and thread
verdict, and each query the same exit code and exact stdout.  The file is
only read.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from excol.cli import main

GOLDENS = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "goldens.json").read_text()
)
VERIFY_FIELDS = ("summary", "verdict", "gram", "det", "thread")


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDENS["verify"]))
def test_verify_golden(name):
    builder, mode = name.split()
    expected = GOLDENS["verify"][name]
    code, out = _run(["verify", f"--builder={builder}", f"--mode={mode}", "--json"])
    assert code == expected["exit"]
    doc = json.loads(out)
    assert {f: doc[f] for f in VERIFY_FIELDS} == {f: expected[f] for f in VERIFY_FIELDS}


@pytest.mark.parametrize("kind", sorted(GOLDENS["queries"]))
def test_query_goldens(kind):
    entries = GOLDENS["queries"][kind]
    assert entries
    mismatches = []
    for entry in entries:
        code, out = _run(entry["argv"])
        if (code, out) != (entry["exit"], entry["stdout"]):
            mismatches.append((entry["argv"], code, out))
    assert not mismatches, f"{len(mismatches)} of {len(entries)} differ, first {mismatches[0]}"
