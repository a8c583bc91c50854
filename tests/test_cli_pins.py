"""The collection commands, pinned byte for byte.

tests/cli_pins.json holds stdout, stderr and the exit code of build, gram,
mutate, thread and verify, plain and with --json, on five builders and on
one reversed document read from --stdin, and of the error paths of the
collection sources.  The goldens of bench/goldens.json cover only verify
and the query commands; these cover the rest.  verify's wall time is held
at zero so that its output is reproducible.  To record the file again,
from the code whose output it should hold:

    PYTHONPATH=src python tests/test_cli_pins.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import types
from pathlib import Path

import pytest

from excol import cli, collections

PINS_PATH = Path(__file__).resolve().parent / "cli_pins.json"
BUILDERS = ["beilinson:3", "quadric:5", "igr26", "symplectic:2", "orthogonal:2"]
REVERSED = "symplectic:2"


def _with_json(argv):
    return [argv, argv + ["--json"]]


def _source_commands(source):
    """gram, mutate, thread and verify on one collection source."""
    cases = []
    for method in ("chi", "ext"):
        cases += _with_json(["gram", *source, "--method", method])
    for side in ("left", "right"):
        cases += _with_json(["mutate", *source, "--index", "1", "--side", side])
    cases += _with_json(["thread", *source])
    for mode in ("exact", "chi_only"):
        cases += _with_json(["verify", *source, "--mode", mode])
    return cases


def cases(reversed_doc):
    """(argv, stdin text or None, files to write) for every pinned run."""
    out = []
    for name in BUILDERS:
        out += [(argv, None, {}) for argv in _with_json(["build", name])]
        out += [(argv, None, {}) for argv in _source_commands(["--builder", name])]
    out += [(argv, reversed_doc, {}) for argv in _source_commands(["--stdin"])]
    out += [(argv, None, {"reversed.json": reversed_doc}) for argv in _with_json(
        ["verify", "--file", "reversed.json"]
    )]
    out += [
        (["verify", "--builder", "igr26", "--stdin"], reversed_doc, {}),
        (["gram", "--builder", "igr26", "--file", "reversed.json"], None, {}),
        (["thread"], None, {}),
        (["verify", "--file", "missing.json"], None, {}),
        (["verify", "--stdin"], "{not json", {}),
        (["gram", "--file", "bad.json"], None, {"bad.json": "[1, 2"}),
        (["verify", "--builder", "mystery:3"], None, {}),
        (["build", "quadric"], None, {}),
        (["mutate", "--builder", "igr26", "--index", "11", "--side", "left"], None, {}),
        (["mutate", "--builder", "igr26", "--index", "-1", "--side", "left"], None, {}),
        (["thread", "--builder", "orthogonal:2", "--json"], None, {}),
    ]
    return out


def reversed_document():
    doc = collections.dump_collection(cli._builder_by_name(REVERSED))
    doc["objects"].reverse()
    doc["labels"].reverse()
    doc["provenance"] = f"{REVERSED} reversed"
    return json.dumps(doc)


def run_case(argv, stdin, files, directory):
    """Exit code, stdout and stderr of one run in directory, wall time zero."""
    for name, text in files.items():
        (directory / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, collections.time, os.getcwd()
    sys.stdin = io.StringIO(stdin or "")
    collections.time = types.SimpleNamespace(perf_counter=lambda: 0.0)
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin, collections.time = saved[:2]
        os.chdir(saved[2])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


PINS = json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else None


def test_the_pins_cover_every_case():
    assert PINS is not None
    expected = cases(PINS["reversed"])
    assert [[p["argv"], p["stdin"], p["files"]] for p in PINS["runs"]] == [
        list(c) for c in expected
    ]
    assert {p["exit"] for p in PINS["runs"]} == {0, 1, 2, 3}


@pytest.mark.parametrize(
    "pin", PINS["runs"] if PINS else [], ids=lambda pin: " ".join(pin["argv"])
)
def test_pinned_run(pin, tmp_path):
    got = run_case(pin["argv"], pin["stdin"], pin["files"], tmp_path)
    assert got == {f: pin[f] for f in ("exit", "stdout", "stderr")}


def record():
    doc = reversed_document()
    runs = []
    for argv, stdin, files in cases(doc):
        with tempfile.TemporaryDirectory() as tmp:
            got = run_case(argv, stdin, files, Path(tmp))
        runs.append({"argv": argv, "stdin": stdin, "files": files, **got})
    PINS_PATH.write_text(json.dumps({"reversed": doc, "runs": runs}, indent=1) + "\n")
    print(f"wrote {len(runs)} runs to {PINS_PATH}")


if __name__ == "__main__":
    record()
