"""One output path: commands return their renderings, main writes one.

Each _cmd_* in excol/cli.py returns its JSON document, its text and its exit
code, and main prints the rendering asked for.  A walk of the module's
syntax tree checks that no command calls print or touches sys.stdout, and
each subcommand's --json output must be one JSON document and one newline.
"""

import ast
import json
from pathlib import Path

import pytest

from excol import cli

JSON_RUNS = {
    "bwb": ["--space", "C3:P2", "--weight", "U*"],
    "hom": ["--space", "C3:P2", "--from", "U*", "--to", "U(-4)"],
    "push": ["--space", "C3:P1,2", "--base", "C3:P2", "--bundle", "L(7,3)"],
    "canonical": ["--space", "C3:P2"],
    "cells": ["--space", "C3:P2"],
    "gram": ["--builder", "igr26"],
    "mutate": ["--builder", "igr26", "--index", "0", "--side", "left"],
    "thread": ["--builder", "igr26"],
    "build": ["igr26"],
    "verify": ["--builder", "igr26"],
}


def _writers(fn):
    """The nodes of fn that call print or touch sys.stdout."""
    return [
        node
        for node in ast.walk(fn)
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print")
        or (isinstance(node, ast.Attribute) and node.attr == "stdout")
    ]


def test_no_command_writes_to_stdout():
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    commands = [name for name in functions if name.startswith("_cmd_")]
    assert sorted(commands) == sorted(f"_cmd_{c}" for c in JSON_RUNS)
    assert {name: _writers(functions[name]) for name in commands} == {
        name: [] for name in commands
    }
    assert _writers(functions["main"])  # the walk does see a writer


@pytest.mark.parametrize("command", sorted(JSON_RUNS))
def test_json_is_one_document_and_one_newline(capsys, command):
    rc = cli.main([command, *JSON_RUNS[command], "--json"])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    _, end = json.JSONDecoder().raw_decode(out)
    assert out[end:] == "\n"
