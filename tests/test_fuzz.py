"""Fuzzed command lines keep the exit-code contract.

Collection documents are mutated field by field, and space and bundle
strings are drawn from a grammar of near-misses.  Whatever the input,
the exit code is 0, 1, 2 or 3; exits 2 and 3 print exactly one error
line; exit 1 comes only with a printed report.  Examples are derandomized,
so every run replays the same inputs.  Bundle arguments drawn from a seeded
generator parse to the same weight, or fail with the same error, as under
the two-pass parser the command line replaced.
"""

import contextlib
import copy
import io
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from excol import build_beilinson, dump_collection
from excol import space_from_string
from excol.cli import _parse_bundle_arg, main
from helpers import two_pass_bundle_arg

FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=400)


def _run(argv, stdin_text=""):
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue()


def _assert_contract(rc, out, err):
    assert rc in (0, 1, 2, 3)
    if rc in (2, 3):
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
    if rc == 1:
        assert "verdict: failed" in out


def _paths(node, prefix=()):
    """Every position in a JSON document, as a key path from the root."""
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


BASE = dump_collection(build_beilinson(2))
PATHS = list(_paths(BASE))

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-6, 6)
    | st.floats(-6, 6, allow_nan=False)
    | st.sampled_from(["A", "B", "C", "D", "E", "1/2", "-1", "0", "x", "1/0", ""])
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["weight", "terms", "coeff", "shift"]), inner),
    max_leaves=6,
)
DELETE = object()
MUTATION = st.tuples(st.sampled_from(PATHS), st.just(DELETE) | VALUES)


def _mutate(doc, path, value):
    if not path:
        return doc if value is DELETE else value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@FUZZ
@given(st.lists(MUTATION, min_size=1, max_size=3), st.sampled_from(["exact", "chi_only"]))
def test_mutated_documents_keep_the_exit_contract(mutations, mode):
    doc = copy.deepcopy(BASE)
    for path, value in mutations:
        try:
            doc = _mutate(doc, path, value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or replaced this position
    rc, out, err = _run(["verify", "--stdin", "--mode", mode], json.dumps(doc))
    _assert_contract(rc, out, err)


SPACES = st.one_of(
    st.builds(
        "{}{}:P{}".format,
        st.sampled_from("ABCD"),
        st.integers(1, 4),
        st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
            lambda ns: ",".join(map(str, ns))
        ),
    ),
    st.builds(
        "{}{}:P{}".format,
        st.sampled_from("ABCDEa"),
        st.integers(0, 5),
        st.lists(st.integers(0, 6), max_size=3).map(lambda ns: ",".join(map(str, ns))),
    ),
    st.text("ABCD:P0123,", max_size=8),
)
BUNDLES = st.one_of(
    st.sampled_from(["O", "U", "U*", "Q", "S^2U", "Sigma", "Sigma+", "p*O", "O_U"]).flatmap(
        lambda name: st.sampled_from([name, f"{name}(-1)", f"{name}(2)", f"{name}(x)"])
    ),
    st.lists(st.integers(-4, 4), min_size=1, max_size=6).map(
        lambda cs: "(" + ",".join(map(str, cs)) + ")"
    ),
    st.text("OUQS^*()-0123,/L", max_size=8),
)


@FUZZ
@given(SPACES, BUNDLES, BUNDLES)
def test_hom_on_random_strings_keeps_the_exit_contract(space, src, dst):
    rc, out, err = _run(["hom", f"--space={space}", f"--from={src}", f"--to={dst}"])
    _assert_contract(rc, out, err)


NUMBERS = ["0", "-0", "3", "-12", "  4 ", "1/2", "-3/2", "5/2", "1/3", "1/0"]
JUNK = ["", " ", "1.5", "x", "+1", "--2", "1/2/3", "\u00b2", "-", "/"]
NAMES = ["O", "O(1)", "O(-2)", "U", "U*", "U*(2)", "Q", "Q(-1)", "S", "S*", "L(7,3)",
         "O_U", "Zorp", "()", "(", ")", " O "]


def _bundle_text(rng, dim):
    """A bundle name, or parts that are mostly numbers, often dim of them."""
    if rng.random() < 0.2:
        return rng.choice(NAMES)
    count = dim if rng.random() < 0.6 else rng.randint(1, 5)
    body = rng.choice([",", ", ", " ,"]).join(
        rng.choice(JUNK if rng.random() < 0.1 else NUMBERS) for _ in range(count)
    )
    left, right = rng.choice([("", ""), ("(", ")"), (" (", ") "), ("(", ""), ("", ")")])
    return left + body + right


def _outcome(parse, space, text):
    try:
        return parse(space, text)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", ["C3:P2", "B2:P1", "A2:P1", "D3:P1"])
def test_bundle_argument_parser_matches_the_two_pass_oracle(rng, name):
    space = space_from_string(name)
    for _ in range(5000):
        text = _bundle_text(rng, space.rs.dim)
        assert _outcome(_parse_bundle_arg, space, text) == _outcome(
            two_pass_bundle_arg, space, text
        ), text
