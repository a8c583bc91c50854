"""The replaced bodies on verify's path, kept in tests/helpers.py as oracles.

to_json_dict() parses the streamed `verify --json`, so the stream is compared
here with the document built field by field from the report's views, on
every verify golden, at rank 4 and on broken orders.  kclass_of takes a
bundle's terms from the Gram kernel's one reader; it must equal the
KClass.from_dict body on every bundle of the builders up to rank 4, shifted
ones included.  The orthogonal flag builder multiplies prefixes level by
level on doubled coordinates; it must equal the builder that parsed each
level's weights from strings and multiplied every object out alone.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from excol import CollectionSpec, build_orthogonal_flag, kclass_of, verify
from excol import cli
from helpers import fields_json_dict, from_dict_kclass_of, picks_orthogonal_flag

GOLDENS = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "goldens.json").read_text()
)
CASES = sorted(GOLDENS["verify"]) + [
    "symplectic:4 exact",
    "symplectic:4 chi_only",
    "orthogonal:4 chi_only",
    "beilinson:3 exact reversed",
    "igr26 exact reversed",
    "orthogonal:2 chi_only reversed",
]


@pytest.mark.parametrize("case", CASES)
def test_streamed_json_is_the_field_by_field_document(monkeypatch, case):
    name, mode, *how = case.split()
    coll = cli._builder_by_name(name)
    if how:
        coll = CollectionSpec(
            coll.space, coll.objects[::-1], coll.mode, coll.labels[::-1], case
        )
    reports = []

    def spy(*args, **kwargs):
        reports.append(verify(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "_get_collection", lambda args: coll)
    monkeypatch.setattr(cli, "verify", spy)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--builder=x", f"--mode={mode}", "--json"])
    (report,) = reports
    assert code == (1 if how else 0)
    assert out.getvalue() == json.dumps(fields_json_dict(report)) + "\n"
    assert report.to_json_dict() == fields_json_dict(report)


BUNDLE_BUILDERS = [
    "beilinson:1", "beilinson:2", "beilinson:3", "beilinson:4",
    "quadric:2", "quadric:3", "quadric:4", "quadric:5", "quadric:6", "quadric:7",
    "symplectic:1", "symplectic:2", "symplectic:3", "symplectic:4", "igr26",
]


@pytest.mark.parametrize("name", BUNDLE_BUILDERS)
def test_kclass_of_matches_the_from_dict_body(name):
    coll = cli._builder_by_name(name)
    assert coll.space.rs.rank <= 4
    for obj in coll.objects:
        for shift in (-1, 0, 1, 2):
            bundle = obj.shifted(shift)
            got, expected = kclass_of(bundle), from_dict_kclass_of(bundle)
            assert got == expected
            assert got.terms == expected.terms


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_orthogonal_builder_matches_the_per_object_products(n):
    got, expected = build_orthogonal_flag(n), picks_orthogonal_flag(n)
    assert got.labels == expected.labels
    assert got.objects == expected.objects
    assert got == expected
