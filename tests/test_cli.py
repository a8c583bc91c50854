"""Command-line behavior: output shapes and the exit-code contract.

0 success, 1 failed verification or open thread, 2 malformed input,
3 violated mathematical precondition.
"""

import io
import json

import pytest

from excol import (
    CollectionSpec,
    build_beilinson,
    build_igr26,
    build_orthogonal_flag,
    build_symplectic_flag,
    dump_collection,
)
from excol.characters import clear_character_cache
from excol.cli import main
from excol.roots import MAX_GRAM_OBJECTS, MAX_ORTHOGONAL_RANK, MAX_SYMPLECTIC_RANK


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestComputeCommands:
    def test_bwb_nonzero(self, capsys):
        rc, out, _ = run(capsys, "bwb", "--space", "C3:P2", "--weight", "(-5,-5,0)")
        assert rc == 0
        assert out.strip() == "degree 7: highest weight (0, 0, 0), dim 1"

    def test_bwb_zero(self, capsys):
        rc, out, _ = run(capsys, "bwb", "--space", "C3:P2", "--weight", "(-4,-6,0)")
        assert rc == 0
        assert out.strip() == "0"

    def test_bwb_json(self, capsys):
        rc, out, _ = run(
            capsys, "bwb", "--space", "C3:P2", "--weight", "U*", "--json"
        )
        assert rc == 0
        assert json.loads(out) == {
            "zero": False,
            "degree": 0,
            "weight": [1, 0, 0],
            "dim": 6,
        }

    def test_hom_golden(self, capsys):
        rc, out, _ = run(
            capsys, "hom", "--space", "C3:P2", "--from", "U*", "--to", "U(-4)"
        )
        assert rc == 0
        assert out.strip() == "k in degree 7"

    def test_hom_vanishing(self, capsys):
        rc, out, _ = run(
            capsys, "hom", "--space", "C3:P2", "--from", "U*", "--to", "O"
        )
        assert rc == 0
        assert out.strip() == "0"

    def test_hom_json(self, capsys):
        rc, out, _ = run(
            capsys, "hom", "--space", "C3:P2", "--from", "U*", "--to", "U(-4)",
            "--json",
        )
        assert json.loads(out) == {"dims": {"7": 1}}

    def test_hom_on_a_large_character(self, capsys):
        # S^12U on A8:P4 has 455 weights
        rc, out, _ = run(
            capsys, "hom", "--space", "A8:P4", "--from", "S^12U", "--to", "S^12U(-1)"
        )
        assert (rc, out) == (0, "k^810616950 in degree 5\n")

    def test_push_golden(self, capsys):
        rc, out, _ = run(
            capsys, "push", "--space", "C3:P1,2", "--base", "C3:P2",
            "--bundle", "L(7,3)",
        )
        assert rc == 0
        assert out.strip() == "E(-4, -6, 0)[-1]"

    def test_push_zero(self, capsys):
        rc, out, _ = run(
            capsys, "push", "--space", "C3:P1,2", "--base", "C3:P2",
            "--bundle", "L(1,0)",
        )
        assert rc == 0
        assert out.strip() == "0"

    def test_push_json(self, capsys):
        rc, out, _ = run(
            capsys, "push", "--space", "C3:P1,2", "--base", "C3:P2",
            "--bundle", "L(-1,0)", "--json",
        )
        assert json.loads(out) == {"zero": False, "weight": [1, 0, 0], "shift": 0}

    def test_canonical(self, capsys):
        rc, out, _ = run(capsys, "canonical", "--space", "C3:P2")
        assert rc == 0
        assert out.strip() == "(-5, -5, 0)"

    def test_cells(self, capsys):
        rc, out, _ = run(capsys, "cells", "--space", "C3:P2")
        assert rc == 0
        assert out.strip() == "12"

    def test_cells_json(self, capsys):
        rc, out, _ = run(capsys, "cells", "--space", "C3:P2", "--json")
        assert json.loads(out) == {"cells": 12}

    def test_spinor_weight_literal_on_quadric(self, capsys):
        rc, out, _ = run(capsys, "bwb", "--space", "B3:P1", "--weight", "Sigma")
        assert rc == 0
        assert "dim 8" in out


class TestCollectionCommands:
    def test_gram_text(self, capsys):
        rc, out, _ = run(capsys, "gram", "--builder", "beilinson:2")
        assert rc == 0
        assert out.splitlines() == ["1 3 6", "0 1 3", "0 0 1"]

    def test_gram_json(self, capsys):
        rc, out, _ = run(capsys, "gram", "--builder", "beilinson:1", "--json")
        doc = json.loads(out)
        assert doc["gram"] == [[1, 2], [0, 1]]
        assert doc["labels"] == ["O", "O(1)"]

    def test_gram_ext_method(self, capsys):
        rc, out, _ = run(
            capsys, "gram", "--builder", "beilinson:2", "--method", "ext"
        )
        assert rc == 0
        assert out.splitlines()[0] == "1 3 6"

    def test_build_text(self, capsys):
        rc, out, _ = run(capsys, "build", "igr26")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "igr26 on C3:P2: 12 objects"
        assert len(lines) == 13

    def test_build_json_then_verify_stdin(self, capsys, monkeypatch):
        rc, out, _ = run(capsys, "build", "quadric:3", "--json")
        assert rc == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        rc2, out2, _ = run(capsys, "verify", "--stdin", "--mode", "exact")
        assert rc2 == 0
        assert "4/4 exceptional" in out2

    def test_mutate_text(self, capsys):
        rc, out, _ = run(
            capsys, "mutate", "--builder", "beilinson:1", "--index", "0",
            "--side", "right",
        )
        assert rc == 0
        assert "position 0:   L(1, 0)" in out
        assert "- L(0, 0) + 2*L(1, 0)" in out

    def test_mutate_json(self, capsys):
        rc, out, _ = run(
            capsys, "mutate", "--builder", "beilinson:1", "--index", "0",
            "--side", "left", "--json",
        )
        doc = json.loads(out)
        assert doc["pair"][0]["terms"] == [
            {"weight": [0, 0], "coeff": 2},
            {"weight": [1, 0], "coeff": -1},
        ]

    def test_thread_passes(self, capsys):
        rc, out, _ = run(capsys, "thread", "--builder", "beilinson:2")
        assert rc == 0
        assert out.strip().endswith("thread=true")

    def test_thread_fails_on_truncation(self, capsys, tmp_path):
        doc = {
            "space": {"family": "A", "rank": 2, "crossed": [1]},
            "objects": [
                {"weight": [0, 0, 0]},
                {"weight": [1, 0, 0]},
            ],
        }
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        rc, out, _ = run(capsys, "thread", "--file", str(path))
        assert rc == 1
        assert "thread=false" in out
        assert "rank at least 3" in out

    def test_verify_builder(self, capsys):
        rc, out, _ = run(capsys, "verify", "--builder", "igr26", "--jobs", "2")
        assert rc == 0
        assert (
            "12/12 exceptional, 66/66 semiorthogonal, "
            "length=cells=12, det=1, thread=true" in out
        )
        assert "verdict: complete-candidate" in out

    def test_verify_json(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "--builder", "beilinson:1", "--json", "--jobs", "1"
        )
        doc = json.loads(out)
        assert rc == 0
        assert doc["verdict"] == "complete-candidate"

    def test_verify_tampered_file_fails(self, capsys, tmp_path):
        doc = dump_collection(build_igr26())
        doc["objects"][2], doc["objects"][3] = doc["objects"][3], doc["objects"][2]
        doc["labels"][2], doc["labels"][3] = doc["labels"][3], doc["labels"][2]
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps(doc))
        rc, out, _ = run(capsys, "verify", "--file", str(path), "--jobs", "2")
        assert rc == 1
        assert "FAIL pair" in out
        assert "[ordering-fixable]" in out

    def test_verify_text_names_a_failing_object(self, capsys, tmp_path):
        # a K-class scaled by 2 pairs with itself to 4
        doc = dump_collection(build_orthogonal_flag(2))
        terms = doc["objects"][1]["terms"]
        doc["objects"][1]["terms"] = [dict(t, coeff=2 * t["coeff"]) for t in terms]
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "verify", "--file", str(path), "--mode", "chi_only")
        assert (rc, err) == (1, "")
        assert out.splitlines()[:-1] == [
            "collection orthogonal:2 on B2:P1,2 (chi_only mode)",
            "FAIL object Sig1*O_Q(-2): End = chi = 4",
            "FAIL Gram determinant 4 is not a unit",
            "7/8 exceptional, 28/28 semiorthogonal, length=cells=8, det=4, "
            "thread=skipped",
            "verdict: failed (necessary conditions only)",
        ]
        assert out.splitlines()[-1].startswith("wall time: ")

    def test_verify_chi_only_kclasses(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "--builder", "orthogonal:2", "--mode", "chi_only",
            "--jobs", "1",
        )
        assert rc == 0
        assert "thread=skipped" in out


class TestExitCodes:
    def test_parse_error_bad_space(self, capsys):
        rc, _, err = run(capsys, "cells", "--space", "Z9:P1")
        assert rc == 2
        assert "error:" in err

    def test_parse_error_bad_builder(self, capsys):
        rc, _, err = run(capsys, "verify", "--builder", "mystery")
        assert rc == 2

    def test_parse_error_builder_parameter(self, capsys):
        assert run(capsys, "verify", "--builder", "quadric")[0] == 2
        assert run(capsys, "verify", "--builder", "quadric:x")[0] == 2
        assert run(capsys, "verify", "--builder", "igr26:3")[0] == 2

    def test_parse_error_source_discipline(self, capsys):
        rc, _, _ = run(capsys, "verify")
        assert rc == 2
        rc, _, _ = run(
            capsys, "verify", "--builder", "igr26", "--stdin"
        )
        assert rc == 2

    def test_parse_error_bad_weight_literal(self, capsys):
        rc, _, err = run(capsys, "bwb", "--space", "C3:P2", "--weight", "(1,2)")
        assert rc == 2
        assert "coordinates" in err

    def test_parse_error_bad_bundle_name(self, capsys):
        rc, _, _ = run(capsys, "bwb", "--space", "C3:P2", "--weight", "Zorp")
        assert rc == 2

    def test_parse_error_mutate_index(self, capsys):
        rc, _, _ = run(
            capsys, "mutate", "--builder", "beilinson:1", "--index", "5",
            "--side", "left",
        )
        assert rc == 2

    def test_parse_error_bad_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
        rc, _, _ = run(capsys, "verify", "--stdin")
        assert rc == 2

    def test_parse_error_unknown_collection_mode(self, capsys, tmp_path):
        doc = dict(dump_collection(build_beilinson(1)), mode="sheaves")
        path = tmp_path / "mode.json"
        path.write_text(json.dumps(doc))
        rc, out, err = run(capsys, "verify", "--file", str(path))
        assert (rc, out, err) == (2, "", "error: unknown collection mode 'sheaves'\n")

    def test_parse_error_missing_file(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "verify", "--file", str(tmp_path / "nope.json"))
        assert rc == 2

    def test_precondition_error_non_dominant(self, capsys):
        rc, _, err = run(
            capsys, "hom", "--space", "C3:P2", "--from", "(0,1,0)", "--to", "O"
        )
        assert rc == 3
        assert "dominant" in err

    def test_precondition_error_ambiguous_twist(self, capsys):
        rc, _, _ = run(capsys, "bwb", "--space", "C3:P1,2", "--weight", "O(1)")
        assert rc == 3

    def test_precondition_error_bad_fibration(self, capsys):
        rc, _, _ = run(
            capsys, "push", "--space", "C3:P2", "--base", "C3:P1",
            "--bundle", "O",
        )
        assert rc == 3

    def test_precondition_error_half_weight_in_type_c(self, capsys):
        rc, _, _ = run(
            capsys, "bwb", "--space", "C3:P2", "--weight", "(1/2,1/2,1/2)"
        )
        assert rc == 3


class TestRankLimit:
    """Ranks above MAX_RANK are refused up front with exit 3."""

    @staticmethod
    def _assert_refused(rc, out, err):
        assert rc == 3
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize("space", ["A21:P1", "A1000:P1"])
    def test_space_above_the_limit(self, capsys, space):
        self._assert_refused(*run(capsys, "cells", "--space", space))

    def test_document_above_the_limit(self, capsys, monkeypatch):
        doc = _doc_with(space={"family": "A", "rank": 1000, "crossed": [1]})
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        self._assert_refused(*run(capsys, "verify", "--stdin"))


class TestSizeLimits:
    """What cannot finish is refused up front with exit 3 and one error line:
    a flag builder above its rank, and a Gram matrix above MAX_GRAM_OBJECTS."""

    @pytest.mark.parametrize(
        "name", ["symplectic:8", "orthogonal:7", "symplectic:1000000000"]
    )
    def test_flag_builder_above_the_limit(self, capsys, name):
        TestRankLimit._assert_refused(*run(capsys, "build", name))

    def test_limits_between_rank_five_and_six(self):
        assert len(build_symplectic_flag(5)) == 3840 <= MAX_GRAM_OBJECTS < 46080
        assert MAX_ORTHOGONAL_RANK >= 5 and MAX_SYMPLECTIC_RANK >= 6

    @pytest.mark.parametrize("command", ["verify", "gram", "thread"])
    def test_gram_above_the_limit(self, capsys, monkeypatch, command):
        # rank 6's 46,080 objects; building their Gram would not finish
        coll = build_beilinson(1)
        big = CollectionSpec(
            coll.space, coll.objects[:1] * 46080, "bundles", ("O",) * 46080, "big"
        )
        monkeypatch.setattr("excol.cli._get_collection", lambda args: big)
        monkeypatch.setattr(
            "excol.homcalc._ChiTable", lambda *args: pytest.fail("the Gram was started")
        )
        TestRankLimit._assert_refused(*run(capsys, command, "--builder=big"))


def test_cache_directory_variable_is_ignored(capsys, monkeypatch, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("EXCOL_CACHE_DIR", str(blocker / "x"))
    clear_character_cache()
    argv = ("hom", "--space", "C3:P2", "--from", "U*", "--to", "U(-4)")
    assert run(capsys, *argv)[:2] == (0, "k in degree 7\n")


def _doc_with(**changes):
    doc = dump_collection(build_beilinson(1))
    doc.update(changes)
    return doc


@pytest.mark.parametrize("command", ["verify", "gram"])
@pytest.mark.parametrize(
    "objects",
    [[{"weight": ["1/3", 0]}], [{"terms": [{"weight": ["1/3", 0], "coeff": 1}]}]],
    ids=["bundle", "kclass-term"],
)
def test_file_with_a_third_is_refused_with_one_error_line(
    capsys, tmp_path, command, objects
):
    path = tmp_path / "third.json"
    path.write_text(json.dumps(_doc_with(mode=None, objects=objects, labels=["x"])))
    rc, out, err = run(capsys, command, "--file", str(path))
    assert (rc, out) == (3, "")
    assert err == "error: coordinates of (1/3, 0) have denominators beyond 2\n"


@pytest.mark.parametrize("command", ["verify", "gram"])
def test_cancelled_invalid_term_is_still_refused(capsys, tmp_path, command):
    # the two terms cancel, so the K-class built from them never sees the weight
    terms = [{"weight": ["1/2", "1/2"], "coeff": c} for c in (1, -1)]
    objects = [{"terms": [{"weight": [0, 0], "coeff": 1}, *terms]}]
    path = tmp_path / "cancelled.json"
    path.write_text(json.dumps(_doc_with(mode=None, objects=objects, labels=["x"])))
    rc, out, err = run(capsys, command, "--file", str(path))
    assert (rc, out) == (3, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


class TestMalformedInput:
    """Malformed input ends in exit 2 with one error line, never a traceback."""

    @staticmethod
    def _assert_parse_error(rc, out, err):
        assert rc == 2
        assert out == ""
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize("space", ["A0:P1", "D1:P1"])
    def test_space_outside_the_classical_families(self, capsys, space):
        self._assert_parse_error(*run(capsys, "cells", "--space", space))

    @pytest.mark.parametrize(
        "doc",
        [
            _doc_with(objects=[5]),
            _doc_with(objects=[{"terms": [{"coeff": 1}]}]),
            _doc_with(space={"family": "E", "rank": 1, "crossed": [1]}),
            _doc_with(objects=[{"weight": ["x", 0]}]),
            _doc_with(labels=5),
            _doc_with(objects=[{"weight": [0, 0], "shift": 1.5}]),
            _doc_with(objects=[{"weight": [0, 0], "shift": "0"}]),
            _doc_with(mode=None, objects=[{"terms": [{"weight": [0, 0], "coeff": 1.5}]}]),
            _doc_with(objects=[{"weight": [0, 0], "mult": True}]),
            _doc_with(space={"family": "A", "rank": 1.9, "crossed": [1]}),
            {k: v for k, v in _doc_with().items() if k != "space"},
            _doc_with(space={"family": "A", "rank": 1, "crossed": 5}),
            [_doc_with()],
            _doc_with(objects=[{"weight": [True, 0]}]),
        ],
        ids=[
            "object-not-a-dict",
            "term-without-weight",
            "family-E",
            "coordinate-x",
            "labels-not-a-list",
            "shift-float",
            "shift-string",
            "coeff-float",
            "mult-bool",
            "rank-float",
            "space-missing",
            "crossed-int",
            "top-level-list",
            "coordinate-bool",
        ],
    )
    def test_malformed_collection_document(self, capsys, monkeypatch, doc):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        self._assert_parse_error(*run(capsys, "verify", "--stdin"))
