"""The verification report that keeps only failures, against the tuple oracle.

verify stores the failing entries alone; exceptional and semiorthogonal are
views that build a passing PairResult when asked, and `verify --json`
streams its document.  On every verify golden, on rank 4, on broken
orders of small collections, on a column that mixes a failure with passing
entries, and on collections of one and two objects, the streamed bytes must
equal one json.dumps of to_json_dict() on the same report, and the report
must match the tuple report of tests/helpers.py entry for entry and line
for line.  Exact mode refuses K-class collections with exit 3.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from excol import BundleObject, CollectionSpec, ExcolError, verify
from excol import cli
from helpers import tuple_json_dict, tuple_render_text, tuple_results

GOLDENS = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "goldens.json").read_text()
)
CASES = sorted(GOLDENS["verify"]) + [
    "symplectic:4 exact",
    "symplectic:4 chi_only",
    "orthogonal:4 chi_only",
]
BROKEN = ["symplectic:2", "beilinson:3", "quadric:7", "igr26", "orthogonal:2"]


def _broken(name, how):
    base = cli._builder_by_name(name)
    objs, labels = base.objects, base.labels
    if how == "reversed":
        objs, labels = objs[::-1], labels[::-1]
    elif how == "shifted":  # a K-class shifts by a sign
        objs = tuple(
            o.shifted(k % 3 - 1) if isinstance(o, BundleObject) else o.scale((-1) ** k)
            for k, o in enumerate(objs)
        )
    else:  # duplicated: the second object appears twice
        objs, labels = objs[:2] + objs[1:], labels[:2] + labels[1:]
    return CollectionSpec(base.space, objs, base.mode, labels, f"{name} {how}")


def _cli_verify(monkeypatch, coll, mode):
    """Run `verify --json` on coll; return exit code, stdout and the report."""
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
    return code, out.getvalue(), report


def _check(monkeypatch, coll, mode):
    code, out, report = _cli_verify(monkeypatch, coll, mode)
    assert code == (0 if report.passed else 1)
    assert out == json.dumps(report.to_json_dict()) + "\n"

    exceptional, semiorthogonal = tuple_results(coll, mode, report.gram)
    assert report.to_json_dict() == tuple_json_dict(report, exceptional, semiorthogonal)
    text = report.render_text().splitlines()
    oracle = tuple_render_text(report, exceptional, semiorthogonal).splitlines()
    assert text[:-1] == oracle[:-1]
    assert text[-1].startswith("wall time: ") and oracle[-1].startswith("wall time: ")

    for view, expected in (
        (report.exceptional, exceptional),
        (report.semiorthogonal, semiorthogonal),
    ):
        assert len(view) == len(expected)
        assert tuple(view) == expected
        assert [view[k] for k in range(len(view))] == list(expected)
        assert view[-1] == expected[-1] and view[1:7:2] == expected[1:7:2]
        with pytest.raises(IndexError):
            view[len(view)]
        assert [(r.ok, r.evidence, r.ordering_fixable) for r in view] == [
            (r.ok, r.evidence, r.ordering_fixable) for r in expected
        ]
    return report


@pytest.mark.parametrize("case", CASES)
def test_golden_and_rank_four_reports(monkeypatch, case):
    name, mode = case.split()
    report = _check(monkeypatch, cli._builder_by_name(name), mode)
    assert report.passed


@pytest.mark.parametrize("mode", ["exact", "chi_only"])
@pytest.mark.parametrize("how", ["reversed", "shifted", "duplicated"])
@pytest.mark.parametrize("name", BROKEN)
def test_broken_orders(monkeypatch, capsys, name, how, mode):
    coll = _broken(name, how)
    if mode == "exact" and coll.mode != "bundles":
        # K-classes have no graded Hom: exact mode refuses them with exit 3
        message = "exact verification needs irreducible bundle objects"
        with pytest.raises(ExcolError, match=message):
            verify(coll, mode)
        monkeypatch.setattr(cli, "_get_collection", lambda args: coll)
        assert cli.main(["verify", "--builder=x", "--mode=exact", "--json"]) == 3
        err = f"error: {message}; use chi_only for K-class collections\n"
        assert capsys.readouterr() == ("", err)
        return
    report = _check(monkeypatch, coll, mode)
    assert report.passed == (how == "shifted")


@pytest.mark.parametrize("mode", ["exact", "chi_only"])
def test_a_column_mixes_a_failure_with_passes(monkeypatch, mode):
    base = cli._builder_by_name("symplectic:3")
    gram = verify(base, "chi_only").gram
    # swap the first adjacent pair with a nonzero forward pairing
    k = next(k for k in range(len(base) - 1) if gram[k][k + 1])
    swap = lambda t: t[:k] + (t[k + 1], t[k]) + t[k + 2:]
    coll = CollectionSpec(
        base.space, swap(base.objects), base.mode, swap(base.labels), "symplectic:3 swapped"
    )
    report = _check(monkeypatch, coll, mode)
    assert list(report.semiorthogonal.failures) == [(k + 1, k)]
    assert len(base) - 1 - k > 1, "column k holds passing entries too"


@pytest.mark.parametrize("mode", ["exact", "chi_only"])
@pytest.mark.parametrize("name", ["beilinson:3", "quadric:7", "symplectic:2", "igr26"])
@pytest.mark.parametrize("order", [(0,), (0, 1), (1, 0)])
def test_one_and_two_objects(monkeypatch, name, order, mode):
    base = cli._builder_by_name(name)
    coll = CollectionSpec(
        base.space,
        tuple(base.objects[k] for k in order),
        base.mode,
        tuple(base.labels[k] for k in order),
        f"{name} {order}",
    )
    code, out, report = _cli_verify(monkeypatch, coll, mode)
    assert code == (0 if report.passed else 1) == 1  # too short to be full
    assert out == json.dumps(report.to_json_dict()) + "\n"
    exceptional, semiorthogonal = tuple_results(coll, mode, report.gram)
    assert tuple(report.exceptional) == exceptional
    assert tuple(report.semiorthogonal) == semiorthogonal
    assert report.to_json_dict() == tuple_json_dict(report, exceptional, semiorthogonal)
    assert len(semiorthogonal) == len(order) - 1
