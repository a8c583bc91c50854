"""Collection builders, the verification battery, and serialization.

Every builder's length is compared with the Schubert cell count of its
space, the battery is run on positive cases and on deliberately broken
controls, and fibration towers are compared object-for-object with the
direct product builders.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from excol import (
    BundleObject,
    CollectionSpec,
    ExcolError,
    KClass,
    Weight,
    build_beilinson,
    build_igr26,
    build_orthogonal_flag,
    build_quadric,
    build_symplectic_flag,
    dump_collection,
    kclass_of,
    load_collection,
    parabolic_space,
    verify,
    weight,
)
from excol import bwb as bwb_module
from excol import collections as collections_module
from excol import homcalc, roots
from helpers import check_diag_exact, check_pair_exact, compose_fibration, fraction_det

IGR = parabolic_space("C", 3, [2])


def symplectic_tower(n):
    """The same product collection assembled one fibration step at a time."""
    base_space = parabolic_space("C", n, [1])
    names = []
    objects = []
    for j in range(-2 * n + 1, 1):
        w = Weight((Fraction(j),) + (Fraction(0),) * (n - 1))
        objects.append(BundleObject(base_space, w))
        names.append(f"O({j})" if j else "O")
    coll = CollectionSpec(
        base_space, tuple(objects), "bundles", tuple(names), "tower:base"
    )
    for m in range(2, n + 1):
        total = parabolic_space("C", n, range(1, m + 1))
        twists = []
        labels = []
        for j in range(-2 * n + 2 * m - 1, 1):
            coords = [Fraction(0)] * n
            coords[m - 1] = Fraction(j)
            twists.append(Weight(tuple(coords)))
            labels.append(f"T{m}({j})")
        coll = compose_fibration(coll, total, twists, labels)
    return coll


class TestBuilders:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_projective_space_lengths(self, n):
        coll = build_beilinson(n)
        assert len(coll) == n + 1 == coll.space.cell_count

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_quadric_lengths(self, n):
        coll = build_quadric(n)
        assert len(coll) == coll.space.cell_count
        assert coll.space.dim == n

    @pytest.mark.parametrize("n,length", [(1, 2), (2, 8), (3, 48)])
    def test_symplectic_flag_lengths(self, n, length):
        coll = build_symplectic_flag(n)
        assert len(coll) == length == coll.space.cell_count

    @pytest.mark.parametrize("n,length", [(2, 8), (3, 48)])
    def test_orthogonal_flag_lengths(self, n, length):
        coll = build_orthogonal_flag(n)
        assert len(coll) == length == coll.space.cell_count
        assert coll.mode == "kclasses"

    def test_igr_roster(self):
        coll = build_igr26()
        assert len(coll) == 12
        assert coll.labels == (
            "U(-4)", "O(-4)", "S^2U(-3)", "U(-3)", "O(-3)",
            "S^2U(-2)", "U(-2)", "O(-2)", "U(-1)", "O(-1)", "U", "O",
        )
        assert coll.objects[-1].hw == weight(0, 0, 0)
        assert coll.objects[0].hw == weight(-4, -5, 0)

    def test_quadric_two_is_a_product_of_lines(self):
        # the rank-2 even case: both spinor lines plus two twists of O
        coll = build_quadric(2)
        assert coll.space.rs.family == "D"
        assert coll.space.crossed == frozenset({1, 2})
        assert [o.hw for o in coll.objects] == [
            weight("-3/2", "1/2"),
            weight("-3/2", "-1/2"),
            weight(-1, 0),
            weight(0, 0),
        ]
        assert all(BundleObject(coll.space, o.hw).rank == 1 for o in coll.objects)

    def test_symplectic_order_convention(self):
        # top index slowest, every index ascending to zero
        coll = build_symplectic_flag(2)
        assert coll.labels[0] == "O(-1,-3)"
        assert coll.labels[-1] == "O(0,0)"
        assert coll.objects[0].hw == weight(-3, -1)
        assert coll.objects[-1].hw == weight(0, 0)
        tuples = [tuple(o.hw.coords) for o in coll.objects]
        assert tuples == sorted(tuples, key=lambda t: (t[1], t[0]))

    def test_orthogonal_roster_small(self):
        coll = build_orthogonal_flag(2)
        assert coll.labels == (
            "Sig1*Sig0", "Sig1*O_Q(-2)", "Sig1*O_Q(-1)", "Sig1",
            "Sig0", "O_Q(-2)", "O_Q(-1)", "O",
        )
        leftmost = coll.objects[0]
        assert leftmost.as_dict() == {
            weight(-3, 0): 1,
            weight(-3, -1): 1,
        }
        assert coll.objects[-1].as_dict() == {weight(0, 0): 1}

    def test_builder_guards(self):
        with pytest.raises(ExcolError):
            build_beilinson(0)
        with pytest.raises(ExcolError):
            build_quadric(1)
        with pytest.raises(ExcolError):
            build_symplectic_flag(0)
        with pytest.raises(ExcolError):
            build_orthogonal_flag(1)


class TestCollectionSpec:
    def test_validation(self):
        o = BundleObject(IGR, weight(0, 0, 0))
        with pytest.raises(ExcolError):
            CollectionSpec(IGR, (), "bundles", (), "empty")
        with pytest.raises(ExcolError):
            CollectionSpec(IGR, (o,), "bundles", ("a", "b"), "labels")
        with pytest.raises(ExcolError):
            CollectionSpec(IGR, (o,), "sheaves", ("a",), "mode")
        other = BundleObject(parabolic_space("C", 3, [1]), weight(0, 0, 0))
        with pytest.raises(ExcolError):
            CollectionSpec(IGR, (other,), "bundles", ("a",), "space")

    def test_bundle_mode_refuses_kclasses(self):
        # verify on such a spec once ended in an AttributeError traceback
        base = build_beilinson(2)
        classes = tuple(map(kclass_of, base.objects))
        with pytest.raises(ExcolError, match="cannot hold a KClass"):
            CollectionSpec(base.space, classes, "bundles", base.labels, "mixed")
        coll = CollectionSpec(base.space, classes, "kclasses", base.labels, "classes")
        assert verify(coll, mode="chi_only").passed


def test_report_keeps_the_gram_rows_and_stays_hashable():
    report = verify(build_beilinson(2), mode="chi_only")
    assert report.gram == [[1, 3, 6], [0, 1, 3], [0, 0, 1]]
    assert hash(report) == hash(report)


class TestVerify:
    def test_igr_passes_exact(self):
        report = verify(build_igr26(), mode="exact")
        assert report.passed
        assert report.verdict == "complete-candidate"
        assert report.summary_line() == (
            "12/12 exceptional, 66/66 semiorthogonal, "
            "length=cells=12, det=1, thread=true"
        )
        assert report.det == 1
        assert report.thread_ok is True
        assert len(report.gram) == 12
        text = report.render_text()
        assert "verdict: complete-candidate (necessary conditions only)" in text

    def test_chi_only_agrees_on_bundles(self):
        report = verify(build_igr26(), mode="chi_only")
        assert report.passed
        assert report.thread_ok is None
        assert "thread=skipped" in report.summary_line()

    def test_swapped_pair_is_caught_and_flagged_fixable(self):
        base = build_igr26()
        objs = list(base.objects)
        labs = list(base.labels)
        objs[2], objs[3] = objs[3], objs[2]
        labs[2], labs[3] = labs[3], labs[2]
        bad = CollectionSpec(
            base.space, tuple(objs), "bundles", tuple(labs), "igr26-swapped"
        )
        report = verify(bad, mode="exact")
        assert not report.passed
        assert report.verdict == "failed"
        failures = [r for r in report.semiorthogonal if not r.ok]
        assert len(failures) == 1
        failure = failures[0]
        assert (failure.row, failure.col) == (3, 2)
        assert failure.evidence == "k^6 in degree 0"
        assert failure.ordering_fixable
        text = report.render_text()
        assert "[ordering-fixable]" in text
        assert "Hom(S^2U(-3), U(-3)) = k^6 in degree 0" in text

    def test_duplicate_object_fails_without_fixable_tag(self):
        o = BundleObject(IGR, weight(0, 0, 0))
        dup = CollectionSpec(IGR, (o, o), "bundles", ("O", "O"), "dup")
        report = verify(dup, mode="exact")
        assert not report.passed
        failures = [r for r in report.semiorthogonal if not r.ok]
        assert failures and not failures[0].ordering_fixable
        assert not report.length_ok

    def test_exact_mode_rejects_kclass_collections(self):
        with pytest.raises(ExcolError):
            verify(build_orthogonal_flag(2), mode="exact")
        with pytest.raises(ExcolError):
            verify(build_igr26(), mode="euler")

    def test_report_json_shape(self):
        report = verify(build_beilinson(1), mode="exact")
        doc = report.to_json_dict()
        assert doc["summary"] == report.summary_line()
        assert doc["gram"] == [[1, 2], [0, 1]]
        assert doc["length"] == doc["cells"] == 2
        assert doc["thread"] is True
        assert doc["verdict"] == "complete-candidate"

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_quadrics_pass_exact(self, n):
        report = verify(build_quadric(n), mode="exact")
        assert report.passed, report.render_text()

    def test_symplectic_small_passes_exact(self):
        report = verify(build_symplectic_flag(2), mode="exact")
        assert report.passed, report.render_text()

    def test_orthogonal_small_passes_chi_only(self):
        report = verify(build_orthogonal_flag(2), mode="chi_only")
        assert report.passed, report.render_text()


def _reordered(base, order, provenance):
    return CollectionSpec(
        base.space,
        tuple(base.objects[k] for k in order),
        base.mode,
        tuple(base.labels[k] for k in order),
        provenance,
    )


def _failures(results):
    return [(r.row, r.col, r.evidence, r.ordering_fixable) for r in results if not r.ok]


class TestChiOnlyFailures:
    """Evidence and fixability of the chi_only triangle on broken controls."""

    def test_swapped_pair(self):
        order = [0, 1, 3, 2] + list(range(4, 12))
        report = verify(_reordered(build_igr26(), order, "swapped"), mode="chi_only")
        assert _failures(report.exceptional) == []
        assert _failures(report.semiorthogonal) == [(3, 2, "chi = 6", True)]

    def test_reversed_beilinson(self):
        report = verify(
            _reordered(build_beilinson(2), [2, 1, 0], "reversed"), mode="chi_only"
        )
        assert _failures(report.semiorthogonal) == [
            (1, 0, "chi = 3", True),
            (2, 0, "chi = 6", True),
            (2, 1, "chi = 3", True),
        ]
        assert (
            "FAIL pair (O(2), O(1)): backward Hom(O(1), O(2)) = chi = 3 "
            "[ordering-fixable]" in report.render_text()
        )

    def test_duplicate_object(self):
        o = BundleObject(IGR, weight(0, 0, 0))
        dup = CollectionSpec(IGR, (o, o), "bundles", ("O", "O"), "dup")
        report = verify(dup, mode="chi_only")
        assert _failures(report.semiorthogonal) == [(1, 0, "chi = 1", False)]

    def test_scaled_class_is_not_exceptional(self):
        base = build_orthogonal_flag(2)
        objects = (base.objects[0].scale(2),) + base.objects[1:]
        scaled = CollectionSpec(
            base.space, objects, base.mode, base.labels, "scaled"
        )
        report = verify(scaled, mode="chi_only")
        assert _failures(report.exceptional) == [(0, 0, "chi = 4", False)]
        assert _failures(report.semiorthogonal) == []
        assert report.det == 4
        assert "det=4" in report.summary_line()


def _line_path_variants(base):
    """Shifted, reversed, reversed-and-shifted and duplicated-object orders."""
    objs, labels = base.objects, base.labels
    shifted = tuple(obj.shifted(k % 3 - 1) for k, obj in enumerate(objs))
    yield "reversed-shifted", shifted[::-1], labels[::-1]
    yield "shifted", shifted, labels
    yield "reversed", objs[::-1], labels[::-1]
    yield "duplicated", objs[:1] + objs, labels[:1] + labels


class TestExactLinePath:
    """Line-bundle pairs are read off the Gram matrix; every result must equal
    the per-pair graded_hom route on passing and failing orders alike."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_symplectic_flag(2),
            lambda: build_beilinson(3),
            lambda: build_quadric(6),
            build_igr26,
            lambda: build_symplectic_flag(1),
            lambda: build_symplectic_flag(3),
            lambda: build_beilinson(1),
            lambda: build_beilinson(2),
            lambda: build_quadric(2),
            lambda: build_quadric(3),
            lambda: build_quadric(4),
            lambda: build_quadric(5),
        ],
        ids=[
            "symplectic:2", "beilinson:3", "quadric:6", "igr26", "symplectic:1",
            "symplectic:3", "beilinson:1", "beilinson:2", "quadric:2", "quadric:3",
            "quadric:4", "quadric:5",
        ],
    )
    def test_matches_per_pair_graded_hom(self, build):
        base = build()
        fixable = set()
        for name, objects, labels in _line_path_variants(base):
            coll = CollectionSpec(base.space, objects, "bundles", labels, name)
            report = verify(coll, mode="exact")
            for r in report.exceptional:
                assert (r.ok, r.evidence) == check_diag_exact(objects[r.row])
            for r in report.semiorthogonal:
                expected = check_pair_exact(objects[r.row], objects[r.col])
                assert (r.ok, r.evidence, r.ordering_fixable) == expected, (name, r)
            fixable.update(r.ordering_fixable for r in report.semiorthogonal if not r.ok)
            assert report.passed == (name == "shifted" and verify(base).passed)
        assert fixable == ({True, False} if len(base) > 1 else {False})
        if base.provenance in ("quadric:6", "igr26"):
            # both routes run: some objects are line bundles, some are not
            ranks = {obj.rank for obj in base.objects}
            assert 1 in ranks and max(ranks) > 1

    @staticmethod
    def _count_calls(monkeypatch):
        calls = {"cohomology": 0, "graded_hom": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for module in (bwb_module, collections_module):
            for name in calls:
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        return calls

    def test_passing_line_collection_computes_no_hom(self, monkeypatch):
        coll = build_symplectic_flag(3)
        calls = self._count_calls(monkeypatch)
        assert verify(coll, mode="exact").passed
        assert calls == {"cohomology": 0, "graded_hom": 0}

    @pytest.mark.parametrize(
        "build,expected",
        [
            (build_igr26, 28),
            (lambda: build_quadric(7), 1),
            (lambda: build_quadric(8), 3),
            (lambda: build_quadric(9), 1),
        ],
        ids=["igr26", "quadric:7", "quadric:8", "quadric:9"],
    )
    def test_graded_hom_runs_only_between_bundles_of_higher_rank(
        self, monkeypatch, build, expected
    ):
        """Every diagonal entry and backward pair among the bundles of higher
        rank: igr26 has seven (7 + 21 calls), quadric:8 two spinor bundles."""
        coll = build()
        calls = self._count_calls(monkeypatch)
        assert verify(coll, mode="exact").passed
        assert calls["graded_hom"] == expected

    @pytest.mark.parametrize("name", ["igr26", "quadric:8"])
    def test_failing_pairs_with_a_line_take_no_graded_hom(self, monkeypatch, name):
        base = build_igr26() if name == "igr26" else build_quadric(8)
        coll = _reordered(base, range(len(base) - 1, -1, -1), "reversed")
        ranks = []
        graded_hom = collections_module.graded_hom
        monkeypatch.setattr(
            collections_module, "graded_hom",
            lambda src, dst: ranks.append((src.rank, dst.rank)) or graded_hom(src, dst),
        )
        report = verify(coll, mode="exact")
        assert any(
            1 in (coll.objects[r.row].rank, coll.objects[r.col].rank)
            and max(coll.objects[r.row].rank, coll.objects[r.col].rank) > 1
            for r in report.semiorthogonal.failures.values()
        )
        assert ranks and min(min(pair) for pair in ranks) > 1

    def test_failing_line_pairs_alone_call_cohomology(self, monkeypatch):
        base = build_symplectic_flag(3)
        coll = _reordered(base, range(len(base) - 1, -1, -1), "reversed")
        calls = self._count_calls(monkeypatch)
        report = verify(coll, mode="exact")
        failing = [r for r in report.semiorthogonal if not r.ok]
        assert 0 < len(failing) < len(report.semiorthogonal)
        # one cohomology per distinct weight b - a of a failing Hom(L_a, L_b)
        weights = {coll.objects[r.col].hw - coll.objects[r.row].hw for r in failing}
        assert (len(failing), len(weights)) == (594, 59)
        assert calls == {"cohomology": len(weights), "graded_hom": 0}


def _spy_on_bareiss(monkeypatch):
    """The matrices homcalc._bareiss is called on from now on."""
    calls = []
    bareiss = homcalc._bareiss
    monkeypatch.setattr(homcalc, "_bareiss", lambda m: calls.append(m) or bareiss(m))
    return calls


@pytest.mark.parametrize("perturb", [None, "diagonal", "lower"])
def test_det_of_a_unit_upper_triangular_gram_skips_elimination(monkeypatch, rng, perturb):
    coll = build_beilinson(6)
    n = len(coll)
    calls = _spy_on_bareiss(monkeypatch)
    for _ in range(5):
        gram = [[rng.randint(-9, 9) if j > i else int(i == j) for j in range(n)] for i in range(n)]
        i = rng.randrange(n)
        if perturb == "diagonal":
            gram[i][i] = rng.choice([-1, 0, 2, 3])
        elif perturb == "lower":
            gram[max(i, 1)][rng.randrange(max(i, 1))] = rng.choice([-2, -1, 1, 4])
        monkeypatch.setattr(collections_module, "gram_matrix", lambda objs: gram)
        assert verify(coll, mode="chi_only").det == fraction_det(gram)
    # a non-unit diagonal is still triangular; a lower entry needs elimination
    assert len(calls) == (5 if perturb == "lower" else 0)


def test_reversed_rank_four_is_triangular_without_elimination(monkeypatch):
    # the reversed Gram is unit lower-triangular, so its determinant is the diagonal's
    base = build_symplectic_flag(4)
    calls = _spy_on_bareiss(monkeypatch)
    report = verify(_reordered(base, range(len(base) - 1, -1, -1), "reversed"), mode="exact")
    assert report.summary_line() == (
        "384/384 exceptional, 50151/73536 semiorthogonal, length=cells=384, "
        "det=1, thread=false"
    )
    assert calls == []


# Pinned from the commit before line-weight differences were tabulated.
RANK_FOUR = [
    (
        build_symplectic_flag, "exact",
        "384/384 exceptional, 73536/73536 semiorthogonal, length=cells=384, "
        "det=1, thread=true",
        "77ef3b4d54c9f145b08576c021cf39bf8366eb8b55e7f0d4e0999bfa426cc39f",
    ),
    (
        build_orthogonal_flag, "chi_only",
        "384/384 exceptional, 73536/73536 semiorthogonal, length=cells=384, "
        "det=1, thread=skipped",
        "7b2ad7af421c7b5edc3622269158a1307d0939ffd669f9d4d2455515be5943fa",
    ),
]


@pytest.mark.parametrize(
    "build,mode,summary,gram_sha256",
    RANK_FOUR,
    ids=["symplectic:4-exact", "orthogonal:4-chi_only"],
)
def test_rank_four_verify_is_pinned(build, mode, summary, gram_sha256):
    report = verify(build(4), mode=mode)
    assert report.summary_line() == summary
    assert report.det == 1
    rows = json.dumps([list(row) for row in report.gram], separators=(",", ":"))
    assert hashlib.sha256(rows.encode()).hexdigest() == gram_sha256


class TestComposeFibration:
    @pytest.mark.parametrize("n", [2, 3])
    def test_tower_equals_direct_builder(self, n):
        tower = symplectic_tower(n)
        direct = build_symplectic_flag(n)
        assert tower.space == direct.space
        assert tower.objects == direct.objects

    def test_tower_is_associative(self):
        # composing the last two stages in one shot gives the same list
        n = 2
        base_space = parabolic_space("C", n, [1])
        objects = tuple(
            BundleObject(base_space, weight(j, 0)) for j in range(-3, 1)
        )
        base = CollectionSpec(
            base_space, objects, "bundles",
            tuple(str(j) for j in range(-3, 1)), "base",
        )
        full = parabolic_space("C", n, [1, 2])
        one_shot = compose_fibration(
            base, full, [weight(0, j) for j in range(-1, 1)]
        )
        direct = build_symplectic_flag(n)
        assert one_shot.objects == direct.objects

    def test_rejects_kclass_base(self):
        full = parabolic_space("B", 2, [1, 2])
        with pytest.raises(ExcolError):
            compose_fibration(build_orthogonal_flag(2), full, [weight(0, 0)])

    def test_rejects_non_refining_total(self):
        base = build_igr26()
        with pytest.raises(ExcolError):
            compose_fibration(base, IGR, [weight(0, 0, 0)])  # not strict
        with pytest.raises(ExcolError):
            compose_fibration(
                base, parabolic_space("C", 3, [1, 3]), [weight(0, 0, 0)]
            )

    def test_rejects_filtered_pullbacks(self):
        # the rank-2 tautological bundle does not stay irreducible upstairs
        u = BundleObject(IGR, weight(0, -1, 0))
        base = CollectionSpec(IGR, (u,), "bundles", ("U",), "just-u")
        flag = parabolic_space("C", 3, [1, 2])
        with pytest.raises(ExcolError) as err:
            compose_fibration(base, flag, [weight(0, 0, 0)])
        assert "filtered" in str(err.value)

    def test_rejects_another_root_system(self):
        flag = parabolic_space("C", 3, [1, 2])
        with pytest.raises(ExcolError) as err:
            compose_fibration(build_beilinson(2), flag, [weight(0, 0, 0)])
        assert str(err.value) == "base and total space must share the root system"

    def test_rejects_a_reducible_tensor_product(self):
        # Q stays irreducible on A3:P1,2, but Q (x) Q = S^2 Q + Lambda^2 Q there
        space = parabolic_space("A", 3, [2])
        q = BundleObject(space, weight(0, 0, 1, 0))
        base = CollectionSpec(space, (q,), "bundles", ("Q",), "q")
        flag = parabolic_space("A", 3, [1, 2])
        with pytest.raises(ExcolError) as err:
            compose_fibration(base, flag, [weight(0, 0, 1, 0)])
        assert str(err.value) == (
            "tensor of (0, 0, 1, 0) with twist (0, 0, 1, 0) is not irreducible on A3:P1,2"
        )

    def test_requires_a_twist(self):
        base = build_igr26()
        flag = parabolic_space("C", 3, [1, 2])
        o_only = CollectionSpec(
            IGR, (BundleObject(IGR, weight(0, 0, 0)),), "bundles", ("O",), "o"
        )
        with pytest.raises(ExcolError):
            compose_fibration(o_only, flag, [])

    def test_twist_ordering_is_slowest(self):
        o_base = CollectionSpec(
            parabolic_space("C", 2, [1]),
            tuple(
                BundleObject(parabolic_space("C", 2, [1]), weight(j, 0))
                for j in (-1, 0)
            ),
            "bundles",
            ("O(-1)", "O"),
            "mini",
        )
        flag = parabolic_space("C", 2, [1, 2])
        coll = compose_fibration(
            o_base, flag, [weight(0, -1), weight(0, 0)], ["A", "B"]
        )
        assert coll.labels == ("A*O(-1)", "A*O", "B*O(-1)", "B*O")
        assert [o.hw for o in coll.objects] == [
            weight(-1, -1), weight(0, -1), weight(-1, 0), weight(0, 0)
        ]


class TestSerialization:
    def test_bundle_round_trip(self):
        coll = build_igr26()
        doc = dump_collection(coll)
        assert doc["order"] == "explicit"
        assert doc["mode"] == "bundles"
        loaded = load_collection(doc)
        assert loaded.objects == coll.objects
        assert loaded.labels == coll.labels
        assert loaded.provenance == coll.provenance

    def test_kclass_round_trip(self):
        coll = build_orthogonal_flag(2)
        doc = dump_collection(coll)
        assert doc["mode"] == "kclasses"
        # half-integral coordinates must serialize as exact "p/q" strings
        flat = str(doc)
        assert "/2" in flat
        loaded = load_collection(doc)
        assert loaded.objects == coll.objects
        assert loaded.labels == coll.labels

    def test_kclass_terms_are_validated_once(self, monkeypatch):
        doc = dump_collection(build_orthogonal_flag(2))
        calls = []

        def counting_validate_weight(rs, lam):
            calls.append(lam)
            return roots.validate_weight(rs, lam)

        for module in (collections_module, homcalc):
            monkeypatch.setattr(module, "validate_weight", counting_validate_weight)
        load_collection(doc)
        assert len(calls) == sum(len(o["terms"]) for o in doc["objects"]) == 10

    def test_shifted_bundles_round_trip(self):
        o = BundleObject(IGR, weight(0, 0, 0), shift=-1)
        coll = CollectionSpec(IGR, (o,), "bundles", ("O[-1]",), "shifty")
        loaded = load_collection(dump_collection(coll))
        assert loaded.objects[0].shift == -1

    def test_labels_default_when_missing(self):
        doc = dump_collection(build_beilinson(1))
        del doc["labels"]
        loaded = load_collection(doc)
        assert loaded.labels == ("E0", "E1")

    def test_mode_inference_and_conversion(self):
        doc = {
            "space": {"family": "A", "rank": 1, "crossed": [1]},
            "objects": [
                {"terms": [{"weight": [0, 0], "coeff": 1}]},
                {"shift": 0, "weight": [1, 0], "mult": 1},
            ],
        }
        loaded = load_collection(doc)
        assert loaded.mode == "kclasses"
        assert all(isinstance(o, KClass) for o in loaded.objects)
        assert loaded.objects[1] == kclass_of(
            BundleObject(parabolic_space("A", 1, [1]), weight(1, 0))
        )

    def test_malformed_documents_rejected(self):
        good = dump_collection(build_beilinson(1))
        for mutate in [
            lambda d: d.pop("space"),
            lambda d: d.update(objects=[]),
            lambda d: d.update(objects="nope"),
            lambda d: d["objects"][0].update(mult=2),
            lambda d: d["objects"][0].update(weight=[True, 0]),
            lambda d: d.update(labels=["only-one"]),
        ]:
            doc = {
                "space": dict(good["space"]),
                "mode": good["mode"],
                "objects": [dict(o) for o in good["objects"]],
                "labels": list(good["labels"]),
            }
            mutate(doc)
            with pytest.raises(ExcolError):
                load_collection(doc)

    def test_declared_bundle_mode_with_kclass_objects_rejected(self):
        doc = {
            "space": {"family": "A", "rank": 1, "crossed": [1]},
            "mode": "bundles",
            "objects": [{"terms": [{"weight": [0, 0], "coeff": 1}]}],
        }
        with pytest.raises(ExcolError):
            load_collection(doc)
