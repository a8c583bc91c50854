"""Euler pairings, the Serre operator, mutations, and the thread test.

chi_line is pinned by the rank-one closed form, the two Euler-pairing
routes are compared on random inputs, and the helix sweep is exercised on
real collections plus controls engineered to fail each precondition.
"""

import math
from fractions import Fraction

import pytest

from excol import (
    BundleObject,
    ExcolError,
    KClass,
    LatticeError,
    build_beilinson,
    build_igr26,
    build_orthogonal_flag,
    build_quadric,
    build_root_system,
    build_symplectic_flag,
    bundle_weight,
    euler_pairing,
    gram_matrix,
    graded_hom,
    kclass_of,
    mutate_pair_k,
    parabolic_space,
    subsystem,
    thread_check,
    weight,
)
from excol import homcalc, roots
from excol.homcalc import _det_exact

from helpers import chi_line, random_levi_dominant, serre_operator, tensor_line

IGR = parabolic_space("C", 3, [2])
P1 = parabolic_space("A", 1, [1])


class TestKClass:
    def test_from_dict_prunes_zeros(self):
        k = KClass.from_dict(P1, {weight(0, 0): 0, weight(1, 0): 2})
        assert k.terms == ((weight(1, 0), 2),)

    def test_algebra(self):
        a = KClass.from_dict(P1, {weight(0, 0): 1})
        b = KClass.from_dict(P1, {weight(0, 0): 2, weight(1, 0): -1})
        assert a.add(b).as_dict() == {weight(0, 0): 3, weight(1, 0): -1}
        assert a.sub(a).is_zero()
        assert a.scale(-3).as_dict() == {weight(0, 0): -3}

    def test_space_mismatch(self):
        a = KClass.from_dict(P1, {weight(0, 0): 1})
        b = KClass.from_dict(IGR, {weight(0, 0, 0): 1})
        with pytest.raises(ExcolError):
            a.add(b)

    def test_rendering(self):
        k = KClass.from_dict(P1, {weight(0, 0): -1, weight(1, 0): 2})
        assert str(k) == "- L(0, 0) + 2*L(1, 0)"
        assert str(KClass.from_dict(P1, {})) == "0"

    def test_kclass_of_expands_the_levi_character(self):
        u = BundleObject(IGR, bundle_weight(IGR, "U"))
        assert kclass_of(u).as_dict() == {
            weight(0, -1, 0): 1,
            weight(-1, 0, 0): 1,
        }

    def test_terms_must_be_lattice_weights(self):
        with pytest.raises(LatticeError):
            KClass.from_dict(P1, {weight("1/2", "1/2"): 1})
        with pytest.raises(LatticeError):
            KClass.from_dict(IGR, {weight(0, 0): 1})

    def test_kclass_of_signs_odd_shifts(self):
        o = BundleObject(IGR, weight(0, 0, 0))
        assert kclass_of(o.shifted(1)).as_dict() == {weight(0, 0, 0): -1}
        assert kclass_of(o.shifted(2)).as_dict() == {weight(0, 0, 0): 1}


def test_chi_line_rank_one_closed_form():
    # on the projective line the Euler characteristic of O(t) is t + 1
    rs = build_root_system("A", 1)
    for t in range(-6, 7):
        assert chi_line(rs, weight(t, 0)) == t + 1


def test_chi_line_vanishes_on_walls():
    rs = build_root_system("C", 3)
    assert chi_line(rs, weight(-2, 0, 0)) == 0


def test_euler_pairing_routes_agree_on_goldens():
    u_star = BundleObject(IGR, bundle_weight(IGR, "U*"))
    u4 = BundleObject(IGR, bundle_weight(IGR, "U(-4)"))
    assert euler_pairing(u_star, u4, method="chi") == -1
    assert euler_pairing(u_star, u4, method="ext") == -1
    o = BundleObject(IGR, weight(0, 0, 0))
    assert euler_pairing(o, o, method="chi") == 1


def test_euler_pairing_route_agreement(rng):
    spaces = [
        parabolic_space("C", 2, [1]),
        parabolic_space("C", 2, [2]),
        parabolic_space("B", 2, [1]),
        parabolic_space("C", 3, [2]),
    ]
    checked = 0
    for space in spaces:
        for _ in range(26):
            e = BundleObject(space, random_levi_dominant(rng, space, span=3, half=True))
            f = BundleObject(space, random_levi_dominant(rng, space, span=3, half=True))
            assert euler_pairing(e, f, method="chi") == euler_pairing(
                e, f, method="ext"
            ), (space, e.hw, f.hw)
            checked += 1
    assert checked >= 100


def test_euler_pairing_ext_needs_bundles():
    o = BundleObject(IGR, weight(0, 0, 0))
    with pytest.raises(ExcolError):
        euler_pairing(kclass_of(o), kclass_of(o), method="ext")
    with pytest.raises(ExcolError):
        euler_pairing(o, o, method="fancy")


def test_gram_matrix_keeps_its_route(monkeypatch):
    coll = build_igr26()
    with pytest.raises(ExcolError, match="needs actual bundles"):
        gram_matrix([kclass_of(o) for o in coll.objects], method="ext")
    with pytest.raises(ExcolError, match="unknown Euler pairing method"):
        gram_matrix(list(coll.objects), method="bogus")

    calls = []

    def counting_graded_hom(src, dst):
        calls.append((src, dst))
        return graded_hom(src, dst)

    monkeypatch.setattr(homcalc, "graded_hom", counting_graded_hom)
    ext = gram_matrix(list(coll.objects), method="ext")
    assert len(calls) == len(coll) ** 2
    calls.clear()
    assert gram_matrix(list(coll.objects)) == ext
    assert calls == []


class TestKernelContract:
    def test_empty_gram(self):
        assert gram_matrix([]) == []

    def test_classes_on_two_spaces_are_refused_by_every_caller(self):
        a = KClass.from_dict(P1, {weight(0, 0): 1})
        b = KClass.from_dict(IGR, {weight(0, 0, 0): 1})
        # one root system, two spaces
        c, d = (BundleObject(parabolic_space("C", 3, k), weight(0, 0, 0)) for k in ([1], [2]))
        message = "^Euler pairing needs both classes on the same space$"
        for call in [
            lambda: gram_matrix([a, b]),
            lambda: gram_matrix([c, c, d]),
            lambda: euler_pairing(c, d),
            lambda: gram_matrix([b, BundleObject(P1, weight(0, 0))]),
            lambda: euler_pairing(a, b),
            lambda: euler_pairing(b, a, method="chi"),
            lambda: mutate_pair_k(a, b, "left"),
            lambda: mutate_pair_k(b, a, "right"),
        ]:
            with pytest.raises(ExcolError, match=message):
                call()

    @pytest.mark.parametrize(
        "build,evaluations",
        [
            (lambda: build_orthogonal_flag(3), 601),
            (lambda: build_symplectic_flag(3), 231),
            (lambda: build_beilinson(6), 13),
            (build_igr26, 54),
            (lambda: build_quadric(7), 83),
            (lambda: build_quadric(8), 182),
        ],
        ids=["orthogonal:3", "symplectic:3", "beilinson:6", "igr26", "quadric:7", "quadric:8"],
    )
    def test_one_evaluation_per_distinct_difference(self, monkeypatch, build, evaluations):
        """One Weyl quotient per distinct difference b - a, for a over the left
        terms and b over the right terms, or over the right highest weights
        when every object is a bundle (igr26 and quadric:7 and 8 would need
        69, 151 and 351 evaluations with right terms)."""
        objects = list(build().objects)
        left = [[w.num for w, _ in homcalc._as_kclass(o).terms] for o in objects]
        heads = all(isinstance(o, BundleObject) for o in objects)
        right = [[o.hw.num] for o in objects] if heads else left
        differences = {
            tuple(p - q for p, q in zip(b, a))
            for x in left for y in right for a in x for b in y
        }
        assert len(differences) == evaluations
        calls = []

        def counting_quotient(factors, denominator):
            calls.append(tuple(factors))
            return roots._weyl_quotient(calls[-1], denominator)

        monkeypatch.setattr(homcalc, "_weyl_quotient", counting_quotient)
        gram_matrix(objects)
        # the factors 2 <d + rho, a^vee> determine d, as the coroots span
        sub = subsystem(objects[0].space.rs)
        assert sorted(calls) == sorted(
            tuple(roots._pairings(sub.positive_int, roots._add(d, sub.rho.num)))
            for d in differences
        )

    def test_weyl_denominator_is_stored_once_per_subsystem(self, monkeypatch):
        for family, rank, mask in [("A", 1, None), ("B", 3, None), ("C", 3, [2]), ("D", 4, [])]:
            sub = subsystem(build_root_system(family, rank), mask)
            pairings = roots._pairings(sub.positive_int, sub.rho.num)
            assert sub.weyl_denominator == math.prod(pairings)
        original, calls = roots._pairings, []
        monkeypatch.setattr(
            roots, "_pairings", lambda rts, v: calls.append(v) or original(rts, v)
        )
        rs = build_root_system("B", 3)
        values = [chi_line(rs, weight(k, 0, -k)) for k in range(5)]
        assert len(calls) == len(values), "one pairing pass per evaluation"


def test_gram_beilinson_plane():
    coll = build_beilinson(2)
    assert gram_matrix(list(coll.objects)) == [
        [1, 3, 6],
        [0, 1, 3],
        [0, 0, 1],
    ]
    assert gram_matrix(list(coll.objects), method="ext") == [
        [1, 3, 6],
        [0, 1, 3],
        [0, 0, 1],
    ]


def test_gram_accepts_mixed_inputs():
    coll = build_beilinson(1)
    objs = [coll.objects[0], kclass_of(coll.objects[1])]
    assert gram_matrix(objs) == [[1, 2], [0, 1]]


class TestSerreOperator:
    def test_plane_golden(self):
        gram = [[1, 3, 6], [0, 1, 3], [0, 0, 1]]
        s = serre_operator(gram)
        assert [row[0] for row in s] == [10, -15, 6]

    def test_defining_identity(self, rng):
        # chi(x, S y) = chi(y, x) for all integer vectors
        for coll in [build_beilinson(3), build_igr26()]:
            gram = gram_matrix(list(coll.objects))
            s = serre_operator(gram)
            n = len(gram)

            def chi_vec(x, y):
                return sum(
                    x[i] * gram[i][j] * y[j] for i in range(n) for j in range(n)
                )

            for _ in range(20):
                x = [rng.randint(-3, 3) for _ in range(n)]
                y = [rng.randint(-3, 3) for _ in range(n)]
                sy = [sum(s[i][j] * y[j] for j in range(n)) for i in range(n)]
                assert chi_vec(x, sy) == chi_vec(y, x)

    def test_unimodular_conjugation(self):
        gram = gram_matrix(list(build_beilinson(2).objects))
        s = serre_operator(gram)
        assert abs(_det_exact(s)) == 1

    def test_rejects_non_unimodular(self):
        with pytest.raises(ExcolError):
            serre_operator([[1, 0], [0, 2]])

    def test_rejects_non_square(self):
        with pytest.raises(ExcolError):
            serre_operator([[1, 0, 0], [0, 1, 0]])


class TestMutations:
    def test_rank_one_golden(self):
        o = kclass_of(BundleObject(P1, weight(0, 0)))
        o1 = kclass_of(BundleObject(P1, weight(1, 0)))
        left, right = mutate_pair_k(o, o1, "left")
        # chi(O, O(1)) = 2 on the line
        assert left.as_dict() == {weight(0, 0): 2, weight(1, 0): -1}
        assert right == o
        first, second = mutate_pair_k(o, o1, "right")
        assert first == o1
        assert second.as_dict() == {weight(0, 0): -1, weight(1, 0): 2}

    def test_identical_classes_refused(self):
        o = kclass_of(BundleObject(P1, weight(0, 0)))
        with pytest.raises(ExcolError):
            mutate_pair_k(o, o, "left")

    def test_unknown_side_refused(self):
        o = kclass_of(BundleObject(P1, weight(0, 0)))
        o1 = kclass_of(BundleObject(P1, weight(1, 0)))
        with pytest.raises(ExcolError):
            mutate_pair_k(o, o1, "up")

    def test_mutation_preserves_euler_pairing(self):
        o = kclass_of(BundleObject(P1, weight(0, 0)))
        o1 = kclass_of(BundleObject(P1, weight(1, 0)))
        left, right = mutate_pair_k(o, o1, "left")
        assert euler_pairing(left, left) == 1
        assert euler_pairing(right, left) == 0

    def test_involutivity_on_collection_pairs(self):
        # left-then-right (and right-then-left) restores any exceptional pair
        instances = 0
        for coll in [build_igr26(), build_symplectic_flag(2), build_quadric(3)]:
            ks = [
                kclass_of(o) if isinstance(o, BundleObject) else o
                for o in coll.objects
            ]
            n = len(ks)
            for i in range(n):
                for j in range(i + 1, n):
                    a, b = ks[i], ks[j]
                    l, e = mutate_pair_k(a, b, "left")
                    assert mutate_pair_k(l, e, "right") == (a, b)
                    f, r = mutate_pair_k(a, b, "right")
                    assert mutate_pair_k(f, r, "left") == (a, b)
                    instances += 1
        assert instances >= 100


class TestThreadCheck:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_projective_space_threads(self, n):
        coll = build_beilinson(n)
        gram = gram_matrix(list(coll.objects))
        ok, trace = thread_check(gram, coll.space.dim)
        assert ok, trace
        assert trace[-1] == "thread: complete"

    def test_isotropic_grassmannian_threads(self):
        coll = build_igr26()
        assert coll.space.dim == 7
        gram = gram_matrix(list(coll.objects))
        ok, trace = thread_check(gram, 7)
        assert ok, trace
        assert sum(1 for line in trace if "sweep closes" in line) == 12

    @pytest.mark.parametrize("n", [3, 4])
    def test_quadric_threads(self, n):
        coll = build_quadric(n)
        gram = gram_matrix(list(coll.objects))
        ok, trace = thread_check(gram, n)
        assert ok, trace

    def test_truncated_control_fails_the_period_bound(self):
        # two objects cannot span the rank-3 lattice of the plane
        coll = build_beilinson(2)
        gram = gram_matrix(list(coll.objects)[:2])
        ok, trace = thread_check(gram, coll.space.dim)
        assert not ok
        assert trace[-1].startswith("FAIL")
        assert "K-group has rank at least 3" in trace[-1]

    def test_diagonal_violation_reported(self):
        ok, trace = thread_check([[2, 0], [0, 1]], 1)
        assert not ok and "expected 1" in trace[-1]

    def test_triangularity_violation_reported(self):
        ok, trace = thread_check([[1, 3], [1, 1]], 1)
        assert not ok and "backward pairing" in trace[-1]

    def test_non_square_rejected(self):
        ok, trace = thread_check([[1, 0, 0], [0, 1, 0]], 1)
        assert not ok and "square" in trace[-1]

    def test_orthogonal_identity_control(self):
        # a fully orthogonal pair still closes: the sweep is pure negation
        ok, trace = thread_check([[1, 0], [0, 1]], 0)
        assert ok

    def test_tampering_within_triangularity_still_closes(self):
        # the cyclic sweep closes for every unit-triangular unimodular gram;
        # the discriminating conditions are triangularity, the unit diagonal,
        # and the period bound, so a tamper that respects all three passes
        gram = [row[:] for row in gram_matrix(list(build_beilinson(2).objects))]
        gram[0][2] += 1
        ok, _ = thread_check(gram, 2)
        assert ok


def test_twist_invariance_of_gram():
    # tensoring every object by the same line bundle fixes all pairings
    coll = build_igr26()
    line = bundle_weight(IGR, "O(1)")
    twisted = [tensor_line(obj, line) for obj in coll.objects]
    assert gram_matrix(twisted) == gram_matrix(list(coll.objects))


def test_det_exact_small_cases():
    assert _det_exact([[2]]) == 2
    assert _det_exact([[1, 2], [3, 4]]) == -2
    assert _det_exact([[1, 2], [2, 4]]) == 0
    assert _det_exact([[0, 1], [1, 0]]) == -1
