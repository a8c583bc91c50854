"""Cohomology, pushforwards, and the bundle-name dictionary.

The pushforward table is checked against an independent closed form for
every index in the window, and Serre duality plus fibration composition
run as randomized properties over several spaces.
"""

import itertools
import time

import pytest

from excol import (
    BundleObject,
    DominanceError,
    ExcolError,
    LatticeError,
    ParseError,
    build_igr26,
    bundle_weight,
    canonical_bundle,
    cohomology,
    dual_weight,
    format_graded,
    graded_hom,
    parabolic_space,
    pushforward,
    space_from_string,
    spinor_weight,
    weight,
    weyl_dim,
)
from excol import bwb

from helpers import (
    detail_graded_hom,
    graded_hom_detail,
    random_levi_dominant,
    random_weight,
    scale,
    tensor_line,
)

IGR = parabolic_space("C", 3, [2])
IF = parabolic_space("C", 3, [1, 2])


class TestSpaces:
    def test_parse_round_trip(self):
        for text in ["C3:P2", "C3:P1,2", "B2:P1", "D3:P1", "A2:P1"]:
            assert str(space_from_string(text)) == text

    def test_parse_rejects_garbage(self):
        for text in ["X3:P1", "C3", "C3:Q1", "", "C3:P"]:
            with pytest.raises(ParseError):
                space_from_string(text)

    def test_crossed_nodes_validated(self):
        with pytest.raises(ExcolError):
            parabolic_space("C", 3, [])
        with pytest.raises(ExcolError):
            parabolic_space("C", 3, [4])
        with pytest.raises(ExcolError):
            space_from_string("C3:P0")

    def test_igr_geometry(self):
        assert IGR.dim == 7
        assert IGR.cell_count == 12
        assert IGR.levi_mask == frozenset({1, 3})
        assert len(IGR.nilradical_roots) == 7

    def test_flag_geometry(self):
        assert IF.dim == 8
        assert IF.cell_count == 24
        full = parabolic_space("C", 3, [1, 2, 3])
        assert full.dim == 9
        assert full.cell_count == 48


class TestBundleObject:
    def test_rejects_non_dominant_weight(self):
        with pytest.raises(DominanceError):
            BundleObject(IGR, weight(0, 1, 0))

    def test_rank_of_tautological_bundle(self):
        u = BundleObject(IGR, bundle_weight(IGR, "U"))
        assert u.rank == 2
        assert BundleObject(IGR, bundle_weight(IGR, "O")).rank == 1
        assert BundleObject(IGR, bundle_weight(IGR, "S^2U")).rank == 3

    def test_dual_of_tautological_bundle(self):
        u = BundleObject(IGR, bundle_weight(IGR, "U"))
        assert u.dual().hw == bundle_weight(IGR, "U*")

    def test_tensor_line(self):
        u = BundleObject(IGR, bundle_weight(IGR, "U"))
        tw = tensor_line(u, weight(-4, -4, 0))
        assert tw.hw == bundle_weight(IGR, "U(-4)")
        with pytest.raises(ExcolError):
            tensor_line(u, weight(1, 0, 0))  # not Levi-invariant

    def test_shift_bookkeeping(self):
        o = BundleObject(IGR, bundle_weight(IGR, "O"))
        assert o.shifted(2).shift == 2
        assert o.shifted(2).shifted(-2) == o
        assert str(o.shifted(-1)) == "E(0, 0, 0)[-1]"


class TestCohomology:
    def test_structure_sheaf(self):
        ans = cohomology(IGR, weight(0, 0, 0))
        assert (ans.degree, ans.dim) == (0, 1)
        assert ans.dominant == weight(0, 0, 0)
        assert not ans.is_zero

    def test_canonical_weight_tops_out(self):
        ans = cohomology(IGR, weight(-5, -5, 0))
        assert (ans.degree, ans.dim) == (7, 1)

    def test_singular_weight_vanishes(self):
        ans = cohomology(IGR, weight(-4, -6, 0))
        assert ans.is_zero
        assert ans.dims() == {}
        assert str(ans) == "0"

    def test_sections_of_dual_tautological(self):
        ans = cohomology(IGR, bundle_weight(IGR, "U*"))
        assert (ans.degree, ans.dim) == (0, 6)

    def test_tautological_is_acyclic(self):
        assert cohomology(IGR, bundle_weight(IGR, "U")).is_zero

    def test_rejects_non_dominant(self):
        with pytest.raises(DominanceError):
            cohomology(IGR, weight(0, 1, 0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: dual_weight(IGR.rs, None, weight("1/2", 0, 0)),
        lambda: cohomology(IGR, weight(1, 0)),
        lambda: tensor_line(BundleObject(IGR, weight(0, 0, 0)), weight(1, 0)),
    ],
    ids=["dual-half-in-C", "cohomology-two-coordinates", "line-two-coordinates"],
)
def test_weight_is_validated_before_use(call):
    with pytest.raises(LatticeError):
        call()


class TestGradedHom:
    def test_golden_top_degree(self):
        src = BundleObject(IGR, bundle_weight(IGR, "U*"))
        dst = BundleObject(IGR, bundle_weight(IGR, "U(-4)"))
        assert graded_hom(src, dst) == {7: 1}

    def test_golden_vanishing(self):
        src = BundleObject(IGR, bundle_weight(IGR, "U*"))
        dst = BundleObject(IGR, bundle_weight(IGR, "O"))
        assert graded_hom(src, dst) == {}

    def test_detail_of_top_degree(self):
        src = BundleObject(IGR, bundle_weight(IGR, "U*"))
        dst = BundleObject(IGR, bundle_weight(IGR, "U(-4)"))
        assert graded_hom_detail(src, dst) == {7: [(weight(0, 0, 0), 1)]}

    def test_endomorphisms_of_irreducibles(self):
        for name in ["O", "U", "S^2U(-3)", "U(-2)"]:
            obj = BundleObject(IGR, bundle_weight(IGR, name))
            assert graded_hom(obj, obj) == {0: 1}

    def test_shift_translation(self):
        o = BundleObject(IGR, bundle_weight(IGR, "O"))
        assert graded_hom(o, o.shifted(1)) == {-1: 1}
        assert graded_hom(o.shifted(1), o) == {1: 1}
        assert graded_hom(o.shifted(3), o.shifted(3)) == {0: 1}

    def test_spaces_must_match(self):
        o1 = BundleObject(IGR, weight(0, 0, 0))
        o2 = BundleObject(IF, weight(0, 0, 0))
        with pytest.raises(ExcolError):
            graded_hom(o1, o2)

    def test_backward_pair_with_forward_content(self):
        a = BundleObject(IGR, bundle_weight(IGR, "S^2U(-3)"))
        b = BundleObject(IGR, bundle_weight(IGR, "U(-3)"))
        assert graded_hom(a, b) == {0: 6}
        assert graded_hom(b, a) == {}

    def test_matches_the_detail_oracle_on_every_igr26_pair(self):
        objs = build_igr26().objects
        for src, dst in itertools.product(objs, repeat=2):
            assert graded_hom(src, dst) == detail_graded_hom(src, dst), (src, dst)

    def test_pieces_are_not_checked_again(self, monkeypatch):
        # tensor_decompose returns Levi-dominant lattice weights, so graded_hom
        # hands them to cohomology's body without its two checks
        objs = build_igr26().objects
        calls = []
        for name in ("validate_weight", "is_dominant"):
            original = getattr(bwb, name)
            monkeypatch.setattr(
                bwb, name, lambda *args, f=original, n=name: calls.append(n) or f(*args)
            )
        for src, dst in itertools.product(objs, repeat=2):
            graded_hom(src, dst)
        assert calls == []
        # the public cohomology still makes both
        cohomology(IGR, weight(0, 0, 0))
        assert calls == ["validate_weight", "is_dominant"]


def expected_pushforward(i, j):
    """The three-case law for the second projection, written independently.

    Indices follow L(i,j); the output is (weight on the base, shift) or None.
    """
    if j >= i:
        return weight(-i, -j, 0), 0
    if j - i == -1:
        return None
    a, b = i - j - 2, -j - 1
    return weight(b, b - a, 0), -1


class TestPushforward:
    def test_full_window_against_closed_form(self):
        start = time.perf_counter()
        for i in range(-1, 8):
            for j in range(0, 4):
                bundle = BundleObject(IF, weight(-i, -j, 0))
                got = pushforward(bundle, IGR)
                expected = expected_pushforward(i, j)
                if expected is None:
                    assert got is None, (i, j)
                else:
                    assert got == BundleObject(IGR, expected[0], expected[1]), (i, j)
        assert time.perf_counter() - start < 5.0

    def test_singled_out_values(self):
        high = pushforward(BundleObject(IF, bundle_weight(IF, "L(7,3)")), IGR)
        assert high == BundleObject(IGR, bundle_weight(IGR, "S^2U(-4)"), -1)
        low = pushforward(BundleObject(IF, bundle_weight(IF, "L(-1,0)")), IGR)
        assert low == BundleObject(IGR, bundle_weight(IGR, "U*"), 0)

    def test_kills_the_adjacent_diagonal(self):
        for i in range(0, 5):
            bundle = BundleObject(IF, weight(-i, -(i - 1), 0))
            assert pushforward(bundle, IGR) is None

    def test_identity_fibration(self):
        obj = BundleObject(IGR, bundle_weight(IGR, "S^2U(-2)"))
        assert pushforward(obj, IGR) == obj

    def test_requires_containment(self):
        p5 = parabolic_space("C", 3, [1])
        bundle = BundleObject(IGR, weight(0, 0, 0))
        with pytest.raises(ExcolError):
            pushforward(bundle, p5)  # {1} is not a subset of {2}

    def test_requires_same_root_system(self):
        other = parabolic_space("B", 3, [2])
        bundle = BundleObject(IGR, weight(0, 0, 0))
        with pytest.raises(ExcolError):
            pushforward(bundle, other)

    def test_shift_carries_through(self):
        bundle = BundleObject(IF, weight(-7, -3, 0), shift=2)
        got = pushforward(bundle, IGR)
        assert got is not None and got.shift == 1


class TestCanonical:
    def test_isotropic_grassmannian(self):
        assert canonical_bundle(IGR).hw == weight(-5, -5, 0)

    def test_two_step_flag(self):
        assert canonical_bundle(IF).hw == weight(-6, -4, 0)

    @pytest.mark.parametrize(
        "family,rank,n",
        [("B", 2, 3), ("B", 3, 5), ("D", 3, 4), ("D", 4, 6)],
    )
    def test_quadric_index(self, family, rank, n):
        space = parabolic_space(family, rank, [1])
        assert space.dim == n
        assert canonical_bundle(space).hw == bundle_weight(space, f"O(-{n})")

    def test_canonical_is_a_line_bundle(self):
        for space in [IGR, IF, parabolic_space("B", 3, [1, 2, 3])]:
            k = canonical_bundle(space)
            assert k.rank == 1


class TestPicardDictionary:
    def test_pullback_from_the_projective_factor(self):
        assert bundle_weight(IF, "p*O(-1)") == bundle_weight(IF, "O_U(-1)")

    def test_product_relation(self):
        lhs = bundle_weight(IF, "p*O(-1)") + bundle_weight(IF, "O_N(-1)")
        assert lhs == bundle_weight(IF, "q*O(-1)")

    def test_canonical_two_ways_and_directly(self):
        first = bundle_weight(IF, "p*O(-2)") + bundle_weight(IF, "q*O(-4)")
        second = bundle_weight(IF, "p*O(-6)") + bundle_weight(IF, "O_N(-4)")
        assert first == second == canonical_bundle(IF).hw

    def test_l_names_expand_over_the_generators(self):
        for i in range(-2, 3):
            for j in range(-2, 3):
                lhs = bundle_weight(IF, f"L({i},{j})")
                rhs = bundle_weight(IF, f"p*O({-i})") + bundle_weight(
                    IF, f"O_N({-j})"
                )
                assert lhs == rhs


class TestBundleNames:
    @pytest.mark.parametrize(
        "name,coords",
        [
            ("O", (0, 0, 0)),
            ("O(5)", (5, 5, 0)),
            ("O(-4)", (-4, -4, 0)),
            ("U", (0, -1, 0)),
            ("U*", (1, 0, 0)),
            ("U(-4)", (-4, -5, 0)),
            ("U*(1)", (2, 1, 0)),
            ("S^2U", (0, -2, 0)),
            ("S^2U(-3)", (-3, -5, 0)),
            ("S^0U(1)", (1, 1, 0)),
        ],
    )
    def test_grassmannian_names(self, name, coords):
        assert bundle_weight(IGR, name) == weight(*coords)

    @pytest.mark.parametrize(
        "name,coords",
        [
            ("O", (0, 0, 0)),
            ("p*O(-3)", (-3, 0, 0)),
            ("q*O(2)", (2, 2, 0)),
            ("O_N(-2)", (0, -2, 0)),
            ("O_U(1)", (1, 0, 0)),
            ("L(7,3)", (-7, -3, 0)),
            ("L(-1,0)", (1, 0, 0)),
        ],
    )
    def test_flag_names(self, name, coords):
        assert bundle_weight(IF, name) == weight(*coords)

    def test_whitespace_is_ignored(self):
        assert bundle_weight(IGR, " S^2U(-3) ") == bundle_weight(IGR, "S^2U(-3)")

    def test_unknown_names_raise_parse_errors(self):
        for name in ["Q(3)", "S^U", "", "OO", "U**"]:
            with pytest.raises(ParseError):
                bundle_weight(IGR, name)

    def test_names_bound_to_the_wrong_space(self):
        with pytest.raises(ExcolError):
            bundle_weight(IF, "U")  # two crossed nodes: U is ambiguous
        with pytest.raises(ExcolError):
            bundle_weight(IGR, "L(1,2)")
        with pytest.raises(ExcolError):
            bundle_weight(IGR, "p*O(1)")
        with pytest.raises(ExcolError):
            bundle_weight(IGR, "Sigma")  # not a quadric
        with pytest.raises(ExcolError):
            bundle_weight(IF, "O(1)")  # ambiguous polarization

    def test_twist_of_nothing_is_zero(self):
        assert bundle_weight(IF, "O") == weight(0, 0, 0)
        assert bundle_weight(IF, "O(0)") == weight(0, 0, 0)


class TestSpinors:
    def test_odd_quadric_weights(self):
        q3 = parabolic_space("B", 2, [1])
        q5 = parabolic_space("B", 3, [1])
        assert spinor_weight(q3, 0) == weight("1/2", "1/2")
        assert spinor_weight(q5, 0) == weight("1/2", "1/2", "1/2")

    def test_even_quadric_weights(self):
        q4 = parabolic_space("D", 3, [1])
        assert spinor_weight(q4, 1) == weight("1/2", "1/2", "1/2")
        assert spinor_weight(q4, -1) == weight("1/2", "1/2", "-1/2")
        q2 = parabolic_space("D", 2, [1, 2])
        assert spinor_weight(q2, 1) == weight("1/2", "1/2")
        assert spinor_weight(q2, -1) == weight("1/2", "-1/2")

    @pytest.mark.parametrize(
        "family,rank,sign,rank_expected",
        [
            ("B", 2, 0, 2),
            ("B", 3, 0, 4),
            ("D", 3, 1, 2),
            ("D", 3, -1, 2),
            ("D", 4, 1, 4),
            ("D", 2, 1, 1),
        ],
    )
    def test_spinor_ranks(self, family, rank, sign, rank_expected):
        crossed = [1, 2] if (family, rank) == ("D", 2) else [1]
        space = parabolic_space(family, rank, crossed)
        sigma = BundleObject(space, spinor_weight(space, sign))
        assert sigma.rank == rank_expected

    def test_sign_discipline(self):
        q3 = parabolic_space("B", 2, [1])
        q4 = parabolic_space("D", 3, [1])
        with pytest.raises(ExcolError):
            spinor_weight(q3, 1)
        with pytest.raises(ExcolError):
            spinor_weight(q4, 0)
        with pytest.raises(ExcolError):
            spinor_weight(IGR, 0)

    def test_twisted_spinors_are_acyclic(self):
        # the normalization is pinned by exactly this window of vanishing
        q5 = parabolic_space("B", 3, [1])
        sigma = spinor_weight(q5, 0)
        hyper = bundle_weight(q5, "O(1)")
        for t in range(-1, -6, -1):
            assert cohomology(q5, sigma + scale(hyper, t)).is_zero
        sections = cohomology(q5, sigma)
        assert (sections.degree, sections.dim) == (0, 8)

    def test_spinor_name_with_twist(self):
        q4 = parabolic_space("D", 3, [1])
        assert bundle_weight(q4, "Sigma+(-4)") == weight("-7/2", "1/2", "1/2")
        assert bundle_weight(q4, "Sigma-(-4)") == weight("-7/2", "1/2", "-1/2")


def test_format_graded():
    assert format_graded({}) == "0"
    assert format_graded({7: 1}) == "k in degree 7"
    assert format_graded({0: 6}) == "k^6 in degree 0"
    assert format_graded({0: 1, 2: 3}) == "k in degree 0 + k^3 in degree 2"


SERRE_SPACES = [
    parabolic_space("C", 2, [1]),
    parabolic_space("C", 2, [2]),
    parabolic_space("C", 3, [2]),
    parabolic_space("B", 2, [1]),
]


def test_serre_duality_symmetry(rng):
    # Hom^k(E, F) pairs with Hom^(dim-k)(F, E (x) canonical)
    checked = 0
    for space in SERRE_SPACES:
        k_weight = canonical_bundle(space).hw
        for _ in range(26):
            e = BundleObject(space, random_levi_dominant(rng, space, span=3, half=True))
            f = BundleObject(space, random_levi_dominant(rng, space, span=3, half=True))
            forward = graded_hom(e, f)
            twisted = graded_hom(f, tensor_line(e, k_weight))
            assert forward == {
                space.dim - k: d for k, d in twisted.items()
            }, (space, e.hw, f.hw)
            checked += 1
    assert checked >= 100


def test_pushforward_composition(rng):
    # pushing through an intermediate flag equals pushing directly
    towers = [
        ("C", 3, [1, 2, 3], [1, 2], [2]),
        ("C", 3, [1, 2, 3], [2, 3], [2]),
        ("B", 2, [1, 2], [1], [1]),
        ("C", 2, [1, 2], [2], [2]),
    ]
    checked = 0
    zeros = 0
    for family, rank, top, mid, bottom in towers:
        total = parabolic_space(family, rank, top)
        middle = parabolic_space(family, rank, mid)
        base = parabolic_space(family, rank, bottom)
        for _ in range(30):
            lam = random_levi_dominant(rng, total, span=4, half=True)
            bundle = BundleObject(total, lam)
            direct = pushforward(bundle, base)
            step = pushforward(bundle, middle)
            if step is None:
                assert direct is None
                zeros += 1
            else:
                assert pushforward(step, base) == direct
            checked += 1
    assert checked >= 100
    assert zeros > 0, "the sweep should hit some vanishing pushforwards"


def test_pushforward_degree_is_fiber_bounded(rng):
    # the shift drop cannot exceed the fiber dimension
    total = parabolic_space("C", 3, [1, 2])
    base = IGR
    fiber_dim = total.dim - base.dim
    for _ in range(40):
        lam = random_weight(rng, total.rs, span=5)
        try:
            bundle = BundleObject(total, lam)
        except DominanceError:
            continue
        got = pushforward(bundle, base)
        if got is not None:
            assert 0 <= -got.shift <= fiber_dim
