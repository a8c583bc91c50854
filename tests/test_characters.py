"""Character arithmetic against closed-form small-rank oracles.

Rank-one representation theory (weights of an irreducible, Clebsch-Gordan
splitting) is written out by hand here and compared with the recursive
machinery; higher-rank cases are pinned by hand-derived weight multisets
and by conservation laws.
"""

import itertools
from fractions import Fraction

import pytest

from excol import (
    DominanceError,
    Weight,
    build_igr26,
    build_orthogonal_flag,
    build_root_system,
    bundle_weight,
    clear_character_cache,
    dual_weight,
    irrep_character,
    is_dominant,
    make_dominant_dot,
    parabolic_space,
    subsystem,
    tensor_decompose,
    verify,
    weight,
    weyl_dim,
)

from excol.characters import _character_cached, _weyl_dim_cached
from excol.roots import weyl_product

from helpers import random_dominant, total_dim, weyl_orbit


@pytest.mark.parametrize(
    "family,rank,hw,dim",
    [
        ("C", 3, (1, 0, 0), 6),
        ("C", 3, (1, 1, 0), 14),
        ("C", 3, (2, 0, 0), 21),
        ("C", 2, (1, 0), 4),
        ("C", 2, (2, 0), 10),
        ("C", 2, (1, 1), 5),
        ("B", 2, ("1/2", "1/2"), 4),
        ("B", 2, (1, 0), 5),
        ("B", 3, ("1/2", "1/2", "1/2"), 8),
        ("A", 2, (1, 0, 0), 3),
        ("A", 2, (1, 1, 0), 3),
        ("A", 2, (2, 1, 0), 8),
        ("D", 3, ("1/2", "1/2", "1/2"), 4),
        ("D", 3, ("1/2", "1/2", "-1/2"), 4),
        ("D", 3, (1, 0, 0), 6),
    ],
)
def test_weyl_dim_goldens(family, rank, hw, dim):
    rs = build_root_system(family, rank)
    assert weyl_dim(rs, None, weight(*hw)) == dim


@pytest.mark.parametrize(
    "family,rank,hw",
    [
        ("C", 3, (1, 0, 0)),
        ("B", 2, ("1/2", "1/2")),
        ("A", 3, (1, 0, 0, 0)),
        ("D", 3, ("1/2", "1/2", "1/2")),
        ("D", 4, (1, 0, 0, 0)),
    ],
)
def test_minuscule_dimension_equals_orbit_size(family, rank, hw):
    # for a minuscule weight every weight of the irreducible is extremal
    rs = build_root_system(family, rank)
    lam = weight(*hw)
    orbit = weyl_orbit(subsystem(rs, None), lam)
    assert weyl_dim(rs, None, lam) == len(orbit)
    ch = irrep_character(rs, None, lam)
    assert ch.mults == {w: 1 for w in orbit}


def test_character_c2_adjoint_by_hand():
    # the 10-dimensional adjoint: the 8 roots once, zero twice
    rs = build_root_system("C", 2)
    ch = irrep_character(rs, None, weight(2, 0))
    expected = {Weight(a.coords): 1 for a in rs.positive_roots}
    expected.update({-Weight(a.coords): 1 for a in rs.positive_roots})
    expected[weight(0, 0)] = 2
    assert ch.mults == expected


def test_character_c3_lambda2_by_hand():
    # fundamental (1,1,0): the 12 short-pair weights once, zero twice
    rs = build_root_system("C", 3)
    ch = irrep_character(rs, None, weight(1, 1, 0))
    assert total_dim(ch) == 14
    assert ch.mults[weight(0, 0, 0)] == 2
    orbit = weyl_orbit(subsystem(rs, None), weight(1, 1, 0))
    assert len(orbit) == 12
    for w in orbit:
        assert ch.mults[w] == 1


def test_character_b2_spin_by_hand():
    rs = build_root_system("B", 2)
    ch = irrep_character(rs, None, weight("1/2", "1/2"))
    half = Fraction(1, 2)
    assert ch.mults == {
        Weight((s1, s2)): 1
        for s1 in (half, -half)
        for s2 in (half, -half)
    }


def sl2_weights(m):
    """Weights of the (m+1)-dimensional irreducible of a rank-one group."""
    return [m - 2 * k for k in range(m + 1)]


def test_rank_one_character_closed_form():
    rs = build_root_system("C", 1)
    for m in range(7):
        ch = irrep_character(rs, None, weight(m))
        assert ch.mults == {weight(v): 1 for v in sl2_weights(m)}


def test_rank_one_clebsch_gordan():
    rs = build_root_system("C", 1)
    for a in range(6):
        for b in range(6):
            got = tensor_decompose(rs, None, weight(a), weight(b))
            expected = [
                (weight(c), 1) for c in range(a + b, abs(a - b) - 1, -2)
            ]
            assert got == expected


def test_gl2_pieri_rule():
    # (a,b) (x) (c,d) = sum over k of (a+c-k, b+d+k), k up to both gaps
    rs = build_root_system("A", 1)
    cases = [((2, 0), (1, 0)), ((3, 1), (2, 0)), ((2, -1), (1, 1)), ((0, 0), (4, 2))]
    for (a, b), (c, d) in cases:
        got = tensor_decompose(rs, None, weight(a, b), weight(c, d))
        expected = sorted(
            ((weight(a + c - k, b + d + k), 1) for k in range(min(a - b, c - d) + 1)),
            key=lambda p: p[0].coords,
            reverse=True,
        )
        assert got == expected


def test_levi_character_golden():
    # mask {1} in C3 is a GL2 factor acting on the first two coordinates
    rs = build_root_system("C", 3)
    ch = irrep_character(rs, [1], weight(2, 0, 0))
    assert ch.mults == {
        weight(2, 0, 0): 1,
        weight(1, 1, 0): 1,
        weight(0, 2, 0): 1,
    }


def test_empty_levi_character_is_the_weight_itself():
    rs = build_root_system("C", 2)
    ch = irrep_character(rs, [], weight(-3, 5))
    assert ch.mults == {weight(-3, 5): 1}
    assert weyl_dim(rs, [], weight(-3, 5)) == 1


def _compositions(k, parts):
    """Every (a_1, ..., a_parts) of nonnegative integers with sum k."""
    for bars in itertools.combinations(range(k + parts - 1), parts - 1):
        edges = (-1, *bars, k + parts - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


@pytest.mark.parametrize(
    "rank,crossed,k,count",
    [(8, 4, 12, 455), (8, 4, 40, 12_341), (2, 2, 1000, 1001)],
    ids=["A8:P4-S^12U", "A8:P4-S^40U", "A2:P2-S^1000U"],
)
def test_symmetric_power_of_u_matches_its_closed_form(rank, crossed, k, count):
    # S^kU is multiplicity-free: its weights are -(a_1, ..., a_r) on the
    # tautological block over every composition of k into r = crossed parts.
    # A2:P2's Levi has rank one, so each root string is long.
    space = parabolic_space("A", rank, [crossed])
    lam = bundle_weight(space, f"S^{k}U")
    pad = (0,) * (rank + 1 - crossed)
    expected = {weight(*(-a for a in c), *pad): 1 for c in _compositions(k, crossed)}
    assert len(expected) == count
    assert irrep_character(space.rs, space.levi_mask, lam).mults == expected


def test_character_weights_are_orbit_constant(rng):
    rs = build_root_system("B", 2)
    full = subsystem(rs, None)
    for _ in range(5):
        lam = random_dominant(rng, rs, full, span=3, half=True)
        ch = irrep_character(rs, None, lam)
        for w, m in ch.mults.items():
            for u in weyl_orbit(full, w):
                assert ch.mults.get(u) == m


FREUDENTHAL_SITES = [
    ("A", 2, None),
    ("C", 2, None),
    ("C", 3, None),
    ("C", 3, (1, 3)),
    ("B", 2, None),
    ("B", 2, (2,)),
    ("D", 3, None),
]


def test_freudenthal_totals_match_weyl_dim(rng):
    clear_character_cache()
    checked = 0
    for family, rank, mask in FREUDENTHAL_SITES:
        rs = build_root_system(family, rank)
        sub = subsystem(rs, mask)
        for _ in range(16):
            lam = random_dominant(rng, rs, sub, span=3, half=True)
            ch = irrep_character(rs, mask, lam)
            assert sum(ch.mults.values()) == weyl_dim(rs, mask, lam)
            checked += 1
    assert checked >= 100


def test_tensor_dimension_conservation(rng):
    sites = [("C", 2, None), ("B", 2, None), ("C", 3, (1, 3)), ("A", 2, None)]
    checked = 0
    for family, rank, mask in sites:
        rs = build_root_system(family, rank)
        sub = subsystem(rs, mask)
        for _ in range(26):
            lam = random_dominant(rng, rs, sub, span=2, half=True)
            mu = random_dominant(rng, rs, sub, span=2, half=True)
            pieces = tensor_decompose(rs, mask, lam, mu)
            total = sum(cnt * weyl_dim(rs, mask, w) for w, cnt in pieces)
            assert total == weyl_dim(rs, mask, lam) * weyl_dim(rs, mask, mu)
            assert all(cnt > 0 and is_dominant(sub, w) for w, cnt in pieces)
            checked += 1
    assert checked >= 100


def test_tensor_with_trivial_is_identity():
    rs = build_root_system("C", 3)
    lam = weight(2, 1, 0)
    assert tensor_decompose(rs, None, lam, weight(0, 0, 0)) == [(lam, 1)]


def test_tensor_symmetry(rng):
    rs = build_root_system("B", 2)
    sub = subsystem(rs, None)
    for _ in range(10):
        lam = random_dominant(rng, rs, sub, span=2)
        mu = random_dominant(rng, rs, sub, span=2)
        assert tensor_decompose(rs, None, lam, mu) == tensor_decompose(
            rs, None, mu, lam
        )


class TestDualWeight:
    def test_gl_closed_form(self):
        rs = build_root_system("A", 2)
        assert dual_weight(rs, None, weight(3, 1, 0)) == weight(0, -1, -3)

    def test_symplectic_self_dual(self):
        rs = build_root_system("C", 3)
        for hw in [(1, 0, 0), (2, 1, 0), (3, 3, 1)]:
            assert dual_weight(rs, None, weight(*hw)) == weight(*hw)

    def test_d3_spin_duality_swaps_chirality(self):
        rs = build_root_system("D", 3)
        assert dual_weight(rs, None, weight("1/2", "1/2", "1/2")) == weight(
            "1/2", "1/2", "-1/2"
        )

    def test_involution_and_dimension(self, rng):
        for family, rank in [("A", 2), ("B", 2), ("C", 3), ("D", 3)]:
            rs = build_root_system(family, rank)
            sub = subsystem(rs, None)
            for _ in range(8):
                lam = random_dominant(rng, rs, sub, span=3, half=True)
                dual = dual_weight(rs, None, lam)
                assert is_dominant(sub, dual)
                assert dual_weight(rs, None, dual) == lam
                assert weyl_dim(rs, None, dual) == weyl_dim(rs, None, lam)

    def test_levi_dual_golden(self):
        # on the isotropic Grassmannian the dual of the tautological rank-2
        # bundle is its twist by O(1)
        rs = build_root_system("C", 3)
        assert dual_weight(rs, [1, 3], weight(0, -1, 0)) == weight(1, 0, 0)

    def test_rejects_non_dominant(self):
        rs = build_root_system("C", 2)
        with pytest.raises(DominanceError):
            dual_weight(rs, None, weight(0, 1))


def test_weyl_dim_rejects_non_dominant():
    rs = build_root_system("C", 3)
    with pytest.raises(DominanceError):
        weyl_dim(rs, None, weight(0, 1, 0))
    with pytest.raises(DominanceError):
        irrep_character(rs, None, weight(-1, 0, 0))


def _memo_sizes():
    return [memo.cache_info().currsize for memo in (_character_cached, _weyl_dim_cached)]


def test_characters_are_the_same_warm_and_after_a_clear(rng):
    cases = []
    for family, rank, mask in FREUDENTHAL_SITES:
        rs = build_root_system(family, rank)
        sub = subsystem(rs, mask)
        for _ in range(4):
            cases.append((rs, mask, random_dominant(rng, rs, sub, span=3, half=True)))

    def characters():
        return [
            (
                irrep_character(rs, mask, lam).mults,
                weyl_dim(rs, mask, lam),
                make_dominant_dot(rs, mask, -lam),
                make_dominant_dot(rs, None, lam),
            )
            for rs, mask, lam in cases
        ]

    characters()
    warm = characters()
    assert all(_memo_sizes())
    clear_character_cache()
    assert _memo_sizes() == [0, 0]
    assert characters() == warm


def test_verify_report_is_the_same_warm_and_after_a_clear():
    for coll, mode in [(build_igr26(), "exact"), (build_orthogonal_flag(3), "chi_only")]:

        def report():
            out = verify(coll, mode).to_json_dict()
            out.pop("wall_time")
            return out

        warm = report()
        assert all(_memo_sizes())
        clear_character_cache()
        assert _memo_sizes() == [0, 0]
        # chi of a line bundle is a closed form: no memo is left behind
        assert not hasattr(weyl_product, "cache_info")
        assert report() == warm
