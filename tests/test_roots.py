"""Root systems and the dot action, checked against independent oracles.

The oracle side builds each family's root set straight from the textbook
definition, takes the lexicographically positive half, and enumerates the
Weyl group as explicit signed permutations.  None of it reuses the
library's reflection machinery, so agreement is meaningful.
"""

import itertools
from fractions import Fraction

import pytest

from excol import (
    DominanceError,
    LatticeError,
    Weight,
    build_root_system,
    is_dominant,
    make_dominant_dot,
    parabolic_cell_count,
    parabolic_space,
    plain_dominantize,
    subsystem,
    validate_weight,
    weight,
    weyl_order,
)
from excol.roots import MAX_RANK, ExcolError, _pairings

from helpers import (
    coefficients, coroot_pairing, dot, is_zero, random_weight, reflect, scale, weyl_orbit,
)

CASES = [
    ("A", 1), ("A", 2), ("A", 3),
    ("B", 2), ("B", 3),
    ("C", 1), ("C", 2), ("C", 3),
    ("D", 2), ("D", 3), ("D", 4),
]


def oracle_roots(family, rank):
    """All roots of the family as plain coordinate tuples, by definition."""
    dim = rank + 1 if family == "A" else rank
    e = [
        tuple(Fraction(1 if i == j else 0) for j in range(dim))
        for i in range(dim)
    ]

    def comb(i, j, si, sj):
        return tuple(si * a + sj * b for a, b in zip(e[i], e[j]))

    roots = set()
    if family == "A":
        for i in range(dim):
            for j in range(dim):
                if i != j:
                    roots.add(comb(i, j, 1, -1))
        return roots
    for i in range(rank):
        for j in range(i + 1, rank):
            for si in (1, -1):
                for sj in (1, -1):
                    roots.add(comb(i, j, si, sj))
    if family == "B":
        for i in range(rank):
            roots.add(e[i])
            roots.add(tuple(-c for c in e[i]))
    if family == "C":
        for i in range(rank):
            roots.add(tuple(2 * c for c in e[i]))
            roots.add(tuple(-2 * c for c in e[i]))
    return roots


def lex_positive(v):
    for c in v:
        if c != 0:
            return c > 0
    return False


def weyl_elements(family, rank):
    """The Weyl group as (permutation, signs) pairs acting on coordinates."""
    dim = rank + 1 if family == "A" else rank
    out = []
    for perm in itertools.permutations(range(dim)):
        if family == "A":
            out.append((perm, (1,) * dim))
            continue
        for signs in itertools.product((1, -1), repeat=dim):
            if family == "D" and signs.count(-1) % 2:
                continue
            out.append((perm, signs))
    return out


def apply_element(g, coords):
    perm, signs = g
    return tuple(s * coords[p] for s, p in zip(signs, perm))


def oracle_is_dominant(family, coords):
    n = len(coords)
    if family == "A":
        return all(coords[i] >= coords[i + 1] for i in range(n - 1))
    if family in ("B", "C"):
        return (
            all(coords[i] >= coords[i + 1] for i in range(n - 1))
            and coords[-1] >= 0
        )
    return (
        all(coords[i] >= coords[i + 1] for i in range(n - 1))
        and coords[-2] + coords[-1] >= 0
    )


@pytest.mark.parametrize("family,rank", CASES)
def test_positive_roots_match_oracle(family, rank):
    rs = build_root_system(family, rank)
    expected = {v for v in oracle_roots(family, rank) if lex_positive(v)}
    assert {r.coords for r in rs.positive_roots} == expected
    assert set(rs.simple_roots) <= set(rs.positive_roots)


@pytest.mark.parametrize(
    "family,rank,count",
    [
        ("A", 2, 3), ("A", 3, 6),
        ("B", 2, 4), ("B", 3, 9),
        ("C", 2, 4), ("C", 3, 9),
        ("D", 2, 2), ("D", 3, 6), ("D", 4, 12),
    ],
)
def test_positive_root_counts(family, rank, count):
    # n(n+1)/2, n^2, n^2, n(n-1) respectively
    assert len(build_root_system(family, rank).positive_roots) == count


@pytest.mark.parametrize(
    "family,rank,rho",
    [
        ("A", 2, (1, 0, -1)),
        ("B", 2, (Fraction(3, 2), Fraction(1, 2))),
        ("C", 3, (3, 2, 1)),
        ("D", 2, (1, 0)),
        ("D", 3, (2, 1, 0)),
    ],
)
def test_rho_closed_forms(family, rank, rho):
    rs = build_root_system(family, rank)
    assert rs.rho.coords == tuple(Fraction(c) for c in rho)


@pytest.mark.parametrize("family,rank", CASES)
def test_positive_roots_decompose_over_simples(family, rank):
    rs = build_root_system(family, rank)
    full = subsystem(rs, None)
    for a in rs.positive_roots:
        coeffs = coefficients(full, a)
        assert coeffs is not None
        assert all(c.denominator == 1 and c >= 0 for c in coeffs)


@pytest.mark.parametrize("family,rank", CASES)
def test_weyl_order_formula_matches_enumeration(family, rank):
    rs = build_root_system(family, rank)
    assert weyl_order(rs) == len(weyl_elements(family, rank))


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 3), ("D", 3)])
def test_weyl_orbit_of_rho_has_group_order(family, rank):
    rs = build_root_system(family, rank)
    assert len(weyl_orbit(subsystem(rs, None), rs.rho)) == weyl_order(rs)


def test_weyl_orbit_small_golden():
    rs = build_root_system("B", 2)
    orbit = weyl_orbit(subsystem(rs, None), weight(1, 0))
    assert {w.coords for w in orbit} == {
        (Fraction(1), Fraction(0)),
        (Fraction(-1), Fraction(0)),
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(-1)),
    }


class TestLatticeValidation:
    def test_half_integral_rejected_in_type_c(self):
        rs = build_root_system("C", 3)
        with pytest.raises(LatticeError):
            validate_weight(rs, weight("1/2", "1/2", "1/2"))

    def test_half_integral_rejected_in_type_a(self):
        rs = build_root_system("A", 1)
        with pytest.raises(LatticeError):
            validate_weight(rs, weight("1/2", "-1/2"))

    def test_mixed_parity_rejected_in_type_b(self):
        rs = build_root_system("B", 2)
        with pytest.raises(LatticeError):
            validate_weight(rs, weight("1/2", 1))

    def test_all_half_accepted_in_types_b_and_d(self):
        validate_weight(build_root_system("B", 2), weight("1/2", "1/2"))
        validate_weight(build_root_system("D", 3), weight("1/2", "1/2", "-1/2"))

    def test_deep_denominators_rejected(self):
        rs = build_root_system("B", 2)
        with pytest.raises(LatticeError):
            validate_weight(rs, weight("1/3", "1/3"))

    def test_dimension_mismatch_rejected(self):
        rs = build_root_system("A", 2)  # GL lattice: dimension 3
        with pytest.raises(LatticeError):
            validate_weight(rs, weight(1, 0))


def test_construction_guards():
    with pytest.raises(ValueError):
        build_root_system("E", 8)
    with pytest.raises(ValueError):
        build_root_system("C", 0)
    with pytest.raises(ValueError):
        build_root_system("D", 1)


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("C", 3), ("D", 3)])
def test_plain_dominantize_matches_group_search(family, rank, rng):
    rs = build_root_system(family, rank)
    full = subsystem(rs, None)
    group = weyl_elements(family, rank)
    for _ in range(25):
        v = random_weight(rng, rs, span=5)
        dom = plain_dominantize(full, v)
        assert is_dominant(full, dom)
        images = {apply_element(g, v.coords) for g in group}
        assert dom.coords in images
        expected = [u for u in images if oracle_is_dominant(family, u)]
        assert dom.coords in expected


def oracle_dot(family, rank, lam):
    """(length, dominant image) of the dot action, via group enumeration."""
    positives = sorted(v for v in oracle_roots(family, rank) if lex_positive(v))
    dim = len(lam.coords)
    rho = tuple(
        sum((a[i] for a in positives), Fraction(0)) / 2 for i in range(dim)
    )
    v = tuple(a + b for a, b in zip(lam.coords, rho))
    group = weyl_elements(family, rank)
    images = {apply_element(g, v) for g in group}
    if len(images) < len(group):
        return None  # stabilized, hence on a wall
    for g in group:
        u = apply_element(g, v)
        if oracle_is_dominant(family, u):
            length = sum(
                1 for a in positives if not lex_positive(apply_element(g, a))
            )
            mu = tuple(x - r for x, r in zip(u, rho))
            return length, Weight(mu)
    raise AssertionError("no dominant image found for a regular weight")


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("C", 3), ("D", 3)])
def test_dot_action_matches_group_oracle(family, rank, rng):
    rs = build_root_system(family, rank)
    for _ in range(30):
        lam = random_weight(rng, rs, span=4, half=False)
        got = make_dominant_dot(rs, None, lam)
        expected = oracle_dot(family, rank, lam)
        if expected is None:
            assert got is None
        else:
            assert got == (expected[0], expected[1])


def test_dot_action_goldens():
    rs = build_root_system("C", 3)
    assert make_dominant_dot(rs, None, weight(-5, -5, 0)) == (7, weight(0, 0, 0))
    assert make_dominant_dot(rs, None, weight(-4, -6, 0)) is None
    assert make_dominant_dot(rs, None, weight(1, 0, 0)) == (0, weight(1, 0, 0))


def test_dot_action_respects_mask():
    # over the Levi on nodes {1, 3} the shift is rho' = (1/2, -1/2, 1)
    rs = build_root_system("C", 3)
    assert make_dominant_dot(rs, [1, 3], weight(-7, -3, 0)) == (
        1,
        weight(-4, -6, 0),
    )
    assert make_dominant_dot(rs, [1, 3], weight(-1, 0, 0)) is None
    assert make_dominant_dot(rs, [1, 3], weight(1, 0, 0)) == (0, weight(1, 0, 0))


def test_dot_action_validates_lattice():
    rs = build_root_system("C", 2)
    with pytest.raises(LatticeError):
        make_dominant_dot(rs, None, weight("1/2", "1/2"))


def test_subsystem_rho_golden():
    rs = build_root_system("C", 3)
    sub = subsystem(rs, [1, 3])
    assert sub.rho == weight("1/2", "-1/2", 1)
    assert len(sub.positive_roots) == 2


def test_subsystem_mask_guards():
    rs = build_root_system("C", 3)
    with pytest.raises(ValueError):
        subsystem(rs, [0])
    with pytest.raises(ValueError):
        subsystem(rs, [4])


@pytest.mark.parametrize(
    "family,rank,levi,cells",
    [
        ("C", 3, (1, 3), 12),   # the rank-12 lattice behind the 12-object list
        ("A", 2, (2,), 3),      # plane, 3 cells
        ("A", 3, (2, 3), 4),
        ("A", 3, (1, 3), 6),    # Grassmannian of 2-planes in 4-space
        ("B", 2, (2,), 4),
        ("C", 3, (2, 3), 6),
        ("C", 2, (), 8),        # Borel case: the full Weyl group
        ("B", 3, (2, 3), 6),
    ],
)
def test_parabolic_cell_counts(family, rank, levi, cells):
    rs = build_root_system(family, rank)
    assert parabolic_cell_count(rs, levi) == cells


def test_dominance_error_type():
    assert issubclass(DominanceError, ExcolError)
    assert issubclass(LatticeError, ExcolError)


def test_weight_arithmetic():
    a = weight(1, 2, 3)
    b = weight(0, 1, -1)
    assert (a + b).coords == (1, 3, 2)
    assert (a - b).coords == (1, 1, 4)
    assert (-a).coords == (-1, -2, -3)
    assert scale(a, Fraction(1, 2)).coords == (
        Fraction(1, 2),
        Fraction(1),
        Fraction(3, 2),
    )
    assert dot(a, b) == -1
    assert not is_zero(a)
    assert is_zero(weight(0, 0))
    assert str(weight(-5, -5, 0)) == "(-5, -5, 0)"
    with pytest.raises(ValueError):
        a + weight(1, 2)


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_reflect_is_the_coroot_reflection(family, rank, rng):
    # by coordinates: <v, a^vee> = 2 (v, a) / (a, a), and s_a v = v - <v, a^vee> a
    rs = build_root_system(family, rank)
    halves = [False, True] if family in "BD" else [False]
    weights = [random_weight(rng, rs, span=5, half=h) for h in halves for _ in range(8)]
    for v in weights + [rs.rho]:
        pairings = _pairings(subsystem(rs).positive_int, v.num)
        for alpha, doubled in zip(rs.positive_roots, pairings):
            p = coroot_pairing(v, alpha)
            dot = sum(x * a for x, a in zip(v.coords, alpha.coords))
            assert p == 2 * dot / sum(a * a for a in alpha.coords) == Fraction(doubled, 2)
            image = reflect(v, alpha)
            assert image.coords == tuple(x - p * a for x, a in zip(v.coords, alpha.coords))
            assert reflect(image, alpha) == v
            assert coroot_pairing(alpha, alpha) == 2


def test_root_systems_and_subsystems_are_interned():
    rs = build_root_system("C", 3)
    assert build_root_system("C", 3) is rs
    assert subsystem(rs, {1}) is subsystem(rs, [1])
    assert subsystem(rs, None) is subsystem(rs, [1, 2, 3])


def test_equal_spaces_compare_and_hash_equal():
    first, second = parabolic_space("C", 3, [2]), parabolic_space("C", 3, [2])
    assert first == second and hash(first) == hash(second)
    assert first != parabolic_space("C", 3, [1])


def test_rank_limit():
    assert build_root_system("A", MAX_RANK).rank == MAX_RANK
    for family in "ABCD":
        with pytest.raises(ExcolError, match="exceeds"):
            build_root_system(family, MAX_RANK + 1)
