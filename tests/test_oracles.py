"""Closed forms against the searches they replaced.

Each test runs a formula the library uses (Brauer-Klimyk tensor products,
Macdonald's product for Levi Weyl groups, fraction-free integer linear
algebra, the fixed spinor constant, the thread verdict read off its
preconditions, simple-root coefficients as partial sums, the Weyl group,
Weyl dimension and Freudenthal on integer numerators, the Euler pairing on
packed weight keys, on right highest weights and on shapes, exact verify
read off the Gram) against the slower search, Fraction arithmetic or
tuple arithmetic kept in helpers.py, on seeded inputs.
"""

import itertools
from fractions import Fraction

import pytest

from excol import (
    BundleObject,
    CollectionSpec,
    KClass,
    Weight,
    build_root_system,
    euler_pairing,
    gram_matrix,
    irrep_character,
    is_dominant,
    kclass_of,
    make_dominant_dot,
    mutate_pair_k,
    parabolic_cell_count,
    parabolic_space,
    plain_dominantize,
    space_from_string,
    spinor_weight,
    subsystem,
    tensor_decompose,
    thread_check,
    verify,
    weyl_dim,
)
from excol.cli import _builder_by_name, main
from excol.homcalc import _bareiss, _ChiTable, _det_exact

from helpers import (
    bareiss_jordan,
    chi_line,
    coefficients,
    dot_action_chi_line,
    fraction_det,
    fraction_freudenthal,
    fraction_inverse,
    fraction_is_dominant,
    fraction_make_dominant_dot,
    fraction_plain_dominantize,
    fraction_weyl_dim,
    fraction_weyl_orbit,
    gauss_jordan_det,
    greedy_tensor_decompose,
    listwise_gram,
    orbit_cell_count,
    random_dominant,
    random_levi_dominant,
    random_weight,
    scale,
    serre_operator,
    solve_coefficients,
    spinor_constant_search,
    termwise_gram,
    thread_sweep,
    tuple_results,
    weyl_orbit,
)


@pytest.mark.parametrize(
    "family,rank,mask",
    [
        ("A", 3, None), ("A", 3, (1, 3)),
        ("B", 3, None), ("B", 3, (2, 3)),
        ("C", 3, None), ("C", 3, (1, 3)),
        ("D", 4, None), ("D", 4, (1, 3, 4)),
    ],
)
def test_brauer_klimyk_matches_greedy_extraction(family, rank, mask, rng):
    rs = build_root_system(family, rank)
    sub = subsystem(rs, mask)
    for _ in range(4):
        lam = random_dominant(rng, rs, sub, span=1, half=True)
        mu = random_dominant(rng, rs, sub, span=1, half=True)
        assert tensor_decompose(rs, mask, lam, mu) == greedy_tensor_decompose(
            rs, mask, lam, mu
        )


@pytest.mark.parametrize(
    "family,rank",
    [("A", r) for r in range(1, 6)]
    + [("B", r) for r in range(1, 6)]
    + [("C", r) for r in range(1, 6)]
    + [("D", r) for r in range(2, 6)],
)
def test_cell_count_matches_orbit_walk(family, rank):
    rs = build_root_system(family, rank)
    for size in range(rank + 1):
        for mask in itertools.combinations(range(1, rank + 1), size):
            assert parabolic_cell_count(rs, mask) == orbit_cell_count(rs, mask)


def _chi(gram, x, y):
    n = len(gram)
    return sum(x[i] * gram[i][j] * y[j] for i in range(n) for j in range(n))


@pytest.mark.parametrize("gram", [[[0, 1], [1, 0]], [[2, 1], [1, 1]]])
def test_serre_operator_on_non_triangular_unimodular(gram, rng):
    s = serre_operator(gram)
    n = len(gram)
    assert all(isinstance(x, int) for row in s for x in row)
    for _ in range(20):
        x = [rng.randint(-3, 3) for _ in range(n)]
        y = [rng.randint(-3, 3) for _ in range(n)]
        sy = [sum(s[i][j] * y[j] for j in range(n)) for i in range(n)]
        assert _chi(gram, x, sy) == _chi(gram, y, x)


def _random_unimodular(rng, n):
    """Product of random elementary matrices and a row swap: det is +-1."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        f = rng.randint(-2, 2)
        m[i] = [a + f * b for a, b in zip(m[i], m[j])]
    if rng.random() < 0.5:
        m[0], m[-1] = m[-1], m[0]
    return m


def test_integer_linear_algebra_matches_fractions(rng):
    for _ in range(60):
        n = rng.randint(2, 6)
        mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert _det_exact(mat) == fraction_det(mat)
        uni = _random_unimodular(rng, n)
        assert abs(_det_exact(uni)) == 1
        inv = fraction_inverse(uni)
        expected = [
            [sum(inv[i][k] * uni[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert serre_operator(uni) == expected


def _determinant_cases(rng):
    """Seeded integer matrices up to 8x8 that exercise every pivot case."""
    cases = []
    for n in range(1, 9):
        for _ in range(6):
            # sparse: zeros in pivot columns under pivots other than 1
            cases.append(
                [[rng.choice((0, 0, 0, 2, -3, 5)) for _ in range(n)] for _ in range(n)]
            )
            dense = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            cases.append(dense)
            # a zero top-left entry forces a row swap at the first pivot
            swapped = [row[:] for row in dense]
            swapped[0][0] = 0
            if n > 1:
                swapped[rng.randrange(1, n)][0] = rng.choice((-2, 3))
            cases.append(swapped)
            # singular: the last row is a combination of earlier ones
            singular = [row[:] for row in dense]
            f = rng.randint(-2, 2)
            singular[-1] = [f * x - y for x, y in zip(dense[0], dense[(n - 1) // 2])]
            if n > 1:
                cases.append(singular)
            cases.append([[0] + row[1:] for row in dense])
            # triangular with non-unit pivots, then with its rows shuffled
            upper = [
                [rng.choice((1, -1, 2, 3)) if i == j else rng.randint(-3, 3) * (j > i)
                 for j in range(n)]
                for i in range(n)
            ]
            cases.append(upper)
            cases.append(rng.sample(upper, n))
            cases.append(_random_unit_upper(rng, n))
    return cases


def test_forward_determinant_matches_both_oracles(rng):
    cases = _determinant_cases(rng)
    values = []
    for mat in cases:
        expected = fraction_det(mat)
        assert gauss_jordan_det(mat) == expected
        assert _det_exact(mat) == expected
        values.append(expected)
    assert values.count(0) >= 7 * 6 and any(abs(v) > 1 for v in values)


def test_gauss_jordan_path_gives_the_adjugate(rng):
    # with a right-hand side the old Bareiss elimination works above each pivot too
    for mat in _determinant_cases(rng):
        n = len(mat)
        det, adj = bareiss_jordan(mat, [[int(i == j) for j in range(n)] for i in range(n)])
        assert det == fraction_det(mat)
        if det == 0:
            assert adj is None
            continue
        for i in range(n):
            row = [sum(mat[i][k] * adj[k][j] for k in range(n)) for j in range(n)]
            assert row == [det * (i == j) for j in range(n)]


def _triangle_reader_cases(rng):
    """Seeded matrices up to 8x8: upper- and lower-triangular ones with zero
    and non-unit diagonal entries, unit upper-triangular ones with two
    adjacent objects swapped, and dense ones."""
    cases = []
    for n in range(1, 9):
        for _ in range(4):
            upper = [
                [rng.choice((1, 1, -1, 0, 2, -3)) if i == j else rng.randint(-5, 5) * (j > i)
                 for j in range(n)]
                for i in range(n)
            ]
            cases += [upper, [list(col) for col in zip(*upper)]]
            swapped = _random_unit_upper(rng, n)
            k = rng.randrange(max(n - 1, 1))
            order = list(range(n))
            order[k:k + 2] = order[k:k + 2][::-1]
            cases.append([[swapped[i][j] for j in order] for i in order])
            cases.append([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
    return cases


def test_det_reads_a_triangular_matrix_of_either_orientation(monkeypatch, rng):
    calls = []
    monkeypatch.setattr(
        "excol.homcalc._bareiss", lambda m: calls.append(m) or _bareiss(m)
    )
    kinds = set()
    for mat in _triangle_reader_cases(rng):
        n = len(mat)
        upper = all(mat[i][j] == 0 for i in range(n) for j in range(i))
        lower = all(mat[i][j] == 0 for i in range(n) for j in range(i + 1, n))
        calls.clear()
        det = fraction_det(mat)
        assert _det_exact(mat) == det
        assert len(calls) == (0 if upper or lower else 1)
        kinds.add((upper, lower, det == 0))
    # upper and lower, each with a zero and a nonzero det, and eliminated ones
    assert kinds >= {(u, not u, z) for u in (True, False) for z in (True, False)}
    assert (False, False, False) in kinds


@pytest.mark.parametrize("dim", range(3, 26))
def test_spinor_constant_is_the_acyclic_one(dim):
    if dim % 2:
        space, signs = parabolic_space("B", (dim + 1) // 2, [1]), [0]
    else:
        space, signs = parabolic_space("D", (dim + 2) // 2, [1]), [1, -1]
    constant = spinor_constant_search(space)
    for sign in signs:
        assert spinor_weight(space, sign).coords[0] == constant


def test_cell_count_of_a_large_projective_space(capsys):
    assert main(["cells", "--space", "A20:P1"]) == 0
    assert capsys.readouterr().out == "21\n"


def _random_unit_upper(rng, n):
    return [
        [int(i == j) if j <= i else rng.randint(-6, 6) for j in range(n)]
        for i in range(n)
    ]


def test_thread_verdict_matches_sweep_on_unit_triangular(rng):
    for _ in range(300):
        n = rng.randint(1, 12)
        gram = _random_unit_upper(rng, n)
        dim = rng.randint(0, n - 1)
        ok, trace = thread_check(gram, dim)
        assert ok
        assert (ok, trace) == thread_sweep(gram, dim)


def _break_square(rng, gram):
    gram[rng.randrange(len(gram))].pop()


def _break_diagonal(rng, gram):
    k = rng.randrange(len(gram))
    gram[k][k] = rng.choice([-2, -1, 0, 2, 3])


def _break_triangle(rng, gram):
    i = rng.randrange(1, len(gram))
    gram[i][rng.randrange(i)] = rng.choice([-3, -1, 1, 2])


@pytest.mark.parametrize("breaker", [_break_square, _break_diagonal, _break_triangle])
def test_thread_verdict_matches_sweep_on_broken_preconditions(breaker, rng):
    for _ in range(40):
        n = rng.randint(2, 10)
        gram = _random_unit_upper(rng, n)
        breaker(rng, gram)
        dim = rng.randint(0, n - 1)
        ok, trace = thread_check(gram, dim)
        assert not ok
        assert (ok, trace) == thread_sweep(gram, dim)


def test_thread_verdict_matches_sweep_below_the_period_bound(rng):
    for _ in range(40):
        n = rng.randint(1, 10)
        gram = _random_unit_upper(rng, n)
        dim = rng.randint(n, n + 3)
        ok, trace = thread_check(gram, dim)
        assert not ok
        assert (ok, trace) == thread_sweep(gram, dim)


def test_thread_trace_matches_the_row_by_row_scan_with_several_faults(rng):
    backward = set()
    for _ in range(200):
        n = rng.randint(2, 10)
        gram = _random_unit_upper(rng, n)
        for _ in range(rng.randint(2, 5)):
            rng.choice([_break_triangle, _break_triangle, _break_diagonal])(rng, gram)
        dim = rng.randint(0, n - 1)
        ok, trace = thread_check(gram, dim)
        assert (ok, trace) == thread_sweep(gram, dim)
        backward.add(trace[-1].startswith("FAIL: backward pairing"))
    assert backward == {True, False}  # both kinds of fault are reported first


def _random_half_vector(rng, dim):
    return Weight(tuple(Fraction(rng.randint(-8, 8), 2) for _ in range(dim)))


@pytest.mark.parametrize(
    "family,rank",
    [("A", r) for r in range(1, 6)]
    + [("B", r) for r in range(1, 6)]
    + [("C", r) for r in range(1, 6)]
    + [("D", r) for r in range(2, 6)],
)
def test_partial_sum_coefficients_match_gauss_solve(family, rank, rng):
    rs = build_root_system(family, rank)
    supports = {
        a: {k for k, c in enumerate(solve_coefficients(rs.simple_roots, a), 1) if c}
        for a in rs.positive_roots
    }
    for size in range(rank + 1):
        for mask in itertools.combinations(range(1, rank + 1), size):
            sub = subsystem(rs, mask)
            assert sub.positive_roots == tuple(
                a for a in rs.positive_roots if supports[a] <= set(mask)
            )
            in_span = []
            for _ in range(4):
                v = Weight(tuple(Fraction(0) for _ in range(rs.dim)))
                for b in sub.simple_roots:
                    v = v + scale(b, Fraction(rng.randint(-6, 6), 2))
                in_span.append(v)
            vectors = (
                list(rs.positive_roots)
                + in_span
                + [_random_half_vector(rng, rs.dim) for _ in range(4)]
            )
            for v in vectors:
                assert coefficients(sub, v) == solve_coefficients(sub.simple_roots, v)
            assert all(coefficients(sub, v) is not None for v in in_span)


INTEGER_CORE_SYSTEMS = (
    [("A", r) for r in range(1, 6)]
    + [("B", r) for r in range(2, 6)]
    + [("C", r) for r in range(2, 6)]
    + [("D", r) for r in range(3, 6)]
)


def _masks(rng, rank):
    """Every mask up to rank 4; above that the full, empty and 4 random masks."""
    if rank <= 4:
        return [
            mask
            for size in range(rank + 1)
            for mask in itertools.combinations(range(1, rank + 1), size)
        ]
    nodes = range(1, rank + 1)
    return [tuple(nodes), ()] + [
        tuple(sorted(rng.sample(nodes, rng.randint(1, rank - 1)))) for _ in range(4)
    ]


def _lattice_weights(rng, rs, count, span):
    """Seeded lattice weights, half of them half-integral in types B and D."""
    half = rs.family in ("B", "D")
    return [random_weight(rng, rs, span, half and k % 2) for k in range(count)]


@pytest.mark.parametrize("family,rank", INTEGER_CORE_SYSTEMS)
def test_integer_roots_match_fraction_coroots(family, rank, rng):
    rs = build_root_system(family, rank)
    for mask in _masks(rng, rank):
        sub = subsystem(rs, mask)
        pairs = list(zip(sub.simple_roots, sub.simple_int))
        pairs += zip(sub.positive_roots, sub.positive_int)
        for alpha, (i, j, a, b, c, d) in pairs:
            root = [0] * rs.dim
            coroot = [0] * rs.dim
            root[i] += a
            root[j] += b
            coroot[i] += c
            coroot[j] += d
            assert tuple(root) == alpha.coords
            norm = sum(x * x for x in alpha.coords)
            assert tuple(coroot) == tuple(2 * x / norm for x in alpha.coords)


@pytest.mark.parametrize("family,rank", INTEGER_CORE_SYSTEMS)
def test_dot_action_matches_fraction_oracle(family, rank, rng):
    rs = build_root_system(family, rank)
    outcomes = set()
    for mask in _masks(rng, rank):
        for lam in _lattice_weights(rng, rs, 8, 4):
            expected = fraction_make_dominant_dot(rs, mask, lam)
            assert make_dominant_dot(rs, mask, lam) == expected
            outcomes.add(expected is None)
    assert outcomes == {True, False}, "both singular and regular weights are drawn"


@pytest.mark.parametrize("family,rank", INTEGER_CORE_SYSTEMS)
def test_weyl_group_matches_fraction_oracle(family, rank, rng):
    rs = build_root_system(family, rank)
    for mask in _masks(rng, rank):
        sub = subsystem(rs, mask)
        for v in _lattice_weights(rng, rs, 6, 4):
            assert is_dominant(sub, v) == fraction_is_dominant(sub, v)
            dom = plain_dominantize(sub, v)
            assert dom == fraction_plain_dominantize(sub, v)
            assert is_dominant(sub, dom) and fraction_is_dominant(sub, dom)
        if rank <= 4:
            v = _lattice_weights(rng, rs, 1, 2)[0]
            assert weyl_orbit(sub, v) == fraction_weyl_orbit(sub, v)


@pytest.mark.parametrize("family,rank", INTEGER_CORE_SYSTEMS)
def test_weyl_dim_and_character_match_fraction_oracle(family, rank, rng):
    rs = build_root_system(family, rank)
    for mask in _masks(rng, rank):
        sub = subsystem(rs, mask)
        for k, v in enumerate(_lattice_weights(rng, rs, 4, 3)):
            lam = fraction_plain_dominantize(sub, v)
            assert weyl_dim(rs, mask, lam) == fraction_weyl_dim(rs, mask, lam)
            if k < 2:
                small = fraction_plain_dominantize(sub, _lattice_weights(rng, rs, 2, 1)[k])
                assert irrep_character(rs, mask, small).mults == fraction_freudenthal(
                    rs, mask, small
                )


@pytest.mark.parametrize("family,rank", INTEGER_CORE_SYSTEMS)
def test_chi_line_matches_dot_action_oracle(family, rank, rng):
    rs = build_root_system(family, rank)
    values = []
    for nu in _lattice_weights(rng, rs, 300, 3):
        expected = dot_action_chi_line(rs, nu)
        assert chi_line(rs, nu) == expected, nu
        values.append(expected)
    assert 0 in values, "singular weights are drawn"
    assert min(values) < 0 < max(values), "both signs of chi are drawn"


KERNEL_SYSTEMS = (
    [("A", r) for r in range(1, 5)]
    + [(f, r) for f in "BC" for r in range(2, 5)]
    + [("D", 3), ("D", 4)]
)


def _random_kclass(rng, space, span):
    half = space.rs.family in "BD"
    terms = {}
    for _ in range(rng.randint(1, 12)):
        w = random_weight(rng, space.rs, span, half and rng.random() < 0.5)
        terms[w] = terms.get(w, 0) + rng.choice([-3, -2, -1, 1, 2, 3])
    return KClass.from_dict(space, terms)


@pytest.mark.parametrize("family,rank", KERNEL_SYSTEMS)
def test_packed_euler_pairing_matches_termwise_oracle(family, rank, rng):
    space = parabolic_space(family, rank, [1])
    classes = [_random_kclass(rng, space, rng.randint(1, 9)) for _ in range(7)]
    # a coefficient that cancels to zero in a sum of classes
    (w0, c0), extra = classes[0].terms[0], random_weight(rng, space.rs, 9)
    cancelled = classes[0].add(KClass.from_dict(space, {w0: -c0, extra: 1}))
    assert w0 not in cancelled.as_dict()
    classes.append(cancelled)
    assert any(min(w.num) < 0 for k in classes for w, _ in k.terms)

    expected = termwise_gram(classes)
    assert gram_matrix(classes) == expected
    for x, row in zip(classes, expected):
        for y, chi in zip(classes, row):
            assert euler_pairing(x, y, method="chi") == chi
            if x.terms != y.terms:
                assert mutate_pair_k(x, y, "left") == (x.scale(chi).sub(y), x)
                assert mutate_pair_k(x, y, "right") == (y, y.scale(chi).sub(x))


def _weight_of(num):
    return Weight(Fraction(x, 2) for x in num)


def test_packed_keys_separate_differences_that_collide_in_a_smaller_base():
    space = parabolic_space("B", 2, [1])
    lines = [
        KClass.from_dict(space, {_weight_of(num): 1})
        for num in [(-1, -1), (-1, 1), (0, -2), (3, 1)]
    ]
    nums = [k.terms[0][0].num for k in lines]
    spread = max(max(c) - min(c) for c in zip(*nums))
    diffs = {tuple(x - y for x, y in zip(b, a)) for a in nums for b in nums}

    def clashing_chis(base, order):
        keyed = {}
        for d in diffs:
            key = sum(x * base**i for i, x in enumerate(d[::order]))
            keyed.setdefault(key, set()).add(chi_line(space.rs, _weight_of(d)))
        return [chis for chis in keyed.values() if len(chis) > 1]

    # digits in [-s, s] are ambiguous in base s + 1: whichever coordinate is
    # the low digit, two differences with different chi share a key there
    assert clashing_chis(spread + 1, 1) and clashing_chis(spread + 1, -1)
    assert not clashing_chis(2 * spread + 1, 1)
    assert gram_matrix(lines) == termwise_gram(lines) == [
        [chi_line(space.rs, _weight_of(b) - _weight_of(a)) for b in nums] for a in nums
    ]


@pytest.mark.parametrize("name", ["C3:P2", "B3:P1", "B4:P1", "D4:P1", "D5:P1", "A4:P1,3"])
def test_bundle_gram_and_exact_verify_match_termwise_and_graded_hom(name, rng):
    """Bundles enter the Gram on the right by highest weight alone, and exact
    verify reads every pair with a line bundle off the Gram; both against
    the full terms and per-pair graded_hom, on shuffled shifted bundles."""
    space = space_from_string(name)
    dim = space.rs.dim
    # the fundamental weight of each crossed node, none of them a spin node here
    lines = [Weight([1] * k + [0] * (dim - k)) for k in sorted(space.crossed)]
    objects = []
    for k in range(9):
        if k % 2:
            hw = random_levi_dominant(rng, space, span=1, half=True)
        else:
            hw = Weight([0] * dim)
            for w in lines:
                hw = hw + scale(w, rng.randint(-3, 3))
        objects.append(BundleObject(space, hw, rng.randint(-1, 2)))
    rng.shuffle(objects)

    gram = gram_matrix(objects)
    assert gram == termwise_gram([kclass_of(o) for o in objects])
    for x, row in zip(objects, gram):
        for y, chi in zip(objects, row):
            assert euler_pairing(x, y) == euler_pairing(x, y, method="ext") == chi
    # a class that is no bundle's: the bundle on its right keeps every term
    odd = KClass.from_dict(space, {random_weight(rng, space.rs, 3): 1, lines[0]: -2})
    for y in objects:
        assert euler_pairing(odd, y) == termwise_gram([odd, kclass_of(y)])[0][1]

    labels = tuple(f"E{k}" for k in range(len(objects)))
    coll = CollectionSpec(space, tuple(objects), "bundles", labels, name)
    report = verify(coll, mode="exact")
    exceptional, semiorthogonal = tuple_results(coll, "exact", report.gram)
    assert tuple(report.exceptional) == exceptional
    assert tuple(report.semiorthogonal) == semiorthogonal
    mixed = [
        r for r in semiorthogonal
        if not r.ok and sorted(objects[k].rank == 1 for k in (r.row, r.col)) == [False, True]
    ]
    assert mixed, "a failing pair of a line and a bundle of higher rank"


def _classes(objects):
    return [kclass_of(o) if isinstance(o, BundleObject) else o for o in objects]


@pytest.mark.parametrize(
    "name",
    [f"orthogonal:{n}" for n in (2, 3, 4)]
    + [f"symplectic:{n}" for n in (2, 3, 4)]
    + [f"quadric:{n}" for n in range(5, 10)]
    + ["igr26"],
)
def test_shape_gram_matches_listwise_and_termwise_on_builders(name):
    objects = _builder_by_name(name).objects
    gram = gram_matrix(objects)
    assert gram == listwise_gram(objects)
    assert gram == termwise_gram(_classes(objects))


@pytest.mark.parametrize("name", ["C3:P2", "B3:P1", "D4:P1", "A4:P1,3"])
def test_shape_gram_matches_listwise_and_termwise_on_seeded_mixtures(name, rng):
    """Lines and bundles of higher rank with odd shifts, K-classes that are
    translates of one another, a class with a cancelled term, and mixed
    lists of bundles and K-classes, where no right object enters by its head."""
    space = space_from_string(name)
    rs = space.rs
    lines = [Weight([1] * k + [0] * (rs.dim - k)) for k in sorted(space.crossed)]
    bundles = []
    for k in range(8):
        if k % 2:
            hw = random_levi_dominant(rng, space, span=1, half=True)
        else:
            hw = Weight([0] * rs.dim)
            for w in lines:
                hw = hw + scale(w, rng.randint(-3, 3))
        bundles.append(BundleObject(space, hw, rng.randint(-1, 2)))
    assert {o.rank == 1 for o in bundles} == {True, False}
    assert {o.shift % 2 for o in bundles} == {0, 1}

    base = _random_kclass(rng, space, 3)
    translates = [
        KClass.from_dict(space, {w + shift: c for w, c in base.terms})
        for shift in [random_weight(rng, rs, 3) for _ in range(4)]
    ]
    (w0, c0), extra = base.terms[0], random_weight(rng, rs, 3)
    cancelled = base.add(KClass.from_dict(space, {w0: -c0, extra: 1}))
    assert w0 not in cancelled.as_dict()
    classes = [base, *translates, cancelled, _random_kclass(rng, space, 2)]
    # the translates share the base's shape
    assert len(_ChiTable(classes, classes).shape_rows) <= len(classes) - len(translates)
    mixed = bundles[:4] + classes[:4]
    rng.shuffle(mixed)

    for objects in (bundles, classes, mixed):
        gram = gram_matrix(objects)
        assert gram == listwise_gram(objects) == termwise_gram(_classes(objects))
    for x in mixed:
        for y in bundles[:3] + mixed:
            assert euler_pairing(x, y) == listwise_gram([x], [y])[0][0]
    for x, y in itertools.combinations(classes, 2):
        chi = listwise_gram([x], [y])[0][0]
        assert mutate_pair_k(x, y, "left") == (x.scale(chi).sub(y), x)
        assert mutate_pair_k(x, y, "right") == (y, y.scale(chi).sub(x))
