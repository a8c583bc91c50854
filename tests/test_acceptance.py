"""End-to-end battery.

Each test is one deliverable with its stated tolerance and time budget and
emits a single PASS line on success (visible with -s or -rA); any failure
carries the evidence in the assertion message.
"""

import math
import time

from excol import (
    BundleObject,
    build_beilinson,
    build_igr26,
    build_orthogonal_flag,
    build_quadric,
    build_root_system,
    build_symplectic_flag,
    bundle_weight,
    canonical_bundle,
    clear_character_cache,
    euler_pairing,
    graded_hom,
    gram_matrix,
    irrep_character,
    kclass_of,
    mutate_pair_k,
    parabolic_cell_count,
    parabolic_space,
    pushforward,
    subsystem,
    tensor_decompose,
    thread_check,
    verify,
    weight,
    weyl_dim,
)

from helpers import random_dominant, random_levi_dominant, tensor_line

IGR = parabolic_space("C", 3, [2])
IF = parabolic_space("C", 3, [1, 2])


def _report(ok, text):
    print(("PASS: " if ok else "FAIL: ") + text)
    assert ok, text


def test_criterion_01_golden_hom_values():
    u_star = BundleObject(IGR, bundle_weight(IGR, "U*"))
    u_minus4 = BundleObject(IGR, bundle_weight(IGR, "U(-4)"))
    o = BundleObject(IGR, bundle_weight(IGR, "O"))

    start = time.perf_counter()
    top = graded_hom(u_star, u_minus4)
    first = time.perf_counter() - start

    start = time.perf_counter()
    nothing = graded_hom(u_star, o)
    second = time.perf_counter() - start

    _report(
        top == {7: 1} and nothing == {} and first < 1.0 and second < 1.0,
        "golden Hom values: Hom(U*, U(-4)) = k[-7] and Hom(U*, O) = 0 "
        f"({first:.3f}s, {second:.3f}s)",
    )


def test_criterion_02_full_exceptionality_of_the_twelve():
    report = verify(build_igr26(), mode="exact")
    diag_ok = sum(1 for r in report.exceptional if r.ok)
    pairs_ok = sum(1 for r in report.semiorthogonal if r.ok)
    _report(
        report.passed
        and diag_ok == 12
        and pairs_ok == 66
        and report.wall_time < 30.0,
        f"12 diagonal and 66 backward checks, single-threaded in "
        f"{report.wall_time:.2f}s: {report.summary_line()}",
    )


def test_criterion_03_k_group_rank():
    rs = build_root_system("C", 3)
    cells = parabolic_cell_count(rs, frozenset({1, 3}))
    length = len(build_igr26())
    _report(
        cells == 12 and length == 12 and IGR.cell_count == 12,
        f"cell count {cells} = collection length {length} = 12",
    )


def test_criterion_04_pushforward_table():
    def closed_form(i, j):
        if j >= i:
            return weight(-i, -j, 0), 0
        if j - i == -1:
            return None
        return weight(-j - 1, 1 - i, 0), -1

    start = time.perf_counter()
    mismatches = []
    for i in range(-1, 8):
        for j in range(0, 4):
            got = pushforward(BundleObject(IF, weight(-i, -j, 0)), IGR)
            expected = closed_form(i, j)
            want = (
                None
                if expected is None
                else BundleObject(IGR, expected[0], expected[1])
            )
            if got != want:
                mismatches.append((i, j, got, want))
    elapsed = time.perf_counter() - start

    high = pushforward(BundleObject(IF, bundle_weight(IF, "L(7,3)")), IGR)
    low = pushforward(BundleObject(IF, bundle_weight(IF, "L(-1,0)")), IGR)
    singled = high == BundleObject(
        IGR, bundle_weight(IGR, "S^2U(-4)"), -1
    ) and low == BundleObject(IGR, bundle_weight(IGR, "U*"))

    _report(
        not mismatches and singled and elapsed < 5.0,
        f"three-case pushforward law over -1<=i<=7, 0<=j<=3 in {elapsed:.2f}s"
        + (f"; mismatches {mismatches}" if mismatches else ""),
    )


def test_criterion_05_picard_relations():
    rel1 = bundle_weight(IF, "p*O(-1)") == bundle_weight(IF, "O_U(-1)")
    rel2 = (
        bundle_weight(IF, "p*O(-1)") + bundle_weight(IF, "O_N(-1)")
        == bundle_weight(IF, "q*O(-1)")
    )
    first = bundle_weight(IF, "p*O(-2)") + bundle_weight(IF, "q*O(-4)")
    second = bundle_weight(IF, "p*O(-6)") + bundle_weight(IF, "O_N(-4)")
    direct = canonical_bundle(IF).hw
    rel3 = first == second == direct
    _report(
        rel1 and rel2 and rel3,
        "Picard relations: pullback, product, and both canonical expressions "
        f"agree with the nilradical sum {direct}",
    )


def test_criterion_06_symplectic_flags():
    from test_collections import symplectic_tower

    start = time.perf_counter()
    details = []
    ok = True
    for n in (2, 3):
        coll = build_symplectic_flag(n)
        expected_len = (2**n) * math.factorial(n)
        tower = symplectic_tower(n)
        report = verify(coll, mode="exact")
        ok = (
            ok
            and len(coll) == expected_len
            and tower.objects == coll.objects
            and report.passed
        )
        details.append(f"n={n}: {report.summary_line()}")
    elapsed = time.perf_counter() - start
    _report(
        ok and elapsed < 600.0,
        f"symplectic flags in {elapsed:.1f}s; " + "; ".join(details),
    )


def test_criterion_07_quadrics():
    details = []
    ok = True
    for n, length in [(3, 4), (4, 6), (5, 6)]:
        coll = build_quadric(n)
        report = verify(coll, mode="exact")
        ok = (
            ok
            and len(coll) == length == coll.space.cell_count
            and report.passed
        )
        details.append(f"n={n}: {report.summary_line()}")
    _report(ok, "quadrics with spinor pairs; " + "; ".join(details))


def test_criterion_08_orthogonal_flags():
    details = []
    ok = True
    for n in (2, 3):
        coll = build_orthogonal_flag(n)
        expected_len = (2**n) * math.factorial(n)
        report = verify(coll, mode="chi_only")
        ok = ok and len(coll) == expected_len and report.passed
        details.append(f"n={n}: {report.summary_line()}")
    _report(ok, "orthogonal flags (Euler triangle); " + "; ".join(details))


def test_criterion_09_thread_criterion():
    ok = True
    for n in (1, 2, 3):
        coll = build_beilinson(n)
        result, _ = thread_check(gram_matrix(list(coll.objects)), coll.space.dim)
        ok = ok and result

    coll = build_igr26()
    result, _ = thread_check(gram_matrix(list(coll.objects)), 7)
    ok = ok and result

    truncated = gram_matrix(list(build_beilinson(2).objects)[:2])
    refused, trace = thread_check(truncated, 2)
    ok = ok and not refused and "rank at least 3" in trace[-1]

    _report(
        ok,
        "thread closes for the line, plane, 3-space, and the 12-object "
        "collection on the 7-fold; refused for the truncated control",
    )


def test_criterion_10_property_suites(rng):
    budget_start = time.perf_counter()
    counts = {}

    # Serre duality symmetry of graded Hom
    spaces = [
        parabolic_space("C", 2, [1]),
        parabolic_space("C", 2, [2]),
        parabolic_space("C", 3, [2]),
        parabolic_space("B", 2, [1]),
    ]
    n = 0
    for space in spaces:
        k_weight = canonical_bundle(space).hw
        for _ in range(26):
            e = BundleObject(space, random_levi_dominant(rng, space, span=3, half=True))
            f = BundleObject(space, random_levi_dominant(rng, space, span=3, half=True))
            forward = graded_hom(e, f)
            twisted = graded_hom(f, tensor_line(e, k_weight))
            assert forward == {space.dim - k: d for k, d in twisted.items()}
            n += 1
    counts["serre duality"] = n

    # Freudenthal totals against the Weyl dimension formula
    clear_character_cache()
    n = 0
    for family, rank, mask in [
        ("C", 2, None), ("C", 3, None), ("C", 3, (1, 3)), ("B", 2, None)
    ]:
        rs = build_root_system(family, rank)
        sub = subsystem(rs, mask)
        for _ in range(26):
            lam = random_dominant(rng, rs, sub, span=3, half=True)
            ch = irrep_character(rs, mask, lam)
            assert sum(ch.mults.values()) == weyl_dim(rs, mask, lam)
            n += 1
    counts["freudenthal totals"] = n

    # tensor dimension conservation
    n = 0
    for family, rank, mask in [("C", 2, None), ("B", 2, None), ("C", 3, (1, 3))]:
        rs = build_root_system(family, rank)
        sub = subsystem(rs, mask)
        for _ in range(34):
            lam = random_dominant(rng, rs, sub, span=2, half=True)
            mu = random_dominant(rng, rs, sub, span=2, half=True)
            pieces = tensor_decompose(rs, mask, lam, mu)
            total = sum(cnt * weyl_dim(rs, mask, w) for w, cnt in pieces)
            assert total == weyl_dim(rs, mask, lam) * weyl_dim(rs, mask, mu)
            n += 1
    counts["tensor conservation"] = n

    # pushforward composition through an intermediate flag
    n = 0
    for family, rank, top, mid, bottom in [
        ("C", 3, [1, 2, 3], [1, 2], [2]),
        ("C", 2, [1, 2], [2], [2]),
        ("B", 2, [1, 2], [1], [1]),
    ]:
        total = parabolic_space(family, rank, top)
        middle = parabolic_space(family, rank, mid)
        base = parabolic_space(family, rank, bottom)
        for _ in range(34):
            bundle = BundleObject(
                total, random_levi_dominant(rng, total, span=4, half=True)
            )
            direct = pushforward(bundle, base)
            step = pushforward(bundle, middle)
            if step is None:
                assert direct is None
            else:
                assert pushforward(step, base) == direct
            n += 1
    counts["pushforward composition"] = n

    # mutation involutivity on exceptional pairs
    n = 0
    for coll in [build_igr26(), build_symplectic_flag(2), build_quadric(3)]:
        ks = [kclass_of(o) if isinstance(o, BundleObject) else o for o in coll.objects]
        for i in range(len(ks)):
            for j in range(i + 1, len(ks)):
                a, b = ks[i], ks[j]
                left, keep = mutate_pair_k(a, b, "left")
                assert mutate_pair_k(left, keep, "right") == (a, b)
                n += 1
    counts["mutation involutivity"] = n

    # agreement of the two Euler pairing routes
    n = 0
    for space in spaces:
        for _ in range(26):
            e = BundleObject(space, random_levi_dominant(rng, space, span=3, half=True))
            f = BundleObject(space, random_levi_dominant(rng, space, span=3, half=True))
            assert euler_pairing(e, f, method="chi") == euler_pairing(
                e, f, method="ext"
            )
            n += 1
    counts["route agreement"] = n

    elapsed = time.perf_counter() - budget_start
    sizes = ", ".join(f"{k}={v}" for k, v in counts.items())
    _report(
        all(v >= 100 for v in counts.values()) and elapsed < 300.0,
        f"property suites ({sizes}) in {elapsed:.1f}s with zero tolerance",
    )
