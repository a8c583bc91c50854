"""Shared randomized-input helpers for the test suite.

Weights are drawn by rejection sampling so that every property test runs
on honestly random Levi-dominant inputs instead of a handpicked list.  The
oracles at the end are the searches and eliminations the library replaced
with closed forms, the Fraction arithmetic it replaced with integers, the
per-entry Gram kernel it replaced with shapes, the verification report
that held every entry as a tuple, the report's JSON document built as a
dict, a bundle's K-class through KClass.from_dict, the orthogonal flag
builder that multiplied each object out alone, the command line's two-pass
parser of bundle arguments, the parabolic space's properties, the chi
table's two-sided build and graded_hom's per-degree Weyl dimensions, which
derived their values again on every access, for every side or from every
weight, a weight's text through Fraction coordinates, the frozen
dataclasses the records replaced, and the public names and methods the
library dropped because neither the command line nor verify called them.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

import excol
from excol import (
    DominanceError,
    ExcolError,
    LatticeError,
    ParseError,
    bundle_weight,
    cohomology,
    dual_weight,
    format_graded,
    graded_hom,
    irrep_character,
    is_dominant,
    kclass_of,
    make_dominant_dot,
    subsystem,
    tensor_decompose,
    validate_weight,
    weyl_dim,
    weyl_order,
)
from excol.collections import _Results
from excol.homcalc import _ChiTable, _ShapeRow, _shape, _terms
from excol.roots import (
    IntRoot, _make, _numerators, _orbit, _pairings, _root_system_cached,
    _simple_coefficients, _subsystem_cached, _supported_in, _weyl_quotient, weyl_product,
)


def random_weight(rng, rs, span=4, half=False):
    """Random lattice weight with coordinates in [-span, span].

    half=True draws from the half-integral coset (types B/D only), where
    every coordinate must sit in Z + 1/2.
    """
    if half:
        coords = tuple(
            Fraction(2 * rng.randint(-span, span - 1) + 1, 2)
            for _ in range(rs.dim)
        )
    else:
        coords = tuple(Fraction(rng.randint(-span, span)) for _ in range(rs.dim))
    return excol.Weight(coords)


def random_levi_dominant(rng, space, span=4, half=False):
    """Random highest weight for an irreducible bundle on the space."""
    use_half = half and space.rs.family in ("B", "D") and rng.random() < 0.5
    while True:
        w = random_weight(rng, space.rs, span, use_half)
        if is_dominant(space.levi, w):
            return w


def random_dominant(rng, rs, sub, span=4, half=False):
    """Random dominant weight for an arbitrary subsystem."""
    use_half = half and rs.family in ("B", "D") and rng.random() < 0.5
    while True:
        w = random_weight(rng, rs, span, use_half)
        if is_dominant(sub, w):
            return w


# ----------------------------------------------------------------------
# Oracles: the searches the library replaced with closed forms.


def greedy_tensor_decompose(rs, mask, lam, mu):
    """V_lam (x) V_mu by multiplying characters and greedily extracting.

    Repeatedly removes the character of a dominance-maximal dominant weight
    still present in the product, breaking ties lexicographically; sorted by
    coordinates, descending, like tensor_decompose.
    """
    sub = subsystem(rs, mask)

    def dominated(lo, hi):
        coeffs = coefficients(sub, hi - lo)
        return coeffs is not None and all(c >= 0 for c in coeffs)

    remaining = {}
    for wa, ma in irrep_character(rs, mask, lam).mults.items():
        for wb, mb in irrep_character(rs, mask, mu).mults.items():
            remaining[wa + wb] = remaining.get(wa + wb, 0) + ma * mb
    out = []
    while remaining:
        dominants = [w for w in remaining if is_dominant(sub, w)]
        maximal = [
            w for w in dominants
            if not any(v != w and dominated(w, v) for v in dominants)
        ]
        head = max(maximal, key=lambda w: w.coords)
        count = remaining[head]
        assert count > 0
        for w, m in irrep_character(rs, mask, head).mults.items():
            left = remaining.get(w, 0) - count * m
            assert left >= 0
            if left:
                remaining[w] = left
            else:
                remaining.pop(w, None)
        out.append((head, count))
    out.sort(key=lambda p: p[0].coords, reverse=True)
    return out


def orbit_cell_count(rs, levi_mask):
    """|W| / |W_Levi|, counting W_Levi as the Weyl orbit of the Levi's rho."""
    sub = subsystem(rs, levi_mask)
    order = len(weyl_orbit(sub, sub.rho)) if sub.positive_roots else 1
    return weyl_order(rs) // order


def spinor_constant_search(space):
    """Leading spinor coordinate c, found by requiring Sigma(-1) .. Sigma(-dim)
    to be acyclic for every sign choice; c runs over -9/2 .. 9/2 and exactly
    one candidate must survive."""
    rs = space.rs
    n = rs.rank
    half = Fraction(1, 2)
    lasts = [half] if rs.family == "B" else [half, -half]
    hyper = bundle_weight(space, "O(1)")
    survivors = []
    for numer in range(-9, 10, 2):
        c = Fraction(numer, 2)
        if n == 1:
            candidates = [excol.Weight((c,))]
        else:
            candidates = [
                excol.Weight(tuple([c] + [half] * (n - 2) + [last])) for last in lasts
            ]
        if all(
            make_dominant_dot(rs, None, lam + scale(hyper, -t)) is None
            for lam in candidates
            for t in range(1, space.dim + 1)
        ):
            survivors.append(c)
    assert len(survivors) == 1, f"spinor search on {space} found {survivors}"
    return survivors[0]


def fraction_det(mat):
    """Determinant by Gaussian elimination over the rationals."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return det


def gauss_jordan_det(mat):
    """Determinant by fraction-free Gauss-Jordan elimination of every row.

    The elimination _det_exact ran before it became forward-only: each
    pivot step updates all other rows, with no row skipped.
    """
    n = len(mat)
    a = [list(row) for row in mat]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        rowk, pk = a[k], a[k][k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(pk * x - f * y) // prev for x, y in zip(a[i], rowk)]
        prev = pk
    return sign * prev


def dot_action_chi_line(rs, nu):
    """chi(L_nu) on the full flag by Borel-Weil-Bott: dot-dominantize nu and
    sign the Weyl dimension by the length.  This is the search chi_line's
    closed form replaced, here on the Fraction oracles below, so it shares
    no arithmetic with the library."""
    hit = fraction_make_dominant_dot(rs, None, nu)
    if hit is None:
        return 0
    length, dom = hit
    d = fraction_weyl_dim(rs, None, dom)
    return -d if length % 2 else d


def termwise_gram(classes):
    """Gram matrix of K-classes by the loop the packed-key kernel replaced:
    per term pair, the difference b - a as a tuple of doubled coordinates,
    hashed into a table of chi(L_{b-a})."""
    if any(k.space != classes[0].space for k in classes):
        raise ExcolError("Euler pairing needs both classes on the same space")
    table = {}

    def chi(x, y):
        total = 0
        for a, ca in x.terms:
            for b, cb in y.terms:
                d = tuple(map(operator.sub, b.num, a.num))
                if d not in table:
                    table[d] = weyl_product(subsystem(x.space.rs), b - a)
                total += ca * cb * table[d]
        return total

    return [[chi(x, y) for y in classes] for x in classes]


class _ListwiseTable(dict):
    """The chi table gram_matrix ran before shapes: chi(L_{b-a}) keyed by
    packed difference and evaluated against the left key `at`, with every
    object held as a list of (key, coeff) terms."""

    def __init__(self, left, right):
        super().__init__()
        lefts = [kclass_of(o) if isinstance(o, excol.BundleObject) else o for o in left]
        self.heads = all(isinstance(o, excol.BundleObject) for o in (*left, *right))
        rights = [
            excol.KClass(o.space, ((o.hw, -1 if o.shift % 2 else 1),)) if self.heads
            else kclass_of(o) if isinstance(o, excol.BundleObject) else o
            for o in right
        ]
        classes = lefts + rights
        if any(k.space != classes[0].space for k in classes):
            raise ExcolError("Euler pairing needs both classes on the same space")
        nums = {w.num for k in classes for w, _ in k.terms}
        spread = max((max(c) - min(c) for c in zip(*nums)), default=0)
        keys = {n: sum(x * (2 * spread + 1) ** i for i, x in enumerate(n)) for n in nums}
        self.left, self.right = (
            [[(keys[w.num], c) for w, c in k.terms] for k in side] for side in (lefts, rights)
        )
        if classes:
            full = subsystem(classes[0].space.rs)
            self.denominator = full.weyl_denominator
            rho = _pairings(full.positive_int, full.rho.num)
            self.p = {keys[n]: _pairings(full.positive_int, n) for n in nums}
            self.q = {k: list(map(operator.add, p, rho)) for k, p in self.p.items()}
        self.at = 0

    def __missing__(self, d):
        chi = self[d] = _weyl_quotient(
            map(operator.sub, self.q[self.at + d], self.p[self.at]), self.denominator
        )
        return chi

    def _pair(self, x, y):
        total = 0
        for ka, ca in x:
            self.at = ka
            for kb, cb in y:
                total += ca * cb * self[kb - ka]
        return total

    def gram(self):
        if not self.heads:
            return [[self._pair(x, y) for y in self.right] for x in self.left]
        keys = [kb for (kb, _), in self.right]
        signs = [cb for (_, cb), in self.right]
        rows = []
        for x in self.left:
            row = [0] * len(keys)
            for ka, ca in x:
                self.at = ka
                row = [r + ca * self[kb - ka] for r, kb in zip(row, keys)]
            rows.append(list(map(operator.mul, signs, row)))
        return rows


def listwise_gram(left, right=None):
    """[[chi(x, y) for y in right] for x in left] by the per-entry kernel
    the shape-factored one replaced: each pair of K-class term lists summed
    entry by entry, or, between bundles, a row built per left term against
    the right highest weights.  right defaults to left."""
    return _ListwiseTable(left, left if right is None else right).gram()


def fraction_inverse(mat):
    """Inverse by Gauss-Jordan elimination over the rationals."""
    n = len(mat)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == r)) for i in range(n)]
         for r, row in enumerate(mat)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def solve_coefficients(basis, target):
    """Coefficients of target over basis (linearly independent), or None,
    by Gauss-Jordan elimination over the rationals."""
    if not basis:
        return () if is_zero(target) else None
    dim = target.dim
    ncols = len(basis)
    # columns = basis vectors, augmented with target
    rows = [
        [basis[j].coords[i] for j in range(ncols)] + [target.coords[i]]
        for i in range(dim)
    ]
    pivot_row = 0
    pivots = []
    for col in range(ncols):
        sel = next(
            (r for r in range(pivot_row, dim) if rows[r][col] != 0), None
        )
        if sel is None:
            pivots.append(-1)
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        pv = rows[pivot_row][col]
        rows[pivot_row] = [x / pv for x in rows[pivot_row]]
        for r in range(dim):
            if r != pivot_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pivot_row])]
        pivots.append(pivot_row)
        pivot_row += 1
    # inconsistent rows mean target is outside the span
    for r in range(pivot_row, dim):
        if rows[r][ncols] != 0:
            return None
    coeffs = [Fraction(0)] * ncols
    for col, pr in enumerate(pivots):
        if pr >= 0:
            coeffs[col] = rows[pr][ncols]
    # checked on Fraction coordinates: the partial sums may be quarter-integral
    acc = [sum(c * b.coords[i] for c, b in zip(coeffs, basis)) for i in range(dim)]
    if tuple(acc) != target.coords:
        return None
    return tuple(coeffs)


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def thread_sweep(gram, space_dim):
    """Helix thread test that runs the sweep: each class is right-mutated
    through the rest of its window and must close onto its inverse-Serre
    image, with the window staying unit upper-triangular at every step.
    Its precondition scan walks the lower triangle row by row, entry by
    entry: the oracle for thread_check's first backward fault."""
    trace = []
    n = len(gram)
    if any(len(row) != n for row in gram):
        trace.append("FAIL: Gram matrix is not square")
        return False, trace

    for i in range(n):
        if gram[i][i] != 1:
            trace.append(f"FAIL: chi(E_{i}, E_{i}) = {gram[i][i]}, expected 1")
            return False, trace
    for i in range(n):
        for j in range(i):
            if gram[i][j] != 0:
                trace.append(
                    f"FAIL: backward pairing chi(E_{i}, E_{j}) = {gram[i][j]}, expected 0"
                )
                return False, trace
    trace.append(f"unit upper-triangular: ok ({n} objects)")
    trace.append("unimodular: ok (det G = 1)")

    if n < space_dim + 1:
        trace.append(
            f"FAIL: only {n} objects on a {space_dim}-fold; "
            f"the K-group has rank at least {space_dim + 1}"
        )
        return False, trace
    trace.append(f"period bound: ok ({n} objects >= dim + 1 = {space_dim + 1})")

    # S^{-1} = (G^{-1} G^T)^{-1} = G^{-T} G
    transpose = [list(col) for col in zip(*gram)]
    sinv = solve_unimodular(transpose, gram)
    sign = -1 if (n - 1) % 2 else 1

    # window entries are (v, G v), so chi(x, v) = x . G v costs O(n)
    window = [([int(i == j) for j in range(n)], col) for i, col in enumerate(transpose)]
    for pos in range(n):
        head = window[0][0]
        rest = window[1:]
        w = list(head)
        for e, ge in rest:
            c = _dot(w, ge)
            w = [c * ej - wj for ej, wj in zip(e, w)]
        expected = [sign * sum(r * h for r, h in zip(row, head)) for row in sinv]
        if w != expected:
            trace.append(
                f"FAIL: thread open at position {pos}: sweep gives {w}, "
                f"inverse Serre gives {expected}"
            )
            return False, trace
        for e, ge in rest:
            if _dot(w, ge) != 0:
                trace.append(f"FAIL: window lost triangularity after position {pos}")
                return False, trace
        gw = [_dot(row, w) for row in gram]
        if _dot(w, gw) != 1:
            trace.append(f"FAIL: window lost unit diagonal after position {pos}")
            return False, trace
        window = rest + [(w, gw)]
        trace.append(f"position {pos}: sweep closes onto the inverse Serre image")

    trace.append("thread: complete")
    return True, trace


# ----------------------------------------------------------------------
# Oracles: the Fraction arithmetic the library replaced with integer
# numerators.  They work on coordinate tuples and take rho from the
# subsystem's positive roots, so they share no arithmetic with the library.


def _fdot(x, y):
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def fraction_coroot_pairing(v, alpha):
    """<v, alpha^vee> = 2 (v, alpha) / (alpha, alpha) on coordinate tuples."""
    return 2 * _fdot(v, alpha) / _fdot(alpha, alpha)


def _freflect(v, alpha):
    p = fraction_coroot_pairing(v, alpha)
    return tuple(x - p * a for x, a in zip(v, alpha))


def _frho(sub):
    total = [Fraction(0)] * sub.rs.dim
    for a in sub.positive_roots:
        total = [t + x for t, x in zip(total, a.coords)]
    return tuple(t / 2 for t in total)


def _fdominantize(sub, v):
    simples = [a.coords for a in sub.simple_roots]
    cur = tuple(v)
    moved = True
    while moved:
        moved = False
        for a in simples:
            if fraction_coroot_pairing(cur, a) < 0:
                cur = _freflect(cur, a)
                moved = True
    return cur


def fraction_is_dominant(sub, lam):
    return all(fraction_coroot_pairing(lam.coords, a.coords) >= 0 for a in sub.simple_roots)


def fraction_plain_dominantize(sub, v):
    return excol.Weight(_fdominantize(sub, v.coords))


def fraction_weyl_orbit(sub, v):
    """Weyl orbit by BFS over Fraction reflections."""
    simples = [a.coords for a in sub.simple_roots]
    seen = {v.coords}
    frontier = [v.coords]
    while frontier:
        nxt = []
        for u in frontier:
            for a in simples:
                r = _freflect(u, a)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return {excol.Weight(u) for u in seen}


def fraction_make_dominant_dot(rs, mask, lam):
    """The rho-shifted dot action over the rationals: (length, mu) or None."""
    sub = subsystem(rs, mask)
    rho = _frho(sub)
    v = tuple(x + r for x, r in zip(lam.coords, rho))
    length = 0
    for a in sub.positive_roots:
        p = fraction_coroot_pairing(v, a.coords)
        if p == 0:
            return None
        if p < 0:
            length += 1
    dom = _fdominantize(sub, v)
    return length, excol.Weight(tuple(x - r for x, r in zip(dom, rho)))


def fraction_weyl_dim(rs, mask, lam):
    """Weyl's product prod (lam + rho, alpha) / (rho, alpha) over the rationals."""
    sub = subsystem(rs, mask)
    rho = _frho(sub)
    shifted = tuple(x + r for x, r in zip(lam.coords, rho))
    num = Fraction(1)
    for a in sub.positive_roots:
        num *= _fdot(shifted, a.coords) / _fdot(rho, a.coords)
    assert num.denominator == 1 and num > 0
    return int(num)


def fraction_freudenthal(rs, mask, lam):
    """Freudenthal's recursion over the rationals, expanded over Weyl orbits."""
    sub = subsystem(rs, mask)
    if not sub.positive_roots:
        return {lam: 1}
    roots = [a.coords for a in sub.positive_roots]
    simples = [a.coords for a in sub.simple_roots]
    rho = _frho(sub)
    top = lam.coords
    lam_norm = _fdot(top, top)
    top_rho = tuple(x + r for x, r in zip(top, rho))
    layers = [[top]]
    seen = {top}
    while layers[-1]:
        nxt = []
        for v in layers[-1]:
            for a in simples:
                u = tuple(x - y for x, y in zip(v, a))
                if u not in seen and _fdot(u, u) <= lam_norm:
                    seen.add(u)
                    nxt.append(u)
        layers.append(nxt)
    dominant = [
        w for layer in layers for w in sorted(layer)
        if all(fraction_coroot_pairing(w, a) >= 0 for a in simples)
    ]
    mult = {top: 1}
    for mu in dominant[1:]:
        acc = Fraction(0)
        for a in roots:
            k = 1
            while True:
                nu = tuple(x + k * y for x, y in zip(mu, a))
                if _fdot(nu, nu) > lam_norm:
                    break
                acc += mult.get(_fdominantize(sub, nu), 0) * _fdot(nu, a)
                k += 1
        shifted = tuple(x + r for x, r in zip(mu, rho))
        val = 2 * acc / (_fdot(top_rho, top_rho) - _fdot(shifted, shifted))
        assert val.denominator == 1 and val > 0
        mult[mu] = int(val)
    full = {}
    for mu, m in mult.items():
        for w in fraction_weyl_orbit(sub, excol.Weight(mu)):
            full[w] = m
    return full


# ----------------------------------------------------------------------
# Oracles: exact verify entries by graded_hom alone, and the verification
# report as it was before it kept only failures.


def check_diag_exact(obj):
    """(ok, evidence) of End*(obj) by graded_hom: ok when it is k in degree 0."""
    dims = graded_hom(obj, obj)
    return dims == {0: 1}, format_graded(dims)


def check_pair_exact(src, dst):
    """(ok, evidence, ordering_fixable) of the backward Hom*(src, dst) by
    graded_hom: ok when it vanishes, fixable when the forward Hom does."""
    dims = graded_hom(src, dst)
    if not dims:
        return True, "0", False
    return False, format_graded(dims), not graded_hom(dst, src)


def tuple_results(collection, mode, gram):
    """Every diagonal entry and backward pair of verify, as tuples of
    PairResult, in verify's order.  Exact mode computes every Hom: a line
    pair through a per-call table of the cohomology of each weight
    difference, any other pair through graded_hom."""
    result, objs = excol.collections.PairResult, collection.objects
    n = len(objs)
    backward = [(j, i) for i in range(n) for j in range(i + 1, n)]
    if mode == "chi_only":
        exceptional = tuple(
            result(i, i, gram[i][i] == 1, f"chi = {gram[i][i]}") for i in range(n)
        )
        semiorthogonal = tuple(
            result(j, i, True, "0")
            if gram[j][i] == 0
            else result(j, i, False, f"chi = {gram[j][i]}", gram[i][j] == 0)
            for j, i in backward
        )
        return exceptional, semiorthogonal
    table = {}

    def hom(src, dst):
        if src.rank != 1 or dst.rank != 1:
            return graded_hom(src, dst)
        key = tuple(map(operator.sub, dst.hw.num, src.hw.num))
        if key not in table:
            table[key] = cohomology(src.space, dst.hw - src.hw)
        return {k + src.shift - dst.shift: d for k, d in table[key].dims().items()}

    def pair(src, dst):
        dims = hom(src, dst)
        if not dims:
            return True, "0", False
        return False, format_graded(dims), not hom(dst, src)

    exceptional = tuple(
        result(i, i, hom(o, o) == {0: 1}, format_graded(hom(o, o)))
        for i, o in enumerate(objs)
    )
    semiorthogonal = tuple(result(j, i, *pair(objs[j], objs[i])) for j, i in backward)
    return exceptional, semiorthogonal


def tuple_summary_line(report, exceptional, semiorthogonal):
    exc_ok = sum(1 for r in exceptional if r.ok)
    semi_ok = sum(1 for r in semiorthogonal if r.ok)
    if report.thread_ok is None:
        thread = "skipped"
    else:
        thread = "true" if report.thread_ok else "false"
    length = (
        f"length=cells={report.length}"
        if report.length == report.cells
        else f"length={report.length}!=cells={report.cells}"
    )
    return (
        f"{exc_ok}/{len(exceptional)} exceptional, "
        f"{semi_ok}/{len(semiorthogonal)} semiorthogonal, "
        f"{length}, det={report.det}, thread={thread}"
    )


def _tuple_passed(report, exceptional, semiorthogonal):
    return (
        all(r.ok for r in exceptional)
        and all(r.ok for r in semiorthogonal)
        and report.length == report.cells
        and abs(report.det) == 1
        and report.thread_ok is not False
    )


def tuple_render_text(report, exceptional, semiorthogonal):
    """The text report rendered from the tuples, wall time line included."""
    coll = report.collection
    lines = [f"collection {coll.provenance} on {coll.space} ({report.mode} mode)"]
    labels = coll.labels
    for r in exceptional:
        if not r.ok:
            lines.append(f"FAIL object {labels[r.row]}: End = {r.evidence}")
    for r in semiorthogonal:
        if not r.ok:
            tag = " [ordering-fixable]" if r.ordering_fixable else ""
            lines.append(
                f"FAIL pair ({labels[r.col]}, {labels[r.row]}): "
                f"backward Hom({labels[r.row]}, {labels[r.col]}) = {r.evidence}{tag}"
            )
    if report.length != report.cells:
        lines.append(f"FAIL length {report.length} != cell count {report.cells}")
    if abs(report.det) != 1:
        lines.append(f"FAIL Gram determinant {report.det} is not a unit")
    if report.thread_ok is False:
        lines.append("FAIL thread: " + report.thread_trace[-1])
    passed = _tuple_passed(report, exceptional, semiorthogonal)
    lines.append(tuple_summary_line(report, exceptional, semiorthogonal))
    lines.append(
        f"verdict: {'complete-candidate' if passed else 'failed'} "
        "(necessary conditions only)"
    )
    lines.append(f"wall time: {report.wall_time:.2f}s")
    return "\n".join(lines)


def tuple_json_dict(report, exceptional, semiorthogonal):
    """The JSON document built from the tuples, as one dict."""
    space = report.collection.space
    passed = _tuple_passed(report, exceptional, semiorthogonal)
    return {
        "provenance": report.collection.provenance,
        "space": {
            "family": space.rs.family,
            "rank": space.rs.rank,
            "crossed": sorted(space.crossed),
        },
        "mode": report.mode,
        "exceptional": [
            {"index": r.row, "ok": r.ok, "evidence": r.evidence} for r in exceptional
        ],
        "semiorthogonal": [
            {
                "from": r.row,
                "to": r.col,
                "ok": r.ok,
                "evidence": r.evidence,
                "ordering_fixable": r.ordering_fixable,
            }
            for r in semiorthogonal
        ],
        "length": report.length,
        "cells": report.cells,
        "gram": [list(row) for row in report.gram],
        "det": report.det,
        "thread": report.thread_ok,
        "thread_trace": list(report.thread_trace),
        "summary": tuple_summary_line(report, exceptional, semiorthogonal),
        "verdict": "complete-candidate" if passed else "failed",
        "wall_time": report.wall_time,
    }


# ----------------------------------------------------------------------
# Oracles: the report's JSON document built as a dict beside its stream, a
# bundle's K-class through KClass.from_dict, and the orthogonal flag builder
# that parsed each level's weights from strings and multiplied every object
# out level by level.


def fields_json_dict(report):
    """The report's JSON document, built field by field from its views."""
    entry = excol.collections._entry_json
    return {
        "provenance": report.collection.provenance,
        "space": excol.collections._space_json(report.collection.space),
        "mode": report.mode,
        "exceptional": list(map(entry, report.exceptional)),
        "semiorthogonal": list(map(entry, report.semiorthogonal)),
        "length": report.length,
        "cells": report.cells,
        "gram": [list(row) for row in report.gram],
        "det": report.det,
        "thread": report.thread_ok,
        "thread_trace": list(report.thread_trace),
        "summary": report.summary_line(),
        "verdict": report.verdict,
        "wall_time": report.wall_time,
    }


def from_dict_kclass_of(obj):
    """K-class of a bundle: its Levi character, signed by shift parity."""
    sign = -1 if obj.shift % 2 else 1
    if obj.rank == 1:
        return excol.KClass(obj.space, ((obj.hw, sign),))
    char = irrep_character(obj.space.rs, obj.space.levi_mask, obj.hw)
    return excol.KClass.from_dict(obj.space, {w: sign * m for w, m in char.mults.items()})


def _string_level_choices(n, m):
    """Per-level menu for the odd orthogonal flag tower, spinor first."""
    d = 2 * n - 2 * m - 1
    spinor = {}
    for signs in itertools.product(("1/2", "-1/2"), repeat=n - m - 1):
        w = excol.Weight(["-1/2"] * m + [f"{1 - 2 * d}/2", *signs])
        spinor[w] = spinor.get(w, 0) + 1
    out = [(f"Sig{m}", spinor)]
    for j in range(-(d - 1), 1):
        coords = [0] * n
        coords[m] = j
        label = "" if j == 0 else (f"O_Q({j})" if m == 0 else f"O_M{m}({j})")
        out.append((label, {excol.Weight(coords): 1}))
    return out


def picks_orthogonal_flag(n):
    """build_orthogonal_flag, each object multiplied out from its own picks."""
    space = excol.parabolic_space("B", n, range(1, n + 1))
    menus = [_string_level_choices(n, m) for m in range(n)]
    objects = []
    names = []
    for picks in itertools.product(*reversed(menus)):
        terms = {excol.Weight([0] * n): 1}
        bits = []
        for label, mults in picks:
            nxt = {}
            for w0, c0 in terms.items():
                for w1, c1 in mults.items():
                    w = w0 + w1
                    nxt[w] = nxt.get(w, 0) + c0 * c1
            terms = nxt
            if label:
                bits.append(label)
        objects.append(excol.KClass.from_dict(space, terms))
        names.append("*".join(bits) if bits else "O")
    return excol.CollectionSpec(
        space, tuple(objects), "kclasses", tuple(names), f"orthogonal:{n}"
    )


# ----------------------------------------------------------------------
# Oracle: the bundle-argument parser of the command line as it was, one pass
# to decide that a string is a weight literal and a second to parse it.


def parse_weight_literal(space, text):
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = [p.strip() for p in body.split(",")]
    try:
        coords = tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse weight {text!r}: {exc}") from exc
    if len(coords) != space.rs.dim:
        raise ParseError(
            f"weight {text!r} has {len(coords)} coordinates; {space} needs {space.rs.dim}"
        )
    return excol.Weight(coords)


def looks_like_weight(text):
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    if "," not in body and not body.lstrip("-").replace("/", "").isdigit():
        return False
    return all(
        p.strip().lstrip("-").replace("/", "").isdigit()
        for p in body.split(",")
        if p.strip() != ""
    ) and body.strip() != ""


def two_pass_bundle_arg(space, text):
    if looks_like_weight(text):
        return parse_weight_literal(space, text)
    return bundle_weight(space, text)


# ----------------------------------------------------------------------
# Oracles: values the library now derives once.  A parabolic space's Levi
# data were properties computed on every access; the chi table read each
# side's objects and indexed each side's shapes apart; graded_hom took each
# degree's dimension from weyl_dim; a weight's text went through its
# Fraction coordinates.


def property_levi_mask(space):
    return frozenset(range(1, space.rs.rank + 1)) - space.crossed


def property_levi(space):
    return subsystem(space.rs, property_levi_mask(space))


def property_nilradical_roots(space):
    levi_pos = set(property_levi(space).positive_roots)
    return tuple(a for a in space.rs.positive_roots if a not in levi_pos)


def property_dim(space):
    return len(property_nilradical_roots(space))


class TwoSidedChiTable(_ChiTable):
    """The chi table whose __init__ read the left and the right objects
    apart, and gave each side its own list of shapes."""

    def __init__(self, left, right):
        dict.__init__(self)
        objs = (*left, *right)
        if any(o.space != objs[0].space for o in objs):
            raise ExcolError("Euler pairing needs both classes on the same space")
        heads = all(isinstance(o, excol.BundleObject) for o in objs)
        sides = ([_terms(o, False) for o in left], [_terms(o, heads) for o in right])
        nums = {n for side in sides for terms in side for n, _ in terms}
        spread = max((max(c) - min(c) for c in zip(*nums)), default=0)
        radix = [(2 * spread + 1) ** i for i in range(max(map(len, nums), default=0))]
        keys = {n: sum(map(operator.mul, n, radix)) for n in nums}
        shapes = ({}, {})
        self.left, self.right = (
            [_shape([(keys[n], c) for n, c in t], known) for t in side]
            for side, known in zip(sides, shapes)
        )
        if objs:
            full = subsystem(objs[0].space.rs)
            self.denominator = full.weyl_denominator
            rho = _pairings(full.positive_int, full.rho.num)
            self.p = {keys[n]: _pairings(full.positive_int, n) for n in nums}
            self.q = {k: list(map(operator.add, p, rho)) for k, p in self.p.items()}
        self.at, self.width = 0, len(shapes[1])
        self.delta, self.first = 0, {}
        line = {((0, 1),): 0}
        self.shape_rows = [
            self if shapes == (line, line) else _ShapeRow(self, x, list(shapes[1]))
            for x in shapes[0]
        ]


def two_sided_gram(left, right=None):
    """[[chi(x, y) for y in right] for x in left] by the two-sided build;
    right defaults to left."""
    return TwoSidedChiTable(left, left if right is None else right).gram()


def detail_graded_hom(src, dst):
    """graded_hom by the Weyl dimension of each dominant weight of
    graded_hom_detail, validated again."""
    return {
        k: sum(mult * excol.weyl_dim(src.space.rs, None, dom) for dom, mult in pieces)
        for k, pieces in graded_hom_detail(src, dst).items()
    }


def fraction_str(w):
    """A weight's text through its Fraction coordinates."""
    return "(" + ", ".join(str(c) for c in w.coords) + ")"


# ----------------------------------------------------------------------
# Oracles: the names neither the command line nor verify called, as the
# library shipped them: Weight.scale, dot and is_zero, the coroot pairing and
# reflection, Weyl orbits, Subsystem.coefficients, Character.total_dim,
# BundleObject.tensor_line, chi of a line bundle, graded Hom by dominant
# weight, the K-level Serre operator with the Gauss-Jordan branch of Bareiss
# elimination it solved by, and the fibration composer.  A method is a
# function of its record here.


def scale(w, k):
    k = Fraction(k)
    return excol.Weight(Fraction(k.numerator * a, 2 * k.denominator) for a in w.num)


def dot(w, other):
    w._check_dim(other)
    return Fraction(_dot(w.num, other.num), 4)


def is_zero(w):
    return not any(w.num)


def coroot_pairing(v, alpha):
    """<v, alpha^vee> = 2 (v, alpha) / (alpha, alpha)."""
    return 2 * dot(v, alpha) / dot(alpha, alpha)


def reflect(v, alpha):
    return v - scale(alpha, coroot_pairing(v, alpha))


def weyl_orbit(sub, v):
    """Full Weyl orbit of v under the subsystem's reflections."""
    return {_make(u) for u in _orbit(sub.simple_int, _numerators(sub, v))}


def coefficients(sub, v):
    """Expansion of v over the subsystem's simple roots, if in the span."""
    coeffs = _simple_coefficients(sub.rs, v)
    if coeffs is None or not _supported_in(coeffs, sub.mask):
        return None
    return tuple(Fraction(coeffs[k - 1], 4) for k in sorted(sub.mask))


def total_dim(char):
    return sum(char.mults.values())


def tensor_line(bundle, line):
    """Tensor by the line bundle with the given weight."""
    validate_weight(bundle.space.rs, line)
    # a line bundle weight pairs to zero with every Levi coroot
    if not (is_dominant(bundle.space.levi, line) and is_dominant(bundle.space.levi, -line)):
        raise ExcolError(f"{line} is not a line bundle weight on {bundle.space}")
    return excol.BundleObject(bundle.space, bundle.hw + line, bundle.shift)


def chi_line(rs, nu):
    """Euler characteristic of the full-flag line bundle with weight nu."""
    validate_weight(rs, nu)
    return weyl_product(subsystem(rs), nu)


def _hom_pieces(src, dst):
    """(degree, cohomology, multiplicity) of each summand of src^* (x) dst
    with nonzero cohomology, its degree shifted by src.shift - dst.shift."""
    if src.space != dst.space:
        raise ExcolError("both bundles must live on the same space")
    rs = src.space.rs
    mask = src.space.levi_mask
    offset = src.shift - dst.shift
    for piece, mult in tensor_decompose(rs, mask, dual_weight(rs, mask, src.hw), dst.hw):
        ans = cohomology(src.space, piece)
        if not ans.is_zero:
            yield ans.degree + offset, ans, mult


def graded_hom_detail(src, dst):
    """Ext groups by degree, listing full-system dominant weights with multiplicity."""
    out = {}
    for k, ans, mult in _hom_pieces(src, dst):
        out.setdefault(k, []).append((ans.dominant, mult))
    return {k: sorted(v, key=lambda p: p[0].sort_key) for k, v in sorted(out.items())}


def bareiss_jordan(mat, rhs):
    """Fraction-free (Bareiss) elimination of [mat | rhs].

    Returns (det mat, adj(mat) rhs); the second is None when mat is singular.
    Every division is exact, so the whole computation stays in integers.
    An empty rhs eliminates below each pivot only, which is all det needs;
    otherwise above it too (Gauss-Jordan).  A row with a zero in the pivot
    column is skipped when the pivot equals the previous one, as
    (pk * x - 0 * y) // prev == x.
    """
    n = len(mat)
    a = [list(row) + list(extra) for row, extra in zip(mat, rhs)]
    jordan = any(rhs)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if a[r][k]), None)
        if pivot is None:
            return 0, None
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        rowk, pk = a[k], a[k][k]
        for i in range(0 if jordan else k + 1, n):
            f = a[i][k]
            if i != k and (f or pk != prev):
                a[i] = [(pk * x - f * y) // prev for x, y in zip(a[i], rowk)]
        prev = pk
    # after Jordan steps the left block is prev * I, the right prev * mat^-1 rhs
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


def solve_unimodular(mat, rhs):
    """The integer matrix X with mat X = rhs, for mat of determinant +1 or -1."""
    det, adj = bareiss_jordan(mat, rhs)
    if abs(det) != 1:
        raise ExcolError(f"Gram matrix has determinant {det}, expected +1 or -1")
    return [[det * x for x in row] for row in adj]


def serre_operator(gram):
    """K-level Serre operator S = G^{-1} G^T acting on coordinate columns.

    Defined by chi(x, S y) = chi(y, x); requires the Gram matrix to be
    unimodular so that S is an integer matrix.
    """
    if any(len(row) != len(gram) for row in gram):
        raise ExcolError("Gram matrix must be square")
    return solve_unimodular(gram, [list(col) for col in zip(*gram)])


def compose_fibration(base, total, relative_twists, twist_labels=None):
    """Product collection {pullback(base object) (x) twist} on the total space.

    The relative twist index runs slowest, so each twist contributes one
    outer block containing a pulled-back copy of the base collection.
    Pullbacks must stay irreducible (always true for line bundles) and each
    tensor product must be a single irreducible, or the tower is rejected.
    """
    if base.mode != "bundles":
        raise ExcolError("fibration composition needs a bundle-mode base")
    if total.rs != base.space.rs:
        raise ExcolError("base and total space must share the root system")
    if not base.space.crossed < total.crossed:
        raise ExcolError(f"{total} does not fiber over {base.space}")
    if not relative_twists:
        raise ExcolError("at least one relative twist is required")
    if twist_labels is None:
        twist_labels = [f"T{k}" for k in range(len(relative_twists))]

    rs = total.rs
    mask_total = total.levi_mask
    objects = []
    names = []
    for tw, tw_label in zip(relative_twists, twist_labels):
        excol.BundleObject(total, tw)  # refuses a twist that is not a bundle on total
        for obj, obj_label in zip(base.objects, base.labels):
            if obj.rank != weyl_dim(rs, mask_total, obj.hw):
                raise ExcolError(
                    f"pullback of {obj.hw} to {total} is filtered, not irreducible"
                )
            summands = tensor_decompose(rs, mask_total, obj.hw, tw)
            if len(summands) != 1 or summands[0][1] != 1:
                raise ExcolError(
                    f"tensor of {obj.hw} with twist {tw} is not irreducible on {total}"
                )
            objects.append(excol.BundleObject(total, summands[0][0], obj.shift))
            names.append(f"{tw_label}*{obj_label}")
    return excol.CollectionSpec(
        total,
        tuple(objects),
        "bundles",
        tuple(names),
        f"compose({base.provenance})",
    )


# The frozen dataclasses excol's records replaced, declared as they were.  A
# record's checks ran in __post_init__, against excol's own classes.


@dataclass(frozen=True, init=False)
class Weight:
    num: tuple[int, ...]

    def __init__(self, coords: Iterable[Fraction | int | str]) -> None:
        coords = tuple(coords)
        if all(type(c) is int for c in coords):  # not bool, float, str or Fraction
            num = tuple(2 * c for c in coords)
        else:
            fracs = [Fraction(c) for c in coords]
            if any(f.denominator > 2 for f in fracs):
                shown = ", ".join(map(str, fracs))
                raise LatticeError(f"coordinates of ({shown}) have denominators beyond 2")
            num = tuple(f.numerator * (2 // f.denominator) for f in fracs)
        object.__setattr__(self, "num", num)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(x, 2) for x in self.num)

    def __repr__(self) -> str:
        return f"Weight(coords={self.coords!r})"


@dataclass(frozen=True, eq=False)
class RootSystem:
    family: str
    rank: int
    dim: int
    simple_roots: tuple[Weight, ...]
    positive_roots: tuple[Weight, ...]
    rho: Weight

    def __reduce__(self):
        return _root_system_cached, (self.family, self.rank)


@dataclass(frozen=True, eq=False)
class Subsystem:
    rs: RootSystem
    mask: frozenset[int]
    simple_roots: tuple[Weight, ...]
    positive_roots: tuple[Weight, ...]
    rho: Weight
    simple_int: tuple[IntRoot, ...]
    positive_int: tuple[IntRoot, ...]
    weyl_denominator: int

    def __reduce__(self):
        return _subsystem_cached, (self.rs, self.mask)


@dataclass(frozen=True)
class Character:
    rs: RootSystem
    mask: frozenset[int]
    mults: Mapping[Weight, int]


@dataclass(frozen=True)
class ParabolicSpace:
    rs: RootSystem
    crossed: frozenset[int]

    def __post_init__(self) -> None:
        if not self.crossed:
            raise ExcolError("at least one node must be crossed")
        bad = [i for i in self.crossed if not 1 <= i <= self.rs.rank]
        if bad:
            raise ExcolError(f"crossed nodes {bad} outside 1..{self.rs.rank}")


@dataclass(frozen=True)
class BundleObject:
    space: ParabolicSpace
    hw: Weight
    shift: int = 0

    def __post_init__(self) -> None:
        validate_weight(self.space.rs, self.hw)
        if not is_dominant(self.space.levi, self.hw):
            raise DominanceError(
                f"{self.hw} is not dominant for the Levi of {self.space}"
            )


@dataclass(frozen=True)
class CohomologyAnswer:
    degree: int | None
    dominant: Weight | None
    dim: int


@dataclass(frozen=True)
class KClass:
    space: ParabolicSpace
    terms: tuple[tuple[Weight, int], ...]

    def __post_init__(self) -> None:
        for w, _ in self.terms:
            validate_weight(self.space.rs, w)


@dataclass(frozen=True)
class CollectionSpec:
    space: ParabolicSpace
    objects: tuple
    mode: str
    labels: tuple[str, ...]
    provenance: str

    def __post_init__(self) -> None:
        if not self.objects:
            raise ExcolError("a collection must contain at least one object")
        if self.mode not in ("bundles", "kclasses"):
            raise ExcolError(f"unknown collection mode {self.mode!r}")
        if len(self.labels) != len(self.objects):
            raise ExcolError("labels and objects must have equal length")
        for obj in self.objects:
            if obj.space != self.space:
                raise ExcolError("all objects must live on the collection's space")
            if self.mode == "bundles" and not isinstance(obj, excol.BundleObject):
                raise ExcolError(f"bundle mode cannot hold a {type(obj).__name__}")


@dataclass(frozen=True)
class PairResult:
    row: int            # index of the Hom source (the later object)
    col: int            # index of the Hom target (the earlier object)
    ok: bool
    evidence: str       # rendered nonzero Hom / pairing on failure
    ordering_fixable: bool = False


@dataclass(frozen=True)
class VerificationReport:
    collection: CollectionSpec
    mode: str
    exceptional: _Results
    semiorthogonal: _Results
    length: int
    cells: int
    gram: list[list[int]] = field(hash=False)  # the rows gram_matrix built
    det: int
    thread_ok: bool | None
    thread_trace: tuple[str, ...]
    wall_time: float
