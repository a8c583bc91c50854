"""Euler pairings, Gram matrices, mutations, and the helix thread check.

K-theory classes are integer combinations of full-flag line weights; the
class of an irreducible bundle is its Levi character, signed by the parity
of the shift.  The Euler pairing is computed either from graded Hom spaces
or K-theoretically from line-bundle Euler characteristics; the two routes
are kept separate so they can cross-check each other.  A line-bundle Euler
characteristic is Weyl's polynomial, a closed form with no memo.  Every
chi pairing (Gram matrix, euler_pairing, mutate_pair_k) runs on one table
per call: each line weight of the call's classes packed into one int, and
each distinct weight difference evaluated once, as a product of
differences of two vectors of coroot pairings.  Between bundles, the right
side of a pairing enters by its highest weight alone (relative Borel-Weil;
see gram_matrix).  Each object is a shape translated by an offset, and a
pairing is summed once per pair of shapes and difference of offsets.

The thread verdict follows from triangularity and the period bound: once
the Gram matrix is unit upper-triangular, the helix sweep closes at every
position (see thread_check), so only those preconditions are computed.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, mul, sub
from typing import Mapping, Sequence

from .roots import (
    MAX_GRAM_OBJECTS, ExcolError, Weight, _Record, _make, _pairings, _weyl_quotient,
    subsystem, validate_weight,
)
from .characters import irrep_character
from .bwb import BundleObject, ParabolicSpace, graded_hom

__all__ = [
    "KClass",
    "kclass_of",
    "euler_pairing",
    "gram_matrix",
    "mutate_pair_k",
    "thread_check",
]


class KClass(_Record):
    """Formal integer combination of line-weight classes on a fixed space."""

    _fields = ("space", "terms")

    def __init__(
        self, space: ParabolicSpace, terms: tuple[tuple[Weight, int], ...]
    ) -> None:
        for w, _ in terms:
            validate_weight(space.rs, w)
        self._set(space, terms)

    @staticmethod
    def from_dict(space: ParabolicSpace, terms: Mapping[Weight, int]) -> "KClass":
        clean = tuple(
            sorted(((w, c) for w, c in terms.items() if c), key=lambda p: p[0].sort_key)
        )
        return KClass(space, clean)

    def as_dict(self) -> dict[Weight, int]:
        return dict(self.terms)

    def scale(self, k: int) -> "KClass":
        return KClass.from_dict(self.space, {w: k * c for w, c in self.terms})

    def add(self, other: "KClass") -> "KClass":
        if self.space != other.space:
            raise ExcolError("cannot add classes on different spaces")
        out = self.as_dict()
        for w, c in other.terms:
            out[w] = out.get(w, 0) + c
        return KClass.from_dict(self.space, out)

    def sub(self, other: "KClass") -> "KClass":
        return self.add(other.scale(-1))

    def is_zero(self) -> bool:
        return not self.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for w, c in self.terms:
            sign = "+" if c >= 0 else "-"
            mag = abs(c)
            coeff = "" if mag == 1 else f"{mag}*"
            bits.append(f"{sign} {coeff}L{w}")
        text = " ".join(bits)
        return text[2:] if text.startswith("+ ") else text


def kclass_of(obj: BundleObject) -> KClass:
    """K-theory class of a bundle: its Levi character, signed by shift parity."""
    return KClass(obj.space, tuple((_make(n), c) for n, c in sorted(_terms(obj, False))))


def _as_kclass(obj: "BundleObject | KClass") -> KClass:
    return kclass_of(obj) if isinstance(obj, BundleObject) else obj


def _terms(obj: "BundleObject | KClass", head: bool) -> list[tuple[tuple[int, ...], int]]:
    """An object's (num, coeff) terms: a K-class's own, or a bundle's Levi
    character signed by its shift parity, only its highest weight if head.
    A line bundle's character is its one weight, so Freudenthal is skipped."""
    if isinstance(obj, KClass):
        return [(w.num, c) for w, c in obj.terms]
    sign = -1 if obj.shift % 2 else 1
    if head or obj.rank == 1:
        return [(obj.hw.num, sign)]
    char = irrep_character(obj.space.rs, obj.space.levi_mask, obj.hw)
    return [(w.num, sign * m) for w, m in char.mults.items()]


class _ChiTable(dict):
    """chi(L_{b-a}) for the line weights a on the left and b on the right of
    one call's pairings, keyed by packed difference; gram() builds the rows.

    Objects enter by their terms; when every object is a BundleObject, a
    right object E_lam enters by its highest weight alone, signed by its
    shift.  Each distinct weight's doubled coordinates are packed as the
    digits of one int in base 2s + 1, s the largest coordinate range over
    the weights.  Every digit of a difference lies in [-s, s], so
    key(b) - key(a) names b - a exactly.

    chi(L_{b-a}) is Weyl's polynomial, prod 2 <b - a + rho, alpha^vee> over
    the positive roots divided by the Weyl denominator.  The pairing is
    linear, so with p_a = (2 <a, alpha^vee>) and q_b = (2 <b + rho, alpha^vee>),
    each computed once per weight, a missing difference d costs one product
    of q_b - p_a, at the left key a = at + first.get(d - delta, 0) and
    b = a + d.  gram() sets `at` to the offset of each row's object, and a
    _ShapeRow sets `first` and `delta` while it sums an entry.

    Each object is a shape and an offset (see gram_matrix).  Both sides
    index one list of shapes, and each shape has one _ShapeRow of its
    entries against every shape.  When every object has the one-line shape
    of coefficient 1, that row is this table itself.
    """

    def __init__(
        self,
        left: Sequence["BundleObject | KClass"],
        right: Sequence["BundleObject | KClass"],
    ) -> None:
        super().__init__()
        objs = (*left, *right)
        space = objs[0].space if objs else None
        if any(o.space is not space and o.space != space for o in objs):
            raise ExcolError("Euler pairing needs both classes on the same space")
        heads = all(isinstance(o, BundleObject) for o in objs)
        # a read is an object's identity and whether its head alone enters;
        # each distinct read is made once, and a K-class or a line bundle
        # reads the same on both sides
        sides = ([(id(o), False) for o in left],
                 [(id(o), heads and o.rank != 1) for o in right])
        reads = dict(zip(sides[0] + sides[1], objs))
        terms = {r: _terms(o, r[1]) for r, o in reads.items()}
        nums = {n for t in terms.values() for n, _ in t}
        spread = max((max(c) - min(c) for c in zip(*nums)), default=0)
        radix = [(2 * spread + 1) ** i for i in range(max(map(len, nums), default=0))]
        keys = {n: sum(map(mul, n, radix)) for n in nums}
        # (shape index, offset) of each read; both sides index one list of shapes
        shapes: dict = {}
        placed = {r: _shape([(keys[n], c) for n, c in t], shapes) for r, t in terms.items()}
        self.left, self.right = ([placed[r] for r in side] for side in sides)
        if objs:
            full = subsystem(space.rs)
            self.denominator = full.weyl_denominator
            rho = _pairings(full.positive_int, full.rho.num)
            self.p = {keys[n]: _pairings(full.positive_int, n) for n in nums}
            self.q = {k: list(map(add, p, rho)) for k, p in self.p.items()}
        self.at, self.width = 0, len(shapes)
        self.delta, self.first = 0, {}
        # a shape that no right object has, such as a bundle's whole character
        # when heads enter, is merged against nothing
        on_right = {t for t, _ in self.right}
        rights = [y if t in on_right else () for t, y in enumerate(shapes)]
        self.shape_rows = [
            self if shapes == {((0, 1),): 0} else _ShapeRow(self, x, rights) for x in shapes
        ]

    def __missing__(self, d: int) -> int:
        at = self.at + self.first.get(d - self.delta, 0)
        chi = self[d] = _weyl_quotient(
            map(sub, self.q[at + d], self.p[at]), self.denominator
        )
        return chi

    def gram(self) -> list[list[int]]:
        """[[chi(x, y) for y on the right] for x on the left], one map per row."""
        k = self.width
        cols = [oy * k + t for t, oy in self.right]
        rows = []
        for s, ox in self.left:
            self.at = ox
            entries = self.shape_rows[s].__getitem__
            rows.append(list(map(entries, map(sub, cols, repeat(ox * k)))))
        return rows


def _shape(terms: list[tuple[int, int]], known: dict) -> tuple[int, int]:
    """(index of the shape in known, offset) of keyed terms; adds a new shape."""
    terms.sort()
    offset = terms[0][0] if terms else 0
    shape = tuple([(kb - offset, c) for kb, c in terms])
    return known.setdefault(shape, len(known)), offset


class _ShapeRow(dict):
    """chi(x, y) for x of one shape S and y of each shape T, keyed
    delta * (number of shapes) + (index of T), with delta the offset of y
    minus the offset of x, and evaluated with chi.at at x's offset.

    The entry is the sum of c chi(L_{delta + d}) over S and T's merged list
    of (d, c), d = sb - sa summed over the term pairs.  A missing
    chi(L_{delta + d}) is evaluated at the left key at + first[d], where
    first[d] is the first sa that gives d, so it names real weights.
    """

    def __init__(self, chi: _ChiTable, left: tuple, rights: list[tuple]) -> None:
        super().__init__()
        self.chi = chi
        self.merged = []
        for right in rights:
            first: dict[int, int] = {}
            coeff: dict[int, int] = {}
            for sa, ca in left:
                for sb, cb in right:
                    d = sb - sa
                    first.setdefault(d, sa)
                    coeff[d] = coeff.get(d, 0) + ca * cb
            merged = [(d, c) for d, c in coeff.items() if c]
            self.merged.append(([d for d, _ in merged], [c for _, c in merged], first))

    def __missing__(self, key: int) -> int:
        chi = self.chi
        delta, t = divmod(key, chi.width)
        ds, cs, chi.first = self.merged[t]
        chi.delta = delta
        val = self[key] = sum(
            map(mul, cs, map(chi.__getitem__, map(add, ds, repeat(delta))))
        )
        return val


def euler_pairing(
    x: "BundleObject | KClass", y: "BundleObject | KClass", method: str = "chi"
) -> int:
    """Euler pairing chi(x, y).

    method="chi" expands x into line classes and sums line Euler
    characteristics against the line classes of y, or against y's highest
    weight alone when both are bundles (see gram_matrix); method="ext"
    computes the graded Hom spaces and takes the alternating sum (bundle
    inputs only).
    """
    if method == "chi":
        return _ChiTable([x], [y]).gram()[0][0]
    if method == "ext":
        if not (isinstance(x, BundleObject) and isinstance(y, BundleObject)):
            raise ExcolError("method='ext' needs actual bundles, not K-classes")
        dims = graded_hom(x, y)
        return sum((-d if k % 2 else d) for k, d in dims.items())
    raise ExcolError(f"unknown Euler pairing method {method!r}")


def gram_matrix(
    objects: Sequence["BundleObject | KClass"], method: str = "chi"
) -> list[list[int]]:
    """Matrix of Euler pairings G[i][j] = chi(E_i, E_j), for at most
    MAX_GRAM_OBJECTS objects.

    On the chi route, chi(x, y) is the sum of c_a c_b chi(L_{b-a}) over the
    line classes a of x and b of y, on the full flag G/B.  When every object
    is a bundle, y = E_lam enters by lam alone: chi(E_mu, E_lam) is the sum
    of m_a chi(L_{lam-a}) over the weights a of E_mu, with multiplicity
    m_a.  Proof: by relative Borel-Weil, the projection pi: G/B -> G/P has
    pi_* L_lam = E_lam and no higher direct images, for lam dominant for
    the Levi (Bott 1957).  The projection formula then gives
    chi(G/P, E_mu^* (x) E_lam) = chi(G/B, pi^* E_mu^* (x) L_lam), and
    pi^* E_mu^* is filtered by the lines L_{-a}.  Shifts sign both sides.

    Shapes.  Write x's terms as keys ox + sa (coefficients ca) and y's as
    oy + sb (cb), with the offsets ox, oy the smallest keys.  Then
    chi(x, y) = sum c_d chi(L_{delta + d}) with delta = oy - ox, over the
    merged list of d = sb - sa with c_d the sum of ca cb, so G[x][y] depends
    only on x's shape, y's shape and delta, and each distinct triple is
    summed once.  This is exact: each delta + d equals (oy + sb) - (ox + sa),
    the difference of the packed keys of a term of x and a term of y, so its
    digits lie in [-s, s] and it names the weight difference exactly, and
    it is evaluated at that pair of real weights.
    """
    if len(objects) > MAX_GRAM_OBJECTS:
        raise ExcolError(f"{len(objects)} objects exceed the Gram limit {MAX_GRAM_OBJECTS}")
    if method != "chi":
        return [[euler_pairing(x, y, method=method) for y in objects] for x in objects]
    return _ChiTable(objects, objects).gram()


def _bareiss(mat: Sequence[Sequence[int]]) -> int:
    """det mat by fraction-free (Bareiss) elimination below each pivot.

    Every division is exact, so the whole computation stays in integers.
    A row with a zero in the pivot column is skipped when the pivot equals
    the previous one, as (pk * x - 0 * y) // prev == x.  This keeps permuted,
    near-triangular Grams cheap: symplectic:4 with two objects swapped takes
    0.013-0.016 s, not 2.7-3.6 s.
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
        for i in range(k + 1, n):
            f = a[i][k]
            if f or pk != prev:
                a[i] = [(pk * x - f * y) // prev for x, y in zip(a[i], rowk)]
        prev = pk
    return sign * prev


def _lower_rows(mat: Sequence[Sequence[int]]) -> list[int]:
    """The rows j of mat with a nonzero entry left of the diagonal."""
    return [j for j, row in enumerate(mat) if any(row[:j])]


def _det_exact(mat: Sequence[Sequence[int]], lower: list[int] | None = None) -> int:
    """det mat: the diagonal's product if mat is triangular either way, else
    Bareiss.  lower, if given, is _lower_rows(mat)."""
    if lower is None:
        lower = _lower_rows(mat)
    if not lower or not any(any(row[j + 1:]) for j, row in enumerate(mat)):
        return math.prod(row[j] for j, row in enumerate(mat))
    return _bareiss(mat)


def mutate_pair_k(
    left: KClass, right: KClass, side: str
) -> tuple[KClass, KClass]:
    """Mutate an adjacent pair at the level of K-theory classes.

    side="left" replaces (E, F) by (L_E F, E) with [L_E F] = chi(E,F)[E] - [F];
    side="right" replaces it by (F, R_F E) with [R_F E] = chi(E,F)[F] - [E].
    """
    if left.terms == right.terms:
        raise ExcolError("refusing to mutate a pair with identical classes")
    chi = _ChiTable([left], [right]).gram()[0][0]
    if side == "left":
        return left.scale(chi).sub(right), left
    if side == "right":
        return right, right.scale(chi).sub(left)
    raise ExcolError(f"unknown mutation side {side!r}")


def thread_check(
    gram: Sequence[Sequence[int]], space_dim: int
) -> tuple[bool, list[str]]:
    """Helix thread test on a Gram matrix for a space of the given dimension.

    The test checks two preconditions: a unit upper-triangular pairing
    (hence det G = 1), and at least space_dim + 1 objects (the K-group of
    the space cannot be smaller).  Once they hold, right-mutating each class
    through the rest of its window closes onto its inverse-Serre image at
    every cyclic position, so the sweep is reported without being run.

    Proof sketch, with chi(x, y) = x^T G y, [R_F E] = chi(E, F)[F] - [E]
    and S = G^{-1} G^T: let w be E_0 right-mutated through E_1 ... E_{n-1}.
    By induction chi(w, E_i) = 0 for i >= 1, chi(w, w) = 1 and
    chi(w, E_0) = (-1)^{n-1}.  Since chi(x, S y) = chi(y, x), the vector
    S^{-1} E_0 has the same pairings up to that sign, and G is
    nondegenerate, so w = (-1)^{n-1} S^{-1} E_0.  The rotated window
    (E_1, ..., E_{n-1}, w) is again unit upper-triangular, and S depends
    only on the form, so the argument repeats at every position.  This is
    the lattice form of helix theory: Bondal, "Representations of
    associative algebras and coherent sheaves" (1989), and Bondal and
    Polishchuk, "Homological properties of associative algebras: the method
    of helices" (1993).
    """
    if any(len(row) != len(gram) for row in gram):
        return False, ["FAIL: Gram matrix is not square"]
    return _thread_trace(gram, space_dim, _lower_rows(gram))


def _thread_trace(
    gram: Sequence[Sequence[int]], space_dim: int, lower: list[int]
) -> tuple[bool, list[str]]:
    """thread_check on a square Gram matrix whose _lower_rows are lower."""
    trace: list[str] = []
    n = len(gram)
    for i in range(n):
        if gram[i][i] != 1:
            trace.append(f"FAIL: chi(E_{i}, E_{i}) = {gram[i][i]}, expected 1")
            return False, trace
    for i in lower:
        j = next(j for j, x in enumerate(gram[i]) if x)
        trace.append(
            f"FAIL: backward pairing chi(E_{i}, E_{j}) = {gram[i][j]}, expected 0"
        )
        return False, trace
    trace.append(f"unit upper-triangular: ok ({n} objects)")

    # a unit upper-triangular matrix has determinant 1
    trace.append("unimodular: ok (det G = 1)")

    if n < space_dim + 1:
        trace.append(
            f"FAIL: only {n} objects on a {space_dim}-fold; "
            f"the K-group has rank at least {space_dim + 1}"
        )
        return False, trace
    trace.append(f"period bound: ok ({n} objects >= dim + 1 = {space_dim + 1})")

    trace.extend(
        f"position {pos}: sweep closes onto the inverse Serre image" for pos in range(n)
    )
    trace.append("thread: complete")
    return True, trace
