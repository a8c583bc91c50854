"""Euler pairings, Gram matrices, mutations, and the helix thread check.

K-theory classes are integer combinations of full-flag line weights; the
class of an irreducible bundle is its Levi character, signed by the parity
of the shift.  The Euler pairing is computed either from graded Hom spaces
or K-theoretically from line-bundle Euler characteristics; the two routes
are kept separate so they can cross-check each other.  A line-bundle Euler
characteristic is Weyl's polynomial, a closed form with no memo.  Every
chi pairing (Gram matrix, euler_pairing, mutate_pair_k) runs on one table
per call: each line weight of the call's classes packed into one int, so a
term pair costs one subtraction and one lookup, and each distinct weight
difference is evaluated once, as a product of differences of two vectors
of coroot pairings.  Between bundles, the right side of a pairing enters
by its highest weight alone (relative Borel-Weil; see gram_matrix).

The thread verdict follows from triangularity and the period bound: once
the Gram matrix is unit upper-triangular, the helix sweep closes at every
position (see thread_check), so only those preconditions are computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add, mul, sub
from typing import Mapping, Sequence

from .roots import (
    MAX_GRAM_OBJECTS, ExcolError, RootSystem, Weight, _pairings, _weyl_quotient,
    subsystem, validate_weight, weyl_product,
)
from .characters import irrep_character
from .bwb import BundleObject, ParabolicSpace, graded_hom

__all__ = [
    "KClass",
    "kclass_of",
    "chi_line",
    "euler_pairing",
    "gram_matrix",
    "serre_operator",
    "mutate_pair_k",
    "thread_check",
]


@dataclass(frozen=True)
class KClass:
    """Formal integer combination of line-weight classes on a fixed space."""

    space: ParabolicSpace
    terms: tuple[tuple[Weight, int], ...]

    def __post_init__(self) -> None:
        for w, _ in self.terms:
            validate_weight(self.space.rs, w)

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
    """K-theory class of a bundle: its Levi character, signed by shift parity.

    A line bundle's character is its one weight, so Freudenthal is skipped.
    """
    if obj.rank == 1:
        return _head(obj)
    sign = -1 if obj.shift % 2 else 1
    char = irrep_character(obj.space.rs, obj.space.levi_mask, obj.hw)
    return KClass.from_dict(obj.space, {w: sign * m for w, m in char.mults.items()})


def _head(obj: BundleObject) -> KClass:
    """The class of the line with a bundle's highest weight, signed by shift parity."""
    return KClass(obj.space, ((obj.hw, -1 if obj.shift % 2 else 1),))


def chi_line(rs: RootSystem, nu: Weight) -> int:
    """Euler characteristic of the full-flag line bundle with weight nu."""
    validate_weight(rs, nu)
    return weyl_product(subsystem(rs), nu)


def _as_kclass(obj: "BundleObject | KClass") -> KClass:
    return kclass_of(obj) if isinstance(obj, BundleObject) else obj


class _ChiTable(dict):
    """chi(L_{b-a}) for the line weights a on the left and b on the right of
    one call's pairings, keyed by packed difference.

    A left object enters by the terms of its K-class.  When every object is
    a BundleObject, a right object E_lam enters by its highest weight alone,
    signed by its shift; otherwise by its terms too.  Each distinct weight's
    doubled coordinates are packed as the digits of one int in base 2s + 1,
    s the largest coordinate range over the weights.  Every digit of a
    difference lies in [-s, s], so key(b) - key(a) names b - a exactly.

    chi(L_{b-a}) is Weyl's polynomial, prod 2 <b - a + rho, alpha^vee> over
    the positive roots divided by the Weyl denominator.  The pairing is
    linear, so with p_a = (2 <a, alpha^vee>) and q_b = (2 <b + rho, alpha^vee>),
    each computed once per weight, a missing difference costs one product of
    q_b - p_a.  It is evaluated against the left key `at`, which every
    lookup loop sets first.
    """

    def __init__(
        self,
        left: Sequence["BundleObject | KClass"],
        right: Sequence["BundleObject | KClass"],
    ) -> None:
        super().__init__()
        lefts = [_as_kclass(o) for o in left]
        heads = all(isinstance(o, BundleObject) for o in (*left, *right))
        rights = [_head(o) if heads else _as_kclass(o) for o in right]
        classes = lefts + rights
        if any(k.space != classes[0].space for k in classes):
            raise ExcolError("Euler pairing needs both classes on the same space")
        nums = {w.num for k in classes for w, _ in k.terms}
        spread = max((max(c) - min(c) for c in zip(*nums)), default=0)
        keys = {n: sum(x * (2 * spread + 1) ** i for i, x in enumerate(n)) for n in nums}
        self.left, self.right = (
            [[(keys[w.num], c) for w, c in k.terms] for k in side] for side in (lefts, rights)
        )
        self.heads = heads
        if classes:
            full = subsystem(classes[0].space.rs)
            self.denominator = full.weyl_denominator
            rho = _pairings(full.positive_int, full.rho.num)
            self.p = {keys[n]: _pairings(full.positive_int, n) for n in nums}
            self.q = {k: list(map(add, p, rho)) for k, p in self.p.items()}
        self.at = 0

    def __missing__(self, d: int) -> int:
        chi = self[d] = _weyl_quotient(
            map(sub, self.q[self.at + d], self.p[self.at]), self.denominator
        )
        return chi

    def _pair(self, x: list[tuple[int, int]], y: list[tuple[int, int]]) -> int:
        """chi(x, y) as the sum of c_a c_b chi(L_{b-a}) over the term pairs."""
        total = 0
        for ka, ca in x:
            self.at = ka
            for kb, cb in y:
                total += ca * cb * self[kb - ka]
        return total

    def gram(self) -> list[list[int]]:
        """[[chi(x, y) for y on the right] for x on the left].

        With right heads, a row takes one lookup per left term and column,
        and the column signs are applied once at the end.
        """
        if not self.heads:
            return [[self._pair(x, y) for y in self.right] for x in self.left]
        keys = [kb for (kb, _), in self.right]
        signs = [cb for (_, cb), in self.right]
        flip = -1 in signs
        rows = []
        for x in self.left:
            row = [0] * len(keys)
            for ka, ca in x:
                self.at = ka
                row = [r + ca * self[kb - ka] for r, kb in zip(row, keys)]
            rows.append(list(map(mul, signs, row)) if flip else row)
        return rows


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
    """
    if len(objects) > MAX_GRAM_OBJECTS:
        raise ExcolError(f"{len(objects)} objects exceed the Gram limit {MAX_GRAM_OBJECTS}")
    if method != "chi":
        return [[euler_pairing(x, y, method=method) for y in objects] for x in objects]
    return _ChiTable(objects, objects).gram()


def _bareiss(
    mat: Sequence[Sequence[int]], rhs: Sequence[Sequence[int]]
) -> tuple[int, list[list[int]] | None]:
    """Fraction-free (Bareiss) elimination of [mat | rhs].

    Returns (det mat, adj(mat) rhs); the second is None when mat is singular.
    Every division is exact, so the whole computation stays in integers.
    An empty rhs eliminates below each pivot only, which is all det needs;
    otherwise above it too (Gauss-Jordan).  A row with a zero in the pivot
    column is skipped when the pivot equals the previous one, as
    (pk * x - 0 * y) // prev == x.  This keeps permuted, near-triangular Grams
    cheap: symplectic:4 with two objects swapped takes 0.013-0.016 s, not 2.7-3.6 s.
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


def _lower_rows(mat: Sequence[Sequence[int]]) -> list[int]:
    """The rows j of mat with a nonzero entry left of the diagonal."""
    return [j for j, row in enumerate(mat) if any(row[:j])]


def _det_exact(mat: Sequence[Sequence[int]]) -> int:
    """det mat: the diagonal's product if mat is triangular either way, else Bareiss."""
    if not _lower_rows(mat) or not any(any(row[j + 1:]) for j, row in enumerate(mat)):
        return math.prod(row[j] for j, row in enumerate(mat))
    return _bareiss(mat, [()] * len(mat))[0]


def _solve_unimodular(
    mat: Sequence[Sequence[int]], rhs: Sequence[Sequence[int]]
) -> list[list[int]]:
    """The integer matrix X with mat X = rhs, for mat of determinant +1 or -1."""
    det, adj = _bareiss(mat, rhs)
    if abs(det) != 1:
        raise ExcolError(f"Gram matrix has determinant {det}, expected +1 or -1")
    return [[det * x for x in row] for row in adj]


def serre_operator(gram: Sequence[Sequence[int]]) -> list[list[int]]:
    """K-level Serre operator S = G^{-1} G^T acting on coordinate columns.

    Defined by chi(x, S y) = chi(y, x); requires the Gram matrix to be
    unimodular so that S is an integer matrix.
    """
    if any(len(row) != len(gram) for row in gram):
        raise ExcolError("Gram matrix must be square")
    return _solve_unimodular(gram, [list(col) for col in zip(*gram)])


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
    trace: list[str] = []
    n = len(gram)
    if any(len(row) != n for row in gram):
        trace.append("FAIL: Gram matrix is not square")
        return False, trace

    for i in range(n):
        if gram[i][i] != 1:
            trace.append(f"FAIL: chi(E_{i}, E_{i}) = {gram[i][i]}, expected 1")
            return False, trace
    for i in _lower_rows(gram):
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
