"""Classical root systems A/B/C/D in epsilon coordinates, with exact arithmetic.

All vectors are tuples of fractions.Fraction; no floats appear anywhere.
Type A is modelled in the GL lattice (rank n lives in dimension n+1), so
weights there are integer vectors of length n+1.  Types B and D admit
half-integral (spin) weights provided every coordinate lies in the same
parity class; type C is integral.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

FAMILIES = ("A", "B", "C", "D")

# Largest rank build_root_system accepts.  At rank 20, cells, canonical and
# bwb or hom on a line bundle finish in under a second on every family; at
# rank 40 hom takes seconds, and larger ranks would run for minutes or hours,
# so they are refused up front.
MAX_RANK = 20

__all__ = [
    "FAMILIES",
    "MAX_RANK",
    "ExcolError",
    "LatticeError",
    "DominanceError",
    "ParseError",
    "Weight",
    "weight",
    "RootSystem",
    "build_root_system",
    "coroot_pairing",
    "full_mask",
    "Subsystem",
    "subsystem",
    "is_dominant",
    "plain_dominantize",
    "weyl_orbit",
    "make_dominant_dot",
    "weyl_order",
    "parabolic_cell_count",
]


class ExcolError(Exception):
    """Base class for the workbench's own error conditions."""


class LatticeError(ExcolError, ValueError):
    """Weight coordinates do not lie in the weight lattice of the group."""


class DominanceError(ExcolError, ValueError):
    """A weight required to be dominant is not."""


class ParseError(ExcolError, ValueError):
    """Malformed textual input (space names, bundle names, documents)."""


@dataclass(frozen=True)
class Weight:
    """Immutable vector in epsilon coordinates."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(c, Fraction) for c in self.coords):
            object.__setattr__(
                self, "coords", tuple(Fraction(c) for c in self.coords)
            )

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __add__(self, other: "Weight") -> "Weight":
        self._check_dim(other)
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check_dim(other)
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-a for a in self.coords))

    def scale(self, k: Fraction | int) -> "Weight":
        k = Fraction(k)
        return Weight(tuple(k * a for a in self.coords))

    def dot(self, other: "Weight") -> Fraction:
        self._check_dim(other)
        return sum(
            (a * b for a, b in zip(self.coords, other.coords)), Fraction(0)
        )

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def _check_dim(self, other: "Weight") -> None:
        if len(self.coords) != len(other.coords):
            raise ValueError(
                f"dimension mismatch: {len(self.coords)} vs {len(other.coords)}"
            )

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


def weight(*coords: Fraction | int | str) -> Weight:
    """Convenience constructor: weight(-5, -5, 0) or weight('1/2', '1/2')."""
    return Weight(tuple(Fraction(c) for c in coords))


def _zero(dim: int) -> Weight:
    return Weight(tuple(Fraction(0) for _ in range(dim)))


def _eps(i: int, dim: int) -> Weight:
    # i is 1-based
    return Weight(
        tuple(Fraction(1 if j == i - 1 else 0) for j in range(dim))
    )


@dataclass(frozen=True, eq=False)
class RootSystem:
    """A classical root system with its simple and positive roots and rho.

    Only build_root_system constructs one, through a memo keyed on
    (family, rank), so equal systems are the same object: equality and
    hashing are by identity.
    """

    family: str
    rank: int
    dim: int
    simple_roots: tuple[Weight, ...]
    positive_roots: tuple[Weight, ...]
    rho: Weight

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct A_n (GL lattice, dim n+1), B_n, C_n (n >= 1) or D_n (n >= 2).

    Ranks above MAX_RANK are refused with ExcolError.
    """
    if family not in FAMILIES:
        raise ParseError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if rank < 1:
        raise ParseError(f"rank must be positive, got {rank}")
    if family == "D" and rank < 2:
        raise ParseError("family D requires rank >= 2")
    if rank > MAX_RANK:
        raise ExcolError(f"rank {rank} exceeds the supported maximum {MAX_RANK}")
    return _root_system_cached(family, rank)


@lru_cache(maxsize=None)
def _root_system_cached(family: str, rank: int) -> RootSystem:
    dim = rank + 1 if family == "A" else rank
    e = [_eps(i, dim) for i in range(1, dim + 1)]

    positives: list[Weight] = []
    if family == "A":
        for i in range(dim):
            for j in range(i + 1, dim):
                positives.append(e[i] - e[j])
        simples = tuple(e[i] - e[i + 1] for i in range(rank))
    else:
        for i in range(rank):
            for j in range(i + 1, rank):
                positives.append(e[i] - e[j])
        for i in range(rank):
            for j in range(i + 1, rank):
                positives.append(e[i] + e[j])
        if family == "B":
            positives.extend(e[i] for i in range(rank))
        elif family == "C":
            positives.extend(e[i].scale(2) for i in range(rank))
        chain = [e[i] - e[i + 1] for i in range(rank - 1)]
        if family == "B":
            simples = tuple(chain + [e[rank - 1]])
        elif family == "C":
            simples = tuple(chain + [e[rank - 1].scale(2)])
        else:
            simples = tuple(chain + [e[rank - 2] + e[rank - 1]])

    rho = _zero(dim)
    for a in positives:
        rho = rho + a
    rho = rho.scale(Fraction(1, 2))
    return RootSystem(family, rank, dim, simples, tuple(positives), rho)


def coroot_pairing(v: Weight, alpha: Weight) -> Fraction:
    """<v, alpha^vee> = 2 (v, alpha) / (alpha, alpha)."""
    return 2 * v.dot(alpha) / alpha.dot(alpha)


def reflect(v: Weight, alpha: Weight) -> Weight:
    return v - alpha.scale(coroot_pairing(v, alpha))


def validate_weight(rs: RootSystem, lam: Weight) -> None:
    """Reject coordinates outside the weight lattice for the family."""
    if lam.dim != rs.dim:
        raise LatticeError(
            f"weight has {lam.dim} coordinates, {rs} needs {rs.dim}"
        )
    dens = {c.denominator for c in lam.coords}
    if not dens <= {1, 2}:
        raise LatticeError(f"coordinates of {lam} have denominators beyond 2")
    if 2 in dens:
        if rs.family in ("A", "C"):
            raise LatticeError(
                f"half-integral coordinates are not allowed in type {rs.family}"
            )
        if dens != {2}:
            raise LatticeError(
                f"{lam}: in types B/D all coordinates must share a parity class"
            )


def full_mask(rs: RootSystem) -> frozenset[int]:
    """Mask selecting every simple root (the full system)."""
    return frozenset(range(1, rs.rank + 1))


def _validate_mask(rs: RootSystem, mask: Iterable[int]) -> frozenset[int]:
    m = frozenset(mask)
    bad = [i for i in m if not 1 <= i <= rs.rank]
    if bad:
        raise ValueError(f"mask nodes {bad} outside 1..{rs.rank}")
    return m


def _simple_coefficients(rs: RootSystem, v: Weight) -> list[Fraction] | None:
    """Coefficients of v over all simple roots of rs, or None outside their span.

    Every simple root except the last one or two is e_k - e_{k+1}, so with
    partial sums s_k = v_1 + ... + v_k the coefficient of the k-th simple
    root is s_k, corrected at the end of the diagram: A_n needs
    s_{n+1} = 0, C_n halves c_n, and D_n has c_n = s_n / 2 and
    c_{n-1} = s_n / 2 - v_n.
    """
    sums = list(itertools.accumulate(v.coords))
    n = rs.rank
    if rs.family == "A":
        return sums[:n] if sums[n] == 0 else None
    if rs.family == "C":
        sums[n - 1] /= 2
    elif rs.family == "D":
        sums[n - 1] /= 2
        sums[n - 2] = sums[n - 1] - v.coords[n - 1]
    return sums


@dataclass(frozen=True, eq=False)
class Subsystem:
    """The root subsystem spanned by a subset of simple roots (a Levi).

    Only _subsystem_cached constructs one, and it memoises on the interned
    root system and the mask, so equality and hashing are by identity.
    """

    rs: RootSystem
    mask: frozenset[int]
    simple_roots: tuple[Weight, ...]
    positive_roots: tuple[Weight, ...]
    rho: Weight

    def coefficients(self, v: Weight) -> tuple[Fraction, ...] | None:
        """Expansion of v over this subsystem's simple roots, if in the span."""
        coeffs = _simple_coefficients(self.rs, v)
        if coeffs is None or not _supported_in(coeffs, self.mask):
            return None
        return tuple(coeffs[k - 1] for k in sorted(self.mask))


def _supported_in(coeffs: Sequence[Fraction], mask: frozenset[int]) -> bool:
    return all(k in mask for k, c in enumerate(coeffs, 1) if c)


@lru_cache(maxsize=None)
def _subsystem_cached(rs: RootSystem, mask: frozenset[int]) -> Subsystem:
    simples = tuple(rs.simple_roots[i - 1] for i in sorted(mask))
    positives = [
        a for a in rs.positive_roots
        if _supported_in(_simple_coefficients(rs, a), mask)
    ]
    rho = _zero(rs.dim)
    for a in positives:
        rho = rho + a
    rho = rho.scale(Fraction(1, 2))
    return Subsystem(rs, mask, simples, tuple(positives), rho)


def subsystem(rs: RootSystem, mask: Iterable[int] | None = None) -> Subsystem:
    """Levi subsystem for a node mask; None means the full system."""
    m = full_mask(rs) if mask is None else _validate_mask(rs, mask)
    return _subsystem_cached(rs, m)


def is_dominant(sub: Subsystem, lam: Weight) -> bool:
    return all(coroot_pairing(lam, a) >= 0 for a in sub.simple_roots)


def plain_dominantize(sub: Subsystem, v: Weight) -> Weight:
    """Unique dominant representative of v under the subsystem's Weyl group."""
    cur = v
    moved = True
    while moved:
        moved = False
        for a in sub.simple_roots:
            if coroot_pairing(cur, a) < 0:
                cur = reflect(cur, a)
                moved = True
    return cur


def weyl_orbit(sub: Subsystem, v: Weight) -> set[Weight]:
    """Full Weyl orbit of v under the subsystem's reflections (BFS)."""
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            for a in sub.simple_roots:
                r = reflect(u, a)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


def make_dominant_dot(
    rs: RootSystem, mask: Iterable[int] | None, lam: Weight
) -> tuple[int, Weight] | None:
    """Dominantize lam under the rho-shifted dot action of the masked subsystem.

    Returns None when lam + rho' is singular (orthogonal to some positive
    coroot of the subsystem); otherwise (length, mu) where length counts the
    positive roots of the subsystem sent negative and mu is the dominant
    weight with mu + rho' in the Weyl orbit of lam + rho'.
    """
    validate_weight(rs, lam)
    sub = subsystem(rs, mask)
    v = lam + sub.rho
    length = 0
    for a in sub.positive_roots:
        p = coroot_pairing(v, a)
        if p == 0:
            return None
        if p < 0:
            length += 1
    dom = plain_dominantize(sub, v)
    return length, dom - sub.rho


def weyl_order(rs: RootSystem) -> int:
    """Order of the full Weyl group, by the classical closed formulas."""
    import math

    n = rs.rank
    if rs.family == "A":
        return math.factorial(n + 1)
    if rs.family in ("B", "C"):
        return (2**n) * math.factorial(n)
    return (2 ** (n - 1)) * math.factorial(n)


def parabolic_cell_count(rs: RootSystem, levi_mask: Iterable[int]) -> int:
    """Number of Schubert cells of G/P: |W| / |W_Levi|.

    |W_Levi| comes from Macdonald's product over the Levi's positive roots,
    prod (ht + 1) / ht, taken in the dual system: the height of the coroot
    of alpha is <rho_Levi, alpha^vee>.  The empty mask is the Borel case.
    """
    sub = subsystem(rs, _validate_mask(rs, levi_mask))
    num = den = 1
    for a in sub.positive_roots:
        height = int(coroot_pairing(sub.rho, a))
        num *= height + 1
        den *= height
    order, rest = divmod(num, den)
    assert rest == 0, "Macdonald's product must be an integer"
    total = weyl_order(rs)
    assert total % order == 0, "Levi order must divide the Weyl order"
    return total // order
