"""Classical root systems A/B/C/D in epsilon coordinates, with exact arithmetic.

Weights are held as their doubled coordinates, which are integers for every
weight of a classical group; coordinates read back as fractions.Fraction,
and no floats appear anywhere.  Each Levi subsystem carries its roots and
coroots as small integer tuples, so dominance tests, reflections and the
dot action are integer arithmetic.
Type A is modelled in the GL lattice (rank n lives in dimension n+1), so
weights there are integer vectors of length n+1.  Types B and D admit
half-integral (spin) weights provided every coordinate lies in the same
parity class; type C is integral.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

FAMILIES = ("A", "B", "C", "D")

# Largest rank build_root_system accepts.  At rank 20, cells, canonical and
# bwb or hom on a line bundle finish in hundredths of a second on every
# family; building the system and its Levi grows about as rank^3 (up to 2 s
# at rank 80), so larger ranks are refused up front.
MAX_RANK = 20

# Largest n of the flag builders, which make 2^n n! objects.  On a 2-CPU host
# symplectic:7 (645,120 lines) builds in 12 s and 344 MB, symplectic:8 not in 60 s;
# orthogonal:6 (46,080 classes) in 3.6-3.9 s and 204 MB (4.4 KB a class).
MAX_SYMPLECTIC_RANK = 7
MAX_ORTHOGONAL_RANK = 6
# Most objects gram_matrix accepts.  verify on 3,840 (rank 5) takes 2.7-3.0 s and
# 149 MB (symplectic:5), 17 s and 249 MB (orthogonal:5, chi_only), growing with the
# n^2 entries; rank 6's 46,080 would need at least 17 GB.
MAX_GRAM_OBJECTS = 10_000

__all__ = [
    "ExcolError",
    "LatticeError",
    "DominanceError",
    "ParseError",
    "Weight",
    "weight",
    "RootSystem",
    "build_root_system",
    "validate_weight",
    "full_mask",
    "Subsystem",
    "subsystem",
    "is_dominant",
    "plain_dominantize",
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


class _Record:
    """Base of excol's immutable records.

    A subclass names its fields, in order, in _fields, and its __init__
    stores them once, through _set or object.__setattr__.  Records of one
    class are equal when their fields are, hash as the tuple of their fields
    less those named in _unhashed, and repr as Class(field=value, ...).
    Assigning or deleting any attribute raises AttributeError.  There are no
    __slots__: an __init__ may also store values derived from the fields,
    which take no part in ==, hash or repr, and pickle and copy restore the
    instance dict without setattr.
    """

    _fields: tuple[str, ...] = ()
    _unhashed: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls._fields
        hashed = [f for f in cls._fields if f not in cls._unhashed]
        # attrgetter of two or more names returns their tuple; Weight, the
        # one record with a single field, writes its own __eq__ and __hash__
        cls._key = operator.attrgetter(*cls._fields)
        cls._hash_key = operator.attrgetter(*hashed)

    def _set(self, *values) -> None:
        # attribute by attribute: touching __dict__ would turn the instance's
        # inline attribute values into a dict, and every later read slower
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other is self:  # what comparing its fields would say
            return True
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._hash_key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Weight(_Record):
    """Immutable vector in epsilon coordinates, held as integers.

    num holds twice the coordinates.  Every weight of a classical group has
    coordinates in (1/2)Z, so num is an integer tuple: the Weyl group acts
    on it by integer reflections, and it orders weights as their coordinates
    do.  Coordinates outside (1/2)Z are refused with LatticeError.
    """

    _fields = ("num",)

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

    @property
    def sort_key(self) -> tuple[int, ...]:
        """Doubled coordinates: sorting by them is sorting by coords."""
        return self.num

    @property
    def dim(self) -> int:
        return len(self.num)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.num == other.num
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num,))

    def __repr__(self) -> str:
        return f"Weight(coords={self.coords!r})"

    def _combine(self, other: "Weight", op) -> "Weight":
        self._check_dim(other)
        return _make(tuple(map(op, self.num, other.num)))

    def __add__(self, other: "Weight") -> "Weight":
        return self._combine(other, operator.add)

    def __sub__(self, other: "Weight") -> "Weight":
        return self._combine(other, operator.sub)

    def __neg__(self) -> "Weight":
        return _make(tuple(-a for a in self.num))

    def _check_dim(self, other: "Weight") -> None:
        if len(self.num) != len(other.num):
            raise ValueError(
                f"dimension mismatch: {len(self.num)} vs {len(other.num)}"
            )

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, _weight_json(self))) + ")"


def _make(num: tuple[int, ...]) -> Weight:
    """The weight with doubled coordinates num."""
    w = object.__new__(Weight)
    object.__setattr__(w, "num", num)
    return w


def _weight_json(w: Weight) -> list:
    """w's coordinates as Fraction renders them: an int, or a string "x/2"."""
    return [f"{x}/2" if x % 2 else x // 2 for x in w.num]


def weight(*coords: Fraction | int | str) -> Weight:
    """Convenience constructor: weight(-5, -5, 0) or weight('1/2', '1/2')."""
    return Weight(coords)


def _half_sum(roots: Sequence[Weight], dim: int) -> Weight:
    """rho: half the sum of the roots, whose doubled coordinates are the sum."""
    return _make(tuple(sum(a.num[k] for a in roots) // 2 for k in range(dim)))


class RootSystem(_Record):
    """A classical root system with its simple and positive roots and rho.

    Only build_root_system constructs one, through a memo keyed on
    (family, rank), so equal systems are the same object: equality and
    hashing are by identity.
    """

    _fields = ("family", "rank", "dim", "simple_roots", "positive_roots", "rho")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(
        self, family: str, rank: int, dim: int, simple_roots: tuple[Weight, ...],
        positive_roots: tuple[Weight, ...], rho: Weight,
    ) -> None:
        self._set(family, rank, dim, simple_roots, positive_roots, rho)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    def __reduce__(self):
        # unpickling and copying return the interned system
        return _root_system_cached, (self.family, self.rank)


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
    e = [_make(tuple(2 * (j == i) for j in range(dim))) for i in range(dim)]

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
            positives.extend(e[i] + e[i] for i in range(rank))
        chain = [e[i] - e[i + 1] for i in range(rank - 1)]
        if family == "B":
            simples = tuple(chain + [e[rank - 1]])
        elif family == "C":
            simples = tuple(chain + [e[rank - 1] + e[rank - 1]])
        else:
            simples = tuple(chain + [e[rank - 2] + e[rank - 1]])

    return RootSystem(
        family, rank, dim, simples, tuple(positives), _half_sum(positives, dim)
    )


def validate_weight(rs: RootSystem, lam: Weight) -> None:
    """Reject coordinates outside the weight lattice for the family."""
    if lam.dim != rs.dim:
        raise LatticeError(
            f"weight has {lam.dim} coordinates, {rs} needs {rs.dim}"
        )
    odd = [x % 2 for x in lam.num]
    if any(odd):
        if rs.family in ("A", "C"):
            raise LatticeError(
                f"half-integral coordinates are not allowed in type {rs.family}"
            )
        if not all(odd):
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


def _simple_coefficients(rs: RootSystem, v: Weight) -> list[int] | None:
    """Four times the simple-root coefficients of v, or None outside their span.

    Every simple root except the last one or two is e_k - e_{k+1}, so with
    partial sums s_k = v_1 + ... + v_k the coefficient of the k-th simple
    root is s_k, corrected at the end of the diagram: A_n needs
    s_{n+1} = 0, C_n halves c_n, and D_n has c_n = s_n / 2 and
    c_{n-1} = s_n / 2 - v_n.  Halving a half-integer leaves quarters, hence
    the factor four on the doubled coordinates.
    """
    sums = [2 * s for s in itertools.accumulate(v.num)]
    n = rs.rank
    if rs.family == "A":
        return sums[:n] if sums[n] == 0 else None
    if rs.family in ("C", "D"):
        sums[n - 1] //= 2
    if rs.family == "D":
        sums[n - 2] = sums[n - 1] - 2 * v.num[n - 1]
    return sums


# A root alpha = a e_i + b e_j as the integer tuple (i, j, a, b, c, d), where
# alpha^vee = 2 alpha / (alpha, alpha) = c e_i + d e_j; a root with a single
# nonzero coordinate has j = i and b = d = 0.  On the doubled coordinates v
# of any weight, v[i] c + v[j] d is 2 <v, alpha^vee>, an integer, and the
# reflection in alpha is v - (v[i] c + v[j] d) alpha.
IntRoot = tuple[int, int, int, int, int, int]


def _int_root(alpha: Weight) -> IntRoot:
    (i, a), *rest = [(k, x // 2) for k, x in enumerate(alpha.num) if x]
    j, b = rest[0] if rest else (i, 0)
    norm = a * a + b * b
    return (i, j, a, b, 2 * a // norm, 2 * b // norm)


class Subsystem(_Record):
    """The root subsystem spanned by a subset of simple roots (a Levi).

    simple_int and positive_int repeat the simple and positive roots as
    IntRoot tuples, so pairings and reflections are integer operations;
    weyl_denominator is prod 2 <rho, a^vee> over the positive roots.
    Only _subsystem_cached constructs one, and it memoises on the interned
    root system and the mask, so equality and hashing are by identity.
    """

    _fields = ("rs", "mask", "simple_roots", "positive_roots", "rho", "simple_int",
               "positive_int", "weyl_denominator")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(
        self, rs: RootSystem, mask: frozenset[int], simple_roots: tuple[Weight, ...],
        positive_roots: tuple[Weight, ...], rho: Weight, simple_int: tuple[IntRoot, ...],
        positive_int: tuple[IntRoot, ...], weyl_denominator: int,
    ) -> None:
        self._set(rs, mask, simple_roots, positive_roots, rho, simple_int,
                  positive_int, weyl_denominator)

    def __reduce__(self):
        return _subsystem_cached, (self.rs, self.mask)


def _supported_in(coeffs: Sequence[int], mask: frozenset[int]) -> bool:
    return all(k in mask for k, c in enumerate(coeffs, 1) if c)


@lru_cache(maxsize=None)
def _subsystem_cached(rs: RootSystem, mask: frozenset[int]) -> Subsystem:
    simples = tuple(rs.simple_roots[i - 1] for i in sorted(mask))
    positives = tuple(
        a for a in rs.positive_roots
        if _supported_in(_simple_coefficients(rs, a), mask)
    )
    rho, positive_int = _half_sum(positives, rs.dim), tuple(map(_int_root, positives))
    return Subsystem(
        rs, mask, simples, positives, rho, tuple(map(_int_root, simples)),
        positive_int, math.prod(_pairings(positive_int, rho.num)),
    )


def subsystem(rs: RootSystem, mask: Iterable[int] | None = None) -> Subsystem:
    """Levi subsystem for a node mask; None means the full system."""
    m = full_mask(rs) if mask is None else _validate_mask(rs, mask)
    return _subsystem_cached(rs, m)


def _numerators(sub: Subsystem, v: Weight) -> tuple[int, ...]:
    v._check_dim(sub.rho)
    return v.num


def _add(x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(operator.add, x, y))


def _dot(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(map(operator.mul, x, y))


def _pairings(roots: Sequence[IntRoot], v: Sequence[int]) -> list[int]:
    """2 <v, alpha^vee> for each root alpha, on the doubled coordinates v."""
    return [v[i] * c + v[j] * d for i, j, _, _, c, d in roots]


def _dominantize(roots: Sequence[IntRoot], v: Sequence[int]) -> tuple[int, ...]:
    """Dominant representative of the numerators v under the simple reflections."""
    cur = list(v)
    moved = True
    while moved:
        moved = False
        for i, j, a, b, c, d in roots:
            p = cur[i] * c + cur[j] * d
            if p < 0:
                cur[i] -= p * a
                cur[j] -= p * b
                moved = True
    return tuple(cur)


def _orbit(roots: Sequence[IntRoot], v: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Orbit of the numerators v under the simple reflections (BFS)."""
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for u in frontier:
            for i, j, a, b, c, d in roots:
                p = u[i] * c + u[j] * d
                if p:
                    r = list(u)
                    r[i] -= p * a
                    r[j] -= p * b
                    r = tuple(r)
                    if r not in seen:
                        seen.add(r)
                        nxt.append(r)
        frontier = nxt
    return seen


def is_dominant(sub: Subsystem, lam: Weight) -> bool:
    return all(p >= 0 for p in _pairings(sub.simple_int, _numerators(sub, lam)))


def plain_dominantize(sub: Subsystem, v: Weight) -> Weight:
    """Unique dominant representative of v under the subsystem's Weyl group."""
    return _make(_dominantize(sub.simple_int, _numerators(sub, v)))


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
    return _dot_action(subsystem(rs, mask), lam)


def _dot_action(sub: Subsystem, lam: Weight) -> tuple[int, Weight] | None:
    """make_dominant_dot for a lattice weight lam, without validation."""
    # lam.num and rho.num are doubled coordinates
    rho = sub.rho.num
    v = _add(lam.num, rho)
    pairings = _pairings(sub.positive_int, v)
    if 0 in pairings:
        return None
    length = sum(p < 0 for p in pairings)
    dom = _dominantize(sub.simple_int, v)
    return length, _make(tuple(map(operator.sub, dom, rho)))


def weyl_product(sub: Subsystem, lam: Weight) -> int:
    """Weyl's polynomial prod <lam + rho, a^vee> / prod <rho, a^vee> over sub.

    For dominant lam it is a dimension; for any lattice weight lam it is, by
    Borel-Weil-Bott, chi(L_lam) on the full flag: 0 when lam + rho is
    singular, else signed by (-1)^length.  Doubled coordinates cancel.
    """
    return _weyl_quotient(
        _pairings(sub.positive_int, _add(lam.num, sub.rho.num)), sub.weyl_denominator
    )


def _weyl_quotient(factors: Iterable[int], denominator: int) -> int:
    """prod factors / denominator, an exact quotient.  With the factors
    2 <nu + rho, a^vee> over the positive roots and the denominator the same
    product at nu = 0, it is Weyl's polynomial at the lattice weight nu."""
    val, rest = divmod(math.prod(factors), denominator)
    if rest:
        raise AssertionError("the quotient must be an exact integer")
    return val


def weyl_order(rs: RootSystem) -> int:
    """Order of the full Weyl group, by the classical closed formulas."""
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
    # each pairing is twice the height of the coroot
    pairings = _pairings(sub.positive_int, sub.rho.num)
    order = _weyl_quotient((p + 2 for p in pairings), sub.weyl_denominator)
    total = weyl_order(rs)
    if total % order:
        raise AssertionError("Levi order must divide the Weyl order")
    return total // order
