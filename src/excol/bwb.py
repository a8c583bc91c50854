"""Cohomology of irreducible homogeneous bundles via the dot action.

A parabolic quotient is named by its root system and the set of crossed
nodes.  Bundles are irreducible Levi representations tagged with a highest
weight and an integer shift.  Cohomology of a bundle is computed with the
rho-shifted dot action over the full system; pushforward along a fibration
uses the dot action over the Levi of the base.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping

from .roots import (
    DominanceError,
    ExcolError,
    ParseError,
    RootSystem,
    Weight,
    _Record,
    _dot_action,
    _make,
    build_root_system,
    is_dominant,
    make_dominant_dot,
    parabolic_cell_count,
    subsystem,
    validate_weight,
    weight,
)
from .characters import _weyl_dim_cached, dual_weight, tensor_decompose

__all__ = [
    "ParabolicSpace",
    "parabolic_space",
    "space_from_string",
    "BundleObject",
    "CohomologyAnswer",
    "cohomology",
    "graded_hom",
    "pushforward",
    "canonical_bundle",
    "bundle_weight",
    "spinor_weight",
    "format_graded",
]


class ParabolicSpace(_Record):
    """Quotient of a classical group by the parabolic with the given crossed nodes.

    levi_mask, levi, nilradical_roots and dim are derived once, not fields."""

    _fields = ("rs", "crossed")

    def __init__(self, rs: RootSystem, crossed: frozenset[int]) -> None:
        if not crossed:
            raise ExcolError("at least one node must be crossed")
        bad = [i for i in crossed if not 1 <= i <= rs.rank]
        if bad:
            raise ExcolError(f"crossed nodes {bad} outside 1..{rs.rank}")
        self._set(rs, crossed)
        put = object.__setattr__
        put(self, "levi_mask", frozenset(range(1, rs.rank + 1)) - crossed)
        put(self, "levi", subsystem(rs, self.levi_mask))
        levi_pos = set(self.levi.positive_roots)
        put(self, "nilradical_roots", tuple(a for a in rs.positive_roots if a not in levi_pos))
        put(self, "dim", len(self.nilradical_roots))

    @property
    def cell_count(self) -> int:
        return parabolic_cell_count(self.rs, self.levi_mask)

    def __str__(self) -> str:
        nodes = ",".join(str(i) for i in sorted(self.crossed))
        return f"{self.rs}:P{nodes}"


def parabolic_space(family: str, rank: int, crossed: Iterable[int]) -> ParabolicSpace:
    return ParabolicSpace(build_root_system(family, rank), frozenset(crossed))


_SPACE_RE = re.compile(r"^([ABCD])(\d+):P([\d,]+)$")


def space_from_string(text: str) -> ParabolicSpace:
    """Parse names like C3:P2 or C3:P1,2."""
    m = _SPACE_RE.match(text.strip())
    if not m:
        raise ParseError(f"cannot parse space {text!r}; expected e.g. C3:P2 or C3:P1,2")
    family, rank, nodes = m.group(1), int(m.group(2)), m.group(3)
    crossed = [int(s) for s in nodes.split(",") if s]
    return parabolic_space(family, rank, crossed)


class BundleObject(_Record):
    """Irreducible homogeneous bundle, possibly shifted in the derived category.

    rank, the Weyl dimension of hw over the Levi, is derived once, not a field."""

    _fields = ("space", "hw", "shift")

    def __init__(self, space: ParabolicSpace, hw: Weight, shift: int = 0) -> None:
        validate_weight(space.rs, hw)
        if not is_dominant(space.levi, hw):
            raise DominanceError(f"{hw} is not dominant for the Levi of {space}")
        self._set(space, hw, shift)
        # hw is checked above, so weyl_dim's checks are skipped
        object.__setattr__(self, "rank", _weyl_dim_cached(space.levi, hw))

    def dual(self) -> "BundleObject":
        dw = dual_weight(self.space.rs, self.space.levi_mask, self.hw)
        return BundleObject(self.space, dw, -self.shift)

    def shifted(self, k: int) -> "BundleObject":
        return BundleObject(self.space, self.hw, self.shift + k)

    def __str__(self) -> str:
        tail = f"[{self.shift}]" if self.shift else ""
        return f"E{self.hw}{tail}"


class CohomologyAnswer(_Record):
    """Cohomology of one irreducible bundle: zero, or one irrep in one degree."""

    _fields = ("degree", "dominant", "dim")

    def __init__(self, degree: int | None, dominant: Weight | None, dim: int) -> None:
        self._set(degree, dominant, dim)

    @property
    def is_zero(self) -> bool:
        return self.degree is None

    def dims(self) -> dict[int, int]:
        return {} if self.degree is None else {self.degree: self.dim}

    def __str__(self) -> str:
        return format_graded(self.dims())


def cohomology(space: ParabolicSpace, hw: Weight) -> CohomologyAnswer:
    """Sheaf cohomology of the irreducible bundle with Levi-highest weight hw."""
    validate_weight(space.rs, hw)
    if not is_dominant(space.levi, hw):
        raise DominanceError(f"{hw} is not dominant for the Levi of {space}")
    return _cohomology(space, hw)


def _cohomology(space: ParabolicSpace, hw: Weight) -> CohomologyAnswer:
    """cohomology of a lattice weight hw already known to be Levi-dominant."""
    full = subsystem(space.rs)
    hit = _dot_action(full, hw)
    if hit is None:
        return CohomologyAnswer(None, None, 0)
    length, dom = hit
    if not 0 <= length <= space.dim:
        raise AssertionError("cohomological degree must not exceed the dimension")
    # dom is dominant for the full system, so weyl_dim's checks are skipped
    return CohomologyAnswer(length, dom, _weyl_dim_cached(full, dom))


def graded_hom(src: BundleObject, dst: BundleObject) -> dict[int, int]:
    """Dimensions of the graded Ext groups between two bundles: the cohomology
    of each summand of src^* (x) dst, its degree shifted by src.shift - dst.shift."""
    if src.space != dst.space:
        raise ExcolError("both bundles must live on the same space")
    rs = src.space.rs
    mask = src.space.levi_mask
    offset = src.shift - dst.shift
    dims: dict[int, int] = {}
    # tensor_decompose returns Levi-dominant lattice weights: nothing to check
    for piece, mult in tensor_decompose(rs, mask, dual_weight(rs, mask, src.hw), dst.hw):
        ans = _cohomology(src.space, piece)
        if not ans.is_zero:
            k = ans.degree + offset
            dims[k] = dims.get(k, 0) + mult * ans.dim
    return dict(sorted(dims.items()))


def pushforward(bundle: BundleObject, base: ParabolicSpace) -> BundleObject | None:
    """Derived pushforward along the fibration onto a less-crossed quotient.

    The answer for an irreducible bundle is a single irreducible summand on
    the base, or zero.  Cohomology in fiber degree ell lowers the shift by ell.
    """
    total = bundle.space
    if total.rs != base.rs:
        raise ExcolError("total space and base must share the root system")
    if not base.crossed <= total.crossed:
        raise ExcolError(f"{base} is not a quotient of {total}")
    hit = make_dominant_dot(base.rs, base.levi_mask, bundle.hw)
    if hit is None:
        return None
    length, dom = hit
    return BundleObject(base, dom, bundle.shift - length)


def canonical_bundle(space: ParabolicSpace) -> BundleObject:
    """Canonical line bundle: minus the sum of the nilradical roots."""
    total = weight(*([0] * space.rs.dim))
    for a in space.nilradical_roots:
        total = total + a
    return BundleObject(space, -total, 0)


def format_graded(dims: Mapping[int, int]) -> str:
    """Render graded dimensions like 'k in degree 7' or 'k^6 in degree 0'."""
    if not dims:
        return "0"
    parts = []
    for k in sorted(dims):
        d = dims[k]
        head = "k" if d == 1 else f"k^{d}"
        parts.append(f"{head} in degree {k}")
    return " + ".join(parts)


def _is_quadric(space: ParabolicSpace) -> bool:
    rs = space.rs
    if rs.family == "B" and space.crossed == frozenset({1}):
        return True
    if rs.family == "D" and rs.rank >= 3 and space.crossed == frozenset({1}):
        return True
    if rs.family == "D" and rs.rank == 2 and space.crossed == frozenset({1, 2}):
        return True
    return False


def _hyperplane_weight(space: ParabolicSpace, t: int) -> Weight:
    """Weight of O(t) on a space with one crossed node k: t times the sum of
    the first k epsilons."""
    if _is_quadric(space):
        k = 1
    elif len(space.crossed) == 1:
        (k,) = space.crossed
    else:
        raise ExcolError(f"O(t) is ambiguous on {space}; name the projection")
    return weight(*([t] * k + [0] * (space.rs.dim - k)))


def spinor_weight(space: ParabolicSpace, sign: int = 0) -> Weight:
    """Highest weight of the (twist-normalized) spinor bundle on a quadric.

    sign selects the half-spinor on even quadrics (+1 or -1); pass 0 on odd
    quadrics where there is a single spinor bundle.  The weight is
    (1/2, ..., 1/2), with the last sign flipped for sign=-1: the leading 1/2
    is the constant that makes every twist Sigma(-1) .. Sigma(-dim) acyclic.
    """
    if not _is_quadric(space):
        raise ExcolError(f"{space} is not a quadric")
    rs = space.rs
    if rs.family == "B":
        if sign != 0:
            raise ExcolError("odd quadrics have a single spinor bundle; use sign=0")
    else:
        if sign not in (1, -1):
            raise ExcolError("even quadrics need sign=+1 or sign=-1")
    num = [1] * rs.rank  # doubled coordinates
    if rs.family == "D" and sign == -1:
        num[-1] = -1
    return _make(tuple(num))


_NAME_RES = [
    ("O", re.compile(r"^O(?:\((-?\d+)\))?$")),
    ("U", re.compile(r"^U(\*)?(?:\((-?\d+)\))?$")),
    ("SU", re.compile(r"^S\^?(\d+)U(?:\((-?\d+)\))?$")),
    ("SIGMA", re.compile(r"^Sigma([+-])?(?:\((-?\d+)\))?$")),
    ("PULL", re.compile(r"^([pq])\*O(?:\((-?\d+)\))?$")),
    ("SUB", re.compile(r"^O_([NU])(?:\((-?\d+)\))?$")),
    ("L", re.compile(r"^L\((-?\d+),(-?\d+)\)$")),
]


def bundle_weight(space: ParabolicSpace, name: str) -> Weight:
    """Resolve a tautological bundle name to its Levi-highest weight.

    Supported names: O, O(t), U, U*, U(t), U*(t), S^aU(b), Sigma(t),
    Sigma+(t), Sigma-(t), p*O(t), q*O(t), O_N(t), O_U(t), L(i,j).
    """
    name = name.strip().replace(" ", "")
    rs = space.rs
    dim = rs.dim
    kind = None
    m = None
    for k, rx in _NAME_RES:
        m = rx.match(name)
        if m:
            kind = k
            break
    if kind is None:
        raise ParseError(f"cannot parse bundle name {name!r}")

    def twist(g: str | None) -> Weight:
        return _hyperplane_weight(space, int(g) if g else 0)

    if kind == "O":
        t = m.group(1)
        if t is None or int(t) == 0:
            return Weight([0] * dim)
        return twist(t)

    if kind in ("U", "SU"):
        if len(space.crossed) != 1:
            raise ExcolError(f"U is only defined with a single crossed node, not {space}")
        (k,) = space.crossed
        if kind == "U":
            starred, t = m.group(1), m.group(2)
            base = [0] * dim
            if starred:
                base[0] = 1
            else:
                base[k - 1] = -1
            return Weight(base) + twist(t)
        a, t = int(m.group(1)), m.group(2)
        base = [0] * dim
        base[k - 1] = -a
        return Weight(base) + twist(t)

    if kind == "SIGMA":
        sgn, t = m.group(1), m.group(2)
        sign = 0 if sgn is None else (1 if sgn == "+" else -1)
        return spinor_weight(space, sign) + twist(t)

    if kind in ("PULL", "SUB", "L"):
        if not (rs.family == "C" and space.crossed == frozenset({1, 2})):
            raise ExcolError(
                f"{name} refers to a two-step symplectic flag, not {space}"
            )

    if kind == "PULL":
        proj, t = m.group(1), int(m.group(2) or 0)
        k = 1 if proj == "p" else 2
        return Weight([t] * k + [0] * (dim - k))

    if kind == "SUB":
        which, t = m.group(1), int(m.group(2) or 0)
        coords = [0] * dim
        coords[1 if which == "N" else 0] = t
        return Weight(coords)

    i, j = int(m.group(1)), int(m.group(2))
    return Weight([-i, -j] + [0] * (dim - 2))
