"""Exact representation-theoretic arithmetic over Levi subsystems.

Characters are finite multiplicity maps weight -> positive integer.  The
irreducible character is computed by Freudenthal's recursion over the
dominant weights of V_lam alone, walked down from lam by positive roots and
taken in decreasing |mu + rho|^2, its root strings stopped at the first
non-weight; so its work follows the number of weights.  Dimensions come from
the Weyl product formula (roots.weyl_product), tensor products from the
Brauer-Klimyk (Racah-Speiser) formula.

All of it is integer arithmetic on doubled coordinates, through the
numerator helpers of roots.  Characters and Weyl dimensions are memoised in
memory, per process, behind validation, and a character only after its
total has matched the Weyl dimension; results never depend on the memos,
and clear_character_cache() empties both: no other answer is memoised.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable, Mapping

from .roots import (
    DominanceError,
    RootSystem,
    Subsystem,
    Weight,
    _Record,
    _add,
    _dominantize,
    _dot,
    _dot_action,
    _make,
    _orbit,
    _pairings,
    is_dominant,
    plain_dominantize,
    subsystem,
    validate_weight,
    weyl_product,
)

__all__ = [
    "Character",
    "weyl_dim",
    "irrep_character",
    "tensor_decompose",
    "dual_weight",
    "clear_character_cache",
]


class Character(_Record):
    """Multiplicity map of a (virtual) finite-dimensional Levi representation."""

    _fields = ("rs", "mask", "mults")

    def __init__(
        self, rs: RootSystem, mask: frozenset[int], mults: Mapping[Weight, int]
    ) -> None:
        self._set(rs, mask, mults)


def _dominant_for(rs: RootSystem, mask: Iterable[int] | None, lam: Weight) -> Subsystem:
    """The subsystem of mask, once lam is checked to be a weight dominant for it."""
    validate_weight(rs, lam)
    sub = subsystem(rs, mask)
    if not is_dominant(sub, lam):
        raise DominanceError(f"{lam} is not dominant for mask {sorted(sub.mask)}")
    return sub


def weyl_dim(rs: RootSystem, mask: Iterable[int] | None, lam: Weight) -> int:
    """Dimension of the irreducible with highest weight lam over the subsystem."""
    return _weyl_dim_cached(_dominant_for(rs, mask, lam), lam)


@lru_cache(maxsize=None)
def _weyl_dim_cached(sub: Subsystem, lam: Weight) -> int:
    dim = weyl_product(sub, lam)
    if dim <= 0:
        raise AssertionError("Weyl dimension must be a positive integer")
    return dim


def _freudenthal(sub: Subsystem, lam: Weight) -> dict[Weight, int]:
    # Doubled coordinates throughout, so every norm and pairing is an
    # integer, four times its true value.
    simple = sub.simple_int
    top = lam.num
    rho = sub.rho.num
    top_norm = _dot(_add(top, rho), _add(top, rho))

    # The dominant weights of V_lam, each with its |mu + rho|^2: a cover in
    # the dominance order on dominant weights differs by a positive root
    # (Stembridge, "The partial order of dominant weights", Adv. Math. 1998),
    # so the walk down from lam through dominant weights reaches them all.
    norm = {top: top_norm}
    walk = [top]
    for v in walk:
        for a in sub.positive_roots:
            u = tuple(map(operator.sub, v, a.num))
            if u not in norm and all(p >= 0 for p in _pairings(simple, u)):
                shifted = _add(u, rho)
                norm[u] = _dot(shifted, shifted)
                walk.append(u)

    # |mu + rho|^2 falls strictly along dominance, so in decreasing norm the
    # dominant form of every mu + k a (k >= 1) is done before mu.  A weight
    # string is unbroken (Humphreys, Introduction to Lie Algebras, 21.3), so
    # it ends at the first nu whose dominant form has no multiplicity yet.
    mult = {top: 1}
    for mu in sorted(norm, key=lambda w: (-norm[w], w))[1:]:
        acc = 0
        for a in sub.positive_roots:
            nu = _add(mu, a.num)
            while m := mult.get(_dominantize(simple, nu)):
                acc += m * _dot(nu, a.num)
                nu = _add(nu, a.num)
        denom = top_norm - norm[mu]
        if denom <= 0:
            raise AssertionError("Freudenthal denominator must be positive below lam")
        val, rest = divmod(2 * acc, denom)
        if rest or val <= 0:
            raise AssertionError("multiplicity must be a positive integer")
        mult[mu] = val

    # expand over Weyl orbits; multiplicity is orbit-constant
    full: dict[Weight, int] = {}
    for mu, m in mult.items():
        for w in _orbit(simple, mu):
            full[_make(w)] = m
    return full


def irrep_character(
    rs: RootSystem, mask: Iterable[int] | None, lam: Weight
) -> Character:
    """Weight multiplicities of the irreducible with highest weight lam."""
    sub = _dominant_for(rs, mask, lam)
    return Character(rs, sub.mask, dict(_character_cached(sub, lam)))


@lru_cache(maxsize=None)
def _character_cached(sub: Subsystem, lam: Weight) -> dict[Weight, int]:
    mults = _freudenthal(sub, lam)
    dim_check = _weyl_dim_cached(sub, lam)
    if sum(mults.values()) != dim_check:
        raise AssertionError(
            f"character of {lam} sums to {sum(mults.values())}, Weyl dim is {dim_check}"
        )
    return mults


def clear_character_cache() -> None:
    """Empty the in-memory memos of characters and Weyl dimensions."""
    _character_cached.cache_clear()
    _weyl_dim_cached.cache_clear()


def tensor_decompose(
    rs: RootSystem, mask: Iterable[int] | None, lam: Weight, mu: Weight
) -> list[tuple[Weight, int]]:
    """Decompose V_lam (x) V_mu into irreducibles over the subsystem.

    Brauer-Klimyk: with V_mu the factor of smaller dimension, each weight nu
    of V_mu with multiplicity m contributes (-1)^l m copies of V_dom, where
    (l, dom) dot-dominantizes lam + nu; singular weights contribute nothing
    (Humphreys, Introduction to Lie Algebras, section 24).  The result is
    sorted by coordinates, descending; dimension conservation is asserted.
    """
    sub = subsystem(rs, mask)
    dim_lam = weyl_dim(rs, sub.mask, lam)
    dim_mu = weyl_dim(rs, sub.mask, mu)
    if dim_mu > dim_lam:
        lam, mu = mu, lam
    counts: dict[Weight, int] = {}
    # lam + nu is a lattice weight: no validation needed
    for nu, m in irrep_character(rs, sub.mask, mu).mults.items():
        hit = _dot_action(sub, lam + nu)
        if hit is not None:
            length, dom = hit
            counts[dom] = counts.get(dom, 0) + (-m if length % 2 else m)

    out = sorted(
        ((w, c) for w, c in counts.items() if c),
        key=lambda p: p[0].sort_key,
        reverse=True,
    )
    if not all(c > 0 for _, c in out):
        raise AssertionError("Brauer-Klimyk left a negative multiplicity")
    total = sum(cnt * weyl_dim(rs, sub.mask, w) for w, cnt in out)
    if total != dim_lam * dim_mu:
        raise AssertionError("tensor decomposition must conserve dimension")
    return out


def dual_weight(rs: RootSystem, mask: Iterable[int] | None, lam: Weight) -> Weight:
    """Highest weight of the dual representation: -w0(lam) over the subsystem."""
    return plain_dominantize(_dominant_for(rs, mask, lam), -lam)
