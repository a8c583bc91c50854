"""Exact representation-theoretic arithmetic over Levi subsystems.

Characters are finite multiplicity maps weight -> positive integer.  The
irreducible character is computed by Freudenthal's recursion over the
subsystem, dimensions by the Weyl product formula, tensor products by the
Brauer-Klimyk (Racah-Speiser) formula.

Irreducible characters are memoised in memory, per process, and only after
their total has matched the Weyl dimension; results never depend on the
memo, and clear_character_cache() empties it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .roots import (
    DominanceError,
    RootSystem,
    Subsystem,
    Weight,
    is_dominant,
    make_dominant_dot,
    plain_dominantize,
    subsystem,
    validate_weight,
    weyl_orbit,
)

__all__ = [
    "Character",
    "weyl_dim",
    "irrep_character",
    "tensor_decompose",
    "dual_weight",
    "clear_character_cache",
]


@dataclass(frozen=True)
class Character:
    """Multiplicity map of a (virtual) finite-dimensional Levi representation."""

    rs: RootSystem
    mask: frozenset[int]
    mults: Mapping[Weight, int]

    def total_dim(self) -> int:
        return sum(self.mults.values())


def weyl_dim(rs: RootSystem, mask: Iterable[int] | None, lam: Weight) -> int:
    """Dimension of the irreducible with highest weight lam over the subsystem."""
    validate_weight(rs, lam)
    sub = subsystem(rs, mask)
    if not is_dominant(sub, lam):
        raise DominanceError(f"{lam} is not dominant for mask {sorted(sub.mask)}")
    num = Fraction(1)
    shifted = lam + sub.rho
    for a in sub.positive_roots:
        num *= shifted.dot(a) / sub.rho.dot(a)
    assert num.denominator == 1 and num > 0, "Weyl dimension must be a positive integer"
    return int(num)


def _freudenthal(sub: Subsystem, lam: Weight) -> dict[Weight, int]:
    if not sub.positive_roots:
        return {lam: 1}

    lam_norm = lam.dot(lam)
    rho = sub.rho
    top = lam + rho
    top_norm = top.dot(top)

    # BFS through lam minus nonnegative combinations of subsystem simple
    # roots, pruned by the orbit norm bound |nu| <= |lam|.  Layer index is
    # the height of lam - nu, so dominant weights come out height-ordered.
    layers: list[list[Weight]] = [[lam]]
    seen = {lam}
    while layers[-1]:
        nxt: list[Weight] = []
        for v in layers[-1]:
            for a in sub.simple_roots:
                u = v - a
                if u not in seen and u.dot(u) <= lam_norm:
                    seen.add(u)
                    nxt.append(u)
        layers.append(nxt)
    dominant_by_height = [
        w for layer in layers for w in sorted(layer, key=lambda x: x.coords)
        if is_dominant(sub, w)
    ]

    mult: dict[Weight, int] = {lam: 1}
    for mu in dominant_by_height:
        if mu == lam:
            continue
        acc = Fraction(0)
        for a in sub.positive_roots:
            k = 1
            while True:
                nu = mu + a.scale(k)
                if nu.dot(nu) > lam_norm:
                    break
                m = mult.get(plain_dominantize(sub, nu), 0)
                if m:
                    acc += m * nu.dot(a)
                k += 1
        shifted = mu + rho
        denom = top_norm - shifted.dot(shifted)
        assert denom > 0, "Freudenthal denominator must be positive below lam"
        val = 2 * acc / denom
        assert val.denominator == 1 and val > 0, "multiplicity must be a positive integer"
        mult[mu] = int(val)

    # expand over Weyl orbits; multiplicity is orbit-constant
    full: dict[Weight, int] = {}
    for mu, m in mult.items():
        for w in weyl_orbit(sub, mu):
            full[w] = m
    return full


def irrep_character(
    rs: RootSystem, mask: Iterable[int] | None, lam: Weight
) -> Character:
    """Weight multiplicities of the irreducible with highest weight lam."""
    validate_weight(rs, lam)
    sub = subsystem(rs, mask)
    if not is_dominant(sub, lam):
        raise DominanceError(f"{lam} is not dominant for mask {sorted(sub.mask)}")
    return Character(rs, sub.mask, dict(_character_cached(sub, lam)))


@lru_cache(maxsize=None)
def _character_cached(sub: Subsystem, lam: Weight) -> dict[Weight, int]:
    mults = _freudenthal(sub, lam)
    dim_check = weyl_dim(sub.rs, sub.mask, lam)
    assert sum(mults.values()) == dim_check, (
        f"character of {lam} sums to {sum(mults.values())}, Weyl dim is {dim_check}"
    )
    return mults


def clear_character_cache() -> None:
    """Empty the in-memory memo of irreducible characters."""
    _character_cached.cache_clear()


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
    for nu, m in irrep_character(rs, sub.mask, mu).mults.items():
        hit = make_dominant_dot(rs, sub.mask, lam + nu)
        if hit is not None:
            length, dom = hit
            counts[dom] = counts.get(dom, 0) + (-m if length % 2 else m)

    out = sorted(
        ((w, c) for w, c in counts.items() if c),
        key=lambda p: p[0].coords,
        reverse=True,
    )
    assert all(c > 0 for _, c in out), "Brauer-Klimyk left a negative multiplicity"
    total = sum(cnt * weyl_dim(rs, sub.mask, w) for w, cnt in out)
    assert total == dim_lam * dim_mu, "tensor decomposition must conserve dimension"
    return out


def dual_weight(rs: RootSystem, mask: Iterable[int] | None, lam: Weight) -> Weight:
    """Highest weight of the dual representation: -w0(lam) over the subsystem."""
    sub = subsystem(rs, mask)
    if not is_dominant(sub, lam):
        raise DominanceError(f"{lam} is not dominant for mask {sorted(sub.mask)}")
    return plain_dominantize(sub, -lam)
