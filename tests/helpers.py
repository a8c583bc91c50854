"""Shared randomized-input helpers for the test suite.

Weights are drawn by rejection sampling so that every property test runs
on honestly random Levi-dominant inputs instead of a handpicked list.  The
oracles at the end are the searches the library replaced with closed forms.
"""

from fractions import Fraction

from excol import (
    Weight,
    bundle_weight,
    irrep_character,
    is_dominant,
    make_dominant_dot,
    subsystem,
    weyl_orbit,
    weyl_order,
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
    return Weight(coords)


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
        coeffs = sub.coefficients(hi - lo)
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
            candidates = [Weight((c,))]
        else:
            candidates = [Weight(tuple([c] + [half] * (n - 2) + [last])) for last in lasts]
        if all(
            make_dominant_dot(rs, None, lam + hyper.scale(-t)) is None
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
