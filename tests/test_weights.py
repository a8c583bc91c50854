"""Weights held as doubled integer coordinates: semantics against Fractions.

A Weight keeps twice its coordinates, which are integers on (1/2)Z.  These
tests pin what callers see: equal weights compare and hash equal however
they were made, coordinates read back as Fractions, coordinates outside
(1/2)Z are refused with one message however they arise, sort_key orders
weights as their coordinates do, and every arithmetic operation agrees with
the same operation done coordinate by coordinate over the rationals.
"""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from excol import (
    LatticeError,
    Weight,
    build_root_system,
    irrep_character,
    subsystem,
    weight,
)
from excol.cli import main

from helpers import dot, is_zero, random_weight, scale


def _random_half_integers(rng, dim):
    """Random coordinates in (1/2)Z, of mixed parity: not always lattice weights."""
    return tuple(Fraction(rng.randint(-12, 12), 2) for _ in range(dim))


def test_equal_weights_compare_and_hash_equal_however_made(rng):
    made = [
        weight(1, "1/2"),
        Weight((Fraction(1), Fraction(1, 2))),
        Weight((1, "1/2")),
        weight(3, 1) - weight(2, "1/2"),
        scale(weight(2, 1), Fraction(1, 2)) + weight(0, 0),
        scale(scale(weight(4, 2), Fraction(1, 2)), 2) - weight(3, "3/2"),
        -weight(-1, "-1/2"),
    ]
    for w in made:
        assert w == made[0] and hash(w) == hash(made[0])
    assert len(set(made)) == 1
    assert {made[0]: "x"}[made[-1]] == "x"
    assert weight(1, "1/2") != weight(1, "-1/2")
    assert weight(1, 0) != (1, 0)
    for _ in range(300):
        x = _random_half_integers(rng, rng.randint(1, 5))
        made = [
            Weight(x),
            weight(*map(str, x)),
            scale(Weight(2 * c for c in x), Fraction(1, 2)),
            Weight(x) + Weight(x) - Weight(x),
        ]
        assert len(set(made)) == 1 and len({hash(w) for w in made}) == 1


def test_int_coordinates_make_the_same_weight_as_every_other_kind(rng):
    """Plain ints are doubled without Fraction; bool, float, str, Fraction and
    int subclasses take the Fraction path, with the same weight."""
    subclass = type("Int", (int,), {})
    for _ in range(200):
        ints = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
        kinds = [
            ints, tuple(ints), iter(ints), (c for c in ints),
            [Fraction(c) for c in ints], [str(c) for c in ints], [float(c) for c in ints],
            [*ints[:1], *map(Fraction, ints[1:])], list(map(subclass, ints)),
        ]
        made = [Weight(k) for k in kinds]
        assert {w.num for w in made} == {tuple(2 * c for c in ints)}
        assert all(type(x) is int for w in made for x in w.num)
        assert len(set(made)) == 1 and len({hash(w) for w in made}) == 1
    big = 10**30
    assert Weight([big, -big]) == Weight([str(big), Fraction(-big)])
    assert Weight([big, -big]).num == (2 * big, -2 * big)
    assert Weight([True, False]) == Weight([1, 0]) and Weight((True,)).num == (2,)
    assert Weight([1, Fraction(1, 2)]).num == (2, 1)


@pytest.mark.parametrize(
    "coords,error,message",
    [
        ([1, 0.25], LatticeError, "coordinates of (1, 1/4) have denominators beyond 2"),
        ([1, "1/3"], LatticeError, "coordinates of (1, 1/3) have denominators beyond 2"),
        ([True, Fraction(1, 6)], LatticeError,
         "coordinates of (1, 1/6) have denominators beyond 2"),
        ([1, "x"], ValueError, "Invalid literal for Fraction: 'x'"),
    ],
)
def test_mixed_coordinates_keep_their_errors(coords, error, message):
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        Weight(coords)


def test_coords_are_fractions():
    for w in (weight(1, -2), weight("1/2", "-3/2"), Weight((Fraction(3, 2), 3))):
        assert all(type(c) is Fraction for c in w.coords)
    assert weight(2, "1/2").coords == (Fraction(2), Fraction(1, 2))
    assert weight("4/2", 0).coords == (2, 0)


def test_weights_are_immutable():
    w = weight(1, 2)
    with pytest.raises(AttributeError):
        w.num = (0, 0)
    with pytest.raises(AttributeError):
        w.coords = (0, 0)
    with pytest.raises(AttributeError):
        del w.num
    assert w == weight(1, 2)


def test_weight_holds_doubled_coordinates_only():
    w = weight(1, "-1/2", 0)
    assert list(vars(w)) == ["num"]
    assert w.num == (2, -1, 0)


def test_weights_pickle_and_copy(rng):
    weights = [weight(1, -2), weight("1/2", "-3/2")]
    weights += [Weight(_random_half_integers(rng, rng.randint(1, 5))) for _ in range(50)]
    for w in weights:
        for got in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
            assert got == w and hash(got) == hash(w)
            assert (got.num, got.coords) == (w.num, w.coords)
    # so do the objects that hold weights, onto the interned root systems
    rs = build_root_system("B", 2)
    sub = subsystem(rs, [2])
    char = irrep_character(rs, None, weight("1/2", "1/2"))
    assert pickle.loads(pickle.dumps(char)) == char
    assert pickle.loads(pickle.dumps(sub)) is sub
    assert copy.copy(sub) is sub and copy.deepcopy(rs) is rs


@pytest.mark.parametrize(
    "make,shown",
    [
        (lambda: Weight((Fraction(1, 3), 0, 0)), "(1/3, 0, 0)"),
        (lambda: weight("1/3", 0, 0), "(1/3, 0, 0)"),
        (lambda: scale(weight(1, 0, 0), Fraction(1, 3)), "(1/3, 0, 0)"),
        (lambda: Weight((Fraction(1, 4), "-3/4", 0)), "(1/4, -3/4, 0)"),
        (lambda: weight("1/4", "-3/4", 0), "(1/4, -3/4, 0)"),
        (lambda: scale(weight(1, 0, 0), Fraction(1, 4)), "(1/4, 0, 0)"),
        # half of a half-integral weight has quarters
        (lambda: scale(weight("1/2", "-3/2", 0), Fraction(1, 2)), "(1/4, -3/4, 0)"),
    ],
    ids=["Weight-third", "weight-third", "scale-third", "Weight-quarter",
         "weight-quarter", "scale-quarter", "scale-half-of-half"],
)
def test_coordinates_outside_half_integers_are_refused(make, shown):
    message = f"coordinates of {shown} have denominators beyond 2"
    with pytest.raises(LatticeError, match="^" + re.escape(message) + "$"):
        make()


def test_cli_refuses_a_third_with_one_error_line(capsys):
    assert main(["bwb", "--space=C3:P2", "--weight=1/3,0,0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: coordinates of (1/3, 0, 0) have denominators beyond 2\n"


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_sort_key_orders_like_coords(family, rank, rng):
    rs = build_root_system(family, rank)
    half = family in ("B", "D")
    weights = [random_weight(rng, rs, 3, half and k % 2) for k in range(1000)]
    assert sorted(weights, key=lambda w: w.sort_key) == sorted(weights, key=lambda w: w.coords)
    # (1/2)Z vectors of mixed parity sort among them by the same key
    weights += [Weight(_random_half_integers(rng, rs.dim)) for _ in range(200)]
    assert sorted(weights, key=lambda w: w.sort_key) == sorted(weights, key=lambda w: w.coords)


def test_arithmetic_matches_fraction_coordinates(rng):
    for _ in range(500):
        dim = rng.randint(1, 5)
        x = _random_half_integers(rng, dim)
        y = _random_half_integers(rng, dim)
        k = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
        a, b = Weight(x), Weight(y)
        scaled = tuple(k * p for p in x)
        cases = [
            (a + b, tuple(p + q for p, q in zip(x, y))),
            (a - b, tuple(p - q for p, q in zip(x, y))),
            (-a, tuple(-p for p in x)),
        ]
        if all(c.denominator <= 2 for c in scaled):
            cases.append((scale(a, k), scaled))
        else:
            with pytest.raises(LatticeError, match="have denominators beyond 2$"):
                scale(a, k)
        for got, want in cases:
            # equal to a fresh construction, so the stored form is canonical
            assert got.coords == want
            assert got == Weight(want) and hash(got) == hash(Weight(want))
        assert dot(a, b) == sum(p * q for p, q in zip(x, y))
        assert is_zero(a) == (not any(x))
        assert a.dim == dim
        assert str(a) == "(" + ", ".join(str(p) for p in x) + ")"
