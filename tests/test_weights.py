"""Weights held as integer numerators: semantics against Fraction coordinates.

A Weight keeps integer numerators over one canonical denominator.  These
tests pin what callers see: equal weights compare and hash equal however
they were made, coordinates read back as Fractions, non-lattice rationals
still work but validate_weight refuses them, sort_key orders weights as
their coordinates do, and every arithmetic operation agrees with the same
operation done coordinate by coordinate over the rationals.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from excol import (
    LatticeError,
    Weight,
    build_root_system,
    irrep_character,
    subsystem,
    validate_weight,
    weight,
)
from excol.cli import main

from helpers import random_weight


def test_equal_weights_compare_and_hash_equal_however_made():
    made = [
        weight(1, "1/2"),
        Weight((Fraction(1), Fraction(1, 2))),
        Weight((1, "1/2")),
        weight(3, 1) - weight(2, "1/2"),
        weight(2, 1).scale(Fraction(1, 2)) + weight(0, 0),
        weight(4, 2).scale(Fraction(1, 4)) + weight(0, Fraction(1, 4)).scale(2) - weight(0, "1/2"),
        -weight(-1, "-1/2"),
    ]
    for w in made:
        assert w == made[0] and hash(w) == hash(made[0])
    assert len(set(made)) == 1
    assert {made[0]: "x"}[made[-1]] == "x"
    assert weight(1, "1/2") != weight(1, "-1/2")
    assert weight(1, 0) != (1, 0)


def test_coords_are_fractions():
    for w in (weight(1, -2), weight("1/2", "-3/2"), Weight((Fraction(1, 4), 3))):
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


def test_weights_pickle_and_copy():
    for w in (weight(1, -2), weight("1/2", "-3/2"), Weight((Fraction(1, 4), 3))):
        for got in (pickle.loads(pickle.dumps(w)), copy.copy(w), copy.deepcopy(w)):
            assert got == w and hash(got) == hash(w)
            assert (got.num, got.den, got.coords) == (w.num, w.den, w.coords)
    # so do the objects that hold weights, onto the interned root systems
    rs = build_root_system("B", 2)
    sub = subsystem(rs, [2])
    char = irrep_character(rs, None, weight("1/2", "1/2"))
    assert pickle.loads(pickle.dumps(char)) == char
    assert pickle.loads(pickle.dumps(sub)) is sub
    assert copy.copy(sub) is sub and copy.deepcopy(rs) is rs


def test_quarter_integral_weight_constructs_and_validation_refuses_it():
    quarter = Weight((Fraction(1, 4), Fraction(-3, 4), Fraction(0)))
    assert quarter.coords == (Fraction(1, 4), Fraction(-3, 4), 0)
    assert quarter == weight("1/2", "-3/2", 0).scale(Fraction(1, 2))
    assert hash(quarter) == hash(weight("1/2", "-3/2", 0).scale(Fraction(1, 2)))
    assert quarter + quarter == weight("1/2", "-3/2", 0)
    assert str(quarter) == "(1/4, -3/4, 0)"
    for family in "BCD":
        with pytest.raises(
            LatticeError,
            match=r"^coordinates of \(1/4, -3/4, 0\) have denominators beyond 2$",
        ):
            validate_weight(build_root_system(family, 3), quarter)


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
    # non-lattice weights sort among them by the same key
    weights += [w.scale(Fraction(1, 3)) for w in weights[:50]]
    assert sorted(weights, key=lambda w: w.sort_key) == sorted(weights, key=lambda w: w.coords)


def _random_rational(rng):
    return Fraction(rng.randint(-12, 12), rng.choice([1, 1, 2, 2, 3, 4]))


def test_arithmetic_matches_fraction_coordinates(rng):
    for _ in range(500):
        dim = rng.randint(1, 5)
        x = tuple(_random_rational(rng) for _ in range(dim))
        y = tuple(_random_rational(rng) for _ in range(dim))
        k = _random_rational(rng)
        a, b = Weight(x), Weight(y)
        for got, want in [
            (a + b, tuple(p + q for p, q in zip(x, y))),
            (a - b, tuple(p - q for p, q in zip(x, y))),
            (-a, tuple(-p for p in x)),
            (a.scale(k), tuple(k * p for p in x)),
        ]:
            # equal to a fresh construction, so the stored form is canonical
            assert got.coords == want
            assert got == Weight(want) and hash(got) == hash(Weight(want))
        assert a.dot(b) == sum(p * q for p, q in zip(x, y))
        assert a.is_zero() == (not any(x))
        assert a.dim == dim
        assert str(a) == "(" + ", ".join(str(p) for p in x) + ")"
