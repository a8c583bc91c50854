"""excol's immutable records against the frozen dataclasses they replaced.

tests/helpers.py keeps the eleven old declarations.  Each seeded instance of
a record gets an old twin built from the same field values, and the two must
agree on the constructor's signature, repr, ==, the hash value, the
AttributeError of an assignment or a deletion, and pickle, copy and deepcopy
round trips, where the interned root systems and subsystems come back as
the same object.
"""

import copy
import dataclasses
import inspect
import itertools
import pickle
import random

import pytest

import excol
import helpers
from excol import (
    BundleObject,
    CollectionSpec,
    build_beilinson,
    build_orthogonal_flag,
    build_quadric,
    build_symplectic_flag,
    cohomology,
    irrep_character,
    kclass_of,
    space_from_string,
    verify,
)
from excol.collections import PairResult

from helpers import random_levi_dominant

NAMES = [
    "Weight", "RootSystem", "Subsystem", "Character", "ParabolicSpace", "BundleObject",
    "CohomologyAnswer", "KClass", "CollectionSpec", "PairResult", "VerificationReport",
]
INTERNED = {"RootSystem", "Subsystem"}
SPACES = ["A3:P1", "A3:P2", "B3:P1", "B2:P2", "C3:P2", "C3:P1,3", "D4:P1", "D4:P3,4"]
TRIPS = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def _reversed(coll):
    return CollectionSpec(coll.space, coll.objects[::-1], coll.mode, coll.labels[::-1],
                          "reversed " + coll.provenance)


def _records(seed):
    """Records of every class, drawn from seed: equal seeds give equal records."""
    rng = random.Random(seed)
    spaces = [space_from_string(rng.choice(SPACES)) for _ in range(6)]
    bundles = [
        BundleObject(sp, random_levi_dominant(rng, sp, span=2, half=True), rng.randint(-1, 1))
        for sp in spaces
        for _ in range(2)
    ]
    colls = [build_beilinson(2), build_quadric(3), build_symplectic_flag(2),
             build_orthogonal_flag(2)]
    colls.append(_reversed(colls[rng.randrange(4)]))
    return {
        "Weight": [b.hw for b in bundles],
        "RootSystem": [sp.rs for sp in spaces],
        "Subsystem": [sp.levi for sp in spaces],
        "Character": [irrep_character(b.space.rs, b.space.levi_mask, b.hw) for b in bundles],
        "ParabolicSpace": spaces,
        "BundleObject": bundles,
        "CohomologyAnswer": [cohomology(b.space, b.hw) for b in bundles],
        "KClass": [kclass_of(b) for b in bundles],
        "CollectionSpec": colls,
        "PairResult": [
            PairResult(rng.randrange(3), rng.randrange(3), rng.random() < 0.5,
                       rng.choice(["0", "chi = 2"]), rng.random() < 0.5)
            for _ in range(8)
        ],
        "VerificationReport": [
            verify(c, "exact" if c.mode == "bundles" else "chi_only") for c in colls
        ],
    }


def _classes(name):
    new = PairResult if name == "PairResult" else getattr(excol, name)
    return new, getattr(helpers, name)


def _build(cls, x):
    """An instance of cls with the fields of the record x."""
    if x.__class__.__name__ == "Weight":
        return cls(x.coords)
    return cls(*(getattr(x, f) for f in x.__match_args__))


def _pairs(name, seed):
    """Twice the seeded records of the class, each with its old twin; one
    record always gets the same twin, as an interned system got itself."""
    twins = {}

    def twin(x):
        if id(x) not in twins:
            twins[id(x)] = _build(_classes(name)[1], x)
        return twins[id(x)]

    news = _records(seed)[name] + _records(seed)[name]
    return [(x, twin(x)) for x in news]


def _signature(cls):
    # a dataclass's __init__ returns the object None, a written one, under
    # postponed annotations, the string 'None'
    sig = inspect.signature(cls)
    return sig.replace(return_annotation=str(sig.return_annotation))


def _hash(x):
    if type(x).__hash__ is object.__hash__:
        return "by identity"
    try:
        return hash(x)
    except TypeError as exc:
        return f"TypeError: {exc}"


def _error(action, *args):
    with pytest.raises(AttributeError) as info:
        action(*args)
    return str(info.value)


@pytest.mark.parametrize("name", NAMES)
def test_records_keep_the_dataclass_signature(name):
    new, old = _classes(name)
    assert _signature(new) == _signature(old)
    assert new.__match_args__ == old.__match_args__
    assert not dataclasses.is_dataclass(new)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", NAMES)
def test_records_repr_compare_and_hash_as_their_dataclasses(name, seed):
    pairs = _pairs(name, seed)
    for x, o in pairs:
        assert repr(x) == repr(o)
        assert _hash(x) == _hash(o)
        assert x.__eq__(o) is NotImplemented and x != o
    for (x, o), (y, p) in itertools.product(pairs, repeat=2):
        assert (x == y) is (o == p) and (x != y) is (o != p)
    # a record of a subclass equals none of its base, whatever its fields
    x, o = pairs[0]
    assert _build(type(name, (type(x),), {}), x) != x
    assert _build(type(name, (type(o),), {}), o) != o
    # the draws repeat, so some records are equal without being the same
    if name not in INTERNED | {"VerificationReport"}:
        assert any(x == y and x is not y for (x, _), (y, _) in itertools.combinations(pairs, 2))


@pytest.mark.parametrize("name", NAMES)
def test_records_refuse_assignment_and_deletion_as_their_dataclasses(name):
    for x, o in _pairs(name, 3)[:4]:
        before = dict(vars(x))
        for attr in (type(o).__match_args__[0], "extra"):
            assert _error(setattr, x, attr, 0) == _error(setattr, o, attr, 0)
            assert _error(delattr, x, attr) == _error(delattr, o, attr)
        assert vars(x) == before


@pytest.mark.parametrize("trip", sorted(TRIPS))
@pytest.mark.parametrize("name", NAMES)
def test_records_round_trip_as_their_dataclasses(name, trip):
    trip = TRIPS[trip]
    for x, o in _pairs(name, 4):
        y, p = trip(x), trip(o)
        if name in INTERNED:
            assert y is x and p is x
            continue
        assert type(y) is type(x) and type(p) is type(o)
        assert (y == x) is (p == o)
        assert vars(y).keys() == vars(x).keys()
        if name != "VerificationReport":  # its failures compare by identity
            assert y == x and repr(y) == repr(x) and _hash(y) == _hash(x)
    # a record holding a root system holds the interned one after any trip
    bundle = _records(5)["BundleObject"][0]
    assert trip(bundle).space.rs is bundle.space.rs
