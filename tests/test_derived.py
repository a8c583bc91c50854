"""Values derived once, against the bodies that derived them again, kept in
tests/helpers.py as oracles.

A parabolic space stores its Levi mask, Levi, nilradical roots and
dimension, and a bundle its rank, when it is made; they must equal the old
property bodies on every space of rank at most 4 over A-D, take no part in
==, hash or repr, and survive pickle and copy.  The chi table reads each
object once and indexes one list of shapes for both sides; its Gram must
equal the two-sided build's on the builders, reordered and mixed, and a
K-class Gram reads each object once.  graded_hom sums the dimensions its
cohomology answers carry, as the Weyl dimensions of graded_hom_detail did.  The builders, verify, and the bwb and
hom commands on integer literals run with excol's Fraction made to raise,
and a weight's text is its Fraction coordinates' text.
"""

import contextlib
import copy
import io
import itertools
import pickle
import re

import pytest

import excol
from excol import (
    BundleObject,
    CollectionSpec,
    KClass,
    ParabolicSpace,
    clear_character_cache,
    dump_collection,
    euler_pairing,
    graded_hom,
    gram_matrix,
    kclass_of,
    load_collection,
    mutate_pair_k,
    parabolic_space,
    weight,
    weyl_dim,
)
from excol import cli, homcalc
from excol.roots import _root_system_cached

from helpers import (
    detail_graded_hom,
    fraction_str,
    graded_hom_detail,
    property_dim,
    property_levi,
    property_levi_mask,
    property_nilradical_roots,
    random_levi_dominant,
    random_weight,
    two_sided_gram,
)

DERIVED = ("levi_mask", "levi", "nilradical_roots", "dim")
TRIPS = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def _all_spaces():
    """Every space of rank at most 4 over A-D, with every set of crossed nodes."""
    for family in "ABCD":
        for rank in range(2 if family == "D" else 1, 5):
            nodes = range(1, rank + 1)
            for k in nodes:
                for crossed in itertools.combinations(nodes, k):
                    yield parabolic_space(family, rank, crossed)


def test_spaces_hold_the_values_of_the_property_bodies():
    spaces = list(_all_spaces())
    assert len(spaces) == 3 * (1 + 3 + 7 + 15) + (3 + 7 + 15)
    assert not set(DERIVED) & set(vars(ParabolicSpace))
    for sp in spaces:
        assert sp.levi_mask == property_levi_mask(sp)
        assert sp.levi is property_levi(sp)
        assert sp.nilradical_roots == property_nilradical_roots(sp)
        assert sp.dim == property_dim(sp)
        # derived values are no fields
        twin = ParabolicSpace(sp.rs, frozenset(sp.crossed))
        assert twin == sp and hash(twin) == hash(sp) == hash((sp.rs, sp.crossed))
        assert repr(sp) == f"ParabolicSpace(rs={sp.rs!r}, crossed={sp.crossed!r})"


@pytest.mark.parametrize("trip", sorted(TRIPS))
def test_derived_values_survive_pickle_and_copy(trip, rng):
    trip = TRIPS[trip]
    for sp in _all_spaces():
        got = trip(sp)
        assert got == sp and hash(got) == hash(sp) and repr(got) == repr(sp)
        assert got.levi is sp.levi  # the interned subsystem
        assert [getattr(got, a) for a in DERIVED] == [getattr(sp, a) for a in DERIVED]
        bundle = BundleObject(sp, random_levi_dominant(rng, sp, span=2, half=True),
                              rng.randint(-1, 1))
        back = trip(bundle)
        assert back == bundle and back.rank == bundle.rank
        assert back.space.levi is sp.levi


def test_bundle_rank_is_the_weyl_dimension_over_the_levi(rng):
    assert "rank" not in vars(BundleObject)
    for sp in _all_spaces():
        for _ in range(3):
            bundle = BundleObject(sp, random_levi_dominant(rng, sp, span=3, half=True))
            assert bundle.rank == vars(bundle)["rank"]
            assert bundle.rank == weyl_dim(sp.rs, sp.levi_mask, bundle.hw)


@pytest.mark.parametrize("name", ["A3:P1", "A4:P1", "B3:P1", "C3:P2", "D4:P1", "D4:P2"])
def test_graded_hom_sums_the_dimensions_the_answers_carry(name, rng):
    space = excol.space_from_string(name)
    bundles = [BundleObject(space, random_levi_dominant(rng, space, span=2, half=True),
                            rng.randint(-1, 1)) for _ in range(8)]
    mults = []
    for src, dst in itertools.product(bundles, repeat=2):
        assert graded_hom(src, dst) == detail_graded_hom(src, dst)
        mults += [[m for _, m in ps] for ps in graded_hom_detail(src, dst).values()]
    # some degree sums several pieces, and on the larger Levis a piece repeats
    assert any(len(ms) > 1 for ms in mults)
    assert name not in ("A4:P1", "D4:P1") or any(max(ms) > 1 for ms in mults)


GRAM_BUILDERS = (
    [f"beilinson:{n}" for n in range(1, 7)]
    + [f"quadric:{n}" for n in range(2, 10)]
    + ["igr26"]
    + [f"symplectic:{n}" for n in range(1, 5)]
    + [f"orthogonal:{n}" for n in range(2, 5)]
)


def _mixed(objs, rng):
    """objs with about half of them K-classes, the others bundles, some of
    them shifted and on an equal space that is not the same object."""
    space = objs[0].space
    twin = ParabolicSpace(space.rs, space.crossed)
    out = []
    for o in objs:
        if isinstance(o, KClass):
            # a K-class's first term, as a line bundle on the full flag
            w = o.terms[0][0]
            o = o if rng.random() < 0.5 else BundleObject(twin, w, rng.randint(-1, 2))
        elif rng.random() < 0.5:
            o = kclass_of(o)
        else:
            o = BundleObject(twin, o.hw, rng.randint(-1, 2))
        out.append(o)
    return out


@pytest.mark.parametrize("name", GRAM_BUILDERS)
def test_gram_matches_the_two_sided_build(name, rng):
    coll = cli._builder_by_name(name)
    objs = list(coll.objects)
    shuffled = rng.sample(objs, len(objs))
    mixed = _mixed(objs, rng)
    loaded = load_collection(dump_collection(
        CollectionSpec(coll.space, tuple(mixed), "kclasses", coll.labels, "mixed")
    )).objects
    for order in (objs, objs[::-1], shuffled, mixed, loaded):
        assert gram_matrix(order) == two_sided_gram(order)
    for left, right in ((objs[::2], objs), (mixed, shuffled)):
        assert homcalc._ChiTable(left, right).gram() == two_sided_gram(left, right)
    if coll.mode == "bundles" and len(objs) <= 20:  # graded_hom sums each piece's dim
        assert gram_matrix(objs, method="ext") == two_sided_gram(objs)


def test_pairings_match_the_two_sided_build(rng):
    for name in ("beilinson:4", "quadric:5", "quadric:6", "igr26", "symplectic:3",
                 "orthogonal:3"):
        objs = cli._builder_by_name(name).objects
        for _ in range(25):
            x = rng.choice(objs)
            y = x if rng.random() < 0.2 else rng.choice(objs)
            assert euler_pairing(x, y) == two_sided_gram([x], [y])[0][0]
            kx, ky = homcalc._as_kclass(x), homcalc._as_kclass(y)
            if kx.terms == ky.terms:
                continue
            chi = two_sided_gram([kx], [ky])[0][0]
            assert mutate_pair_k(kx, ky, "left") == (kx.scale(chi).sub(ky), kx)
            assert mutate_pair_k(kx, ky, "right") == (ky, ky.scale(chi).sub(kx))


@pytest.mark.parametrize(
    "name", ["orthogonal:2", "orthogonal:3", "symplectic:3", "beilinson:4", "quadric:7",
             "igr26"],
)
def test_a_gram_reads_each_object_once(monkeypatch, name):
    objs = cli._builder_by_name(name).objects
    reads = []
    terms = homcalc._terms
    monkeypatch.setattr(homcalc, "_terms", lambda o, head: reads.append(o) or terms(o, head))
    gram_matrix(objs)
    # a bundle of higher rank is read twice: whole on the left, its head on the right
    twice = [o for o in objs if isinstance(o, BundleObject) and o.rank != 1]
    assert sorted(map(id, reads)) == sorted(map(id, [*objs, *twice]))
    if isinstance(objs[0], KClass):
        assert len(reads) == len(objs)


def _no_fraction(*args):
    raise AssertionError(f"Fraction{args} on an integer path")


BUILDERS_TO_4 = (
    [f"beilinson:{n}" for n in range(1, 5)]
    + [f"quadric:{n}" for n in range(2, 5)]
    + [f"symplectic:{n}" for n in range(1, 5)]
    + [f"orthogonal:{n}" for n in range(2, 5)]
    + ["igr26"]
)
QUERIES = [
    ["bwb", "--space=C3:P2", "--weight=1,0,0"],
    ["bwb", "--space=B3:P1", "--weight=(-2,0,0)"],
    ["bwb", "--space=D4:P1", "--weight=Sigma+(-3)"],
    ["bwb", "--space=B2:P1", "--weight=Sigma(2)"],
    ["bwb", "--space=C2:P1,2", "--weight=p*O(-2)"],
    ["hom", "--space=C3:P2", "--from=(0,0,0)", "--to=(1,1,0)"],
    ["hom", "--space=C3:P2", "--from=U*(1)", "--to=U(-4)"],
    ["hom", "--space=B3:P1", "--from=Sigma(-1)", "--to=O(2)"],
    ["hom", "--space=A3:P2", "--from=S^2U(-1)", "--to=O(1)"],
    ["hom", "--space=A8:P4", "--from=S^12U", "--to=S^12U(-1)"],
    ["push", "--space=C3:P1,2", "--base=C3:P2", "--bundle=(-1,0,0)"],
    ["canonical", "--space=C3:P1,3"],
]


def _run(argv):
    """Exit code and output of the command, its wall time zeroed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    text = re.sub(r'"wall_time": [^,}]+', '"wall_time": 0', out.getvalue())
    return code, re.sub(r"wall time: .*", "wall time: 0", text)


@pytest.mark.parametrize("name", BUILDERS_TO_4)
def test_builders_and_verify_run_without_fraction(monkeypatch, name):
    modes = ["chi_only"] if name.startswith("orthogonal") else ["exact", "chi_only"]
    argvs = [["verify", f"--builder={name}", f"--mode={m}", *j]
             for m in modes for j in ([], ["--json"])]
    expected = [_run(argv) for argv in argvs]
    clear_character_cache()
    monkeypatch.setattr(excol.roots, "Fraction", _no_fraction)
    for argv, (code, text) in zip(argvs, expected):
        assert code == 0
        assert _run(argv) == (code, text)


def test_queries_on_integer_literals_run_without_fraction(monkeypatch):
    for argv in QUERIES:
        for fmt in ([], ["--json"]):
            expected = _run(argv + fmt)
            assert expected[0] == 0, argv
            clear_character_cache()
            monkeypatch.setattr(excol.roots, "Fraction", _no_fraction)
            assert _run(argv + fmt) == expected
            monkeypatch.undo()


@pytest.mark.parametrize("family", "ABCD")
def test_root_systems_build_without_fraction(monkeypatch, family):
    monkeypatch.setattr(excol.roots, "Fraction", _no_fraction)
    for rank in range(2, 6):
        fresh = _root_system_cached.__wrapped__(family, rank)
        interned = _root_system_cached(family, rank)
        for f in interned._fields:
            assert getattr(fresh, f) == getattr(interned, f)


def test_weight_text_is_its_fraction_coordinates_text(rng):
    seen = set()
    for family, rank in (("A", 3), ("B", 3), ("C", 2), ("D", 4)):
        rs = excol.build_root_system(family, rank)
        for _ in range(200):
            w = random_weight(rng, rs, span=5, half=family in "BD" and rng.random() < 0.5)
            assert str(w) == fraction_str(w)
            seen.update("half" if x % 2 else "negative" if x < 0 else "zero" if x == 0
                        else "positive" for x in w.num)
    assert seen == {"half", "negative", "zero", "positive"}
    for w in (weight(0), weight(-1, 2), weight("-1/2", "1/2", "-7/2"), weight(*[0] * 5)):
        assert str(w) == fraction_str(w)
