"""Builders for the standard collections and the verification battery.

Each builder emits an ordered CollectionSpec; verify() runs every
desk-checkable necessary condition: exceptionality of each object,
vanishing of all backward graded Homs (or backward Euler pairings in
chi_only mode), length against the Schubert cell count, unimodularity of
the Gram matrix, and the helix thread criterion.  chi_only mode reads its
triangle off the Gram matrix, and so does exact mode for each pair with a
line bundle on either side; the thread verdict follows from the Gram's
triangularity and the period bound.  The report keeps only the failing entries, and never claims
completeness, only that every necessary condition passed.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import operator
import time
from typing import Iterable, Iterator, Sequence

from .roots import (
    MAX_ORTHOGONAL_RANK,
    MAX_SYMPLECTIC_RANK,
    ExcolError,
    ParseError,
    Weight,
    _Record,
    _make,
    _weight_json,
    validate_weight,
)
from .characters import dual_weight
from .bwb import (
    BundleObject,
    ParabolicSpace,
    bundle_weight,
    cohomology,
    format_graded,
    graded_hom,
    parabolic_space,
)
from .homcalc import (
    KClass,
    _as_kclass,
    _det_exact,
    _lower_rows,
    _thread_trace,
    gram_matrix,
)

__all__ = [
    "CollectionSpec",
    "VerificationReport",
    "build_beilinson",
    "build_quadric",
    "build_symplectic_flag",
    "build_orthogonal_flag",
    "build_igr26",
    "verify",
    "dump_collection",
    "load_collection",
]


class CollectionSpec(_Record):
    """Ordered candidate collection on one space."""

    _fields = ("space", "objects", "mode", "labels", "provenance")

    def __init__(
        self, space: ParabolicSpace, objects: tuple, mode: str, labels: tuple[str, ...],
        provenance: str,
    ) -> None:
        if not objects:
            raise ExcolError("a collection must contain at least one object")
        if mode not in ("bundles", "kclasses"):
            raise ExcolError(f"unknown collection mode {mode!r}")
        if len(labels) != len(objects):
            raise ExcolError("labels and objects must have equal length")
        for obj in objects:
            if obj.space != space:
                raise ExcolError("all objects must live on the collection's space")
            if mode == "bundles" and not isinstance(obj, BundleObject):
                raise ExcolError(f"bundle mode cannot hold a {type(obj).__name__}")
        self._set(space, objects, mode, labels, provenance)

    def __len__(self) -> int:
        return len(self.objects)


def _bundle(space: ParabolicSpace, name: str) -> BundleObject:
    return BundleObject(space, bundle_weight(space, name))


def build_beilinson(n: int) -> CollectionSpec:
    """(O, O(1), ..., O(n)) on projective n-space."""
    if n < 1:
        raise ExcolError("projective space needs n >= 1")
    space = parabolic_space("A", n, [1])
    names = ["O" if t == 0 else f"O({t})" for t in range(n + 1)]
    objects = tuple(_bundle(space, nm) for nm in names)
    return CollectionSpec(space, objects, "bundles", tuple(names), f"beilinson:{n}")


def build_quadric(n: int) -> CollectionSpec:
    """Spinor bundles plus twists of O on the n-dimensional quadric."""
    if n < 2:
        raise ExcolError("quadrics need n >= 2")
    if n % 2:
        space = parabolic_space("B", (n + 1) // 2, [1])
        names = [f"Sigma(-{n})"]
    elif n == 2:
        space = parabolic_space("D", 2, [1, 2])
        names = [f"Sigma+(-{n})", f"Sigma-(-{n})"]
    else:
        space = parabolic_space("D", (n + 2) // 2, [1])
        names = [f"Sigma+(-{n})", f"Sigma-(-{n})"]
    names += [f"O({t})" for t in range(-n + 1, 0)] + ["O"]
    objects = tuple(_bundle(space, nm) for nm in names)
    return CollectionSpec(space, objects, "bundles", tuple(names), f"quadric:{n}")


def build_symplectic_flag(n: int) -> CollectionSpec:
    """All 2^n n! line bundles on the complete symplectic flag variety.

    The object indexed (j_{n-1}, ..., j_0), with j_k ranging over
    {-2n+2k+1, ..., 0}, has weight (j_0, ..., j_{n-1}); the order is
    lexicographic with the top index slowest and each range ascending.
    """
    if n < 1:
        raise ExcolError("symplectic flags need n >= 1")
    if n > MAX_SYMPLECTIC_RANK:  # 2^n n! objects
        raise ExcolError(f"symplectic:{n} exceeds the limit n = {MAX_SYMPLECTIC_RANK}")
    space = parabolic_space("C", n, range(1, n + 1))
    ranges = [list(range(-2 * n + 2 * k + 1, 1)) for k in range(n)]
    objects = []
    names = []
    for tup in itertools.product(*reversed(ranges)):
        js = tuple(reversed(tup))  # js[k] = j_k
        w = Weight(js)
        objects.append(BundleObject(space, w))
        names.append("O(" + ",".join(str(j) for j in tup) + ")")
    return CollectionSpec(
        space, tuple(objects), "bundles", tuple(names), f"symplectic:{n}"
    )


def _orthogonal_level_choices(n: int, m: int) -> list[tuple[str, dict]]:
    """Per-level menu for the odd orthogonal flag tower, spinor first; each
    class maps its line weights' doubled coordinates to their coefficients."""
    d = 2 * n - 2 * m - 1
    signs = itertools.product((1, -1), repeat=n - m - 1)
    out = [(f"Sig{m}", {(-1,) * m + (1 - 2 * d, *s): 1 for s in signs})]
    for j in range(-(d - 1), 1):
        label = "" if j == 0 else (f"O_Q({j})" if m == 0 else f"O_M{m}({j})")
        out.append((label, {tuple(2 * j * (k == m) for k in range(n)): 1}))
    return out


def _times(prefixes: Iterable[tuple], menu: list) -> Iterator[tuple[dict, tuple]]:
    """Each (class, labels) prefix times each choice of a level menu, in order."""
    for terms, bits in prefixes:
        for label, factor in menu:
            out: dict[tuple[int, ...], int] = {}
            for a, ca in terms.items():
                for b, cb in factor.items():
                    w = tuple(map(operator.add, a, b))
                    out[w] = out.get(w, 0) + ca * cb
            yield out, bits + (label,) if label else bits


def build_orthogonal_flag(n: int) -> CollectionSpec:
    """2^n n! spinor-and-twist classes on the complete odd orthogonal flag variety.

    Emitted as K-classes: spinor pullbacks are filtered on the full flag, so
    objects are recorded by their line-weight multisets.  Each level of the
    quadric tower contributes one relative spinor class or one twist; the
    top level varies slowest, twists ascend to O, and the leftmost object is
    the product of all spinor classes.  The classes are built prefix by
    prefix: each level's menu multiplies every product of the levels above.
    """
    if n < 2:
        raise ExcolError("orthogonal flags need n >= 2")
    if n > MAX_ORTHOGONAL_RANK:  # 2^n n! objects
        raise ExcolError(f"orthogonal:{n} exceeds the limit n = {MAX_ORTHOGONAL_RANK}")
    space = parabolic_space("B", n, range(1, n + 1))
    # one generator per level, so a prefix lives only while its products are made
    prefixes: Iterable[tuple] = [({(0,) * n: 1}, ())]
    for m in reversed(range(n)):
        prefixes = _times(prefixes, _orthogonal_level_choices(n, m))
    objects, names = [], []
    for terms, bits in prefixes:
        objects.append(KClass(space, tuple((_make(w), c) for w, c in sorted(terms.items()))))
        names.append("*".join(bits) or "O")
    return CollectionSpec(
        space, tuple(objects), "kclasses", tuple(names), f"orthogonal:{n}"
    )


def build_igr26() -> CollectionSpec:
    """The 12-bundle collection on the isotropic Grassmannian of 2-planes in 6-space."""
    space = parabolic_space("C", 3, [2])
    names = [
        "U(-4)", "O(-4)", "S^2U(-3)", "U(-3)", "O(-3)",
        "S^2U(-2)", "U(-2)", "O(-2)", "U(-1)", "O(-1)", "U", "O",
    ]
    objects = tuple(_bundle(space, nm) for nm in names)
    return CollectionSpec(space, objects, "bundles", tuple(names), "igr26")


class PairResult(_Record):
    """One check of verify: row indexes the Hom source (the later object), col
    the target (the earlier), and evidence renders the Hom or pairing."""

    _fields = ("row", "col", "ok", "evidence", "ordering_fixable")

    def __init__(
        self, row: int, col: int, ok: bool, evidence: str, ordering_fixable: bool = False
    ) -> None:
        self._set(row, col, ok, evidence, ordering_fixable)


def _entry_json(r: PairResult) -> dict:
    if r.row == r.col:
        return {"index": r.row, "ok": r.ok, "evidence": r.evidence}
    return {"from": r.row, "to": r.col, "ok": r.ok, "evidence": r.evidence,
            "ordering_fixable": r.ordering_fixable}


class _Results(Sequence):
    """A report's PairResults in verify's order: (i, i), or (j, i) with j > i
    and column i slowest.  Only failures are stored, keyed by (row, col), and
    None entries are dropped; a passing entry is built on demand."""

    def __init__(self, n: int, diagonal: bool, failures: Iterable, evidence: str) -> None:
        self.n, self.diagonal, self.evidence = n, diagonal, evidence
        self.failures = {(r.row, r.col): r for r in failures if r is not None}

    def __len__(self) -> int:
        return self.n if self.diagonal else self.n * (self.n - 1) // 2

    def _at(self, row: int, col: int) -> PairResult:
        return self.failures.get((row, col)) or PairResult(row, col, True, self.evidence)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(len(self))[k]))
        k, n = range(len(self))[k], self.n  # a negative k counts from the end
        if self.diagonal:
            return self._at(k, k)
        first = lambda c: c * (2 * n - c - 1) // 2  # the position of (c + 1, c)
        col = bisect.bisect_right(range(n), k, key=first) - 1
        return self._at(col + 1 + k - first(col), col)

    def __iter__(self) -> Iterator[PairResult]:
        n = self.n
        if self.diagonal:
            return (self._at(i, i) for i in range(n))
        return (self._at(j, i) for i in range(n) for j in range(i + 1, n))


class VerificationReport(_Record):
    """What verify found; exceptional and semiorthogonal store the failures."""

    _fields = ("collection", "mode", "exceptional", "semiorthogonal", "length", "cells",
               "gram", "det", "thread_ok", "thread_trace", "wall_time")
    _unhashed = ("gram",)  # the rows gram_matrix built

    def __init__(
        self, collection: CollectionSpec, mode: str, exceptional: _Results,
        semiorthogonal: _Results, length: int, cells: int, gram: list[list[int]], det: int,
        thread_ok: bool | None, thread_trace: tuple[str, ...], wall_time: float,
    ) -> None:
        self._set(collection, mode, exceptional, semiorthogonal, length, cells, gram, det,
                  thread_ok, thread_trace, wall_time)

    @property
    def length_ok(self) -> bool:
        return self.length == self.cells

    @property
    def det_ok(self) -> bool:
        return abs(self.det) == 1

    @property
    def passed(self) -> bool:
        return (
            not self.exceptional.failures
            and not self.semiorthogonal.failures
            and self.length_ok
            and self.det_ok
            and self.thread_ok is not False
        )

    @property
    def verdict(self) -> str:
        return "complete-candidate" if self.passed else "failed"

    def summary_line(self) -> str:
        exc, semi = self.exceptional, self.semiorthogonal
        if self.thread_ok is None:
            thread = "skipped"
        else:
            thread = "true" if self.thread_ok else "false"
        length = (
            f"length=cells={self.length}"
            if self.length_ok
            else f"length={self.length}!=cells={self.cells}"
        )
        return (
            f"{len(exc) - len(exc.failures)}/{len(exc)} exceptional, "
            f"{len(semi) - len(semi.failures)}/{len(semi)} semiorthogonal, "
            f"{length}, det={self.det}, thread={thread}"
        )

    def render_text(self) -> str:
        lines = [
            f"collection {self.collection.provenance} on {self.collection.space} "
            f"({self.mode} mode)",
        ]
        labels = self.collection.labels
        for r in self.exceptional.failures.values():
            lines.append(f"FAIL object {labels[r.row]}: End = {r.evidence}")
        for r in self.semiorthogonal.failures.values():
            tag = " [ordering-fixable]" if r.ordering_fixable else ""
            lines.append(
                f"FAIL pair ({labels[r.col]}, {labels[r.row]}): "
                f"backward Hom({labels[r.row]}, {labels[r.col]}) = {r.evidence}{tag}"
            )
        if not self.length_ok:
            lines.append(f"FAIL length {self.length} != cell count {self.cells}")
        if not self.det_ok:
            lines.append(f"FAIL Gram determinant {self.det} is not a unit")
        if self.thread_ok is False:
            lines.append("FAIL thread: " + self.thread_trace[-1])
        lines.append(self.summary_line())
        lines.append(f"verdict: {self.verdict} (necessary conditions only)")
        lines.append(f"wall time: {self.wall_time:.2f}s")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        """The report's JSON document, parsed from its one rendering."""
        return json.loads("".join(self.json_chunks()))

    def json_chunks(self) -> Iterator[str]:
        """The report's JSON document in pieces of about one Gram row.

        A passing entry is printed from a template, so none is ever built.
        A semiorthogonal column i with no failure, the entries (j, i) for
        j > i, is one str.join of the heads '{"from": j, "to": ' with the
        column's common tail 'i, "ok": ...}, ' as separator; a column with a
        failure is formatted entry by entry.  A Gram row is one str.join of
        its entries' texts, each distinct value printed once.
        """
        n, dumps = self.length, json.dumps
        failed = {
            cell: dumps(_entry_json(r))
            for view in (self.exceptional, self.semiorthogonal)
            for cell, r in view.failures.items()
        }
        evidence = dumps(self.exceptional.evidence), dumps(self.semiorthogonal.evidence)
        diag = '{"index": %d, "ok": true, "evidence": ' + evidence[0] + "}"
        passing = ', "ok": true, "evidence": ' + evidence[1] + ', "ordering_fixable": false}'
        heads = ['{"from": %d, "to": ' % j for j in range(n)]
        broken = {i for _, i in self.semiorthogonal.failures}

        def column(i: int) -> str:
            tail = f"{i}{passing}"
            if i not in broken:
                return (tail + ", ").join(heads[i + 1:]) + tail
            return ", ".join(failed.get((j, i)) or heads[j] + tail for j in range(i + 1, n))

        fields = {
            "provenance": self.collection.provenance,
            "space": _space_json(self.collection.space), "mode": self.mode,
            # each list as nonempty chunks of its entries
            "exceptional": [", ".join(failed.get((i, i)) or diag % i for i in range(n))],
            "semiorthogonal": map(column, range(n - 1)),
            "length": self.length, "cells": self.cells, "gram": _json_rows(self.gram),
            "det": self.det, "thread": self.thread_ok,
            "thread_trace": list(self.thread_trace), "summary": self.summary_line(),
            "verdict": self.verdict, "wall_time": self.wall_time,
        }
        lists = ("exceptional", "semiorthogonal", "gram")
        for k, (key, value) in enumerate(fields.items()):
            yield ("{" if k == 0 else ", ") + dumps(key) + ": "
            if key not in lists:
                yield dumps(value)
                continue
            yield "["
            for m, chunk in enumerate(value):
                if m:
                    yield ", "
                yield chunk
            yield "]"
        yield "}"


class _Texts(dict):
    """str(v) for each int v asked for, made once."""

    def __missing__(self, v: int) -> str:
        text = self[v] = str(v)
        return text


def _json_rows(gram: Sequence[Sequence[int]]) -> Iterator[str]:
    """Each row of gram as a JSON list, each distinct value printed once."""
    text = _Texts().__getitem__
    return ("[" + ", ".join(map(text, row)) + "]" for row in gram)


def verify(collection: CollectionSpec, mode: str = "exact") -> VerificationReport:
    """Run the full battery of necessary conditions on an ordered collection.

    exact mode checks graded Hom spaces for the diagonal and all backward
    pairs (bundle collections only); chi_only checks the same triangle at
    the level of Euler pairings.  Both modes compare length with the
    Schubert cell count and test Gram unimodularity; exact mode also runs
    the helix thread criterion.

    chi_only reads every entry off the Gram matrix, and exact mode reads
    there every entry with a line bundle on either side; it runs graded_hom
    only on pairs of bundles of higher rank.  Proof: if L is a line bundle
    and E irreducible with highest weight lam, then E^* (x) L and L^* (x) E
    are irreducible, with highest weights dual(lam) + a and lam - a for L
    of weight a.  So Hom^k(E[s], F[t]) = H^{k+s-t}(E^* (x) F) is the
    cohomology of one irreducible bundle V, and by Borel-Weil-Bott (Bott
    1957) H*(V) is zero or sits in one degree l with dimension |chi(V)|.
    Hence Hom*(E_j, E_i) vanishes exactly when gram[j][i] does, the forward
    Hom of ordering_fixable when gram[i][j] does, and End*(L) = H*(O) = k in
    degree 0.  cohomology runs only to print the evidence of a failing
    pair, once per highest weight of V in one call.  The determinant is
    _det_exact's, which needs no elimination for a triangular Gram.
    """
    start = time.perf_counter()
    if mode not in ("exact", "chi_only"):
        raise ExcolError(f"unknown verification mode {mode!r}")
    objs = collection.objects
    exact = mode == "exact"
    if exact and collection.mode != "bundles":
        raise ExcolError(
            "exact verification needs irreducible bundle objects; "
            "use chi_only for K-class collections"
        )
    n = len(objs)
    gram = gram_matrix(objs)
    # the objects whose Homs with one another are not read off the Gram
    higher_rank = {k for k, obj in enumerate(objs) if obj.rank != 1} if exact else set()
    space = collection.space
    dual = functools.cache(lambda k: dual_weight(space.rs, space.levi_mask, objs[k].hw))
    dims_of = functools.cache(lambda hw: cohomology(space, hw).dims())

    def evidence(j: int, i: int) -> str:
        """Hom*(E_j, E_i) with a line on one side: H* of E_j^* (x) E_i, shifted."""
        offset = objs[j].shift - objs[i].shift
        dims = dims_of(dual(j) + objs[i].hw)
        return format_graded({k + offset: d for k, d in dims.items()})

    def failure(j: int, i: int) -> PairResult | None:
        """The result for Hom(E_j, E_i) if that entry fails, else None."""
        if i in higher_rank and j in higher_rank:
            dims = graded_hom(objs[j], objs[i])
            if dims == ({0: 1} if i == j else {}):
                return None
            fixable = i != j and not graded_hom(objs[i], objs[j])
            return PairResult(j, i, False, format_graded(dims), fixable)
        if gram[j][i] == (1 if i == j else 0):
            return None
        text = evidence(j, i) if exact else f"chi = {gram[j][i]}"
        return PairResult(j, i, False, text, i != j and gram[i][j] == 0)

    passing = "k in degree 0" if exact else "chi = 1"
    exceptional = _Results(n, True, map(failure, range(n), range(n)), passing)
    lower = _lower_rows(gram)
    # (i, j) for each backward pair that may fail
    suspects = {(i, j) for j in lower for i in range(j) if gram[j][i]}
    suspects.update(itertools.combinations(sorted(higher_rank), 2))
    semiorthogonal = _Results(n, False, (failure(j, i) for i, j in sorted(suspects)), "0")
    det = _det_exact(gram, lower)

    thread_ok, trace = _thread_trace(gram, space.dim, lower) if exact else (None, ())

    return VerificationReport(
        collection=collection,
        mode=mode,
        exceptional=exceptional,
        semiorthogonal=semiorthogonal,
        length=n,
        cells=space.cell_count,
        gram=gram,
        det=det,
        thread_ok=thread_ok,
        thread_trace=tuple(trace),
        wall_time=time.perf_counter() - start,
    )


def _int_field(value, name: str) -> int:
    """A JSON integer; floats, strings and booleans are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{name} must be an integer, got {value!r}")
    return value


def _weight_parse(raw) -> Weight:
    """A list of integer or "p/q" string coordinates."""
    if not isinstance(raw, list) or any(
        isinstance(c, bool) or not isinstance(c, (int, str)) for c in raw
    ):
        raise ParseError(f"cannot parse weight {raw!r}")
    return Weight(raw)


def _kclass_json(k: KClass) -> dict:
    return {"terms": [{"weight": _weight_json(w), "coeff": c} for w, c in k.terms]}


def _space_json(space: ParabolicSpace) -> dict:
    return {
        "family": space.rs.family,
        "rank": space.rs.rank,
        "crossed": sorted(space.crossed),
    }


def dump_collection(collection: CollectionSpec) -> dict:
    """Serialize to the JSON document format (exact rationals as 'p/q')."""
    objects = []
    for obj in collection.objects:
        if isinstance(obj, BundleObject):
            objects.append(
                {"shift": obj.shift, "weight": _weight_json(obj.hw), "mult": 1}
            )
        else:
            objects.append(_kclass_json(obj))
    return {
        "space": _space_json(collection.space),
        "mode": collection.mode,
        "objects": objects,
        "labels": list(collection.labels),
        "order": "explicit",
        "provenance": collection.provenance,
    }


def _load_object(space: ParabolicSpace, item: dict) -> "BundleObject | KClass":
    if "terms" in item:
        terms: dict[Weight, int] = {}
        for t in item["terms"]:
            w = _weight_parse(t["weight"])
            terms[w] = terms.get(w, 0) + _int_field(t["coeff"], "coeff")
        # KClass validates the terms it keeps; from_dict drops cancelled ones
        for w, c in terms.items():
            if not c:
                validate_weight(space.rs, w)
        return KClass.from_dict(space, terms)
    w = _weight_parse(item["weight"])
    if _int_field(item.get("mult", 1), "mult") != 1:
        raise ExcolError("bundle objects must have mult = 1")
    return BundleObject(space, w, _int_field(item.get("shift", 0), "shift"))


def load_collection(doc: dict) -> CollectionSpec:
    """Parse the JSON document format back into a CollectionSpec.

    A document of the wrong shape, or with a field of the wrong type, raises
    ParseError.
    """
    if not isinstance(doc, dict):
        raise ParseError("a collection document must be a JSON object")
    try:
        sp = doc["space"]
        crossed = [_int_field(k, "a crossed node") for k in sp["crossed"]]
        space = parabolic_space(sp["family"], _int_field(sp["rank"], "rank"), crossed)
        raw_objects = doc["objects"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed collection document: {exc}") from exc
    if not isinstance(raw_objects, list) or not raw_objects:
        raise ParseError("collection document needs a nonempty object list")

    mode = doc.get("mode")
    if mode not in (None, "bundles", "kclasses"):
        raise ParseError(f"unknown collection mode {mode!r}")
    objects: list = []
    for k, item in enumerate(raw_objects):
        try:
            objects.append(_load_object(space, item))
        except ExcolError:
            raise
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(
                f"malformed collection object {k}: {type(exc).__name__}: {exc}"
            ) from exc
    inferred = "kclasses" if any(isinstance(o, KClass) for o in objects) else "bundles"
    if mode is None:
        mode = inferred
    if mode == "bundles" and inferred == "kclasses":
        raise ExcolError("document declares bundle mode but contains K-class objects")

    labels = doc.get("labels")
    if labels is None:
        labels = [f"E{k}" for k in range(len(objects))]
    if not isinstance(labels, (list, tuple)):
        raise ParseError("labels must be a list")
    if len(labels) != len(objects):
        raise ParseError("labels and objects must have equal length")
    if mode == "kclasses":
        objects = [_as_kclass(o) for o in objects]
    return CollectionSpec(
        space,
        tuple(objects),
        mode,
        tuple(str(x) for x in labels),
        str(doc.get("provenance", "file")),
    )
