"""Command-line front end.

Exit codes: 0 success (and, for verify/thread, a passing verdict);
1 verification failure; 2 malformed input; 3 violated mathematical
precondition.  All numbers are exact; rationals render as "p/q".
"""

import argparse
import contextlib
import json
import sys
from fractions import Fraction

from .roots import ExcolError, ParseError, Weight, _weight_json
from .bwb import (
    BundleObject,
    ParabolicSpace,
    bundle_weight,
    canonical_bundle,
    cohomology,
    format_graded,
    graded_hom,
    pushforward,
    space_from_string,
)
from .homcalc import _as_kclass, gram_matrix, mutate_pair_k, thread_check
from .collections import (
    CollectionSpec,
    _json_rows,
    _kclass_json,
    build_beilinson,
    build_igr26,
    build_orthogonal_flag,
    build_quadric,
    build_symplectic_flag,
    dump_collection,
    load_collection,
    verify,
)

_BUILDERS = {
    "igr26": (build_igr26, False),
    "beilinson": (build_beilinson, True),
    "quadric": (build_quadric, True),
    "symplectic": (build_symplectic_flag, True),
    "orthogonal": (build_orthogonal_flag, True),
}


def _parse_bundle_arg(space: ParabolicSpace, text: str) -> Weight:
    """A weight literal such as (1,0,-1/2), else a bundle name such as U*(2)."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    parts = [p.strip() for p in body.split(",")]
    numeric = lambda p: p.lstrip("-").replace("/", "").isdigit()
    if not ("," in body or numeric(body)) or not all(map(numeric, filter(None, parts))):
        return bundle_weight(space, text)
    try:
        coords = tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse weight {text!r}: {exc}") from exc
    if len(coords) != space.rs.dim:
        raise ParseError(
            f"weight {text!r} has {len(coords)} coordinates; {space} needs {space.rs.dim}"
        )
    # integer coordinates enter as ints, so Weight needs no Fraction for them
    return Weight(int(c) if c.denominator == 1 else c for c in coords)


def _get_collection(args) -> CollectionSpec:
    if bool(args.builder) + bool(args.file) + args.stdin != 1:
        raise ParseError("pass exactly one of --builder, --file, --stdin")
    if args.builder:
        return _builder_by_name(args.builder)
    source = "stdin" if args.stdin else args.file
    try:
        with contextlib.nullcontext(sys.stdin) if args.stdin else open(args.file) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {source}: {exc}") from exc
    except ValueError as exc:
        raise ParseError(f"{source} is not valid JSON: {exc}") from exc
    return load_collection(doc)


def _builder_by_name(name: str) -> CollectionSpec:
    base, _, param = name.partition(":")
    base = base.strip().lower()
    if base not in _BUILDERS:
        raise ParseError(
            f"unknown builder {name!r}; choose from {sorted(_BUILDERS)} "
            "(parametrized ones as e.g. quadric:4)"
        )
    fn, wants_param = _BUILDERS[base]
    if wants_param:
        if not param:
            raise ParseError(f"builder {base!r} needs a parameter, e.g. {base}:3")
        try:
            n = int(param)
        except ValueError as exc:
            raise ParseError(f"bad builder parameter {param!r}") from exc
        return fn(n)
    if param:
        raise ParseError(f"builder {base!r} takes no parameter")
    return fn()


# Each _cmd_* returns (document, text, exit code); main prints one rendering.
# A document is a dict or JSON chunks, a text a str or text chunks; either may
# be a zero-argument callable, so that a large one is built only if printed.


def _cmd_bwb(args) -> tuple:
    space = space_from_string(args.space)
    ans = cohomology(space, _parse_bundle_arg(space, args.weight))
    if ans.is_zero:
        return {"zero": True}, "0", 0
    doc = {
        "zero": False,
        "degree": ans.degree,
        "weight": _weight_json(ans.dominant),
        "dim": ans.dim,
    }
    return doc, f"degree {ans.degree}: highest weight {ans.dominant}, dim {ans.dim}", 0


def _cmd_hom(args) -> tuple:
    space = space_from_string(args.space)
    src = BundleObject(space, _parse_bundle_arg(space, args.src))
    dst = BundleObject(space, _parse_bundle_arg(space, args.dst))
    dims = graded_hom(src, dst)
    return {"dims": {str(k): v for k, v in sorted(dims.items())}}, format_graded(dims), 0


def _cmd_push(args) -> tuple:
    total = space_from_string(args.space)
    base = space_from_string(args.base)
    bundle = BundleObject(total, _parse_bundle_arg(total, args.bundle))
    result = pushforward(bundle, base)
    if result is None:
        return {"zero": True}, "0", 0
    doc = {"zero": False, "weight": _weight_json(result.hw), "shift": result.shift}
    return doc, str(result), 0


def _cmd_canonical(args) -> tuple:
    k = canonical_bundle(space_from_string(args.space))
    return {"weight": _weight_json(k.hw)}, str(k.hw), 0


def _cmd_cells(args) -> tuple:
    count = space_from_string(args.space).cell_count
    return {"cells": count}, str(count), 0


def _cmd_gram(args) -> tuple:
    coll = _get_collection(args)
    gram = gram_matrix(list(coll.objects), method=args.method)

    def document():
        yield '{"labels": ' + json.dumps(list(coll.labels)) + ', "gram": ['
        for k, row in enumerate(_json_rows(gram)):
            yield (", " if k else "") + row
        yield "]}"

    def text():
        values = set().union(*gram)
        width = max(len(str(v)) for v in values)
        padded = {v: str(v).rjust(width) for v in values}.__getitem__
        for k, row in enumerate(gram):
            yield ("\n" if k else "") + " ".join(map(padded, row))

    return document(), text, 0


def _cmd_mutate(args) -> tuple:
    coll = _get_collection(args)
    i = args.index
    if not 0 <= i < len(coll.objects) - 1:
        raise ParseError(
            f"--index must name an adjacent pair: 0 <= i <= {len(coll.objects) - 2}"
        )
    new_left, new_right = mutate_pair_k(
        _as_kclass(coll.objects[i]), _as_kclass(coll.objects[i + 1]), args.side
    )
    doc = {"pair": [_kclass_json(new_left), _kclass_json(new_right)]}
    return doc, f"position {i}:   {new_left}\nposition {i + 1}: {new_right}", 0


def _cmd_thread(args) -> tuple:
    coll = _get_collection(args)
    ok, trace = thread_check(gram_matrix(list(coll.objects)), coll.space.dim)
    text = "\n".join([*trace, f"thread={'true' if ok else 'false'}"])
    return {"thread": ok, "trace": trace}, text, 0 if ok else 1


def _cmd_build(args) -> tuple:
    coll = _builder_by_name(args.name)

    def text():
        yield f"{coll.provenance} on {coll.space}: {len(coll)} objects"
        for k, (obj, label) in enumerate(zip(coll.objects, coll.labels)):
            if isinstance(obj, BundleObject):
                desc = str(obj.hw) + (f"[{obj.shift}]" if obj.shift else "")
            else:
                desc = str(obj)
            yield f"\n{k:4d}  {label:16s} {desc}"

    return lambda: dump_collection(coll), text, 0


def _cmd_verify(args) -> tuple:
    report = verify(_get_collection(args), mode=args.mode)
    return report.json_chunks(), report.render_text, 0 if report.passed else 1


def _add_collection_source(sub) -> None:
    sub.add_argument("--builder", help="builder name, e.g. igr26 or quadric:4")
    sub.add_argument("--file", help="collection JSON document")
    sub.add_argument(
        "--stdin", action="store_true", help="read the collection JSON from stdin"
    )


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excol",
        description="Exact-arithmetic workbench for exceptional collections "
        "on classical homogeneous spaces.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def with_json(sub):
        sub.add_argument("--json", action="store_true", help="emit JSON")
        return sub

    s = with_json(subs.add_parser("bwb", help="cohomology of one irreducible bundle"))
    s.add_argument("--space", required=True)
    s.add_argument("--weight", required=True, help="bundle name or weight tuple")
    s.set_defaults(fn=_cmd_bwb)

    s = with_json(subs.add_parser("hom", help="graded Hom between two bundles"))
    s.add_argument("--space", required=True)
    s.add_argument("--from", dest="src", required=True)
    s.add_argument("--to", dest="dst", required=True)
    s.set_defaults(fn=_cmd_hom)

    s = with_json(subs.add_parser("push", help="pushforward along a fibration"))
    s.add_argument("--space", required=True, help="total space")
    s.add_argument("--base", required=True, help="base space")
    s.add_argument("--bundle", required=True)
    s.set_defaults(fn=_cmd_push)

    s = with_json(subs.add_parser("canonical", help="canonical bundle weight"))
    s.add_argument("--space", required=True)
    s.set_defaults(fn=_cmd_canonical)

    s = with_json(subs.add_parser("cells", help="Schubert cell count"))
    s.add_argument("--space", required=True)
    s.set_defaults(fn=_cmd_cells)

    s = with_json(subs.add_parser("gram", help="Gram matrix of Euler pairings"))
    _add_collection_source(s)
    s.add_argument("--method", choices=["chi", "ext"], default="chi")
    s.set_defaults(fn=_cmd_gram)

    s = with_json(subs.add_parser("mutate", help="mutate an adjacent pair (K-level)"))
    _add_collection_source(s)
    s.add_argument("--index", type=int, required=True)
    s.add_argument("--side", choices=["left", "right"], required=True)
    s.set_defaults(fn=_cmd_mutate)

    s = with_json(subs.add_parser("thread", help="helix thread criterion"))
    _add_collection_source(s)
    s.set_defaults(fn=_cmd_thread)

    s = with_json(subs.add_parser("build", help="emit a built-in collection"))
    s.add_argument("name", help="builder name, e.g. igr26 or symplectic:2")
    s.set_defaults(fn=_cmd_build)

    s = with_json(subs.add_parser("verify", help="run the verification battery"))
    _add_collection_source(s)
    s.add_argument("--mode", choices=["exact", "chi_only"], default="exact")
    s.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for compatibility and ignored; checks run serially",
    )
    s.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        doc, text, code = args.fn(args)
        out = doc if args.json else text
        if callable(out):
            out = out()
        if isinstance(out, dict):
            out = json.dumps(out)
        sys.stdout.writelines([out] if isinstance(out, str) else out)
        sys.stdout.write("\n")
        return code
    except ExcolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParseError) else 3


if __name__ == "__main__":
    sys.exit(main())
