"""Batch command-line interface.

The CLI is one table, :data:`COMMANDS`: each subcommand is one row holding
its name, its help, its arguments and the function that turns the parsed
arguments into the report.  Each function is a thin shim: parse documents,
call the library, return the report.  :func:`build_parser` builds every
subparser from the rows, and :func:`main` emits the canonical JSON
serialization of the report.  Identical inputs yield byte-identical
reports.  Exit status 0 on success, 2 on parse or parameter errors (with a
diagnostic naming the offending file and key).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Optional, TypeVar

from . import serialize as ser
from .cat import category_of_elements, has_final_object, identity_functor, nerve, slice_category
from .errors import ContractError, DomainError, NerveLabError, SchemaError
from .homology import (
    homology,
    pi1_presentation,
    weak_equivalence_evidence,
    weak_equivalence_evidence2,
)
from .lifting import LiftingProblem, find_lift, has_rlp, homotopy_pushout, small_object_factorize
from .localizer import _marked_within, closure, violations
from .presentations import cat_of, realize, twocat_of
from .simplicial import SimplicialMap, SimplicialSet, boundary_inclusion, validate
from .subdivision import alpha, beta, ex, sd
from .twocat import delta_tilde, geometric_nerve, identity_two_functor, slice_2category


def _object(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object, whose keys must be distinct: a repeated key would
    leave the document two meanings."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(f"key {key!r} is repeated in one object")
            seen.add(key)
    return doc


def _load(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read file ({exc})") from exc
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except SchemaError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    return doc


T = TypeVar("T")


def _read(from_doc: Callable[[dict, str], T], path: str) -> T:
    """The value that the file ``path`` holds, parsed by ``from_doc``."""
    return from_doc(_load(path), path)


def _fitted(path: str, build: Callable[..., T], *maps: object) -> T:
    """``build(*maps)`` for values read from the file ``path``, each valid on
    its own; a ContractError that ``build`` raises names the file."""
    try:
        return build(*maps)
    except ContractError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _emit(doc: dict, out: Optional[str]) -> None:
    text = ser.canonical_json(doc)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _parse_generators(spec: str, D: int) -> list[SimplicialMap]:
    if spec.startswith("boundaries:"):
        n = spec.split(":", 1)[1]
        if not n.isdecimal():
            raise SchemaError(f"--generators {spec}: expected boundaries:<n> with n a number")
        return [boundary_inclusion(m, D) for m in range(int(n) + 1)]
    doc = _load(spec)
    entries = doc.get("generators")
    if not isinstance(entries, list):
        raise SchemaError(f"{spec}: missing key 'generators'")
    return [ser.smap_from_doc(e, f"{spec}.generators[{i}]") for i, e in enumerate(entries)]


# -- what the subcommands read ---------------------------------------------------

def _bounded(args) -> tuple[SimplicialSet, int]:
    """The sset.v1 input and ``--max-dim``, which defaults to its bound."""
    X = _read(ser.sset_from_doc, args.input)
    return X, X.dim_bound if args.max_dim is None else args.max_dim


def _over(args, marker: str, cat_from_doc, identity, functor_from_doc):
    """The (2-)functor of the input, or the identity of the (2-)category it
    holds if it has ``marker`` and no ``source``."""
    doc = _load(args.input)
    if marker in doc and "source" not in doc:
        return identity(cat_from_doc(doc, args.input))
    return functor_from_doc(doc, args.input)


def _with_generators(args) -> tuple[SimplicialMap, list[SimplicialMap]]:
    """The smap.v1 input and the ``--generators`` at its bound."""
    f = _read(ser.smap_from_doc, args.input)
    return f, _parse_generators(args.generators, f.bound)


def _localizer(args) -> tuple:
    """The universe and the marked class, whose ids must be edges of it."""
    U, W = _read(ser.universe_from_doc, args.universe), _read(ser.marked_from_doc, args.marked)
    try:
        return U, _marked_within(U, W)
    except DomainError as exc:
        raise SchemaError(f"{args.marked}.marked: {exc}") from exc


# -- the reports that are not one library document --------------------------------

def _alpha_beta(args) -> dict:
    X = _read(ser.sset_from_doc, args.input)
    return {"alpha": ser.smap_to_doc(alpha(X)), "beta": ser.smap_to_doc(beta(X))}


def _slice(args) -> dict:
    S, proj = slice_category(
        _over(args, "arrows", ser.fincat_from_doc, identity_functor, ser.cfun_from_doc), args.object)
    return {"category": ser.fincat_to_doc(S), "projection": ser.cfun_to_doc(proj)}


def _lift(args) -> dict:
    doc = _load(args.input)
    maps = [ser.smap_from_doc(doc.get(key), f"{args.input}.{key}") for key in ("i", "p", "top", "bottom")]
    h = find_lift(_fitted(args.input, LiftingProblem, *maps))
    return {"lift": None if h is None else ser.smap_to_doc(h)}


def _rlp(args) -> dict:
    ok, square = _fitted(args.generators, has_rlp, *_with_generators(args))
    return {"has_rlp": ok, "counterexample": None if square is None else {
        key: ser.smap_to_doc(getattr(square, key)) for key in ("i", "top", "bottom")}}


def _hpushout(args) -> dict:
    doc = _load(args.input)
    f, g = (ser.smap_from_doc(doc.get(key, {}), f"{args.input}.{key}") for key in ("f", "g"))
    return ser.sset_to_doc(_fitted(args.input, homotopy_pushout, f, g)[0])


def _pi1(args) -> dict:
    X = _read(ser.sset_from_doc, args.input)
    if args.basepoint is None and not X.cells[0]:
        raise SchemaError(f"{args.input}: the simplicial set has no vertices")
    pres = pi1_presentation(X, X.cells[0][0] if args.basepoint is None else args.basepoint)
    return {"generators": list(pres.generators),
            "relations": [[[g, e] for g, e in w] for w in pres.relations]}


# -- the table -------------------------------------------------------------------

# Arguments, each a name or flag with its add_argument keywords;
# LOCALIZER is the two positional files of the localizer subcommands.
INPUT = ("input", {})
MAX_DIM = ("--max-dim", {"type": int, "default": 3})
BOUND = ("--max-dim", {"type": int, "default": None})  # None: the input's own bound
DEGREE = ("--degree", {"type": int, "default": 1})
OBJECT = ("--object", {"required": True})
GENERATORS = ("--generators", {"default": "boundaries:2"})
LOCALIZER = (("universe", {}), ("marked", {}))

# One row per subcommand: (name, help, arguments, report).
COMMANDS: tuple[tuple[str, str, tuple, Callable[[argparse.Namespace], dict]], ...] = (
    ("validate", "check the simplicial identities of an sset.v1 document", (INPUT,),
     lambda a: ser.violations_to_doc(validate(_read(ser._read_sset, a.input)))),
    ("nerve", "nerve of a fincat.v1 document", (INPUT, MAX_DIM),
     lambda a: ser.sset_to_doc(_fitted(a.input, nerve, _read(ser.fincat_from_doc, a.input), a.max_dim))),
    ("nerve2", "geometric nerve of a fin2cat.v1 document", (INPUT, MAX_DIM),
     lambda a: ser.sset_to_doc(geometric_nerve(_read(ser.fin2cat_from_doc, a.input), a.max_dim))),
    ("delta-tilde", "the 2-categorical n-simplex", (("n", {"type": int}),),
     lambda a: ser.fin2cat_to_doc(delta_tilde(a.n))),
    ("sd", "barycentric subdivision of an sset.v1 document", (INPUT,),
     lambda a: ser.sset_to_doc(sd(_read(ser.sset_from_doc, a.input))[0])),
    ("ex", "bounded extension of an sset.v1 document", (INPUT, BOUND),
     lambda a: ser.sset_to_doc(ex(*_bounded(a)))),
    ("alpha-beta", "the comparison maps sd(X) -> X and X -> ex(X)", (INPUT,), _alpha_beta),
    ("cat-of", "category presentation of an sset.v1 document", (INPUT,),
     lambda a: ser.pres_to_doc(cat_of(_read(ser.sset_from_doc, a.input)))),
    ("twocat-of", "2-category presentation of an sset.v1 document", (INPUT,),
     lambda a: ser.pres_to_doc(twocat_of(_read(ser.sset_from_doc, a.input)))),
    ("realize", "bounded realization of a pres.v1 document",
     (INPUT, ("--budget", {"type": int, "default": 200,
                           "help": "completion steps for a category presentation; a 2-presentation "
                                   "needs no completion, so the budget does not bound it"})),
     lambda a: ser.realize_result_to_doc(realize(_read(ser.pres_from_doc, a.input), budget=a.budget))),
    ("slice", "slice of a cfun.v1 (or fincat.v1 identity) over an object", (INPUT, OBJECT), _slice),
    ("slice2", "2-categorical slice of a tfun.v1 (or fin2cat.v1 identity)", (INPUT, OBJECT),
     lambda a: ser.fin2cat_to_doc(slice_2category(
         _over(a, "hom", ser.fin2cat_from_doc, identity_two_functor, ser.tfun_from_doc), a.object))),
    ("elements", "truncated category of elements of an sset.v1 document", (INPUT, BOUND),
     lambda a: ser.fincat_to_doc(category_of_elements(*_bounded(a)))),
    ("final", "the final object of a fincat.v1 document, if any", (INPUT,),
     lambda a: {"final": has_final_object(_read(ser.fincat_from_doc, a.input))}),
    ("lift", "search for a filler of a lifting problem document", (INPUT,), _lift),
    ("rlp", "right lifting property of an smap.v1 against generators", (INPUT, GENERATORS), _rlp),
    ("factorize", "bounded small-object factorization of an smap.v1",
     (INPUT, GENERATORS, ("--stages", {"type": int, "default": 5})),
     lambda a: ser.factorization_to_doc(
         _fitted(a.generators, small_object_factorize, *_with_generators(a), a.stages))),
    ("hpushout", "double mapping cylinder of a span document {f, g}", (INPUT,), _hpushout),
    ("homology", "integer homology of an sset.v1 document", (INPUT, DEGREE),
     lambda a: ser.homology_to_doc(homology(_read(ser.sset_from_doc, a.input), a.degree))),
    ("pi1", "edge-path fundamental group presentation", (INPUT, ("--basepoint", {"default": None})), _pi1),
    ("evidence", "weak-equivalence evidence for an smap.v1 document", (INPUT, DEGREE),
     lambda a: ser.evidence_to_doc(weak_equivalence_evidence(_read(ser.smap_from_doc, a.input), a.degree))),
    ("evidence2", "weak-equivalence evidence for a tfun.v1 document", (INPUT, MAX_DIM, DEGREE),
     lambda a: ser.evidence_to_doc(
         weak_equivalence_evidence2(_read(ser.tfun_from_doc, a.input), a.max_dim, a.degree))),
    ("localizer-check", "run all localizer checkers on a universe", LOCALIZER,
     lambda a: ser.violations_to_doc(violations(*_localizer(a)))),
    ("localizer-closure", "closure of a marked class under the axioms",
     LOCALIZER + (("--budget", {"type": int, "default": 50}),),
     lambda a: ser.marked_to_doc(closure(*_localizer(a), budget=a.budget))),
)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nervelab",
        description="desk-scale nerves, subdivision, lifting and localizer checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, arguments, report in COMMANDS:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--out", help="write the report to this path instead of stdout")
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(report=report)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = args.report(args)
    except NerveLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _emit(doc, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
