"""Batch command-line interface.

Every subcommand is a thin shim: parse documents, call the library, emit
the canonical JSON serialization of the result.  Identical inputs yield
byte-identical reports.  Exit status 0 on success, 2 on parse or
parameter errors (with a diagnostic naming the offending file and key).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional, TypeVar

from . import serialize as ser
from .cat import category_of_elements, has_final_object, identity_functor, nerve, slice_category
from .errors import ContractError, NerveLabError, SchemaError
from .homology import (
    homology,
    pi1_presentation,
    weak_equivalence_evidence,
    weak_equivalence_evidence2,
)
from .lifting import LiftingProblem, find_lift, has_rlp, homotopy_pushout, small_object_factorize
from .localizer import closure, violations
from .presentations import cat_of, realize, twocat_of
from .simplicial import SimplicialMap, boundary_inclusion, validate
from .subdivision import alpha, beta, ex, sd
from .twocat import delta_tilde, geometric_nerve, identity_two_functor, slice_2category


def _load(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read file ({exc})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    return doc


T = TypeVar("T")


def _fitted(path: str, build: Callable[..., T], *maps: object) -> T:
    """``build(*maps)`` for maps read from the file ``path``, each valid on
    its own; a ContractError about how they fit together names the file."""
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


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nervelab",
        description="desk-scale nerves, subdivision, lifting and localizer checks",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name: str, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        return p

    p = cmd("validate", help="check the simplicial identities of an sset.v1 document")
    p.add_argument("input")

    p = cmd("nerve", help="nerve of a fincat.v1 document")
    p.add_argument("input")
    p.add_argument("--max-dim", type=int, default=3)

    p = cmd("nerve2", help="geometric nerve of a fin2cat.v1 document")
    p.add_argument("input")
    p.add_argument("--max-dim", type=int, default=3)

    p = cmd("delta-tilde", help="the 2-categorical n-simplex")
    p.add_argument("n", type=int)

    p = cmd("sd", help="barycentric subdivision of an sset.v1 document")
    p.add_argument("input")

    p = cmd("ex", help="bounded extension of an sset.v1 document")
    p.add_argument("input")
    p.add_argument("--max-dim", type=int, default=None)

    p = cmd("alpha-beta", help="the comparison maps sd(X) -> X and X -> ex(X)")
    p.add_argument("input")

    p = cmd("cat-of", help="category presentation of an sset.v1 document")
    p.add_argument("input")

    p = cmd("twocat-of", help="2-category presentation of an sset.v1 document")
    p.add_argument("input")

    p = cmd("realize", help="bounded realization of a pres.v1 document")
    p.add_argument("input")
    p.add_argument("--budget", type=int, default=200,
                   help="completion steps for a category presentation; a 2-presentation "
                        "needs no completion, so the budget does not bound it")

    p = cmd("slice", help="slice of a cfun.v1 (or fincat.v1 identity) over an object")
    p.add_argument("input")
    p.add_argument("--object", required=True)

    p = cmd("slice2", help="2-categorical slice of a tfun.v1 (or fin2cat.v1 identity)")
    p.add_argument("input")
    p.add_argument("--object", required=True)

    p = cmd("elements", help="truncated category of elements of an sset.v1 document")
    p.add_argument("input")
    p.add_argument("--max-dim", type=int, default=None)

    p = cmd("final", help="the final object of a fincat.v1 document, if any")
    p.add_argument("input")

    p = cmd("lift", help="search for a filler of a lifting problem document")
    p.add_argument("input")

    p = cmd("rlp", help="right lifting property of an smap.v1 against generators")
    p.add_argument("input")
    p.add_argument("--generators", default="boundaries:2")

    p = cmd("factorize", help="bounded small-object factorization of an smap.v1")
    p.add_argument("input")
    p.add_argument("--generators", default="boundaries:2")
    p.add_argument("--stages", type=int, default=5)

    p = cmd("hpushout", help="double mapping cylinder of a span document {f, g}")
    p.add_argument("input")

    p = cmd("homology", help="integer homology of an sset.v1 document")
    p.add_argument("input")
    p.add_argument("--degree", type=int, default=1)

    p = cmd("pi1", help="edge-path fundamental group presentation")
    p.add_argument("input")
    p.add_argument("--basepoint", default=None)

    p = cmd("evidence", help="weak-equivalence evidence for an smap.v1 document")
    p.add_argument("input")
    p.add_argument("--degree", type=int, default=1)

    p = cmd("evidence2", help="weak-equivalence evidence for a tfun.v1 document")
    p.add_argument("input")
    p.add_argument("--max-dim", type=int, default=3)
    p.add_argument("--degree", type=int, default=1)

    p = cmd("localizer-check", help="run all localizer checkers on a universe")
    p.add_argument("universe")
    p.add_argument("marked")

    p = cmd("localizer-closure", help="closure of a marked class under the axioms")
    p.add_argument("universe")
    p.add_argument("marked")
    p.add_argument("--budget", type=int, default=50)

    return parser


def run(args: argparse.Namespace) -> dict:
    cmd = args.command
    if cmd == "validate":
        X = ser._read_sset(_load(args.input), args.input)
        return ser.violations_to_doc(validate(X))
    if cmd == "nerve":
        return ser.sset_to_doc(nerve(ser.fincat_from_doc(_load(args.input), args.input), args.max_dim))
    if cmd == "nerve2":
        C = ser.fin2cat_from_doc(_load(args.input), args.input)
        return ser.sset_to_doc(geometric_nerve(C, args.max_dim))
    if cmd == "delta-tilde":
        return ser.fin2cat_to_doc(delta_tilde(args.n))
    if cmd == "sd":
        return ser.sset_to_doc(sd(ser.sset_from_doc(_load(args.input), args.input))[0])
    if cmd == "ex":
        X = ser.sset_from_doc(_load(args.input), args.input)
        D = X.dim_bound if args.max_dim is None else args.max_dim
        return ser.sset_to_doc(ex(X, D))
    if cmd == "alpha-beta":
        X = ser.sset_from_doc(_load(args.input), args.input)
        return {
            "alpha": ser.smap_to_doc(alpha(X)),
            "beta": ser.smap_to_doc(beta(X)),
        }
    if cmd == "cat-of":
        return ser.pres_to_doc(cat_of(ser.sset_from_doc(_load(args.input), args.input)))
    if cmd == "twocat-of":
        return ser.pres_to_doc(twocat_of(ser.sset_from_doc(_load(args.input), args.input)))
    if cmd == "realize":
        p = ser.pres_from_doc(_load(args.input), args.input)
        return ser.realize_result_to_doc(realize(p, budget=args.budget))
    if cmd == "slice":
        doc = _load(args.input)
        if "arrows" in doc and "source" not in doc:
            v = identity_functor(ser.fincat_from_doc(doc, args.input))
        else:
            v = ser.cfun_from_doc(doc, args.input)
        S, proj = slice_category(v, args.object)
        return {"category": ser.fincat_to_doc(S), "projection": ser.cfun_to_doc(proj)}
    if cmd == "slice2":
        doc = _load(args.input)
        if "hom" in doc and "source" not in doc:
            v = identity_two_functor(ser.fin2cat_from_doc(doc, args.input))
        else:
            v = ser.tfun_from_doc(doc, args.input)
        return ser.fin2cat_to_doc(slice_2category(v, args.object))
    if cmd == "elements":
        X = ser.sset_from_doc(_load(args.input), args.input)
        D = X.dim_bound if args.max_dim is None else args.max_dim
        return ser.fincat_to_doc(category_of_elements(X, D))
    if cmd == "final":
        return {"final": has_final_object(ser.fincat_from_doc(_load(args.input), args.input))}
    if cmd == "lift":
        doc = _load(args.input)
        maps = [ser.smap_from_doc(doc.get(key), f"{args.input}.{key}") for key in ("i", "p", "top", "bottom")]
        h = find_lift(_fitted(args.input, LiftingProblem, *maps))
        return {"lift": None if h is None else ser.smap_to_doc(h)}
    if cmd == "rlp":
        p = ser.smap_from_doc(_load(args.input), args.input)
        gens = _parse_generators(args.generators, p.bound)
        ok, counterexample = _fitted(args.generators, has_rlp, p, gens)
        doc = {"has_rlp": ok, "counterexample": None}
        if counterexample is not None:
            doc["counterexample"] = {
                "i": ser.smap_to_doc(counterexample.i),
                "top": ser.smap_to_doc(counterexample.top),
                "bottom": ser.smap_to_doc(counterexample.bottom),
            }
        return doc
    if cmd == "factorize":
        f = ser.smap_from_doc(_load(args.input), args.input)
        gens = _parse_generators(args.generators, f.bound)
        report = _fitted(args.generators, small_object_factorize, f, gens, args.stages)
        return ser.factorization_to_doc(report)
    if cmd == "hpushout":
        doc = _load(args.input)
        f = ser.smap_from_doc(doc.get("f", {}), args.input + ".f")
        g = ser.smap_from_doc(doc.get("g", {}), args.input + ".g")
        P, _, _, _ = _fitted(args.input, homotopy_pushout, f, g)
        return ser.sset_to_doc(P)
    if cmd == "homology":
        X = ser.sset_from_doc(_load(args.input), args.input)
        return ser.homology_to_doc(homology(X, args.degree))
    if cmd == "pi1":
        X = ser.sset_from_doc(_load(args.input), args.input)
        base = args.basepoint if args.basepoint is not None else (X.cells[0][0] if X.cells[0] else None)
        if base is None:
            raise SchemaError(f"{args.input}: the simplicial set has no vertices")
        pres = pi1_presentation(X, base)
        return {
            "generators": list(pres.generators),
            "relations": [[[g, e] for g, e in w] for w in pres.relations],
        }
    if cmd == "evidence":
        f = ser.smap_from_doc(_load(args.input), args.input)
        return ser.evidence_to_doc(weak_equivalence_evidence(f, args.degree))
    if cmd == "evidence2":
        u = ser.tfun_from_doc(_load(args.input), args.input)
        return ser.evidence_to_doc(weak_equivalence_evidence2(u, args.max_dim, args.degree))
    if cmd == "localizer-check":
        U = ser.universe_from_doc(_load(args.universe), args.universe)
        W = ser.marked_from_doc(_load(args.marked), args.marked)
        return ser.violations_to_doc(violations(U, W))
    if cmd == "localizer-closure":
        U = ser.universe_from_doc(_load(args.universe), args.universe)
        W = ser.marked_from_doc(_load(args.marked), args.marked)
        return ser.marked_to_doc(closure(U, W, budget=args.budget))
    raise SchemaError(f"unknown command {cmd!r}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc = run(args)
    except NerveLabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _emit(doc, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
