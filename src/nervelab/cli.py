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
from pathlib import Path
from typing import Optional

from . import serialize as ser
from .cat import (
    FinCat,
    category_of_elements,
    has_final_object,
    identity_functor,
    nerve,
    slice_category,
    validate_category,
)
from .errors import NerveLabError, SchemaError
from .homology import (
    homology,
    pi1_presentation,
    weak_equivalence_evidence,
    weak_equivalence_evidence2,
)
from .lifting import find_lift, has_rlp, homotopy_pushout, small_object_factorize
from .localizer import (
    available_slice_triangles,
    check_final_collapse,
    check_slice_triangle,
    check_weak_saturation,
    closure,
)
from .presentations import cat_of, realize, twocat_of
from .simplicial import SimplicialMap, SimplicialSet, boundary, standard_simplex, validate
from .subdivision import alpha, beta, ex, sd
from .twocat import (
    Fin2Cat,
    TwoFunctor,
    delta_tilde,
    geometric_nerve,
    identity_two_functor,
    slice_2category,
    validate_2category,
)


def _load(path: str) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read file ({exc})") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def _refuse(path: str, violations: list[str]) -> None:
    if violations:
        raise SchemaError(f"{path}: {violations[0]} (the first of {len(violations)} violations)")


def _load_valid_sset(path: str) -> SimplicialSet:
    """An sset.v1 document that satisfies the simplicial identities."""
    X = ser.sset_from_doc(_load(path), path)
    _refuse(path, [f"level {v.level}, cell {v.cell!r}: {v.identity} {list(v.indices)}: {v.detail}"
                   for v in validate(X)])
    return X


def _load_valid_fincat(path: str) -> FinCat:
    """A fincat.v1 document that satisfies the category axioms."""
    C = ser.fincat_from_doc(_load(path), path)
    _refuse(path, validate_category(C))
    return C


def _load_valid_fin2cat(path: str) -> Fin2Cat:
    """A fin2cat.v1 document that satisfies the strict 2-category axioms."""
    C = ser.fin2cat_from_doc(_load(path), path)
    _refuse(path, validate_2category(C))
    return C


def _load_valid_tfun(path: str) -> TwoFunctor:
    """A tfun.v1 document between 2-categories that satisfy the strict
    2-category axioms, checked before the 2-functor laws are."""
    doc = _load(path)
    for side in ("source", "target"):
        if isinstance(doc.get(side), dict):
            where = f"{path}.{side}"
            _refuse(where, validate_2category(ser.fin2cat_from_doc(doc[side], where)))
    return ser.tfun_from_doc(doc, path)


def _emit(doc: dict, out: Optional[str]) -> None:
    text = ser.canonical_json(doc)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _boundary_generators(n_max: int, D: int) -> list[SimplicialMap]:
    gens = []
    for n in range(n_max + 1):
        A = boundary(n, D)
        B = standard_simplex(n, D)
        gens.append(
            SimplicialMap(A, B, {m: {c: c for c in A.cells[m]} for m in range(D + 1)},
                          check=False)
        )
    return gens


def _parse_generators(spec: str, D: int) -> list[SimplicialMap]:
    if spec.startswith("boundaries:"):
        return _boundary_generators(int(spec.split(":", 1)[1]), D)
    doc = _load(spec)
    entries = doc.get("generators")
    if not isinstance(entries, list):
        raise SchemaError(f"{spec}: missing key 'generators'")
    return [ser.smap_from_doc(e, f"generators[{i}]") for i, e in enumerate(entries)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nervelab",
        description="desk-scale nerves, subdivision, lifting and localizer checks",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["json"], default="json")
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
    p.add_argument("--budget", type=int, default=200)

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
        X = ser.sset_from_doc(_load(args.input), args.input)
        return ser.violations_to_doc(validate(X))
    if cmd == "nerve":
        return ser.sset_to_doc(nerve(_load_valid_fincat(args.input), args.max_dim))
    if cmd == "nerve2":
        return ser.sset_to_doc(geometric_nerve(_load_valid_fin2cat(args.input), args.max_dim))
    if cmd == "delta-tilde":
        return ser.fin2cat_to_doc(delta_tilde(args.n))
    if cmd == "sd":
        return ser.sset_to_doc(sd(_load_valid_sset(args.input))[0])
    if cmd == "ex":
        X = _load_valid_sset(args.input)
        D = X.dim_bound if args.max_dim is None else args.max_dim
        return ser.sset_to_doc(ex(X, D))
    if cmd == "alpha-beta":
        X = ser.sset_from_doc(_load(args.input), args.input)
        return {
            "alpha": ser.smap_to_doc(alpha(X)),
            "beta": ser.smap_to_doc(beta(X)),
        }
    if cmd == "cat-of":
        X = ser.sset_from_doc(_load(args.input), args.input)
        return ser.pres_to_doc(cat_of(X))
    if cmd == "twocat-of":
        X = ser.sset_from_doc(_load(args.input), args.input)
        return ser.pres_to_doc(twocat_of(X))
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
        C = ser.fincat_from_doc(_load(args.input), args.input)
        return {"final": has_final_object(C)}
    if cmd == "lift":
        problem = ser.lifting_problem_from_doc(_load(args.input), args.input)
        h = find_lift(problem)
        return {"lift": None if h is None else ser.smap_to_doc(h)}
    if cmd == "rlp":
        p = ser.smap_from_doc(_load(args.input), args.input)
        gens = _parse_generators(args.generators, p.source.dim_bound)
        ok, counterexample = has_rlp(p, gens)
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
        gens = _parse_generators(args.generators, f.source.dim_bound)
        return ser.factorization_to_doc(small_object_factorize(f, gens, args.stages))
    if cmd == "hpushout":
        doc = _load(args.input)
        f = ser.smap_from_doc(doc.get("f", {}), args.input + ".f")
        g = ser.smap_from_doc(doc.get("g", {}), args.input + ".g")
        P, _, _, _ = homotopy_pushout(f, g)
        return ser.sset_to_doc(P)
    if cmd == "homology":
        X = _load_valid_sset(args.input)
        return ser.homology_to_doc(homology(X, args.degree))
    if cmd == "pi1":
        X = _load_valid_sset(args.input)
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
        u = _load_valid_tfun(args.input)
        return ser.evidence_to_doc(weak_equivalence_evidence2(u, args.max_dim, args.degree))
    if cmd == "localizer-check":
        U = ser.universe_from_doc(_load(args.universe), args.universe)
        W = ser.marked_from_doc(_load(args.marked), args.marked)
        violations = list(check_weak_saturation(U, W))
        violations += check_final_collapse(U, W)
        for (u, p, q) in available_slice_triangles(U):
            violations += check_slice_triangle(U, u, p, q, W)
        return ser.violations_to_doc(violations)
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
