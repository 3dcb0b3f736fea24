"""Canonical JSON serialization for every interchange type.

All documents use sorted keys, sorted entry arrays and no insignificant
whitespace, so identical values serialize to identical bytes.  Parsers
raise :class:`~nervelab.errors.SchemaError` naming the offending key.

Document shapes (see README for examples):

* ``sset.v1``     {"dim_bound", "cells", "face", "degeneracy"}
* ``smap.v1``     {"source", "target", "levels"}
* ``fincat.v1``   {"objects", "arrows", "compose", "identity"}
* ``cfun.v1``     {"source", "target", "objects", "arrows"}
* ``fin2cat.v1``  {"objects", "hom", "hcompose1", "hcompose2", "unit"}
* ``tfun.v1``     {"source", "target", "objects", "on1", "on2"}
* ``pres.v1``     {"kind", "objects", "generators", "relations", ...}
* ``universe.v1`` {"level", "nodes", "edges"} / ``marked.v1`` {"marked"}
"""

from __future__ import annotations

import json
from typing import Any

from .cat import CatFunctor, FinCat
from .errors import SchemaError
from .homology import EvidenceReport, HomologyReport
from .lifting import FactorizationReport
from .localizer import DiagramUniverse, MarkedClass, UniverseEdge
from .presentations import (
    CatPresentation,
    RealizeResult,
    TwoCatPresentation,
    WhiskerStep,
)
from .simplicial import SimplicialMap, SimplicialSet, Violation
from .twocat import Fin2Cat, TwoFunctor


def canonical_json(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _need(doc: dict, key: str, kind: type, where: str):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object")
    if key not in doc:
        raise SchemaError(f"{where}: missing key {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise SchemaError(f"{where}.{key}: expected {kind.__name__}")
    return value


# -- simplicial sets -----------------------------------------------------------

def sset_to_doc(X: SimplicialSet) -> dict:
    return {
        "dim_bound": X.dim_bound,
        "cells": {str(n): list(X.cells[n]) for n in range(X.dim_bound + 1)},
        "face": sorted([n, i, src, dst] for (n, i, src), dst in X.face.items()),
        "degeneracy": sorted([n, i, src, dst] for (n, i, src), dst in X.degeneracy.items()),
    }


def sset_from_doc(doc: dict, where: str = "sset") -> SimplicialSet:
    D = _need(doc, "dim_bound", int, where)
    cells_doc = _need(doc, "cells", dict, where)
    cells = {}
    for key, ids in cells_doc.items():
        if not key.isdigit():
            raise SchemaError(f"{where}.cells: level key {key!r} is not a number")
        if not isinstance(ids, list):
            raise SchemaError(f"{where}.cells.{key}: expected a list")
        cells[int(key)] = [str(c) for c in ids]
    face = {}
    for entry in _need(doc, "face", list, where):
        if not (isinstance(entry, list) and len(entry) == 4):
            raise SchemaError(f"{where}.face: entries must be [n, i, src, dst]")
        n, i, src, dst = entry
        face[(int(n), int(i), str(src))] = str(dst)
    degeneracy = {}
    for entry in _need(doc, "degeneracy", list, where):
        if not (isinstance(entry, list) and len(entry) == 4):
            raise SchemaError(f"{where}.degeneracy: entries must be [n, i, src, dst]")
        n, i, src, dst = entry
        degeneracy[(int(n), int(i), str(src))] = str(dst)
    return SimplicialSet(D, cells, face, degeneracy)


def smap_to_doc(f: SimplicialMap) -> dict:
    return {
        "source": sset_to_doc(f.source),
        "target": sset_to_doc(f.target),
        "levels": {str(n): dict(f.levels[n]) for n in f.levels},
    }


def smap_from_doc(doc: dict, where: str = "smap") -> SimplicialMap:
    source = sset_from_doc(_need(doc, "source", dict, where), where + ".source")
    target = sset_from_doc(_need(doc, "target", dict, where), where + ".target")
    levels_doc = _need(doc, "levels", dict, where)
    levels = {}
    for key, table in levels_doc.items():
        if not key.isdigit():
            raise SchemaError(f"{where}.levels: level key {key!r} is not a number")
        levels[int(key)] = {str(k): str(v) for k, v in table.items()}
    return SimplicialMap(source, target, levels)


# -- categories ------------------------------------------------------------------

def fincat_to_doc(C: FinCat) -> dict:
    return {
        "objects": list(C.objects),
        "arrows": [
            {"id": f, "src": C.src[f], "dst": C.dst[f]} for f in C.arrows
        ],
        "compose": sorted([g, f, gf] for (g, f), gf in C.compose.items()),
        "identity": dict(sorted(C.identity.items())),
    }


def fincat_from_doc(doc: dict, where: str = "fincat") -> FinCat:
    objects = [str(o) for o in _need(doc, "objects", list, where)]
    arrows = []
    src = {}
    dst = {}
    for entry in _need(doc, "arrows", list, where):
        name = _need(entry, "id", str, where + ".arrows[]")
        arrows.append(name)
        src[name] = _need(entry, "src", str, where + ".arrows[]")
        dst[name] = _need(entry, "dst", str, where + ".arrows[]")
    compose = {}
    for entry in _need(doc, "compose", list, where):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise SchemaError(f"{where}.compose: entries must be [g, f, gf]")
        g, f, gf = (str(x) for x in entry)
        compose[(g, f)] = gf
    identity = {
        str(k): str(v) for k, v in _need(doc, "identity", dict, where).items()
    }
    return FinCat(objects, arrows, src, dst, compose, identity)


def cfun_to_doc(F: CatFunctor) -> dict:
    return {
        "source": fincat_to_doc(F.source),
        "target": fincat_to_doc(F.target),
        "objects": dict(F.objects),
        "arrows": dict(F.arrows),
    }


def cfun_from_doc(doc: dict, where: str = "cfun") -> CatFunctor:
    return CatFunctor(
        fincat_from_doc(_need(doc, "source", dict, where), where + ".source"),
        fincat_from_doc(_need(doc, "target", dict, where), where + ".target"),
        {str(k): str(v) for k, v in _need(doc, "objects", dict, where).items()},
        {str(k): str(v) for k, v in _need(doc, "arrows", dict, where).items()},
    )


# -- 2-categories ------------------------------------------------------------------

def fin2cat_to_doc(C: Fin2Cat) -> dict:
    return {
        "objects": list(C.objects),
        "hom": sorted(
            [a, b, fincat_to_doc(H)] for (a, b), H in C.hom.items()
        ),
        "hcompose1": sorted(list(k) + [v] for k, v in C.hcompose1.items()),
        "hcompose2": sorted(list(k) + [v] for k, v in C.hcompose2.items()),
        "unit": dict(sorted(C.unit.items())),
    }


def fin2cat_from_doc(doc: dict, where: str = "fin2cat") -> Fin2Cat:
    objects = [str(o) for o in _need(doc, "objects", list, where)]
    hom = {}
    for entry in _need(doc, "hom", list, where):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise SchemaError(f"{where}.hom: entries must be [a, b, fincat]")
        a, b, sub = entry
        hom[(str(a), str(b))] = fincat_from_doc(sub, f"{where}.hom[{a},{b}]")
    hcompose1 = {}
    for entry in _need(doc, "hcompose1", list, where):
        if not (isinstance(entry, list) and len(entry) == 6):
            raise SchemaError(f"{where}.hcompose1: entries must have 6 fields")
        a, b, c, f, g, h = (str(x) for x in entry)
        hcompose1[(a, b, c, f, g)] = h
    hcompose2 = {}
    for entry in _need(doc, "hcompose2", list, where):
        if not (isinstance(entry, list) and len(entry) == 6):
            raise SchemaError(f"{where}.hcompose2: entries must have 6 fields")
        a, b, c, f, g, h = (str(x) for x in entry)
        hcompose2[(a, b, c, f, g)] = h
    unit = {str(k): str(v) for k, v in _need(doc, "unit", dict, where).items()}
    return Fin2Cat(objects, hom, hcompose1, hcompose2, unit)


def tfun_to_doc(F: TwoFunctor) -> dict:
    return {
        "source": fin2cat_to_doc(F.source),
        "target": fin2cat_to_doc(F.target),
        "objects": dict(F.objects),
        "on1": sorted(list(k) + [v] for k, v in F.on1.items()),
        "on2": sorted(list(k) + [v] for k, v in F.on2.items()),
    }


def _cell_table(doc: dict, key: str, where: str) -> dict[tuple[str, str, str], str]:
    """Parse an ``on1``/``on2`` list of ``[a, b, cell, image]`` entries."""
    table = {}
    for entry in _need(doc, key, list, where):
        if not (isinstance(entry, list) and len(entry) == 4):
            raise SchemaError(f"{where}.{key}: entries must be [a, b, cell, image]")
        a, b, f, v = (str(x) for x in entry)
        table[(a, b, f)] = v
    return table


def tfun_from_doc(doc: dict, where: str = "tfun") -> TwoFunctor:
    source = fin2cat_from_doc(_need(doc, "source", dict, where), where + ".source")
    target = fin2cat_from_doc(_need(doc, "target", dict, where), where + ".target")
    objects = {str(k): str(v) for k, v in _need(doc, "objects", dict, where).items()}
    return TwoFunctor(
        source, target, objects, _cell_table(doc, "on1", where), _cell_table(doc, "on2", where)
    )


# -- presentations --------------------------------------------------------------------

def pres_to_doc(p) -> dict:
    if isinstance(p, CatPresentation):
        return {
            "kind": "cat",
            "objects": list(p.objects),
            "generators": [
                {"id": g, "src": p.src[g], "dst": p.dst[g]} for g in p.generators
            ],
            "relations": sorted([list(l), list(r)] for l, r in p.relations),
        }
    if isinstance(p, TwoCatPresentation):
        return {
            "kind": "twocat",
            "objects": list(p.objects),
            "generators": [
                {"id": g, "src": p.src[g], "dst": p.dst[g]} for g in p.generators
            ],
            "two_generators": [
                {
                    "id": t,
                    "src": list(p.two_src[t]),
                    "dst": list(p.two_dst[t]),
                    "anchor": list(p.two_anchor[t]),
                }
                for t in p.two_generators
            ],
            "relations2": [
                [
                    [
                        {"left": list(s.left), "gen": s.gen, "right": list(s.right)}
                        for s in side
                    ]
                    for side in rel
                ]
                for rel in p.relations
            ],
        }
    raise SchemaError(f"not a presentation: {type(p).__name__}")


def pres_from_doc(doc: dict, where: str = "pres"):
    kind = _need(doc, "kind", str, where)
    objects = tuple(str(o) for o in _need(doc, "objects", list, where))
    generators = []
    src = {}
    dst = {}
    for entry in _need(doc, "generators", list, where):
        g = _need(entry, "id", str, where + ".generators[]")
        generators.append(g)
        src[g] = _need(entry, "src", str, where + ".generators[]")
        dst[g] = _need(entry, "dst", str, where + ".generators[]")
    if kind == "cat":
        relations = tuple(
            (tuple(l), tuple(r)) for l, r in _need(doc, "relations", list, where)
        )
        return CatPresentation(objects, tuple(generators), src, dst, relations)
    if kind == "twocat":
        two_generators = []
        two_src = {}
        two_dst = {}
        two_anchor = {}
        for entry in _need(doc, "two_generators", list, where):
            t = _need(entry, "id", str, where + ".two_generators[]")
            two_generators.append(t)
            two_src[t] = tuple(entry.get("src", ()))
            two_dst[t] = tuple(entry.get("dst", ()))
            anchor = entry.get("anchor", [])
            if len(anchor) != 2:
                raise SchemaError(f"{where}.two_generators[].anchor: need two objects")
            two_anchor[t] = (str(anchor[0]), str(anchor[1]))
        relations = []
        for rel in _need(doc, "relations2", list, where):
            sides = []
            for side in rel:
                steps = tuple(
                    WhiskerStep(tuple(s["left"]), str(s["gen"]), tuple(s["right"]))
                    for s in side
                )
                sides.append(steps)
            relations.append((sides[0], sides[1]))
        return TwoCatPresentation(
            objects, tuple(generators), src, dst,
            tuple(two_generators), two_src, two_dst, two_anchor, tuple(relations),
        )
    raise SchemaError(f"{where}.kind: unknown presentation kind {kind!r}")


def realize_result_to_doc(r: RealizeResult) -> dict:
    doc: dict = {"status": r.status, "certificate": r.certificate}
    if r.category is not None:
        doc["category"] = fincat_to_doc(r.category)
    if r.two_category is not None:
        doc["two_category"] = fin2cat_to_doc(r.two_category)
    if r.witness is not None:
        doc["witness"] = r.witness
    return doc


# -- universes ---------------------------------------------------------------------

def universe_to_doc(U: DiagramUniverse) -> dict:
    node_doc = []
    for name, C in sorted(U.nodes.items()):
        node_doc.append([name, fincat_to_doc(C) if U.level == 1 else fin2cat_to_doc(C)])
    edge_doc = []
    for name, e in sorted(U.edges.items()):
        if U.level == 1:
            fun = {"objects": dict(e.functor.objects), "arrows": dict(e.functor.arrows)}
        else:
            fun = {
                "objects": dict(e.functor.objects),
                "on1": sorted(list(k) + [v] for k, v in e.functor.on1.items()),
                "on2": sorted(list(k) + [v] for k, v in e.functor.on2.items()),
            }
        edge_doc.append({"name": name, "src": e.src, "dst": e.dst, "functor": fun})
    return {"level": U.level, "nodes": node_doc, "edges": edge_doc}


def universe_from_doc(doc: dict, where: str = "universe") -> DiagramUniverse:
    level = _need(doc, "level", int, where)
    nodes = {}
    for entry in _need(doc, "nodes", list, where):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise SchemaError(f"{where}.nodes: entries must be [name, document]")
        name, sub = entry
        if level == 1:
            nodes[str(name)] = fincat_from_doc(sub, f"{where}.nodes[{name}]")
        else:
            nodes[str(name)] = fin2cat_from_doc(sub, f"{where}.nodes[{name}]")
    edges = {}
    for entry in _need(doc, "edges", list, where):
        name = _need(entry, "name", str, where + ".edges[]")
        src = _need(entry, "src", str, where + ".edges[]")
        dst = _need(entry, "dst", str, where + ".edges[]")
        fun = _need(entry, "functor", dict, where + ".edges[]")
        if src not in nodes or dst not in nodes:
            raise SchemaError(f"{where}.edges[{name}]: unknown endpoint node")
        fwhere = f"{where}.edges[{name}].functor"
        objects = {str(k): str(v) for k, v in _need(fun, "objects", dict, fwhere).items()}
        if level == 1:
            arrows = {str(k): str(v) for k, v in _need(fun, "arrows", dict, fwhere).items()}
            functor = CatFunctor(nodes[src], nodes[dst], objects, arrows)
        else:
            functor = TwoFunctor(
                nodes[src], nodes[dst], objects,
                _cell_table(fun, "on1", fwhere), _cell_table(fun, "on2", fwhere),
            )
        edges[name] = UniverseEdge(name, src, dst, functor)
    return DiagramUniverse(level, nodes, edges)


def marked_to_doc(W: MarkedClass) -> dict:
    return {"marked": sorted(W.edges)}


def marked_from_doc(doc: dict, where: str = "marked") -> MarkedClass:
    return MarkedClass(frozenset(str(x) for x in _need(doc, "marked", list, where)))


# -- reports -----------------------------------------------------------------------

def homology_to_doc(h: HomologyReport) -> dict:
    return {
        "degrees": {
            str(n): {"betti": b, "torsion": list(t)} for n, (b, t) in h.degrees.items()
        },
        "bound": h.bound,
    }


def evidence_to_doc(r: EvidenceReport) -> dict:
    return {
        "checks": dict(sorted(r.checks.items())),
        "witnesses": {k: repr(v) for k, v in sorted(r.witnesses.items())},
        "bound": r.bound,
    }


def violations_to_doc(violations) -> dict:
    out = []
    for v in violations:
        if isinstance(v, Violation):
            out.append(
                {
                    "identity": v.identity,
                    "level": v.level,
                    "indices": list(v.indices),
                    "cell": v.cell,
                    "detail": v.detail,
                }
            )
        else:
            out.append({"axiom": v.axiom, "witness": repr(v.witness)})
    return {"violations": out}


def factorization_to_doc(rep: FactorizationReport) -> dict:
    return {
        "middle": sset_to_doc(rep.middle),
        "left": smap_to_doc(rep.left),
        "right": smap_to_doc(rep.right),
        "attachments": [
            {"stage": a.stage, "generator": a.generator, "top": a.top, "bottom": a.bottom}
            for a in rep.attachments
        ],
        "residual": len(rep.residual),
        "stages": rep.stages,
        "bound": rep.bound,
    }
