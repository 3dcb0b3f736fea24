"""Canonical JSON serialization for every interchange type.

All documents use sorted keys, sorted entry arrays and no insignificant
whitespace, so identical values serialize to identical bytes.  The writer
escapes each distinct string once per document: a cell's name nests the
names of its images, so a nerve document repeats long names many times,
and each later occurrence copies the escaped form.

A parser returns a valid value or raises
:class:`~nervelab.errors.SchemaError`: it checks the shape of the document
and then the axioms of what it describes (the simplicial identities, the
category and strict 2-category axioms, naturality of every map and
functor, the typing of a presentation).  The message names the offending
key, or the first violation and how many there are.  Every id is a JSON
string, an integer field is no ``bool``, and a table lists each row once,
so that a document has one meaning.

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
from functools import lru_cache
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, Iterable

from .cat import CatFunctor, FinCat, _functor_problems, validate_category
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
from .simplicial import SimplicialMap, SimplicialSet, Violation, validate, validate_map
from .twocat import Fin2Cat, TwoFunctor, _two_functor_problems, validate_2category


def _unserializable(value: Any) -> None:
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


# json.dumps(doc, sort_keys=True, separators=(",", ":")) with its string
# escaper memoized, built once.  markers=None: the encoder would leave the
# ids of an unfinished document in a shared markers dict after an error.
_escaped = lru_cache(maxsize=None)(encode_basestring_ascii)
_encode = c_make_encoder(None, _unserializable, _escaped, None, ":", ",", True, False, True)


def canonical_json(doc: Any) -> str:
    try:
        return "".join(_encode(doc, 0)) + "\n"
    finally:
        _escaped.cache_clear()


def _need(doc: dict, key: str, kind: type, where: str):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object")
    if key not in doc:
        raise SchemaError(f"{where}: missing key {key!r}")
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool) and kind is int:
        raise SchemaError(f"{where}.{key}: expected {kind.__name__}")
    return value


def _strings(values: Iterable, where: str) -> Iterable:
    """``values``, refused unless each is a JSON string: the id ``0`` is
    not ``"0"``."""
    for x in values:
        if not isinstance(x, str):
            raise SchemaError(f"{where}: ids must be strings, got {json.dumps(x)}")
    return values


def _names(doc: dict, key: str, where: str) -> dict[str, str]:
    """The ``key`` object of ``doc``, a map from names to names."""
    names = dict(_need(doc, key, dict, where))
    _strings(names.values(), f"{where}.{key}")
    return names


def _path(doc: dict, key: str, where: str) -> tuple[str, ...]:
    """The ``key`` list of ``doc``, a path of generator names."""
    return tuple(_strings(_need(doc, key, list, where), f"{where}.{key}"))


def _distinct(ids: list[str], where: str) -> list[str]:
    """``ids``, refused if one of them is listed twice."""
    if len(set(ids)) < len(ids):
        seen: set[str] = set()
        for x in ids:
            if x in seen:
                raise SchemaError(f"{where}: id {x!r} is listed twice")
            seen.add(x)
    return ids


def _ids(doc: dict, key: str, where: str) -> list[str]:
    """The ``key`` list of ``doc``, of distinct ids."""
    return _distinct(list(_strings(_need(doc, key, list, where), f"{where}.{key}")), f"{where}.{key}")


def _table(doc: dict, key: str, shape: str, where: str) -> dict[tuple[str, ...], str]:
    """The ``key`` array of ``doc`` as a map from the leading names of each
    entry to its last one; ``shape`` lists the names, e.g. ``"[g, f, gf]"``.
    A row whose leading names are listed twice is refused."""
    width = shape.count(",") + 1
    at = f"{where}.{key}"
    table = {}
    for entry in _need(doc, key, list, where):
        if not (isinstance(entry, list) and len(entry) == width):
            raise SchemaError(f"{at}: entries must be {shape}")
        *cell, image = _strings(entry, at)
        row = tuple(cell)
        if row in table:
            raise SchemaError(f"{at}: row {row} is listed twice")
        table[row] = image
    return table


def _graph(doc: dict, key: str, where: str) -> tuple[list[str], dict[str, str], dict[str, str]]:
    """The ``key`` array of ``doc``, of ``{"id", "src", "dst"}`` objects:
    their ids with the source and target of each."""
    ids, src, dst = [], {}, {}
    for entry in _need(doc, key, list, where):
        name = _need(entry, "id", str, f"{where}.{key}[]")
        ids.append(name)
        src[name] = _need(entry, "src", str, f"{where}.{key}[]")
        dst[name] = _need(entry, "dst", str, f"{where}.{key}[]")
    return _distinct(ids, f"{where}.{key}"), src, dst


def _ends(doc: dict, end_from_doc, where: str) -> list:
    """The ``source`` and ``target`` of a map document, each parsed by ``end_from_doc``."""
    return [end_from_doc(_need(doc, side, dict, where), f"{where}.{side}")
            for side in ("source", "target")]


def _refuse(where: str, violations: list) -> None:
    """Raise the first of ``violations`` of the value read at ``where``."""
    if violations:
        raise SchemaError(f"{where}: {violations[0]} (the first of {len(violations)} violations)")


# -- simplicial sets -----------------------------------------------------------

def sset_to_doc(X: SimplicialSet) -> dict:
    return {
        "dim_bound": X.dim_bound,
        "cells": {str(n): list(X.cells[n]) for n in range(X.dim_bound + 1)},
        "face": _entries(X, X.faces),
        "degeneracy": _entries(X, X.degeneracies),
    }


def _entries(X: SimplicialSet, rows: tuple[dict[str, tuple], ...]) -> list[list]:
    """The operator rows of X as ``[n, i, src, dst]`` entries, written in
    sorted order: by level, index and then source, as each level is sorted."""
    return [[n, i, src, at[src][i]] for n, at in enumerate(rows) if at for i in range(n + 1) for src in X.cells[n]]


def _operators(doc: dict, key: str, where: str) -> list[list]:
    """The ``face`` or ``degeneracy`` array of an sset.v1 document, each
    entry checked to be ``[n, i, src, dst]``."""
    at = f"{where}.{key}"
    entries = _need(doc, key, list, where)
    for entry in entries:
        # type(...) is int: a bool is an int, and is refused
        if not (isinstance(entry, list) and len(entry) == 4 and type(entry[0]) is int and type(entry[1]) is int):
            raise SchemaError(f"{at}: entries must be [n, i, src, dst] with integer n, i")
        _strings(entry[2:], at)
    return entries


def _level(key: str, top: int, bound: str, where: str) -> int:
    """The level that a ``cells`` or ``levels`` key names, refused unless
    the key is the plain decimal of a level from 0 to ``top`` (``bound``
    names that limit): ``"01"`` would name level 1 a second time."""
    if not (key.isascii() and key.isdecimal()):
        raise SchemaError(f"{where}: level key {key!r} is not a number")
    if key != "0" and key.startswith("0"):
        raise SchemaError(f"{where}: level key {key!r} is not written in plain decimal")
    if len(key) > len(str(top)) or int(key) > top:
        raise SchemaError(f"{where}: level {key} above {bound}")
    return int(key)


def _read_sset(doc: dict, where: str) -> SimplicialSet:
    """The simplicial set of an sset.v1 document, checked for shape only:
    :func:`sset_from_doc` then checks its identities, and the CLI's
    ``validate`` lists the identities it breaks."""
    D = _need(doc, "dim_bound", int, where)
    if D < 0:
        raise SchemaError(f"{where}.dim_bound: must be >= 0, got {D}")
    cells = {}
    for key, ids in _need(doc, "cells", dict, where).items():
        n = _level(key, D, f"dim_bound {D}", f"{where}.cells")
        if not isinstance(ids, list):
            raise SchemaError(f"{where}.cells.{key}: expected a list")
        cells[n] = _distinct(list(_strings(ids, f"{where}.cells.{key}")), f"{where}.cells.{key}")
    face, degeneracy = _operators(doc, "face", where), _operators(doc, "degeneracy", where)
    # every level is listed, so the document's own size bounds D
    missing = next((n for n in range(D + 1) if n not in cells), None)
    if missing is not None:
        raise SchemaError(f"{where}.cells: level {missing} is not listed (every level 0..{D} must be)")
    return SimplicialSet(D, cells, _rows(face, cells, range(1, D + 1), f"{where}.face"),
                         _rows(degeneracy, cells, range(D), f"{where}.degeneracy"))


def _rows(entries: list[list], cells: dict[int, list[str]], levels: range,
          at: str) -> dict[int, dict[str, tuple]]:
    """The operator rows of the cells of ``levels`` from the entries read
    by :func:`_operators`, None where an entry is missing.  An entry
    outside those rows (at another level, past index n, or from a name that
    is not a cell of its level) or listed twice is refused."""
    rows = {n: {c: [None] * (n + 1) for c in cells[n]} for n in levels}
    for n, i, src, dst in entries:
        if n not in rows:
            raise SchemaError(f"{at}: row {(n, i, src)}: no level-{n} rows within dim_bound {len(cells) - 1}")
        if not 0 <= i <= n:
            raise SchemaError(f"{at}: row {(n, i, src)} has index {i} outside 0..{n}")
        row = rows[n].get(src)
        if row is None:
            raise SchemaError(f"{at}: row {(n, i, src)} is from {src!r}, not a cell of level {n}")
        if row[i] is not None:
            raise SchemaError(f"{at}: row {(n, i, src)} is listed twice")
        row[i] = dst
    return {n: {c: tuple(row) for c, row in level.items()} for n, level in rows.items()}


def sset_from_doc(doc: dict, where: str = "sset") -> SimplicialSet:
    X = _read_sset(doc, where)
    _refuse(where, validate(X))
    return X


def smap_to_doc(f: SimplicialMap) -> dict:
    return {
        "source": sset_to_doc(f.source),
        "target": sset_to_doc(f.target),
        "levels": {str(n): dict(f.levels[n]) for n in f.levels},
    }


def smap_from_doc(doc: dict, where: str = "smap") -> SimplicialMap:
    source, target = _ends(doc, sset_from_doc, where)
    top = min(source.dim_bound, target.dim_bound)
    levels = {}
    for key in _need(doc, "levels", dict, where):
        n = _level(key, top, "the bound of the map", f"{where}.levels")
        levels[n] = _names(doc["levels"], key, where + ".levels")
    f = SimplicialMap(source, target, levels, check=False)
    _refuse(where, validate_map(f))
    return f


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


def _read_fincat(doc: dict, where: str) -> FinCat:
    """The category of a fincat.v1 document, checked for shape only."""
    objects = _ids(doc, "objects", where)
    arrows, src, dst = _graph(doc, "arrows", where)
    compose = _table(doc, "compose", "[g, f, gf]", where)
    return FinCat(objects, arrows, src, dst, compose, _names(doc, "identity", where))


def fincat_from_doc(doc: dict, where: str = "fincat") -> FinCat:
    C = _read_fincat(doc, where)
    _refuse(where, validate_category(C))
    return C


def _assignments(F) -> dict:
    """What a functor or 2-functor assigns, as a cfun.v1 or tfun.v1 document
    (and the functor of a universe.v1 edge) lists it."""
    if isinstance(F, CatFunctor):
        return {"objects": dict(F.objects), "arrows": dict(F.arrows)}
    return {
        "objects": dict(F.objects),
        "on1": sorted(list(k) + [v] for k, v in F.on1.items()),
        "on2": sorted(list(k) + [v] for k, v in F.on2.items()),
    }


def cfun_to_doc(F: CatFunctor) -> dict:
    return {"source": fincat_to_doc(F.source), "target": fincat_to_doc(F.target), **_assignments(F)}


def _cat_functor(source: FinCat, target: FinCat, doc: dict, where: str) -> CatFunctor:
    """The functor between two valid categories that assigns the
    ``objects`` and ``arrows`` of ``doc``."""
    F = CatFunctor(source, target, _names(doc, "objects", where),
                   _names(doc, "arrows", where), check=False)
    _refuse(where, _functor_problems(F))
    return F


def cfun_from_doc(doc: dict, where: str = "cfun") -> CatFunctor:
    return _cat_functor(*_ends(doc, fincat_from_doc, where), doc, where)


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
    objects = _ids(doc, "objects", where)
    hom = {}
    for entry in _need(doc, "hom", list, where):
        if not (isinstance(entry, list) and len(entry) == 3):
            raise SchemaError(f"{where}.hom: entries must be [a, b, fincat]")
        row = tuple(_strings(entry[:2], f"{where}.hom"))
        if row in hom:
            raise SchemaError(f"{where}.hom: row {row} is listed twice")
        # each hom is checked as part of the 2-category, which names it
        hom[row] = _read_fincat(entry[2], f"{where}.hom[{row[0]},{row[1]}]")
    shape = "[a, b, c, f, g, gf]"
    C = Fin2Cat(objects, hom, _table(doc, "hcompose1", shape, where),
                _table(doc, "hcompose2", shape, where), _names(doc, "unit", where))
    _refuse(where, validate_2category(C))
    return C


def tfun_to_doc(F: TwoFunctor) -> dict:
    return {"source": fin2cat_to_doc(F.source), "target": fin2cat_to_doc(F.target), **_assignments(F)}


def _two_functor(source: Fin2Cat, target: Fin2Cat, doc: dict, where: str) -> TwoFunctor:
    """The 2-functor between two valid 2-categories that assigns the
    ``objects``, ``on1`` and ``on2`` of ``doc``."""
    shape = "[a, b, cell, image]"
    F = TwoFunctor(source, target, _names(doc, "objects", where),
                   _table(doc, "on1", shape, where), _table(doc, "on2", shape, where),
                   check=False)
    _refuse(where, _two_functor_problems(F))
    return F


def tfun_from_doc(doc: dict, where: str = "tfun") -> TwoFunctor:
    return _two_functor(*_ends(doc, fin2cat_from_doc, where), doc, where)


# -- presentations --------------------------------------------------------------------

def pres_to_doc(p) -> dict:
    if not isinstance(p, (CatPresentation, TwoCatPresentation)):
        raise SchemaError(f"not a presentation: {type(p).__name__}")
    doc = {
        "objects": list(p.objects),
        "generators": [{"id": g, "src": p.src[g], "dst": p.dst[g]} for g in p.generators],
    }
    if isinstance(p, CatPresentation):
        doc.update(kind="cat", relations=sorted([list(l), list(r)] for l, r in p.relations))
    else:
        doc.update(
            kind="twocat",
            two_generators=[
                {"id": t, "src": list(p.two_src[t]), "dst": list(p.two_dst[t]),
                 "anchor": list(p.two_anchor[t])}
                for t in p.two_generators
            ],
            relations2=[
                [[{"left": list(s.left), "gen": s.gen, "right": list(s.right)} for s in side]
                 for side in rel]
                for rel in p.relations
            ],
        )
    return doc


def _pairs(doc: dict, key: str, where: str) -> list[tuple[list, list]]:
    """The ``key`` array of ``doc``, of ``[lhs, rhs]`` pairs of lists."""
    pairs = _need(doc, key, list, where)
    for entry in pairs:
        if not (isinstance(entry, list) and len(entry) == 2
                and all(isinstance(side, list) for side in entry)):
            raise SchemaError(f"{where}.{key}: entries must be [lhs, rhs] lists")
    return pairs


def pres_from_doc(doc: dict, where: str = "pres"):
    kind = _need(doc, "kind", str, where)
    objects = tuple(_ids(doc, "objects", where))
    generators, src, dst = _graph(doc, "generators", where)
    if kind == "cat":
        relations = tuple(
            (tuple(_strings(lhs, f"{where}.relations")), tuple(_strings(rhs, f"{where}.relations")))
            for lhs, rhs in _pairs(doc, "relations", where)
        )
        p = CatPresentation(objects, tuple(generators), src, dst, relations)
    elif kind == "twocat":
        two_generators = []
        two_src = {}
        two_dst = {}
        two_anchor = {}
        for entry in _need(doc, "two_generators", list, where):
            twhere = where + ".two_generators[]"
            t = _need(entry, "id", str, twhere)
            two_generators.append(t)
            two_src[t] = _path(entry, "src", twhere) if "src" in entry else ()
            two_dst[t] = _path(entry, "dst", twhere) if "dst" in entry else ()
            anchor = entry.get("anchor", [])
            if not (isinstance(anchor, list) and len(anchor) == 2):
                raise SchemaError(f"{twhere}.anchor: need two objects")
            two_anchor[t] = tuple(_strings(anchor, f"{twhere}.anchor"))
        _distinct(two_generators, where + ".two_generators")
        swhere = where + ".relations2[]"
        relations = tuple(
            tuple(
                tuple(WhiskerStep(_path(s, "left", swhere), _need(s, "gen", str, swhere),
                                  _path(s, "right", swhere)) for s in side)
                for side in rel
            )
            for rel in _pairs(doc, "relations2", where)
        )
        p = TwoCatPresentation(
            objects, tuple(generators), src, dst,
            tuple(two_generators), two_src, two_dst, two_anchor, relations,
        )
    else:
        raise SchemaError(f"{where}.kind: unknown presentation kind {kind!r}")
    _refuse(where, p.validate())
    return p


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
    node_to_doc = fincat_to_doc if U.level == 1 else fin2cat_to_doc
    return {
        "level": U.level,
        "nodes": [[name, node_to_doc(C)] for name, C in sorted(U.nodes.items())],
        "edges": [
            {"name": name, "src": e.src, "dst": e.dst, "functor": _assignments(e.functor)}
            for name, e in sorted(U.edges.items())
        ],
    }


def universe_from_doc(doc: dict, where: str = "universe") -> DiagramUniverse:
    level = _need(doc, "level", int, where)
    if level not in (1, 2):
        raise SchemaError(f"{where}.level: must be 1 or 2, got {level}")
    node_from_doc, functor = (
        (fincat_from_doc, _cat_functor) if level == 1 else (fin2cat_from_doc, _two_functor)
    )
    nodes = {}
    for entry in _need(doc, "nodes", list, where):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise SchemaError(f"{where}.nodes: entries must be [name, document]")
        name, sub = entry
        _strings((name,), f"{where}.nodes")
        if name in nodes:
            raise SchemaError(f"{where}.nodes: id {name!r} is listed twice")
        nodes[name] = node_from_doc(sub, f"{where}.nodes[{name}]")
    edges = {}
    for entry in _need(doc, "edges", list, where):
        name = _need(entry, "name", str, where + ".edges[]")
        if name in edges:
            raise SchemaError(f"{where}.edges: id {name!r} is listed twice")
        src = _need(entry, "src", str, where + ".edges[]")
        dst = _need(entry, "dst", str, where + ".edges[]")
        fun = _need(entry, "functor", dict, where + ".edges[]")
        if src not in nodes or dst not in nodes:
            raise SchemaError(f"{where}.edges[{name}]: unknown endpoint node")
        edges[name] = UniverseEdge(
            name, src, dst, functor(nodes[src], nodes[dst], fun, f"{where}.edges[{name}].functor")
        )
    return DiagramUniverse(level, nodes, edges)


def marked_to_doc(W: MarkedClass) -> dict:
    return {"marked": sorted(W.edges)}


def marked_from_doc(doc: dict, where: str = "marked") -> MarkedClass:
    return MarkedClass(frozenset(_ids(doc, "marked", where)))


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
            out.append({"axiom": v.axiom, "witness": {k: _listed(w) for k, w in v.witness.items()}})
    return {"violations": out}


def _listed(value):
    """``value`` with its tuples, at any depth, as lists, as JSON reads them."""
    return [_listed(x) for x in value] if isinstance(value, (tuple, list)) else value


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
