"""A deterministic catalog of small test objects.

Every generated suite (structural checks, adjunction counting, localizer
closure) runs over these fixed categories, 2-categories and simplicial
sets.  All categories here have at most 3 objects and at most 8 arrows;
the catalog is what "the corpus" means throughout the test suite.
"""

from __future__ import annotations

from .cat import (
    CatFunctor,
    FinCat,
    arrow_category,
    chain_category,
    compose_functors,
    discrete_category,
    identity_functor,
    monoid_category,
    parallel_pair_category,
    slice_category,
    slice_functor,
    terminal_category,
)
from .localizer import DiagramUniverse, UniverseEdge
from .simplicial import (
    SimplicialMap,
    SimplicialSet,
    boundary,
    horn,
    pushout,
    standard_simplex,
)
from .twocat import (
    Fin2Cat,
    as_two_category,
    delta_tilde,
    terminal_2category,
    two_functor_to_terminal,
)


def z2_group() -> FinCat:
    return monoid_category(["e", "t"], "e", lambda g, f: "e" if g == f else "t")


def z3_group() -> FinCat:
    return monoid_category(["0", "1", "2"], "0", lambda g, f: str((int(g) + int(f)) % 3))


def idempotent_monoid() -> FinCat:
    return monoid_category(["1", "p"], "1", lambda g, f: "1" if g == f == "1" else "p")


def span_category() -> FinCat:
    """s -> a, s -> b."""
    return FinCat(
        ["a", "b", "s"],
        ["id_a", "id_b", "id_s", "l", "r"],
        {"id_a": "a", "id_b": "b", "id_s": "s", "l": "s", "r": "s"},
        {"id_a": "a", "id_b": "b", "id_s": "s", "l": "a", "r": "b"},
        {
            ("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b", ("id_s", "id_s"): "id_s",
            ("l", "id_s"): "l", ("id_a", "l"): "l",
            ("r", "id_s"): "r", ("id_b", "r"): "r",
        },
        {"a": "id_a", "b": "id_b", "s": "id_s"},
    )


def cospan_category() -> FinCat:
    """a -> t <- b."""
    return FinCat(
        ["a", "b", "t"],
        ["id_a", "id_b", "id_t", "l", "r"],
        {"id_a": "a", "id_b": "b", "id_t": "t", "l": "a", "r": "b"},
        {"id_a": "a", "id_b": "b", "id_t": "t", "l": "t", "r": "t"},
        {
            ("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b", ("id_t", "id_t"): "id_t",
            ("id_t", "l"): "l", ("l", "id_a"): "l",
            ("id_t", "r"): "r", ("r", "id_b"): "r",
        },
        {"a": "id_a", "b": "id_b", "t": "id_t"},
    )


def retract_category() -> FinCat:
    """i: a -> b with retraction r and idempotent e = i.r on b."""
    return FinCat(
        ["a", "b"],
        ["id_a", "id_b", "i", "r", "e"],
        {"id_a": "a", "id_b": "b", "i": "a", "r": "b", "e": "b"},
        {"id_a": "a", "id_b": "b", "i": "b", "r": "a", "e": "b"},
        {
            ("id_a", "id_a"): "id_a", ("id_b", "id_b"): "id_b",
            ("i", "id_a"): "i", ("id_b", "i"): "i",
            ("r", "id_b"): "r", ("id_a", "r"): "r",
            ("e", "id_b"): "e", ("id_b", "e"): "e",
            ("r", "i"): "id_a", ("i", "r"): "e",
            ("e", "e"): "e", ("e", "i"): "i", ("r", "e"): "r",
        },
        {"a": "id_a", "b": "id_b"},
    )


def categories() -> dict[str, FinCat]:
    """The category corpus, in a fixed order."""
    return {
        "terminal": terminal_category(),
        "arrow": arrow_category(),
        "chain2": chain_category(2),
        "discrete2": discrete_category(["a", "b"]),
        "discrete3": discrete_category(["a", "b", "c"]),
        "parallel": parallel_pair_category(),
        "span": span_category(),
        "cospan": cospan_category(),
        "z2": z2_group(),
        "z3": z3_group(),
        "idempotent": idempotent_monoid(),
        "retract": retract_category(),
    }


LOOP_FREE = (
    "terminal", "arrow", "chain2", "discrete2", "discrete3",
    "parallel", "span", "cospan",
)

WITH_FINAL_OBJECT = ("terminal", "arrow", "chain2", "cospan", "retract")


def _two_object_2cat(H: FinCat) -> Fin2Cat:
    """Objects a, b; hom(a, b) is H and hom(a, a), hom(b, b) are trivial."""
    triv = terminal_2category().hom[("*", "*")]
    one, idone = triv.objects[0], triv.arrows[0]
    hcompose1 = {(x, x, x, one, one): one for x in "ab"}
    hcompose2 = {(x, x, x, idone, idone): idone for x in "ab"}
    for f in H.objects:
        hcompose1[("a", "a", "b", one, f)] = hcompose1[("a", "b", "b", f, one)] = f
    for al in H.arrows:
        hcompose2[("a", "a", "b", idone, al)] = hcompose2[("a", "b", "b", al, idone)] = al
    return Fin2Cat(["a", "b"], {("a", "a"): triv, ("b", "b"): triv, ("a", "b"): H},
                   hcompose1, hcompose2, {"a": one, "b": one})


def single_two_cell_2cat() -> Fin2Cat:
    """Objects a, b; hom(a, b) the walking arrow (one nonidentity 2-cell)."""
    return _two_object_2cat(FinCat(
        ["u", "v"],
        ["id_u", "id_v", "m"],
        {"id_u": "u", "id_v": "v", "m": "u"},
        {"id_u": "u", "id_v": "v", "m": "v"},
        {
            ("id_u", "id_u"): "id_u", ("id_v", "id_v"): "id_v",
            ("m", "id_u"): "m", ("id_v", "m"): "m",
        },
        {"u": "id_u", "v": "id_v"},
    ))


def two_categories() -> dict[str, Fin2Cat]:
    out = {"terminal2": terminal_2category()}
    for n in range(4):
        out[f"simplex2_{n}"] = delta_tilde(n)
    for name in ("terminal", "arrow", "chain2", "discrete2", "parallel", "z2"):
        out[f"iota_{name}"] = as_two_category(categories()[name])
    out["single2cell"] = single_two_cell_2cat()
    return out


def nonthin_two_categories() -> dict[str, Fin2Cat]:
    """2-categories with parallel 2-cells, where every corpus entry above
    has at most one 2-cell between two 1-cells.  They are kept apart
    because their geometric nerves have no closed-form level counts.

    * ``z2_on_unit``: one object, one 1-cell, and the 2-cells the group
      Z/2 under both compositions; N2 levels 1, 1, 2, 8, 64, 1024.
    * ``parallel_2cells``: objects a, b and two parallel 2-cells f, g
      between the 1-cells 0, 1 of hom(a, b); N2 levels 2, 4, 10, 24, 54, 116.
    """
    z2 = z2_group()
    (one,) = z2.objects
    z2_on_unit = Fin2Cat(
        ["*"], {("*", "*"): z2}, {("*", "*", "*", one, one): one},
        {("*", "*", "*", al, be): z2.compose[(al, be)] for al in z2.arrows for be in z2.arrows},
        {"*": one},
    )
    return {"z2_on_unit": z2_on_unit, "parallel_2cells": _two_object_2cat(parallel_pair_category())}


# ---------------------------------------------------------------------------
# simplicial corpus
# ---------------------------------------------------------------------------

def circle(D: int = 2) -> SimplicialSet:
    """One vertex, one nondegenerate edge."""
    A = boundary(1, D)
    X = standard_simplex(0, D)
    Y = standard_simplex(1, D)
    f = SimplicialMap(A, X, {n: {c: X.cells[n][0] for c in A.cells[n]} for n in range(D + 1)})
    g = SimplicialMap(A, Y, {n: {c: c for c in A.cells[n]} for n in range(D + 1)})
    return pushout(f, g)[0]


def simplicial_objects(D: int = 2) -> dict[str, SimplicialSet]:
    out = {}
    for n in range(min(D, 3) + 1):
        out[f"simplex{n}"] = standard_simplex(n, D)
    for n in range(1, min(D, 3) + 1):
        out[f"boundary{n}"] = boundary(n, D)
    out["horn21"] = horn(2, 1, D)
    out["circle"] = circle(D)
    return out


# ---------------------------------------------------------------------------
# a localizer universe
# ---------------------------------------------------------------------------

def to_terminal_functor(C: FinCat) -> CatFunctor:
    T = terminal_category()
    return CatFunctor(
        C, T, {a: "*" for a in C.objects}, {f: "id_*" for f in C.arrows}, check=False
    )


def localizer_universe() -> DiagramUniverse:
    """A level-1 universe with 11 nodes: the slice criterion is exercised by
    the triangle arrow -> chain2 -> arrow over the arrow category, whose
    slices are present as nodes."""
    arrow = arrow_category()
    chain2 = chain_category(2)
    e = terminal_category()
    disc2 = discrete_category(["a", "b"])
    retract = retract_category()

    u = CatFunctor(arrow, chain2, {"0": "0", "1": "2"},
                   {"id_0": "id_0", "id_1": "id_2", "0<=1": "0<=2"})
    q = CatFunctor(chain2, arrow, {"0": "0", "1": "0", "2": "1"},
                   {"id_0": "id_0", "id_1": "id_0", "id_2": "id_1",
                    "0<=1": "id_0", "0<=2": "0<=1", "1<=2": "0<=1"})
    p = compose_functors(q, u)  # the identity on the arrow category

    slice_a0, _ = slice_category(p, "0")
    slice_a1, _ = slice_category(p, "1")
    slice_b0, _ = slice_category(q, "0")
    slice_b1, _ = slice_category(q, "1")
    u0 = slice_functor(u, p, q, "0")
    u1 = slice_functor(u, p, q, "1")

    nodes: dict[str, FinCat] = {
        "e": e,
        "arrow": arrow,
        "chain2": chain2,
        "discrete2": disc2,
        "retract": retract,
        "z2": z2_group(),
        "parallel": parallel_pair_category(),
        "sliceA0": slice_a0,
        "sliceA1": slice_a1,
        "sliceB0": slice_b0,
        "sliceB1": slice_b1,
    }
    edges: dict[str, UniverseEdge] = {}

    def add(name: str, src: str, dst: str, functor: CatFunctor) -> None:
        edges[name] = UniverseEdge(name, src, dst, functor)

    for name, C in nodes.items():
        add(f"id_{name}", name, name, identity_functor(C))
    for name in ("arrow", "chain2", "retract", "sliceA0", "sliceA1", "sliceB0", "sliceB1"):
        add(f"col_{name}", name, "e", to_terminal_functor(nodes[name]))
    add("fold_discrete2", "discrete2", "e", to_terminal_functor(disc2))
    add("point_discrete2", "e", "discrete2",
        CatFunctor(e, disc2, {"*": "a"}, {"id_*": "id_a"}))
    add("u", "arrow", "chain2", u)
    add("q", "chain2", "arrow", q)
    add("endpoint1", "e", "arrow", CatFunctor(e, arrow, {"*": "1"}, {"id_*": "id_1"}))
    add("const1", "arrow", "arrow",
        CatFunctor(arrow, arrow, {"0": "1", "1": "1"},
                   {"id_0": "id_1", "id_1": "id_1", "0<=1": "id_1"}))
    add("u_slice0", "sliceA0", "sliceB0", u0)
    add("u_slice1", "sliceA1", "sliceB1", u1)
    return DiagramUniverse(1, nodes, edges)


def localizer_universe_2() -> DiagramUniverse:
    """A small level-2 universe: the 2-simplices and an inclusion image."""
    e2 = terminal_2category()
    d1 = delta_tilde(1)
    d2 = delta_tilde(2)
    iarrow = as_two_category(arrow_category())
    idisc = as_two_category(discrete_category(["a", "b"]))
    nodes = {"e2": e2, "simplex2_1": d1, "simplex2_2": d2,
             "iota_arrow": iarrow, "iota_discrete2": idisc}
    edges: dict[str, UniverseEdge] = {}

    def add(name, src, dst, functor):
        edges[name] = UniverseEdge(name, src, dst, functor)

    from .twocat import identity_two_functor

    for name, C in nodes.items():
        add(f"id_{name}", name, name, identity_two_functor(C))
    for name in ("simplex2_1", "simplex2_2", "iota_arrow"):
        add(f"col_{name}", name, "e2", two_functor_to_terminal(nodes[name]))
    add("fold_iota_discrete2", "iota_discrete2", "e2", two_functor_to_terminal(idisc))
    return DiagramUniverse(2, nodes, edges)
