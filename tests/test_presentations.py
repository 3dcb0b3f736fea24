"""Categorification presentations, bounded rewriting, realization."""

import hashlib
import re

import pytest

from nervelab import presentations
from nervelab.cat import (
    arrow_category,
    chain_category,
    count_functors,
    discrete_category,
    find_cat_iso,
    monoid_category,
    nerve,
    parallel_pair_category,
    terminal_category,
)
from nervelab.errors import ContractError, DomainError
from nervelab.presentations import (
    CatPresentation,
    PresentedMap,
    TwoCatPresentation,
    WhiskerStep,
    cat_of,
    presented_inclusion,
    realize,
    realize_cat,
    realize_twocat,
    thomason_generators,
    twocat_of,
)
from nervelab.serialize import canonical_json, realize_result_to_doc
from nervelab.simplicial import (
    boundary,
    constant_map,
    count_maps,
    standard_simplex,
)
from nervelab.subdivision import sd
from nervelab.twocat import (
    as_two_category,
    count_two_functors,
    delta_tilde,
    find_2cat_iso,
    geometric_nerve,
    validate_2category,
)
from test_glue_and_chain_nerve import complex_sset


def z2_group():
    return monoid_category(["e", "t"], "e", lambda g, f: "e" if g == f else "t")


def retract_category():
    def mult(g, f):
        # objects a, b; i: a->b, r: b->a, r.i = id_a, i.r = e idempotent
        table = {
            ("r", "i"): "id_a", ("i", "r"): "e",
            ("e", "e"): "e", ("e", "i"): "i", ("r", "e"): "r",
        }
        return table[(g, f)]

    from nervelab.cat import FinCat

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


# -- the adjoint presentations -----------------------------------------------------

def test_cat_of_point():
    p = cat_of(standard_simplex(0, 2))
    assert p.objects == ("0",)
    assert p.generators == ()


def test_cat_of_boundary_two_is_free():
    p = cat_of(boundary(2, 2))
    assert len(p.generators) == 3
    assert p.relations == ()
    r = realize_cat(p)
    assert r.status == "finite"
    # free category on the three edges: no composite collapses
    assert len(r.category.arrows) == 3 + 3 + 1  # identities + edges + the one path


def test_cat_of_standard_two_has_relation():
    p = cat_of(standard_simplex(2, 2))
    assert len(p.relations) == 1
    r = realize_cat(p)
    assert r.status == "finite"
    assert find_cat_iso(r.category, chain_category(2)) is not None


# -- realize ------------------------------------------------------------------------

def test_realize_idempotent_monoid():
    p = CatPresentation(("x",), ("e",), {"e": "x"}, {"e": "x"}, ((("e", "e"), ("e",)),))
    r = realize_cat(p)
    assert r.status == "finite"
    assert len(r.category.arrows) == 2
    assert r.certificate["confluent"]


def test_realize_completes_critical_pairs_within_the_budget():
    # <a, b | ab = b, ba = a>: the overlaps aba and bab add aa -> a and bb -> b
    p = CatPresentation(("x",), ("a", "b"), {"a": "x", "b": "x"}, {"a": "x", "b": "x"},
                        ((("a", "b"), ("b",)), (("b", "a"), ("a",))))
    r = realize(p)
    assert r.status == "finite" and len(r.certificate["rules"]) == 4
    assert len(r.category.arrows) == 3
    r = realize(p, budget=1)
    assert (r.status, r.certificate) == ("unknown", {"reason": "completion budget exhausted"})


def test_completion_resolves_containment_overlaps():
    # <a, b, c | ab = c, b = a, aa = 1>: b inside ab gives c -> 1, and the
    # overlap aab of aa and ab gives ac -> a; the monoid is Z/2
    one = {g: "x" for g in "abc"}
    p = CatPresentation(("x",), ("a", "b", "c"), one, one,
                        ((("a", "b"), ("c",)), (("b",), ("a",)), (("a", "a"), ())))
    r = realize(p)
    assert r.status == "finite"
    assert r.certificate["rules"] == [[["a", "b"], ["c"]], [["b"], ["a"]], [["a", "a"], []],
                                      [["c"], []], [["a", "c"], ["a"]]]
    assert find_cat_iso(r.category, z2_group()) is not None
    # in Z/2 = {e, t}, a = b = t and c = e satisfy the relations, so the
    # realized arrows are the empty word and a
    assert r.category.arrows == ("[x|]", "[x|a]")


def test_a_presentation_without_relations_needs_no_completion_budget():
    pres = cat_of(standard_simplex(1, 1))
    assert pres.relations == ()
    tight = realize(pres, budget=0)
    assert (tight.status, tight.certificate) == ("finite", {"rules": [], "confluent": True})
    assert find_cat_iso(tight.category, arrow_category()) is not None
    assert canonical_json(realize_result_to_doc(tight)) == \
        canonical_json(realize_result_to_doc(realize(pres, budget=200)))


def test_realize_free_monoid_is_infinite():
    p = CatPresentation(("x",), ("t",), {"t": "x"}, {"t": "x"}, ())
    r = realize_cat(p)
    assert r.status == "infinite"
    assert r.witness == ["t"]


def test_realize_chain_presentation():
    p = CatPresentation(
        ("0", "1", "2"), ("f", "g"),
        {"f": "0", "g": "1"}, {"f": "1", "g": "2"}, ()
    )
    r = realize_cat(p)
    assert r.status == "finite"
    assert len(r.category.arrows) == 3 + 2 + 1


def test_realize_deterministic():
    p = cat_of(nerve(z2_group(), 2))
    r1 = realize_cat(p)
    r2 = realize_cat(p)
    assert r1.category == r2.category
    assert r1.certificate == r2.certificate


@pytest.mark.parametrize("builder", [
    terminal_category,
    arrow_category,
    lambda: chain_category(2),
    lambda: discrete_category(["a", "b"]),
    parallel_pair_category,
    z2_group,
    retract_category,
])
def test_counit_recovers_category(builder):
    C = builder()
    r = realize_cat(cat_of(nerve(C, 2)))
    assert r.status == "finite"
    assert find_cat_iso(r.category, C) is not None


def test_nerve_adjunction_counts():
    pairs = [
        (standard_simplex(1, 2), arrow_category()),
        (standard_simplex(2, 2), chain_category(2)),
        (boundary(2, 2), arrow_category()),
        (boundary(2, 2), chain_category(2)),
        (standard_simplex(1, 2), z2_group()),
    ]
    for X, C in pairs:
        r = realize_cat(cat_of(X))
        assert r.status == "finite"
        lhs = count_functors(r.category, C)
        rhs = count_maps(X, nerve(C, X.dim_bound))
        assert lhs == rhs


# -- the 2-categorical adjoint --------------------------------------------------------

def test_twocat_of_point():
    p = twocat_of(standard_simplex(0, 2))
    assert p.objects == ("0",)
    assert p.generators == () and p.two_generators == ()


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_realize_twocat_of_simplex_is_delta_tilde(n):
    X = standard_simplex(n, max(n, 3))
    r = realize_twocat(twocat_of(X))
    assert r.status == "finite"
    assert validate_2category(r.two_category) == []
    assert find_2cat_iso(r.two_category, delta_tilde(n)) is not None


def test_geometric_nerve_adjunction_counts():
    targets = [
        as_two_category(arrow_category()),
        as_two_category(chain_category(2)),
        delta_tilde(2),
    ]
    sources = [standard_simplex(1, 2), standard_simplex(2, 2), boundary(2, 2)]
    for X in sources:
        r = realize_twocat(twocat_of(X))
        assert r.status == "finite"
        for C in targets:
            lhs = count_two_functors(r.two_category, C)
            rhs = count_maps(X, geometric_nerve(C, X.dim_bound))
            assert lhs == rhs


def two_presentation(objects, arrows, cells, relations=()):
    """A 2-presentation from 1-generators ``{name: (src, dst)}`` and
    2-generators ``{name: (src path, dst path)}`` between nonempty paths."""
    return TwoCatPresentation(
        tuple(objects), tuple(arrows),
        {g: s for g, (s, _) in arrows.items()}, {g: d for g, (_, d) in arrows.items()},
        tuple(cells), {t: s for t, (s, _) in cells.items()}, {t: d for t, (_, d) in cells.items()},
        {t: (arrows[s[0]][0], arrows[s[-1]][1]) for t, (s, _) in cells.items()},
        tuple(relations),
    )


def test_interchange_makes_disjoint_whiskers_commute():
    # in hom(0, 4) the two triangles rewrite disjoint segments of 01.12.23.34;
    # without the interchange squares, applying both in either order would
    # give two 2-cells, and the hom 10 arrows instead of 9
    r = realize_twocat(twocat_of(complex_sset([(0, 1, 2), (2, 3, 4)], 2)))
    hom = r.two_category.hom[("0", "4")]
    assert (len(hom.objects), len(hom.arrows)) == (4, 9)


def test_realize_twocat_of_a_loop_is_infinite():
    r = realize_twocat(two_presentation(["0"], {"l": ("0", "0")}, {}))
    assert (r.status, r.witness, r.certificate) == ("infinite", ["l"], {"growth": "free 1-cell cycle"})


def test_realize_twocat_reports_each_budget_and_a_whisker_cycle(monkeypatch):
    # Delta^2 has seven 1-cells: one path per pair i <= j, and 0 -> 1 -> 2
    monkeypatch.setattr(presentations, "_MAX_ARROWS", 6)
    r = realize_twocat(twocat_of(standard_simplex(2, 2)))
    assert (r.status, r.certificate) == ("unknown", {"reason": "1-cell budget exhausted"})
    arrows = {"f": ("0", "1"), "g": ("0", "1")}
    cycle = two_presentation(["0", "1"], arrows, {"a": (("f",), ("g",)), "b": (("g",), ("f",))})
    r = realize_twocat(cycle)
    assert (r.status, r.certificate) == ("unknown", {"reason": "whisker graph has a cycle"})
    # hom(0, 1) has five edge-paths: the identities of f and g, and a, b, c
    three = two_presentation(["0", "1"], arrows, {t: (("f",), ("g",)) for t in "abc"})
    monkeypatch.setattr(presentations, "_MAX_ARROWS", 5)
    assert realize_twocat(three).status == "finite"
    monkeypatch.setattr(presentations, "_MAX_ARROWS", 4)
    r = realize_twocat(three)
    assert (r.status, r.certificate) == ("unknown", {"reason": "2-cell budget exhausted"})


def test_relation_sides_must_be_parallel():
    arrows = {"f": ("0", "1"), "g": ("0", "1"), "h": ("0", "1")}
    cells = {"a": (("f",), ("g",)), "b": (("f",), ("h",))}
    a, b = (WhiskerStep((), "a", ()),), (WhiskerStep((), "b", ()),)
    assert two_presentation(["0", "1"], arrows, cells).validate() == []
    # a: f => g and b: f => h end at different paths
    p = two_presentation(["0", "1"], arrows, cells, [(a, b)])
    assert p.validate() == ["relation 0: its sides are not parallel"]
    with pytest.raises(ContractError, match="relation 0: its sides are not parallel"):
        realize_twocat(p)
    # an empty side is an identity, which a: f => g is not
    assert two_presentation(["0", "1"], arrows, cells, [(a, ())]).validate() == [
        "relation 0: its sides are not parallel"]
    # b cannot follow a: it starts at f, not g
    assert two_presentation(["0", "1"], arrows, cells, [(a + b, a)]).validate() == [
        "relation 0: a side is not a composable whisker sequence"]


def test_a_two_generator_is_anchored_at_two_objects():
    ghost = TwoCatPresentation(("0",), (), {}, {}, ("t",), {"t": ()}, {"t": ()}, {"t": ("ghost", "ghost")}, ())
    assert ghost.validate() == ["2-generator 't' is anchored at ghost -> ghost, not at two objects"]
    with pytest.raises(ContractError, match="2-generator 't' is anchored at ghost -> ghost, not at two objects"):
        realize(ghost)
    # anchored at the object, it is a 2-cell from the identity to itself
    loop = TwoCatPresentation(("0",), (), {}, {}, ("t",), {"t": ()}, {"t": ()}, {"t": ("0", "0")}, ())
    assert loop.validate() == []


def test_a_listed_2_generator_needs_its_paths_and_anchor():
    arrows = {"f": ("0", "1"), "g": ("0", "1")}
    full = two_presentation(["0", "1"], arrows, {"a": (("f",), ("g",)), "t": (("f",), ("g",))})
    for row in ("two_src", "two_dst", "two_anchor"):
        rows = {name: dict(getattr(full, name)) for name in ("two_src", "two_dst", "two_anchor")}
        del rows[row]["t"]
        p = TwoCatPresentation(full.objects, full.generators, full.src, full.dst, full.two_generators,
                               rows["two_src"], rows["two_dst"], rows["two_anchor"], ())
        assert p.validate() == ["2-generator 't' has missing paths or anchor"], row
        with pytest.raises(ContractError, match="2-generator 't' has missing paths or anchor"):
            realize(p)


def test_a_relation_step_names_a_listed_2_generator():
    # t has rows but is not listed: the relation a = t must not be dropped
    arrows = {"f": ("0", "1"), "g": ("0", "1")}
    full = two_presentation(["0", "1"], arrows, {"a": (("f",), ("g",)), "t": (("f",), ("g",))},
                            [((WhiskerStep((), "a", ()),), (WhiskerStep((), "t", ()),))])
    unlisted = TwoCatPresentation(full.objects, full.generators, full.src, full.dst, ("a",), full.two_src,
                                  full.two_dst, full.two_anchor, full.relations)
    named = "relation step WhiskerStep(left=(), gen='t', right=()) names an unknown generator"
    assert unlisted.validate() == [named]
    with pytest.raises(ContractError, match=re.escape(named)):
        realize(unlisted)
    # listed, a = t leaves hom(0, 1) with the identities of f and g and one 2-cell f => g
    assert full.validate() == []
    r = realize(full)
    assert r.status == "finite" and len(r.two_category.hom[("0", "1")].arrows) == 3


def test_an_empty_relation_side_is_the_identity_at_the_other_sides_source():
    graph = (("x", "y"), ("e", "l"), {"e": "x", "l": "x"}, {"e": "y", "l": "x"})
    for rel, named in [(((), ("e",)), "relation () = ('e',) not parallel"),
                       ((("e",), ()), "relation ('e',) = () not parallel")]:
        p = CatPresentation(*graph, (rel,))
        assert p.validate() == [named]
        with pytest.raises(ContractError, match=re.escape(named)):
            realize(p)
    # the loop l may equal the identity at x: the arrows are id_x, id_y and e
    for rel in ((("l",), ()), ((), ("l",))):
        r = realize(CatPresentation(*graph, (rel,)))
        assert (r.status, r.category.arrows) == ("finite", ("[x|]", "[x|e]", "[y|]"))
    # two empty sides say nothing, and l stays free
    trivial = CatPresentation(*graph, (((), ()),))
    assert trivial.validate() == []
    r = realize(trivial)
    assert (r.status, r.witness) == ("infinite", ["l"])


@pytest.mark.parametrize("pres,named", [
    (CatPresentation(("x",), ("e",), {"e": "x"}, {}, ()), ["generator 'e' has missing endpoints"]),
    (CatPresentation(("x",), ("e",), {"e": "x"}, {"e": "z"}, ()), ["generator 'e' has missing endpoints"]),
    (CatPresentation(("x", "y"), ("e",), {"e": "x"}, {"e": "y"}, ((("e",), ("z",)),)),
     ["relation ('e',) = ('z',) names an unknown generator"]),
    (CatPresentation(("x", "y"), ("e", "f"), {"e": "x", "f": "x"}, {"e": "y", "f": "y"}, ((("e", "f"), ("e",)),)),
     ["path ('e', 'f') not composable"]),
    (CatPresentation(("x", "y"), ("e", "l"), {"e": "x", "l": "x"}, {"e": "y", "l": "x"}, ((("e",), ("l",)),)),
     ["relation ('e',) = ('l',) not parallel"]),
    (two_presentation(["0"], {"f": ("0", "9")}, {}), ["1-generator 'f' has missing endpoints"]),
    (TwoCatPresentation(("0", "1"), ("f",), {"f": "0"}, {"f": "1"}, ("t",), {"t": ("f",)}, {"t": ("z",)},
                        {"t": ("0", "1")}, ()),
     ["2-generator 't' has a path through an unknown 1-generator"]),
    (TwoCatPresentation(("0", "1"), ("f", "g"), {"f": "0", "g": "1"}, {"f": "1", "g": "0"}, ("t",),
                        {"t": ("f",)}, {"t": ("g",)}, {"t": ("0", "1")}, ()),
     ["2-generator 't' has a path ('g',) that does not run 0 -> 1"]),
    (two_presentation(["0", "1"], {"f": ("0", "1"), "g": ("0", "1")}, {"a": (("f",), ("g",))},
                      [((WhiskerStep((), "z", ()),), (WhiskerStep(("q",), "a", ()),))]),
     ["relation step WhiskerStep(left=(), gen='z', right=()) names an unknown generator",
      "relation step WhiskerStep(left=('q',), gen='a', right=()) names an unknown generator"]),
    # a left context that does not end where the 2-generator starts
    (two_presentation(["0", "1"], {"f": ("0", "1"), "g": ("0", "1")}, {"a": (("f",), ("g",))},
                      [((WhiskerStep(("f",), "a", ()),), ())]),
     ["relation 0: a side is not a composable whisker sequence"]),
], ids=["cat-source-only", "cat-foreign-target", "cat-unknown-generator", "cat-path-not-composable",
        "cat-not-parallel", "twocat-foreign-endpoint", "twocat-unknown-1-generator", "twocat-path-elsewhere",
        "twocat-unknown-steps", "twocat-left-context-elsewhere"])
def test_each_typing_fault_of_a_presentation_is_named(pres, named):
    assert pres.validate() == named
    with pytest.raises(ContractError, match=re.escape(named[0])):
        realize_cat(pres) if isinstance(pres, CatPresentation) else realize_twocat(pres)


@pytest.mark.parametrize("X,digest", [
    (standard_simplex(2, 2), "86a0744ec8ceeec7"),
    (boundary(3, 3), "2bbe23fc2eaa5725"),
    pytest.param(standard_simplex(3, 3), "38f8ff87759998aa", marks=pytest.mark.slow),
], ids=["simplex2", "boundary3", "simplex3"])
def test_realized_double_subdivisions_are_pinned(X, digest):
    """The realized c2 Sd^2 X, byte for byte."""
    doc = canonical_json(realize_result_to_doc(realize(twocat_of(sd(sd(X)[0])[0]))))
    assert hashlib.sha256(doc.encode()).hexdigest()[:16] == digest


# -- Thomason generators ----------------------------------------------------------------

def test_thomason_generator_zero():
    gens = thomason_generators(0, 1)
    assert len(gens) == 1
    g = gens[0]
    assert g.source.objects == ()
    assert len(g.target.objects) == 1


def test_thomason_generator_one_level_two():
    gens = thomason_generators(1, 2)
    g = gens[1]
    # doubly subdivided interval: discrete pair into the 4-edge path
    assert len(g.source.objects) == 2
    assert g.source.generators == ()
    assert len(g.target.objects) == 5
    assert len(g.target.generators) == 4
    assert g.target.two_generators == ()
    r = realize_twocat(g.target)
    assert r.status == "finite"
    assert g.validate() == []


def test_thomason_generator_two_level_one():
    gens = thomason_generators(2, 1)
    g = gens[2]
    # frozen counts: the twice-subdivided boundary is a 12-gon; the twice
    # subdivided triangle has 25 vertices, 60 edges, 36 triangles
    assert len(g.source.objects) == 12
    assert len(g.source.generators) == 12
    assert len(g.target.objects) == 25
    assert len(g.target.generators) == 60
    assert len(g.target.relations) == 36
    assert g.validate() == []


def test_the_level_two_inclusion_sends_each_2_generator_over_the_images_of_its_paths():
    g = thomason_generators(3, 2)[3]
    S, T = g.source, g.target
    assert len(g.two_generator_map) == len(S.two_generators) == 144
    assert set(g.two_generator_map.values()) <= set(T.two_generators)
    assert len(set(g.two_generator_map.values())) == 144  # the inclusion is injective
    for t, u in g.two_generator_map.items():
        assert T.two_src[u] == tuple(g.generator_map[e] for e in S.two_src[t])
        assert T.two_dst[u] == tuple(g.generator_map[e] for e in S.two_dst[t])
        assert T.two_anchor[u] == tuple(g.object_map[a] for a in S.two_anchor[t])
    assert g.validate() == []


def test_a_presented_map_names_what_it_cannot_map():
    loop = CatPresentation(("0",), ("a",), {"a": "0"}, {"a": "0"}, ())
    target = CatPresentation(("1",), ("b",), {"b": "1"}, {"b": "1"}, ())
    assert PresentedMap(loop, target, {"0": "1"}, {"a": "b"}).validate() == []
    assert PresentedMap(loop, target, {}, {"a": "b"}).validate() == [
        "object '0' unmapped or mapped outside the target",
        "generator 'a' image has wrong source", "generator 'a' image has wrong target"]
    assert PresentedMap(loop, target, {"0": "ghost"}, {"a": "b"}).validate()[0] == \
        "object '0' unmapped or mapped outside the target"
    assert PresentedMap(loop, target, {"0": "1"}, {"a": "ghost"}).validate() == [
        "generator 'a' -> 'ghost' is not from a source generator to a target generator"]
    assert PresentedMap(loop, target, {"0": "1"}, {"z": "b"}).validate() == [
        "generator 'z' -> 'b' is not from a source generator to a target generator",
        "generator 'a' unmapped"]


@pytest.mark.parametrize("level", [1, 2])
def test_every_thomason_generator_validates(level):
    assert [g.validate() for g in thomason_generators(3, level)] == [[]] * 4


def test_a_presented_map_names_each_unmapped_generator():
    g = thomason_generators(2, 1)[2]
    dropped = g.source.generators[5]
    generator_map = {e: h for e, h in g.generator_map.items() if e != dropped}
    broken = PresentedMap(g.source, g.target, g.object_map, generator_map)
    assert broken.validate() == [f"generator {dropped!r} unmapped"]
    g = thomason_generators(3, 2)[3]
    t = g.source.two_generators[7]
    two_map = {s: u for s, u in g.two_generator_map.items() if s != t}
    assert PresentedMap(g.source, g.target, g.object_map, g.generator_map, two_map).validate() == [
        f"2-generator {t!r} unmapped"]


def test_a_presented_map_types_each_2_generator_image():
    g = thomason_generators(3, 2)[3]
    S, T = g.source, g.target
    ghost = PresentedMap(S, T, g.object_map, g.generator_map, {t: "ghost" for t in g.two_generator_map})
    assert ghost.validate() == [
        f"2-generator {t!r} -> 'ghost' is not from a source 2-generator to a target 2-generator"
        for t in g.two_generator_map]
    assert len(ghost.validate()) == 144
    # a target 2-generator over other paths, or at another anchor, is no image
    t, u = next(iter(g.two_generator_map.items()))
    other_source = next(v for v in T.two_generators if T.two_anchor[v] == T.two_anchor[u]
                        and T.two_src[v] != T.two_src[u] and T.two_dst[v] == T.two_dst[u])
    elsewhere = next(v for v in T.two_generators if T.two_anchor[v] != T.two_anchor[u])
    for v, named in [(other_source, ["wrong source path"]),
                     (elsewhere, ["wrong source path", "wrong target path", "wrong anchor"])]:
        broken = PresentedMap(S, T, g.object_map, g.generator_map, {**g.two_generator_map, t: v})
        assert broken.validate() == [f"2-generator {t!r} image has {what}" for what in named]


def test_presented_inclusion_refuses_a_collapsed_edge_and_an_unknown_level():
    collapse = constant_map(standard_simplex(1, 1), standard_simplex(0, 1), "0")
    with pytest.raises(ContractError, match="generator '01' maps to a degenerate edge"):
        presented_inclusion(collapse, 1)
    with pytest.raises(ContractError, match="level must be 1 or 2"):
        thomason_generators(1, 3)


def test_realize_dispatch():
    assert realize(cat_of(standard_simplex(1, 1))).status == "finite"
    assert realize(twocat_of(standard_simplex(1, 2))).status == "finite"
    with pytest.raises(ContractError, match="not a presentation: SimplicialSet"):
        realize(standard_simplex(1, 2))


def test_budget_does_not_bound_a_two_presentation():
    # a 2-presentation has no 1-cell relations to complete
    pres = twocat_of(standard_simplex(3, 3))
    tight = realize(pres, budget=0)
    assert tight.status == "finite"
    assert canonical_json(realize_result_to_doc(tight)) == \
        canonical_json(realize_result_to_doc(realize(pres, budget=200)))


def a_dot_b_presentations():
    """Generators a: 0 -> 1, b: 1 -> 2 and one named ``a.b``: 0 -> 2, whose
    name is also the name of the word a.b."""
    graph = (("0", "1", "2"), ("a", "b", "a.b"), {"a": "0", "b": "1", "a.b": "0"},
             {"a": "1", "b": "2", "a.b": "2"})
    return CatPresentation(*graph, ()), TwoCatPresentation(*graph, (), {}, {}, {}, ())


@pytest.mark.parametrize("kind", [0, 1], ids=["cat", "twocat"])
def test_realize_refuses_two_words_of_one_name(kind):
    pres = a_dot_b_presentations()[kind]
    assert pres.validate() == []
    with pytest.raises(DomainError, match=r"\('0', \('a', 'b'\)\) and \('0', \('a\.b',\)\) "
                                          r"share the name '\[0\|a\.b\]'"):
        realize(pres)
