"""Categorification presentations, bounded rewriting, realization."""

import hashlib

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
    TwoCatPresentation,
    WhiskerStep,
    cat_of,
    realize,
    realize_cat,
    realize_twocat,
    thomason_generators,
    twocat_of,
)
from nervelab.serialize import canonical_json, realize_result_to_doc
from nervelab.simplicial import (
    boundary,
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


def test_realize_dispatch():
    assert realize(cat_of(standard_simplex(1, 1))).status == "finite"
    assert realize(twocat_of(standard_simplex(1, 2))).status == "finite"


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
