"""Weak-saturation and localizer axiom checking; bounded closure."""

import json
from itertools import combinations
from pathlib import Path

import pytest

from nervelab.cat import (
    CatFunctor,
    arrow_category,
    discrete_category,
    identity_functor,
    slice_functor,
    terminal_category,
)
from nervelab.corpus import localizer_universe, localizer_universe_2
from nervelab.errors import DomainError
from nervelab.localizer import (
    DiagramUniverse,
    LocalizerViolation,
    MarkedClass,
    UniverseEdge,
    available_slice_triangles,
    check_final_collapse,
    check_slice_triangle,
    check_weak_saturation,
    closure,
    violations,
)
from nervelab.serialize import universe_from_doc, violations_to_doc
from nervelab.twocat import (
    as_two_category,
    as_two_functor,
    compose_two_functors,
    cosimplicial_operator,
    delta_tilde,
    identity_two_functor,
    slice_2category,
    slice_2functor,
    validate_2category,
    validate_two_functor,
)


@pytest.fixture(scope="module")
def U():
    return localizer_universe()


def all_edges(U):
    return MarkedClass(frozenset(U.edges))


def test_universe_has_terminal_and_identities(U):
    assert U.terminal_nodes() == ("e", "sliceA0")
    assert set(U.identity_edges) == set(U.nodes)


def test_all_marked_saturated(U):
    assert check_weak_saturation(U, all_edges(U)) == []


def test_missing_identity_is_reported(U):
    W = MarkedClass(frozenset(set(U.edges) - {"id_arrow"}))
    violations = check_weak_saturation(U, W)
    assert any(v.axiom == "identity" and v.witness["edge"] == "id_arrow" for v in violations)


def test_two_out_of_three_violation(U):
    # mark the section pair but not the composite identity
    W = MarkedClass(frozenset({"endpoint1", "col_arrow"}))
    violations = check_weak_saturation(U, W)
    assert any(v.axiom == "two-out-of-three" for v in violations)


def test_section_rule(U):
    # i . r marked, r . i the identity, i unmarked -> section violation
    W = MarkedClass(frozenset({"const1"}))
    violations = check_weak_saturation(U, W)
    assert any(v.axiom == "section" and v.witness["section"] == "endpoint1" for v in violations)


def test_final_collapse_requires_marking(U):
    violations = check_final_collapse(U, MarkedClass(frozenset()))
    nodes = {v.witness["node"] for v in violations}
    assert "arrow" in nodes and "chain2" in nodes and "retract" in nodes
    assert "discrete2" not in nodes  # no final object there
    assert check_final_collapse(U, all_edges(U)) == []


def test_slice_triangle_instance(U):
    # all slices marked but u unmarked -> violation; marking u clears it
    W = MarkedClass(frozenset({"u_slice0", "u_slice1"}))
    v = check_slice_triangle(U, "u", "id_arrow", "q", W)
    assert len(v) == 1 and v[0].witness["edge"] == "u"
    W2 = MarkedClass(frozenset({"u_slice0", "u_slice1", "u"}))
    assert check_slice_triangle(U, "u", "id_arrow", "q", W2) == []


def test_violation_witness_is_written_as_a_json_object(U):
    W = MarkedClass(frozenset({"u_slice0", "u_slice1"}))
    assert violations_to_doc(check_slice_triangle(U, "u", "id_arrow", "q", W)) == {"violations": [{
        "axiom": "slice-criterion",
        "witness": {"edge": "u", "triangle": ["u", "id_arrow", "q"],
                    "slices": [["0", "u_slice0"], ["1", "u_slice1"]]},
    }]}


def test_slice_triangle_requires_recorded_triangle(U):
    with pytest.raises(DomainError):
        check_slice_triangle(U, "u", "q", "u", MarkedClass(frozenset()))


@pytest.mark.parametrize("check", [
    closure, violations, check_weak_saturation, check_final_collapse,
    lambda U, W: check_slice_triangle(U, *available_slice_triangles(U)[0], W),
], ids=["closure", "violations", "weak-saturation", "final-collapse", "slice-triangle"])
def test_a_marked_id_that_is_not_an_edge_is_refused(check):
    U = universe_from_doc(json.loads((Path(__file__).parent / "data" / "universe.json").read_text()))
    with pytest.raises(DomainError, match="id 'ghost' is not an edge of the universe"):
        check(U, MarkedClass(frozenset({"u", "ghost"})))


def test_closure_from_empty(U):
    W = closure(U, MarkedClass(frozenset()))
    # every final-object collapse is marked
    for name in ("col_arrow", "col_chain2", "col_retract",
                 "col_sliceA0", "col_sliceA1", "col_sliceB0", "col_sliceB1"):
        assert name in W
    # the slice criterion propagated to u, then two-out-of-three to q
    assert "u" in W and "q" in W
    # unjustified edges stay unmarked
    assert "fold_discrete2" not in W
    assert "point_discrete2" not in W
    # and the output passes all the checkers
    assert violations(U, W) == []


def with_a_second_terminal_node(U):
    """U plus an isolated terminal node ``A_point`` and its identity edge."""
    point = terminal_category()
    return DiagramUniverse(1, {**U.nodes, "A_point": point}, {
        **U.edges, "id_A_point": UniverseEdge("id_A_point", "A_point", "A_point", identity_functor(point))})


def test_a_second_terminal_node_takes_no_collapse_edge_away(U):
    V = with_a_second_terminal_node(U)
    assert V.terminal_nodes() == ("A_point", "e", "sliceA0")
    assert closure(V, MarkedClass(frozenset())).edges == closure(U, MarkedClass(frozenset())).edges | {"id_A_point"}
    # every edge into any terminal node is a collapse edge, the identity of sliceA0 too
    W = MarkedClass(frozenset(V.edges) - {"col_arrow", "id_sliceA0"})
    assert check_final_collapse(V, W) == [
        LocalizerViolation("final-collapse", {"node": "arrow", "edge": "col_arrow"}),
        LocalizerViolation("final-collapse", {"node": "sliceA0", "edge": "id_sliceA0"})]


def test_closure_monotone_and_idempotent(U):
    W0 = closure(U, MarkedClass(frozenset()))
    W1 = closure(U, MarkedClass(frozenset({"fold_discrete2"})))
    assert W0.edges <= W1.edges
    assert closure(U, W0).edges == W0.edges


def test_closure_of_everything(U):
    W = closure(U, all_edges(U))
    assert W.edges == frozenset(U.edges)


def test_level_two_universe():
    U2 = localizer_universe_2()
    assert U2.terminal_nodes() == ("e2",)
    W = closure(U2, MarkedClass(frozenset()))
    for name in ("col_simplex2_1", "col_simplex2_2", "col_iota_arrow"):
        assert name in W
    assert "fold_iota_discrete2" not in W
    assert violations(U2, W) == []


def simplex_triangle_universe():
    """The level-2 triangle delta_tilde(1) -u-> delta_tilde(2) -q-> delta_tilde(1),
    whose composite p is the identity, with the slices of u over both objects."""
    u = cosimplicial_operator((0, 2), 2)
    q = cosimplicial_operator((0, 0, 1), 1)
    p = compose_two_functors(q, u)
    nodes = {"simplex2_1": delta_tilde(1), "simplex2_2": delta_tilde(2)}
    edges = {}

    def add(name, src, dst, functor):
        edges[name] = UniverseEdge(name, src, dst, functor)

    add("u", "simplex2_1", "simplex2_2", u)
    add("q", "simplex2_2", "simplex2_1", q)
    for c in p.target.objects:
        nodes[f"sliceA{c}"] = slice_2category(p, c)
        nodes[f"sliceB{c}"] = slice_2category(q, c)
        add(f"u_slice{c}", f"sliceA{c}", f"sliceB{c}", slice_2functor(u, p, q, c))
    for name, C in nodes.items():
        add(f"id_{name}", name, name, identity_two_functor(C))
    return DiagramUniverse(2, nodes, edges)


def included_universe(U):
    """i U for i = as_two_category, under the same names, plus one round of
    2-slices: for each recorded triangle (u, p, q) and object c of its base,
    the slices of i p and i q over c (once per edge and c, with identity
    edges) and the slice of i u between them.  Their names start with
    ``S:``, so they sort before every node of U."""
    nodes = {name: as_two_category(C) for name, C in U.nodes.items()}
    edges = {name: UniverseEdge(name, e.src, e.dst, as_two_functor(e.functor)) for name, e in U.edges.items()}
    for (u, q), p in sorted(U.composites.items()):
        iu, ip, iq = (edges[name].functor for name in (u, p, q))
        for c in U.nodes[U.edges[q].dst].objects:
            for name, v in ((p, ip), (q, iq)):
                node = f"S:{name}/{c}"
                if node not in nodes:
                    nodes[node] = slice_2category(v, c)
                    edges[f"id_{node}"] = UniverseEdge(f"id_{node}", node, node, identity_two_functor(nodes[node]))
            edges[f"S:{u}/{p}/{q}/{c}"] = UniverseEdge(
                f"S:{u}/{p}/{q}/{c}", f"S:{p}/{c}", f"S:{q}/{c}", slice_2functor(iu, ip, iq, c))
    return DiagramUniverse(2, nodes, edges)


def test_cat_and_2cat_closures_agree_through_the_inclusion(U):
    U2 = included_universe(U)
    assert (len(U2.nodes), len(U2.edges)) == (56, 155)
    moving = sorted(set(U.edges) - set(U.identity_edges.values()))
    assert len(moving) == 15
    for r in range(3):
        for seed in combinations(moving, r):
            S = MarkedClass(frozenset(seed))
            assert closure(U2, S).edges & U.edges.keys() == closure(U, S).edges, seed


def test_level_two_slice_criterion():
    U = simplex_triangle_universe()
    assert ("u", "id_simplex2_1", "q") in available_slice_triangles(U)
    for name in ("sliceA0", "sliceA1", "sliceB0", "sliceB1"):
        assert validate_2category(U.nodes[name]) == []
    for name in ("u_slice0", "u_slice1"):
        assert validate_two_functor(U.edges[name].functor) == []
    slices = MarkedClass(frozenset({"u_slice0", "u_slice1"}))
    violations = check_slice_triangle(U, "u", "id_simplex2_1", "q", slices)
    assert [v.witness["edge"] for v in violations] == ["u"]
    # the slice criterion marks u, then two-out-of-three marks q
    W = closure(U, slices)
    assert "u" in W and "q" in W
    assert check_slice_triangle(U, "u", "id_simplex2_1", "q", W) == []
    # one marked slice is not enough
    assert "u" not in closure(U, MarkedClass(frozenset({"u_slice0"})))


@pytest.mark.parametrize("make", [localizer_universe, localizer_universe_2, simplex_triangle_universe])
def test_slices_are_those_of_every_slice_functor(make):
    # the oracle builds the slice functor of every triangle over every
    # object and looks it up among all edges, as the definition reads
    U = make()
    build = slice_2functor if U.level == 2 else slice_functor
    want = {}
    for (u, q), p in sorted(U.composites.items()):
        pairs = want[(u, p, q)] = []
        for c in U.nodes[U.edges[q].dst].objects:
            uc = build(U.edges[u].functor, U.edges[p].functor, U.edges[q].functor, c)
            pairs.append((c, next((n for n, e in sorted(U.edges.items()) if e.functor == uc), None)))
            if pairs[-1][1] is None:
                break
    assert U._slices == want
    assert list(U._slices) == list(want)


# -- closure is the least fixed point of the checkers ---------------------------

def universe_of(nodes, functors):
    """A level-1 universe on ``nodes`` with the named ``(src, dst, functor)``
    edges plus one identity edge per node."""
    edges = {name: UniverseEdge(name, src, dst, F) for name, (src, dst, F) in functors.items()}
    for name, C in nodes.items():
        edges[f"id_{name}"] = UniverseEdge(f"id_{name}", name, name, identity_functor(C))
    return DiagramUniverse(1, nodes, edges)


def discrete_functor(A, B, objects):
    return CatFunctor(A, B, objects, {f"id_{a}": f"id_{b}" for a, b in objects.items()})


def section_universe():
    """i: A -> B includes {a, b} into {a, b, c}; r: B -> A and idem: B -> B
    both send c to a, so r . i = id_A and i . r = idem."""
    A, B = discrete_category(["a", "b"]), discrete_category(["a", "b", "c"])
    fold = {"a": "a", "b": "b", "c": "a"}
    return universe_of({"A": A, "B": B, "e": terminal_category()}, {
        "i": ("A", "B", discrete_functor(A, B, {"a": "a", "b": "b"})),
        "r": ("B", "A", discrete_functor(B, A, fold)),
        "idem": ("B", "B", discrete_functor(B, B, fold)),
    })


def no_terminal_universe():
    """The arrow category (it has a final object) and a discrete pair, with
    no terminal node, so the arrow's collapse edge is missing."""
    arrow, pair = arrow_category(), discrete_category(["a", "b"])
    return universe_of({"arrow": arrow, "discrete2": pair}, {
        "ends": ("discrete2", "arrow", discrete_functor(pair, arrow, {"a": "0", "b": "1"})),
        "const1": ("arrow", "arrow", CatFunctor(arrow, arrow, {"0": "1", "1": "1"},
                                                {"id_0": "id_1", "id_1": "id_1", "0<=1": "id_1"})),
    })


def must_mark(U, W):
    """The violations that name an edge to mark (all but missing edges)."""
    return [v for v in violations(U, W) if v.axiom != "missing-collapse-edge"]


def test_closure_marks_sections():
    U = section_universe()
    assert U.composites[("i", "r")] == "id_A" and U.composites[("r", "i")] == "idem"
    W = closure(U, MarkedClass(frozenset({"idem"})))
    assert W.edges == {"i", "id_A", "id_B", "id_e", "idem", "r"}
    assert check_weak_saturation(U, W) == []


def test_missing_terminal_node_reports_missing_collapse_edges():
    U = no_terminal_universe()
    assert U.terminal_nodes() == ()
    assert check_final_collapse(U, MarkedClass(frozenset())) == [
        LocalizerViolation("missing-collapse-edge", {"node": "arrow"})]
    W = closure(U, MarkedClass(frozenset()))
    assert W.edges == {"id_arrow", "id_discrete2"}
    assert [v.axiom for v in violations(U, W)] == ["missing-collapse-edge"]


@pytest.mark.parametrize("make", [section_universe, simplex_triangle_universe, no_terminal_universe])
def test_closure_is_the_least_closed_superset(make):
    U = make()
    names = sorted(U.edges)
    closed = [set(S) for r in range(len(names) + 1) for S in combinations(names, r)
              if not must_mark(U, MarkedClass(frozenset(S)))]
    for seed in [set()] + [{name} for name in names]:
        least = set(U.edges).intersection(*(S for S in closed if seed <= S))
        assert closure(U, MarkedClass(frozenset(seed))).edges == least


@pytest.mark.parametrize("make", [localizer_universe, localizer_universe_2])
def test_closure_leaves_nothing_to_mark(make):
    U = make()
    for seed in [frozenset()] + [frozenset({name}) for name in sorted(U.edges)]:
        W = closure(U, MarkedClass(seed))
        assert seed <= W.edges and must_mark(U, W) == []


def test_closure_with_no_budget_is_the_seed():
    U = section_universe()
    seed = MarkedClass(frozenset({"idem"}))
    assert closure(U, seed, budget=0) == seed
