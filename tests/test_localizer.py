"""Weak-saturation and localizer axiom checking; bounded closure."""

import pytest

from nervelab.corpus import localizer_universe, localizer_universe_2
from nervelab.errors import DomainError
from nervelab.localizer import (
    DiagramUniverse,
    MarkedClass,
    UniverseEdge,
    available_slice_triangles,
    check_final_collapse,
    check_slice_triangle,
    check_weak_saturation,
    closure,
)
from nervelab.twocat import (
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
    assert U.terminal_node() == "e"
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


def test_slice_triangle_requires_recorded_triangle(U):
    with pytest.raises(DomainError):
        check_slice_triangle(U, "u", "q", "u", MarkedClass(frozenset()))


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
    assert check_weak_saturation(U, W) == []
    assert check_final_collapse(U, W) == []
    for (u, p, q) in available_slice_triangles(U):
        assert check_slice_triangle(U, u, p, q, W) == []


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
    assert U2.terminal_node() == "e2"
    W = closure(U2, MarkedClass(frozenset()))
    for name in ("col_simplex2_1", "col_simplex2_2", "col_iota_arrow"):
        assert name in W
    assert "fold_iota_discrete2" not in W
    assert check_weak_saturation(U2, W) == []
    assert check_final_collapse(U2, W) == []


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
