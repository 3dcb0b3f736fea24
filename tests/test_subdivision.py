"""Barycentric subdivision, the bounded extension, and the comparison maps."""

import pytest

from nervelab.errors import ContractError
from nervelab.homology import weak_equivalence_evidence
from nervelab.simplicial import (
    SimplicialMap,
    boundary,
    compose_maps,
    count_maps,
    enumerate_simplicial_maps,
    find_simplicial_iso,
    horn,
    pushout,
    simplex_map,
    standard_simplex,
    validate,
    validate_map,
)
from nervelab.subdivision import (
    _sd_chains,
    alpha,
    beta,
    ex,
    ex_map,
    last_vertex,
    sd,
    sd_map,
    sd_simplex,
    transpose_from_ex,
    transpose_to_ex,
)


def circle(D=2):
    A = boundary(1, D)
    X = standard_simplex(0, D)
    Y = standard_simplex(1, D)
    f = SimplicialMap(A, X, {n: {c: X.cells[n][0] for c in A.cells[n]} for n in range(D + 1)})
    g = SimplicialMap(A, Y, {n: {c: c for c in A.cells[n]} for n in range(D + 1)})
    return pushout(f, g)


# -- subdivision ----------------------------------------------------------------

def test_sd_point():
    S, cert = sd(standard_simplex(0, 2))
    assert S.nondegenerate_counts() == (1, 0, 0)
    assert validate(S) == []


def test_sd_interval():
    S, _ = sd(standard_simplex(1, 2))
    assert S.nondegenerate_counts()[:2] == (3, 2)
    assert validate(S) == []


def test_sd_boundary_two_is_hexagon():
    S, _ = sd(boundary(2, 2))
    assert S.nondegenerate_counts() == (6, 6, 0)
    assert validate(S) == []


def test_sd_simplex_agrees_with_glued_subdivision():
    for n in range(3):
        direct = sd_simplex(n, 2)
        glued, _ = sd(standard_simplex(n, 2))
        assert find_simplicial_iso(direct, glued) is not None


def test_sd_twice_interval():
    S1, cert1 = sd(standard_simplex(1, 2))
    S2, _ = sd(S1)
    assert S2.nondegenerate_counts()[:2] == (5, 4)


@pytest.mark.parametrize("builder", [
    lambda: standard_simplex(2, 2),
    lambda: boundary(2, 2),
    lambda: horn(2, 1, 2),
    lambda: circle()[0],
])
def test_sd_vertex_count_is_nondegenerate_count(builder):
    X = builder()
    S, cert = sd(X)
    assert len(S.level(0)) == sum(X.nondegenerate_counts())
    assert validate(S) == []
    for glue in cert.gluing.values():
        assert validate_map(glue) == []


# -- the last-vertex map -----------------------------------------------------------

def test_alpha_on_point_is_identity():
    X = standard_simplex(0, 2)
    a = alpha(X)
    assert a.levels[0] == {next(iter(a.levels[0])): "0"}


def test_alpha_sends_barycenter_to_last_vertex():
    X = standard_simplex(1, 2)
    S, cert = sd(X)
    a = alpha(X, cert)
    barycenter = cert.gluing[(1, "01")].levels[0]["01"]
    assert a.levels[0][barycenter] == "1"
    assert validate_map(a) == []


def test_alpha_is_simplicial_for_corpus():
    for X in [boundary(2, 2), horn(2, 0, 2), circle()[0]]:
        assert validate_map(alpha(X)) == []


def test_alpha_natural():
    # f: Delta_1 -> Delta_2 as the edge 02; alpha . sd(f) = f . alpha
    X = standard_simplex(1, 2)
    Y = standard_simplex(2, 2)
    f = simplex_map(Y, 1, "02")
    assert f.source == X
    SX, cx = sd(X)
    SY, cy = sd(Y)
    sf = sd_map(f, cx, cy)
    assert validate_map(sf) == []
    assert compose_maps(alpha(Y, cy), sf) == compose_maps(f, alpha(X, cx))


def test_alpha_homology_invariance_small():
    X = boundary(2, 3)
    S, cert = sd(X)
    r = weak_equivalence_evidence(alpha(X, cert), 1)
    assert r.all_pass()


# -- extension ------------------------------------------------------------------------

def test_ex_point():
    E = ex(standard_simplex(0, 2), 2)
    assert E.counts() == (1, 1, 1)


def test_ex_interval_level_one_count():
    # oracle: monotone assignments on the wedge poset {0} -> {01} <- {1}
    count = 0
    for v0 in range(2):
        for vm in range(2):
            for v1 in range(2):
                if v0 <= vm and v1 <= vm:
                    count += 1
    assert count == 5
    E = ex(standard_simplex(1, 1), 1)
    assert len(E.level(1)) == 5
    assert validate(E) == []


@pytest.mark.parametrize("pair", [
    (lambda: standard_simplex(1, 1), lambda: standard_simplex(1, 1)),
    (lambda: boundary(1, 1), lambda: standard_simplex(1, 1)),
    (lambda: standard_simplex(1, 1), lambda: boundary(1, 1)),
    (lambda: standard_simplex(2, 2), lambda: standard_simplex(1, 2)),
    (lambda: boundary(2, 2), lambda: standard_simplex(1, 2)),
])
def test_sd_ex_adjunction_counts(pair):
    X, Y = pair[0](), pair[1]()
    SX, cert = sd(X)
    lhs = count_maps(SX, Y)
    rhs = count_maps(X, ex(Y, X.dim_bound))
    assert lhs == rhs


def test_transposes_are_mutually_inverse():
    X = standard_simplex(1, 1)
    Y = standard_simplex(1, 1)
    SX, cert = sd(X)
    for F in enumerate_simplicial_maps(SX, Y):
        G = transpose_to_ex(F, cert, 1)
        assert validate_map(G) == []
        back = transpose_from_ex(G, cert, Y)
        assert back == F


def test_beta_is_transpose_of_alpha():
    for X in [standard_simplex(1, 1), boundary(1, 1), standard_simplex(2, 2)]:
        SX, cert = sd(X)
        b = beta(X)
        assert validate_map(b) == []
        assert transpose_from_ex(b, cert, X) == alpha(X, cert)
        assert transpose_to_ex(alpha(X, cert), cert, X.dim_bound) == b


def test_maps_into_ex_refuse_a_source_truncated_below_the_target():
    X, Y = standard_simplex(1, 1), standard_simplex(1, 2)
    SX, cert = sd(X)
    F = next(enumerate_simplicial_maps(SX, Y))
    with pytest.raises(ContractError, match="source truncated at 1, below the target's bound 2"):
        transpose_to_ex(F, cert, 1)
    inclusion = SimplicialMap(X, Y, {n: {c: c for c in X.cells[n]} for n in range(2)})
    with pytest.raises(ContractError, match="source truncated at 1, below the target's bound 2"):
        ex_map(inclusion, 1)


def test_sd_map_refuses_a_map_truncated_below_a_nondegenerate_cell():
    X = standard_simplex(2, 2)
    f = SimplicialMap(X, standard_simplex(1, 1), {n: {c: "0" * (n + 1) for c in X.cells[n]} for n in range(2)})
    with pytest.raises(ContractError, match="map truncated at 1, below the source's nondegenerate 2-cells"):
        sd_map(f, sd(X)[1], sd(f.target)[1])


def test_transpose_from_ex_refuses_an_ex_truncated_below_a_nondegenerate_cell():
    X = standard_simplex(2, 2)
    with pytest.raises(ContractError, match="ex truncated at 1, below the source's nondegenerate 2-cells"):
        transpose_from_ex(beta(X, 1), sd(X)[1], X)


def test_maps_into_ex_from_a_source_truncated_higher_land_in_ex():
    X, Y = standard_simplex(1, 2), standard_simplex(1, 1)
    SX, cert = sd(X)
    maps = list(enumerate_simplicial_maps(SX, Y))
    assert len(maps) == count_maps(X, ex(Y, 1)) == 5
    for F in maps:
        G = transpose_to_ex(F, cert, 1)
        assert validate_map(G) == []
        assert transpose_from_ex(G, cert, Y) == F
    for f in enumerate_simplicial_maps(X, Y):
        g = ex_map(f, 1)
        assert validate_map(g) == []
        assert compose_maps(g, beta(X, 1)) == compose_maps(beta(Y), f)


def test_beta_natural():
    X = standard_simplex(1, 1)
    Y = standard_simplex(1, 1)
    for f in enumerate_simplicial_maps(X, Y):
        lhs = compose_maps(ex_map(f, 1), beta(X))
        rhs = compose_maps(beta(Y), f)
        assert lhs == rhs


def test_last_vertex():
    assert last_vertex((frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2}))) == (0, 1, 2)
    assert last_vertex((frozenset({0, 2}),)) == (2,)
    chains = _sd_chains(2, 2)[1]
    assert chains["0.01.012"] == (frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2}))
    assert last_vertex(chains["02.012"]) == (2, 2)
