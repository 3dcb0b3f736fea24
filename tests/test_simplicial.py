"""Core simplicial structure: generation, identities, colimits, products.

Expected values tagged in comments as frozen come from the independent
oracles defined at the top of this file (brute-force enumeration), not
from the code under test.
"""

from itertools import product as iproduct

import pytest

from nervelab import corpus
from nervelab.errors import BoundError, ContractError, DomainError
from nervelab.simplicial import (
    SimplicialMap,
    SimplicialSet,
    boundary,
    components,
    compose_maps,
    constant_map,
    empty_simplicial_set,
    enumerate_simplicial_maps,
    find_simplicial_iso,
    horn,
    identity_map,
    product,
    product_projections,
    pushout,
    pushout_induced,
    simplex_map,
    simplicial_operator,
    standard_simplex,
    validate,
    validate_map,
)


# -- independent oracles ----------------------------------------------------

def verify_pushout(f, g, P, inj_x, inj_y):
    """Exhaustively check the defining properties of a computed pushout:
    the square commutes and every cell of P is reached by an injection."""
    if compose_maps(inj_x, f) != compose_maps(inj_y, g):
        return False
    reached = {(n, r) for inj in (inj_x, inj_y) for n in inj.levels for r in inj.levels[n].values()}
    return all((n, c) in reached for n in range(P.dim_bound + 1) for c in P.cells[n])


def oracle_monotone_count(m, n):
    """Count monotone [m] -> [n] by filtering the full function space."""
    return sum(
        1
        for f in iproduct(range(n + 1), repeat=m + 1)
        if all(f[i] <= f[i + 1] for i in range(m))
    )


def oracle_enumerate_maps(X, Y):
    """All simplicial maps X -> Y by filtering all level functions.

    Exponential; only usable on tiny instances.  Completely independent of
    the constrained search in the library.
    """
    bound = min(X.dim_bound, Y.dim_bound)
    per_level = []
    for n in range(bound + 1):
        src = X.cells[n]
        tgt = Y.cells[n]
        per_level.append([dict(zip(src, choice)) for choice in iproduct(tgt, repeat=len(src))])
    found = []
    for combo in iproduct(*per_level):
        levels = {n: combo[n] for n in range(bound + 1)}
        ok = True
        for n in range(1, bound + 1):
            for c in X.cells[n]:
                for i in range(n + 1):
                    if Y.d(n, i, levels[n][c]) != levels[n - 1][X.d(n, i, c)]:
                        ok = False
        for n in range(bound):
            for c in X.cells[n]:
                for i in range(n + 1):
                    if Y.s(n, i, levels[n][c]) != levels[n + 1][X.s(n, i, c)]:
                        ok = False
        if ok:
            found.append(levels)
    return found


# -- generation -------------------------------------------------------------

def test_point_is_singleton_everywhere():
    X = standard_simplex(0, 3)
    assert X.counts() == (1, 1, 1, 1)
    assert X.nondegenerate_counts() == (1, 0, 0, 0)


def test_interval_level_sizes():
    X = standard_simplex(1, 1)
    assert len(X.level(1)) == 3  # frozen: oracle_monotone_count(1, 1)
    assert oracle_monotone_count(1, 1) == 3


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("m", range(5))
def test_simplex_level_sizes_match_monotone_counts(n, m):
    X = standard_simplex(n, 4)
    assert len(X.level(m)) == oracle_monotone_count(m, n)


def test_boundary_two_nondegenerate_counts():
    X = boundary(2, 2)
    assert X.nondegenerate_counts() == (3, 3, 0)


def test_horn_drops_one_face():
    X = horn(2, 1, 2)
    full = boundary(2, 2)
    assert X.nondegenerate_counts() == (3, 2, 0)
    assert set(X.level(1)) < set(full.level(1))


def test_has_cell():
    X = boundary(2, 3)
    assert X.has_cell(1, "01") and X.has_cell(3, "0000")
    assert not X.has_cell(2, "012") and not X.has_cell(1, "") and not X.has_cell(1, "99")
    assert not X.has_cell(-1, "0") and not X.has_cell(4, "00000")


def test_bound_errors():
    with pytest.raises(BoundError):
        standard_simplex(3, 2)
    with pytest.raises(DomainError):
        horn(2, 5, 3)


# -- validation -------------------------------------------------------------

@pytest.mark.parametrize("builder", [
    lambda: standard_simplex(2, 3),
    lambda: boundary(3, 3),
    lambda: horn(2, 0, 3),
    lambda: empty_simplicial_set(2),
])
def test_generated_objects_validate(builder):
    assert validate(builder()) == []


def test_simplicial_set_keeps_the_tables_it_is_given():
    X = standard_simplex(1, 2)
    Y = SimplicialSet(2, X.cells, dict(enumerate(X.faces)), dict(enumerate(X.degeneracies)))
    assert all(Y.faces[n] is X.faces[n] and Y.degeneracies[n - 1] is X.degeneracies[n - 1] for n in (1, 2))
    assert Y == X


def test_a_cell_named_by_the_empty_string_validates():
    from nervelab.serialize import sset_from_doc, sset_to_doc

    X = standard_simplex(0, 2)

    def renamed(c):
        return "" if c == "0" else c

    def rows(table):
        return {n: {renamed(c): tuple(map(renamed, row)) for c, row in level.items()} for n, level in enumerate(table)}

    Y = SimplicialSet(2, {n: [renamed(c) for c in cells] for n, cells in X.cells.items()},
                      rows(X.faces), rows(X.degeneracies))
    assert Y.cells[0] == ("",)
    assert validate(Y) == []
    assert sset_from_doc(sset_to_doc(Y)) == Y


def test_corrupted_face_is_reported():
    X = standard_simplex(1, 2)
    bad = dict(enumerate(X.faces))
    bad[1] = {**bad[1], "01": ("0", "0")}  # d_0 should be "1"
    from nervelab.simplicial import SimplicialSet

    Y = SimplicialSet(2, X.cells, bad, dict(enumerate(X.degeneracies)))
    violations = validate(Y)
    assert violations, "corruption must be detected"
    assert any("01" in v.cell or "01" in v.detail for v in violations)


# -- operators --------------------------------------------------------------

def test_simplicial_operator_on_simplex_is_composition():
    X = standard_simplex(2, 4)
    # phi: [3] -> [2], cell "012": image should be the digit string of phi
    for phi in [(0, 0, 1, 2), (0, 2, 2, 2), (1, 1, 1, 1)]:
        got = simplicial_operator(X, phi, 2, "012")
        assert got == "".join(str(v) for v in phi)


def test_simplicial_operator_rejects_bad_input():
    X = standard_simplex(2, 3)
    with pytest.raises(ContractError):
        simplicial_operator(X, (1, 0), 2, "012")
    with pytest.raises(DomainError):
        simplicial_operator(X, (0, 3), 2, "012")


@pytest.mark.parametrize("n", range(5))
def test_simplicial_operator_on_the_top_cell_is_the_digit_string(n):
    # the oracle: on the top cell of Delta_n, X(phi) is the cell named by
    # phi's own digit string, for every monotone phi: [m] -> [n] within the bound
    D = n + 1
    X = standard_simplex(n, D)
    top = "".join(str(v) for v in range(n + 1))
    checked = 0
    for m in range(D + 1):
        for phi in iproduct(range(n + 1), repeat=m + 1):
            if all(a <= b for a, b in zip(phi, phi[1:])):
                assert simplicial_operator(X, phi, n, top) == "".join(str(v) for v in phi)
                checked += 1
    assert checked == sum(oracle_monotone_count(m, n) for m in range(D + 1))


def test_simplicial_operator_errors_keep_their_precedence():
    X = standard_simplex(2, 3)
    # monotone before range before bound, whichever of them also fails
    for phi, error in [
        ((1, 0), ContractError),
        ((3, 0), ContractError),
        ((3, 0, 0, 0, 0), ContractError),
        ((0, 3), DomainError),
        ((0, 0, 0, 0, 3), DomainError),
        ((0, 0, 0, 1, 2), BoundError),
    ]:
        with pytest.raises(error):
            simplicial_operator(X, phi, 2, "012")
    # a word decomposed for a higher bound is still checked against a lower one
    assert simplicial_operator(X, (0, 0, 1, 2), 2, "012") == "0012"
    with pytest.raises(BoundError):
        simplicial_operator(standard_simplex(2, 2), (0, 0, 1, 2), 2, "012")


# -- maps -------------------------------------------------------------------

def test_simplex_map_classifies_cells():
    X = boundary(2, 2)
    f = simplex_map(X, 1, "01")
    assert f.levels[1]["01"] == "01"
    assert validate_map(f) == []


def test_identity_and_composition():
    X = standard_simplex(1, 2)
    i = identity_map(X)
    assert compose_maps(i, i) == i


def test_constant_map_valid():
    X = boundary(2, 3)
    P = standard_simplex(0, 3)
    f = constant_map(X, P, "0")
    assert validate_map(f) == []


# -- pushouts ---------------------------------------------------------------

def circle(D=2):
    """Delta_1 with both endpoints glued to a point."""
    A = boundary(1, D)
    X = standard_simplex(0, D)
    Y = standard_simplex(1, D)
    f = SimplicialMap(A, X, {n: {c: X.cells[n][0] for c in A.cells[n]} for n in range(D + 1)})
    incl = {n: {c: c for c in A.cells[n]} for n in range(D + 1)}
    g = SimplicialMap(A, Y, incl)
    return pushout(f, g)


def test_circle_pushout_counts():
    P, jx, jy = circle()
    assert P.nondegenerate_counts() == (1, 1, 0)
    assert validate(P) == []


def test_pushout_along_identity_is_target():
    A = boundary(2, 2)
    Y = standard_simplex(2, 2)
    g = SimplicialMap(A, Y, {n: {c: c for c in A.cells[n]} for n in range(3)})
    P, jx, jy = pushout(identity_map(A), g)
    assert find_simplicial_iso(P, Y) is not None


def test_interval_glued_end_to_start():
    # Delta_1 <- Delta_0 -> Delta_1, gluing end of one to start of the other
    A = standard_simplex(0, 2)
    Y1 = standard_simplex(1, 2)
    Y2 = standard_simplex(1, 2)
    f = constant_map(A, Y1, "1")
    g = constant_map(A, Y2, "0")
    P, _, _ = pushout(f, g)
    assert P.nondegenerate_counts() == (3, 2, 0)
    assert validate(P) == []


def test_pushout_symmetric_up_to_iso():
    P1, _, _ = circle()
    A = boundary(1, 2)
    X = standard_simplex(0, 2)
    Y = standard_simplex(1, 2)
    f = SimplicialMap(A, X, {n: {c: X.cells[n][0] for c in A.cells[n]} for n in range(3)})
    g = SimplicialMap(A, Y, {n: {c: c for c in A.cells[n]} for n in range(3)})
    P2, _, _ = pushout(g, f)
    assert find_simplicial_iso(P1, P2) is not None


def test_pushout_universal_property():
    A = boundary(1, 2)
    X = standard_simplex(0, 2)
    Y = standard_simplex(1, 2)
    f = SimplicialMap(A, X, {n: {c: X.cells[n][0] for c in A.cells[n]} for n in range(3)})
    g = SimplicialMap(A, Y, {n: {c: c for c in A.cells[n]} for n in range(3)})
    P, jx, jy = pushout(f, g)
    assert verify_pushout(f, g, P, jx, jy)
    # a cocone: collapse everything to the point
    W = standard_simplex(0, 2)
    u = constant_map(X, W, "0")
    v = constant_map(Y, W, "0")
    h = pushout_induced(P, (jx, u), (jy, v))
    assert compose_maps(h, jx) == u
    assert compose_maps(h, jy) == v


# -- products ---------------------------------------------------------------

def test_product_with_point_is_identity():
    for X in [standard_simplex(1, 2), boundary(2, 2), horn(2, 1, 2)]:
        P = product(X, standard_simplex(0, X.dim_bound))
        assert find_simplicial_iso(P, X) is not None


def test_square_level_one_size():
    P = product(standard_simplex(1, 2), standard_simplex(1, 2))
    assert len(P.level(1)) == 9  # frozen: 3 x 3 pairs of monotone [1] -> [1]
    assert validate(P) == []


def test_square_nondegenerate_two_cells():
    P = product(standard_simplex(1, 2), standard_simplex(1, 2))
    # frozen: the two (1,1)-shuffles
    assert len(P.nondegenerate(2)) == 2


@pytest.mark.parametrize("x", corpus.simplicial_objects(2))
def test_product_projections_are_maps_that_pair_each_cell_once(x):
    objects = corpus.simplicial_objects(2)
    X = objects[x]
    for Y in objects.values():
        px, py = product_projections(X, Y)
        assert px.source == py.source == product(X, Y)
        assert validate_map(px) == [] and validate_map(py) == []
        for n in range(px.source.dim_bound + 1):
            pairs = [(px.levels[n][c], py.levels[n][c]) for c in px.source.cells[n]]
            assert sorted(pairs) == sorted(iproduct(X.cells[n], Y.cells[n]))


def test_product_names_that_collide_are_an_error():
    X = SimplicialSet(0, {0: ["a", "a|b"]}, {}, {})
    Y = SimplicialSet(0, {0: ["c", "b|c"]}, {}, {})
    with pytest.raises(DomainError) as err:
        product(X, Y)
    assert "('a', 'b|c')" in str(err.value) and "('a|b', 'c')" in str(err.value)


# -- map enumeration cross-check against brute force -------------------------

@pytest.mark.parametrize("pair", [
    (lambda: standard_simplex(1, 1), lambda: standard_simplex(1, 1)),
    (lambda: boundary(1, 1), lambda: standard_simplex(1, 1)),
    (lambda: standard_simplex(0, 1), lambda: boundary(1, 1)),
])
def test_enumeration_matches_brute_force(pair):
    X, Y = pair[0](), pair[1]()
    fast = list(enumerate_simplicial_maps(X, Y))
    slow = oracle_enumerate_maps(X, Y)
    assert len(fast) == len(slow)
    fast_keys = {f.encode() for f in fast}
    assert len(fast_keys) == len(fast)


def test_enumeration_canonical_order_is_sorted():
    X = boundary(1, 1)
    Y = standard_simplex(1, 1)
    encoded = [f.encode() for f in enumerate_simplicial_maps(X, Y)]
    assert encoded == sorted(encoded)


def test_components():
    X = boundary(1, 1)  # two points
    comp = components(X)
    assert len(set(comp.values())) == 2
    P, _, _ = circle()
    assert len(set(components(P).values())) == 1
