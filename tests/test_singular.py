"""The geometric nerve and the extension share one singular-complex
construction; its faces and degeneracies, read off by re-indexing, are
checked against the composite of the cell with the operator.  The levels
of the geometric nerve above 3, joined from the level below, are checked
against the ones found by enumerating every 2-functor."""

import pytest

from nervelab.corpus import nonthin_two_categories, simplicial_objects, two_categories
from nervelab.simplicial import (
    _listed,
    _singular,
    codegeneracy,
    coface,
    compose_maps,
    enumerate_simplicial_maps,
    validate_map,
)
from nervelab.subdivision import ex_cells, ex_map, sd_operator_map
from nervelab.twocat import (
    compose_two_functors,
    cosimplicial_operator,
    delta_tilde,
    enumerate_two_functors,
    geometric_nerve_cells,
    geometric_nerve_functor,
)

TWO = {**two_categories(), **nonthin_two_categories()}


def assert_operators_are_composites(X, table, operator, compose):
    seen = 0
    for n in range(X.dim_bound + 1):
        for phi, lower, entries in (
            (coface, n - 1, X.face if n > 0 else None),
            (codegeneracy, n + 1, X.degeneracy if n < X.dim_bound else None),
        ):
            if entries is None:
                continue
            for i in range(n + 1):
                op = operator(phi(n, i), n)
                for cid in X.cells[n]:
                    expected = compose(table[(n, cid)], op).encode()
                    assert entries[(n, i, cid)] == expected
                    assert (lower, expected) in table
                    seen += 1
    assert seen == len(X.face) + len(X.degeneracy)


@pytest.mark.parametrize("name", sorted(TWO))
def test_geometric_nerve_operators_are_composites(name):
    N, table = geometric_nerve_cells(TWO[name], 4)
    assert_operators_are_composites(N, table, cosimplicial_operator, compose_two_functors)


@pytest.mark.parametrize("name", sorted(simplicial_objects(2)))
def test_ex_operators_are_composites(name):
    Y = simplicial_objects(2)[name]
    E, table = ex_cells(Y, 2)
    assert_operators_are_composites(
        E, table, lambda phi, n: sd_operator_map(phi, n, Y.dim_bound), compose_maps
    )


def enumerated_nerve_cells(C, D):
    """The geometric nerve with every level found by enumerating the
    2-functors out of delta_tilde(n)."""
    return _singular(
        D, lambda n, named, faces: _listed(enumerate_two_functors(delta_tilde(n), C)),
        cosimplicial_operator,
    )


@pytest.mark.parametrize("name,D", [(name, 5) for name in sorted(TWO) if name != "simplex2_3"] + [
    ("simplex2_3", 4),
    pytest.param("simplex2_3", 5, marks=pytest.mark.slow),
])
def test_coskeletal_levels_equal_enumerated_ones(name, D):
    N, table = geometric_nerve_cells(TWO[name], D)
    M, oracle = enumerated_nerve_cells(TWO[name], D)
    assert N.cells == M.cells
    assert N.face == M.face
    assert N.degeneracy == M.degeneracy
    assert table == oracle


@pytest.mark.parametrize("source,target,limit", [
    ("simplex2_2", "single2cell", None),
    ("simplex2_3", "simplex2_2", 1),
    ("z2_on_unit", "z2_on_unit", None),
    ("parallel_2cells", "single2cell", None),
    ("single2cell", "parallel_2cells", None),
])
def test_geometric_nerve_functor_names_the_composites(source, target, limit):
    for u in enumerate_two_functors(TWO[source], TWO[target], limit=limit):
        f = geometric_nerve_functor(u, 4)
        assert validate_map(f) == []
        _, table = geometric_nerve_cells(u.source, 4)
        for (n, cid), F in table.items():
            assert f.levels[n][cid] == compose_two_functors(u, F).encode()


@pytest.mark.parametrize("source,target", [
    ("boundary2", "circle"),
    ("horn21", "simplex2"),
    ("simplex2", "boundary2"),
])
def test_ex_map_names_the_composites(source, target):
    S = simplicial_objects(2)
    for f in enumerate_simplicial_maps(S[source], S[target]):
        g = ex_map(f, 1)
        assert validate_map(g) == []
        _, table = ex_cells(f.source, 1)
        for (n, cid), F in table.items():
            assert g.levels[n][cid] == compose_maps(f, F).encode()
