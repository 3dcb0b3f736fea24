"""The geometric nerve and the extension share one singular-complex
construction; its faces and degeneracies, read off by re-indexing, are
checked against the composite of the cell with the operator."""

import pytest

from nervelab.corpus import simplicial_objects, two_categories
from nervelab.simplicial import codegeneracy, coface, compose_maps
from nervelab.subdivision import ex_cells, sd_operator_map
from nervelab.twocat import compose_two_functors, cosimplicial_operator, geometric_nerve_cells


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


@pytest.mark.parametrize("name", sorted(two_categories()))
def test_geometric_nerve_operators_are_composites(name):
    N, table = geometric_nerve_cells(two_categories()[name], 3)
    assert_operators_are_composites(N, table, cosimplicial_operator, compose_two_functors)


@pytest.mark.parametrize("name", sorted(simplicial_objects(2)))
def test_ex_operators_are_composites(name):
    Y = simplicial_objects(2)[name]
    E, table = ex_cells(Y, 2)
    assert_operators_are_composites(
        E, table, lambda phi, n: sd_operator_map(phi, n, Y.dim_bound), compose_maps
    )
