"""The six structure classes are values.

``==`` compares the tables a value was built from, in whatever order they
were given, and never the indexes derived from them.  Values are slotted and
unhashable, keep their short reprs, and a functor, 2-functor or simplicial
map is checked on construction unless ``check=False`` is passed.
"""

import pytest

from nervelab import corpus
from nervelab.cat import CatFunctor, FinCat
from nervelab.errors import ContractError
from nervelab.homology import HomologyReport
from nervelab.simplicial import SimplicialMap, SimplicialSet, boundary_inclusion
from nervelab.twocat import Fin2Cat, TwoFunctor, identity_two_functor


def backwards(table):
    return dict(reversed(list(table.items())))


def fincat_backwards(C):
    return FinCat(reversed(C.objects), reversed(C.arrows), backwards(C.src), backwards(C.dst),
                  backwards(C.compose), backwards(C.identity))


def fin2cat_backwards(C):
    """C rebuilt from reversed tables, with each empty hom given as a new
    empty category."""
    hom = {ab: fincat_backwards(H) if H.objects else FinCat([], [], {}, {}, {}, {})
           for ab, H in backwards(C.hom).items()}
    return Fin2Cat(reversed(C.objects), hom, backwards(C.hcompose1), backwards(C.hcompose2), backwards(C.unit))


def sset_backwards(X):
    D = X.dim_bound
    return SimplicialSet(D, {n: reversed(X.cells[n]) for n in reversed(range(D + 1))},
                         {n: backwards(X.faces[n]) for n in reversed(range(1, D + 1))},
                         {n: backwards(X.degeneracies[n]) for n in reversed(range(D))})


def values():
    """Per type: a value built from the corpus, its repr, the same value
    built from its data given in reverse order, and its derived tables."""
    C = corpus.categories()["parallel"]
    F = corpus.to_terminal_functor(C)
    K = corpus.two_categories()["simplex2_2"]
    G = identity_two_functor(K)
    X = corpus.simplicial_objects(2)["horn21"]
    f = boundary_inclusion(2, 2)
    return {
        "FinCat": (C, "FinCat(2 objects, 4 arrows)", fincat_backwards(C), ("_hom",)),
        "CatFunctor": (F, "CatFunctor(FinCat(2 objects, 4 arrows) -> FinCat(1 objects, 1 arrows))",
                       CatFunctor(fincat_backwards(C), fincat_backwards(F.target),
                                  backwards(F.objects), backwards(F.arrows)), ()),
        "Fin2Cat": (K, "Fin2Cat(3 objects, 7 one-cells)", fin2cat_backwards(K), ("_reach",)),
        "TwoFunctor": (G, "TwoFunctor(Fin2Cat(3 objects, 7 one-cells) -> Fin2Cat(3 objects, 7 one-cells))",
                       TwoFunctor(fin2cat_backwards(K), fin2cat_backwards(K),
                                  backwards(G.objects), backwards(G.on1), backwards(G.on2)), ()),
        "SimplicialSet": (X, "SimplicialSet(bound=2, cells=(3, 5, 7))", sset_backwards(X),
                          ("_nondeg", "_deg_of", "_over")),
        "SimplicialMap": (f, "SimplicialMap(SimplicialSet(bound=2, cells=(3, 6, 9)) -> "
                             "SimplicialSet(bound=2, cells=(3, 6, 10)))",
                          SimplicialMap(sset_backwards(f.source), sset_backwards(f.target),
                                        {n: backwards(level) for n, level in backwards(f.levels).items()}), ()),
    }


@pytest.mark.parametrize("name", values())
def test_a_value_keeps_its_repr_and_is_slotted_and_unhashable(name):
    value, text, _, _ = values()[name]
    assert type(value).__name__ == name
    assert repr(value) == text
    assert not hasattr(value, "__dict__")
    with pytest.raises(TypeError):
        hash(value)


@pytest.mark.parametrize("name", values())
def test_a_value_equals_the_value_built_from_its_data_in_another_order(name):
    value, _, rebuilt, derived = values()[name]
    assert rebuilt == value and value == rebuilt
    assert value != "not a value"
    for table in derived:
        setattr(rebuilt, table, {})
        assert getattr(rebuilt, table) != getattr(value, table)
    assert rebuilt == value


def test_a_broken_map_is_refused_unless_unchecked():
    C = corpus.categories()["parallel"]
    F = corpus.to_terminal_functor(C)
    G = identity_two_functor(corpus.two_categories()["simplex2_2"])
    f = boundary_inclusion(2, 2)
    broken = {
        CatFunctor: (F.source, F.target, F.objects, {}),
        TwoFunctor: (G.source, G.target, G.objects, {}, G.on2),
        SimplicialMap: (f.source, f.target, {0: f.levels[0]}),
    }
    for kind, parts in broken.items():
        with pytest.raises(ContractError, match="not a"):
            kind(*parts)
        assert kind(*parts, check=False).target is parts[1]


def test_a_homology_report_equals_one_with_the_same_degrees_under_another_bound():
    degrees = {0: (1, ()), 1: (0, (2,))}
    assert HomologyReport(degrees, 1) == HomologyReport(dict(reversed(degrees.items())), 3)
    assert HomologyReport(degrees, 1) != HomologyReport({0: (1, ())}, 1)
