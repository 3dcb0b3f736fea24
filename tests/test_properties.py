"""Property tests on random ordered simplicial complexes: the simplicial
identities survive ``sd``, ``product`` and ``pushout``, the comparison maps
are simplicial, and the sd -| Ex bijection sends beta back to alpha and
any map sd X -> Y back to itself.  On random finite posets: the two
transposes of the adjunction between ``component_category`` and
``as_two_category`` are inverse.  On random connected complexes and
one-vertex 2-complexes: the edge-path group abelianizes to H_1 (Hurewicz).

The complexes are ``complex_sset`` of facets over range(5), at bound 2 or
3.  ``beta`` is built at level 2 (``beta(K, 2)``): Ex at level 3 of such
a complex takes seconds, and with facets of at most three vertices no
nondegenerate cell lies above level 2, so the bijection still covers every
level of sd(K)."""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_glue_and_chain_nerve import complex_sset
from test_homology import one_vertex_complex
from test_simplicial import verify_pushout

from nervelab.cat import enumerate_functors, poset_category
from nervelab.corpus import nonthin_two_categories, simplicial_objects, two_categories
from nervelab.homology import homology, pi1_presentation
from nervelab.presentations import cat_of, twocat_of
from nervelab.simplicial import (
    components,
    enumerate_simplicial_maps,
    product,
    pushout,
    validate,
    validate_map,
)
from nervelab.subdivision import alpha, beta, sd, transpose_from_ex, transpose_to_ex
from nervelab.twocat import (
    as_two_category,
    component_category,
    component_transpose,
    enumerate_two_functors,
    inclusion_transpose,
)

FACETS = st.lists(st.sets(st.integers(0, 4), min_size=1, max_size=3).map(sorted), min_size=1, max_size=3)
BOUNDS = st.sampled_from([2, 3])
CHECKS = settings(derandomize=True, max_examples=30, deadline=None, database=None)


@settings(CHECKS, max_examples=15)
@given(facets=FACETS, D=BOUNDS)
def test_sd_alpha_and_beta_of_a_complex(facets, D):
    K = complex_sset(facets, D)
    S, cert = sd(K)
    assert validate(S) == []
    a = alpha(K, cert)
    assert validate_map(a) == []
    b = beta(K, 2)
    assert validate_map(b) == []
    assert transpose_from_ex(b, cert, K) == a


SMALL_FACETS = st.lists(st.sets(st.integers(0, 3), min_size=1, max_size=3).map(sorted), min_size=1, max_size=2)


@CHECKS
@given(source=SMALL_FACETS, target=SMALL_FACETS, pick=st.integers(0, 39))
def test_transposes_of_a_map_out_of_sd_are_inverse(source, target, pick):
    # at bound 2: Ex at level 3 takes seconds, and no cell of X is
    # nondegenerate above level 2
    X, Y = complex_sset(source, 2), complex_sset(target, 2)
    SX, cert = sd(X)
    maps = list(islice(enumerate_simplicial_maps(SX, Y), 40))
    F = maps[pick % len(maps)]
    G = transpose_to_ex(F, cert, 2)
    assert validate_map(G) == []
    assert transpose_from_ex(G, cert, Y) == F


@CHECKS
@given(first=FACETS, second=FACETS, D=BOUNDS)
def test_product_of_two_complexes(first, second, D):
    assert validate(product(complex_sset(first, D), complex_sset(second, D))) == []


@CHECKS
@given(facets=st.tuples(FACETS, FACETS, FACETS), picks=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       D=BOUNDS)
def test_pushout_of_maps_from_the_start_of_the_enumeration(facets, picks, D):
    A, X, Y = (complex_sset(f, D) for f in facets)
    f, g = (list(islice(enumerate_simplicial_maps(A, Z), k + 1))[-1] for Z, k in zip((X, Y), picks))
    P, jx, jy = pushout(f, g)
    assert validate(P) == []
    assert verify_pushout(f, g, P, jx, jy)


@st.composite
def posets(draw):
    """A partial order on at most four elements: each element, in a random
    linear order, lies above the ones below some earlier elements."""
    order = draw(st.permutations([str(i) for i in range(draw(st.integers(1, 4)))]))
    down: dict[str, set[str]] = {}
    for j, b in enumerate(order):
        covers = draw(st.sets(st.sampled_from(order[:j]))) if j else set()
        down[b] = {b}.union(*(down[a] for a in covers))
    return poset_category(sorted(order), lambda a, b: a in down[b])


TWO = {**two_categories(), **nonthin_two_categories()}


@CHECKS
@given(name=st.sampled_from(sorted(TWO)), D=posets())
def test_transposes_of_the_component_adjunction_are_inverse(name, D):
    A = TWO[name]
    for F in enumerate_two_functors(A, as_two_category(D)):
        assert inclusion_transpose(component_transpose(F), A) == F
    for G in enumerate_functors(component_category(A), D):
        assert component_transpose(inclusion_transpose(G, A)) == G


# -- Hurewicz: pi_1 abelianized is H_1 ------------------------------------------

def check_hurewicz(X):
    """At every vertex of a connected X, the edge-path group (read from
    ``cat_of``) abelianizes to H_1 (read from the normalized chains); and
    ``twocat_of`` has ``cat_of``'s graph."""
    H = homology(X, 1)
    for v in X.cells[0]:
        assert pi1_presentation(X, v).abelian_invariants() == (H.betti(1), H.torsion(1))
    one, two = cat_of(X), twocat_of(X)
    assert (two.objects, two.generators, two.src, two.dst) == (one.objects, one.generators, one.src, one.dst)


@st.composite
def connected_facets(draw):
    """At most four facets over range(5), each meeting an earlier one."""
    facets = [draw(st.sets(st.integers(0, 4), min_size=1, max_size=3))]
    for _ in range(draw(st.integers(0, 3))):
        joint = draw(st.sampled_from(sorted(set().union(*facets))))
        facets.append(draw(st.sets(st.integers(0, 4), max_size=2)) | {joint})
    return [sorted(f) for f in facets]


@CHECKS
@given(facets=connected_facets())
def test_pi1_of_a_connected_complex_abelianizes_to_h1(facets):
    check_hurewicz(complex_sset(facets, 2))


@CHECKS
@given(loops=st.integers(1, 4), data=st.data())
def test_pi1_of_a_one_vertex_complex_abelianizes_to_h1(loops, data):
    # a triangle's faces are loops or the degenerate edge (None), so the
    # relations are random words and H_1 may have torsion
    letter = st.sampled_from([None, *range(loops)])
    triangles = data.draw(st.lists(st.tuples(letter, letter, letter), min_size=1, max_size=6))
    check_hurewicz(one_vertex_complex(loops, triangles, 2))


CONNECTED = {name: X for name, X in simplicial_objects(3).items() if len(set(components(X).values())) == 1}


@pytest.mark.parametrize("name", sorted(CONNECTED))
def test_pi1_of_a_connected_corpus_object_abelianizes_to_h1(name):
    check_hurewicz(CONNECTED[name])
