"""The simplicial search narrowed by vertex images, against the unnarrowed
compile it replaced, and the scale probes that the narrowing brought into
reach."""

import random
from itertools import combinations, islice

import pytest

from nervelab.cat import nerve, poset_category
from nervelab.corpus import simplicial_objects
from nervelab.lifting import LiftingProblem, find_lift, generator_squares, has_rlp
from nervelab.simplicial import (
    Key,
    SimplicialMap,
    _dimension_tag,
    _search,
    _simplicial_problem,
    boundary,
    components,
    compose_maps,
    constant_map,
    count_maps,
    enumerate_simplicial_maps,
    horn,
    standard_simplex,
)
from nervelab.subdivision import ex, sd_simplex
from test_glue_and_chain_nerve import complex_sset

S = simplicial_objects(2)


# -- the reference: every nondegenerate cell ranges over its whole level -------

def unnarrowed_problem(X, Y):
    """The compile of the search for maps X -> Y before narrowing: levels go
    up in order, degenerate cells first and forced, and each nondegenerate
    cell ranges over all of Y's level and must commute with all faces."""
    bound = min(X.dim_bound, Y.dim_bound)
    keys: list[Key] = []
    for n in range(bound + 1):
        keys += [(n, c) for c in X.cells[n] if X.is_degenerate(n, c)]
        keys += [(n, c) for c in X.nondegenerate(n)]
    index = {key: k for k, key in enumerate(keys)}

    def degenerate(n, i, j):
        return lambda val: (Y.s(n, i, val[j]),)

    def level(cells):
        return lambda val: cells

    def faces_commute(n, k, faces):
        def check(val):
            img = val[k]
            for i, j in faces:
                if Y.d(n, i, img) != val[j]:
                    return False
            return True
        return check

    options: list = []
    checks: list = []
    for k, (n, c) in enumerate(keys):
        if X.is_degenerate(n, c):
            i, lower = X._deg_of[(n, c)]
            options.append(degenerate(n - 1, i, index[(n - 1, lower)]))
            checks.append(None)
        else:
            options.append(level(Y.cells[n]))
            faces = [(i, index[(n - 1, X.d(n, i, c))]) for i in range(n + 1)] if n else []
            checks.append(faces_commute(n, k, faces) if faces else None)

    def emit(val):
        levels = {n: {} for n in range(bound + 1)}
        for (n, c), v in zip(keys, val):
            levels[n][c] = v
        return SimplicialMap(X, Y, levels, check=False)

    return keys, options, checks, _dimension_tag, emit


def both(X, Y, limit=None, **constraints):
    """The ``encode()`` sequences of the narrowed and the reference search,
    up to the first ``limit`` maps of each."""
    return tuple([f.encode() for f in islice(_search(*compile_search(X, Y), **constraints), limit)]
                 for compile_search in (_simplicial_problem, unnarrowed_problem))


def seeded_complex(seed):
    """A connected ordered complex with 5 vertices, 7 edges and 2 triangles."""
    rng = random.Random(seed)
    edges_of_5 = list(combinations(range(5), 2))
    while True:
        triangles = rng.sample(list(combinations(range(5), 3)), 2)
        edges = {e for t in triangles for e in combinations(t, 2)}
        if len(edges) > 7:
            continue
        edges |= set(rng.sample([e for e in edges_of_5 if e not in edges], 7 - len(edges)))
        K = complex_sset(triangles + sorted(edges), 2)
        if len(K.cells[0]) == 5 and len(set(components(K).values())) == 1:
            return K


COMPLEXES = [seeded_complex(seed) for seed in range(20)]


@pytest.mark.parametrize("source", sorted(S))
def test_narrowed_search_agrees_on_every_corpus_pair(source):
    for target in sorted(S):
        narrowed, reference = both(S[source], S[target])
        assert narrowed == reference, (source, target)


def test_seeded_complexes_have_their_shape():
    for K in COMPLEXES:
        assert K.nondegenerate_counts() == (5, 7, 2)


@pytest.mark.parametrize("seed", range(20))
def test_narrowed_search_agrees_on_seeded_complexes(seed):
    X, Y = COMPLEXES[seed], COMPLEXES[(seed + 1) % 20]
    narrowed, reference = both(X, Y)
    assert narrowed == reference and narrowed
    for source in ("horn21", "circle"):
        narrowed, from_corpus = both(S[source], X)
        assert narrowed == from_corpus
    for limit in (1, 7):
        assert both(X, Y, limit=limit) == (reference[:limit], reference[:limit])


# -- pin, allow and limit: horn fillers and RLP counterexamples ----------------

def inclusion(A, B):
    """The identity on A's cells, as a map into B."""
    return SimplicialMap(A, B, {m: {c: c for c in A.cells[m]} for m in A.cells})


def reference_lifts(P, limit=None):
    """The fillers of the square, by the narrowed and the reference search."""
    image = dict(P.top.assignments())
    pin = {b: image[a] for a, b in P.i.assignments()}
    over, under = dict(P.p.assignments()), dict(P.bottom.assignments())
    return both(P.i.target, P.p.source, pin=pin, allow=lambda b, x: over[x] == under[b], limit=limit)


def seeded_horn_problem(seed, D=3):
    """Λⁿₖ -> N(P) over a map N(P) -> Δ¹, for a seeded poset P on six
    elements, with a seeded filler of the square."""
    rng = random.Random(seed)
    names = "abcdef"
    less = {(a, b) for a, b in combinations(range(6), 2) if rng.random() < 0.4}
    for _ in range(6):
        less |= {(a, c) for a, b in less for b2, c in less if b == b2}
    N = nerve(poset_category(names, lambda x, y: x == y or (names.index(x), names.index(y)) in less), D)
    n = rng.choice((2, 3))
    k = rng.randrange(1, n)
    i = inclusion(horn(n, k, D), standard_simplex(n, D))
    filler = rng.choice(list(enumerate_simplicial_maps(i.target, N)))
    p = rng.choice(list(enumerate_simplicial_maps(N, standard_simplex(1, D))))
    return LiftingProblem(i, p, compose_maps(filler, i), compose_maps(p, filler))


@pytest.mark.parametrize("seed", range(10))
def test_find_lift_agrees_on_seeded_horn_problems(seed):
    P = seeded_horn_problem(seed)
    narrowed, reference = reference_lifts(P)
    assert narrowed == reference and reference
    assert find_lift(P).encode() == reference[0]
    for limit in (1, 2):
        assert reference_lifts(P, limit) == (reference[:limit], reference[:limit])


@pytest.mark.parametrize("seed", range(0, 20, 2))
def test_rlp_counterexamples_agree(seed):
    X = COMPLEXES[seed]
    point = standard_simplex(0, 2)
    p = constant_map(X, point, "0")
    generators = [inclusion(boundary(n, 2), standard_simplex(n, 2)) for n in range(3)]
    first_unsolved = None
    for i in generators:
        squares = list(generator_squares(p, i))
        narrowed, tops = both(i.source, p.source)
        assert [sq.top.encode() for sq in squares] == narrowed == tops
        for sq in squares:
            narrowed, reference = reference_lifts(sq, limit=1)
            assert narrowed == reference
            assert [h.encode() for h in [find_lift(sq)] if h is not None] == reference
            if not reference and first_unsolved is None:
                first_unsolved = sq
    ok, counterexample = has_rlp(p, generators)
    assert ok == (first_unsolved is None)
    assert counterexample == first_unsolved


# -- scale probes: the searches the narrowing brought into reach ---------------

def test_maps_from_sd_delta3_to_the_boundary_of_delta2():
    assert count_maps(sd_simplex(3, 3), boundary(2, 3)) == 654


@pytest.mark.parametrize("X, counts", [
    (boundary(2, 3), (3, 14, 72, 654)),
    (horn(2, 1, 3), (3, 9, 37, 333)),
    (standard_simplex(1, 3), (2, 5, 19, 167)),
])
def test_ex_level_counts_at_bound_three(X, counts):
    assert ex(X, 3).counts() == counts
