"""The geometric nerve and the extension share one singular-complex
construction, which keeps each cell as the tuple of its images.  Its faces
and degeneracies, read off by re-indexing, are checked against the
composite of the cell, rebuilt as a map, with the operator, and every id
against the ``encode()`` of that map.  The levels of the geometric nerve
above 3, joined from the level below, are checked against the ones found by
enumerating every 2-functor.

The SHA-256 values below were computed from the canonical JSON of each
output while every cell was still built as a map object, so any change to
a cell name, a level or an operator table shows up here.
"""

import hashlib
from functools import lru_cache
from itertools import islice

import pytest

from nervelab.cat import FinCat
from nervelab.corpus import categories, nonthin_two_categories, simplicial_objects, two_categories
from nervelab.presentations import realize, twocat_of
from nervelab.serialize import canonical_json, smap_to_doc, sset_to_doc
from nervelab.simplicial import (
    SimplicialMap,
    SimplicialSet,
    _level_plan,
    _map_name_template,
    _singular,
    _writer,
    codegeneracy,
    coface,
    compose_maps,
    enumerate_simplicial_maps,
    standard_simplex,
    validate_map,
)
from nervelab.subdivision import (
    alpha,
    beta,
    ex,
    ex_cells,
    ex_map,
    sd,
    sd_operator_map,
    sd_simplex,
    transpose_to_ex,
)
from nervelab.twocat import (
    TwoFunctor,
    _name_template,
    as_two_category,
    compose_two_functors,
    cosimplicial_operator,
    count_two_functors,
    delta_tilde,
    enumerate_two_functors,
    geometric_nerve,
    geometric_nerve_cells,
    geometric_nerve_functor,
)

TWO = {**two_categories(), **nonthin_two_categories()}


def odd(name):
    """A name holding braces and the characters that separate the parts of
    a name."""
    return f"}}{name}{{>|"


def renamed(X):
    return SimplicialSet(
        X.dim_bound,
        {n: [odd(c) for c in X.cells[n]] for n in X.cells},
        *({n: {odd(c): tuple(map(odd, row)) for c, row in level.items()} for n, level in enumerate(table)}
          for table in (X.faces, X.degeneracies)),
    )


def renamed_category(C):
    return FinCat(
        [odd(a) for a in C.objects], [odd(f) for f in C.arrows],
        {odd(f): odd(a) for f, a in C.src.items()}, {odd(f): odd(a) for f, a in C.dst.items()},
        {(odd(g), odd(f)): odd(h) for (g, f), h in C.compose.items()},
        {odd(a): odd(f) for a, f in C.identity.items()},
    )


# the nerves under test: every corpus 2-category and one with odd names
NERVES = {**TWO, "odd_chain2": as_two_category(renamed_category(categories()["chain2"]))}

OBJECTS = {
    **simplicial_objects(2),
    "odd_boundary2": renamed(simplicial_objects(2)["boundary2"]),
    "odd_simplex1": renamed(simplicial_objects(2)["simplex1"]),
}


def digest(doc):
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def source_keys(operator, n):
    return [s for s, _ in operator(tuple(range(n + 1)), n).assignments()]


def two_functor(C, n, image):
    """The 2-functor delta_tilde(n) -> C whose image tuple is ``image``."""
    parts = ({}, {}, {})
    for key, v in zip(source_keys(cosimplicial_operator, n), image):
        parts[key[0]][key[1] if key[0] == 0 else key[1:]] = v
    return TwoFunctor(delta_tilde(n), C, *parts, check=False)


def simplicial_map(Y, n, image):
    """The map sd_simplex(n) -> Y whose image tuple is ``image``."""
    levels = {}
    keys = source_keys(lambda phi, n: sd_operator_map(phi, n, Y.dim_bound), n)
    for (m, u), v in zip(keys, image):
        levels.setdefault(m, {})[u] = v
    return SimplicialMap(sd_simplex(n, Y.dim_bound), Y, levels, check=False)


def rebuilt(table, as_map):
    """The table with every image tuple rebuilt as a map (unchecked: the
    checked construction of every cell makes these tests take seconds),
    asserting that each id is the ``encode()`` of its map."""
    maps = {}
    for (n, cid), image in table.items():
        maps[(n, cid)] = as_map(n, image)
        assert maps[(n, cid)].encode() == cid
    return maps


def assert_operators_are_composites(X, table, operator, compose):
    seen = 0
    for n in range(X.dim_bound + 1):
        for phi, lower, rows in (
            (coface, n - 1, X.faces[n] if n > 0 else None),
            (codegeneracy, n + 1, X.degeneracies[n] if n < X.dim_bound else None),
        ):
            if rows is None:
                continue
            for i in range(n + 1):
                op = operator(phi(n, i), n)
                for cid in X.cells[n]:
                    expected = compose(table[(n, cid)], op).encode()
                    assert rows[cid][i] == expected
                    assert (lower, expected) in table
                    seen += 1
    assert seen == sum(len(row) for rows in X.faces + X.degeneracies for row in rows.values())


@pytest.mark.parametrize("name", sorted(NERVES))
def test_geometric_nerve_operators_are_composites(name):
    N, table, *_ = geometric_nerve_cells(NERVES[name], 4)
    maps = rebuilt(table, lambda n, image: two_functor(NERVES[name], n, image))
    assert_operators_are_composites(N, maps, cosimplicial_operator, compose_two_functors)


@pytest.mark.parametrize("name", sorted(simplicial_objects(2)))
def test_ex_operators_are_composites(name):
    Y = simplicial_objects(2)[name]
    E, table, *_ = ex_cells(Y, 2)
    maps = rebuilt(table, lambda n, image: simplicial_map(Y, n, image))
    assert_operators_are_composites(
        E, maps, lambda phi, n: sd_operator_map(phi, n, Y.dim_bound), compose_maps
    )


def enumerated_nerve_cells(C, D):
    """The geometric nerve with every level found by enumerating the
    2-functors out of delta_tilde(n), each read back as its image tuple."""
    def level(n, keys, named, faces):
        for F in enumerate_two_functors(delta_tilde(n), C):
            assert [s for s, _ in F.assignments()] == list(keys)
            yield tuple(t[-1] for _, t in F.assignments()), None
    return _singular(D, level, cosimplicial_operator, _name_template)


@pytest.mark.parametrize("name,D", [(name, 5) for name in sorted(NERVES) if name != "simplex2_3"] + [
    ("simplex2_3", 4),
    pytest.param("simplex2_3", 5, marks=pytest.mark.slow),
])
def test_coskeletal_levels_equal_enumerated_ones(name, D):
    N, table, *_ = geometric_nerve_cells(NERVES[name], D)
    M, oracle, *_ = enumerated_nerve_cells(NERVES[name], D)
    assert N.cells == M.cells
    assert N.faces == M.faces
    assert N.degeneracies == M.degeneracies
    assert table == oracle


N2_MAPS = [
    ("simplex2_2", "single2cell", None, "22c07a46cbd3c5673cb1b50dc295ddc1ffc3ed0f6bf0ef5e0c9dc05673679075"),
    ("simplex2_3", "simplex2_2", 1, "f31cecad7485ddaac4b76346ded24d4de8dd765f3c5bdcd20d4d4f21bc603427"),
    ("z2_on_unit", "z2_on_unit", None, "145fdd0b74c5409c031fa071f0d7c9feba6aa2733a5d093d24500be8c7e1e4c5"),
    ("parallel_2cells", "single2cell", None, "5e432cf4d9bb101bd3d964741c48ee2cb7b094d89299152fc9eac47fc5383204"),
    ("single2cell", "parallel_2cells", None, "bb34ceba132f283fd13bf1cd976ec33b4e45aa2588b961a988dfa6dd3b56b415"),
    ("simplex2_3", "terminal2", None, "c680f2d1e45b4bd357cfba82a2afbba03347c79a498cf5ceaada6faae1aa4adc"),
    ("odd_chain2", "odd_chain2", None, "b00ae230beb8c6242db4bee2e4b6ba2f35195268a09aa25edcbfab5ca75d2fe9"),
]


@pytest.mark.parametrize("source,target,limit,pin", N2_MAPS, ids=[f"{s}-{t}-{n}" for s, t, n, _ in N2_MAPS])
def test_geometric_nerve_functor_names_the_composites(source, target, limit, pin):
    docs = []
    for u in islice(enumerate_two_functors(NERVES[source], NERVES[target]), limit):
        f = geometric_nerve_functor(u, 4)
        assert validate_map(f) == []
        table = geometric_nerve_cells(u.source, 4).table
        for (n, cid), image in table.items():
            F = two_functor(u.source, n, image)
            assert f.levels[n][cid] == compose_two_functors(u, F).encode()
        docs.append(smap_to_doc(f))
    assert digest(docs) == pin


EX_MAPS = [
    ("boundary2", "circle", "ab8d8a07e90883d195c8971c39d78bba8340ac96776967216d6e545910c20552"),
    ("horn21", "simplex2", "c3d8e31a4ab9d73e09e523338b56bc4eb7195e888e44b251b25a09a94c53cff1"),
    ("simplex2", "boundary2", "b54b56b076ba15474b2af6217a7585754742c72ca15faf65c3e84ed10498895d"),
    ("odd_simplex1", "odd_boundary2", "2f3e4b91033ec085e24368fb028447ffff5f623535fefe9e56bcc6471199e52e"),
]


@pytest.mark.parametrize("source,target,pin", EX_MAPS, ids=[f"{s}-{t}" for s, t, _ in EX_MAPS])
def test_ex_map_names_the_composites(source, target, pin):
    docs = []
    for f in enumerate_simplicial_maps(OBJECTS[source], OBJECTS[target]):
        g = ex_map(f, 1)
        assert validate_map(g) == []
        table = ex_cells(f.source, 1).table
        for (n, cid), image in table.items():
            F = simplicial_map(f.source, n, image)
            assert g.levels[n][cid] == compose_maps(f, F).encode()
        docs.append(smap_to_doc(g))
    assert digest(docs) == pin


def test_geometric_nerves_are_pinned():
    docs = {name: sset_to_doc(geometric_nerve(C, 4)) for name, C in sorted(TWO.items())}
    assert digest(docs) == "3ac81ac782ce6aa5f1bfdd7f2a89def0e5bc2dba06d1489ead8f9580d1c3e2dc"


def test_extensions_are_pinned():
    docs = {name: sset_to_doc(ex(Y, 2)) for name, Y in sorted(OBJECTS.items())}
    assert digest(docs) == "e29fb1131882bd58d81465d9491117281ca73e5587dea2196ac46135c24224f9"


def test_beta_is_pinned():
    docs = {name: smap_to_doc(beta(X)) for name, X in sorted(OBJECTS.items())}
    assert digest(docs) == "aa15d50588aee0450e3d208a8ef0f936762579a673248090b55e6a1a0747e818"


def test_transpose_to_ex_is_pinned():
    docs = {}
    for name, X in sorted(OBJECTS.items()):
        _, cert = sd(X)
        docs[name] = smap_to_doc(transpose_to_ex(alpha(X, cert), cert, X.dim_bound))
    for name, X, Y in (("all_sd_simplex1", standard_simplex(1, 1), standard_simplex(1, 1)),
                       ("all_sd_odd", OBJECTS["odd_simplex1"], OBJECTS["odd_boundary2"])):
        SX, cert = sd(X)
        docs[name] = [smap_to_doc(transpose_to_ex(F, cert, 1)) for F in enumerate_simplicial_maps(SX, Y)]
    assert digest(docs) == "365abe65466fe08303d7632e2dcbf0e78f4d3f3573754b2fde206a9b18f730ff"


def test_level_plans_are_compiled_once_per_shape():
    """A second extension and geometric nerve at the same bounds reuse the
    plan of every level: the plan cache is keyed on the operator, which
    must be the same object from one build to the next."""
    def build():
        ex(OBJECTS["odd_boundary2"], 2)
        geometric_nerve(TWO["terminal2"], 4)
    build()
    before = _level_plan.cache_info()
    build()
    after = _level_plan.cache_info()
    assert after.currsize == before.currsize
    assert after.hits > before.hits


def test_encode_fills_the_name_template():
    """``encode()`` against the loops that wrote the two formats by hand,
    on names that hold braces and separators."""
    X, Y = OBJECTS["odd_simplex1"], OBJECTS["odd_boundary2"]
    maps = list(enumerate_simplicial_maps(X, Y))
    assert maps
    for f in maps:
        assert f.encode() == ";".join(f"{n}:{c}>{v}" for n in sorted(f.levels)
                                      for c, v in sorted(f.levels[n].items()))
    A = NERVES["odd_chain2"]
    functors = list(enumerate_two_functors(A, A))
    assert functors
    for F in functors:
        o = ",".join(f"{a}>{b}" for a, b in F.objects.items())
        c1 = ",".join(f"{a}!{b}!{x}>{v}" for (a, b, x), v in F.on1.items())
        c2 = ",".join(f"{a}!{b}!{x}>{v}" for (a, b, x), v in F.on2.items())
        assert F.encode() == o + "/" + c1 + "/" + c2


def test_name_pieces_keep_empty_parts():
    """A 2-functor's name has its three parts even where one is empty, and
    a map of empty simplicial sets is named by the empty string."""
    assert _writer(_name_template(((0, "a"), (2, "a", "a", "x"))))(["b", "y"]) == "a>b//a!a!x>y"
    assert _writer(_name_template(((1, "a", "b", "f"),)))(["g"]) == "/a!b!f>g/"
    assert _writer(_name_template(()))([]) == "//"
    assert _writer(_map_name_template(()))([]) == ""


@lru_cache(maxsize=None)
def c2_sd2_simplex(n):
    """c₂Sd²Δⁿ at bound 1: the 2-category presented by Sd²Δⁿ."""
    realized = realize(twocat_of(sd(sd(standard_simplex(n, 1))[0])[0]))
    assert realized.status == "finite"
    return realized.two_category


@pytest.mark.parametrize("name", sorted(TWO))
def test_thomason_adjunction_counts_at_levels_0_and_1(name):
    """c₂Sd² ⊣ Ex²N₂ (Thomason 1980, "Cat as a closed model category"):
    the 2-functors c₂Sd²Δⁿ -> A are the n-cells of Ex²N₂(A), all at
    bound 1."""
    A = TWO[name]
    E = ex(ex(geometric_nerve(A, 1), 1), 1)
    assert [count_two_functors(c2_sd2_simplex(n), A) for n in (0, 1)] == [len(E.cells[n]) for n in (0, 1)]
