"""Strict 2-categories: simplices, geometric nerve, adjunction with Cat, slices."""

import hashlib
from itertools import combinations

import pytest

from test_cat import colliding_names_category

from nervelab.cat import (
    FinCat,
    arrow_category,
    chain_category,
    count_functors,
    discrete_category,
    enumerate_functors,
    find_cat_iso,
    has_final_object,
    identity_functor,
    monoid_category,
    nerve,
    parallel_pair_category,
    poset_category,
    terminal_category,
    validate_functor,
)
from nervelab.corpus import nonthin_two_categories, two_categories
from nervelab.errors import DomainError
from nervelab.serialize import canonical_json, tfun_to_doc
from nervelab.simplicial import find_simplicial_iso, validate
from nervelab.twocat import (
    as_two_category,
    as_two_functor,
    component_category,
    component_functor,
    component_transpose,
    compose_two_functors,
    cosimplicial_operator,
    count_two_functors,
    delta_tilde,
    enumerate_two_functors,
    find_2cat_iso,
    geometric_nerve,
    geometric_nerve_cells,
    identity_two_functor,
    inclusion_transpose,
    object_admits_final,
    slice_2category,
    slice_2functor,
    terminal_2category,
    two_functor_to_terminal,
    validate_2category,
    validate_two_functor,
)


def z2_group():
    return monoid_category(["e", "t"], "e", lambda g, f: "e" if g == f else "t")


def single_two_cell_2cat():
    """Objects a, b; hom(a, b) the walking arrow (two 1-cells, one 2-cell)."""
    hom_ab = FinCat(
        ["u", "v"],
        ["id_u", "id_v", "m"],
        {"id_u": "u", "id_v": "v", "m": "u"},
        {"id_u": "u", "id_v": "v", "m": "v"},
        {
            ("id_u", "id_u"): "id_u",
            ("id_v", "id_v"): "id_v",
            ("m", "id_u"): "m",
            ("id_v", "m"): "m",
        },
        {"u": "id_u", "v": "id_v"},
    )
    triv = FinCat(["1"], ["id_1"], {"id_1": "1"}, {"id_1": "1"},
                  {("id_1", "id_1"): "id_1"}, {"1": "id_1"})
    hcompose1 = {
        ("a", "a", "a", "1", "1"): "1",
        ("b", "b", "b", "1", "1"): "1",
        ("a", "a", "b", "1", "u"): "u",
        ("a", "a", "b", "1", "v"): "v",
        ("a", "b", "b", "u", "1"): "u",
        ("a", "b", "b", "v", "1"): "v",
    }
    hcompose2 = {
        ("a", "a", "a", "id_1", "id_1"): "id_1",
        ("b", "b", "b", "id_1", "id_1"): "id_1",
        ("a", "a", "b", "id_1", "id_u"): "id_u",
        ("a", "a", "b", "id_1", "id_v"): "id_v",
        ("a", "a", "b", "id_1", "m"): "m",
        ("a", "b", "b", "id_u", "id_1"): "id_u",
        ("a", "b", "b", "id_v", "id_1"): "id_v",
        ("a", "b", "b", "m", "id_1"): "m",
    }
    return Fin2CatFixture(
        {"objects": ["a", "b"],
         "hom": {("a", "a"): triv, ("b", "b"): triv, ("a", "b"): hom_ab},
         "hcompose1": hcompose1, "hcompose2": hcompose2,
         "unit": {"a": "1", "b": "1"}}
    )


def Fin2CatFixture(data):
    from nervelab.twocat import Fin2Cat

    return Fin2Cat(data["objects"], data["hom"], data["hcompose1"], data["hcompose2"], data["unit"])


# -- oracles ------------------------------------------------------------------

def oracle_admissible_subsets(i, j):
    middle = list(range(i + 1, j))
    out = []
    for r in range(len(middle) + 1):
        for extra in combinations(middle, r):
            out.append("".join(str(v) for v in sorted({i, j} | set(extra))))
    return sorted(out)


# -- delta_tilde --------------------------------------------------------------

def test_delta_tilde_one_is_walking_arrow():
    D1 = delta_tilde(1)
    assert D1.hom[("0", "1")].objects == ("01",)
    assert find_2cat_iso(D1, as_two_category(arrow_category())) is not None


def test_delta_tilde_two_hom_02():
    D2 = delta_tilde(2)
    H = D2.hom[("0", "2")]
    assert H.objects == ("012", "02")
    non_id = [f for f in H.arrows if not H.is_identity(f)]
    assert non_id == ["012>02"]


def test_delta_tilde_three_hom_03_is_square_poset():
    H = delta_tilde(3).hom[("0", "3")]
    assert set(H.objects) == set(oracle_admissible_subsets(0, 3))
    assert len(H.objects) == 4
    # commuting square: exactly one arrow between comparable subsets
    non_id = [f for f in H.arrows if not H.is_identity(f)]
    assert len(non_id) == 5  # 4 covers + 1 diagonal


@pytest.mark.parametrize("n", range(4))
def test_delta_tilde_validates(n):
    assert validate_2category(delta_tilde(n)) == []


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_delta_tilde_hom_sizes_match_subset_enumeration(n):
    Dn = delta_tilde(n)
    for i in range(n + 1):
        for j in range(i, n + 1):
            assert list(Dn.hom[(str(i), str(j))].objects) == oracle_admissible_subsets(i, j)


def test_cosimplicial_operator_identity_and_face():
    ident = cosimplicial_operator((0, 1), 1)
    assert ident.objects == {"0": "0", "1": "1"}
    skip1 = cosimplicial_operator((0, 2), 2)  # [1] -> [2] skipping 1
    assert skip1.on1[("0", "1", "01")] == "02"


def test_cosimplicial_operator_functorial():
    # composite [2] -> [1] -> [2] against direct table comparison
    sigma = cosimplicial_operator((0, 0, 1), 1)
    delta = cosimplicial_operator((0, 2), 2)
    comp = compose_two_functors(delta, sigma)
    direct = cosimplicial_operator((0, 0, 2), 2)
    assert comp == direct


def test_validate_two_functor_on_operators():
    for phi, n in [((0, 1, 2), 2), ((0, 0, 1), 1), ((0, 2), 2), ((0, 1, 1, 2), 2)]:
        assert validate_two_functor(cosimplicial_operator(phi, n)) == []


# -- inclusion / components ----------------------------------------------------

@pytest.mark.parametrize("builder", [terminal_category, arrow_category,
                                     lambda: chain_category(2), z2_group,
                                     parallel_pair_category])
def test_as_two_category_validates(builder):
    assert validate_2category(as_two_category(builder())) == []


def test_component_of_inclusion_recovers_category():
    for C in [arrow_category(), chain_category(2), z2_group()]:
        T = component_category(as_two_category(C))
        assert find_cat_iso(T, C) is not None


def test_component_of_single_two_cell_is_arrow_category():
    T = component_category(single_two_cell_2cat())
    assert find_cat_iso(T, arrow_category()) is not None


def test_single_two_cell_validates():
    assert validate_2category(single_two_cell_2cat()) == []


def test_adjunction_counts_and_transposes():
    pairs = [
        (delta_tilde(1), arrow_category()),
        (delta_tilde(2), arrow_category()),
        (single_two_cell_2cat(), arrow_category()),
        (as_two_category(chain_category(2)), arrow_category()),
        (delta_tilde(2), chain_category(2)),
    ]
    for A, D in pairs:
        lhs = list(enumerate_two_functors(A, as_two_category(D)))
        rhs = list(enumerate_functors(component_category(A), D))
        assert len(lhs) == len(rhs)
        # the transpose is a bijection between the two hom-sets
        transposed = {component_transpose(F).encode() for F in lhs}
        assert transposed == {G.encode() for G in rhs}
        # and back
        back = {inclusion_transpose(G, A).encode() for G in rhs}
        assert back == {F.encode() for F in lhs}


def test_two_functor_count_examples():
    assert count_two_functors(delta_tilde(1), terminal_2category()) == 1
    # 2Fun(delta_tilde(1), iota(arrow cat)) = monotone self-maps of [1]
    assert count_two_functors(delta_tilde(1), as_two_category(arrow_category())) == 3
    # 2Fun(delta_tilde(2), iota(C)) = composable pairs of C
    for C in [arrow_category(), chain_category(2), z2_group()]:
        pairs = sum(
            1
            for f in C.arrows
            for g in C.arrows
            if C.dst[f] == C.src[g]
        )
        assert count_two_functors(delta_tilde(2), as_two_category(C)) == pairs


# -- geometric nerve -------------------------------------------------------------

def test_nerve_of_terminal_2cat_is_point():
    N = geometric_nerve(terminal_2category(), 3)
    assert N.counts() == (1, 1, 1, 1)


@pytest.mark.parametrize("builder", [
    lambda: terminal_2category(),
    lambda: delta_tilde(2),
    lambda: as_two_category(arrow_category()),
    lambda: single_two_cell_2cat(),
])
def test_geometric_nerves_validate(builder):
    assert validate(geometric_nerve(builder(), 3)) == []


@pytest.mark.parametrize("builder", [terminal_category, arrow_category,
                                     lambda: chain_category(2), z2_group,
                                     parallel_pair_category])
def test_geometric_nerve_of_inclusion_is_nerve(builder):
    C = builder()
    N2 = geometric_nerve(as_two_category(C), 4)
    N1 = nerve(C, 4)
    assert N2.counts() == N1.counts()
    assert find_simplicial_iso(N2, N1) is not None


def test_geometric_nerve_level_two_of_single_cell_2cat():
    C = single_two_cell_2cat()
    N = geometric_nerve(C, 2)
    # oracle: direct count of 2-functors delta_tilde(2) -> C
    assert len(N.level(2)) == count_two_functors(delta_tilde(2), C)


# -- finality --------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_delta_tilde_top_object_admits_final(n):
    Dn = delta_tilde(n)
    ok, witnesses = object_admits_final(Dn, str(n))
    assert ok
    for i in range(n + 1):
        assert witnesses[str(i)] == f"{i}{n}" if i != n else str(n)


def test_object_admits_final_on_inclusions():
    for C in [arrow_category(), chain_category(2), terminal_category()]:
        C2 = as_two_category(C)
        z = has_final_object(C)
        for obj in C.objects:
            ok, _ = object_admits_final(C2, obj)
            assert ok == (obj == z) or (z is None and not ok) or ok == (len(C.hom(obj, obj)) == 1 and obj == z)
    # discrete two-object category: no object admits a final object
    C2 = as_two_category(discrete_category(["a", "b"]))
    assert not object_admits_final(C2, "a")[0]


def test_single_two_cell_b_admits_final():
    ok, witnesses = object_admits_final(single_two_cell_2cat(), "b")
    assert ok
    assert witnesses["a"] == "v"  # the final object of the walking arrow


# -- slices ---------------------------------------------------------------------

def test_slice_of_terminal_identity():
    T = terminal_2category()
    S = slice_2category(identity_two_functor(T), "*")
    assert len(S.objects) == 1
    assert validate_2category(S) == []


def test_slice_of_inclusion_arrow_at_one():
    A2 = as_two_category(arrow_category())
    S = slice_2category(identity_two_functor(A2), "1")
    assert len(S.objects) == 2
    assert validate_2category(S) == []


def test_slice_with_nontrivial_two_cell():
    C = single_two_cell_2cat()
    S = slice_2category(identity_two_functor(C), "b")
    assert validate_2category(S) == []
    # objects: (a, u), (a, v), (b, 1)
    assert len(S.objects) == 3
    # oracle: count slice 2-cells by checking the pasting constraint directly
    total = sum(len(H.arrows) for H in S.hom.values())
    assert total == sum(
        1
        for (o1, o2), H in S.hom.items()
        for _ in H.arrows
    )
    # hom((a,v), (b,1)): alpha must land in v, so both (u, m) and (v, id_v) qualify
    H = S.hom[("(a|v)", "(b|1)")]
    assert len(H.objects) == 2
    # while hom((a,u), (b,1)) only admits (u, id_u): nothing maps v -> u
    assert len(S.hom[("(a|u)", "(b|1)")].objects) == 1


def test_slice_2category_names_that_collide_are_an_error():
    C = as_two_category(colliding_names_category())
    assert validate_2category(C) == []
    with pytest.raises(DomainError) as err:
        slice_2category(identity_two_functor(C), "c")
    assert "('x', 'y|z')" in str(err.value) and "('x|y', 'z')" in str(err.value)


def test_slice_2functor_of_identity_triangle():
    C = single_two_cell_2cat()
    u = identity_two_functor(C)
    F = slice_2functor(u, u, u, "b")
    assert validate_two_functor(F) == []
    assert F.objects == {o: o for o in F.source.objects}


@pytest.mark.parametrize("name", sorted({**two_categories(), **nonthin_two_categories()}))
def test_slice_of_a_slice_is_a_2category(name):
    # the 1-cells of a slice of a slice have nested names like ((g|al)|al2)
    C = {**two_categories(), **nonthin_two_categories()}[name]
    for c in C.objects:
        S = slice_2category(identity_two_functor(C), c)
        for c2 in S.objects:
            assert validate_2category(slice_2category(identity_two_functor(S), c2)) == [], (c, c2)


def digest(F):
    """A fingerprint of the canonical JSON of a 2-functor."""
    return hashlib.sha256(canonical_json(tfun_to_doc(F)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name, expected", [
    ("terminal2", ["a46f1329d098e9af"]),
    ("simplex2_0", ["0711c78dadcda21f"]),
    ("simplex2_1", ["0711c78dadcda21f", "ee5a02063bbb499d"]),
    ("simplex2_2", ["0711c78dadcda21f", "ee5a02063bbb499d", "f6c43a1552054990"]),
    ("simplex2_3", ["0711c78dadcda21f", "ee5a02063bbb499d", "f6c43a1552054990", "c0300e289f99dbd5"]),
    ("iota_terminal", ["0d90ecd75f99657a"]),
    ("iota_arrow", ["57ab114d6b417b2b", "2b45ef46ca4b4980"]),
    ("iota_chain2", ["57ab114d6b417b2b", "2b45ef46ca4b4980", "cdffea79d5777d93"]),
    ("iota_discrete2", ["34e419dd51e37b81", "0d58e71bce3effd0"]),
    ("iota_parallel", ["57ab114d6b417b2b", "6ddf73312856d8f4"]),
    ("iota_z2", ["9d7ddfff47162c7e"]),
    ("single2cell", ["874499d7dab6e1cc", "af600936591839e6"]),
])
def test_slice_2functor_of_identity_triangle_is_pinned(name, expected):
    C = two_categories()[name]
    u = identity_two_functor(C)
    assert [digest(slice_2functor(u, u, u, c)) for c in C.objects] == expected


def test_slice_2functor_of_simplex_triangle_is_pinned():
    # delta_tilde(1) -> delta_tilde(2) -> delta_tilde(1), composing to the identity
    u = cosimplicial_operator((0, 2), 2)
    q = cosimplicial_operator((0, 0, 1), 1)
    p = compose_two_functors(q, u)
    slices = [slice_2functor(u, p, q, c) for c in p.target.objects]
    assert [digest(F) for F in slices] == ["c640f53b0c117835", "b5994cbbc93eff8e"]
    for F in slices:
        assert validate_two_functor(F) == []


def object_named_with_separator():
    return as_two_category(poset_category(["p>q", "r"], lambda a, b: a == b or (a, b) == ("p>q", "r")))


def slice_of_slice_of_simplex2():
    S = slice_2category(identity_two_functor(delta_tilde(2)), "2")
    return slice_2category(identity_two_functor(S), "(2|2)")


@pytest.mark.parametrize("builder", [object_named_with_separator, slice_of_slice_of_simplex2])
def test_component_functors_on_object_names_containing_the_separator(builder):
    A = builder()
    assert any(">" in a for a in A.objects)
    K = component_category(A)
    F = component_functor(identity_two_functor(A))
    assert validate_functor(F) == []
    assert F == identity_functor(K)
    G = component_transpose(inclusion_transpose(identity_functor(K), A))
    assert validate_functor(G) == []
    assert G.encode() == identity_functor(K).encode()


def test_two_functor_to_terminal_and_nerve_functor():
    C = delta_tilde(2)
    t = two_functor_to_terminal(C)
    assert validate_two_functor(t) == []


def test_geometric_nerve_functor_shim():
    from nervelab.twocat import geometric_nerve_functor
    from nervelab.simplicial import validate_map

    u = two_functor_to_terminal(as_two_category(arrow_category()))
    f = geometric_nerve_functor(u, 2)
    assert validate_map(f) == []
    assert f.levels[0]
