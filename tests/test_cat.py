"""Finite categories, functors, nerves, slices, category of elements."""

from itertools import product as iproduct

import pytest

from nervelab import corpus
from nervelab.cat import (
    CatFunctor,
    FinCat,
    arrow_category,
    category_of_elements,
    chain_category,
    compose_functors,
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
    slice_category,
    slice_functor,
    terminal_category,
    validate_category,
    validate_functor,
)
from nervelab.errors import ContractError, DomainError
from nervelab.presentations import cat_of, realize_cat
from nervelab.simplicial import boundary, find_simplicial_iso, standard_simplex, validate


def z2_group():
    return monoid_category(["e", "t"], "e", lambda g, f: "e" if g == f else "t")


def z3_group():
    def mult(g, f):
        return str((int(g) + int(f)) % 3)

    return monoid_category(["0", "1", "2"], "0", mult)


# -- oracles ------------------------------------------------------------------

def oracle_enumerate_functors(A, B):
    """Filter every (object map, arrow map) pair by the functor laws."""
    found = []
    for omap_vals in iproduct(B.objects, repeat=len(A.objects)):
        omap = dict(zip(A.objects, omap_vals))
        cands = []
        for f in A.arrows:
            cands.append(
                [g for g in B.arrows if B.src[g] == omap[A.src[f]] and B.dst[g] == omap[A.dst[f]]]
            )
        for amap_vals in iproduct(*cands):
            amap = dict(zip(A.arrows, amap_vals))
            if any(amap[A.identity[a]] != B.identity[omap[a]] for a in A.objects):
                continue
            ok = True
            for f in A.arrows:
                for g in A.arrows:
                    if A.dst[f] != A.src[g]:
                        continue
                    if amap[A.compose[(g, f)]] != B.compose[(amap[g], amap[f])]:
                        ok = False
            if ok:
                found.append((omap, amap))
    return found


# -- structure ----------------------------------------------------------------

@pytest.mark.parametrize("builder", [
    terminal_category,
    arrow_category,
    lambda: chain_category(2),
    lambda: discrete_category(["a", "b"]),
    parallel_pair_category,
    z2_group,
    z3_group,
])
def test_corpus_categories_validate(builder):
    assert validate_category(builder()) == []


# -- the hom table ----------------------------------------------------------------

def scanned_hom(C, a, b):
    """The reference for ``C.hom(a, b)``: a scan of every arrow, in arrow order."""
    return tuple(f for f in C.arrows if C.src[f] == a and C.dst[f] == b)


def categories_with_homs():
    """Every corpus category, every hom of the corpus 2-categories, the
    realized category of each corpus simplicial set whose category is
    finite (all but the circle), and a slice."""
    out = dict(corpus.categories())
    for family in (corpus.two_categories(), corpus.nonthin_two_categories()):
        for name, C in family.items():
            out.update({f"{name}:hom({a},{b})": H for (a, b), H in C.hom.items()})
    for name, X in corpus.simplicial_objects(2).items():
        if name != "circle":
            out[f"realize_cat({name})"] = realize_cat(cat_of(X)).category
    out["chain2/1"] = slice_category(identity_functor(chain_category(2)), "1")[0]
    return out


@pytest.mark.parametrize("name,C", categories_with_homs().items())
def test_hom_reads_the_arrows_a_scan_finds_in_their_order(name, C):
    assert isinstance(C, FinCat)
    ends = C.objects + ("ghost",)
    for a in ends:
        for b in ends:
            assert C.hom(a, b) == scanned_hom(C, a, b), (a, b)


def test_a_category_with_an_untyped_arrow_constructs_and_is_reported():
    C = arrow_category()
    src = {f: a for f, a in C.src.items() if f != "0<=1"}
    broken = FinCat(C.objects, C.arrows, src, C.dst, C.compose, C.identity)
    assert broken.hom("0", "1") == ()
    assert "arrow '0<=1' has missing or foreign endpoints" in validate_category(broken)


def test_nerve_of_terminal_is_point():
    N = nerve(terminal_category(), 3)
    assert N.counts() == (1, 1, 1, 1)


def test_nerve_of_arrow_category_is_interval():
    N = nerve(arrow_category(), 2)
    assert find_simplicial_iso(N, standard_simplex(1, 2)) is not None


def test_nerve_of_z2_level_sizes():
    N = nerve(z2_group(), 3)
    assert N.counts() == (1, 2, 4, 8)  # frozen: chains are tuples of group elements


@pytest.mark.parametrize("builder", [
    terminal_category,
    arrow_category,
    lambda: chain_category(2),
    parallel_pair_category,
    z2_group,
])
def test_nerves_validate(builder):
    assert validate(nerve(builder(), 3)) == []


# -- slices and final objects ---------------------------------------------------

def test_slice_of_identity_on_arrow_category():
    C = arrow_category()
    S, proj = slice_category(identity_functor(C), "1")
    assert len(S.objects) == 2
    non_id = [f for f in S.arrows if not S.is_identity(f)]
    assert len(non_id) == 1
    assert validate_category(S) == []
    assert validate_functor(proj) == []


def test_slice_constant_functor_trivial_hom():
    C = terminal_category()
    v = identity_functor(C)
    S, _ = slice_category(v, "*")
    assert find_cat_iso(S, C) is not None


def test_slice_over_final_object_has_final_object():
    C = chain_category(2)
    S, _ = slice_category(identity_functor(C), "2")
    z = has_final_object(S)
    assert z is not None
    # the final object is (final object, its identity)
    assert z == "(2|id_2)"


def test_slice_rejects_foreign_object():
    with pytest.raises(DomainError):
        slice_category(identity_functor(arrow_category()), "7")


def colliding_names_category():
    """Objects x, x|y, c and arrows y|z: x -> c, z: x|y -> c.  Over c the
    slice objects (x, y|z) and (x|y, z) would both be written (x|y|z)."""
    objects = ["x", "x|y", "c"]
    ends = {"y|z": ("x", "c"), "z": ("x|y", "c")}
    ends.update({f"id_{a}": (a, a) for a in objects})
    compose = {}
    for f, (a, b) in ends.items():
        compose[(f"id_{b}", f)] = f
        compose[(f, f"id_{a}")] = f
    return FinCat(objects, ends, {f: e[0] for f, e in ends.items()},
                  {f: e[1] for f, e in ends.items()}, compose, {a: f"id_{a}" for a in objects})


def test_slice_names_that_collide_are_an_error():
    C = colliding_names_category()
    assert validate_category(C) == []
    with pytest.raises(DomainError) as err:
        slice_category(identity_functor(C), "c")
    assert "('x', 'y|z')" in str(err.value) and "('x|y', 'z')" in str(err.value)


def test_has_final_object_examples():
    assert has_final_object(terminal_category()) == "*"
    assert has_final_object(arrow_category()) == "1"
    assert has_final_object(discrete_category(["a", "b"])) is None


def test_slice_functor_identity_is_identity():
    C = chain_category(2)
    u = identity_functor(C)
    uc = slice_functor(u, u, u, "2")
    assert uc.objects == {o: o for o in uc.source.objects}


def test_slice_functor_requires_commuting_triangle():
    C = chain_category(2)
    A = arrow_category()
    # u: include [1] as 0 <= 1, p as 0 <= 2: triangle q.u != p for q = id
    u = CatFunctor(A, C, {"0": "0", "1": "1"}, {"id_0": "id_0", "id_1": "id_1", "0<=1": "0<=1"})
    p = CatFunctor(A, C, {"0": "0", "1": "2"}, {"id_0": "id_0", "id_1": "id_2", "0<=1": "0<=2"})
    with pytest.raises(ContractError):
        slice_functor(u, p, identity_functor(C), "2")


def test_slice_functor_with_empty_source_is_empty():
    from nervelab.cat import FinCat

    empty = FinCat([], [], {}, {}, {}, {})
    C = arrow_category()
    u = CatFunctor(empty, C, {}, {})
    q = identity_functor(C)
    p = compose_functors(q, u)
    uc = slice_functor(u, p, q, "1")
    assert uc.source.objects == () and uc.objects == {}


def test_slice_functor_matches_brute_force_comma():
    # triangle: u: [1] -> [2] sending 0,1 to 0,2; p = q . u with q = id on [2]
    C = chain_category(2)
    A = arrow_category()
    u = CatFunctor(A, C, {"0": "0", "1": "2"}, {"id_0": "id_0", "id_1": "id_2", "0<=1": "0<=2"})
    q = identity_functor(C)
    p = compose_functors(q, u)
    uc = slice_functor(u, p, q, "2")
    # brute-force reconstruction of the object map from the comma definition
    for o in uc.source.objects:
        a, f = o[1:-1].split("|")
        assert uc.objects[o] == f"({u.objects[a]}|{f})"
    assert validate_functor(uc) == []


# -- category of elements -------------------------------------------------------

def test_elements_of_point_at_zero():
    E = category_of_elements(standard_simplex(0, 2), 0)
    assert find_cat_iso(E, terminal_category()) is not None


def test_elements_of_point_at_one():
    E = category_of_elements(standard_simplex(0, 2), 1)
    assert len(E.objects) == 2
    assert len(E.arrows) == 7  # frozen: monotone maps among [0], [1]
    assert validate_category(E) == []


def test_elements_of_two_points():
    E = category_of_elements(boundary(1, 2), 1)
    assert len(E.objects) == 4  # 2 vertices + 2 degenerate edges
    # no arrows between the two components: arrows split evenly
    assert len(E.arrows) == 14
    assert validate_category(E) == []


def test_elements_refuse_a_negative_truncation():
    with pytest.raises(DomainError, match=r"truncation -3 must be >= 0"):
        category_of_elements(standard_simplex(0, 2), -3)


# -- functor enumeration ----------------------------------------------------------

@pytest.mark.parametrize("pair", [
    (arrow_category, arrow_category),
    (arrow_category, lambda: chain_category(2)),
    (parallel_pair_category, arrow_category),
    (z2_group, z2_group),
])
def test_functor_enumeration_matches_brute_force(pair):
    A, B = pair[0](), pair[1]()
    fast = list(enumerate_functors(A, B))
    slow = oracle_enumerate_functors(A, B)
    assert len(fast) == len(slow)
    for F in fast:
        assert validate_functor(F) == []


def test_functor_count_to_terminal():
    assert count_functors(z3_group(), terminal_category()) == 1


def test_nerve_two_determined_on_small_categories():
    cats = [terminal_category(), arrow_category(), chain_category(2),
            discrete_category(["a", "b"]), parallel_pair_category(), z2_group(), z3_group()]
    for i, C in enumerate(cats):
        for j, D in enumerate(cats):
            if i >= j:
                continue
            nerves_iso = find_simplicial_iso(nerve(C, 2), nerve(D, 2)) is not None
            cats_iso = find_cat_iso(C, D) is not None
            assert nerves_iso == cats_iso
