"""The shared search kernel: a brute-force oracle for 2-functors, pinned
enumeration orders and isomorphism witnesses, and pin/allow/limit through
the lift search of every ambient."""

import hashlib
from itertools import product as iproduct

import pytest

from nervelab.cat import (
    CatFunctor,
    arrow_category,
    chain_category,
    compose_functors,
    enumerate_functors,
    find_cat_iso,
    identity_functor,
    monoid_category,
    nerve,
    poset_category,
    terminal_category,
)
from nervelab.corpus import categories, nonthin_two_categories, simplicial_objects, two_categories
from nervelab.lifting import LiftingProblem, find_lift
from nervelab.simplicial import (
    SimplicialMap,
    compose_maps,
    disjoint_union,
    enumerate_simplicial_maps,
    find_simplicial_iso,
    standard_simplex,
)
from nervelab.twocat import (
    TwoFunctor,
    as_two_category,
    as_two_functor,
    compose_two_functors,
    enumerate_two_functors,
    find_2cat_iso,
    identity_two_functor,
    validate_two_functor,
)

S = simplicial_objects(2)
C = categories()
T = {**two_categories(), **nonthin_two_categories(),
     # a composite of non-units that is a unit is placed before its parts, so
     # it is checked, not forced
     "iota_z3": as_two_category(C["z3"]), "iota_idempotent": as_two_category(C["idempotent"])}


# -- a brute-force oracle for 2-functors -----------------------------------------

def oracle_two_functors(A, B):
    """Every object map, 1-cell map and endpoint-respecting 2-cell map,
    filtered by the 2-functor laws."""
    found = []
    ones = [(a, b, f) for (a, b), H in sorted(A.hom.items()) for f in H.objects]
    twos = [(a, b, al) for (a, b), H in sorted(A.hom.items()) for al in H.arrows]
    for images in iproduct(B.objects, repeat=len(A.objects)):
        objects = dict(zip(A.objects, images))
        one_choices = [B.hom[(objects[a], objects[b])].objects for a, b, _ in ones]
        for one_images in iproduct(*one_choices):
            on1 = dict(zip(ones, one_images))
            two_choices = []
            for a, b, al in twos:
                H, K = A.hom[(a, b)], B.hom[(objects[a], objects[b])]
                s, d = on1[(a, b, H.src[al])], on1[(a, b, H.dst[al])]
                two_choices.append([t for t in K.arrows if K.src[t] == s and K.dst[t] == d])
            for two_images in iproduct(*two_choices):
                F = TwoFunctor(A, B, objects, on1, dict(zip(twos, two_images)), check=False)
                if validate_two_functor(F) == []:
                    found.append(F.encode())
    return found


@pytest.mark.parametrize("pair", [
    ("single2cell", "single2cell"),
    ("simplex2_1", "single2cell"),
    ("single2cell", "iota_arrow"),
    ("iota_chain2", "iota_arrow"),
    ("simplex2_2", "iota_chain2"),
    ("iota_parallel", "single2cell"),
    ("z2_on_unit", "z2_on_unit"),
    ("simplex2_2", "z2_on_unit"),
    ("parallel_2cells", "parallel_2cells"),
    ("simplex2_2", "parallel_2cells"),
    ("single2cell", "parallel_2cells"),
    ("parallel_2cells", "z2_on_unit"),
    ("iota_z2", "iota_idempotent"),
    ("iota_z3", "iota_idempotent"),
])
def test_two_functor_enumeration_matches_brute_force(pair):
    A, B = T[pair[0]], T[pair[1]]
    fast = list(enumerate_two_functors(A, B))
    slow = oracle_two_functors(A, B)
    assert slow, "the oracle should find the constant 2-functors at least"
    assert len(fast) == len(slow)
    assert {F.encode() for F in fast} == set(slow)
    for F in fast:
        assert validate_two_functor(F) == []


# -- enumeration order, pinned ---------------------------------------------------

def digest(maps):
    """The count and a fingerprint of the whole ``encode()`` sequence."""
    codes = [m.encode() for m in maps]
    return len(codes), hashlib.sha256("\n".join(codes).encode()).hexdigest()[:16]


@pytest.mark.parametrize("enumerate_maps, corpus, source, target, expected", [
    (enumerate_simplicial_maps, S, "boundary1", "circle", (1, "33618bc76f8cf5ed")),
    (enumerate_simplicial_maps, S, "horn21", "simplex2", (10, "31cccf63eaad0163")),
    (enumerate_simplicial_maps, S, "boundary2", "boundary2", (10, "9f20c190a3225b5f")),
    (enumerate_simplicial_maps, S, "simplex1", "horn21", (5, "01d434ad4a974702")),
    (enumerate_simplicial_maps, S, "circle", "boundary2", (3, "23a11941ff00086a")),
    (enumerate_functors, C, "span", "retract", (13, "ae90781175d7554f")),
    (enumerate_functors, C, "chain2", "retract", (13, "8f694ef726ccf346")),
    (enumerate_functors, C, "parallel", "chain2", (6, "e0bae93d62f9b4c7")),
    (enumerate_functors, C, "z3", "z3", (3, "9caad3f6e919096f")),
    (enumerate_functors, C, "retract", "retract", (3, "44cc026da0c46ad0")),
    (enumerate_functors, C, "cospan", "idempotent", (4, "bd3b80182c2c0199")),
    (enumerate_two_functors, T, "simplex2_2", "iota_chain2", (10, "9139924f4272fabf")),
    (enumerate_two_functors, T, "simplex2_2", "single2cell", (8, "ecb2da724f259d57")),
    (enumerate_two_functors, T, "single2cell", "simplex2_2", (8, "0ef6f21436010a91")),
    (enumerate_two_functors, T, "iota_z2", "iota_z2", (2, "d9f9d1fcd9ba9384")),
    (enumerate_two_functors, T, "simplex2_3", "simplex2_2", (31, "260ea36da4aa4c68")),
    (enumerate_two_functors, T, "iota_parallel", "single2cell", (6, "d7dabc41c65bc430")),
])
def test_enumeration_order_is_pinned(enumerate_maps, corpus, source, target, expected):
    assert digest(enumerate_maps(corpus[source], corpus[target])) == expected


def z3_relabelled():
    return monoid_category(["e", "x", "y"], "e", lambda g, f: "exy"[("exy".index(g) + "exy".index(f)) % 3])


def encoded(m):
    return None if m is None else m.encode()


def test_simplicial_iso_witnesses_are_pinned():
    two_edges = disjoint_union(standard_simplex(1, 2), standard_simplex(1, 2))[0]
    assert encoded(find_simplicial_iso(nerve(chain_category(1), 2), standard_simplex(1, 2))) == (
        "0:<0>>0;0:<1>>1;1:0<=1>01;1:id_0>00;1:id_1>11;"
        "2:0<=1|id_1>011;2:id_0|0<=1>001;2:id_0|id_0>000;2:id_1|id_1>111"
    )
    assert encoded(find_simplicial_iso(two_edges, two_edges)) == (
        "0:L:0>L:0;0:L:1>L:1;0:R:0>R:0;0:R:1>R:1;"
        "1:L:00>L:00;1:L:01>L:01;1:L:11>L:11;1:R:00>R:00;1:R:01>R:01;1:R:11>R:11;"
        "2:L:000>L:000;2:L:001>L:001;2:L:011>L:011;2:L:111>L:111;"
        "2:R:000>R:000;2:R:001>R:001;2:R:011>R:011;2:R:111>R:111"
    )
    assert encoded(find_simplicial_iso(S["circle"], S["circle"])) == (
        "0:L:0>L:0;1:L:00>L:00;1:R:01>R:01;2:L:000>L:000;2:R:001>R:001;2:R:011>R:011"
    )
    assert find_simplicial_iso(S["boundary2"], S["horn21"]) is None


def test_cat_iso_witnesses_are_pinned():
    reversed_chain = poset_category(["c", "b", "a"], lambda p, q: p >= q)
    assert encoded(find_cat_iso(C["z3"], z3_relabelled())) == "*>*/0>e,1>x,2>y"
    assert encoded(find_cat_iso(C["chain2"], reversed_chain)) == (
        "0>c,1>b,2>a/0<=1>c<=b,0<=2>c<=a,1<=2>b<=a,id_0>id_c,id_1>id_b,id_2>id_a"
    )
    assert encoded(find_cat_iso(C["discrete3"], C["discrete3"])) == (
        "a>a,b>b,c>c/id_a>id_a,id_b>id_b,id_c>id_c"
    )
    assert find_cat_iso(C["span"], C["cospan"]) is None


def test_2cat_iso_witnesses_are_pinned():
    z3, z3b = as_two_category(C["z3"]), as_two_category(z3_relabelled())
    assert encoded(find_2cat_iso(z3, z3b)) == (
        "*>*/*!*!0>e,*!*!1>x,*!*!2>y/*!*!id_0>id_e,*!*!id_1>id_x,*!*!id_2>id_y"
    )
    assert encoded(find_2cat_iso(T["simplex2_2"], T["simplex2_2"])) == (
        "0>0,1>1,2>2/0!0!0>0,0!1!01>01,0!2!012>012,0!2!02>02,1!1!1>1,1!2!12>12,2!2!2>2/"
        "0!0!0>0>0>0,0!1!01>01>01>01,0!2!012>012>012>012,0!2!012>02>012>02,"
        "0!2!02>02>02>02,1!1!1>1>1>1,1!2!12>12>12>12,2!2!2>2>2>2"
    )
    assert encoded(find_2cat_iso(T["iota_discrete2"], T["iota_discrete2"])) == (
        "a>a,b>b/a!a!id_a>id_a,b!b!id_b>id_b/a!a!id_id_a>id_id_a,b!b!id_id_b>id_id_b"
    )
    assert find_2cat_iso(T["single2cell"], T["iota_arrow"]) is None


# -- pin, allow and limit through find_lift --------------------------------------

def check_lift(P, enumerate_maps, compose, lifts):
    """find_lift returns the first of the ``lifts`` fillers that pin (the
    image of i) and allow (the fibers of p) leave, and limit=1 stops there."""
    image = dict(P.top.assignments())
    pin = {b: image[a] for a, b in P.i.assignments()}
    over, under = dict(P.p.assignments()), dict(P.bottom.assignments())

    def allow(b, x):
        return over[x] == under[b]

    B, X = P.i.target, P.p.source
    every = list(enumerate_maps(B, X, pin=pin, allow=allow))
    assert len(every) == lifts
    for h in every:
        assert compose(h, P.i) == P.top and compose(P.p, h) == P.bottom
    first = list(enumerate_maps(B, X, pin=pin, allow=allow, limit=1))
    assert first == every[:1] == [find_lift(P)]


def test_simplicial_lift_uses_pin_allow_and_limit():
    # edges of Delta_2 from vertex 0 over the edge 01 of Delta_1: 01 and 02
    D1, D2 = standard_simplex(1, 2), standard_simplex(2, 2)
    P0 = standard_simplex(0, 2)
    vertex = {n: {"0" * (n + 1): "0" * (n + 1)} for n in range(3)}
    i = SimplicialMap(P0, D1, vertex)
    top = SimplicialMap(P0, D2, vertex)
    squash = {n: {c: c.replace("2", "1") for c in D2.cells[n]} for n in range(3)}
    p = SimplicialMap(D2, D1, squash)
    bottom = SimplicialMap(D1, D1, {n: {c: c for c in D1.cells[n]} for n in range(3)})
    check_lift(LiftingProblem(i, p, top, bottom), enumerate_simplicial_maps, compose_maps, 2)


def test_cat_lift_uses_pin_allow_and_limit():
    # functors arrow -> chain2 from 0 over the identity of arrow: 0<=1 and 0<=2
    arrow, chain2 = arrow_category(), chain_category(2)
    i = CatFunctor(terminal_category(), arrow, {"*": "0"}, {"id_*": "id_0"})
    top = CatFunctor(terminal_category(), chain2, {"*": "0"}, {"id_*": "id_0"})
    p = CatFunctor(chain2, arrow, {"0": "0", "1": "1", "2": "1"}, {
        "id_0": "id_0", "id_1": "id_1", "id_2": "id_1",
        "0<=1": "0<=1", "0<=2": "0<=1", "1<=2": "id_1",
    })
    P = LiftingProblem(i, p, top, identity_functor(arrow))
    check_lift(P, enumerate_functors, compose_functors, 2)


def test_two_lift_uses_pin_allow_and_limit():
    # 2-functors iota(arrow) -> single2cell from a over the identity: 0<=1 goes to u or v
    single, iota_arrow = T["single2cell"], as_two_category(arrow_category())
    i = as_two_functor(CatFunctor(terminal_category(), arrow_category(), {"*": "0"}, {"id_*": "id_0"}))
    top = TwoFunctor(i.source, single, {"*": "a"}, {("*", "*", "id_*"): "1"},
                     {("*", "*", "id_id_*"): "id_1"})
    p = TwoFunctor(single, iota_arrow, {"a": "0", "b": "1"}, {
        ("a", "a", "1"): "id_0", ("b", "b", "1"): "id_1",
        ("a", "b", "u"): "0<=1", ("a", "b", "v"): "0<=1",
    }, {
        ("a", "a", "id_1"): "id_id_0", ("b", "b", "id_1"): "id_id_1",
        ("a", "b", "id_u"): "id_0<=1", ("a", "b", "id_v"): "id_0<=1", ("a", "b", "m"): "id_0<=1",
    })
    P = LiftingProblem(i, p, top, identity_two_functor(iota_arrow))
    check_lift(P, enumerate_two_functors, compose_two_functors, 2)
