"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance here is exact (integer/structural equality); no
check is deferred to later calibration.
"""

import json
from pathlib import Path

import pytest

from cli_cases import CASES, GOLDEN

from nervelab.cat import (
    CatFunctor,
    count_functors,
    enumerate_functors,
    find_cat_iso,
    has_final_object,
    identity_functor,
    nerve,
    validate_category,
    validate_functor,
)
from nervelab.cli import main as cli_main
from nervelab.corpus import (
    LOOP_FREE,
    WITH_FINAL_OBJECT,
    categories,
    circle,
    localizer_universe,
    simplicial_objects,
    two_categories,
)
from nervelab.homology import (
    homology,
    smith_normal_form,
    weak_equivalence_evidence,
    weak_equivalence_evidence2,
)
from nervelab.lifting import (
    has_rlp,
    is_homotopy_cocartesian,
    small_object_factorize,
)
from nervelab.localizer import MarkedClass, closure, violations
from nervelab.presentations import cat_of, realize_cat, realize_twocat, twocat_of
from nervelab.simplicial import (
    SimplicialMap,
    boundary,
    compose_maps,
    constant_map,
    count_maps,
    enumerate_simplicial_maps,
    horn,
    pushout,
    standard_simplex,
    validate,
    validate_map,
)
from nervelab.subdivision import alpha, beta, ex, sd, transpose_from_ex
from nervelab.twocat import (
    TwoFunctor,
    as_two_category,
    as_two_functor,
    component_category,
    component_transpose,
    count_two_functors,
    delta_tilde,
    enumerate_two_functors,
    find_2cat_iso,
    geometric_nerve_cells,
    inclusion_transpose,
    object_admits_final,
    two_functor_to_terminal,
    validate_2category,
    validate_two_functor,
)


def report(criterion: str, ok: bool) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed"


# -- 1: structural suite --------------------------------------------------------------

def test_criterion_01_structural_suite():
    ok = True
    # standard cells n <= 3, all kinds
    for n in range(4):
        ok &= validate(standard_simplex(n, 3)) == []
        ok &= validate(boundary(n, 3)) == []
        for k in range(n + 1):
            ok &= validate(horn(n, k, 3)) == []
    # all corpus categories (<= 3 objects, <= 8 arrows) and their nerves
    for name, C in categories().items():
        ok &= len(C.objects) <= 3 and len(C.arrows) <= 8
        ok &= validate_category(C) == []
        ok &= validate(nerve(C, 3)) == []
        ok &= validate_functor(identity_functor(C)) == []
    # the 2-categorical simplices and all inclusion images
    for name, C2 in two_categories().items():
        ok &= validate_2category(C2) == []
    # functor laws on the universe's edges
    U = localizer_universe()
    for e in U.edges.values():
        ok &= validate_functor(e.functor) == []
    report("1 structural suite", ok)


# -- 2: the two nerves agree on categories ----------------------------------------------

def chain_to_two_functor(C, chain_cells, n):
    """The canonical 2-functor delta_tilde(n) -> iota(C) of an n-chain."""
    A = delta_tilde(n)
    B = as_two_category(C)
    if n == 0:
        obj = chain_cells[1:-1]  # "<a>"
        verts = [obj]
        arrows = {}
    else:
        chain = chain_cells.split("|")
        verts = [C.src[chain[0]]]
        for f in chain:
            verts.append(C.dst[f])
        arrows = {i: chain[i] for i in range(n)}
    objects = {str(i): verts[i] for i in range(n + 1)}

    def composite(i, j):
        if i == j:
            return C.identity[verts[i]]
        out = arrows[i]
        for k in range(i + 1, j):
            out = C.compose[(arrows[k], out)]
        return out

    on1 = {}
    on2 = {}
    for (a, b), H in A.hom.items():
        i, j = int(a), int(b)
        for S in H.objects:
            on1[(a, b, S)] = composite(i, j)
        for al in H.arrows:
            on2[(a, b, al)] = f"id_{composite(i, j)}"
    return TwoFunctor(A, B, objects, on1, on2, check=False)


def test_criterion_02_geometric_nerve_of_inclusion():
    D = 5
    ok = True
    for name, C in categories().items():
        N1 = nerve(C, D)
        N2 = geometric_nerve_cells(as_two_category(C), D).space
        iso_levels = {}
        for n in range(D + 1):
            level = {}
            for cell in N1.cells[n]:
                F = chain_to_two_functor(C, cell, n)
                level[cell] = F.encode()
            # levelwise bijection
            ok &= sorted(level.values()) == list(N2.cells[n])
            ok &= len(set(level.values())) == len(N1.cells[n])
            iso_levels[n] = level
        # operator compatibility: the constructor validates commutation
        iso = SimplicialMap(N1, N2, iso_levels, check=True)
        ok &= validate_map(iso) == []
    report("2 geometric nerve matches nerve through dimension 5", ok)


# -- 3: adjunction counting ---------------------------------------------------------------

def test_criterion_03_adjunction_counts():
    ok = True
    cats = categories()
    twos = two_categories()

    # (component, inclusion): 24 pairs with both counts and the bijection
    pairs_ti = [
        (twos[a], cats[d])
        for a in ("simplex2_1", "simplex2_2", "iota_arrow", "iota_chain2",
                  "single2cell", "iota_parallel")
        for d in ("terminal", "arrow", "chain2", "z2")
    ]
    assert len(pairs_ti) >= 20
    for A, D in pairs_ti:
        lhs = list(enumerate_two_functors(A, as_two_category(D)))
        rhs = list(enumerate_functors(component_category(A), D))
        ok &= len(lhs) == len(rhs)
        ok &= {component_transpose(F).encode() for F in lhs} == {G.encode() for G in rhs}
        ok &= {inclusion_transpose(G, A).encode() for G in rhs} == {F.encode() for F in lhs}

    # (sd, ex): 21 pairs, counts plus the alpha/beta transposition law
    objs = simplicial_objects(2)
    names = ["simplex0", "simplex1", "simplex2", "boundary1", "boundary2",
             "horn21", "circle"]
    pairs_se = [(objs[x], objs[y]) for x in names for y in names[:3]]
    assert len(pairs_se) >= 20
    for X, Y in pairs_se:
        SX, cert = sd(X)
        ok &= count_maps(SX, Y) == count_maps(X, ex(Y, X.dim_bound))
    for name in ("simplex1", "boundary1", "simplex2"):
        X = objs[name]
        SX, cert = sd(X)
        ok &= transpose_from_ex(beta(X), cert, X) == alpha(X, cert)

    # (categorification, nerve): 20 pairs
    sources = [objs[n] for n in ("simplex1", "simplex2", "boundary1", "boundary2", "horn21")]
    targets = [cats[n] for n in ("terminal", "arrow", "chain2", "z2")]
    count = 0
    for X in sources:
        r = realize_cat(cat_of(X))
        ok &= r.status == "finite"
        for C in targets:
            ok &= count_functors(r.category, C) == count_maps(X, nerve(C, X.dim_bound))
            count += 1
    assert count >= 20
    report("3 adjunction counting on >= 20 corpus pairs each", ok)


# -- 4: counit of the categorification ------------------------------------------------------

def test_criterion_04_counit():
    ok = True
    for name in LOOP_FREE:
        C = categories()[name]
        r = realize_cat(cat_of(nerve(C, 2)))
        ok &= r.status == "finite"
        ok &= r.certificate.get("confluent") is True
        ok &= find_cat_iso(r.category, C) is not None
    report("4 counit recovers every loop-free corpus category", ok)


# -- 5: the 2-categorical simplices from their presentations ----------------------------------

def test_criterion_05_delta_realization():
    ok = True
    for n in range(4):
        X = standard_simplex(n, max(n, 3))
        r = realize_twocat(twocat_of(X))
        ok &= r.status == "finite"
        ok &= validate_2category(r.two_category) == []
        ok &= find_2cat_iso(r.two_category, delta_tilde(n)) is not None
    report("5 presentations of the simplices realize the 2-simplices", ok)


# -- 6: homology oracle -------------------------------------------------------------------

def test_criterion_06_homology_oracle():
    ok = True
    h = homology(boundary(3, 3), 2)
    ok &= h.degrees == {0: (1, ()), 1: (0, ()), 2: (1, ())}
    for n in range(4):
        h = homology(standard_simplex(n, max(n + 1, 3)), 2)
        ok &= h.degrees == {0: (1, ()), 1: (0, ()), 2: (0, ())}
    h = homology(circle(2), 1)
    ok &= h.degrees == {0: (1, ()), 1: (1, ())}
    # Smith certificates verify by multiplication on the actual boundaries
    from nervelab.homology import normalized_chains

    for X in (boundary(3, 3), circle(2), standard_simplex(3, 4)):
        cc = normalized_chains(X)
        for n, mat in cc.boundary.items():
            if mat and mat[0]:
                ok &= smith_normal_form(mat).verify()
    report("6 homology oracle exact", ok)


# -- 7: subdivision invariance ----------------------------------------------------------------

def test_criterion_07_subdivision_invariance():
    ok = True
    spaces = {
        "boundary2": boundary(2, 4),
        "boundary3": boundary(3, 4),
        "simplex3": standard_simplex(3, 4),
        "circle": circle(4),
    }
    for name, X in spaces.items():
        S, cert = sd(X)
        ok &= len(S.level(0)) == sum(X.nondegenerate_counts())
        r = weak_equivalence_evidence(alpha(X, cert), 2)
        ok &= all(r.verdict(f"H{i}") == "PASS" for i in range(3))
        ok &= r.verdict("pi0") == "PASS"
    report("7 subdivision comparison maps are homology isomorphisms", ok)


# -- 8: final-object collapses pass the graded evidence ------------------------------------------

def test_criterion_08_final_collapse_evidence():
    ok = True
    for name in WITH_FINAL_OBJECT:
        C = categories()[name]
        ok &= has_final_object(C) is not None
        u = two_functor_to_terminal(as_two_category(C))
        r = weak_equivalence_evidence2(u, 4, 2)
        ok &= r.all_pass()
    for n in range(4):
        Dn = delta_tilde(n)
        admits, _ = object_admits_final(Dn, str(n))
        ok &= admits
        r = weak_equivalence_evidence2(two_functor_to_terminal(Dn), 4, 2)
        ok &= r.all_pass()
    report("8 collapse evidence passes through degree 2", ok)


# -- 9: lifting and factorization ------------------------------------------------------------------

def boundary_inclusions(n_max, D):
    out = []
    for n in range(n_max + 1):
        A = boundary(n, D)
        B = standard_simplex(n, D)
        out.append(SimplicialMap(A, B, {m: {c: c for c in A.cells[m]} for m in range(D + 1)}))
    return out


def test_criterion_09_lifting_and_factorization():
    ok = True
    D = 2
    p = constant_map(standard_simplex(1, D), standard_simplex(0, D), "0")
    has, witness = has_rlp(p, boundary_inclusions(2, D))
    ok &= has is False
    ok &= witness is not None and witness.top.levels[0] == {"0": "1", "1": "0"}

    D = 3
    f = constant_map(boundary(2, D), standard_simplex(0, D), "0")
    gens = boundary_inclusions(3, D)
    rep = small_object_factorize(f, gens, 8)
    ok &= rep.residual == []
    ok &= rep.composite_equals_input(f)
    certified, _ = has_rlp(rep.right, gens)
    ok &= certified
    ok &= rep.stages >= 1
    report("9 lifting counterexample and certified factorization", ok)


# -- 10: homotopy-cocartesian instances ---------------------------------------------------------------

def test_criterion_10_homotopy_cocartesian():
    ok = True
    D = 4

    def span_interval_glue():
        A = boundary(1, D)
        X = standard_simplex(0, D)
        Y = standard_simplex(1, D)
        f = SimplicialMap(A, X, {n: {c: "0" * (n + 1) for c in A.cells[n]} for n in range(D + 1)})
        g = SimplicialMap(A, Y, {n: {c: c for c in A.cells[n]} for n in range(D + 1)})
        return f, g

    def span_two_disks():
        A = boundary(2, D)
        Y = standard_simplex(2, D)
        inc = SimplicialMap(A, Y, {n: {c: c for c in A.cells[n]} for n in range(D + 1)})
        return inc, inc

    def span_wedge():
        A = standard_simplex(0, D)
        Y = standard_simplex(1, D)
        f = constant_map(A, Y, "1")
        g = constant_map(A, Y, "0")
        return f, g

    for f, g in (span_interval_glue(), span_two_disks(), span_wedge()):
        P, jx, jy = pushout(f, g)
        r = is_homotopy_cocartesian(f, g, jx, jy, 2)
        ok &= r.all_pass()
    report("10 strict pushouts along injective legs are homotopy pushouts", ok)


# -- 11: localizer closure ------------------------------------------------------------------------------

def test_criterion_11_localizer_closure():
    U = localizer_universe()
    ok = len(U.nodes) >= 8
    W = closure(U, MarkedClass(frozenset()))
    terminal = U.terminal_nodes()
    ok &= terminal == ("e", "sliceA0")
    for name in U.nodes:
        if U.node_satisfies_final_criterion(name):
            for ename, e in U.edges.items():
                if e.src == name and e.dst in terminal:
                    ok &= ename in W
    ok &= violations(U, W) == []
    report("11 localizer closure on a universe of >= 8 nodes", ok)


# -- 12: CLI determinism ----------------------------------------------------------------------------------

def test_criterion_12_cli_determinism(tmp_path):
    ok = True
    for name, argv in CASES:
        out1 = tmp_path / f"{name}_1.json"
        out2 = tmp_path / f"{name}_2.json"
        ok &= cli_main(argv + ["--out", str(out1)]) == 0
        ok &= cli_main(argv + ["--out", str(out2)]) == 0
        ok &= out1.read_bytes() == out2.read_bytes()
        ok &= out1.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
    report("12 CLI byte-identical across runs against checked-in goldens", ok)
