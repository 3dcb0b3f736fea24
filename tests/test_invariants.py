"""Cross-module invariants: naturality, reflection properties, oracles."""

from itertools import product as iproduct

import pytest

from nervelab.cat import (
    CatFunctor,
    arrow_category,
    category_of_elements,
    chain_category,
    compose_functors,
    nerve,
    terminal_category,
)
from nervelab.corpus import circle, single_two_cell_2cat
from nervelab.homology import homology, homology_of_complex, normalized_chains
from nervelab.lifting import LiftingProblem, find_lift
from nervelab.simplicial import (
    SimplicialMap,
    boundary,
    components,
    constant_map,
    standard_simplex,
)
from nervelab.subdivision import sd
from nervelab.twocat import (
    as_two_category,
    as_two_functor,
    component_functor,
    component_transpose,
    compose_two_functors,
    delta_tilde,
    enumerate_two_functors,
    find_2cat_iso,
    geometric_nerve,
)
from nervelab.presentations import realize_twocat, twocat_of


# -- naturality of the (component, inclusion) transposition ------------------------

def test_component_transpose_natural_in_both_variables():
    # squares: phi: A' -> A a 2-functor, psi: D -> D' a functor;
    # transpose(iota(psi) . F . phi) must equal psi . transpose(F) . tau(phi)
    A = delta_tilde(2)
    A_prime = delta_tilde(1)
    phi = None
    from nervelab.twocat import cosimplicial_operator

    phi = cosimplicial_operator((0, 2), 2)  # delta_tilde(1) -> delta_tilde(2)
    D = arrow_category()
    D_prime = chain_category(2)
    psi = CatFunctor(D, D_prime, {"0": "0", "1": "2"},
                     {"id_0": "id_0", "id_1": "id_2", "0<=1": "0<=2"})
    for F in enumerate_two_functors(A, as_two_category(D)):
        lhs = component_transpose(
            compose_two_functors(as_two_functor(psi), compose_two_functors(F, phi))
        )
        rhs = compose_functors(
            psi, compose_functors(component_transpose(F), component_functor(phi))
        )
        assert lhs == rhs


# -- the category of elements reflects connectivity ---------------------------------

@pytest.mark.parametrize("builder,D_el,D_nerve", [
    (lambda: boundary(1, 3), 3, 1),
    (lambda: standard_simplex(1, 3), 3, 1),
    (lambda: boundary(2, 3), 3, 1),
])
def test_elements_category_preserves_components(builder, D_el, D_nerve):
    # instance-level reflection at degree zero: the nerve of the truncated
    # category of elements has the same number of components as the input
    X = builder()
    E = category_of_elements(X, D_el)
    N = nerve(E, D_nerve)
    assert len(set(components(N).values())) == len(set(components(X).values()))


# -- lift search completeness against brute force -------------------------------------

def oracle_all_fillers(P):
    """Filter every level assignment; exponential, tiny inputs only."""
    B, X = P.i.target, P.p.source
    bound = min(B.dim_bound, X.dim_bound)
    per_level = []
    for n in range(bound + 1):
        src = B.cells[n]
        per_level.append([dict(zip(src, pick)) for pick in iproduct(X.cells[n], repeat=len(src))])
    out = []
    for combo in iproduct(*per_level):
        levels = {n: combo[n] for n in range(bound + 1)}
        ok = True
        for n in range(1, bound + 1):
            for c in B.cells[n]:
                for i in range(n + 1):
                    if X.d(n, i, levels[n][c]) != levels[n - 1][B.d(n, i, c)]:
                        ok = False
        for n in range(bound):
            for c in B.cells[n]:
                for i in range(n + 1):
                    if X.s(n, i, levels[n][c]) != levels[n + 1][B.s(n, i, c)]:
                        ok = False
        if not ok:
            continue
        h = SimplicialMap(B, X, levels, check=False)
        from nervelab.simplicial import compose_maps

        if compose_maps(h, P.i) == P.top and compose_maps(P.p, h) == P.bottom:
            out.append(h)
    return out


def test_find_lift_complete_on_tiny_instances():
    A = boundary(1, 1)
    B = standard_simplex(1, 1)
    X = standard_simplex(1, 1)
    i = SimplicialMap(A, B, {n: {c: c for c in A.cells[n]} for n in range(2)})
    p = constant_map(X, standard_simplex(0, 1), "0")
    for u in [
        SimplicialMap(A, X, {0: {"0": a, "1": b},
                             1: {"00": a * 2, "11": b * 2}}, check=False)
        for a in "01" for b in "01"
    ]:
        v = constant_map(B, standard_simplex(0, 1), "0")
        P = LiftingProblem(i, p, u, v)
        found = find_lift(P)
        brute = oracle_all_fillers(P)
        assert (found is None) == (len(brute) == 0)
        if found is not None:
            assert any(found == h for h in brute)


# -- subdivision preserves homology exactly ----------------------------------------------

@pytest.mark.parametrize("builder,k", [
    (lambda: boundary(2, 3), 2),
    (lambda: standard_simplex(2, 3), 2),
    (lambda: circle(3), 2),
])
def test_sd_preserves_homology(builder, k):
    X = builder()
    S, _ = sd(X)
    assert homology(S, k) == homology(X, k)


# -- the gated 2-categorification counit ---------------------------------------------------

def test_counit_of_two_categorification_observed_outcomes():
    """Where the counit is an isomorphism on this corpus, and where not.

    Maps of geometric nerves correspond to normalized lax functors, so the
    counit need not be invertible; the iso cases here are those whose lax
    maps are all strict.  Both outcomes are pinned so a behavior change is
    caught.
    """
    iso_cases = {
        "iota_arrow": as_two_category(arrow_category()),
        "delta1": delta_tilde(1),
        "single2cell": single_two_cell_2cat(),
    }
    non_iso_cases = {
        "iota_chain2": as_two_category(chain_category(2)),
        "delta2": delta_tilde(2),
    }
    for name, C in iso_cases.items():
        r = realize_twocat(twocat_of(geometric_nerve(C, 3)))
        assert r.status == "finite"
        assert find_2cat_iso(r.two_category, C) is not None, name
    for name, C in non_iso_cases.items():
        r = realize_twocat(twocat_of(geometric_nerve(C, 3)))
        assert r.status == "finite"
        assert find_2cat_iso(r.two_category, C) is None, name
