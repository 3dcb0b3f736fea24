"""Smith normal form, integer homology, fundamental group, evidence reports."""

import hashlib
import importlib
import json
import random

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

import nervelab
from nervelab.corpus import simplicial_objects
from nervelab.errors import BoundError, DomainError
from nervelab.homology import (
    EvidenceReport,
    GroupPresentation,
    SmithNormalForm,
    classify_presentation,
    homology,
    homology_of_complex,
    integer_det,
    mapping_cone,
    mat_mul,
    normalized_chains,
    pi1_presentation,
    smith_normal_form,
    tietze_reduce,
    weak_equivalence_evidence,
    weak_equivalence_evidence2,
)
from nervelab.serialize import canonical_json
from nervelab.simplicial import (
    SimplicialMap,
    SimplicialSet,
    boundary,
    codegeneracy,
    constant_map,
    disjoint_union,
    empty_simplicial_set,
    identity_map,
    monotone_maps,
    pushout,
    standard_simplex,
    validate,
)
from nervelab.subdivision import alpha, sd
from nervelab.twocat import (
    TwoFunctor,
    as_two_category,
    delta_tilde,
    geometric_nerve_functor,
    identity_two_functor,
    two_functor_to_terminal,
)
from nervelab.cat import arrow_category, chain_category, discrete_category


def circle(D=3):
    A = boundary(1, D)
    X = standard_simplex(0, D)
    Y = standard_simplex(1, D)
    f = SimplicialMap(A, X, {n: {c: X.cells[n][0] for c in A.cells[n]} for n in range(D + 1)})
    g = SimplicialMap(A, Y, {n: {c: c for c in A.cells[n]} for n in range(D + 1)})
    return pushout(f, g)[0]


# -- Smith normal form ---------------------------------------------------------

def test_snf_identity():
    s = smith_normal_form([[1, 0], [0, 1]])
    assert s.diagonal == [[1, 0], [0, 1]]
    assert s.verify()


def test_snf_zero():
    s = smith_normal_form([[0, 0], [0, 0]])
    assert s.diagonal == [[0, 0], [0, 0]]
    assert s.invariants == ()
    assert s.verify()


def test_snf_diag_2_3():
    s = smith_normal_form([[2, 0], [0, 3]])
    assert s.invariants == (1, 6)
    assert s.verify()


def test_snf_rectangular_and_empty():
    s = smith_normal_form([[2, 4, 4]])
    assert s.invariants == (2,)
    assert s.verify()
    s2 = smith_normal_form([])
    assert s2.diagonal == []


def certificate_pin(s: SmithNormalForm) -> str:
    """SHA-256 prefix of canonical_json([diagonal, U, V]).  The pivot rule
    fixes the certificates, so an elimination shortcut that alters them
    changes the pin."""
    return hashlib.sha256(canonical_json([s.diagonal, s.U, s.V]).encode()).hexdigest()[:16]


# Certificate pins of the seeded matrices below, by seed: dense, with non-unit
# corners and units reached after a remainder swap.
RANDOM_SNF_PINS = [
    "db8c432b848a21af", "a5f0d959f9c9f244", "b162d3995302e69e", "c5edffcd398b69d5",  # 4x4 2x5 1x1 2x5
    "647548e61f838e4b", "c0f7a6fecf6fb359", "278064935922abae", "eb99dee4b70d1867",  # 2x3 5x3 5x1 3x2
    "23c3e0f66d82380c", "7ae3335fcf3ebed5", "fa69eeffba2f84ff", "d69149d0c58f36b6",  # 2x3 4x5 5x1 4x5
    "e230d930f6ec7a63", "5fca877689cc388f", "2895378576887845", "b4fda688652f203e",  # 4x3 3x3 1x5 2x1
    "3329e1bce17eb530", "4ed9d7de66065e38", "e1b4b2e3f2fb1367", "4c0d7fcd7a7e83cf",  # 3x4 5x4 2x1 1x5
]


@pytest.mark.parametrize("seed", range(20))
def test_snf_matches_sympy_on_random_matrices(seed):
    rng = random.Random(seed)
    rows = rng.randint(1, 5)
    cols = rng.randint(1, 5)
    M = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
    ours = smith_normal_form(M)
    assert ours.verify()
    theirs = sympy_snf(sympy.Matrix(M))
    their_inv = sorted(abs(theirs[i, i]) for i in range(min(rows, cols)) if theirs[i, i] != 0)
    assert sorted(map(abs, ours.invariants)) == their_inv
    assert certificate_pin(ours) == RANDOM_SNF_PINS[seed]


def test_integer_det():
    assert integer_det([[2, 1], [1, 1]]) == 1
    assert integer_det([[1, 2], [2, 4]]) == 0
    assert integer_det([]) == 1


# -- certificates: verify() rejects what is not one ---------------------------------

def test_verify_rejects_a_non_unimodular_certificate():
    # U . M . V == D holds, but det U = 2
    assert not SmithNormalForm([[1]], [[2]], [[2]], [[1]]).verify()


def test_verify_rejects_a_broken_divisibility_chain():
    eye = [[1, 0], [0, 1]]
    assert not SmithNormalForm([[2, 0], [0, 3]], [[2, 0], [0, 3]], eye, eye).verify()


def test_verify_rejects_a_product_mismatch():
    M = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    s = smith_normal_form(M)
    assert s.verify()
    s.matrix[1][2] += 1
    assert not s.verify()


@pytest.mark.parametrize("seed", range(40))
def test_integer_det_matches_sympy(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 8)
    M = [[rng.randint(-7, 7) for _ in range(n)] for _ in range(n)]
    if n >= 2 and seed % 3 == 0:  # a singular one: the last row is a combination of two others
        a, b = rng.sample(range(n - 1), 2) if n > 2 else (0, 0)
        M[-1] = [x - 2 * y for x, y in zip(M[a], M[b])]
    want = sympy.Matrix(M).det() if n else 1
    assert integer_det(M) == want
    if seed % 3 == 0 and n >= 2:
        assert want == 0


@pytest.mark.parametrize("seed", range(5))
def test_integer_det_of_elementary_products_is_a_unit(seed):
    rng = random.Random(seed)
    n = 30
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(200):
        i, j = rng.sample(range(n), 2)
        move = rng.randrange(3)
        if move == 0:
            q = rng.randint(-3, 3)
            M[i] = [a + q * b for a, b in zip(M[i], M[j])]
        elif move == 1:
            M[i], M[j] = M[j], M[i]
        else:
            M[i] = [-a for a in M[i]]
    assert integer_det(M) in (1, -1)


# -- SNF on real boundary matrices: sympy oracle and pinned certificates -------------

def _boundary_spaces():
    sd_boundary3 = sd(boundary(3, 3))[0]
    spaces = {"sd_boundary3": sd_boundary3, "sd2_boundary3": sd(sd_boundary3)[0]}
    for name, X in simplicial_objects(2).items():
        spaces[f"sd_{name}"] = sd(X)[0]
    return spaces


# Certificate pins (see certificate_pin) of boundary matrices, where almost
# every corner is a unit.
SNF_PINS = {
    ("sd_boundary3", 1): "2181647da8994ddf",  # 14x36
    ("sd_boundary3", 2): "bfb3fe7c81188952",  # 36x24
    ("sd2_boundary3", 1): "a4b6af6453c1a7b2",  # 74x216
    ("sd2_boundary3", 2): "e59f9581e1626924",  # 216x144
    ("sd_simplex1", 1): "1121a12be0a93aa5",  # 3x2
    ("sd_simplex2", 1): "eed2cd634d1672c2",  # 7x12
    ("sd_simplex2", 2): "984088c5a14019d5",  # 12x6
    ("sd_boundary2", 1): "525beb5fa20879c8",  # 6x6
    ("sd_horn21", 1): "ee2ca006bfdf1157",  # 5x4
    ("sd_circle", 1): "6db5786bb838f2f8",  # 2x2
}


def test_snf_of_boundary_matrices_matches_sympy_and_pins():
    seen = {}
    for name, S in _boundary_spaces().items():
        for n, M in sorted(normalized_chains(S).boundary.items()):
            if not M or not M[0]:
                continue
            s = smith_normal_form(M)
            assert s.verify()
            theirs = sympy_snf(sympy.Matrix(M))
            their_inv = sorted(abs(theirs[i, i]) for i in range(min(theirs.shape)) if theirs[i, i] != 0)
            assert list(s.invariants) == their_inv, (name, n)
            seen[(name, n)] = certificate_pin(s)
    assert seen == SNF_PINS


# Dense matrices with non-unit entries whose certificates used to blow up
# (29,934-bit entries for the first; the second did not finish in 10 s),
# with their invariants and certificate pins.
NON_UNIT_MATRICES = {
    "6x6": ([[1, -5, 2, 6, -6, -6], [6, -4, -3, 3, -6, 4], [5, -2, -4, 4, -2, 2],
             [4, 0, 5, 6, -5, -5], [-5, -2, 2, 3, -3, 0], [-2, -3, 6, 3, -6, -6]],
            (1, 1, 1, 1, 1, 1173), "5c032285fe2c03d6"),
    "7x7": ([[-4, -2, -1, -3, 2, 4, 4], [-3, -4, 5, -3, 0, -2, -6], [-1, 0, -4, -4, -2, -5, -1],
             [-2, 3, 3, -6, 3, 4, 5], [-1, -5, -2, -1, -2, 1, 5], [-1, -4, 1, 1, 5, -4, -6],
             [-2, -6, 5, -1, 0, -6, 2]],
            (1, 1, 1, 1, 1, 1, 548712), "950528e05629a55c"),
}


@pytest.mark.parametrize("name", sorted(NON_UNIT_MATRICES))
def test_snf_certificates_stay_small_on_non_unit_matrices(name):
    M, want, pin = NON_UNIT_MATRICES[name]
    s = smith_normal_form(M)
    assert s.verify()
    assert certificate_pin(s) == pin
    theirs = sympy_snf(sympy.Matrix(M))
    assert s.invariants == want == tuple(abs(int(theirs[i, i])) for i in range(len(M)))
    assert max(abs(x).bit_length() for C in (s.U, s.V) for row in C for x in row) <= 64
    json.dumps([s.U, s.V])


# -- chain complexes -------------------------------------------------------------

def test_chains_of_point():
    cc = normalized_chains(standard_simplex(0, 2))
    assert tuple(cc.rank(n) for n in range(3)) == (1, 0, 0)


def test_chains_of_boundary_two():
    cc = normalized_chains(boundary(2, 2))
    assert (cc.rank(0), cc.rank(1), cc.rank(2)) == (3, 3, 0)


@pytest.mark.parametrize("builder", [
    lambda: standard_simplex(3, 3),
    lambda: boundary(3, 3),
    lambda: circle(),
])
def test_boundary_squares_to_zero(builder):
    assert normalized_chains(builder()).validate() == []


# -- homology ---------------------------------------------------------------------

def test_homology_of_sphere_two():
    h = homology(boundary(3, 3), 2)
    assert h.degrees == {0: (1, ()), 1: (0, ()), 2: (1, ())}


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_homology_of_simplex_is_point(n):
    h = homology(standard_simplex(n, max(n, 3) + 1), 2)
    assert h.degrees == {0: (1, ()), 1: (0, ()), 2: (0, ())}


def test_homology_of_circle():
    h = homology(circle(), 1)
    assert h.degrees == {0: (1, ()), 1: (1, ())}


def test_homology_of_empty():
    h = homology(empty_simplicial_set(2), 1)
    assert h.degrees == {0: (0, ()), 1: (0, ())}


def test_homology_insufficient_bound():
    with pytest.raises(BoundError):
        homology(standard_simplex(1, 1), 1)


def pseudo_projective_plane(D=3):
    """A 2-cell glued to the one-vertex circle running twice around the loop."""
    S1 = circle(D)
    loop = S1.nondegenerate(1)[0]
    vertex = S1.cells[0][0]
    A = boundary(2, D)
    B = standard_simplex(2, D)
    from nervelab.simplicial import simplicial_operator

    levels = {0: {v: vertex for v in A.cells[0]}}
    image_of_edge = {"01": loop, "12": loop, "02": S1.s(0, 0, vertex)}
    for n in range(1, D + 1):
        lvl = {}
        for c in A.cells[n]:
            epi, k, y = A.eilenberg_zilber(n, c)
            if k == 0:
                img = vertex
                for m in range(n):
                    img = S1.s(m, 0, img)
                lvl[c] = img
            else:
                lvl[c] = simplicial_operator(S1, epi, 1, image_of_edge[y]) if k == 1 else None
        levels[n] = lvl
    attach = SimplicialMap(A, S1, levels)
    include = SimplicialMap(B, B, {n: {c: c for c in B.cells[n]} for n in range(D + 1)})
    inc = SimplicialMap(A, B, {n: {c: c for c in A.cells[n]} for n in range(D + 1)})
    return pushout(attach, inc)[0]


def test_torsion_in_homology():
    # loop squared bounds a disk: H_1 is cyclic of order two, H_2 vanishes
    P = pseudo_projective_plane()
    h = homology(P, 2)
    assert h.degrees == {0: (1, ()), 1: (0, (2,)), 2: (0, ())}


def test_torsion_in_pi1():
    P = pseudo_projective_plane()
    p = pi1_presentation(P, P.cells[0][0])
    assert classify_presentation(p) == "cyclic(2)"
    assert p.abelian_invariants() == (0, (2,))


def test_evidence_detects_torsion_failure():
    # collapsing the torsion complex to a point is not an equivalence at H1
    P = pseudo_projective_plane()
    f = constant_map(P, standard_simplex(0, P.dim_bound), "0")
    r = weak_equivalence_evidence(f, 1)
    assert r.verdict("pi0") == "PASS"
    assert r.verdict("H1") == "FAIL"
    witness = r.witnesses["H1"]["cone_homology"]
    assert (0, (2,)) in witness.values()  # the cone carries the torsion group


def test_euler_characteristic_matches_cell_count():
    for X in [boundary(3, 3), circle(), standard_simplex(2, 3)]:
        cc = normalized_chains(X)
        h = homology_of_complex(cc, X.dim_bound)
        chi_h = sum((-1) ** n * h.betti(n) for n in range(X.dim_bound + 1))
        chi_c = sum((-1) ** n * len(X.nondegenerate(n)) for n in range(X.dim_bound + 1))
        assert chi_h == chi_c


# -- unit-pivot reduction against the sympy oracle -------------------------------------

def sympy_homology(cc, upto):
    """Betti numbers and torsion read off sympy's SNF of each dense boundary."""
    reduced = {}
    for n in range(1, upto + 2):
        M = cc.boundary[n] if n in cc.boundary else []
        if M and M[0]:
            S = sympy_snf(sympy.Matrix(M))
            diag = [abs(int(S[i, i])) for i in range(min(S.shape)) if S[i, i] != 0]
            reduced[n] = (len(diag), tuple(sorted(d for d in diag if d > 1)))
    rank = lambda n: reduced.get(n, (0, ()))[0]
    return {n: (cc.rank(n) - rank(n) - rank(n + 1), reduced.get(n + 1, (0, ()))[1])
            for n in range(upto + 1)}


def from_nondegenerate(D, nondeg, faces):
    """The simplicial set, truncated at D, with nondegenerate cells ``nondeg[k]``
    and ``faces[(k, j, x)] = (epi, y)``: d_j x is y degenerated along the
    surjection epi.  Level n has one cell per surjection [n] ->> [k] and x in
    ``nondeg[k]``; its faces and degeneracies follow from the epi-mono
    factorization."""
    def name(epi, x):
        return x if epi == tuple(range(len(epi))) else f"{x}@{''.join(map(str, epi))}"

    def face(epi, x, i):
        rest = epi[:i] + epi[i + 1:]
        j = next((v for v in range(epi[-1] + 1) if v not in rest), None)
        if j is None:
            return name(rest, x)
        tau, y = faces[(epi[-1], j, x)]
        return name(tuple(tau[v - (v > j)] for v in rest), y)

    level = {n: [(epi, x) for k in range(n + 1) for x in nondeg.get(k, ())
                 for epi in monotone_maps(n, k) if len(set(epi)) == k + 1]
             for n in range(D + 1)}
    return SimplicialSet(
        D,
        {n: [name(*c) for c in level[n]] for n in level},
        {n: {name(*c): tuple(face(*c, i) for i in range(n + 1)) for c in level[n]} for n in range(1, D + 1)},
        {n: {name(epi, x): tuple(name(tuple(epi[v] for v in codegeneracy(n, i)), x) for i in range(n + 1))
             for epi, x in level[n]} for n in range(D)},
    )


def one_vertex_complex(loops, triangles, D=3):
    """Loops a0, a1, ... at one vertex, and one triangle per (d0, d1, d2) in
    ``triangles``, each face a loop's index or None for the degenerate edge."""
    nondeg = {0: ["v"], 1: [f"a{i}" for i in range(loops)],
              2: [f"t{i}" for i in range(len(triangles))]}
    faces = {(1, j, a): ((0,), "v") for a in nondeg[1] for j in (0, 1)}
    for t, edges in zip(nondeg[2], triangles):
        for j, e in enumerate(edges):
            faces[(2, j, t)] = ((0, 0), "v") if e is None else ((0, 1), f"a{e}")
    return from_nondegenerate(D, nondeg, faces)


def moore_space_z3():
    """M(Z/3, 1): a disk of two triangles, glued along an inner edge b, whose
    boundary runs three times around the loop a (d t0 = 2a - b, d t1 = a + b)."""
    return one_vertex_complex(2, [(0, 1, 0), (0, None, 1)])


def random_one_vertex_complex(seed):
    rng = random.Random(seed)
    loops = rng.randint(1, 4)
    letters = [None] + list(range(loops))
    return one_vertex_complex(loops, [tuple(rng.choice(letters) for _ in range(3))
                                      for _ in range(rng.randint(1, 6))])


CORPUS_CASES = [
    pytest.param(name, depth, id=("sd_" * depth) + name,
                 marks=[pytest.mark.slow] if (name, depth) == ("simplex3", 2) else [])
    for name in simplicial_objects(3) for depth in range(3)
]


@pytest.mark.parametrize("name,depth", CORPUS_CASES)
def test_homology_of_corpus_and_subdivisions_matches_sympy(name, depth):
    X = simplicial_objects(3)[name]
    for _ in range(depth):
        X = sd(X)[0]
    assert homology(X, 2).degrees == sympy_homology(normalized_chains(X), 2)


def test_homology_of_moore_space_matches_sympy():
    X = moore_space_z3()
    assert validate(X) == []
    h = homology(X, 2)
    assert h.degrees == {0: (1, ()), 1: (0, (3,)), 2: (0, ())}
    assert h.degrees == sympy_homology(normalized_chains(X), 2)


def test_homology_of_pseudo_projective_plane_matches_sympy():
    P = pseudo_projective_plane()
    assert homology(P, 2).degrees == sympy_homology(normalized_chains(P), 2)


RANDOM_COMPLEX_SEEDS = range(20)


@pytest.mark.parametrize("seed", RANDOM_COMPLEX_SEEDS)
def test_homology_of_random_one_vertex_complexes_matches_sympy(seed):
    X = random_one_vertex_complex(seed)
    assert validate(X) == []
    assert homology(X, 2).degrees == sympy_homology(normalized_chains(X), 2)


def test_random_one_vertex_complexes_have_torsion():
    # torsion is a non-unit invariant, so these reach the Smith remainder
    torsion = [s for s in RANDOM_COMPLEX_SEEDS
               if homology(random_one_vertex_complex(s), 2).torsion(1)]
    assert len(torsion) >= 3


def _point_into_pair():
    Cb = as_two_category(discrete_category(["a", "b"]))
    Ca = as_two_category(discrete_category(["a"]))
    return TwoFunctor(Ca, Cb, {"a": "a"}, {("a", "a", "id_a"): "id_a"},
                      {("a", "a", "id_id_a"): "id_id_a"}, check=False)


def _collapse_torsion():
    P = pseudo_projective_plane()
    return constant_map(P, standard_simplex(0, P.dim_bound), "0")


# The maps of the evidence tests above, with the degree each checks.
EVIDENCE_MAPS = {
    "identity_boundary2": (lambda: identity_map(boundary(2, 3)), 1),
    "fold": (lambda: constant_map(disjoint_union(standard_simplex(0, 2), standard_simplex(0, 2))[0],
                                  standard_simplex(0, 2), "0"), 0),
    "boundary_into_disk": (lambda: SimplicialMap(
        boundary(2, 3), standard_simplex(2, 3),
        {n: {c: c for c in boundary(2, 3).cells[n]} for n in range(4)}), 1),
    "collapse_torsion": (_collapse_torsion, 1),
    "alpha_circle": (lambda: alpha(circle(4)), 2),
    "w2_delta2_to_terminal": (lambda: geometric_nerve_functor(
        two_functor_to_terminal(delta_tilde(2)), 4), 2),
    "w2_identity_arrow": (lambda: geometric_nerve_functor(
        identity_two_functor(as_two_category(arrow_category())), 3), 1),
    "w2_point_into_pair": (lambda: geometric_nerve_functor(_point_into_pair(), 2), 0),
}


@pytest.mark.parametrize("name", list(EVIDENCE_MAPS))
def test_homology_of_mapping_cones_matches_sympy(name):
    build, k = EVIDENCE_MAPS[name]
    cone = mapping_cone(build())
    assert cone.validate() == []
    assert homology_of_complex(cone, k + 1).degrees == sympy_homology(cone, k + 1)


def test_validate_catches_a_corrupted_boundary():
    cc = normalized_chains(boundary(3, 3))
    assert cc.validate() == []
    col = cc.columns[2][0]
    row = min(col)
    col[row] = -col[row]
    assert cc.boundary[2][row][0] == col[row]  # the dense view reads the columns
    assert cc.validate() == ["boundary squared is nonzero from degree 2"]


@pytest.mark.slow
def test_homology_of_twice_subdivided_boundary_of_4_simplex():
    S = sd(sd(boundary(4, 4))[0])[0]
    assert S.nondegenerate_counts() == (540, 3420, 5760, 2880, 0)
    assert homology(S, 3).degrees == {0: (1, ()), 1: (0, ()), 2: (0, ()), 3: (1, ())}


# -- fundamental group --------------------------------------------------------------

def test_pi1_circle_is_free_on_one_generator():
    p = pi1_presentation(circle(), circle().cells[0][0])
    q = tietze_reduce(p)
    assert len(q.generators) == 1 and q.relations == ()
    assert classify_presentation(p) == "free(1)"


def test_tietze_substitutes_a_generator_that_a_relation_defines():
    p = GroupPresentation(("a", "b"), ((("a", 1), ("b", 1)),))
    assert tietze_reduce(p) == GroupPresentation(("b",), ())
    assert classify_presentation(p) == "free(1)"


def test_tietze_substitutes_a_defined_generator_into_the_other_relations():
    # a b^-2 = 1 defines a = b^2, which turns a^3 into b^6 and a^-1 b^5 into b^3
    p = GroupPresentation(("a", "b"), ((("a", 1), ("b", -2)), (("a", 3),), (("a", -1), ("b", 5))))
    q = tietze_reduce(p)
    assert q == GroupPresentation(("b",), ((("b", 3),), (("b", 6),)))
    # the abelianization is read off the relation matrix, with no Tietze move
    assert p.abelian_invariants() == q.abelian_invariants() == (0, (3,))
    assert classify_presentation(p) == "cyclic(3)"


def test_pi1_of_an_empty_end_compares_only_emptiness():
    empty, point = empty_simplicial_set(2), standard_simplex(0, 2)
    both = weak_equivalence_evidence(identity_map(empty), 0)
    assert (both.checks["pi1"], both.witnesses["pi1"]) == ("PASS", {"reason": "both empty"})
    one = weak_equivalence_evidence(SimplicialMap(empty, point, {n: {} for n in range(3)}), 0)
    assert (one.checks["pi1"], one.witnesses["pi1"]) == ("FAIL", {"reason": "one side empty"})
    # the other checks agree: the point's one component is missed, and the
    # cone of the inclusion of the empty set has the point's H_0
    assert one.checks["pi0"] == "FAIL" and homology(point, 0).degrees[0] == (1, ())
    assert one.checks["H0"] == "FAIL" and both.checks["H0"] == "PASS"
    with pytest.raises(DomainError, match="basepoint 'ghost' is not a vertex"):
        pi1_presentation(point, "ghost")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_pi1_simplex_trivial(n):
    X = standard_simplex(n, 3)
    assert classify_presentation(pi1_presentation(X, "0")) == "trivial"


def test_pi1_boundary_two():
    p = pi1_presentation(boundary(2, 2), "0")
    assert len(p.generators) == 1 and p.relations == ()


def test_pi1_abelianization():
    p = pi1_presentation(circle(), circle().cells[0][0])
    assert p.abelian_invariants() == (1, ())


# -- evidence -----------------------------------------------------------------------

def test_identity_map_all_pass():
    X = boundary(2, 3)
    r = weak_equivalence_evidence(identity_map(X), 1)
    assert r.all_pass()


def test_fold_map_fails_pi0():
    P, _, _ = disjoint_union(standard_simplex(0, 2), standard_simplex(0, 2))
    pt = standard_simplex(0, 2)
    f = constant_map(P, pt, "0")
    r = weak_equivalence_evidence(f, 0)
    assert r.verdict("pi0") == "FAIL"
    assert "witness" in r.witnesses["pi0"]


def test_cone_detects_homology_failure():
    # the inclusion of the boundary circle into the disk is not an equivalence
    f = SimplicialMap(
        boundary(2, 3),
        standard_simplex(2, 3),
        {n: {c: c for c in boundary(2, 3).cells[n]} for n in range(4)},
    )
    r = weak_equivalence_evidence(f, 1)
    assert r.verdict("H1") == "FAIL"
    assert r.verdict("pi0") == "PASS"


def test_evidence_requires_bounds():
    with pytest.raises(BoundError):
        weak_equivalence_evidence(identity_map(standard_simplex(1, 2)), 1)


def test_chain_map_of_constant_map_kills_positive_degrees():
    X = boundary(2, 2)
    f = constant_map(X, standard_simplex(0, 2), "0")
    # degree 2 of the cone is C_1(X) + C_2(pt); the edges map to degenerate
    # cells of the point, so their columns hold -dx alone
    cone = mapping_cone(f)
    dX = normalized_chains(X).columns[1]
    assert cone.columns[2] == [{i: -v for i, v in col.items()} for col in dX]


def test_w2_evidence_delta2_to_terminal():
    u = two_functor_to_terminal(delta_tilde(2))
    r = weak_equivalence_evidence2(u, 4, 2)
    assert r.all_pass()


def test_w2_identity_passes():
    u = identity_two_functor(as_two_category(arrow_category()))
    r = weak_equivalence_evidence2(u, 3, 1)
    assert r.all_pass()


def test_w2_point_into_discrete_pair_fails_pi0():
    Cb = as_two_category(discrete_category(["a", "b"]))
    Ca = as_two_category(discrete_category(["a"]))
    from nervelab.twocat import TwoFunctor

    incl = TwoFunctor(Ca, Cb, {"a": "a"}, {("a", "a", "id_a"): "id_a"},
                      {("a", "a", "id_id_a"): "id_id_a"}, check=False)
    r = weak_equivalence_evidence2(incl, 2, 0)
    assert r.verdict("pi0") == "FAIL"


def test_the_attribute_is_the_function_and_the_module_is_imported_by_name():
    """The package re-exports the function ``homology`` under its module's
    name, so the attribute ``nervelab.homology`` (and what ``import
    nervelab.homology as H`` binds) is the function; the module's names are
    reached with ``from nervelab.homology import ...`` and the module itself
    with ``importlib.import_module``."""
    import nervelab.homology as H

    module = importlib.import_module("nervelab.homology")
    assert H is nervelab.homology is homology is module.homology
    assert module.__name__ == "nervelab.homology" and module.smith_normal_form is smith_normal_form
