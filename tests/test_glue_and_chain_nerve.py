"""The constructions every colimit and standard object is made from: the
gluing of a disjoint union (``pushout``, ``disjoint_union``, a
factorization stage, the double mapping cylinder), subdivision
written from its normal form (``sd``), and the chain nerve of a finite
category (Delta_n, its boundary and horns and the subdivided simplex as
nerves of posets, and the nerve N(C) of a category), with the thin
categories built by one construction beside them.

The SHA-256 values below were computed from the canonical JSON of each
output before these constructions were shared, so any change to a cell
name, a level or an operator table shows up here.  The face-poset oracle
counts chains by brute force, independently of the code under test, and
the naive quotient (``reference_glue``) merges classes by the definition,
for pushouts, for quotients of many pieces (factorization stages and the
double mapping cylinder) and for sd X as the quotient of its pieces
(``reference_sd``).
"""

import hashlib
import json
import random
from itertools import combinations, combinations_with_replacement, islice
from pathlib import Path

import pytest

from nervelab import corpus, simplicial, subdivision, twocat
from nervelab.cat import chain_category, discrete_category, nerve, terminal_category
from nervelab.cli import main
from nervelab.errors import BoundError
from nervelab.homology import homology
from nervelab.lifting import homotopy_pushout, small_object_factorize
from nervelab.serialize import (
    canonical_json,
    factorization_to_doc,
    fin2cat_to_doc,
    fincat_to_doc,
    homology_to_doc,
    smap_from_doc,
    sset_to_doc,
)
from nervelab.simplicial import (
    SimplicialSet,
    boundary,
    boundary_inclusion,
    constant_map,
    enumerate_simplicial_maps,
    horn,
    pushout,
    standard_simplex,
)
from nervelab.subdivision import sd, sd_simplex
from nervelab.twocat import delta_tilde

DATA = Path(__file__).resolve().parent / "data"


def digest(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def sd_doc(X: SimplicialSet) -> dict:
    """sd X with the gluing map planted at every nondegenerate cell."""
    S, cert = sd(X)
    return {
        "space": sset_to_doc(S),
        "gluing": {f"{k}:{x}": {str(m): level for m, level in glue.levels.items()}
                   for (k, x), glue in cert.gluing.items()},
    }


def subdivided_objects() -> dict[str, SimplicialSet]:
    objects = dict(corpus.simplicial_objects(2))
    objects["boundary3"] = boundary(3, 3)
    return objects


def test_sd_is_pinned():
    docs = {name: sd_doc(X) for name, X in subdivided_objects().items()}
    assert digest(docs) == "4bf8b863a329e899f50add9d2073d3fc4b08e67b0d7a765ea8bd38556b78b22c"


def test_sd_of_sd_is_pinned():
    docs = {name: sd_doc(sd(X)[0]) for name, X in subdivided_objects().items()}
    assert digest(docs) == "e2d5a3c66b55eb1d7ee1e111f1bd4f1b1002fd90738893cb1d9ead9fafb2a7a2"


def test_standard_simplices_boundaries_and_horns_are_pinned():
    docs = {}
    for D in range(6):
        for n in range(min(4, D) + 1):
            docs[f"simplex{n}_{D}"] = sset_to_doc(standard_simplex(n, D))
            docs[f"boundary{n}_{D}"] = sset_to_doc(boundary(n, D))
            for k in range(n + 1):
                docs[f"horn{n}{k}_{D}"] = sset_to_doc(horn(n, k, D))
    assert len(docs) == 90
    assert digest(docs) == "86b2e7283d0bc42af5de860401cbaa8335ff7887931cea39d46579434b6ec30c"


def test_subdivided_simplices_are_pinned():
    docs = {f"{n}_{D}": sset_to_doc(sd_simplex(n, D)) for n in range(4) for D in range(6)}
    assert digest(docs) == "57593281d4961c664988525a477dfda59a9dc7f22a59724de31c5c7cdf8bf5d6"


def test_nerves_of_the_category_corpus_are_pinned():
    docs = {name: sset_to_doc(nerve(C, 3)) for name, C in corpus.categories().items()}
    assert len(docs) == 12
    assert digest(docs) == "dd50fa1588ff97e7c82dfcbd2605f24678b39d7f76b0b2214426710199a3ca40"


def test_thin_categories_are_pinned():
    docs = {
        "terminal": fincat_to_doc(terminal_category()),
        "discrete": fincat_to_doc(discrete_category(["a", "b", "c"])),
        "chain3": fincat_to_doc(chain_category(3)),
    }
    assert digest(docs) == "e16fa0128f4496024caa04ca5b82227128a5beaf508b52325e28dde97c586e62"


def test_two_categorical_simplices_are_pinned():
    docs = {str(n): fin2cat_to_doc(delta_tilde(n)) for n in range(5)}
    assert digest(docs) == "4ab91876050120aeb845cd1ddec5c02f0ec09edb6549d169b7e6e91b3c1070a8"


def test_standard_shapes_refuse_n_above_9_before_building_a_level(monkeypatch, capsys):
    def no_level(*args):
        raise AssertionError("a level was built")
    monkeypatch.setattr(simplicial, "_chain_nerve", no_level)
    monkeypatch.setattr(twocat, "_thin_category", no_level)
    shapes = [lambda: standard_simplex(10, 10), lambda: boundary(10, 10), lambda: horn(10, 0, 10),
              lambda: sd_simplex(10, 10), lambda: delta_tilde(10)]
    for build in shapes:
        with pytest.raises(BoundError, match=r"n <= 9 is required, got 10$"):
            build()
    assert main(["delta-tilde", "10"]) == 2
    assert "n <= 9 is required, got 10" in capsys.readouterr().err


def span_circle_hpushout_doc() -> dict:
    span = json.loads((DATA / "span_circle.json").read_text(encoding="utf-8"))
    P, from_x, from_y, from_cyl = homotopy_pushout(smap_from_doc(span["f"]), smap_from_doc(span["g"]))
    return {
        "space": sset_to_doc(P),
        "maps": [{str(n): level for n, level in m.levels.items()} for m in (from_x, from_y, from_cyl)],
    }


def test_homotopy_pushout_is_pinned():
    assert digest(span_circle_hpushout_doc()) == "dd5d0f5415ac5362be8792f9c1f2f23087f4c8133fa3582ad41d931bc2b8a7ba"


# -- oracle: sd K is the nerve of K's face poset -----------------------------

def closure(facets) -> set[frozenset]:
    return {frozenset(s) for f in facets for r in range(1, len(f) + 1) for s in combinations(f, r)}


def complex_sset(facets, D: int) -> SimplicialSet:
    """The ordered simplicial complex spanned by ``facets`` (sets of digits):
    level m holds the weak vertex chains v_0 <= ... <= v_m spanning a face."""
    faces = closure(facets)
    vertices = sorted(set().union(*faces))
    cells = {
        m: ["".join(map(str, c)) for c in combinations_with_replacement(vertices, m + 1)
            if frozenset(c) in faces]
        for m in range(D + 1)
    }
    faces = {m: {c: tuple(c[:i] + c[i + 1:] for i in range(m + 1)) for c in cells[m]} for m in range(1, D + 1)}
    degeneracies = {m: {c: tuple(c[:i + 1] + c[i:] for i in range(m + 1)) for c in cells[m]} for m in range(D)}
    return SimplicialSet(D, cells, faces, degeneracies)


def strict_chain_counts(faces: set[frozenset], D: int) -> tuple[int, ...]:
    """For m = 0..D, the number of chains F_0 < ... < F_m of faces of
    dimension at most D, counted over all (m+1)-subsets of faces."""
    poset = [f for f in faces if len(f) <= D + 1]
    return tuple(
        sum(1 for chain in combinations(poset, m + 1)
            if all(a < b or b < a for a, b in combinations(chain, 2)))
        for m in range(D + 1)
    )


def seeded_facets(seed: int) -> list[tuple[int, ...]]:
    rng = random.Random(seed)
    return [tuple(rng.sample(range(6), rng.randint(1, 3))) for _ in range(4)]


@pytest.mark.parametrize("facets, D", [
    ([(0, 1, 2)], 2),
    ([(0, 1, 2, 3)], 3),
    ([f for f in combinations(range(4), 3)], 3),
    ([(0, 1, 2), (1, 3), (3, 4), (4, 0)], 2),
] + [(seeded_facets(seed), 2 + seed % 2) for seed in range(10)])
def test_sd_counts_chains_of_the_face_poset(facets, D):
    K = complex_sset(facets, D)
    assert sd(K)[0].nondegenerate_counts() == strict_chain_counts(closure(facets), D)


@pytest.mark.parametrize("n, D", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_builtin_complexes_agree_with_their_face_posets(n, D):
    simplex = list(combinations(range(n + 1), n + 1))
    proper = list(combinations(range(n + 1), n))
    assert standard_simplex(n, D) == complex_sset(simplex, D)
    assert boundary(n, D) == complex_sset(proper, D)
    horn_facets = [f for f in proper if n - 1 in f]  # every facet but the one opposite n - 1
    assert horn(n, n - 1, D) == complex_sset(horn_facets, D)
    assert sd(boundary(n, D))[0].nondegenerate_counts() == strict_chain_counts(closure(proper), D)


# -- oracle: the quotient, by naive merging --------------------------------------

def reference_glue(D, pieces, pairs):
    """The quotient ``_glue`` computes, by the definition: start with one
    class per cell and merge the two classes of every pair until no pair
    spans two classes.  Each class is named by its least ``prefix + cell``,
    and every member must give it the same faces and degeneracies."""
    pairs = list(pairs)
    classes = {(n, j, c): frozenset([(j, c)])
               for j, (_, X) in enumerate(pieces) for n in range(D + 1) for c in X.cells[n]}
    merged = True
    while merged:
        merged = False
        for (j, n, c), (k, _, e) in pairs:
            a, b = classes[(n, j, c)], classes[(n, k, e)]
            if a != b:
                for member in a | b:
                    classes[(n, *member)] = a | b
                merged = True
    tables = [{n: {c: min(pieces[k][0] + e for k, e in classes[(n, j, c)]) for c in X.cells[n]}
               for n in range(D + 1)} for j, (_, X) in enumerate(pieces)]
    cells = {n: set() for n in range(D + 1)}
    faces, degeneracies = {n: {} for n in range(1, D + 1)}, {n: {} for n in range(D)}
    for j, (_, X) in enumerate(pieces):
        for n in range(D + 1):
            for c in X.cells[n]:
                name = tables[j][n][c]
                cells[n].add(name)
                if n >= 1:
                    d = tuple(tables[j][n - 1][x] for x in X.faces[n][c])
                    assert faces[n].setdefault(name, d) == d
                if n < D:
                    s = tuple(tables[j][n + 1][x] for x in X.degeneracies[n][c])
                    assert degeneracies[n].setdefault(name, s) == s
    return SimplicialSet(D, cells, faces, degeneracies), tables


def pushout_doc(f, g) -> str:
    P, jx, jy = pushout(f, g)
    return canonical_json({"space": sset_to_doc(P), "maps": [j.levels for j in (jx, jy)]})


def sphere(D: int):
    """S^2 = Delta^2 / bd Delta^2: the span Delta^0 <- bd Delta^2 -> Delta^2."""
    A = boundary(2, D)
    return constant_map(A, standard_simplex(0, D), "0"), boundary_inclusion(2, D)


def seeded_span(seed: int):
    """Two seeded maps out of one complex, picked among the first maps in
    enumeration order, which collapse cells as often as not."""
    rng = random.Random(seed)
    A, X, Y = (complex_sset(seeded_facets(rng.randrange(1000)), 2) for _ in range(3))
    f = rng.choice(list(islice(enumerate_simplicial_maps(A, X), 60)))
    g = rng.choice(list(islice(enumerate_simplicial_maps(A, Y), 60)))
    return f, g


@pytest.mark.parametrize("span", [sphere(2), sphere(3)] + [seeded_span(seed) for seed in range(12)],
                         ids=["sphere_2", "sphere_3"] + [f"seeded_{seed}" for seed in range(12)])
def test_pushout_is_the_naive_quotient(span, monkeypatch):
    f, g = span
    got = pushout_doc(f, g)
    monkeypatch.setattr(simplicial, "_glue", reference_glue)
    assert got == pushout_doc(f, g)


def factorize_doc(name: str) -> str:
    """The report of a corpus space -> point at D=3 against ``boundaries:3``
    with 6 stages, whose stages each glue many pieces at once."""
    X = corpus.simplicial_objects(3)[name]
    rep = small_object_factorize(constant_map(X, standard_simplex(0, 3), "0"),
                                 [boundary_inclusion(n, 3) for n in range(4)], 6)
    return canonical_json(factorization_to_doc(rep))


@pytest.mark.parametrize("name", ["boundary1", "horn21", "boundary2"])
def test_factorization_stages_are_the_naive_quotient(name, monkeypatch):
    got = factorize_doc(name)
    monkeypatch.setattr(simplicial, "_glue", reference_glue)
    assert got == factorize_doc(name)


def test_double_cylinder_is_the_naive_quotient(monkeypatch):
    got = canonical_json(span_circle_hpushout_doc())
    monkeypatch.setattr(simplicial, "_glue", reference_glue)
    assert got == canonical_json(span_circle_hpushout_doc())


def test_quotients_that_collapse_a_nondegenerate_cell_are_covered():
    # in S^2 each edge of Delta^2 is glued to a degenerate edge of the point;
    # and some seeded span collapses a nondegenerate cell the same way
    P, _, to_p = pushout(*sphere(3))
    assert [P.is_degenerate(1, to_p(1, e)) for e in ("01", "02", "12")] == [True] * 3
    assert P.nondegenerate_counts() == (1, 0, 1, 0)
    collapsed = 0
    for seed in range(12):
        f, g = seeded_span(seed)
        P, jx, jy = pushout(f, g)
        for j in (jx, jy):
            collapsed += sum(P.is_degenerate(n, j(n, c))
                             for n in (1, 2) for c in j.source.nondegenerate(n))
    assert collapsed > 0


# -- oracle: sd X as the quotient of its pieces, by naive merging ---------------

def reference_sd(X: SimplicialSet):
    """sd X by its definition as a colimit: one copy of sd Delta_k per
    nondegenerate k-cell x, with prefix ``k:x@``, and the copy of every face
    d_i x identified with the copy at its nondegenerate core, quotiented by
    :func:`reference_glue`.  Returns the space and, per nondegenerate cell,
    the table of its copy."""
    D = X.dim_bound
    nondeg = [(k, x) for k in range(D + 1) for x in X.nondegenerate(k)]
    piece = {kx: j for j, kx in enumerate(nondeg)}
    pairs = []
    for k, x in nondeg:
        for i in range(k + 1 if k else 0):
            inc = subdivision.sd_operator_map(simplicial.coface(k, i), k, D)
            epi, l, y = X.eilenberg_zilber(k - 1, X.d(k, i, x))
            move = subdivision.sd_operator_map(epi, l, D)
            pairs += [((piece[(k, x)], m, inc.levels[m][u]), (piece[(l, y)], m, move.levels[m][u]))
                      for m in range(D + 1) for u in sd_simplex(k - 1, D).cells[m]]
    space, tables = reference_glue(D, [(f"{k}:{x}@", sd_simplex(k, D)) for k, x in nondeg], pairs)
    return space, dict(zip(nondeg, tables))


def assert_sd_is_the_naive_quotient(X: SimplicialSet) -> None:
    """``sd`` against :func:`reference_sd`, the space and every gluing table."""
    space, tables = reference_sd(X)
    expected = {"space": sset_to_doc(space),
                "gluing": {f"{k}:{x}": {str(m): level for m, level in table.items()}
                           for (k, x), table in tables.items()}}
    assert canonical_json(sd_doc(X)) == canonical_json(expected)


def naive_quotient_inputs() -> dict[str, SimplicialSet]:
    inputs = {}
    for D in (2, 3):
        for name, X in corpus.simplicial_objects(D).items():
            inputs[f"{name}_{D}"] = X
            inputs[f"sd_{name}_{D}"] = sd(X)[0]
    for seed in range(12):
        inputs[f"pushout_{seed}"] = pushout(*seeded_span(seed))[0]
        inputs[f"complex_{seed}"] = complex_sset(seeded_facets(seed), 2)
    return inputs


NAIVE_QUOTIENT_INPUTS = naive_quotient_inputs()


@pytest.mark.parametrize("name", sorted(NAIVE_QUOTIENT_INPUTS))
def test_sd_is_the_naive_quotient(name):
    assert_sd_is_the_naive_quotient(NAIVE_QUOTIENT_INPUTS[name])


def test_sd_of_the_sphere_is_the_naive_quotient():
    for D in (2, 3):
        assert_sd_is_the_naive_quotient(pushout(*sphere(D))[0])
    S2 = pushout(*sphere(3))[0]
    assert_sd_is_the_naive_quotient(sd(S2)[0])
    h = homology_to_doc(homology(S2, 2))
    assert [h["degrees"][str(n)]["betti"] for n in range(3)] == [1, 0, 1]
    assert homology_to_doc(homology(sd(S2)[0], 2)) == h
