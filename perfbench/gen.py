"""Seeded input generators for the benchmark.

Everything here is plain Python over integers and strings: the library
only ever sees the documents these functions build.  Sizes are fixed per
workload so that every seed does about the same amount of work; the seed
chooses shapes, labels and orders, not how big things are.
"""

from __future__ import annotations

import itertools
import random
from math import comb


# -- posets ------------------------------------------------------------------------

def _transitive_closure(n: int, rel: set[tuple[int, int]]) -> set[tuple[int, int]]:
    closed = set(rel)
    for k in range(n):
        for i in range(n):
            if (i, k) in closed:
                for j in range(n):
                    if (k, j) in closed:
                        closed.add((i, j))
    return closed


def nerve_counts(objects, arrows, D: int) -> list[int]:
    """Level counts of a category's nerve through D: composable chains of
    arrows, identities included, counted by their last object.  ``arrows``
    holds one (src, dst) pair per arrow."""
    ending = {a: 1 for a in objects}
    counts = [len(ending)]
    for _ in range(D):
        nxt = dict.fromkeys(ending, 0)
        for src, dst in arrows:
            nxt[dst] += ending[src]
        ending = nxt
        counts.append(sum(ending.values()))
    return counts


def strict_chains(n: int, less: set[tuple[int, int]]) -> int:
    """Number of strict chains of length >= 1 (the nondegenerate simplices above 0)."""
    ending = {i: 1 for i in range(n)}
    total = 0
    while any(ending.values()):
        nxt = {j: 0 for j in range(n)}
        for (i, j) in less:
            nxt[j] += ending[i]
        ending = nxt
        total += sum(ending.values())
    return total


def random_poset(rng: random.Random, n: int, relations: int, chains: int) -> set[tuple[int, int]]:
    """A poset on 0..n-1 with exactly ``relations`` strict pairs and exactly
    ``chains`` strict chains, drawn by rejection from random DAG closures."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    while True:
        order = list(range(n))
        rng.shuffle(order)
        rank = {v: r for r, v in enumerate(order)}
        forward = [(i, j) for (i, j) in pairs if rank[i] < rank[j]]
        rel = set(rng.sample(forward, rng.randint(1, relations)))
        less = _transitive_closure(n, rel)
        if len(less) == relations and strict_chains(n, less) == chains:
            return less


def poset_names(n: int) -> list[str]:
    return [f"p{i}" for i in range(n)]


def poset_arrow(a: str, b: str) -> str:
    return f"id_{a}" if a == b else f"{a}<{b}"


def poset_doc(n: int, less: set[tuple[int, int]]) -> dict:
    """The thin category of the poset as a fincat.v1 document."""
    names = poset_names(n)
    leq = sorted(less | {(i, i) for i in range(n)})
    arrows = [{"id": poset_arrow(names[i], names[j]), "src": names[i], "dst": names[j]}
              for (i, j) in leq]
    compose = []
    for (i, j) in leq:
        for (j2, k) in leq:
            if j == j2:
                compose.append([poset_arrow(names[j], names[k]),
                                poset_arrow(names[i], names[j]),
                                poset_arrow(names[i], names[k])])
    return {
        "objects": names,
        "arrows": sorted(arrows, key=lambda a: a["id"]),
        "compose": sorted(compose),
        "identity": {a: poset_arrow(a, a) for a in names},
    }


def random_chain(rng: random.Random, n: int, less: set[tuple[int, int]], length: int) -> list[int]:
    """A weakly increasing sequence x_0 <= ... <= x_length with at least two distinct values."""
    leq = less | {(i, i) for i in range(n)}
    while True:
        x = [rng.randrange(n)]
        for _ in range(length):
            ups = sorted(j for (i, j) in leq if i == x[-1])
            x.append(rng.choice(ups))
        if len(set(x)) > 1:
            return x


# -- simplicial complexes -------------------------------------------------------------

def random_complex(rng: random.Random, V: int, E: int, T: int) -> list[tuple[int, ...]]:
    """An ordered 2-dimensional complex on V vertices with exactly E edges and
    T triangles, connected.  Returns every simplex as a sorted vertex tuple."""
    all_tris = list(itertools.combinations(range(V), 3))
    all_edges = list(itertools.combinations(range(V), 2))
    while True:
        tris = rng.sample(all_tris, T)
        edges = {e for t in tris for e in itertools.combinations(t, 2)}
        if len(edges) > E:
            continue
        rest = [e for e in all_edges if e not in edges]
        edges |= set(rng.sample(rest, E - len(edges)))
        if _connected(V, edges):
            return [(v,) for v in range(V)] + sorted(edges) + sorted(tris)


def _connected(V: int, edges: set[tuple[int, int]]) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for (a, b) in edges:
            for x, y in ((a, b), (b, a)):
                if x == v and y not in seen:
                    seen.add(y)
                    stack.append(y)
    return len(seen) == V


def boundary_of_tetrahedron() -> list[tuple[int, ...]]:
    return [s for k in (1, 2, 3) for s in itertools.combinations(range(4), k)]


def euler_characteristic(simplices: list[tuple[int, ...]]) -> int:
    return sum((-1) ** (len(s) - 1) for s in simplices)


def vertex_name(v: int) -> str:
    return chr(ord("a") + v)


def cell_name(seq: tuple[int, ...]) -> str:
    return "".join(vertex_name(v) for v in seq)


def complex_cells(simplices: list[tuple[int, ...]], D: int) -> dict[int, list[tuple[int, ...]]]:
    """All cells through level D: weakly increasing vertex sequences spanning a simplex."""
    faces = set(simplices)
    cells: dict[int, list[tuple[int, ...]]] = {}
    verts = sorted({v for s in simplices for v in s})
    for m in range(D + 1):
        cells[m] = [seq for seq in itertools.combinations_with_replacement(verts, m + 1)
                    if tuple(sorted(set(seq))) in faces]
    return cells


def complex_doc(simplices: list[tuple[int, ...]], D: int) -> dict:
    """The simplicial set of an ordered complex, truncated at D, as sset.v1."""
    cells = complex_cells(simplices, D)
    face = []
    degeneracy = []
    for m in range(D + 1):
        for seq in cells[m]:
            name = cell_name(seq)
            if m >= 1:
                for i in range(m + 1):
                    face.append([m, i, name, cell_name(seq[:i] + seq[i + 1:])])
            if m < D:
                for i in range(m + 1):
                    degeneracy.append([m, i, name, cell_name(seq[:i + 1] + seq[i:])])
    return {
        "dim_bound": D,
        "cells": {str(m): sorted(cell_name(s) for s in cells[m]) for m in range(D + 1)},
        "face": sorted(face),
        "degeneracy": sorted(degeneracy),
    }


def inclusion_doc(sub: list[tuple[int, ...]], whole: list[tuple[int, ...]], D: int) -> dict:
    """The inclusion of a subcomplex as an smap.v1 document."""
    return {
        "source": complex_doc(sub, D),
        "target": complex_doc(whole, D),
        "levels": {str(m): {cell_name(s): cell_name(s) for s in cells}
                   for m, cells in complex_cells(sub, D).items()},
    }


def constant_doc(simplices: list[tuple[int, ...]], D: int) -> dict:
    """The map of an ordered complex to the point, as an smap.v1 document."""
    point = [(0,)]
    return {
        "source": complex_doc(simplices, D),
        "target": complex_doc(point, D),
        "levels": {str(m): {cell_name(s): "a" * (m + 1) for s in cells}
                   for m, cells in complex_cells(simplices, D).items()},
    }


def random_span(rng: random.Random, V: int, E: int, T: int) -> tuple[list, list, list]:
    """Two complexes X, Y glued along a common edge A: the legs are inclusions,
    so the strict pushout is a homotopy pushout."""
    X = random_complex(rng, V, E, T)
    Y = random_complex(rng, V, E, T)
    common = sorted({e for e in X if len(e) == 2} & {e for e in Y if len(e) == 2})
    while not common:
        Y = random_complex(rng, V, E, T)
        common = sorted({e for e in X if len(e) == 2} & {e for e in Y if len(e) == 2})
    e = rng.choice(common)
    A = [(e[0],), (e[1],), e]
    return A, X, Y


def delta_tilde3_level_count(n: int) -> int:
    """Cells at level n of the geometric nerve of the 2-categorical 3-simplex."""
    return comb(2 * n + 4, n + 1)
