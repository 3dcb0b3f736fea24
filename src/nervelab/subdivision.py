"""Barycentric subdivision, the bounded extension functor, and the
last-vertex comparison maps.

``sd(X)`` is computed by gluing one subdivided simplex per nondegenerate
cell of X: the copies are indexed by tagged ids ``level:cell@chain`` and
identified along faces by a levelwise union-find.  The returned
certificate records, per nondegenerate cell, the resulting gluing map
``sd_simplex(k) -> sd(X)``; those maps are simultaneously the class
lookup used by functoriality and the transposition helpers.

``ex(X, D)`` has, at level n, all simplicial maps from the subdivided
n-simplex into X; operators act by precomposition.  ``alpha`` is the
last-vertex map and ``beta`` its adjoint transpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional

from .errors import BoundError, ContractError
from .simplicial import (
    Cell,
    Monotone,
    SimplicialMap,
    SimplicialSet,
    _listed,
    _map_name_template,
    _singular,
    _UnionFind,
    coface,
    enumerate_simplicial_maps,
    simplicial_operator,
)

# chains of subsets are encoded "S0.S1.S2" with each subset a digit string


def _chain_parts(chain: Cell) -> list[str]:
    return chain.split(".")


def _chain_join(parts: Iterable[str]) -> Cell:
    return ".".join(parts)


@lru_cache(maxsize=None)
def sd_simplex(n: int, D: int) -> SimplicialSet:
    """The subdivided n-simplex: nerve of the poset of nonempty subsets of
    [n], truncated at D.  Cells at level m are weak chains S_0 <= ... <= S_m."""
    if n > 9:
        raise BoundError("subset encoding requires n <= 9")
    subsets = []
    for mask in range(1, 1 << (n + 1)):
        subsets.append("".join(str(i) for i in range(n + 1) if mask >> i & 1))
    subsets.sort()
    order = {
        (s, t): set(s) <= set(t) for s in subsets for t in subsets
    }
    cells: dict[int, list[Cell]] = {0: list(subsets)}
    for m in range(1, D + 1):
        cells[m] = [
            _chain_join(_chain_parts(c) + [t])
            for c in cells[m - 1]
            for t in subsets
            if order[(_chain_parts(c)[-1], t)]
        ]
    face = {}
    degeneracy = {}
    for m in range(1, D + 1):
        for c in cells[m]:
            parts = _chain_parts(c)
            for i in range(m + 1):
                face[(m, i, c)] = _chain_join(parts[:i] + parts[i + 1:])
    for m in range(D):
        for c in cells[m]:
            parts = _chain_parts(c)
            for i in range(m + 1):
                degeneracy[(m, i, c)] = _chain_join(parts[: i + 1] + parts[i:])
    return SimplicialSet(D, cells, face, degeneracy)


def sd_operator_map(phi: Monotone, n: int, D: int) -> SimplicialMap:
    """Subdivision of the cosimplicial operator ``phi: [m] -> [n]``: apply
    phi to every subset in a chain."""
    m = len(phi) - 1
    src = sd_simplex(m, D)
    tgt = sd_simplex(n, D)

    def image(chain: Cell) -> Cell:
        return _chain_join(
            "".join(str(v) for v in sorted({phi[int(ch)] for ch in part}))
            for part in _chain_parts(chain)
        )

    levels = {
        lvl: {c: image(c) for c in src.cells[lvl]} for lvl in range(D + 1)
    }
    return SimplicialMap(src, tgt, levels, check=False)


def last_vertex(chain: Cell) -> Monotone:
    """The monotone map picking the largest element of each subset."""
    return tuple(max(int(ch) for ch in part) for part in _chain_parts(chain))


@dataclass
class SubdivisionCertificate:
    """The colimit decomposition of a subdivision.

    ``gluing[(k, x)]`` is the map ``sd_simplex(k) -> space`` planted at the
    nondegenerate k-cell x; gluing maps commute with the face structure of
    the source by construction and are revalidated in the test suite.
    """

    source: SimplicialSet
    space: SimplicialSet
    gluing: dict[tuple[int, Cell], SimplicialMap]

    def class_of(self, k: int, x: Cell, level: int, chain: Cell) -> Cell:
        """The cell of ``space`` named by the chain ``chain`` in the copy
        planted at the (possibly degenerate) k-cell x."""
        epi, l, y = self.source.eilenberg_zilber(k, x)
        if (l, y) == (k, x):
            return self.gluing[(k, x)].levels[level][chain]
        moved = sd_operator_map(epi, l, self.source.dim_bound).levels[level][chain]
        return self.gluing[(l, y)].levels[level][moved]


def sd(X: SimplicialSet) -> tuple[SimplicialSet, SubdivisionCertificate]:
    """Barycentric subdivision by skeletal gluing.

    One copy of the subdivided simplex per nondegenerate cell; the copy at
    x is identified with the copies at the nondegenerate cores of its
    faces, levelwise, by union-find with least representatives.
    """
    D = X.dim_bound
    nondeg = [(k, x) for k in range(D + 1) for x in X.nondegenerate(k)]
    uf = {m: _UnionFind() for m in range(D + 1)}
    tag = lambda k, x, u: f"{k}:{x}@{u}"
    for k, x in nondeg:
        S = sd_simplex(k, D)
        for m in range(D + 1):
            for u in S.cells[m]:
                uf[m].add(tag(k, x, u))
    face_ops: dict[tuple[int, int], SimplicialMap] = {}
    for k, x in nondeg:
        if k == 0:
            continue
        for i in range(k + 1):
            if (k, i) not in face_ops:
                face_ops[(k, i)] = sd_operator_map(coface(k, i), k, D)
            inc = face_ops[(k, i)]
            z = X.d(k, i, x)
            epi, l, y = X.eilenberg_zilber(k - 1, z)
            if epi == tuple(range(k)):
                move = None  # z itself nondegenerate
            else:
                move = sd_operator_map(epi, l, D)
            Sk1 = sd_simplex(k - 1, D)
            for m in range(D + 1):
                for u in Sk1.cells[m]:
                    left = tag(k, x, inc.levels[m][u])
                    right_chain = u if move is None else move.levels[m][u]
                    uf[m].union(left, tag(l, y, right_chain))

    rep: dict[int, dict[str, str]] = {m: {} for m in range(D + 1)}
    owners: dict[int, dict[str, tuple[int, Cell, Cell]]] = {m: {} for m in range(D + 1)}
    for k, x in nondeg:
        S = sd_simplex(k, D)
        for m in range(D + 1):
            for u in S.cells[m]:
                t = tag(k, x, u)
                r = uf[m].find(t)
                rep[m][t] = r
                if t == r:
                    owners[m][r] = (k, x, u)
    cells = {m: sorted(owners[m]) for m in range(D + 1)}
    face = {}
    degeneracy = {}
    for m in range(D + 1):
        for r, (k, x, u) in owners[m].items():
            S = sd_simplex(k, D)
            if m >= 1:
                for i in range(m + 1):
                    face[(m, i, r)] = rep[m - 1][tag(k, x, S.d(m, i, u))]
            if m < D:
                for i in range(m + 1):
                    degeneracy[(m, i, r)] = rep[m + 1][tag(k, x, S.s(m, i, u))]
    space = SimplicialSet(D, cells, face, degeneracy)
    gluing = {}
    for k, x in nondeg:
        S = sd_simplex(k, D)
        levels = {
            m: {u: rep[m][tag(k, x, u)] for u in S.cells[m]} for m in range(D + 1)
        }
        gluing[(k, x)] = SimplicialMap(S, space, levels, check=False)
    return space, SubdivisionCertificate(X, space, gluing)


def sd_map(
    f: SimplicialMap,
    cert_src: SubdivisionCertificate,
    cert_tgt: SubdivisionCertificate,
) -> SimplicialMap:
    """Functoriality of subdivision: the induced map sd(X) -> sd(Y)."""
    if cert_src.source != f.source or cert_tgt.source != f.target:
        raise ContractError("certificates do not match the map's endpoints")
    D = cert_src.space.dim_bound
    levels: dict[int, dict[Cell, Cell]] = {m: {} for m in range(D + 1)}
    for (k, x), glue in cert_src.gluing.items():
        fx = f.levels[k][x]
        for m in range(D + 1):
            for u, r in glue.levels[m].items():
                if r not in levels[m]:
                    levels[m][r] = cert_tgt.class_of(k, fx, m, u)
    return SimplicialMap(cert_src.space, cert_tgt.space, levels, check=False)


def alpha(X: SimplicialSet, cert: Optional[SubdivisionCertificate] = None) -> SimplicialMap:
    """The last-vertex comparison map sd(X) -> X."""
    if cert is None:
        _, cert = sd(X)
    D = X.dim_bound
    levels: dict[int, dict[Cell, Cell]] = {m: {} for m in range(D + 1)}
    for (k, x), glue in cert.gluing.items():
        for m in range(D + 1):
            for u, r in glue.levels[m].items():
                if r not in levels[m]:
                    levels[m][r] = simplicial_operator(X, last_vertex(u), k, x)
    return SimplicialMap(cert.space, X, levels, check=False)


# ---------------------------------------------------------------------------
# the right adjoint
# ---------------------------------------------------------------------------

def ex_cells(X: SimplicialSet, D: int) -> tuple[SimplicialSet, dict[tuple[int, str], SimplicialMap]]:
    """Bounded extension: level n is all maps sd_simplex(n) -> X.

    Returns the simplicial set together with the id -> map table.  Requires
    ``D <= X.dim_bound``: the subdivided n-simplex is n-dimensional, so no
    information below the bound is lost.
    """
    if D > X.dim_bound:
        raise BoundError(f"extension bound {D} exceeds the bound of X ({X.dim_bound})")
    return _singular(
        D, lambda n, named, faces: _listed(enumerate_simplicial_maps(sd_simplex(n, X.dim_bound), X)),
        lambda phi, n: sd_operator_map(phi, n, X.dim_bound),
    )


def ex(X: SimplicialSet, D: int) -> SimplicialSet:
    return ex_cells(X, D)[0]


def ex_map(f: SimplicialMap, D: int) -> SimplicialMap:
    """Functoriality of the extension: postcompose every cell with f.

    A cell's image is named from its images mapped through f, which is
    the ``encode()`` of the composite without building it."""
    EX, table = ex_cells(f.source, D)
    EY = ex(f.target, D)
    levels: dict[int, dict[Cell, Cell]] = {n: {} for n in range(D + 1)}
    templates: dict[int, str] = {}
    for (n, cid), F in table.items():
        cells = [(F.levels[m], f.levels[m]) for m in range(f.bound + 1)]
        if n not in templates:
            templates[n] = _map_name_template((m, c) for m, (lvl, _) in enumerate(cells) for c in lvl)
        levels[n][cid] = templates[n].format(*(fm[v] for lvl, fm in cells for v in lvl.values()))
    return SimplicialMap(EX, EY, levels, check=False)


def beta(X: SimplicialSet, D: Optional[int] = None) -> SimplicialMap:
    """The unit comparison map X -> ex(X): transpose of the last-vertex map."""
    D = X.dim_bound if D is None else D
    EX = ex(X, D)
    levels: dict[int, dict[Cell, Cell]] = {}
    for n in range(D + 1):
        lvl = {}
        for x in X.cells[n]:
            S = sd_simplex(n, X.dim_bound)
            maps = {
                m: {u: simplicial_operator(X, last_vertex(u), n, x) for u in S.cells[m]}
                for m in range(X.dim_bound + 1)
            }
            lvl[x] = SimplicialMap(S, X, maps, check=False).encode()
        levels[n] = lvl
    return SimplicialMap(X, EX, levels, check=False)


def transpose_to_ex(
    F: SimplicialMap,
    cert: SubdivisionCertificate,
    D: int,
) -> SimplicialMap:
    """Turn ``F: sd(X) -> Y`` into its adjoint ``X -> ex(Y, D)``."""
    X = cert.source
    Y = F.target
    EY, _ = ex_cells(Y, D)
    levels: dict[int, dict[Cell, Cell]] = {}
    for n in range(D + 1):
        lvl = {}
        S = sd_simplex(n, Y.dim_bound)
        for x in X.cells[n]:
            maps = {
                m: {
                    u: F.levels[m][cert.class_of(n, x, m, u)] for u in S.cells[m]
                }
                for m in range(min(Y.dim_bound, cert.space.dim_bound) + 1)
            }
            lvl[x] = SimplicialMap(S, Y, maps, check=False).encode()
        levels[n] = lvl
    return SimplicialMap(X, EY, levels, check=False)


def transpose_from_ex(
    G: SimplicialMap,
    cert: SubdivisionCertificate,
    ex_table: dict[tuple[int, str], SimplicialMap],
) -> SimplicialMap:
    """Turn ``G: X -> ex(Y, D)`` into its adjoint ``sd(X) -> Y``."""
    X = cert.source
    sample = next(iter(ex_table.values()))
    Y = sample.target
    D = cert.space.dim_bound
    levels: dict[int, dict[Cell, Cell]] = {m: {} for m in range(min(D, Y.dim_bound) + 1)}
    for (k, x), glue in cert.gluing.items():
        g_of_x = ex_table[(k, G.levels[k][x])]
        for m in levels:
            for u, r in glue.levels[m].items():
                if r not in levels[m]:
                    levels[m][r] = g_of_x.levels[m][u]
    return SimplicialMap(cert.space, Y, levels, check=False)
