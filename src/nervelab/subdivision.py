"""Barycentric subdivision, the bounded extension functor, and the
last-vertex comparison maps.

``sd_simplex(n)`` is the chain nerve (``simplicial._chain_nerve``) of the
nonempty subsets of [n].  ``sd(X)`` glues one subdivided simplex per
nondegenerate cell of X with ``simplicial._glue``, the construction behind
pushouts: the copy at the k-cell x has the prefix ``k:x@``, so its cells
are named ``k:x@chain``, and copies are identified along faces.  The returned
certificate records, per nondegenerate cell, the resulting gluing map
``sd_simplex(k) -> sd(X)``; those maps are simultaneously the class
lookup used by functoriality and the transposition helpers.

``ex(X, D)`` has, at level n, all simplicial maps from the subdivided
n-simplex into X; operators act by precomposition.  Like the geometric
nerve it is ``simplicial._singular``: a cell is the tuple of its images,
named by the ``encode()`` of the map, which is never built.  ``alpha`` is
the last-vertex map and ``beta`` its adjoint transpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional

from .errors import BoundError, ContractError
from .simplicial import (
    Cell,
    Monotone,
    SimplicialMap,
    SimplicialSet,
    _chain_nerve,
    _glue,
    _images,
    _map_name_template,
    _simplicial_problem,
    _singular,
    coface,
    simplicial_operator,
)

# chains of subsets are encoded "S0.S1.S2" with each subset a digit string


@lru_cache(maxsize=None)
def sd_simplex(n: int, D: int) -> SimplicialSet:
    """The subdivided n-simplex: nerve of the poset of nonempty subsets of
    [n], truncated at D.  Cells at level m are weak chains S_0 <= ... <= S_m."""
    if n > 9:
        raise BoundError("subset encoding requires n <= 9")
    subsets = sorted(
        "".join(str(i) for i in range(n + 1) if mask >> i & 1) for mask in range(1, 1 << (n + 1))
    )
    return _chain_nerve(subsets, lambda s, t: set(s) <= set(t), D, ".", lambda chain: True)


@lru_cache(maxsize=None)
def sd_operator_map(phi: Monotone, n: int, D: int) -> SimplicialMap:
    """Subdivision of the cosimplicial operator ``phi: [m] -> [n]``: apply
    phi to every subset in a chain."""
    m = len(phi) - 1
    src = sd_simplex(m, D)
    tgt = sd_simplex(n, D)

    def image(chain: Cell) -> Cell:
        return ".".join(
            "".join(str(v) for v in sorted({phi[int(ch)] for ch in part}))
            for part in chain.split(".")
        )

    levels = {
        lvl: {c: image(c) for c in src.cells[lvl]} for lvl in range(D + 1)
    }
    return SimplicialMap(src, tgt, levels, check=False)


def last_vertex(chain: Cell) -> Monotone:
    """The monotone map picking the largest element of each subset."""
    return tuple(max(int(ch) for ch in part) for part in chain.split("."))


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
    faces.  Each cell is named by the least ``k:x@chain`` it stands for.
    """
    D = X.dim_bound
    nondeg = [(k, x) for k in range(D + 1) for x in X.nondegenerate(k)]
    piece = {kx: j for j, kx in enumerate(nondeg)}

    def faces() -> Iterable[tuple[tuple[int, int, Cell], tuple[int, int, Cell]]]:
        for k in range(1, D + 1):
            face_cells = sd_simplex(k - 1, D).cells
            for x in X.nondegenerate(k):
                for i in range(k + 1):
                    inc = sd_operator_map(coface(k, i), k, D)
                    epi, l, y = X.eilenberg_zilber(k - 1, X.d(k, i, x))
                    move = sd_operator_map(epi, l, D)
                    for m in range(D + 1):
                        for u in face_cells[m]:
                            yield (piece[(k, x)], m, inc.levels[m][u]), (piece[(l, y)], m, move.levels[m][u])

    pieces = [(f"{k}:{x}@", sd_simplex(k, D)) for k, x in nondeg]
    space, tables = _glue(D, pieces, faces())
    gluing = {kx: SimplicialMap(pieces[j][1], space, tables[j], check=False) for kx, j in piece.items()}
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

def ex_cells(X: SimplicialSet, D: int) -> tuple[SimplicialSet, dict[tuple[int, str], tuple[Cell, ...]]]:
    """Bounded extension: level n is all maps sd_simplex(n) -> X.

    Returns the simplicial set together with the id -> image tuple table,
    the images in :func:`_sd_keys` order.  Requires
    ``D <= X.dim_bound``: the subdivided n-simplex is n-dimensional, so no
    information below the bound is lost.
    """
    if D > X.dim_bound:
        raise BoundError(f"extension bound {D} exceeds the bound of X ({X.dim_bound})")
    B = X.dim_bound
    return _singular(
        D, lambda n, keys, named, faces: _images(_simplicial_problem(sd_simplex(n, B), X), keys),
        lambda phi, n: sd_operator_map(phi, n, B), _map_name_template,
    )


def ex(X: SimplicialSet, D: int) -> SimplicialSet:
    return ex_cells(X, D)[0]


@lru_cache(maxsize=None)
def _sd_keys(n: int, D: int) -> tuple[tuple[int, Cell], ...]:
    """The cells ``(m, chain)`` of ``sd_simplex(n, D)`` in the
    ``assignments()`` order of a map out of it: by level, then by name."""
    S = sd_simplex(n, D)
    return tuple((m, u) for m in range(D + 1) for u in S.cells[m])


def _ex_cell(n: int, D: int, image: Callable[[int, Cell], Cell]) -> Cell:
    """The id in ex of the map ``sd_simplex(n, D) -> Y`` taking the cell u
    of level m to ``image(m, u)``: its ``encode()``, without building it."""
    keys = _sd_keys(n, D)
    return _map_name_template(keys).format(*(image(m, u) for m, u in keys))


def ex_map(f: SimplicialMap, D: int) -> SimplicialMap:
    """Functoriality of the extension: postcompose every cell with f.

    A cell's image is named from its image tuple mapped through f, which
    is the ``encode()`` of the composite without building it, truncated at
    the bound of f as the ids of ``ex(f.target)`` are."""
    EX, table = ex_cells(f.source, D)
    EY = ex(f.target, D)
    keys = [_sd_keys(n, f.bound) for n in range(D + 1)]
    names = [_map_name_template(k).format for k in keys]
    levels: dict[int, dict[Cell, Cell]] = {n: {} for n in range(D + 1)}
    for (n, cid), image in table.items():
        levels[n][cid] = names[n](*(f.levels[m][v] for (m, _), v in zip(keys[n], image)))
    return SimplicialMap(EX, EY, levels, check=False)


def beta(X: SimplicialSet, D: Optional[int] = None) -> SimplicialMap:
    """The unit comparison map X -> ex(X): transpose of the last-vertex map."""
    D = X.dim_bound if D is None else D
    EX = ex(X, D)
    levels = {
        n: {x: _ex_cell(n, X.dim_bound, lambda m, u: simplicial_operator(X, last_vertex(u), n, x))
            for x in X.cells[n]}
        for n in range(D + 1)
    }
    return SimplicialMap(X, EX, levels, check=False)


def transpose_to_ex(
    F: SimplicialMap,
    cert: SubdivisionCertificate,
    D: int,
) -> SimplicialMap:
    """Turn ``F: sd(X) -> Y`` into its adjoint ``X -> ex(Y, D)``."""
    X = cert.source
    Y = F.target
    EY = ex(Y, D)
    bound = min(Y.dim_bound, cert.space.dim_bound)
    levels = {
        n: {x: _ex_cell(n, bound, lambda m, u: F.levels[m][cert.class_of(n, x, m, u)])
            for x in X.cells[n]}
        for n in range(D + 1)
    }
    return SimplicialMap(X, EY, levels, check=False)


def transpose_from_ex(
    G: SimplicialMap,
    cert: SubdivisionCertificate,
    Y: SimplicialSet,
) -> SimplicialMap:
    """Turn ``G: X -> ex(Y, D)`` into its adjoint ``sd(X) -> Y``, reading
    each ``G(x)`` back as its image tuple from ``ex_cells(Y, D)``."""
    _, table = ex_cells(Y, G.target.dim_bound)
    bound = min(cert.space.dim_bound, Y.dim_bound)
    levels: dict[int, dict[Cell, Cell]] = {m: {} for m in range(bound + 1)}
    for (k, x), glue in cert.gluing.items():
        g_of_x = dict(zip(_sd_keys(k, Y.dim_bound), table[(k, G.levels[k][x])]))
        for m in levels:
            for u, r in glue.levels[m].items():
                if r not in levels[m]:
                    levels[m][r] = g_of_x[(m, u)]
    return SimplicialMap(cert.space, Y, levels, check=False)
