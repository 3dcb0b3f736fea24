"""Barycentric subdivision, the bounded extension functor, and the
last-vertex comparison maps.

``sd_simplex(n)`` is the nerve of the poset of nonempty subsets of [n]
(``simplicial._poset_nerve``), made by the chain nerve that also makes
Delta_n and the nerve of a category.  Its cells are chains of frozensets,
named by :func:`_sd_name` alone and never parsed: ``sd_operator_map`` and
``alpha`` read the chains that :func:`_sd_chains` keeps beside the cached
simplex.  ``sd(X)`` is the colimit of one subdivided simplex per
nondegenerate cell of X, written from its normal form with no quotient:
sd of the boundary of Delta_k is the chains whose last subset is not [k],
so each cell of sd X is one nondegenerate k-cell x with one chain of
sd Delta_k that ends at [k], named ``k:x@chain``.  The returned
certificate records, per nondegenerate cell, the gluing map
``sd_simplex(k) -> sd(X)`` of its copy; those maps are the class lookup of
functoriality, and ``map_out`` builds every map out of sd(X) (``sd_map``,
``alpha``, ``transpose_from_ex``) from a value per piece; ``sd_map`` and
``transpose_from_ex`` refuse a value truncated below a piece.

``ex(X, D)`` has, at level n, all simplicial maps from the subdivided
n-simplex into X; operators act by precomposition.  Like the geometric
nerve it is ``simplicial._singular``, whose record alone names the cells:
a cell is the tuple of its images, named by the ``encode()`` of the map,
which is never built; its writer joins the images with the pieces of
``simplicial._map_name_template``.  ``ex_map`` is ``simplicial._postcompose``
read key by key, and ``transpose_to_ex`` names its images with the writers
of ``ex_cells``; both refuse a source truncated below the target.
``alpha`` is the last-vertex map and ``beta`` is its adjoint transpose.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional

from .errors import BoundError, ContractError
from .simplicial import (
    Cell,
    Key,
    Monotone,
    SimplicialMap,
    SimplicialSet,
    Singular,
    _digits,
    _images,
    _map_name_template,
    _poset_nerve,
    _postcompose,
    _simplicial_problem,
    _singular,
    _standard_vertices,
    simplicial_operator,
)

Chain = tuple[frozenset[int], ...]


def _sd_name(chain: Iterable[Iterable[int]]) -> Cell:
    """The name of a cell of sd Delta_n: its subsets' digits joined by ``.``."""
    return ".".join(map(_digits, chain))


@lru_cache(maxsize=None)
def _sd_chains(n: int, D: int) -> tuple[SimplicialSet, dict[Cell, Chain]]:
    """:func:`sd_simplex` with the chain of subsets that each cell names."""
    vertices = _standard_vertices(n)
    subsets = sorted((frozenset(v for v in vertices if mask >> v & 1) for mask in range(1, 1 << (n + 1))),
                     key=sorted)
    chains: dict[Cell, Chain] = {}

    def name(chain: Chain) -> Cell:
        c = _sd_name(chain)
        chains[c] = chain
        return c

    return _poset_nerve(subsets, D, name, lambda chain: True), chains


def sd_simplex(n: int, D: int) -> SimplicialSet:
    """The subdivided n-simplex: nerve of the poset of nonempty subsets of
    [n], truncated at D.  Cells at level m are weak chains S_0 <= ... <= S_m."""
    return _sd_chains(n, D)[0]


@lru_cache(maxsize=None)
def sd_operator_map(phi: Monotone, n: int, D: int) -> SimplicialMap:
    """Subdivision of the cosimplicial operator ``phi: [m] -> [n]``: apply
    phi to every subset in a chain."""
    src, chains = _sd_chains(len(phi) - 1, D)
    levels = {
        lvl: {c: _sd_name([{phi[v] for v in s} for s in chains[c]]) for c in src.cells[lvl]}
        for lvl in range(D + 1)
    }
    return SimplicialMap(src, sd_simplex(n, D), levels, check=False)


def last_vertex(chain: Chain) -> Monotone:
    """The monotone map picking the largest element of each subset."""
    return tuple(map(max, chain))


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

    def map_out(self, target: SimplicialSet,
                value: Callable[[int, Cell], Callable[[Key], Cell]]) -> SimplicialMap:
        """The map ``space -> target`` that sends the chain u of level m in
        the piece planted at the nondegenerate k-cell x to
        ``value(k, x)((m, u))``.  A cell that several pieces share is
        written by the first of them; the values must agree for this to be
        a map."""
        bound = min(self.space.dim_bound, target.dim_bound)
        levels: dict[int, dict[Cell, Cell]] = {m: {} for m in range(bound + 1)}
        for (k, x), glue in self.gluing.items():
            at = value(k, x)
            for m, level in levels.items():
                for u, r in glue.levels[m].items():
                    if r not in level:
                        level[r] = at((m, u))
        return SimplicialMap(self.space, target, levels, check=False)


@lru_cache(maxsize=None)
def _sd_plan(k: int, D: int) -> tuple[tuple[Monotone, ...], tuple, tuple]:
    """sd Delta_k at bound D, read once for :func:`sd` as ``(tops, rows, interior)``.

    ``rows[m]`` lists the chains of level m in level order, each as
    ``(u, t, v)``: an interior chain, whose last subset is [k], has
    ``t = -1``; any other u lies in the face spanned by its last subset
    ``tops[t]`` (a monotone injection [j] -> [k]), and v is u relabelled
    into sd Delta_j.  ``interior[m]`` lists the interior chains of level m.
    """
    space, chains = _sd_chains(k, D)
    tops: dict[frozenset[int], int] = {}
    rows, interior = [], []
    for m in range(D + 1):
        row, inner = [], []
        for u in space.cells[m]:
            chain = chains[u]
            top = chain[-1]
            if len(top) == k + 1:
                row.append((u, -1, u))
                inner.append(u)
            else:
                rank = {v: r for r, v in enumerate(sorted(top))}
                row.append((u, tops.setdefault(top, len(tops)), _sd_name([[rank[v] for v in s] for s in chain])))
        rows.append(tuple(row))
        interior.append(tuple(inner))
    return tuple(tuple(sorted(S)) for S in tops), tuple(rows), tuple(interior)


def sd(X: SimplicialSet) -> tuple[SimplicialSet, SubdivisionCertificate]:
    """Barycentric subdivision, written cell by cell from its normal form.

    sd X is glued from one subdivided simplex per nondegenerate cell, and
    the boundary of each copy is glued to lower copies, so each cell has
    one normal form: a nondegenerate k-cell x with an interior chain u of
    sd Delta_k, one whose last subset is [k], named ``k:x@u``.  The copy at
    x is written in order of increasing k: an interior chain gets its own
    name; any other lies in the face spanned by its last subset S and
    takes the name that the nondegenerate core of x's face at S gives its
    image (:meth:`SubdivisionCertificate.class_of`).  That name is the
    least ``k:x@chain`` the cell stands for, since the normal form sits in
    the lowest copy and k <= 9 is one digit.
    """
    D = X.dim_bound
    tables: dict[tuple[int, Cell], list[dict[Cell, Cell]]] = {}
    cells: dict[int, list[Cell]] = {m: [] for m in range(D + 1)}
    faces: dict[int, dict[Cell, tuple[Cell, ...]]] = {m: {} for m in range(1, D + 1)}
    degeneracies: dict[int, dict[Cell, tuple[Cell, ...]]] = {m: {} for m in range(D)}
    for k in range(D + 1):
        if not X.nondegenerate(k):
            continue  # no piece needs the plan, whose sd Delta_k is the largest shape
        tops, rows, interior = _sd_plan(k, D)
        simplex = sd_simplex(k, D)
        for x in X.nondegenerate(k):
            prefix = f"{k}:{x}@"
            lower = []
            for S in tops:
                epi, l, y = X.eilenberg_zilber(len(S) - 1, simplicial_operator(X, S, k, x))
                lower.append((sd_operator_map(epi, l, D).levels, tables[(l, y)]))
            table = []
            for m, row in enumerate(rows):
                # per top t: the image of v in sd Delta_l, and the names of piece (l, y)
                at = [(move[m], into[m]) for move, into in lower]
                table.append({u: prefix + u if t < 0 else at[t][1][at[t][0][v]] for u, t, v in row})
            for m, inner in enumerate(interior):
                for u in inner:
                    name = table[m][u]
                    cells[m].append(name)
                    if m:
                        faces[m][name] = tuple(map(table[m - 1].__getitem__, simplex.faces[m][u]))
                    if m < D:
                        degeneracies[m][name] = tuple(map(table[m + 1].__getitem__, simplex.degeneracies[m][u]))
            tables[(k, x)] = table
    space = SimplicialSet(D, cells, faces, degeneracies)
    gluing = {(k, x): SimplicialMap(sd_simplex(k, D), space, dict(enumerate(table)), check=False)
              for (k, x), table in tables.items()}
    return space, SubdivisionCertificate(X, space, gluing)


def _no_piece_above(cert: SubdivisionCertificate, bound: int, truncated: str) -> None:
    """``map_out`` reads a value at every nondegenerate cell of the source,
    which a value truncated below the top one does not give."""
    top = max((k for k, _ in cert.gluing), default=-1)
    if top > bound:
        raise ContractError(f"{truncated} truncated at {bound}, below the source's nondegenerate {top}-cells")


def sd_map(
    f: SimplicialMap,
    cert_src: SubdivisionCertificate,
    cert_tgt: SubdivisionCertificate,
) -> SimplicialMap:
    """Functoriality of subdivision: the induced map sd(X) -> sd(Y)."""
    if cert_src.source != f.source or cert_tgt.source != f.target:
        raise ContractError("certificates do not match the map's endpoints")
    _no_piece_above(cert_src, f.bound, "map")
    return cert_src.map_out(cert_tgt.space, lambda k, x: lambda key: cert_tgt.class_of(k, f.levels[k][x], *key))


def alpha(X: SimplicialSet, cert: Optional[SubdivisionCertificate] = None) -> SimplicialMap:
    """The last-vertex comparison map sd(X) -> X: in the copy at the k-cell
    x, the chain u goes to the face of x at the maxima of u."""
    if cert is None:
        _, cert = sd(X)

    def value(k: int, x: Cell) -> Callable[[Key], Cell]:
        chains = _sd_chains(k, X.dim_bound)[1]
        return lambda key: simplicial_operator(X, last_vertex(chains[key[1]]), k, x)
    return cert.map_out(X, value)


# ---------------------------------------------------------------------------
# the right adjoint
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _sd_operator(B: int) -> Callable[[Monotone, int], SimplicialMap]:
    """:func:`sd_operator_map` at bound B, one function per B, which keys
    the level plans of every ``ex_cells`` at that bound."""
    return lambda phi, n: sd_operator_map(phi, n, B)


def ex_cells(X: SimplicialSet, D: int) -> Singular:
    """Bounded extension: level n is all maps sd_simplex(n, X.dim_bound) ->
    X, with the keys, writers and table that name its cells.  Requires
    ``D <= X.dim_bound``: the subdivided n-simplex is n-dimensional, so no
    information below the bound is lost."""
    if D > X.dim_bound:
        raise BoundError(f"extension bound {D} exceeds the bound of X ({X.dim_bound})")
    B = X.dim_bound
    return _singular(
        D, lambda n, keys, named, faces: _images(_simplicial_problem(sd_simplex(n, B), X), keys),
        _sd_operator(B), _map_name_template,
    )


def ex(X: SimplicialSet, D: int) -> SimplicialSet:
    return ex_cells(X, D).space


def _no_lower(X: SimplicialSet, Y: SimplicialSet) -> None:
    """A cell of ex(Y) has images at every level of Y, which a source X
    truncated lower does not determine."""
    if X.dim_bound < Y.dim_bound:
        raise ContractError(f"source truncated at {X.dim_bound}, below the target's bound {Y.dim_bound}")


def ex_map(f: SimplicialMap, D: int) -> SimplicialMap:
    """Functoriality of the extension: postcompose every cell with f."""
    _no_lower(f.source, f.target)
    return _postcompose(ex_cells(f.source, D), ex_cells(f.target, D), lambda key: (f.levels[key[0]], (key,)))


def beta(X: SimplicialSet, D: Optional[int] = None) -> SimplicialMap:
    """The unit comparison map X -> ex(X): transpose of the last-vertex map."""
    _, cert = sd(X)
    return transpose_to_ex(alpha(X, cert), cert, X.dim_bound if D is None else D)


def transpose_to_ex(
    F: SimplicialMap,
    cert: SubdivisionCertificate,
    D: int,
) -> SimplicialMap:
    """Turn ``F: sd(X) -> Y`` into its adjoint ``X -> ex(Y, D)``: the n-cell
    x goes to the map taking the chain u of sd_simplex(n) to F at u's class
    in the copy at x, named by the writer of ``ex_cells(Y, D)``."""
    X = cert.source
    _no_lower(X, F.target)
    EY = ex_cells(F.target, D)
    levels = {n: {x: EY.names[n]([F.levels[m][cert.class_of(n, x, m, u)] for m, u in EY.keys[n]])
                  for x in X.cells[n]}
              for n in range(D + 1)}
    return SimplicialMap(X, EY.space, levels, check=False)


def transpose_from_ex(
    G: SimplicialMap,
    cert: SubdivisionCertificate,
    Y: SimplicialSet,
) -> SimplicialMap:
    """Turn ``G: X -> ex(Y, D)`` into its adjoint ``sd(X) -> Y``, reading
    each ``G(x)`` back as its image tuple from ``ex_cells(Y, D)``."""
    _no_piece_above(cert, G.target.dim_bound, "ex")
    EY = ex_cells(Y, G.target.dim_bound)
    return cert.map_out(Y, lambda k, x: dict(zip(EY.keys[k], EY.table[(k, G.levels[k][x])])).__getitem__)
