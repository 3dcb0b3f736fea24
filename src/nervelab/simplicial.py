"""Levelwise-finite, dimension-truncated simplicial sets.

Every simplicial set carries an explicit truncation bound ``dim_bound``;
cells and the rows of their faces and degeneracies exist only up to that
bound.
Cell identifiers are strings and every stored level is sorted, so equal
constructions produce byte-identical data.

Conventions used throughout:

* cells of the standard simplex ``Delta_n`` at level ``m`` are the
  monotone maps ``[m] -> [n]``, named by :func:`_digits` (``"012"``,
  ``"0012"``, ...), the one writer of that spelling, which sd Delta_n and
  the 2-categorical simplices use too; no name is ever parsed back, and
  :func:`_standard_vertices` alone keeps ``n <= 9``;
* each cell keeps one row per operator: ``faces[n][c]`` is
  ``(d_0 c, ..., d_n c)`` for ``1 <= n <= dim_bound`` and
  ``degeneracies[n][c]`` is ``(s_0 c, ..., s_n c)`` for ``n < dim_bound``;
* every nerve is :func:`_chain_nerve`, the nerve of a finite category
  given by its arrows, composition and identities; the standard simplex,
  its boundary and its horns are nerves of the poset ``0 <= ... <= n``
  (:func:`_poset_nerve`, the category whose arrow a -> b is named b);
* every colimit (pushouts, coproducts, a factorization stage, the double
  mapping cylinder) is one quotient of a disjoint union of named pieces
  (:func:`_colimit`, :func:`_glue`).  At each level a cell of a piece is
  numbered by the piece's offset plus its position in the piece's sorted
  level, the union-find runs on those numbers, and only then is each class
  named by its least ``prefix + cell``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import BoundError, ContractError, DomainError

Cell = str
Monotone = tuple[int, ...]


# ---------------------------------------------------------------------------
# monotone maps [m] -> [n]
# ---------------------------------------------------------------------------

def monotone_maps(m: int, n: int) -> list[Monotone]:
    """All monotone maps [m] -> [n] as value tuples, lexicographically sorted."""
    if m < 0 or n < 0:
        return []
    return [tuple(c) for c in combinations_with_replacement(range(n + 1), m + 1)]


def compose_monotone(phi: Monotone, psi: Monotone) -> Monotone:
    """The composite ``phi . psi`` (apply psi first)."""
    return tuple(phi[v] for v in psi)


def coface(n: int, i: int) -> Monotone:
    """The injection [n-1] -> [n] skipping ``i``."""
    return tuple(v for v in range(n + 1) if v != i)


def codegeneracy(n: int, i: int) -> Monotone:
    """The surjection [n+1] -> [n] repeating ``i``."""
    return tuple(min(v, i) if v <= i + 1 else v - 1 for v in range(n + 2))


def is_monotone(phi: Sequence[int]) -> bool:
    return all(phi[k] <= phi[k + 1] for k in range(len(phi) - 1))


# ---------------------------------------------------------------------------
# the simplicial set container
# ---------------------------------------------------------------------------

class SimplicialSet:
    """A dimension-truncated simplicial set with materialized degeneracies.

    ``cells`` maps each level ``0..dim_bound`` to a sorted tuple of ids.
    ``faces[n]`` maps each n-cell to the row of its faces and
    ``degeneracies[n]`` to the row of its degeneracies; both are indexed by
    every level ``0..dim_bound``, with no faces at 0 and no degeneracies at
    the bound.  The rows of each level are kept as given, not copied.
    Values are immutable after construction.
    """

    __slots__ = ("dim_bound", "cells", "faces", "degeneracies", "_nondeg", "_deg_of", "_over")

    def __init__(
        self,
        dim_bound: int,
        cells: Mapping[int, Iterable[Cell]],
        faces: Mapping[int, dict[Cell, tuple]],
        degeneracies: Mapping[int, dict[Cell, tuple]],
    ):
        if dim_bound < 0:
            raise BoundError(f"dim_bound must be >= 0, got {dim_bound}")
        self.dim_bound = dim_bound
        self.cells: dict[int, tuple[Cell, ...]] = {
            n: tuple(sorted(cells.get(n, ()))) for n in range(dim_bound + 1)
        }
        self.faces: tuple[dict[Cell, tuple], ...] = (
            {}, *(faces.get(n, {}) for n in range(1, dim_bound + 1)))
        self.degeneracies: tuple[dict[Cell, tuple], ...] = (
            *(degeneracies.get(n, {}) for n in range(dim_bound)), {})
        # Eilenberg-Zilber bookkeeping: for each cell the minimal (i, lower)
        # with s_i(lower) = cell, if any.  Cells with no preimage are the
        # nondegenerate core.
        deg_of: dict[tuple[int, Cell], tuple[int, Cell]] = {}
        for n, rows in enumerate(self.degeneracies):
            for src, row in rows.items():
                for i, dst in enumerate(row):
                    key = (n + 1, dst)
                    if dst is not None and (key not in deg_of or (i, src) < deg_of[key]):
                        deg_of[key] = (i, src)
        self._deg_of = deg_of
        nondeg: dict[int, tuple[Cell, ...]] = {0: self.cells[0]}
        for n in range(1, dim_bound + 1):
            nondeg[n] = tuple(c for c in self.cells[n] if (n, c) not in deg_of)
        self._nondeg = nondeg
        self._over: Optional[list[dict[tuple, tuple[Cell, ...]]]] = None

    # -- queries ----------------------------------------------------------

    def level(self, n: int) -> tuple[Cell, ...]:
        if not 0 <= n <= self.dim_bound:
            raise BoundError(f"level {n} outside bound {self.dim_bound}")
        return self.cells[n]

    def nondegenerate(self, n: int) -> tuple[Cell, ...]:
        if not 0 <= n <= self.dim_bound:
            raise BoundError(f"level {n} outside bound {self.dim_bound}")
        return self._nondeg[n]

    def is_degenerate(self, n: int, c: Cell) -> bool:
        return (n, c) in self._deg_of

    def d(self, n: int, i: int, c: Cell) -> Cell:
        return self.faces[n][c][i]

    def s(self, n: int, i: int, c: Cell) -> Cell:
        return self.degeneracies[n][c][i]

    def has_cell(self, n: int, c: Cell) -> bool:
        if not 0 <= n <= self.dim_bound:
            return False
        level = self.cells[n]
        i = bisect_left(level, c)
        return i < len(level) and level[i] == c

    def eilenberg_zilber(self, n: int, c: Cell) -> tuple[Monotone, int, Cell]:
        """Write ``c`` as ``e*(y)`` with ``y`` nondegenerate and ``e`` epi.

        Returns ``(e, level(y), y)``; ``e`` is the value tuple of the
        codegeneracy composite [n] ->> [level(y)].
        """
        epi = tuple(range(n + 1))
        level, cell = n, c
        while (level, cell) in self._deg_of:
            i, lower = self._deg_of[(level, cell)]
            epi = compose_monotone(codegeneracy(level - 1, i), epi)
            level, cell = level - 1, lower
        return epi, level, cell

    def _cells_over(self) -> list[dict[tuple, tuple[Cell, ...]]]:
        """Per level, each vertex tuple -> the cells over it, in level order.

        Built on first use as a search target and kept: the searches into
        this set read it on every candidate list.
        """
        if self._over is None:
            over = []
            for level in _vertex_tuples(self, self.dim_bound):
                index: dict[tuple, list[Cell]] = {}
                for c, vertices in level.items():
                    index.setdefault(vertices, []).append(c)
                over.append({vertices: tuple(cs) for vertices, cs in index.items()})
            self._over = over
        return self._over

    def counts(self) -> tuple[int, ...]:
        return tuple(len(self.cells[n]) for n in range(self.dim_bound + 1))

    def nondegenerate_counts(self) -> tuple[int, ...]:
        return tuple(len(self._nondeg[n]) for n in range(self.dim_bound + 1))

    # -- structural equality ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, SimplicialSet):
            return NotImplemented
        return (
            self.dim_bound == other.dim_bound
            and self.cells == other.cells
            and self.faces == other.faces
            and self.degeneracies == other.degeneracies
        )

    def __repr__(self) -> str:
        return f"SimplicialSet(bound={self.dim_bound}, cells={self.counts()})"


# ---------------------------------------------------------------------------
# applying an arbitrary simplicial operator
# ---------------------------------------------------------------------------

def simplicial_operator(X: SimplicialSet, phi: Monotone, n: int, c: Cell) -> Cell:
    """Apply ``X(phi)`` to a level-``n`` cell, for monotone ``phi: [m] -> [n]``.

    ``phi`` is decomposed into cofaces and codegeneracies once per
    ``(phi, n)`` (:func:`_operator_word`, cached); each call then makes one
    table lookup per step.  The result is a cell at level ``m = len(phi) - 1``.
    """
    m, faces, degeneracies = _operator_word(tuple(phi), n)
    if m > X.dim_bound:
        raise BoundError(f"operator lands at level {m} beyond bound {X.dim_bound}")
    for level, i in faces:
        c = X.faces[level][c][i]
    for level, i in degeneracies:
        c = X.degeneracies[level][c][i]
    return c


@lru_cache(maxsize=None)
def _operator_word(phi: Monotone, n: int) -> tuple[int, tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    """``phi: [m] -> [n]`` as ``(m, faces, degeneracies)``: the ``(level, i)``
    of each face ``d_i`` and then of each degeneracy ``s_i`` that
    :func:`simplicial_operator` applies, in order.

    Faces go first, each at the largest value phi misses; the surjection
    left is peeled at its first repeat, so its degeneracies are applied
    from the lowest level up.  Raises :class:`ContractError` for a phi
    that is not monotone and :class:`DomainError` for one that leaves [n].
    """
    if not is_monotone(phi):
        raise ContractError(f"operator {phi} is not monotone")
    if any(v < 0 or v > n for v in phi):
        raise DomainError(f"operator {phi} does not land in [{n}]")
    m = len(phi) - 1
    faces = []
    for i in sorted(set(range(n + 1)) - set(phi), reverse=True):
        # phi = delta_i . phi'  with i the largest value phi misses
        faces.append((n, i))
        phi = tuple(v if v < i else v - 1 for v in phi)
        n -= 1
    degeneracies = []
    while len(phi) - 1 > n:
        # phi = phi' . sigma_j with j the first repeat
        j = next(k for k in range(len(phi) - 1) if phi[k] == phi[k + 1])
        degeneracies.append((len(phi) - 2, j))
        phi = phi[:j] + phi[j + 1:]
    return m, tuple(faces), tuple(reversed(degeneracies))


# ---------------------------------------------------------------------------
# generation of standard objects
# ---------------------------------------------------------------------------

def _digits(values: Iterable[int]) -> Cell:
    """The digits of ``values`` in increasing order: the one spelling of a
    cell of a standard shape, whether a monotone map, a chain of vertices
    or a subset of [n].  It is only ever written, never read back."""
    return "".join(map(str, sorted(values)))


def _standard_vertices(n: int) -> range:
    """The vertices 0..n of Delta_n, sd Delta_n or the 2-categorical n-simplex:
    the one check of n <= 9, past which :func:`_digits` would spell cells alike."""
    if n > 9:
        raise BoundError(f"standard shapes name their cells by digits, so n <= 9 is required, got {n}")
    return range(n + 1)


def _chain_nerve(
    out: Mapping[Hashable, Sequence[Hashable]],
    target: Mapping[Hashable, Hashable],
    compose: Mapping[tuple[Hashable, Hashable], Hashable],
    identity: Mapping[Hashable, Hashable],
    name: Callable[[tuple], Cell],
    keep: Callable[[tuple], bool],
    D: int,
) -> SimplicialSet:
    """The nerve of a finite category, truncated at D.

    ``out`` lists the arrows out of each object, ``target`` gives each
    arrow's target, ``compose[(g, f)]`` is ``g . f`` and ``identity`` each
    object's identity.  Level m holds the chains ``(a, f_1, ..., f_m)`` of
    composable arrows out of a that ``keep`` accepts, each named by
    ``name``.  ``d_0`` drops f_1, ``d_m`` drops f_m, an inner ``d_i``
    composes f_i and f_(i+1), and ``s_i`` inserts the identity of vertex
    i.  ``keep`` must accept the faces and degeneracies of every chain it
    accepts, so each level is grown from the one below in the order of
    ``out``.
    """
    def vertex(chain: tuple, i: int) -> Hashable:
        return target[chain[i]] if i else chain[0]

    names = {(a,): name((a,)) for a in out if keep((a,))}
    cells: dict[int, Iterable[Cell]] = {0: names.values()}
    faces: dict[int, dict[Cell, tuple[Cell, ...]]] = {}
    degeneracies: dict[int, dict[Cell, tuple[Cell, ...]]] = {}
    for m in range(1, D + 1):
        longer = {}
        for chain in names:
            for f in out[vertex(chain, m - 1)]:
                grown = chain + (f,)
                if keep(grown):
                    longer[grown] = name(grown)
        degeneracies[m - 1] = {
            c: tuple(longer[chain[: i + 1] + (identity[vertex(chain, i)],) + chain[i + 1:]] for i in range(m))
            for chain, c in names.items()}
        faces[m] = {
            c: (names[(target[chain[1]],) + chain[2:]],
                *(names[chain[:i] + (compose[(chain[i + 1], chain[i])],) + chain[i + 2:]] for i in range(1, m)),
                names[chain[:-1]])
            for chain, c in longer.items()}
        names = longer
        cells[m] = names.values()
    return SimplicialSet(D, cells, faces, degeneracies)


def _poset_nerve(
    elements: Sequence, D: int, name: Callable[[tuple], Cell], keep: Callable[[tuple], bool]
) -> SimplicialSet:
    """The nerve of finite ``elements`` under their own ``<=`` (integers or
    subsets): :func:`_chain_nerve` of the category whose arrow a -> b is b
    itself, so that b -> c after a -> b is c.  A chain is then the weak
    chain ``(e_0, ..., e_m)`` of its elements, named by ``name``; faces
    delete an element and degeneracies repeat one."""
    above = {e: [t for t in elements if e <= t] for e in elements}
    itself = {e: e for e in elements}
    compose = {(c, b): c for b in elements for c in above[b]}
    return _chain_nerve(above, itself, compose, itself, name, keep, D)


def _vertices(n: int, D: int) -> range:
    """The vertices of Delta_n, for a simplex within the bound."""
    if n > D:
        raise BoundError(f"simplex dimension {n} exceeds bound {D}")
    return _standard_vertices(n)


def standard_simplex(n: int, D: int) -> SimplicialSet:
    return _poset_nerve(_vertices(n, D), D, _digits, lambda chain: True)


def boundary(n: int, D: int) -> SimplicialSet:
    """The boundary of the n-simplex: maps that miss some value."""
    return _poset_nerve(_vertices(n, D), D, _digits, lambda chain: len(set(chain)) <= n)


def boundary_inclusion(n: int, D: int) -> SimplicialMap:
    """The inclusion of the boundary of the n-simplex into the n-simplex."""
    A = boundary(n, D)
    return SimplicialMap(A, standard_simplex(n, D), {m: {c: c for c in A.cells[m]} for m in range(D + 1)},
                         check=False)


def horn(n: int, k: int, D: int) -> SimplicialSet:
    """The horn missing the face opposite ``k``: maps missing a value != k."""
    vertices = _vertices(n, D)
    if not 0 <= k <= n:
        raise DomainError(f"horn index {k} outside [0, {n}]")
    others = set(vertices) - {k}
    return _poset_nerve(vertices, D, _digits, lambda chain: bool(others - set(chain)))


def empty_simplicial_set(D: int) -> SimplicialSet:
    return SimplicialSet(D, {}, {}, {})


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    """One failed simplicial identity, with enough data to replay it."""

    identity: str
    level: int
    indices: tuple[int, ...]
    cell: Cell
    detail: str

    def __str__(self) -> str:
        return f"level {self.level}, cell {self.cell!r}: {self.identity} {list(self.indices)}: {self.detail}"


def validate(X: SimplicialSet) -> list[Violation]:
    """Check the five simplicial identities and table totality within the bound."""
    out: list[Violation] = []
    D = X.dim_bound

    # the faces / degeneracies of a looked-up cell, None where a row has no
    # entry; a cell without a row (or None) gets n + 1 missing entries
    def d(n: int, c: Optional[Cell]) -> Sequence[Optional[Cell]]:
        row = X.faces[n].get(c)
        return [None] * (n + 1) if row is None else row

    def s(n: int, c: Optional[Cell]) -> Sequence[Optional[Cell]]:
        row = X.degeneracies[n].get(c)
        return [None] * (n + 1) if row is None else row

    # totality of the tables
    level = {n: set(X.cells[n]) for n in range(D + 1)}
    for n in range(1, D + 1):
        for c in X.cells[n]:
            for i, v in enumerate(d(n, c)):
                if v is None:
                    out.append(Violation("face-total", n, (i,), c, "missing face entry"))
                elif v not in level[n - 1]:
                    out.append(Violation("face-total", n, (i,), c, f"face {v!r} not a cell"))
    for n in range(D):
        for c in X.cells[n]:
            for i, v in enumerate(s(n, c)):
                if v is None:
                    out.append(Violation("degeneracy-total", n, (i,), c, "missing degeneracy entry"))
                elif v not in level[n + 1]:
                    out.append(Violation("degeneracy-total", n, (i,), c, f"degeneracy {v!r} not a cell"))

    # d_i d_j = d_{j-1} d_i for i < j
    for n in range(2, D + 1):
        for c in X.cells[n]:
            ddc = [d(n - 1, x) for x in d(n, c)]
            for j in range(1, n + 1):
                for i in range(j):
                    a, b = ddc[j][i], ddc[i][j - 1]
                    if a is None or b is None or a != b:
                        out.append(Violation("dd", n, (i, j), c, f"d_{i} d_{j} = {a!r} vs d_{j-1} d_{i} = {b!r}"))

    # s_i s_j = s_{j+1} s_i for i <= j
    for n in range(D - 1):
        for c in X.cells[n]:
            ssc = [s(n + 1, x) for x in s(n, c)]
            for j in range(n + 1):
                for i in range(j + 1):
                    a, b = ssc[j][i], ssc[i][j + 1]
                    if a is None or b is None or a != b:
                        out.append(Violation("ss", n, (i, j), c, f"s_{i} s_{j} = {a!r} vs s_{j+1} s_{i} = {b!r}"))

    # d_i s_j: the three exchange laws
    for n in range(D):
        for c in X.cells[n]:
            sc = s(n, c)
            sdc = [s(n - 1, x) for x in d(n, c)] if n else []
            for j in range(n + 1):
                if sc[j] is None:
                    continue
                dsc = d(n + 1, sc[j])
                for i in range(n + 2):
                    got = dsc[i]
                    if i < j:
                        want = sdc[i][j - 1]
                        tag = "ds-low"
                    elif i in (j, j + 1):
                        want = c
                        tag = "ds-id"
                    else:
                        want = sdc[i - 1][j]
                        tag = "ds-high"
                    if got is None or want is None or got != want:
                        out.append(Violation(tag, n, (i, j), c, f"d_{i} s_{j} = {got!r}, expected {want!r}"))
    return out


# ---------------------------------------------------------------------------
# simplicial maps
# ---------------------------------------------------------------------------

class SimplicialMap:
    """A levelwise assignment commuting with faces and degeneracies.

    Defined on levels ``0..min(source.dim_bound, target.dim_bound)``.
    """

    __slots__ = ("source", "target", "levels")

    def __init__(
        self,
        source: SimplicialSet,
        target: SimplicialSet,
        levels: Mapping[int, Mapping[Cell, Cell]],
        check: bool = True,
    ):
        self.source = source
        self.target = target
        bound = min(source.dim_bound, target.dim_bound)
        self.levels: dict[int, dict[Cell, Cell]] = {n: dict(levels.get(n, {})) for n in range(bound + 1)}
        if check:
            problems = validate_map(self)
            if problems:
                raise ContractError("not a simplicial map: " + "; ".join(problems[:3]))

    @property
    def bound(self) -> int:
        return min(self.source.dim_bound, self.target.dim_bound)

    def __call__(self, n: int, c: Cell) -> Cell:
        return self.levels[n][c]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.levels == other.levels
        )

    def __repr__(self) -> str:
        return f"SimplicialMap({self.source!r} -> {self.target!r})"

    def encode(self) -> str:
        """Canonical string form, usable as a deterministic identifier: the
        assignments in sorted order, whatever order the levels were given in."""
        pairs = sorted(self.assignments())
        return _writer(_map_name_template(tuple(k for k, _ in pairs)))([v for _, (_, v) in pairs])

    def assignments(self) -> Iterator[tuple[tuple[int, Cell], tuple[int, Cell]]]:
        """Each cell key ``(n, c)`` with the key of its image, in the order
        the levels were given in."""
        for n, level in self.levels.items():
            for c, v in level.items():
                yield (n, c), (n, v)


@lru_cache(maxsize=None)
def _map_name_template(keys: tuple[tuple[int, Cell], ...]) -> tuple[str, ...]:
    """The ``encode()`` of a map whose sorted ``assignments()`` list these
    source keys, as the literal pieces around its images."""
    return (*(f"{';' if k else ''}{n}:{c}>" for k, (n, c) in enumerate(keys)), "")


def _writer(pieces: Sequence[str]) -> Callable[[Sequence[str]], str]:
    """The writer of names whose literal text is ``pieces``: one join of
    ``pieces[0]``, the first image, ``pieces[1]``, ..., ``pieces[-1]``."""
    blank: list[Optional[str]] = [None] * (2 * len(pieces) - 1)
    blank[::2] = pieces

    def write(image: Sequence[str]) -> str:
        out = blank.copy()
        out[1::2] = image
        return "".join(out)
    return write


def validate_map(f: SimplicialMap) -> list[str]:
    """Report levelwise totality, assignments at keys that are not source
    cells, and operator-commutation failures."""
    out = []
    bound = f.bound
    for n in range(bound + 1):
        assigned = f.levels.get(n, {})
        for c in f.source.cells[n]:
            if c not in assigned:
                out.append(f"level {n}: cell {c!r} unassigned")
            elif not f.target.has_cell(n, assigned[c]):
                out.append(f"level {n}: image {assigned[c]!r} of {c!r} not a target cell")
        out.extend(f"level {n}: {c!r} assigned but not a source cell"
                   for c in assigned if not f.source.has_cell(n, c))
    for op, levels, step, rows, images in (("d", range(1, bound + 1), -1, f.source.faces, f.target.faces),
                                           ("s", range(bound), 1, f.source.degeneracies, f.target.degeneracies)):
        for n in levels:
            at, near = f.levels[n], f.levels[n + step]
            for c in f.source.cells[n]:
                if c not in at:
                    continue
                image = images[n].get(at[c], (None,) * (n + 1))
                for i, x in enumerate(rows[n][c]):
                    lhs, rhs = image[i], near.get(x)
                    if lhs != rhs:
                        out.append(f"{op}_{i} at level {n} on {c!r}: {lhs!r} != {rhs!r}")
    return out


def identity_map(X: SimplicialSet) -> SimplicialMap:
    return SimplicialMap(
        X, X, {n: {c: c for c in X.cells[n]} for n in range(X.dim_bound + 1)}, check=False
    )


def compose_maps(g: SimplicialMap, f: SimplicialMap) -> SimplicialMap:
    """The composite ``g . f`` (apply f first)."""
    if f.target != g.source:
        raise ContractError("composition mismatch: target of f differs from source of g")
    bound = min(f.bound, g.bound)
    levels = {
        n: {c: g.levels[n][v] for c, v in f.levels[n].items()} for n in range(bound + 1)
    }
    return SimplicialMap(f.source, g.target, levels, check=False)


def constant_map(X: SimplicialSet, P: SimplicialSet, vertex: Cell) -> SimplicialMap:
    """Collapse everything to the degeneracies of one vertex of P."""
    if not P.has_cell(0, vertex):
        raise DomainError(f"vertex {vertex!r} not in target")
    bound = min(X.dim_bound, P.dim_bound)
    images = {0: vertex}
    for n in range(1, bound + 1):
        images[n] = P.s(n - 1, 0, images[n - 1])
    levels = {n: {c: images[n] for c in X.cells[n]} for n in range(bound + 1)}
    return SimplicialMap(X, P, levels, check=False)


def simplex_map(X: SimplicialSet, n: int, c: Cell) -> SimplicialMap:
    """The classifying map Delta_n -> X of a level-n cell, at X's bound."""
    D = X.dim_bound
    Dn = standard_simplex(n, D)
    levels = {m: {_digits(phi): simplicial_operator(X, phi, n, c) for phi in monotone_maps(m, n)}
              for m in range(D + 1)}
    return SimplicialMap(Dn, X, levels, check=False)


# ---------------------------------------------------------------------------
# colimits: pushout
# ---------------------------------------------------------------------------

class _UnionFind:
    """Union-find over a fixed set of keys; each class's root is its least key."""

    def __init__(self, keys: Iterable[Hashable]) -> None:
        self.parent: dict[Hashable, Hashable] = {x: x for x in keys}

    def find(self, x: Hashable) -> Hashable:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a: Hashable, b: Hashable) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the least key as root
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def _glue(
    D: int,
    pieces: Sequence[tuple[str, SimplicialSet]],
    pairs: Iterable[tuple[tuple[int, int, Cell], tuple[int, int, Cell]]],
) -> tuple[SimplicialSet, list[dict[int, dict[Cell, Cell]]]]:
    """The quotient of a disjoint union of ``pieces``, truncated at D.

    ``pieces`` lists ``(prefix, X)``; ``pairs`` identifies the cell c of
    piece j with the cell c' of piece j', both at level n, written
    ``((j, n, c), (j', n, c'))``.  The identifications must be closed
    under faces and degeneracies.  Each class is named by the least
    ``prefix + cell`` among its members, and its faces and degeneracies
    are read from that member.  Returns the space and, per piece, the
    table ``{n: {cell: name}}`` of its map into the space.

    At level n the cells are numbered in piece order, each piece's cells
    from its offset in the order of its sorted level, and the union-find
    runs on those numbers.
    """
    # ids[n][j][c]: the number of the cell c of piece j at level n
    ids: list[list[dict[Cell, int]]] = []
    uf: list[_UnionFind] = []
    for n in range(D + 1):
        level, offset = [], 0
        for _, X in pieces:
            cells = X.cells[n]
            level.append(dict(zip(cells, range(offset, offset + len(cells)))))
            offset += len(cells)
        ids.append(level)
        uf.append(_UnionFind(range(offset)))
    for (j, n, c), (k, _, e) in pairs:
        uf[n].union(ids[n][j][c], ids[n][k][e])
    tables: list[dict[int, dict[Cell, Cell]]] = [{} for _ in pieces]
    owners: list[list[tuple[Cell, int, Cell]]] = []
    for n, level in enumerate(ids):
        find = uf[n].find
        # per class root, its least member as (name, piece, cell)
        least: dict[int, tuple[Cell, int, Cell]] = {}
        roots: list[list[tuple[Cell, int]]] = []
        for j, at in enumerate(level):
            prefix = pieces[j][0]
            rooted = [(c, find(k)) for c, k in at.items()]
            for c, root in rooted:
                name = prefix + c
                if root not in least or name < least[root][0]:
                    least[root] = (name, j, c)
            roots.append(rooted)
        for j, rooted in enumerate(roots):
            tables[j][n] = {c: least[root][0] for c, root in rooted}
        owners.append(list(least.values()))
    faces = {n: {name: tuple(map(tables[j][n - 1].__getitem__, pieces[j][1].faces[n][c]))
                 for name, j, c in owners[n]} for n in range(1, D + 1)}
    degeneracies = {n: {name: tuple(map(tables[j][n + 1].__getitem__, pieces[j][1].degeneracies[n][c]))
                        for name, j, c in owners[n]} for n in range(D)}
    cells = {n: [name for name, _, _ in level] for n, level in enumerate(owners)}
    return SimplicialSet(D, cells, faces, degeneracies), tables


def _colimit(pieces: Sequence[tuple[str, SimplicialSet]],
             spans: Iterable[tuple[int, SimplicialMap, int, SimplicialMap]]) -> tuple:
    """The quotient of the tagged ``pieces`` ``(prefix, X)`` by u(a) ~ v(a)
    for every span ``(j, u, k, v)`` of maps u: A -> piece j and
    v: A -> piece k, in one :func:`_glue` truncated at the least bound.
    Returns the space followed by each piece's map into it."""
    D = min(X.dim_bound for _, X in pieces)
    pairs = (
        ((j, n, u.levels[n][a]), (k, n, v.levels[n][a]))
        for j, u, k, v in spans
        for n in range(min(D, u.source.dim_bound) + 1)
        for a in u.source.cells[n]
    )
    P, tables = _glue(D, pieces, pairs)
    return (P, *(SimplicialMap(X, P, table, check=False) for (_, X), table in zip(pieces, tables)))


def pushout(
    f: SimplicialMap, g: SimplicialMap
) -> tuple[SimplicialSet, SimplicialMap, SimplicialMap]:
    """Pushout of ``X <-f- A -g-> Y``: levelwise quotient of X + Y by f(a) ~ g(a).

    Returns ``(P, X -> P, Y -> P)``.  Class representatives are the least
    tagged member ids ``L:x`` / ``R:y``, so the construction is deterministic.
    """
    if f.source != g.source:
        raise ContractError("pushout legs must share their source")
    return _colimit([("L:", f.target), ("R:", g.target)], [(0, f, 1, g)])


def pushout_induced(P: SimplicialSet, *cocone: tuple[SimplicialMap, SimplicialMap]) -> SimplicialMap:
    """The unique map P -> W with ``h . inj = leg`` for every pair
    ``(inj, leg)`` of the cocone.

    This is the universal property of :func:`_colimit` in computable form;
    a :class:`ContractError` is raised when the cocone is inconsistent.
    """
    W = cocone[0][1].target
    if any(leg.target != W for _, leg in cocone):
        raise ContractError("cocone legs must share their target")
    bound = min(P.dim_bound, *(leg.bound for _, leg in cocone))
    levels: dict[int, dict[Cell, Cell]] = {n: {} for n in range(bound + 1)}
    for inj, leg in cocone:
        for n in range(bound + 1):
            for c, r in inj.levels[n].items():
                val = leg.levels[n][c]
                prev = levels[n].get(r)
                if prev is not None and prev != val:
                    raise ContractError(
                        f"cocone does not coequalize: class {r!r} gets {prev!r} and {val!r}"
                    )
                levels[n][r] = val
    for n in range(bound + 1):
        for r in P.cells[n]:
            if r not in levels[n]:
                raise ContractError(f"class {r!r} not reached by any injection")
    return SimplicialMap(P, W, levels, check=False)


def disjoint_union(X: SimplicialSet, Y: SimplicialSet) -> tuple[SimplicialSet, SimplicialMap, SimplicialMap]:
    """Coproduct: X and Y glued along nothing."""
    return _colimit([("L:", X), ("R:", Y)], ())


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def _claim(cells: dict, name: str, data: tuple) -> None:
    """Record the cell ``name`` made from ``data``.  A name that other data
    already holds raises :class:`DomainError`, so that two distinct cells
    never silently become one."""
    held = cells.setdefault(name, data)
    if held != data:
        raise DomainError(f"cells {held!r} and {data!r} share the name {name!r}")


def _pair(x: Cell, y: Cell) -> Cell:
    return f"({x}|{y})"


def product(X: SimplicialSet, Y: SimplicialSet) -> SimplicialSet:
    """Levelwise pairs with componentwise operators, truncated at the min bound.

    Two pairs whose names coincide raise :class:`DomainError`."""
    return product_projections(X, Y)[0].source


def product_projections(X: SimplicialSet, Y: SimplicialSet) -> tuple[SimplicialMap, SimplicialMap]:
    """The projections of :func:`product`, read from the pair ``(x, y)`` of
    each cell: the one walk that names each pair builds both."""
    D = min(X.dim_bound, Y.dim_bound)
    cells: dict[int, dict[Cell, tuple[Cell, Cell]]] = {n: {} for n in range(D + 1)}
    for n in range(D + 1):
        for x in X.cells[n]:
            for y in Y.cells[n]:
                _claim(cells[n], _pair(x, y), (x, y))

    def rows(n: int, xs: dict[Cell, tuple], ys: dict[Cell, tuple]) -> dict[Cell, tuple[Cell, ...]]:
        return {name: tuple(map(_pair, xs[x], ys[y])) for name, (x, y) in cells[n].items()}
    P = SimplicialSet(D, cells, {n: rows(n, X.faces[n], Y.faces[n]) for n in range(1, D + 1)},
                      {n: rows(n, X.degeneracies[n], Y.degeneracies[n]) for n in range(D)})
    px, py = ({n: {c: pair[k] for c, pair in level.items()} for n, level in cells.items()} for k in (0, 1))
    return SimplicialMap(P, X, px, check=False), SimplicialMap(P, Y, py, check=False)


# ---------------------------------------------------------------------------
# the backtracking kernel shared by every map search
# ---------------------------------------------------------------------------

# Every search (simplicial maps, functors, 2-functors, and the isomorphism
# searches) is compiled to the same finite constraint problem: a fixed
# order of source-cell variables, each with a candidates function and the
# check of the constraints it completes.  Cells are named by
# dimension-tagged keys whose last component is the cell itself: ``(n, c)``
# for simplicial sets, ``(0, obj)``/``(1, arrow)`` for categories and
# ``(0, obj)``/``(1, a, b, cell)``/``(2, a, b, cell)`` for 2-categories.

Key = tuple


def _dimension_tag(key: Key, value: str, val: list) -> Key:
    """The target key of ``value`` when a cell's dimension is all it needs."""
    return (key[0], value)


def _search(
    keys: Sequence[Key],
    options: Sequence[Callable[[list], Sequence[str]]],
    checks: Sequence[Optional[Callable[[list], bool]]],
    tag: Callable[[Key, str, list], Key],
    emit: Callable[[list], object],
    pin: Optional[Mapping[Key, Key]] = None,
    allow: Optional[Callable[[Key, Key], bool]] = None,
    distinct: bool = False,
) -> Iterator:
    """Depth-first search over the variables ``0..len(keys)-1``, in order.

    Variable ``i`` is the source cell ``keys[i]``.  Given the values
    ``val[:i]`` chosen so far, ``options[i](val)`` lists its candidate
    values in enumeration order (a forced variable gets one candidate, or
    none on a conflict) and ``checks[i](val)``, if set, tests every
    constraint whose last variable is ``i``.  ``tag(key, value, val)`` is
    the target key of a candidate.

    ``pin`` maps source keys to the one target key each may take;
    ``allow(source_key, target_key)`` vetoes candidates; ``distinct`` asks
    for pairwise different target keys.  Yields ``emit(val)`` for every
    complete assignment, lazily: a caller that wants the first solution
    takes ``next(...)``.
    """
    n = len(keys)
    val: list = [None] * n
    if n == 0:
        yield emit(val)
        return
    pins = [(pin or {}).get(key) for key in keys]
    tags: list = [None] * n
    used: set = set()
    branches: list = [None] * n

    def domain(i: int) -> Iterator[str]:
        cands = options[i](val)
        want = pins[i]
        if want is not None:
            ok = want[-1] in cands and tag(keys[i], want[-1], val) == want
            cands = (want[-1],) if ok else ()
        return iter(cands)

    i = 0
    branches[0] = domain(0)
    while i >= 0:
        check = checks[i]
        for v in branches[i]:
            val[i] = v
            if check is not None and not check(val):
                continue
            if allow is not None or distinct:
                t = tag(keys[i], v, val)
                if allow is not None and not allow(keys[i], t):
                    continue
                if distinct:
                    if t in used:
                        continue
                    used.add(t)
                    tags[i] = t
            break
        else:
            i -= 1
            if distinct and i >= 0:
                used.discard(tags[i])
            continue
        if i + 1 < n:
            i += 1
            branches[i] = domain(i)
            continue
        yield emit(val)
        if distinct:
            used.discard(tags[i])


# ---------------------------------------------------------------------------
# enumeration of simplicial maps
# ---------------------------------------------------------------------------

def _picker(positions: Sequence[int]) -> Callable[[Sequence], tuple]:
    """``itemgetter(*positions)``, which returns a 1-tuple for one position too."""
    if len(positions) == 1:
        k = positions[0]
        return lambda seq: (seq[k],)
    return itemgetter(*positions)


def _vertex_tuples(X: SimplicialSet, top: int) -> list[dict[Cell, tuple]]:
    """Per level ``0..top``, each cell -> the tuple of its vertices, by
    vt(c) = vt(d_n c) + (the last vertex of d_0 c)."""
    vt: list[dict[Cell, tuple]] = [{v: (v,) for v in X.cells[0]}]
    for n in range(1, top + 1):
        below = vt[-1]
        rows = X.faces[n]
        vt.append({c: below[rows[c][n]] + below[rows[c][0]][-1:] for c in X.cells[n]})
    return vt


def _simplicial_problem(X: SimplicialSet, Y: SimplicialSet) -> tuple:
    """Compile the search for maps X -> Y for :func:`_search`.

    Levels go up in order.  Inside a level, degenerate cells come first:
    each is forced to one degeneracy lookup in Y on the image of the cell
    it degenerates from, one level down.  A nondegenerate cell of level
    n >= 1 then ranges over the n-cells of Y over the images of its
    vertices, a subsequence of Y's level (so the order of the maps is that
    of the whole level), and must commute with all faces.  Vertices range
    over all of Y's vertices; at the last vertex of each nondegenerate
    cell, the images of the cell's vertices must be the vertex tuple of
    some cell of Y of its level.
    """
    bound = min(X.dim_bound, Y.dim_bound)
    keys: list[Key] = []
    for n in range(bound + 1):
        keys += [(n, c) for c in X.cells[n] if X.is_degenerate(n, c)]
        keys += [(n, c) for c in X.nondegenerate(n)]
    index = {key: k for k, key in enumerate(keys)}
    over = Y._cells_over()
    vertices = _vertex_tuples(X, bound)
    # the variables of each nondegenerate cell's vertices, and the distinct
    # (level, variables) tuples filed under their last variable
    positions = {(n, c): tuple(index[(0, v)] for v in vertices[n][c])
                 for n in range(1, bound + 1) for c in X.nondegenerate(n)}
    spanned: dict[int, dict[tuple[int, tuple[int, ...]], None]] = {}
    for (n, _), at in positions.items():
        spanned.setdefault(max(at), {})[(n, at)] = None

    def degenerate(n: int, i: int, j: int) -> Callable[[list], Sequence[Cell]]:
        rows = Y.degeneracies[n]
        return lambda val: (rows[val[j]][i],)

    def level(cells: tuple[Cell, ...]) -> Callable[[list], Sequence[Cell]]:
        return lambda val: cells

    def over_vertices(n: int, at: tuple[int, ...]) -> Callable[[list], Sequence[Cell]]:
        cells_over, pick = over[n], _picker(at)
        return lambda val: cells_over.get(pick(val), ())

    def spans(tuples: Iterable[tuple[int, tuple[int, ...]]]) -> Callable[[list], bool]:
        tests = [(over[n], _picker(at)) for n, at in tuples]

        def check(val: list) -> bool:
            for cells_over, pick in tests:
                if pick(val) not in cells_over:
                    return False
            return True
        return check

    def faces_commute(n: int, k: int, faces: list[int]) -> Callable[[list], bool]:
        rows, pick = Y.faces[n], _picker(faces)
        return lambda val: rows[val[k]] == pick(val)

    options: list = []
    checks: list = []
    for k, (n, c) in enumerate(keys):
        if X.is_degenerate(n, c):
            i, lower = X._deg_of[(n, c)]
            options.append(degenerate(n - 1, i, index[(n - 1, lower)]))
            checks.append(None)
        elif n == 0:
            options.append(level(Y.cells[0]))
            checks.append(spans(spanned[k]) if k in spanned else None)
        else:
            options.append(over_vertices(n, positions[(n, c)]))
            checks.append(faces_commute(n, k, [index[(n - 1, x)] for x in X.faces[n][c]]))

    def emit(val: list) -> SimplicialMap:
        levels: dict[int, dict[Cell, Cell]] = {n: {} for n in range(bound + 1)}
        for (n, c), v in zip(keys, val):
            levels[n][c] = v
        return SimplicialMap(X, Y, levels, check=False)

    return keys, options, checks, _dimension_tag, emit


def enumerate_simplicial_maps(X: SimplicialSet, Y: SimplicialSet) -> Iterator[SimplicialMap]:
    """Yield all simplicial maps X -> Y in canonical order.

    The search assigns cells level by level; degenerate cells are forced
    by naturality.
    """
    yield from _search(*_simplicial_problem(X, Y))


def count_maps(X: SimplicialSet, Y: SimplicialSet) -> int:
    return sum(1 for _ in enumerate_simplicial_maps(X, Y))


def find_simplicial_iso(X: SimplicialSet, Y: SimplicialSet) -> Optional[SimplicialMap]:
    """Search for a levelwise bijection commuting with all operators.

    Nondegenerate cells go bijectively to nondegenerate cells; the induced
    map on degenerate cells is then automatically bijective.
    """
    if X.dim_bound != Y.dim_bound:
        return None
    if X.nondegenerate_counts() != Y.nondegenerate_counts():
        return None

    def nondegenerate_to_nondegenerate(key: Key, image: Key) -> bool:
        return X.is_degenerate(*key) or not Y.is_degenerate(*image)

    maps = _search(*_simplicial_problem(X, Y), allow=nondegenerate_to_nondegenerate, distinct=True)
    return next(maps, None)


# ---------------------------------------------------------------------------
# singular complexes: level n is the maps K(n) -> X
# ---------------------------------------------------------------------------

def _images(problem: tuple, order: Sequence[Key]) -> Iterator[tuple[tuple, None]]:
    """A level of :func:`_singular` holding the solutions of a compiled
    search problem, each as the tuple of its values at the source keys
    ``order``, with faces left to re-indexing."""
    index = {key: k for k, key in enumerate(problem[0])}
    return ((image, None) for image in _search(*problem[:4], _picker([index[key] for key in order])))


class Singular(NamedTuple):
    """A singular complex, level n the maps K(n) -> X, with the one rule
    that names its cells: a cell is the tuple of its images at the source
    keys of K(n), which ``keys[n]`` lists in sorted order, each
    with its position, and ``names[n]`` writes a tuple's id, the
    ``encode()`` of its map.  ``table`` maps each ``(n, id)`` to its tuple."""

    space: SimplicialSet
    table: dict[tuple[int, Cell], tuple]
    keys: tuple[dict[Key, int], ...]
    names: tuple[Callable[[Sequence[str]], str], ...]


class _LevelPlan(NamedTuple):
    """How :func:`_singular` names and re-indexes the cells of level n:
    the sorted source keys of K(n) with their positions, ``faces[i]``
    taking a cell's tuple to that of its i-th face, and
    ``degeneracies[i]`` taking the tuple of an (n-1)-cell to that of its
    i-th degeneracy.  Plans are cached and shared: nothing changes them."""

    keys: tuple[Key, ...]
    places: dict[Key, int]
    faces: tuple[Callable[[tuple], tuple], ...]
    degeneracies: tuple[Callable[[tuple], tuple], ...]


@lru_cache(maxsize=None)
def _level_plan(operator: Callable[[Monotone, int], object], n: int) -> _LevelPlan:
    """The plan of level n of a singular complex whose operators act by
    precomposition with ``operator``: it depends on ``operator`` and n
    only, so ``operator`` must be one long-lived function per shape."""
    def reindexing(phi: Monotone, m: int, places: dict[Key, int]) -> Callable[[tuple], tuple]:
        return _picker([places[t] for _, t in sorted(operator(phi, m).assignments())])

    keys = tuple(s for s, _ in sorted(operator(tuple(range(n + 1)), n).assignments()))
    places = {s: k for k, s in enumerate(keys)}
    if n == 0:
        return _LevelPlan(keys, places, (), ())
    below = _level_plan(operator, n - 1).places
    return _LevelPlan(keys, places,
                      tuple(reindexing(coface(n, i), n, places) for i in range(n + 1)),
                      tuple(reindexing(codegeneracy(n - 1, i), n - 1, below) for i in range(n)))


def _singular(
    D: int,
    level: Callable[[int, tuple, dict, dict], Iterable[tuple[tuple, Optional[tuple]]]],
    operator: Callable[[Monotone, int], object],
    template: Callable[[tuple], Sequence[str]],
) -> Singular:
    """The simplicial set whose level n holds the maps K(n) -> X.

    This is the common shape of the geometric nerve (K = delta_tilde) and
    of the extension (K = sd of the simplex).  The source keys of level n
    are those of ``operator(identity, n)`` and its writer is
    ``_writer(template(keys))``, which joins the literal pieces of the
    name with a cell's images; no map object is built.  ``phi`` acts by
    precomposition with ``operator(phi, n)``: K(m) -> K(n), which is
    re-indexing the tuple at the positions of the operator's image keys.
    The keys and re-indexings of each level are compiled once per
    ``(operator, n)`` and cached (:func:`_level_plan`), so ``operator``
    must be the same object from call to call: ``cosimplicial_operator``
    for the nerve, one function per bound for the extension.

    ``level(n, keys, named, faces)`` yields each cell of level n as
    ``(image, faces)``, given the source keys of level n and level n - 1 as
    ``named`` (image -> id) and ``faces`` (id -> the tuple of its faces).  A
    cell yielded with faces None has them computed by re-indexing.
    """
    plans = [_level_plan(operator, n) for n in range(D + 1)]
    names = tuple(_writer(template(plan.keys)) for plan in plans)
    table: dict[tuple[int, Cell], tuple] = {}
    faces: dict[int, dict[Cell, tuple]] = {}
    degeneracies: dict[int, dict[Cell, tuple]] = {}
    named: dict[tuple, Cell] = {}
    for n, (plan, name) in enumerate(zip(plans, names)):
        level_named: dict[tuple, Cell] = {}
        rows: dict[Cell, tuple] = {}
        for image, fc in level(n, plan.keys, named, faces.get(n - 1)):
            cid = name(image)
            level_named[image] = cid
            table[(n, cid)] = image
            rows[cid] = tuple(named[di(image)] for di in plan.faces) if fc is None else fc
        if n:
            degeneracies[n - 1] = {cid: tuple(level_named[si(image)] for si in plan.degeneracies)
                                   for image, cid in named.items()}
        named, faces[n] = level_named, rows
    space = SimplicialSet(D, {n: rows.keys() for n, rows in faces.items()}, faces, degeneracies)
    return Singular(space, table, tuple(plan.places for plan in plans), names)


def _postcompose(source: Singular, target: Singular, entry: Callable[[Key], tuple],
                 faced: Optional[int] = None) -> SimplicialMap:
    """The map of singular complexes induced by a map X -> Y: a cell, a map
    K(n) -> X, goes to its composite with X -> Y, named by the target's
    writer.  At a key of K(n), ``entry(key) = (table, at)`` looks the image
    up in ``table`` at the cell's image at the one key in ``at``, or at the
    tuple of its images at several.  The target's keys must be among the
    source's; their positions are found once per level.  From level
    ``faced`` on, where no two target cells share their faces, a cell goes
    to the target cell whose faces are the images of its own instead."""
    levels: dict[int, dict[Cell, Cell]] = {}
    for n, keys in enumerate(target.keys):
        if faced is not None and n >= faced:
            cell = {fc: cid for cid, fc in target.space.faces[n].items()}
            lower = levels[n - 1].__getitem__
            levels[n] = {cid: cell[tuple(map(lower, fc))] for cid, fc in source.space.faces[n].items()}
            continue
        reads = [(table, itemgetter(*map(source.keys[n].__getitem__, at))) for table, at in map(entry, keys)]
        name = target.names[n]
        levels[n] = {cid: name([table[read(source.table[(n, cid)])] for table, read in reads])
                     for cid in source.space.cells[n]}
    return SimplicialMap(source.space, target.space, levels, check=False)


# ---------------------------------------------------------------------------
# path components of the 1-skeleton
# ---------------------------------------------------------------------------

def components(X: SimplicialSet) -> dict[Cell, Cell]:
    """Map each vertex to the least vertex of its component."""
    uf = _UnionFind(X.cells[0])
    if X.dim_bound >= 1:
        for e in X.cells[1]:
            uf.union(X.d(1, 0, e), X.d(1, 1, e))
    return {v: uf.find(v) for v in X.cells[0]}
