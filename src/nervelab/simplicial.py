"""Levelwise-finite, dimension-truncated simplicial sets.

Every simplicial set carries an explicit truncation bound ``dim_bound``;
cells, face tables and degeneracy tables exist only up to that bound.
Cell identifiers are strings and every stored level is sorted, so equal
constructions produce byte-identical data.

Conventions used throughout:

* cells of the standard simplex ``Delta_n`` at level ``m`` are the
  monotone maps ``[m] -> [n]`` written as digit strings (``"012"``,
  ``"0012"``, ...); ``n <= 9`` is enforced so the encoding stays
  unambiguous;
* ``face[(n, i, c)]`` is ``d_i c`` and ``degeneracy[(n, i, c)]`` is
  ``s_i c`` (defined for ``n < dim_bound``);
* quotients (pushouts) use union-find with the lexicographically least
  member as the canonical class representative.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Optional, Sequence

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

    ``cells`` maps each level ``0..dim_bound`` to a sorted tuple of ids;
    ``face`` and ``degeneracy`` are total operator tables.  Values are
    immutable after construction.
    """

    __slots__ = ("dim_bound", "cells", "face", "degeneracy", "_nondeg", "_deg_of")

    def __init__(
        self,
        dim_bound: int,
        cells: Mapping[int, Iterable[Cell]],
        face: Mapping[tuple[int, int, Cell], Cell],
        degeneracy: Mapping[tuple[int, int, Cell], Cell],
    ):
        if dim_bound < 0:
            raise BoundError(f"dim_bound must be >= 0, got {dim_bound}")
        self.dim_bound = dim_bound
        self.cells: dict[int, tuple[Cell, ...]] = {
            n: tuple(sorted(cells.get(n, ()))) for n in range(dim_bound + 1)
        }
        self.face = dict(face)
        self.degeneracy = dict(degeneracy)
        # Eilenberg-Zilber bookkeeping: for each cell the minimal (i, lower)
        # with s_i(lower) = cell, if any.  Cells with no preimage are the
        # nondegenerate core.
        deg_of: dict[tuple[int, Cell], tuple[int, Cell]] = {}
        for (n, i, src), dst in self.degeneracy.items():
            key = (n + 1, dst)
            if key not in deg_of or (i, src) < deg_of[key]:
                deg_of[key] = (i, src)
        self._deg_of = deg_of
        nondeg: dict[int, tuple[Cell, ...]] = {0: self.cells[0]}
        for n in range(1, dim_bound + 1):
            nondeg[n] = tuple(c for c in self.cells[n] if (n, c) not in deg_of)
        self._nondeg = nondeg

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
        return self.face[(n, i, c)]

    def s(self, n: int, i: int, c: Cell) -> Cell:
        return self.degeneracy[(n, i, c)]

    def has_cell(self, n: int, c: Cell) -> bool:
        return 0 <= n <= self.dim_bound and c in set(self.cells[n])

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

    def counts(self) -> tuple[int, ...]:
        return tuple(len(self.cells[n]) for n in range(self.dim_bound + 1))

    def nondegenerate_counts(self) -> tuple[int, ...]:
        return tuple(len(self._nondeg[n]) for n in range(self.dim_bound + 1))

    def is_empty(self) -> bool:
        return all(not self.cells[n] for n in range(self.dim_bound + 1))

    # -- structural equality ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimplicialSet):
            return NotImplemented
        return (
            self.dim_bound == other.dim_bound
            and self.cells == other.cells
            and self.face == other.face
            and self.degeneracy == other.degeneracy
        )

    def __repr__(self) -> str:
        return f"SimplicialSet(bound={self.dim_bound}, cells={self.counts()})"


# ---------------------------------------------------------------------------
# applying an arbitrary simplicial operator
# ---------------------------------------------------------------------------

def simplicial_operator(X: SimplicialSet, phi: Monotone, n: int, c: Cell) -> Cell:
    """Apply ``X(phi)`` to a level-``n`` cell, for monotone ``phi: [m] -> [n]``.

    ``phi`` is decomposed into cofaces and codegeneracies; the result is a
    cell at level ``m = len(phi) - 1``.
    """
    if not is_monotone(phi):
        raise ContractError(f"operator {phi} is not monotone")
    if any(v < 0 or v > n for v in phi):
        raise DomainError(f"operator {phi} does not land in [{n}]")
    m = len(phi) - 1
    if m > X.dim_bound:
        raise BoundError(f"operator lands at level {m} beyond bound {X.dim_bound}")
    values = set(phi)
    if len(values) < n + 1:
        # phi = delta_i . phi'  with i the largest missing value
        i = max(v for v in range(n + 1) if v not in values)
        lower = tuple(v if v < i else v - 1 for v in phi)
        return simplicial_operator(X, lower, n - 1, X.d(n, i, c))
    if m > n:
        # phi = phi' . sigma_j with j the first repeat
        j = next(k for k in range(m) if phi[k] == phi[k + 1])
        shorter = phi[:j] + phi[j + 1:]
        return X.s(m - 1, j, simplicial_operator(X, shorter, n, c))
    return c  # phi is the identity


# ---------------------------------------------------------------------------
# generation of standard objects
# ---------------------------------------------------------------------------

def _digits(phi: Monotone) -> Cell:
    return "".join(str(v) for v in phi)


def _from_digits(c: Cell) -> Monotone:
    return tuple(int(ch) for ch in c)


def _simplex_like(n: int, D: int, keep: Callable[[Monotone], bool]) -> SimplicialSet:
    """Build the subobject of Delta_n (truncated at D) of maps satisfying ``keep``."""
    if n > 9:
        raise BoundError("standard cells are encoded as digit strings; n <= 9 required")
    cells: dict[int, list[Cell]] = {}
    by_level: dict[int, list[Monotone]] = {}
    for m in range(D + 1):
        by_level[m] = [phi for phi in monotone_maps(m, n) if keep(phi)]
        cells[m] = [_digits(phi) for phi in by_level[m]]
    face: dict[tuple[int, int, Cell], Cell] = {}
    degeneracy: dict[tuple[int, int, Cell], Cell] = {}
    for m in range(1, D + 1):
        for phi in by_level[m]:
            c = _digits(phi)
            for i in range(m + 1):
                face[(m, i, c)] = _digits(phi[:i] + phi[i + 1:])
    for m in range(D):
        for phi in by_level[m]:
            c = _digits(phi)
            for i in range(m + 1):
                degeneracy[(m, i, c)] = _digits(phi[: i + 1] + phi[i:])
    return SimplicialSet(D, cells, face, degeneracy)


def standard_simplex(n: int, D: int) -> SimplicialSet:
    if n > D:
        raise BoundError(f"simplex dimension {n} exceeds bound {D}")
    return _simplex_like(n, D, lambda phi: True)


def boundary(n: int, D: int) -> SimplicialSet:
    """The boundary of the n-simplex: maps that miss some value."""
    if n > D:
        raise BoundError(f"simplex dimension {n} exceeds bound {D}")
    return _simplex_like(n, D, lambda phi: len(set(phi)) < n + 1)


def horn(n: int, k: int, D: int) -> SimplicialSet:
    """The horn missing the face opposite ``k``: maps missing a value != k."""
    if n > D:
        raise BoundError(f"simplex dimension {n} exceeds bound {D}")
    if not 0 <= k <= n:
        raise DomainError(f"horn index {k} outside [0, {n}]")
    full = set(range(n + 1))
    return _simplex_like(n, D, lambda phi: bool((full - set(phi)) - {k}))


def empty_simplicial_set(D: int) -> SimplicialSet:
    return SimplicialSet(D, {}, {}, {})


def generate_cell(kind: str, n: int, k: Optional[int] = None, D: int = 3) -> SimplicialSet:
    """Dispatching constructor for the standard objects.

    ``kind`` is one of ``standard``, ``boundary``, ``horn``.
    """
    if kind == "standard":
        return standard_simplex(n, D)
    if kind == "boundary":
        return boundary(n, D)
    if kind == "horn":
        if k is None:
            raise DomainError("horn requires the index k")
        return horn(n, k, D)
    raise DomainError(f"unknown cell kind {kind!r}")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class Violation:
    """One failed simplicial identity, with enough data to replay it."""

    __slots__ = ("identity", "level", "indices", "cell", "detail")

    def __init__(self, identity: str, level: int, indices: tuple[int, ...], cell: Cell, detail: str):
        self.identity = identity
        self.level = level
        self.indices = indices
        self.cell = cell
        self.detail = detail

    def __repr__(self) -> str:
        return (
            f"Violation({self.identity} at level {self.level}, "
            f"indices {self.indices}, cell {self.cell!r}: {self.detail})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Violation):
            return NotImplemented
        return (self.identity, self.level, self.indices, self.cell, self.detail) == (
            other.identity, other.level, other.indices, other.cell, other.detail)


def validate(X: SimplicialSet) -> list[Violation]:
    """Check the five simplicial identities and table totality within the bound."""
    out: list[Violation] = []
    D = X.dim_bound

    def face(n: int, i: int, c: Cell) -> Optional[Cell]:
        return X.face.get((n, i, c))

    def degen(n: int, i: int, c: Cell) -> Optional[Cell]:
        return X.degeneracy.get((n, i, c))

    # totality of the tables
    level = {n: set(X.cells[n]) for n in range(D + 1)}
    for n in range(1, D + 1):
        for c in X.cells[n]:
            for i in range(n + 1):
                v = face(n, i, c)
                if v is None:
                    out.append(Violation("face-total", n, (i,), c, "missing face entry"))
                elif v not in level[n - 1]:
                    out.append(Violation("face-total", n, (i,), c, f"face {v!r} not a cell"))
    for n in range(D):
        for c in X.cells[n]:
            for i in range(n + 1):
                v = degen(n, i, c)
                if v is None:
                    out.append(Violation("degeneracy-total", n, (i,), c, "missing degeneracy entry"))
                elif v not in level[n + 1]:
                    out.append(Violation("degeneracy-total", n, (i,), c, f"degeneracy {v!r} not a cell"))

    # d_i d_j = d_{j-1} d_i for i < j
    for n in range(2, D + 1):
        for c in X.cells[n]:
            for j in range(1, n + 1):
                for i in range(j):
                    a = face(n - 1, i, face(n, j, c) or "") if face(n, j, c) else None
                    b = face(n - 1, j - 1, face(n, i, c) or "") if face(n, i, c) else None
                    if a is None or b is None or a != b:
                        out.append(Violation("dd", n, (i, j), c, f"d_{i} d_{j} = {a!r} vs d_{j-1} d_{i} = {b!r}"))

    # s_i s_j = s_{j+1} s_i for i <= j
    for n in range(D - 1):
        for c in X.cells[n]:
            for j in range(n + 1):
                for i in range(j + 1):
                    a = degen(n + 1, i, degen(n, j, c) or "") if degen(n, j, c) else None
                    b = degen(n + 1, j + 1, degen(n, i, c) or "") if degen(n, i, c) else None
                    if a is None or b is None or a != b:
                        out.append(Violation("ss", n, (i, j), c, f"s_{i} s_{j} = {a!r} vs s_{j+1} s_{i} = {b!r}"))

    # d_i s_j: the three exchange laws
    for n in range(D):
        for c in X.cells[n]:
            for j in range(n + 1):
                sc = degen(n, j, c)
                if sc is None:
                    continue
                for i in range(n + 2):
                    got = face(n + 1, i, sc)
                    if i < j:
                        want = degen(n - 1, j - 1, face(n, i, c) or "") if face(n, i, c) else None
                        tag = "ds-low"
                    elif i in (j, j + 1):
                        want = c
                        tag = "ds-id"
                    else:
                        want = degen(n - 1, j, face(n, i - 1, c) or "") if face(n, i - 1, c) else None
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
        self.levels: dict[int, dict[Cell, Cell]] = {
            n: dict(sorted(levels.get(n, {}).items())) for n in range(bound + 1)
        }
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
        """Canonical string form, usable as a deterministic identifier."""
        parts = []
        for n in sorted(self.levels):
            for c, v in sorted(self.levels[n].items()):
                parts.append(f"{n}:{c}>{v}")
        return ";".join(parts)

    def assignments(self) -> Iterator[tuple[tuple[int, Cell], tuple[int, Cell]]]:
        """Each cell key ``(n, c)`` with the key of its image."""
        for n, level in self.levels.items():
            for c, v in level.items():
                yield (n, c), (n, v)


def _map_name_template(keys: Iterable[tuple[int, Cell]]) -> str:
    """The ``encode()`` of a map whose ``assignments()`` lists these source
    keys, with a ``str.format`` field in place of each image."""
    return ";".join(f"{n}:{_escaped(c)}>{{}}" for n, c in keys)


def _escaped(name: str) -> str:
    """``name`` as literal text of a ``str.format`` template."""
    return name.replace("{", "{{").replace("}", "}}")


def validate_map(f: SimplicialMap) -> list[str]:
    """Report levelwise totality and operator-commutation failures."""
    out = []
    bound = f.bound
    for n in range(bound + 1):
        assigned = f.levels.get(n, {})
        for c in f.source.cells[n]:
            if c not in assigned:
                out.append(f"level {n}: cell {c!r} unassigned")
            elif not f.target.has_cell(n, assigned[c]):
                out.append(f"level {n}: image {assigned[c]!r} of {c!r} not a target cell")
    for n in range(1, bound + 1):
        for c in f.source.cells[n]:
            if c not in f.levels[n]:
                continue
            for i in range(n + 1):
                lhs = f.target.face.get((n, i, f.levels[n][c]))
                rhs = f.levels[n - 1].get(f.source.d(n, i, c))
                if lhs != rhs:
                    out.append(f"d_{i} at level {n} on {c!r}: {lhs!r} != {rhs!r}")
    for n in range(bound):
        for c in f.source.cells[n]:
            if c not in f.levels[n]:
                continue
            for i in range(n + 1):
                lhs = f.target.degeneracy.get((n, i, f.levels[n][c]))
                rhs = f.levels[n + 1].get(f.source.s(n, i, c))
                if lhs != rhs:
                    out.append(f"s_{i} at level {n} on {c!r}: {lhs!r} != {rhs!r}")
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


def simplex_map(X: SimplicialSet, n: int, c: Cell, D: Optional[int] = None) -> SimplicialMap:
    """The classifying map Delta_n -> X of a level-n cell."""
    D = X.dim_bound if D is None else D
    Dn = standard_simplex(n, D)
    levels: dict[int, dict[Cell, Cell]] = {}
    for m in range(min(D, X.dim_bound) + 1):
        levels[m] = {
            u: simplicial_operator(X, _from_digits(u), n, c) for u in Dn.cells[m]
        }
    return SimplicialMap(Dn, X, levels, check=False)


# ---------------------------------------------------------------------------
# colimits: pushout
# ---------------------------------------------------------------------------

class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict[Hashable, Hashable] = {}

    def add(self, x: Hashable) -> None:
        self.parent.setdefault(x, x)

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


def pushout(
    f: SimplicialMap, g: SimplicialMap
) -> tuple[SimplicialSet, SimplicialMap, SimplicialMap]:
    """Pushout of ``X <-f- A -g-> Y``: levelwise quotient of X + Y by f(a) ~ g(a).

    Returns ``(P, X -> P, Y -> P)``.  Class representatives are the least
    tagged member ids, so the construction is deterministic.
    """
    if f.source != g.source:
        raise ContractError("pushout legs must share their source")
    X, Y, A = f.target, g.target, f.source
    D = min(X.dim_bound, Y.dim_bound)
    uf = {n: _UnionFind() for n in range(D + 1)}
    for n in range(D + 1):
        for c in X.cells[n]:
            uf[n].add("L:" + c)
        for c in Y.cells[n]:
            uf[n].add("R:" + c)
        if n <= A.dim_bound:
            for a in A.cells[n]:
                uf[n].union("L:" + f.levels[n][a], "R:" + g.levels[n][a])
    rep = {n: {x: uf[n].find(x) for x in uf[n].parent} for n in range(D + 1)}
    cells = {n: sorted(set(rep[n].values())) for n in range(D + 1)}

    face: dict[tuple[int, int, Cell], Cell] = {}
    degeneracy: dict[tuple[int, int, Cell], Cell] = {}
    for n in range(D + 1):
        for tagged in rep[n]:
            r = rep[n][tagged]
            side, c = tagged[0], tagged[2:]
            Z = X if side == "L" else Y
            if n >= 1:
                for i in range(n + 1):
                    face[(n, i, r)] = rep[n - 1][tagged[0:2] + Z.d(n, i, c)]
            if n < D:
                for i in range(n + 1):
                    degeneracy[(n, i, r)] = rep[n + 1][tagged[0:2] + Z.s(n, i, c)]
    P = SimplicialSet(D, cells, face, degeneracy)
    inj_x = SimplicialMap(
        X, P, {n: {c: rep[n]["L:" + c] for c in X.cells[n]} for n in range(D + 1)}, check=False
    )
    inj_y = SimplicialMap(
        Y, P, {n: {c: rep[n]["R:" + c] for c in Y.cells[n]} for n in range(D + 1)}, check=False
    )
    return P, inj_x, inj_y


def pushout_induced(
    P: SimplicialSet,
    inj_x: SimplicialMap,
    inj_y: SimplicialMap,
    u: SimplicialMap,
    v: SimplicialMap,
) -> SimplicialMap:
    """The unique map P -> W with ``h . inj_x = u`` and ``h . inj_y = v``.

    This is the universal property of :func:`pushout` in computable form;
    a :class:`ContractError` is raised when the cocone is inconsistent.
    """
    if u.target != v.target:
        raise ContractError("cocone legs must share their target")
    bound = min(P.dim_bound, u.bound, v.bound)
    levels: dict[int, dict[Cell, Cell]] = {n: {} for n in range(bound + 1)}
    for leg, inj in ((u, inj_x), (v, inj_y)):
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
                raise ContractError(f"class {r!r} not reached by either injection")
    return SimplicialMap(P, u.target, levels, check=False)


def verify_pushout(
    f: SimplicialMap,
    g: SimplicialMap,
    P: SimplicialSet,
    inj_x: SimplicialMap,
    inj_y: SimplicialMap,
) -> bool:
    """Exhaustively check the defining properties of a computed pushout."""
    lhs = compose_maps(inj_x, f)
    rhs = compose_maps(inj_y, g)
    if lhs != rhs:
        return False
    reached = {
        (n, r)
        for inj in (inj_x, inj_y)
        for n in inj.levels
        for r in inj.levels[n].values()
    }
    for n in range(P.dim_bound + 1):
        for c in P.cells[n]:
            if (n, c) not in reached:
                return False
    return True


def disjoint_union(X: SimplicialSet, Y: SimplicialSet) -> tuple[SimplicialSet, SimplicialMap, SimplicialMap]:
    """Coproduct, computed as the pushout over the empty simplicial set."""
    D = min(X.dim_bound, Y.dim_bound)
    E = empty_simplicial_set(D)
    f = SimplicialMap(E, X, {}, check=False)
    g = SimplicialMap(E, Y, {}, check=False)
    return pushout(f, g)


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------

def _pair(x: Cell, y: Cell) -> Cell:
    return f"({x}|{y})"


def product(X: SimplicialSet, Y: SimplicialSet) -> SimplicialSet:
    """Levelwise pairs with componentwise operators, truncated at the min bound."""
    D = min(X.dim_bound, Y.dim_bound)
    cells = {
        n: [_pair(x, y) for x in X.cells[n] for y in Y.cells[n]] for n in range(D + 1)
    }
    face: dict[tuple[int, int, Cell], Cell] = {}
    degeneracy: dict[tuple[int, int, Cell], Cell] = {}
    for n in range(1, D + 1):
        for x in X.cells[n]:
            for y in Y.cells[n]:
                for i in range(n + 1):
                    face[(n, i, _pair(x, y))] = _pair(X.d(n, i, x), Y.d(n, i, y))
    for n in range(D):
        for x in X.cells[n]:
            for y in Y.cells[n]:
                for i in range(n + 1):
                    degeneracy[(n, i, _pair(x, y))] = _pair(X.s(n, i, x), Y.s(n, i, y))
    return SimplicialSet(D, cells, face, degeneracy)


def product_projections(X: SimplicialSet, Y: SimplicialSet) -> tuple[SimplicialMap, SimplicialMap]:
    P = product(X, Y)
    D = P.dim_bound
    px = {n: {} for n in range(D + 1)}
    py = {n: {} for n in range(D + 1)}
    for n in range(D + 1):
        for x in X.cells[n]:
            for y in Y.cells[n]:
                px[n][_pair(x, y)] = x
                py[n][_pair(x, y)] = y
    return (
        SimplicialMap(P, X, px, check=False),
        SimplicialMap(P, Y, py, check=False),
    )


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
    limit: Optional[int] = None,
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
    for pairwise different target keys; ``limit`` caps the solutions.
    Yields ``emit(val)`` for every complete assignment.
    """
    if limit is not None and limit <= 0:
        return
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

    count = 0
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
        count += 1
        if count == limit:
            return
        if distinct:
            used.discard(tags[i])


# ---------------------------------------------------------------------------
# enumeration of simplicial maps
# ---------------------------------------------------------------------------

def _simplicial_problem(X: SimplicialSet, Y: SimplicialSet) -> tuple:
    """Compile the search for maps X -> Y for :func:`_search`.

    Levels go up in order.  Inside a level, degenerate cells come first:
    each is forced to one degeneracy lookup in Y on the image of the cell
    it degenerates from, one level down.  Nondegenerate cells then range
    over the level of Y and must commute with all faces.
    """
    bound = min(X.dim_bound, Y.dim_bound)
    keys: list[Key] = []
    for n in range(bound + 1):
        keys += [(n, c) for c in X.cells[n] if X.is_degenerate(n, c)]
        keys += [(n, c) for c in X.nondegenerate(n)]
    index = {key: k for k, key in enumerate(keys)}

    def degenerate(n: int, i: int, j: int) -> Callable[[list], Sequence[Cell]]:
        return lambda val: (Y.degeneracy[(n, i, val[j])],)

    def level(cells: tuple[Cell, ...]) -> Callable[[list], Sequence[Cell]]:
        return lambda val: cells

    def faces_commute(n: int, k: int, faces: list[tuple[int, int]]) -> Callable[[list], bool]:
        def check(val: list) -> bool:
            img = val[k]
            for i, j in faces:
                if Y.face[(n, i, img)] != val[j]:
                    return False
            return True
        return check

    options: list = []
    checks: list = []
    for k, (n, c) in enumerate(keys):
        if X.is_degenerate(n, c):
            i, lower = X._deg_of[(n, c)]
            options.append(degenerate(n - 1, i, index[(n - 1, lower)]))
            checks.append(None)
        else:
            options.append(level(Y.cells[n]))
            faces = [(i, index[(n - 1, X.d(n, i, c))]) for i in range(n + 1)] if n else []
            checks.append(faces_commute(n, k, faces) if faces else None)

    def emit(val: list) -> SimplicialMap:
        levels: dict[int, dict[Cell, Cell]] = {n: {} for n in range(bound + 1)}
        for (n, c), v in zip(keys, val):
            levels[n][c] = v
        return SimplicialMap(X, Y, levels, check=False)

    return keys, options, checks, _dimension_tag, emit


def enumerate_simplicial_maps(
    X: SimplicialSet,
    Y: SimplicialSet,
    pin: Optional[Mapping[Key, Key]] = None,
    allow: Optional[Callable[[Key, Key], bool]] = None,
    limit: Optional[int] = None,
) -> Iterator[SimplicialMap]:
    """Yield all simplicial maps X -> Y in canonical order.

    The search assigns cells level by level; degenerate cells are forced
    by naturality.  Cells are keyed ``(n, cell)``: ``pin`` fixes the images
    of specific cells, ``allow(cell_key, image_key)`` restricts the image
    choices, and ``limit`` caps the number of maps (this is how the
    lifting engine plants its boundary and fiber conditions).
    """
    yield from _search(*_simplicial_problem(X, Y), pin, allow, limit)


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

    maps = _search(*_simplicial_problem(X, Y), allow=nondegenerate_to_nondegenerate,
                   limit=1, distinct=True)
    return next(maps, None)


# ---------------------------------------------------------------------------
# singular complexes: level n is the maps K(n) -> X
# ---------------------------------------------------------------------------

def _listed(maps: Iterable) -> Iterator[tuple[tuple, Cell, object, None]]:
    """A level of :func:`_singular` holding the given maps, each named by
    its ``encode()``, with faces left to re-indexing."""
    for F in maps:
        yield tuple(t[-1] for _, t in F.assignments()), F.encode(), F, None


def _singular(
    D: int,
    level: Callable[[int, dict, dict], Iterable[tuple[tuple, Cell, object, Optional[tuple]]]],
    operator: Callable[[Monotone, int], object],
) -> tuple[SimplicialSet, dict[tuple[int, Cell], object]]:
    """The simplicial set whose level n holds maps K(n) -> X.

    This is the common shape of the geometric nerve (K = delta_tilde) and
    of the extension (K = sd of the simplex).  Returns it with the
    ``(n, id) -> map`` table.  Every map of level n lists the source keys
    of ``operator(identity, n)`` in ``assignments()``, in the same order,
    so a map is recorded as the tuple of its image cells in that order.
    ``phi`` acts by precomposition with ``operator(phi, n)``: K(m) -> K(n),
    which is re-indexing that tuple at the positions of the operator's
    image keys.

    ``level(n, named, faces)`` yields each map of level n as ``(image, id,
    map, faces)``, given level n - 1 as ``named`` (image tuple -> id) and
    ``faces`` (id -> the tuple of its faces).  A map yielded with faces
    None has them computed by re-indexing.
    """
    places: dict[int, dict[Key, int]] = {}

    def reindexing(phi: Monotone, n: int) -> Callable[[tuple], tuple]:
        if n not in places:
            identity = tuple(range(n + 1))
            places[n] = {s: k for k, (s, _) in enumerate(operator(identity, n).assignments())}
        pick = [places[n][t] for _, t in operator(phi, n).assignments()]
        if len(pick) == 1:
            k = pick[0]
            return lambda image: (image[k],)
        return itemgetter(*pick)

    table: dict[tuple[int, Cell], object] = {}
    face: dict[tuple[int, int, Cell], Cell] = {}
    degeneracy: dict[tuple[int, int, Cell], Cell] = {}
    cells: dict[int, Iterable[Cell]] = {}
    named: dict[tuple, Cell] = {}
    faces: dict[Cell, tuple] = {}
    for n in range(D + 1):
        d = [reindexing(coface(n, i), n) for i in range(n + 1)] if n > 0 else []
        level_named: dict[tuple, Cell] = {}
        level_faces: dict[Cell, tuple] = {}
        for image, cid, F, fc in level(n, named, faces):
            level_named[image] = cid
            table[(n, cid)] = F
            if fc is None:
                fc = tuple(named[di(image)] for di in d)
            level_faces[cid] = fc
            for i, x in enumerate(fc):
                face[(n, i, cid)] = x
        for i in range(n):
            si = reindexing(codegeneracy(n - 1, i), n - 1)
            for image, cid in named.items():
                degeneracy[(n - 1, i, cid)] = level_named[si(image)]
        named, faces = level_named, level_faces
        cells[n] = faces.keys()
    return SimplicialSet(D, cells, face, degeneracy), table


# ---------------------------------------------------------------------------
# path components of the 1-skeleton
# ---------------------------------------------------------------------------

def components(X: SimplicialSet) -> dict[Cell, Cell]:
    """Map each vertex to the least vertex of its component."""
    uf = _UnionFind()
    for v in X.cells[0]:
        uf.add(v)
    if X.dim_bound >= 1:
        for e in X.cells[1]:
            uf.union(X.d(1, 0, e), X.d(1, 1, e))
    return {v: uf.find(v) for v in X.cells[0]}
