"""Exact integer homology and graded weak-equivalence evidence.

Normalized chains (nondegenerate cells only), Smith normal form over the
integers with verifiable unimodular certificates, edge-path fundamental
group presentations, and three-valued evidence reports for simplicial
maps and 2-functors.  The edge-path group at a vertex is read from
``presentations.cat_of(X)``, the presentation of the fundamental category
of X: its generators and relations on the vertex's component, with a
spanning tree set to 1 (the fundamental groupoid of cX at that vertex;
Gabriel and Zisman 1967).

All arithmetic uses Python integers, so there is no overflow.  A chain
complex stores each boundary as sparse columns, one ``{row: coefficient}``
dict per basis cell, and homology reads ranks and torsion off them by
eliminating unit pivots; only a remainder with no unit entry, usually
empty, goes to :func:`smith_normal_form` as a dense matrix, where one
reduction step serves unit and non-unit pivots alike.  Dense matrices
are lists of rows: ``ChainComplex.boundary[n]`` (built on first read) maps
degree-n chains to degree n-1, rows indexed by the lower basis.
Certificates come only from a direct call of :func:`smith_normal_form`.
"""

from __future__ import annotations

import heapq
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from math import gcd
from typing import Optional, Sequence

from .errors import BoundError, DomainError
from .presentations import cat_of
from .simplicial import SimplicialMap, SimplicialSet, components
from .twocat import TwoFunctor, geometric_nerve_functor

Matrix = list[list[int]]
Column = dict[int, int]


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

def identity_matrix(n: int) -> Matrix:
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(out):
        row[i] = 1
    return out


def _support(line: Sequence[int]) -> list[int]:
    """The positions where the line is nonzero."""
    return list(compress(range(len(line)), line))


def _add_multiple(dst: list[int], q: int, src: Sequence[int] | Mapping[int, int],
                  support: Iterable[int]) -> None:
    """``dst += q * src`` in place; ``support`` lists the positions where src is nonzero."""
    for j in support:
        dst[j] += q * src[j]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    if not A or not B:
        return [[0] * (len(B[0]) if B else 0) for _ in A]
    supports = [_support(row) for row in B]
    out = [[0] * len(B[0]) for _ in A]
    for Ai, row in zip(A, out):
        for a, Bt, support in zip(Ai, B, supports):
            if a:
                _add_multiple(row, a, Bt, support)
    return out


def integer_det(M: Matrix) -> int:
    """Exact determinant by Euclidean row reduction.

    Each column is cleared below the diagonal by subtracting integer
    multiples of the row that holds its least nonzero entry, until no
    remainder is left; these operations keep the determinant, and row swaps
    flip its sign.  The result is the signed product of the diagonal.  Only
    the pivot row's nonzero entries are touched, so sparse matrices (such as
    Smith certificates) are cheap.
    """
    a = [list(row) for row in M]
    n = len(a)
    det = 1
    for k in range(n):
        while True:
            below = [i for i in range(k, n) if a[i][k]]
            if not below:
                return 0
            p = min(below, key=lambda i: abs(a[i][k]))
            if p != k:
                a[k], a[p] = a[p], a[k]
                det = -det
            pivot = a[k]
            support = [j for j in range(k, n) if pivot[j]]
            cleared = True
            for i in range(k + 1, n):
                row = a[i]
                if row[k]:
                    _add_multiple(row, -(row[k] // pivot[k]), pivot, support)
                    cleared = cleared and not row[k]
            if cleared:
                break
        det *= a[k][k]
    return det


@dataclass
class SmithNormalForm:
    """``diagonal = U . matrix . V`` with U, V unimodular."""

    matrix: Matrix
    diagonal: Matrix
    U: Matrix
    V: Matrix

    @property
    def invariants(self) -> tuple[int, ...]:
        return tuple(
            self.diagonal[i][i]
            for i in range(min(len(self.diagonal), len(self.diagonal[0]) if self.diagonal else 0))
            if self.diagonal[i][i] != 0
        )

    @property
    def rank(self) -> int:
        return len(self.invariants)

    def verify(self) -> bool:
        if mat_mul(mat_mul(self.U, self.matrix), self.V) != self.diagonal:
            return False
        if abs(integer_det(self.U)) != 1 or abs(integer_det(self.V)) != 1:
            return False
        inv = self.invariants
        return all(inv[i + 1] % inv[i] == 0 for i in range(len(inv) - 1))


def _pivot(A: Matrix, t: int) -> Optional[tuple[int, int]]:
    """Position of the least nonzero |entry| in the rows and columns from t
    on, the first in row-major order.  Rows from t on are zero left of
    column t, so whole rows are searched for a unit, and the first unit ends
    the scan."""
    best = None
    for i in range(t, len(A)):
        row = A[i]
        if 1 in row or -1 in row:
            return i, min(row.index(u) for u in (1, -1) if u in row)
        if not any(row):
            continue
        for j in range(t, len(row)):
            if row[j] and (best is None or abs(row[j]) < best[0]):
                best = (abs(row[j]), i, j)
    return None if best is None else best[1:]


def _nearest_quotient(a: int, p: int) -> int:
    """The quotient q with ``|a - q * p| <= |p| / 2``; exact for a unit p."""
    if p in (1, -1):
        return a * p
    q, r = divmod(a, p)
    return q + 1 if 2 * abs(r) > abs(p) else q


def smith_normal_form(M: Sequence[Sequence[int]]) -> SmithNormalForm:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Classical pivoting: bring the least nonzero entry to the corner t, then
    repeat one reduction step: reduce column t by row operations, then row t
    by column operations, each by nearest-integer division, so every
    remainder is at most half the pivot, and bring the least remainder to
    the corner.  Once row and column t are clear, fix divisibility of the
    remaining block and recurse on the submatrix.  A unit corner divides
    exactly: its step leaves no remainder and needs no divisibility sweep.
    The pivot shrinks at every step, which keeps the certificate entries
    small; :meth:`SmithNormalForm.verify` checks them.

    Each operation is one :func:`_add_multiple` over the nonzero entries of
    the line it adds.  V is built transposed, as W, so its column operations
    are row operations; on A, a step's column operations add the row of
    quotients, times the entry in column t, to each row nonzero there.
    """
    A = [list(map(int, row)) for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    U = identity_matrix(rows)
    W = identity_matrix(cols)

    def swap_rows(i: int, j: int) -> None:
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i: int, j: int) -> None:  # t the corner
        for row in A[t:]:
            row[i], row[j] = row[j], row[i]
        W[i], W[j] = W[j], W[i]

    for t in range(min(rows, cols)):
        corner = _pivot(A, t)
        if corner is None:
            break
        swap_rows(t, corner[0])
        swap_cols(t, corner[1])
        while True:
            pivot_row, p = A[t], A[t][t]
            # row_i -= q * row_t, leaving a remainder in column t
            support = _support(pivot_row)
            u_support = _support(U[t])
            column = [i for i in range(t + 1, rows) if A[i][t]]
            for i in column:
                q = -_nearest_quotient(A[i][t], p)
                _add_multiple(A[i], q, pivot_row, support)
                _add_multiple(U[i], q, U[t], u_support)
            column = [t] + [i for i in column if A[i][t]]
            # col_j -= q_j * col_t for every j at once: each row where
            # column t is nonzero takes its entry there times the quotients
            quotients = {j: -_nearest_quotient(pivot_row[j], p) for j in support[1:]}
            for i in column:
                _add_multiple(A[i], A[i][t], quotients, quotients)
            w_support = _support(W[t])
            for j, q in quotients.items():
                _add_multiple(W[j], q, W[t], w_support)
            if p in (1, -1):
                break
            # the least remainder becomes the new, smaller pivot
            rest = [(abs(A[i][t]), 0, i) for i in column[1:]]
            rest += [(abs(pivot_row[j]), 1, j) for j in quotients if pivot_row[j]]
            if rest:
                _, is_col, k = min(rest)
                (swap_cols if is_col else swap_rows)(t, k)
                continue
            # enforce divisibility of the remaining block by the pivot
            offender = next((i for i in range(t + 1, rows) if any(a % p for a in A[i])), None)
            if offender is None:
                break
            _add_multiple(pivot_row, 1, A[offender], _support(A[offender]))
            _add_multiple(U[t], 1, U[offender], _support(U[offender]))
        if A[t][t] < 0:
            A[t] = [-a for a in A[t]]
            U[t] = [-a for a in U[t]]
    return SmithNormalForm([list(map(int, row)) for row in M], A, U, [list(c) for c in zip(*W)])


# ---------------------------------------------------------------------------
# chain complexes
# ---------------------------------------------------------------------------

def _column(entries: Iterable[tuple[int, int]]) -> Column:
    """The sparse column that sums ``(row, coefficient)`` pairs, zeros left out."""
    col: Column = {}
    for i, v in entries:
        col[i] = col.get(i, 0) + v
    return {i: v for i, v in col.items() if v}


def _dense(columns: Sequence[Column], rows: Sequence[int]) -> Matrix:
    """The given rows of the matrix with these columns, as lists."""
    at = {r: k for k, r in enumerate(rows)}
    out = [[0] * len(columns) for _ in rows]
    for j, col in enumerate(columns):
        for i, v in col.items():
            out[at[i]][j] = v
    return out


@dataclass
class ChainComplex:
    """Free abelian chain groups with sparse integer boundaries.

    ``basis[n]`` lists the degree-n generators.  ``columns[n]`` (for
    n >= 1) is the boundary map in those bases: one ``{row: coefficient}``
    dict per degree-n generator, rows indexing ``basis[n - 1]``, zero
    coefficients left out.  ``boundary[n]`` is the same map as a dense
    list of rows; every degree is built on the first read of ``boundary``
    and kept, so a later change to ``columns`` does not reach it.
    """

    basis: dict[int, tuple[str, ...]]
    columns: dict[int, list[Column]]

    @property
    def top(self) -> int:
        return max(self.basis) if self.basis else -1

    def rank(self, n: int) -> int:
        return len(self.basis.get(n, ()))

    @cached_property
    def boundary(self) -> dict[int, Matrix]:
        return {n: _dense(cols, range(self.rank(n - 1))) for n, cols in self.columns.items()}

    def validate(self) -> list[str]:
        """One message per degree where the boundary does not square to zero."""
        out = []
        for n in range(1, self.top + 1):
            d_n = self.columns.get(n)
            d_n1 = self.columns.get(n + 1)
            if d_n is None or d_n1 is None:
                continue
            if any(_column((k, v * w) for i, v in col.items() for k, w in d_n[i].items())
                   for col in d_n1):
                out.append(f"boundary squared is nonzero from degree {n + 1}")
        return out


def normalized_chains(X: SimplicialSet) -> ChainComplex:
    """Basis the nondegenerate cells; boundary the alternating face sum with
    degenerate faces dropped."""
    basis = {n: X.nondegenerate(n) for n in range(X.dim_bound + 1)}
    columns: dict[int, list[Column]] = {}
    for n in range(1, X.dim_bound + 1):
        index = {c: i for i, c in enumerate(basis[n - 1])}
        columns[n] = [
            _column((index[f], -1 if i % 2 else 1)
                    for i, f in enumerate(X.faces[n][c])
                    if f in index)
            for c in basis[n]
        ]
    return ChainComplex(basis, columns)


def _eliminate_units(columns: Sequence[Column]) -> tuple[int, list[Column]]:
    """Eliminate unit pivots from the matrix with these columns.

    A pivot ``u = +-1`` at (r, c) clears row r from every other column by
    exact column operations; column c and row r then split off as a Smith
    invariant 1, and the columns left have the other invariants.  The
    shortest column holding a unit goes first, pivoting on its unit whose
    row meets the fewest columns, to keep fill-in low: a heap keyed by
    column length, with a fresh entry whenever a column changes, finds it
    without rescanning the columns.  Returns the number of pivots and the
    nonzero columns left, none of which has a unit entry.
    """
    cols = [dict(c) for c in columns]
    holders: dict[int, set[int]] = {}  # row -> the columns nonzero there
    for j, col in enumerate(cols):
        for i in col:
            holders.setdefault(i, set()).add(j)
    heap = [(len(col), j) for j, col in enumerate(cols) if col]
    heapq.heapify(heap)
    pivots = 0
    while heap:
        size, c = heapq.heappop(heap)
        pivot = cols[c]
        if size != len(pivot):  # stale: the column changed since
            continue
        units = [i for i, v in pivot.items() if v in (1, -1)]
        if not units:
            continue
        r = min(units, key=lambda i: (len(holders[i]), i))
        cols[c] = {}
        for i in pivot:
            holders[i].discard(c)
        u = pivot.pop(r)
        for j in holders.pop(r):
            col = cols[j]
            q = col.pop(r) * u
            for i, v in pivot.items():
                w = col.get(i, 0) - q * v
                if w:
                    col[i] = w
                    holders[i].add(j)
                else:
                    del col[i]
                    holders[i].discard(j)
            heapq.heappush(heap, (len(col), j))
        pivots += 1
    return pivots, [col for col in cols if col]


def _rank_and_torsion(columns: Sequence[Column]) -> tuple[int, tuple[int, ...]]:
    """Rank and Smith invariants above 1 of the matrix with these columns.

    Unit pivots are eliminated sparsely; only the remainder, usually empty,
    is densified and handed to :func:`smith_normal_form`.
    """
    pivots, rest = _eliminate_units(columns)
    if not rest:
        return pivots, ()
    s = smith_normal_form(_dense(rest, sorted({i for col in rest for i in col})))
    return pivots + s.rank, tuple(d for d in s.invariants if d > 1)


@dataclass
class HomologyReport:
    """Betti number and torsion coefficients per degree; ``==`` compares
    the degrees, not the bound they were computed under."""

    degrees: dict[int, tuple[int, tuple[int, ...]]]
    bound: int = field(compare=False)

    def betti(self, n: int) -> int:
        return self.degrees.get(n, (0, ()))[0]

    def torsion(self, n: int) -> tuple[int, ...]:
        return self.degrees.get(n, (0, ()))[1]


def homology_of_complex(cc: ChainComplex, upto: int) -> HomologyReport:
    """Homology of the chain complex as given (missing boundaries read as 0).

    H_n has Betti number ``rank C_n - rank d_n - rank d_(n+1)`` and the
    torsion of d_(n+1); each boundary is reduced once."""
    reduced = {n: _rank_and_torsion(cc.columns[n]) for n in range(1, upto + 2) if n in cc.columns}
    degrees = {}
    for n in range(upto + 1):
        rank_n = reduced.get(n, (0, ()))[0]
        rank_up, torsion = reduced.get(n + 1, (0, ()))
        degrees[n] = (cc.rank(n) - rank_n - rank_up, torsion)
    return HomologyReport(degrees, upto)


def homology(X: SimplicialSet, k: int) -> HomologyReport:
    """H_i for i <= k.  Requires ``dim_bound >= k + 1`` so that the incoming
    boundary at degree k is available."""
    if k < 0:
        raise DomainError(f"degree {k} must be >= 0")
    if X.dim_bound < k + 1:
        raise BoundError(f"bound {X.dim_bound} insufficient for homology through degree {k}")
    return homology_of_complex(normalized_chains(X), k)


# ---------------------------------------------------------------------------
# fundamental group presentations
# ---------------------------------------------------------------------------

Word = tuple[tuple[str, int], ...]


@dataclass
class GroupPresentation:
    generators: tuple[str, ...]
    relations: tuple[Word, ...]

    def abelian_invariants(self) -> tuple[int, tuple[int, ...]]:
        """(free rank, torsion) of the abelianization: the relation matrix,
        one column per relation, reduced as a boundary is."""
        if not self.generators:
            return 0, ()
        idx = {g: i for i, g in enumerate(self.generators)}
        rank, torsion = _rank_and_torsion([_column((idx[g], e) for g, e in w)
                                           for w in self.relations])
        return len(self.generators) - rank, torsion


def _free_reduce(w: Word) -> Word:
    out: list[tuple[str, int]] = []
    for g, e in w:
        if e == 0:
            continue
        if out and out[-1][0] == g:
            s = out[-1][1] + e
            out.pop()
            if s:
                out.append((g, s))
        else:
            out.append((g, e))
    return tuple(out)


_TIETZE_STEPS = 100


def tietze_reduce(p: GroupPresentation) -> GroupPresentation:
    """Bounded simplification: free reduction, trivial-generator elimination,
    substitution of generators defined by a relation, for at most
    ``_TIETZE_STEPS`` steps."""
    gens = list(p.generators)
    rels = [_free_reduce(w) for w in p.relations]
    for _ in range(_TIETZE_STEPS):
        rels = [w for w in rels if w]
        # a relation g^{+-1} = 1 kills the generator
        killed = None
        for w in rels:
            if len(w) == 1 and abs(w[0][1]) == 1:
                killed = w[0][0]
                break
        if killed is not None:
            gens = [g for g in gens if g != killed]
            rels = [_free_reduce(tuple((g, e) for g, e in w if g != killed)) for w in rels]
            continue
        # a relation where some generator occurs exactly once with exponent +-1
        # defines it in terms of the others: substitute and drop it
        sub = None
        for w in rels:
            tally: dict[str, list[int]] = {}
            for pos, (g, e) in enumerate(w):
                tally.setdefault(g, []).append(pos)
            for g, positions in tally.items():
                if len(positions) == 1 and abs(w[positions[0]][1]) == 1:
                    pos = positions[0]
                    e = w[pos][1]
                    rest = w[pos + 1:] + w[:pos]  # g^e = inverse of the rest
                    expr = tuple((h, -ee * e) for h, ee in reversed(rest))
                    sub = (g, expr, w)
                    break
            if sub:
                break
        if sub is None:
            break
        g0, expr, used = sub
        gens = [g for g in gens if g != g0]
        new_rels = []
        for w in rels:
            if w == used:
                continue
            out: list[tuple[str, int]] = []
            for g, e in w:
                if g != g0:
                    out.append((g, e))
                else:
                    piece = expr if e > 0 else tuple((h, -ee) for h, ee in reversed(expr))
                    out.extend(piece * abs(e))
            new_rels.append(_free_reduce(tuple(out)))
        rels = new_rels
    rels = sorted(set(w for w in rels if w))
    return GroupPresentation(tuple(sorted(gens)), tuple(rels))


def pi1_presentation(X: SimplicialSet, basepoint: str) -> GroupPresentation:
    """Edge-path presentation of the fundamental group at ``basepoint``:
    ``cat_of(X)`` restricted to the basepoint's component, with a spanning
    tree of its generators set to 1 and each relation ``lhs = rhs`` read as
    the word ``lhs rhs^-1``.
    """
    if not X.has_cell(0, basepoint):
        raise DomainError(f"basepoint {basepoint!r} is not a vertex")
    pres = cat_of(X)
    # BFS spanning tree from the basepoint; the vertices it reaches are the
    # basepoint's component of the 1-skeleton
    adjacency: dict[str, list[tuple[str, str]]] = {v: [] for v in pres.objects}
    for e in pres.generators:
        a, b = pres.src[e], pres.dst[e]
        adjacency[a].append((e, b))
        adjacency[b].append((e, a))
    tree: set[str] = set()
    seen = {basepoint}
    frontier = [basepoint]
    while frontier:
        nxt = []
        for v in frontier:
            for e, w in sorted(adjacency[v]):
                if w not in seen:
                    seen.add(w)
                    tree.add(e)
                    nxt.append(w)
        frontier = nxt
    generators = tuple(e for e in pres.generators if pres.src[e] in seen and e not in tree)
    # a relation's generators all lie in one component: its first one's
    relations = {
        _free_reduce(tuple((e, 1) for e in lhs if e not in tree)
                     + tuple((e, -1) for e in reversed(rhs) if e not in tree))
        for lhs, rhs in pres.relations if pres.src[(lhs + rhs)[0]] in seen
    }
    return GroupPresentation(generators, tuple(sorted(r for r in relations if r)))


def classify_presentation(p: GroupPresentation) -> Optional[str]:
    """A canonical description when one is recognizable, else None."""
    q = tietze_reduce(p)
    if not q.generators:
        return "trivial"
    if not q.relations:
        return f"free({len(q.generators)})"
    if len(q.generators) == 1:
        exps = [sum(e for _, e in w) for w in q.relations]
        if all(
            all(g == q.generators[0] for g, _ in w) for w in q.relations
        ):
            d = gcd(*exps)
            if d:
                return f"cyclic({d})"
    return None


# ---------------------------------------------------------------------------
# graded weak-equivalence evidence
# ---------------------------------------------------------------------------

PASS = "PASS"
FAIL = "FAIL"
UNKNOWN = "UNKNOWN"


@dataclass
class EvidenceReport:
    """Per-check verdicts with witnesses; never asserts a full equivalence."""

    checks: dict[str, str]
    witnesses: dict[str, object] = field(default_factory=dict)
    bound: int = 0

    def verdict(self, name: str) -> str:
        return self.checks.get(name, UNKNOWN)

    def all_pass(self) -> bool:
        return all(v == PASS for v in self.checks.values())


def mapping_cone(f: SimplicialMap) -> ChainComplex:
    """Cone of the induced map of normalized chain complexes.

    Degree n is C_{n-1}(X) + C_n(Y); the boundary sends (x, y) to
    (-dx, f(x) + dy), where f(x) vanishes if the image of x is degenerate.
    """
    CX = normalized_chains(f.source)
    CY = normalized_chains(f.target)
    top = min(f.source.dim_bound + 1, f.target.dim_bound)
    basis: dict[int, tuple[str, ...]] = {}
    for n in range(top + 1):
        xs = tuple("X:" + c for c in CX.basis.get(n - 1, ()))
        ys = tuple("Y:" + c for c in CY.basis.get(n, ()))
        basis[n] = xs + ys
    columns: dict[int, list[Column]] = {}
    for n in range(1, top + 1):
        shift = CX.rank(n - 2)  # the rows of C_{n-2}(X) come first
        image_row = {c: shift + i for i, c in enumerate(CY.basis[n - 1])}
        image = f.levels[n - 1]
        dX = CX.columns.get(n - 1) or [{}] * CX.rank(n - 1)
        level = []
        for x, dx in zip(CX.basis[n - 1], dX):
            col = {i: -v for i, v in dx.items()}
            if image[x] in image_row:
                col[image_row[image[x]]] = 1
            level.append(col)
        level += [{shift + i: v for i, v in dy.items()} for dy in CY.columns[n]]
        columns[n] = level
    return ChainComplex(basis, columns)


def _pi0_check(f: SimplicialMap) -> tuple[str, object]:
    cx = components(f.source)
    cy = components(f.target)
    reps_x = sorted(set(cx.values()))
    reps_y = sorted(set(cy.values()))
    image = {r: cy[f.levels[0][r]] for r in reps_x}
    hit = Counter(image.values())
    if len(hit) < len(reps_x):
        merged = [r for r in reps_x if hit[image[r]] > 1]
        return FAIL, {"reason": "components merged", "witness": merged}
    if len(hit) < len(reps_y):
        missed = [r for r in reps_y if r not in hit]
        return FAIL, {"reason": "components missed", "witness": missed}
    return PASS, {"components": len(reps_x)}


def weak_equivalence_evidence(f: SimplicialMap, k: int) -> EvidenceReport:
    """Graded evidence that ``f`` is a weak equivalence: a pi_0 bijection
    check, cone-acyclicity homology checks through degree k, and a bounded
    fundamental-group comparison.  Verdicts never exceed the truncation."""
    if k < 0:
        raise DomainError(f"degree {k} must be >= 0")
    if f.source.dim_bound < k + 2 or f.target.dim_bound < k + 2:
        raise BoundError(f"bounds must be >= {k + 2} for evidence through degree {k}")
    checks: dict[str, str] = {}
    witnesses: dict[str, object] = {}

    verdict, w = _pi0_check(f)
    checks["pi0"] = verdict
    witnesses["pi0"] = w

    cone = mapping_cone(f)
    cone_h = homology_of_complex(cone, k + 1)
    for i in range(k + 1):
        here = cone_h.degrees[i]
        above = cone_h.degrees[i + 1]
        if here == (0, ()) and above == (0, ()):
            checks[f"H{i}"] = PASS
        else:
            checks[f"H{i}"] = FAIL
            witnesses[f"H{i}"] = {
                "cone_homology": {i: here, i + 1: above},
            }

    checks["pi1"], witnesses["pi1"] = _pi1_compare(f)
    return EvidenceReport(checks, witnesses, bound=min(f.source.dim_bound, f.target.dim_bound))


def _pi1_compare(f: SimplicialMap) -> tuple[str, object]:
    """Compare pi_1 of the source at its first vertex with pi_1 of the target
    at that vertex's image as two abstract groups: the map f induces between
    them is never compared, so a PASS does not show that it is an isomorphism."""
    X, Y = f.source, f.target
    if not X.cells[0] or not Y.cells[0]:
        if not X.cells[0] and not Y.cells[0]:
            return PASS, {"reason": "both empty"}
        return FAIL, {"reason": "one side empty"}
    base = X.cells[0][0]
    px = tietze_reduce(pi1_presentation(X, base))
    py = tietze_reduce(pi1_presentation(Y, f.levels[0][base]))
    ax, ay = px.abelian_invariants(), py.abelian_invariants()
    if ax != ay:
        return FAIL, {"reason": "abelianizations differ", "witness": [ax, ay]}
    if (px.generators, px.relations) == (py.generators, py.relations):
        return PASS, {"reason": "identical reduced presentations"}
    cx, cy = classify_presentation(px), classify_presentation(py)
    if cx is not None and cx == cy:
        return PASS, {"reason": f"both {cx}"}
    return UNKNOWN, {"reason": "presentations not comparable within budget",
                     "presentations": [repr(px), repr(py)]}


def weak_equivalence_evidence2(u: TwoFunctor, D: int, k: int) -> EvidenceReport:
    """Evidence for a 2-functor: apply the geometric nerve at bound D, then
    the simplicial evidence through degree k (which refuses a negative k)."""
    report = weak_equivalence_evidence(geometric_nerve_functor(u, D), k)
    report.bound = D
    return report
