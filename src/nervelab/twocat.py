"""Finite strict 2-categories and strict 2-functors.

A :class:`Fin2Cat` stores, for every ordered pair of objects, a hom
:class:`~nervelab.cat.FinCat` whose objects are the 1-cells and whose
arrows are the 2-cells.  Horizontal composition is a pair of tables

* ``hcompose1[(a, b, c, f, g)]`` for 1-cells ``f: a -> b``, ``g: b -> c``
  (read "f then g"),
* ``hcompose2[(a, b, c, alpha, beta)]`` for 2-cells,

and ``unit[a]`` is the distinguished object of ``hom(a, a)``.  Since
1-cell and 2-cell names are only unique within their hom-category, all
tables are keyed by the surrounding objects.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .cat import (
    CatFunctor,
    FinCat,
    _by_source,
    _functor_problems,
    _slice_category,
    _slice_name,
    _slice_objects,
    _thin_category,
    discrete_category,
    has_final_object,
    validate_category,
)
from .errors import ContractError, DomainError
from .simplicial import (
    Key,
    Monotone,
    SimplicialMap,
    SimplicialSet,
    Singular,
    _digits,
    _dimension_tag,
    _images,
    _postcompose,
    _search,
    _singular,
    _standard_vertices,
    _UnionFind,
    _writer,
    coface,
    is_monotone,
)

Obj = str
One = str  # a 1-cell (an object of a hom-category)
Two = str  # a 2-cell (an arrow of a hom-category)


# the hom of every pair that a 2-category is given none for; FinCat
# tables are never changed after construction, so all share this one
_NO_ARROWS = FinCat([], [], {}, {}, {}, {})


class Fin2Cat:
    __slots__ = ("objects", "hom", "hcompose1", "hcompose2", "unit", "_reach")

    def __init__(
        self,
        objects: Iterable[Obj],
        hom: Mapping[tuple[Obj, Obj], FinCat],
        hcompose1: Mapping[tuple[Obj, Obj, Obj, One, One], One],
        hcompose2: Mapping[tuple[Obj, Obj, Obj, Two, Two], Two],
        unit: Mapping[Obj, One],
    ):
        self.objects = tuple(sorted(objects))
        self.hom = dict(hom)
        self._reach = {a: tuple(b for b in self.objects if self.hom.setdefault((a, b), _NO_ARROWS).objects)
                       for a in self.objects}
        self.hcompose1 = dict(hcompose1)
        self.hcompose2 = dict(hcompose2)
        self.unit = dict(unit)

    def hc1(self, a: Obj, b: Obj, c: Obj, f: One, g: One) -> One:
        return self.hcompose1[(a, b, c, f, g)]

    def hc2(self, a: Obj, b: Obj, c: Obj, al: Two, be: Two) -> Two:
        return self.hcompose2[(a, b, c, al, be)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fin2Cat):
            return NotImplemented
        return (
            self.objects == other.objects
            and self.hom == other.hom
            and self.hcompose1 == other.hcompose1
            and self.hcompose2 == other.hcompose2
            and self.unit == other.unit
        )

    def __repr__(self) -> str:
        cells = sum(len(H.objects) for H in self.hom.values())
        return f"Fin2Cat({len(self.objects)} objects, {cells} one-cells)"


def validate_2category(C: Fin2Cat) -> list[str]:
    """Exhaustive check of the strict 2-category axioms.

    Composites are walked over the homs with a 1-cell that C files per
    object and, for interchange, over each hom's 2-cells filed by source.  An
    hcompose or unit row that names a cell or object C does not have is
    refused, as :func:`~nervelab.cat.validate_category` refuses such rows."""
    out = []
    objs = C.objects
    objset = set(objs)
    for (a, b), H in C.hom.items():
        if a not in objset or b not in objset:
            out.append(f"hom({a!r}, {b!r}) indexed by foreign objects")
            continue
        for msg in validate_category(H):
            out.append(f"hom({a!r}, {b!r}): {msg}")
    if out:
        return out  # the checks below assume every hom is a category
    cells = {ab: (set(H.objects), set(H.arrows)) for ab, H in C.hom.items()}
    for a in objs:
        u = C.unit.get(a)
        if u is None or u not in cells[(a, a)][0]:
            out.append(f"unit of {a!r} missing from hom({a!r}, {a!r})")
    out.extend(f"unit row {a!r} names an absent object" for a in C.unit if a not in objset)
    for dim, table in ((1, C.hcompose1), (2, C.hcompose2)):
        for a, b, c, x, y in table:
            if x not in cells.get((a, b), ((), ()))[dim - 1] or y not in cells.get((b, c), ((), ()))[dim - 1]:
                out.append(f"hcompose{dim} row ({a},{b},{c},{x},{y}) names an absent cell")

    def hc1(a, b, c, f, g):
        return C.hcompose1.get((a, b, c, f, g))

    # totality and typing of horizontal composition
    for a in objs:
        for b in C._reach[a]:
            for c in C._reach[b]:
                H_ab, H_bc, H_ac = C.hom[(a, b)], C.hom[(b, c)], C.hom[(a, c)]
                ones_ac, twos_ac = cells[(a, c)]
                for f in H_ab.objects:
                    for g in H_bc.objects:
                        h = hc1(a, b, c, f, g)
                        if h is None or h not in ones_ac:
                            out.append(f"hcompose1 missing/foreign on ({a},{b},{c},{f},{g})")
                for al in H_ab.arrows:
                    for be in H_bc.arrows:
                        ga = C.hcompose2.get((a, b, c, al, be))
                        if ga is None or ga not in twos_ac:
                            out.append(f"hcompose2 missing/foreign on ({a},{b},{c},{al},{be})")
                            continue
                        want_src = hc1(a, b, c, H_ab.src[al], H_bc.src[be])
                        want_dst = hc1(a, b, c, H_ab.dst[al], H_bc.dst[be])
                        if H_ac.src[ga] != want_src or H_ac.dst[ga] != want_dst:
                            out.append(f"hcompose2 endpoints wrong on ({a},{b},{c},{al},{be})")

    # functoriality of horizontal composition (identities and interchange)
    leaving = {ab: _by_source(H.arrows, H.src.__getitem__) for ab, H in C.hom.items()}
    for a in objs:
        for b in C._reach[a]:
            for c in C._reach[b]:
                H_ab, H_bc, H_ac = C.hom[(a, b)], C.hom[(b, c)], C.hom[(a, c)]
                for f in H_ab.objects:
                    for g in H_bc.objects:
                        got = C.hcompose2.get((a, b, c, H_ab.identity[f], H_bc.identity[g]))
                        want = H_ac.identity.get(hc1(a, b, c, f, g) or "")
                        if got != want:
                            out.append(f"hcompose2 of identities wrong at ({a},{b},{c},{f},{g})")
                for al in H_ab.arrows:
                    for al2 in leaving[(a, b)][H_ab.dst[al]]:
                        for be in H_bc.arrows:
                            for be2 in leaving[(b, c)][H_bc.dst[be]]:
                                lhs = C.hcompose2.get(
                                    (a, b, c, H_ab.compose[(al2, al)], H_bc.compose[(be2, be)])
                                )
                                x1 = C.hcompose2.get((a, b, c, al, be))
                                x2 = C.hcompose2.get((a, b, c, al2, be2))
                                rhs = H_ac.compose.get((x2 or "", x1 or ""))
                                if lhs is None or lhs != rhs:
                                    out.append(
                                        f"interchange fails at ({a},{b},{c}) on ({al},{al2},{be},{be2})"
                                    )

    # associativity and the unit laws of horizontal composition, on the
    # 1-cells and then on the 2-cells of each triple or pair
    units = {a: C.hom[(a, a)].identity.get(u) for a, u in C.unit.items() if a in objset}
    laws = ((1, attrgetter("objects"), C.hcompose1, C.unit), (2, attrgetter("arrows"), C.hcompose2, units))
    for a in objs:
        for b in C._reach[a]:
            for c in C._reach[b]:
                for d in C._reach[c]:
                    for dim, cells_of, hc, _ in laws:
                        for x in cells_of(C.hom[(a, b)]):
                            for y in cells_of(C.hom[(b, c)]):
                                for z in cells_of(C.hom[(c, d)]):
                                    lhs = hc.get((a, c, d, hc.get((a, b, c, x, y)) or "", z))
                                    rhs = hc.get((a, b, d, x, hc.get((b, c, d, y, z)) or ""))
                                    if lhs is None or lhs != rhs:
                                        out.append(f"hcompose{dim} not associative on ({x},{y},{z})")
    for a in objs:
        for b in C._reach[a]:
            if C.unit.get(a) is None or C.unit.get(b) is None:
                continue
            for dim, cells_of, hc, unit in laws:
                ua, ub = unit.get(a) or "", unit.get(b) or ""
                for x in cells_of(C.hom[(a, b)]):
                    if hc.get((a, a, b, ua, x)) != x:
                        out.append(f"left unit law fails on {dim}-cell {x!r} in hom({a},{b})")
                    if hc.get((a, b, b, x, ub)) != x:
                        out.append(f"right unit law fails on {dim}-cell {x!r} in hom({a},{b})")
    return out


class TwoFunctor:
    """A strict 2-functor: object map plus a functor on every hom-category."""

    __slots__ = ("source", "target", "objects", "on1", "on2")

    def __init__(
        self,
        source: Fin2Cat,
        target: Fin2Cat,
        objects: Mapping[Obj, Obj],
        on1: Mapping[tuple[Obj, Obj, One], One],
        on2: Mapping[tuple[Obj, Obj, Two], Two],
        check: bool = True,
    ):
        self.source = source
        self.target = target
        self.objects = dict(sorted(objects.items()))
        self.on1 = dict(sorted(on1.items()))
        self.on2 = dict(sorted(on2.items()))
        if check:
            problems = validate_two_functor(self)
            if problems:
                raise ContractError("not a 2-functor: " + "; ".join(problems[:3]))

    def encode(self) -> str:
        pairs = list(self.assignments())
        return _writer(_name_template(tuple(s for s, _ in pairs)))([t[-1] for _, t in pairs])

    def assignments(self) -> Iterator[tuple[Key, Key]]:
        """Each cell key, ``(0, object)``, ``(1, a, b, one_cell)`` or
        ``(2, a, b, two_cell)``, with the key of its image."""
        for a, b in self.objects.items():
            yield (0, a), (0, b)
        for dim, cells in ((1, self.on1), (2, self.on2)):
            for (a, b, x), v in cells.items():
                yield (dim, a, b, x), (dim, self.objects[a], self.objects[b], v)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TwoFunctor):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.objects == other.objects
            and self.on1 == other.on1
            and self.on2 == other.on2
        )

    def __repr__(self) -> str:
        return f"TwoFunctor({self.source!r} -> {self.target!r})"


def validate_two_functor(F: TwoFunctor) -> list[str]:
    """The problems of F's ends, marked ``source:`` or ``target:``, or else of its assignments."""
    ends = (("source", F.source), ("target", F.target))
    return [f"{end}: {msg}" for end, C in ends for msg in validate_2category(C)] or _two_functor_problems(F)


def _two_functor_problems(F: TwoFunctor) -> list[str]:
    """The problems of F's assignments, read on ends that are 2-categories."""
    out = []
    A, B = F.source, F.target
    objects, targets = set(A.objects), set(B.objects)
    out.extend(f"object {a!r} assigned but not a source object" for a in F.objects if a not in objects)
    for key in F.on1:
        if key[:2] not in A.hom or key[2] not in A.hom[key[:2]].objects:
            out.append(f"1-cell {key!r} assigned but not a source 1-cell")
    for key in F.on2:
        if key[:2] not in A.hom or key[2] not in A.hom[key[:2]].arrows:
            out.append(f"2-cell {key!r} assigned but not a source 2-cell")
    for a in A.objects:
        if F.objects.get(a) not in targets:
            out.append(f"object {a!r} unassigned or foreign")
    for (a, b), H in A.hom.items():
        K = B.hom.get((F.objects.get(a), F.objects.get(b)))
        if K is None:
            if H.objects:
                out.append(f"hom({a},{b}) has no image hom")
            continue
        on_hom = CatFunctor(H, K, {f: F.on1[(a, b, f)] for f in H.objects if (a, b, f) in F.on1},
                            {al: F.on2[(a, b, al)] for al in H.arrows if (a, b, al) in F.on2},
                            check=False)
        out.extend(f"hom({a!r}, {b!r}): {msg}" for msg in _functor_problems(on_hom))
    for a in A.objects:
        if F.on1.get((a, a, A.unit[a])) != B.unit.get(F.objects.get(a, "")):
            out.append(f"unit 1-cell of {a!r} not preserved")
    # preservation of horizontal composition, on 1-cells and then on 2-cells
    laws = ((1, attrgetter("objects"), F.on1, A.hcompose1, B.hcompose1),
            (2, attrgetter("arrows"), F.on2, A.hcompose2, B.hcompose2))
    for a in A.objects:
        for b in A._reach[a]:
            for c in A._reach[b]:
                fa, fb, fc = (F.objects.get(x) for x in (a, b, c))
                for dim, cells_of, on, hc_a, hc_b in laws:
                    for x in cells_of(A.hom[(a, b)]):
                        for y in cells_of(A.hom[(b, c)]):
                            lhs = on.get((a, c, hc_a[(a, b, c, x, y)]))
                            rhs = hc_b.get((fa, fb, fc, on.get((a, b, x), ""), on.get((b, c, y), "")))
                            if lhs is None or lhs != rhs:
                                out.append(f"hcompose{dim} not preserved on ({a},{b},{c},{x},{y})")
    return out


def identity_two_functor(C: Fin2Cat) -> TwoFunctor:
    return TwoFunctor(
        C,
        C,
        {a: a for a in C.objects},
        {(a, b, f): f for (a, b), H in C.hom.items() for f in H.objects},
        {(a, b, al): al for (a, b), H in C.hom.items() for al in H.arrows},
        check=False,
    )


def compose_two_functors(G: TwoFunctor, F: TwoFunctor) -> TwoFunctor:
    if F.target is not G.source and F.target != G.source:
        raise ContractError("2-functor composition mismatch")
    objects = {a: G.objects[b] for a, b in F.objects.items()}
    on1 = {}
    on2 = {}
    for (a, b, f), v in F.on1.items():
        on1[(a, b, f)] = G.on1[(F.objects[a], F.objects[b], v)]
    for (a, b, al), v in F.on2.items():
        on2[(a, b, al)] = G.on2[(F.objects[a], F.objects[b], v)]
    return TwoFunctor(F.source, G.target, objects, on1, on2, check=False)


# ---------------------------------------------------------------------------
# the 2-categorical simplices
# ---------------------------------------------------------------------------

def _arrow(S: Iterable[int], T: Iterable[int]) -> Two:
    """The name ``S>T`` of the 2-cell S => T of :func:`delta_tilde`."""
    return f"{_digits(S)}>{_digits(T)}"


@lru_cache(maxsize=None)
def _subsets_between(i: int, j: int) -> dict[One, frozenset[int]]:
    """The 1-cells of ``hom(i, j)`` in :func:`delta_tilde`, in name order:
    the subsets of {i..j} that contain both endpoints, each under its name."""
    middle = range(i + 1, j)
    subsets = (frozenset({i, j, *(v for k, v in enumerate(middle) if mask >> k & 1)})
               for mask in range(1 << len(middle)))
    return dict(sorted((_digits(S), S) for S in subsets))


@lru_cache(maxsize=None)
def delta_tilde(n: int) -> Fin2Cat:
    """The 2-categorical n-simplex.

    Objects 0..n; ``hom(i, j)`` for ``i <= j`` is the poset of subsets of
    ``{i..j}`` containing both endpoints, ordered opposite to inclusion,
    with the arrow ``S>T`` from S to each subset T of it; every other hom
    is empty.  Horizontal composition is union of subsets.  Cells are named
    from their subsets (:func:`_subsets_between`, :func:`_arrow`), never parsed.

    Cached: all callers share one instance per ``n``, which also makes
    composition checks between the induced operators cheap.
    """
    if n < 0:
        raise DomainError(f"delta_tilde({n}): n must be >= 0")
    vertices = _standard_vertices(n)
    hom = {}
    for i in vertices:
        for j in vertices[i:]:
            subset = _subsets_between(i, j)
            hom[(str(i), str(j))] = _thin_category(
                subset, lambda S, T: subset[T] <= subset[S], lambda S, T: _arrow(subset[S], subset[T]))
    hcompose1 = {}
    hcompose2 = {}
    for i in vertices:
        for j in vertices[i:]:
            for k in vertices[j:]:
                a, b, c = str(i), str(j), str(k)
                H_ab, H_bc = hom[(a, b)], hom[(b, c)]
                ab, bc = _subsets_between(i, j), _subsets_between(j, k)
                for S in H_ab.objects:
                    for T in H_bc.objects:
                        hcompose1[(a, b, c, S, T)] = _digits(ab[S] | bc[T])
                for al in H_ab.arrows:
                    S1, S2 = ab[H_ab.src[al]], ab[H_ab.dst[al]]
                    for be in H_bc.arrows:
                        hcompose2[(a, b, c, al, be)] = _arrow(S1 | bc[H_bc.src[be]], S2 | bc[H_bc.dst[be]])
    return Fin2Cat(map(str, vertices), hom, hcompose1, hcompose2, {str(i): str(i) for i in vertices})


@lru_cache(maxsize=None)
def cosimplicial_operator(phi: Monotone, n: int) -> TwoFunctor:
    """The 2-functor ``delta_tilde(m) -> delta_tilde(n)`` induced by a
    monotone ``phi: [m] -> [n]`` (image of subsets on 1- and 2-cells).

    Cached like :func:`delta_tilde`: callers share one instance per
    ``(phi, n)`` and must not modify it.
    """
    if not is_monotone(phi):
        raise ContractError(f"{phi} is not monotone")
    if any(v < 0 or v > n for v in phi):
        raise DomainError(f"{phi} does not land in [{n}]")
    m = len(phi) - 1
    A, B = delta_tilde(m), delta_tilde(n)
    on1 = {}
    on2 = {}
    for i in range(m + 1):
        for j in range(i, m + 1):
            a, b = str(i), str(j)
            H = A.hom[(a, b)]
            image = {S: frozenset(phi[v] for v in subset) for S, subset in _subsets_between(i, j).items()}
            for S in H.objects:
                on1[(a, b, S)] = _digits(image[S])
            for al in H.arrows:
                on2[(a, b, al)] = _arrow(image[H.src[al]], image[H.dst[al]])
    return TwoFunctor(A, B, {str(i): str(v) for i, v in enumerate(phi)}, on1, on2, check=False)


def terminal_2category() -> Fin2Cat:
    # hom(*, *) is the terminal category on the 1-cell 1
    return Fin2Cat(
        ["*"],
        {("*", "*"): discrete_category(["1"])},
        {("*", "*", "*", "1", "1"): "1"},
        {("*", "*", "*", "id_1", "id_1"): "id_1"},
        {"*": "1"},
    )


# ---------------------------------------------------------------------------
# inclusion of categories and its left adjoint
# ---------------------------------------------------------------------------

def as_two_category(C: FinCat) -> Fin2Cat:
    """View a category as a 2-category with discrete hom-categories: only a
    pair of objects with arrows gets a hom of its own (the others share the
    empty one), and hcompose is read off one walk over composable arrows."""
    hom = {(a, b): discrete_category(C.hom(a, b)) for a in C.objects for b in C.objects if C.hom(a, b)}
    hcompose1 = {}
    hcompose2 = {}
    leaving = _by_source(C.arrows, C.src.__getitem__)
    for f in C.arrows:
        a, b = C.src[f], C.dst[f]
        for g in leaving[b]:
            c, gf = C.dst[g], C.compose[(g, f)]
            hcompose1[(a, b, c, f, g)] = gf
            hcompose2[(a, b, c, hom[(a, b)].identity[f], hom[(b, c)].identity[g])] = hom[(a, c)].identity[gf]
    return Fin2Cat(C.objects, hom, hcompose1, hcompose2, C.identity)


def as_two_functor(F: CatFunctor) -> TwoFunctor:
    A2, B2 = as_two_category(F.source), as_two_category(F.target)
    on1 = {}
    on2 = {}
    for f in F.source.arrows:
        a, b = F.source.src[f], F.source.dst[f]
        on1[(a, b, f)] = F.arrows[f]
        on2[(a, b, A2.hom[(a, b)].identity[f])] = B2.hom[(F.objects[a], F.objects[b])].identity[F.arrows[f]]
    return TwoFunctor(A2, B2, dict(F.objects), on1, on2, check=False)


def _hom_components(H: FinCat) -> dict[One, One]:
    """Map each 1-cell to the least 1-cell of its zig-zag component."""
    uf = _UnionFind(H.objects)
    for al in H.arrows:
        uf.union(H.src[al], H.dst[al])
    return {f: uf.find(f) for f in H.objects}


def _component_name(a: Obj, b: Obj, rep: One) -> str:
    """The name of the component arrow ``a -> b`` whose least 1-cell is ``rep``."""
    return f"[{a}>{b}:{rep}]"


def _component_category(C: Fin2Cat) -> tuple[
    FinCat, dict[str, tuple[Obj, Obj, One]], dict[tuple[Obj, Obj], dict[One, One]]
]:
    """:func:`component_category` with the data ``(a, b, rep)`` of each
    arrow and the component map of each hom."""
    comp = {(a, b): _hom_components(H) for (a, b), H in C.hom.items()}
    arrows = {
        _component_name(a, b, rep): (a, b, rep)
        for (a, b), m in comp.items() for rep in sorted(set(m.values()))
    }
    src = {name: a for name, (a, _, _) in arrows.items()}
    dst = {name: b for name, (_, b, _) in arrows.items()}
    leaving = _by_source(arrows.items(), lambda item: item[1][0])
    compose = {(n2, n1): _component_name(a, c, comp[(a, c)][C.hc1(a, b, c, r1, r2)])
               for n1, (a, b, r1) in arrows.items() for n2, (_, c, r2) in leaving.get(b, ())}
    identity = {a: _component_name(a, a, comp[(a, a)][C.unit[a]]) for a in C.objects}
    return FinCat(C.objects, arrows, src, dst, compose, identity), arrows, comp


def component_category(C: Fin2Cat) -> FinCat:
    """Collapse each hom-category to its set of connected components.

    This is the left adjoint to :func:`as_two_category`; composition is
    induced on components (well defined by functoriality of horizontal
    composition).
    """
    return _component_category(C)[0]


def component_functor(u: TwoFunctor) -> CatFunctor:
    """The functor between component categories induced by a 2-functor."""
    A, arrows_a, _ = _component_category(u.source)
    B, _, comp_b = _component_category(u.target)
    arrows = {}
    for name, (a, b, rep) in arrows_a.items():
        ua, ub = u.objects[a], u.objects[b]
        arrows[name] = _component_name(ua, ub, comp_b[(ua, ub)][u.on1[(a, b, rep)]])
    return CatFunctor(A, B, dict(u.objects), arrows, check=False)


def component_transpose(F: TwoFunctor) -> CatFunctor:
    """Transpose ``A -> as_two_category(D)`` to ``component_category(A) -> D``."""
    A, arrows_a, _ = _component_category(F.source)
    # the target of F must have discrete homs; its 1-cells are D's arrows
    D_objects = F.target.objects
    D_arrows = sorted({f for (_, _), H in F.target.hom.items() for f in H.objects})
    objects = dict(F.objects)
    arrows = {name: F.on1[(a, b, rep)] for name, (a, b, rep) in arrows_a.items()}
    # reconstruct D from the discrete-hom 2-category
    src = {}
    dst = {}
    compose = {}
    identity = {}
    for (a, b), H in F.target.hom.items():
        for f in H.objects:
            src[f] = a
            dst[f] = b
    for (a, b, c, f, g), h in F.target.hcompose1.items():
        compose[(g, f)] = h
    for a in D_objects:
        identity[a] = F.target.unit[a]
    D = FinCat(D_objects, D_arrows, src, dst, compose, identity)
    return CatFunctor(A, D, objects, arrows, check=False)


def inclusion_transpose(G: CatFunctor, A: Fin2Cat) -> TwoFunctor:
    """Transpose ``component_category(A) -> D`` to ``A -> as_two_category(D)``."""
    comp = {(a, b): _hom_components(H) for (a, b), H in A.hom.items()}
    D2 = as_two_category(G.target)
    objects = dict(G.objects)
    on1 = {}
    on2 = {}
    for (a, b), H in A.hom.items():
        for f in H.objects:
            on1[(a, b, f)] = G.arrows[_component_name(a, b, comp[(a, b)][f])]
        identity = D2.hom[(G.objects[a], G.objects[b])].identity
        for al in H.arrows:
            on2[(a, b, al)] = identity[on1[(a, b, H.src[al])]]
    return TwoFunctor(A, D2, objects, on1, on2, check=False)


# ---------------------------------------------------------------------------
# enumeration of strict 2-functors (constrained backtracking)
# ---------------------------------------------------------------------------

def _two_functor_problem(A: Fin2Cat, B: Fin2Cat) -> tuple:
    """Compile the search for strict 2-functors A -> B for the shared kernel.

    Branches on objects, then 1-cells, then 2-cells.  Unit 1-cells and
    identity 2-cells are forced; any other 1-cell ranges over its hom of B
    and any other 2-cell over the 2-cells parallel to it.  Every composite
    instance is a check filed under its last variable, so a composite
    placed after its parts is tested as soon as it is chosen.

    B must pass :func:`validate_2category`: an instance with a unit or
    identity part is not checked, since the laws of B make it hold.
    """
    ones: list[Key] = []
    for (a, b), H in sorted(A.hom.items()):
        for f in H.objects:
            if not (a == b and f == A.unit[a]):
                ones.append((1, a, b, f))

    # decompositions of 1-cells as horizontal composites
    one_decomp: dict[Key, list[tuple[Key, Key]]] = {v: [] for v in ones}
    for (a, b, c, f, g), h in A.hcompose1.items():
        key = (1, a, c, h)
        if key in one_decomp and (1, a, b, f) != key and (1, b, c, g) != key:
            one_decomp[key].append(((1, a, b, f), (1, b, c, g)))

    # Variable order: homs sorted by dependency rank (a hom holding composites
    # comes after the homs its parts live in), and inside a hom the
    # decomposable cells come before the others.  This order fixes the
    # enumeration order, which the tests pin.
    hom_rank: dict[tuple[Obj, Obj], int] = {key: 0 for key in A.hom}
    for _ in range(2 * len(A.hom) + 1):
        changed = False
        for v, decs in one_decomp.items():
            for (k1, k2) in decs:
                want = max(hom_rank[k1[1:3]], hom_rank[k2[1:3]]) + 1
                if hom_rank[v[1:3]] < want:
                    hom_rank[v[1:3]] = want
                    changed = True
        if not changed:
            break
    ones.sort(key=lambda v: (hom_rank[v[1:3]], v[1:3], 0 if one_decomp[v] else 1, v[3]))

    keys: list[Key] = [(0, a) for a in A.objects]
    keys += [(1, a, a, A.unit[a]) for a in A.objects]
    keys += ones
    keys += [(2, a, b, H.identity[f]) for (a, b), H in A.hom.items() for f in H.objects]
    keys += [(2, a, b, al) for (a, b), H in sorted(A.hom.items())
             for al in H.arrows if not H.is_identity(al)]
    index = {key: k for k, key in enumerate(keys)}
    obj = {a: index[(0, a)] for a in A.objects}
    units = {1: A.unit, 2: {a: A.hom[(a, a)].identity[u] for a, u in A.unit.items()}}

    # constraint instances, each filed under its last variable; those with
    # a unit or identity part hold by the laws of B
    homs_inhabited: dict[int, list[tuple[int, int]]] = {}
    one_rel: dict[int, set] = {}
    two_v: dict[int, list] = {}
    for (a, b), H in A.hom.items():
        if H.objects:
            homs_inhabited.setdefault(max(obj[a], obj[b]), []).append((obj[a], obj[b]))
        # hom-arrow compatibility: if hom_A has an arrow f -> g, the images must
        # admit an arrow in hom_B; prunes hard when hom_B is thin or discrete
        for al in H.arrows:
            if H.src[al] != H.dst[al]:
                i1, i2 = index[(1, a, b, H.src[al])], index[(1, a, b, H.dst[al])]
                one_rel.setdefault(max(i1, i2), set()).add((i1, i2, obj[a], obj[b]))
        for (be, al), ga in H.compose.items():
            if not (H.is_identity(al) or H.is_identity(be)):
                i1, i2, ig = index[(2, a, b, al)], index[(2, a, b, be)], index[(2, a, b, ga)]
                two_v.setdefault(max(i1, i2, ig), []).append((i1, i2, ig, obj[a], obj[b]))
    horizontal: dict[int, list] = {}
    for d, composites, hc in ((1, A.hcompose1, B.hcompose1), (2, A.hcompose2, B.hcompose2)):
        for (a, b, c, x, y), z in composites.items():
            if (a == b and x == units[d][a]) or (b == c and y == units[d][b]):
                continue
            i1, i2, iz = index[(d, a, b, x)], index[(d, b, c, y)], index[(d, a, c, z)]
            horizontal.setdefault(max(i1, i2, iz), []).append((hc, i1, i2, iz, obj[a], obj[b], obj[c]))

    def option(key: Key) -> Callable[[list], Sequence[str]]:
        if key[0] == 0:
            return lambda val: B.objects
        _, a, b, cell = key
        x, y, H = obj[a], obj[b], A.hom[(a, b)]
        if key[0] == 1 and a == b and cell == A.unit[a]:
            return lambda val: (B.unit[val[x]],)
        if key[0] == 1:
            return lambda val: B.hom[(val[x], val[y])].objects
        s, d = index[(1, a, b, H.src[cell])], index[(1, a, b, H.dst[cell])]
        if H.is_identity(cell):
            return lambda val: (B.hom[(val[x], val[y])].identity[val[s]],)
        return lambda val: B.hom[(val[x], val[y])].hom(val[s], val[d])

    def check(k: int) -> Optional[Callable[[list], bool]]:
        inhabited, h, rel, v2 = (c.get(k, ()) for c in (homs_inhabited, horizontal, one_rel, two_v))
        if not (inhabited or h or rel or v2):
            return None

        def holds(val: list) -> bool:
            for p, q in inhabited:
                if not B.hom[(val[p], val[q])].objects:
                    return False
            for hc, i1, i2, iz, p, q, r in h:
                if hc.get((val[p], val[q], val[r], val[i1], val[i2])) != val[iz]:
                    return False
            for i1, i2, p, q in rel:
                if not B.hom[(val[p], val[q])].hom(val[i1], val[i2]):
                    return False
            for i1, i2, ig, p, q in v2:
                if B.hom[(val[p], val[q])].compose.get((val[i2], val[i1])) != val[ig]:
                    return False
            return True
        return holds

    options = [option(key) for key in keys]
    checks = [check(k) for k in range(len(keys))]

    def tag(key: Key, value: str, val: list) -> Key:
        if key[0] == 0:
            return (0, value)
        return (key[0], val[obj[key[1]]], val[obj[key[2]]], value)

    names = [key[1] if key[0] == 0 else key[1:] for key in keys]

    def emit(val: list) -> TwoFunctor:
        parts: tuple[dict, dict, dict] = ({}, {}, {})
        for key, name, v in zip(keys, names, val):
            parts[key[0]][name] = v
        return TwoFunctor(A, B, *parts, check=False)

    return keys, options, checks, tag, emit


def enumerate_two_functors(A: Fin2Cat, B: Fin2Cat) -> Iterator[TwoFunctor]:
    """All strict 2-functors A -> B, deterministically ordered.

    B must pass :func:`validate_2category`; the search relies on its laws.
    """
    yield from _search(*_two_functor_problem(A, B))


def count_two_functors(A: Fin2Cat, B: Fin2Cat) -> int:
    return sum(1 for _ in enumerate_two_functors(A, B))


def find_2cat_iso(A: Fin2Cat, B: Fin2Cat) -> Optional[TwoFunctor]:
    """Search for a strict isomorphism of 2-categories."""
    if len(A.objects) != len(B.objects):
        return None
    sizes_a = sorted((len(H.objects), len(H.arrows)) for H in A.hom.values())
    sizes_b = sorted((len(H.objects), len(H.arrows)) for H in B.hom.values())
    if sizes_a != sizes_b:
        return None
    return next(_search(*_two_functor_problem(A, B), distinct=True), None)


# ---------------------------------------------------------------------------
# the geometric nerve
# ---------------------------------------------------------------------------

def geometric_nerve_cells(C: Fin2Cat, D: int) -> Singular:
    """Geometric nerve truncated at D, with the keys, writers and id -> image
    tuple table that name and read its cells.

    Level n holds all strict 2-functors ``delta_tilde(n) -> C``, each kept
    as its image tuple at the cell keys of ``delta_tilde(n)`` and named by
    its ``encode()``; operators act by precomposition with
    :func:`cosimplicial_operator`.  Levels up to 2 are found by the search
    of :func:`enumerate_two_functors`.  The nerve is 3-coskeletal (Street
    1987, "The algebra of oriented simplexes"; Duskin 2002, "Simplicial
    matrices and the nerves of weak n-categories I"): for n >= 3 a tuple of
    (n-1)-cells with matching faces is the boundary of at most one n-cell,
    and of exactly one when the two pastings of its top 2-cell agree, which
    always holds for n >= 4.  Levels from 3 on are built by joining the
    level below on shared faces (:func:`_coskeletal_level`).

    C must pass :func:`validate_2category`: the search files no check that
    the unit and identity laws of C make vacuous, and the join takes the
    cells that lie in no face to be composites in C.
    """
    def level(n: int, keys: tuple, named: dict, faces: dict) -> Iterable:
        if n < 3:
            return _images(_two_functor_problem(delta_tilde(n), C), keys)
        return _coskeletal_level(C, n, named, faces)
    return _singular(D, level, cosimplicial_operator, _name_template)


def geometric_nerve(C: Fin2Cat, D: int) -> SimplicialSet:
    return geometric_nerve_cells(C, D).space


@lru_cache(maxsize=None)
def _name_template(keys: tuple[Key, ...]) -> tuple[str, ...]:
    """The ``encode()`` of a 2-functor whose ``assignments()`` lists these
    source keys, as the literal pieces around its images: the objects, the
    1-cells and the 2-cells, comma-separated, with ``/`` between them."""
    pieces, dim = [], 0
    for k, key in enumerate(keys):
        pieces.append(("," if k and key[0] == dim else "/" * (key[0] - dim)) + "!".join(key[1:]) + ">")
        dim = key[0]
    return (*pieces, "/" * (2 - dim))


@lru_cache(maxsize=None)
def _join_plan(n: int) -> tuple:
    """How an n-cell of a geometric nerve (n >= 3) is read off its faces.

    Concatenate the image tuples of the faces ``x_0 .. x_n`` and append the
    fills below; ``pick`` then takes the n-cell's image tuple from that.  A
    cell of ``delta_tilde(n)`` missing a vertex v is read from ``x_v``.  The
    cells on all of {0..n} lie in no face; each is one composite in C:

    * the 1-cell {0..n} is ``hc1({0,1}, {1..n})``;
    * a 2-cell {0..n} => T where T has an interior vertex m is ``hc2``
      of its restrictions to {0..m} and {m..n} (m the least such vertex);
    * {0..n} => {0,n} is the vertical composite of {0..n} => {0,1,n} and
      {0,1,n} => {0,n}; it must equal the other pasting, of
      {0..n} => {0,n-1,n} and {0,n-1,n} => {0,n}.

    ``one`` and ``splits`` hold the positions of the composed parts in the
    concatenation; ``vertical`` the positions of the objects of the last
    composite, then for each pasting the position of its second part and
    the place of its first part among the splits.
    """
    keys, below = ([s for s, _ in cosimplicial_operator(tuple(range(m + 1)), m).assignments()]
                   for m in (n, n - 1))
    lower = {key: k for k, key in enumerate(below)}
    # the position of each cell that misses a vertex, read from the face
    # at the least vertex it misses
    at: dict[Key, int] = {}
    for v in range(n + 1):
        for key, image in cosimplicial_operator(coface(n, v), n).assignments():
            at.setdefault(image, v * len(lower) + lower[key])

    full = range(n + 1)
    last = str(n)
    o0, on = at[(0, "0")], at[(0, last)]
    one = (o0, at[(0, "1")], on, at[(1, "0", "1", _digits(full[:2]))], at[(1, "1", last, _digits(full[1:]))])
    fills = {(1, "0", last, _digits(full)): 0}
    splits = []
    for T in _subsets_between(0, n).values():
        if len(T) == 2:
            continue
        m = min(T - {0})
        fills[(2, "0", last, _arrow(full, T))] = len(fills)
        splits.append((o0, at[(0, str(m))], on, at[(2, "0", str(m), _arrow(full[:m + 1], T & set(full[:m + 1])))],
                       at[(2, str(m), last, _arrow(full[m:], T & set(full[m:])))]))

    def pasting(via: tuple[int, ...]) -> tuple[int, int]:
        return at[(2, "0", last, _arrow(via, (0, n)))], fills[(2, "0", last, _arrow(full, via))] - 1
    vertical = (o0, on, *pasting((0, 1, n)), *pasting((0, n - 1, n)))
    fills[(2, "0", last, _arrow(full, (0, n)))] = len(fills)
    base = (n + 1) * len(lower)
    pick = itemgetter(*(base + fills[key] if key in fills else at[key] for key in keys))
    return pick, one, splits, vertical


def _coskeletal_level(C: Fin2Cat, n: int, named: dict, faces: dict) -> Iterator[tuple]:
    """Level n >= 3 of the geometric nerve of C, from level n-1 given as
    in :func:`_singular`: one cell per tuple ``(x_0 .. x_n)`` of
    (n-1)-cells with ``d_i x_j = d_{j-1} x_i`` for ``i < j`` on which the
    two pastings of the top 2-cell agree; its faces are that tuple.  The
    tuples come from the shared kernel (:func:`_matching_problem`), and
    the pasting test filters them, so its composites are computed once
    per tuple.  Requires C to pass :func:`validate_2category`."""
    pick, one, splits, vertical = _join_plan(n)
    image_of = {cid: image for image, cid in named.items()}
    hc1, hc2, hom = C.hcompose1, C.hcompose2, C.hom
    o0, o1, on, f01, f1n = one
    z0, zn, via, first, via2, second = vertical
    for xs in _search(*_matching_problem(n, faces)):
        c = tuple(chain.from_iterable(map(image_of.__getitem__, xs)))
        twos = [hc2[(c[a], c[m], c[b], c[x], c[y])] for a, m, b, x, y in splits]
        compose = hom[(c[z0], c[zn])].compose
        top = compose[(c[via], twos[first])]
        if compose[(c[via2], twos[second])] != top:
            continue
        c += (hc1[(c[o0], c[o1], c[on], c[f01], c[f1n])], *twos, top)
        yield pick(c), xs


def _matching_problem(n: int, faces: dict[str, tuple[str, ...]]) -> tuple:
    """Compile the search for every tuple ``(x_0 .. x_n)`` of cells with
    ``d_i x_j = d_{j-1} x_i`` for ``i < j``, given each cell's faces, for
    :func:`_search`.  ``x_0`` ranges over all cells, ``x_1`` over those
    whose first face is ``d_0 x_0`` and ``x_j`` over those whose first two
    faces are ``d_{j-1} x_0, d_{j-1} x_1``; the check at ``x_j`` compares
    its faces 2..j-1."""
    by_first: dict[str, list[str]] = {}
    by_first_two: dict[tuple[str, str], list[str]] = {}
    for x, fx in faces.items():
        by_first.setdefault(fx[0], []).append(x)
        by_first_two.setdefault(fx[:2], []).append(x)

    def after_two(j: int) -> Callable[[list], Sequence[str]]:
        return lambda val: by_first_two.get((faces[val[0]][j - 1], faces[val[1]][j - 1]), ())

    def matching(j: int) -> Callable[[list], bool]:
        def check(val: list) -> bool:
            fx = faces[val[j]]
            return all(fx[i] == faces[val[i]][j - 1] for i in range(2, j))
        return check

    keys = tuple((n - 1, j) for j in range(n + 1))
    options = [lambda val: faces, lambda val: by_first.get(faces[val[0]][0], ())]
    options += [after_two(j) for j in range(2, n + 1)]
    checks = [None, None, None] + [matching(j) for j in range(3, n + 1)]
    return keys, options, checks, _dimension_tag, tuple


def geometric_nerve_functor(u: TwoFunctor, D: int) -> SimplicialMap:
    """The simplicial map of geometric nerves induced by a 2-functor
    (postcomposition with u on each cell).  Up to level 2, a 1- or 2-cell
    of ``delta_tilde(n)`` between a and b maps through u's hom at the
    images of a and b; from level 3 on, where the nerve is 3-coskeletal, a
    cell goes to the target cell whose faces are the images of its faces."""
    on = (u.objects, u.on1, u.on2)
    return _postcompose(geometric_nerve_cells(u.source, D), geometric_nerve_cells(u.target, D),
                        lambda key: (on[key[0]], ((0, key[1]), (0, key[2]), key) if key[0] else (key,)), 3)


# ---------------------------------------------------------------------------
# slices and final objects
# ---------------------------------------------------------------------------

def object_admits_final(C: Fin2Cat, z: Obj) -> tuple[bool, dict[Obj, Optional[One]]]:
    """Does every hom-category into ``z`` have a final object?

    Returns the verdict and the per-object witness (the final 1-cell of
    ``hom(a, z)``, or None where none exists).
    """
    if z not in set(C.objects):
        raise DomainError(f"object {z!r} not in the 2-category")
    witnesses: dict[Obj, Optional[One]] = {}
    ok = True
    for a in C.objects:
        w = has_final_object(C.hom[(a, z)])
        witnesses[a] = w
        if w is None:
            ok = False
    return ok, witnesses


def _slice_two_name(be: Two, al: Two, al2: Two) -> Two:
    """The name of a 2-cell ``beta: (g, alpha) -> (g', alpha')`` of a slice."""
    return f"[{be}|{al}|{al2}]"


def _slice_2category(v: TwoFunctor, c: Obj) -> tuple[
    Fin2Cat,
    dict[Obj, tuple[Obj, One]],
    dict[tuple[Obj, Obj], dict[One, tuple[One, Two]]],
    dict[tuple[Obj, Obj], dict[Two, tuple[Two, Two, Two]]],
]:
    """:func:`slice_2category` with each cell's data: ``(a, f)`` per object,
    and per hom over a hom of A with a 1-cell (the others are the empty hom),
    built by :func:`~nervelab.cat._slice_category` of its whiskering,
    ``(g, alpha)`` per 1-cell and ``(beta, alpha, alpha')`` per 2-cell."""
    A, C = v.source, v.target
    if c not in set(C.objects):
        raise DomainError(f"object {c!r} not in the target 2-category")
    vo = v.objects
    objects = _slice_objects(v, lambda x: C.hom[(x, c)].objects)
    ones: dict[tuple[Obj, Obj], dict[One, tuple[One, Two]]] = {}
    twos: dict[tuple[Obj, Obj], dict[Two, tuple[Two, Two, Two]]] = {}
    hom = {}
    over = _by_source(objects.items(), lambda item: item[1][0])
    for o1, (a1, f1) in objects.items():
        for a2 in A._reach[a1]:
            for o2, (_, f2) in over.get(a2, ()):
                H_a, va1, va2 = A.hom[(a1, a2)], vo[a1], vo[a2]
                idf2 = C.hom[(va2, c)].identity[f2]
                whisker = CatFunctor(H_a, C.hom[(va1, c)],
                                     {g: C.hc1(va1, va2, c, v.on1[(a1, a2, g)], f2) for g in H_a.objects},
                                     {be: C.hc2(va1, va2, c, v.on2[(a1, a2, be)], idf2) for be in H_a.arrows},
                                     check=False)
                hom[(o1, o2)], ones[(o1, o2)], twos[(o1, o2)] = _slice_category(whisker, f1, _slice_two_name)

    hcompose1 = {}
    hcompose2 = {}
    leaving = _by_source(ones, itemgetter(0))
    for o1, o2 in ones:
        (a1, _), (a2, _) = objects[o1], objects[o2]
        H_c, H_12 = C.hom[(vo[a1], c)], hom[(o1, o2)]
        for _, o3 in leaving.get(o2, ()):
            a3, H_23 = objects[o3][0], hom[(o2, o3)]
            for x, (g, al) in ones[(o1, o2)].items():
                idvg = C.hom[(vo[a1], vo[a2])].identity[v.on1[(a1, a2, g)]]
                for y, (h, ga) in ones[(o2, o3)].items():
                    paste = H_c.compose[(al, C.hc2(vo[a1], vo[a2], c, idvg, ga))]
                    hcompose1[(o1, o2, o3, x, y)] = _slice_name(A.hc1(a1, a2, a3, g, h), paste)
            pasted = ones[(o1, o3)]
            for n1, (be1, _, _) in twos[(o1, o2)].items():
                for n2, (be2, _, _) in twos[(o2, o3)].items():
                    s = hcompose1[(o1, o2, o3, H_12.src[n1], H_23.src[n2])]
                    d = hcompose1[(o1, o2, o3, H_12.dst[n1], H_23.dst[n2])]
                    hcompose2[(o1, o2, o3, n1, n2)] = _slice_two_name(
                        A.hc2(a1, a2, a3, be1, be2), pasted[s][1], pasted[d][1]
                    )
    unit = {o: _slice_name(A.unit[a], C.hom[(vo[a], c)].identity[f]) for o, (a, f) in objects.items()}
    return Fin2Cat(objects, hom, hcompose1, hcompose2, unit), objects, ones, twos


def slice_2category(v: TwoFunctor, c: Obj) -> Fin2Cat:
    """The 2-categorical slice of ``v: A -> C`` over the object ``c``.

    Objects: pairs ``(a, f: v(a) -> c)``.  The hom from ``(a, f)`` to
    ``(a', f')`` is the comma category of the whiskering ``W = f' * v(-):
    hom(a, a') -> hom(v(a), c)`` over ``f``, as :func:`~nervelab.cat.slice_category`
    builds it: 1-cells ``(g: a -> a', alpha: W(g) -> f)``, where ``W(g)``
    is ``hc1(v(g), f')``, and 2-cells ``beta: g -> g'`` of A with
    ``alpha' . W(beta) = alpha``, composed vertically as in A.

    Horizontal composition (the fixed pasting conventions):

    * composite of ``(g, alpha): (a,f) -> (a',f')`` and
      ``(h, gamma): (a',f') -> (a'',f'')`` is
      ``(h . g, alpha o (gamma * id_{v(g)}))``, i.e. whisker gamma by v(g)
      on the left, then paste with alpha;
    * horizontal composition of 2-cells is horizontal composition in A.
    """
    return _slice_2category(v, c)[0]


def slice_2functor(
    u: TwoFunctor, p: TwoFunctor, q: TwoFunctor, c: Obj
) -> TwoFunctor:
    """For a commuting triangle ``q . u = p`` of 2-functors over C, the
    induced 2-functor between the slices over ``c``.

    Each cell of the slice of p is mapped through u from the data it was
    made of."""
    if compose_two_functors(q, u) != p:
        raise ContractError("triangle does not commute: q . u != p")
    S_a, objects, ones, twos = _slice_2category(p, c)
    S_b, images, _, _ = _slice_2category(q, c)
    named = {data: o for o, data in images.items()}
    on1 = {}
    on2 = {}
    for (o1, o2), cells in ones.items():
        a1, a2 = objects[o1][0], objects[o2][0]
        for x, (g, al) in cells.items():
            on1[(o1, o2, x)] = _slice_name(u.on1[(a1, a2, g)], al)
        for n, (be, al, al2) in twos[(o1, o2)].items():
            on2[(o1, o2, n)] = _slice_two_name(u.on2[(a1, a2, be)], al, al2)
    return TwoFunctor(S_a, S_b, {o: named[(u.objects[a], f)] for o, (a, f) in objects.items()}, on1, on2,
                      check=False)


def two_functor_to_terminal(C: Fin2Cat) -> TwoFunctor:
    T = terminal_2category()
    objects = {a: "*" for a in C.objects}
    on1 = {(a, b, f): "1" for (a, b), H in C.hom.items() for f in H.objects}
    on2 = {(a, b, al): "id_1" for (a, b), H in C.hom.items() for al in H.arrows}
    return TwoFunctor(C, T, objects, on1, on2, check=False)
