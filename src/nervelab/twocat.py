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
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from .cat import CatFunctor, FinCat, _claim, _slice_name, discrete_category, has_final_object, validate_category
from .errors import ContractError, DomainError
from .simplicial import (
    Key,
    Monotone,
    SimplicialMap,
    SimplicialSet,
    _escaped,
    _listed,
    _search,
    _singular,
    _UnionFind,
    is_monotone,
)

Obj = str
One = str  # a 1-cell (an object of a hom-category)
Two = str  # a 2-cell (an arrow of a hom-category)


class Fin2Cat:
    __slots__ = ("objects", "hom", "hcompose1", "hcompose2", "unit")

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
        for a in self.objects:
            for b in self.objects:
                self.hom.setdefault((a, b), FinCat([], [], {}, {}, {}, {}))
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
    """Exhaustive check of the strict 2-category axioms."""
    out = []
    objs = C.objects
    for (a, b), H in C.hom.items():
        if a not in set(objs) or b not in set(objs):
            out.append(f"hom({a!r}, {b!r}) indexed by foreign objects")
            continue
        for msg in validate_category(H):
            out.append(f"hom({a!r}, {b!r}): {msg}")
    if out:
        return out  # the checks below assume every hom is a category
    for a in objs:
        u = C.unit.get(a)
        if u is None or u not in set(C.hom[(a, a)].objects):
            out.append(f"unit of {a!r} missing from hom({a!r}, {a!r})")

    def hc1(a, b, c, f, g):
        return C.hcompose1.get((a, b, c, f, g))

    # totality and typing of horizontal composition
    for a in objs:
        for b in objs:
            for c in objs:
                H_ab, H_bc, H_ac = C.hom[(a, b)], C.hom[(b, c)], C.hom[(a, c)]
                for f in H_ab.objects:
                    for g in H_bc.objects:
                        h = hc1(a, b, c, f, g)
                        if h is None or h not in set(H_ac.objects):
                            out.append(f"hcompose1 missing/foreign on ({a},{b},{c},{f},{g})")
                for al in H_ab.arrows:
                    for be in H_bc.arrows:
                        ga = C.hcompose2.get((a, b, c, al, be))
                        if ga is None or ga not in set(H_ac.arrows):
                            out.append(f"hcompose2 missing/foreign on ({a},{b},{c},{al},{be})")
                            continue
                        want_src = hc1(a, b, c, H_ab.src[al], H_bc.src[be])
                        want_dst = hc1(a, b, c, H_ab.dst[al], H_bc.dst[be])
                        if H_ac.src[ga] != want_src or H_ac.dst[ga] != want_dst:
                            out.append(f"hcompose2 endpoints wrong on ({a},{b},{c},{al},{be})")

    # functoriality of horizontal composition (identities and interchange)
    for a in objs:
        for b in objs:
            for c in objs:
                H_ab, H_bc, H_ac = C.hom[(a, b)], C.hom[(b, c)], C.hom[(a, c)]
                for f in H_ab.objects:
                    for g in H_bc.objects:
                        got = C.hcompose2.get((a, b, c, H_ab.identity[f], H_bc.identity[g]))
                        want = H_ac.identity.get(hc1(a, b, c, f, g) or "")
                        if got != want:
                            out.append(f"hcompose2 of identities wrong at ({a},{b},{c},{f},{g})")
                for al in H_ab.arrows:
                    for al2 in H_ab.arrows:
                        if H_ab.dst[al] != H_ab.src[al2]:
                            continue
                        for be in H_bc.arrows:
                            for be2 in H_bc.arrows:
                                if H_bc.dst[be] != H_bc.src[be2]:
                                    continue
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

    # associativity of horizontal composition
    for a in objs:
        for b in objs:
            for c in objs:
                for d in objs:
                    for f in C.hom[(a, b)].objects:
                        for g in C.hom[(b, c)].objects:
                            for h in C.hom[(c, d)].objects:
                                lhs = hc1(a, c, d, hc1(a, b, c, f, g) or "", h)
                                rhs = hc1(a, b, d, f, hc1(b, c, d, g, h) or "")
                                if lhs is None or lhs != rhs:
                                    out.append(f"hcompose1 not associative on ({f},{g},{h})")
                    for al in C.hom[(a, b)].arrows:
                        for be in C.hom[(b, c)].arrows:
                            for ga in C.hom[(c, d)].arrows:
                                x = C.hcompose2.get((a, b, c, al, be))
                                lhs = C.hcompose2.get((a, c, d, x or "", ga))
                                y = C.hcompose2.get((b, c, d, be, ga))
                                rhs = C.hcompose2.get((a, b, d, al, y or ""))
                                if lhs is None or lhs != rhs:
                                    out.append(f"hcompose2 not associative on ({al},{be},{ga})")

    # unit laws
    for a in objs:
        for b in objs:
            H = C.hom[(a, b)]
            ua, ub = C.unit.get(a), C.unit.get(b)
            if ua is None or ub is None:
                continue
            for f in H.objects:
                if hc1(a, a, b, ua, f) != f:
                    out.append(f"left unit law fails on 1-cell {f!r} in hom({a},{b})")
                if hc1(a, b, b, f, ub) != f:
                    out.append(f"right unit law fails on 1-cell {f!r} in hom({a},{b})")
            iua = C.hom[(a, a)].identity.get(ua)
            iub = C.hom[(b, b)].identity.get(ub)
            for al in H.arrows:
                if C.hcompose2.get((a, a, b, iua or "", al)) != al:
                    out.append(f"left unit law fails on 2-cell {al!r} in hom({a},{b})")
                if C.hcompose2.get((a, b, b, al, iub or "")) != al:
                    out.append(f"right unit law fails on 2-cell {al!r} in hom({a},{b})")
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

    def on_obj(self, a: Obj) -> Obj:
        return self.objects[a]

    def one(self, a: Obj, b: Obj, f: One) -> One:
        return self.on1[(a, b, f)]

    def two(self, a: Obj, b: Obj, al: Two) -> Two:
        return self.on2[(a, b, al)]

    def encode(self) -> str:
        o = ",".join(f"{a}>{b}" for a, b in self.objects.items())
        c1 = ",".join(f"{a}!{b}!{f}>{v}" for (a, b, f), v in self.on1.items())
        c2 = ",".join(f"{a}!{b}!{t}>{v}" for (a, b, t), v in self.on2.items())
        return o + "/" + c1 + "/" + c2

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
    out = []
    A, B = F.source, F.target
    for a in A.objects:
        if F.objects.get(a) not in set(B.objects):
            out.append(f"object {a!r} unassigned or foreign")
    for (a, b), H in A.hom.items():
        fa, fb = F.objects.get(a), F.objects.get(b)
        K = B.hom.get((fa, fb))
        if K is None:
            if H.objects:
                out.append(f"hom({a},{b}) has no image hom")
            continue
        for f in H.objects:
            v = F.on1.get((a, b, f))
            if v is None or v not in set(K.objects):
                out.append(f"1-cell ({a},{b},{f}) unassigned or foreign")
        for al in H.arrows:
            v = F.on2.get((a, b, al))
            if v is None or v not in set(K.arrows):
                out.append(f"2-cell ({a},{b},{al}) unassigned or foreign")
                continue
            if K.src[v] != F.on1.get((a, b, H.src[al])) or K.dst[v] != F.on1.get((a, b, H.dst[al])):
                out.append(f"2-cell ({a},{b},{al}) image has wrong endpoints")
        for f in H.objects:
            if F.on2.get((a, b, H.identity[f])) != K.identity.get(F.on1.get((a, b, f), "")):
                out.append(f"identity 2-cell of ({a},{b},{f}) not preserved")
        for al in H.arrows:
            for be in H.arrows:
                if H.dst[al] != H.src[be]:
                    continue
                lhs = F.on2.get((a, b, H.compose[(be, al)]))
                rhs = K.compose.get((F.on2.get((a, b, be), ""), F.on2.get((a, b, al), "")))
                if lhs is None or lhs != rhs:
                    out.append(f"vertical composition not preserved in hom({a},{b})")
    for a in A.objects:
        if F.on1.get((a, a, A.unit[a])) != B.unit.get(F.objects.get(a, "")):
            out.append(f"unit 1-cell of {a!r} not preserved")
    for a in A.objects:
        for b in A.objects:
            for c in A.objects:
                fa, fb, fc = (F.objects.get(x) for x in (a, b, c))
                for f in A.hom[(a, b)].objects:
                    for g in A.hom[(b, c)].objects:
                        lhs = F.on1.get((a, c, A.hc1(a, b, c, f, g)))
                        rhs = B.hcompose1.get(
                            (fa, fb, fc, F.on1.get((a, b, f), ""), F.on1.get((b, c, g), ""))
                        )
                        if lhs is None or lhs != rhs:
                            out.append(f"hcompose1 not preserved on ({a},{b},{c},{f},{g})")
                for al in A.hom[(a, b)].arrows:
                    for be in A.hom[(b, c)].arrows:
                        lhs = F.on2.get((a, c, A.hc2(a, b, c, al, be)))
                        rhs = B.hcompose2.get(
                            (fa, fb, fc, F.on2.get((a, b, al), ""), F.on2.get((b, c, be), ""))
                        )
                        if lhs is None or lhs != rhs:
                            out.append(f"hcompose2 not preserved on ({a},{b},{c},{al},{be})")
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

def _subset_id(s: Iterable[int]) -> str:
    return "".join(str(v) for v in sorted(set(s)))


def _subsets_between(i: int, j: int) -> list[str]:
    """Admissible subsets of {i..j}: contain both endpoints."""
    middle = list(range(i + 1, j))
    out = []
    for mask in range(1 << len(middle)):
        s = {i, j} | {middle[k] for k in range(len(middle)) if mask >> k & 1}
        out.append(_subset_id(s))
    return sorted(out)


def _poset_of_subsets(subsets: list[str]) -> FinCat:
    """Objects the given subsets; an arrow S -> T whenever T is a subset of S
    (the order opposite to inclusion)."""
    arrows = {}
    src = {}
    dst = {}
    for S in subsets:
        for T in subsets:
            if set(T) <= set(S):
                name = f"{S}>{T}"
                arrows[(S, T)] = name
                src[name] = S
                dst[name] = T
    compose = {}
    for (S, T), f in arrows.items():
        for (T2, U), g in arrows.items():
            if T == T2:
                compose[(g, f)] = arrows[(S, U)]
    identity = {S: arrows[(S, S)] for S in subsets}
    return FinCat(subsets, arrows.values(), src, dst, compose, identity)


@lru_cache(maxsize=None)
def delta_tilde(n: int) -> Fin2Cat:
    """The 2-categorical n-simplex.

    Objects 0..n; ``hom(i, j)`` for ``i <= j`` is the poset of subsets of
    ``{i..j}`` containing both endpoints, ordered opposite to inclusion;
    horizontal composition is union of subsets.

    Cached: all callers share one instance per ``n``, which also makes
    composition checks between the induced operators cheap.
    """
    if n > 9:
        raise DomainError("objects are encoded as digits; n <= 9 required")
    objects = [str(i) for i in range(n + 1)]
    hom = {}
    for i in range(n + 1):
        for j in range(n + 1):
            if i <= j:
                hom[(str(i), str(j))] = _poset_of_subsets(_subsets_between(i, j))
            else:
                hom[(str(i), str(j))] = FinCat([], [], {}, {}, {}, {})
    hcompose1 = {}
    hcompose2 = {}
    for i in range(n + 1):
        for j in range(i, n + 1):
            for k in range(j, n + 1):
                a, b, c = str(i), str(j), str(k)
                H_ab, H_bc = hom[(a, b)], hom[(b, c)]
                for S in H_ab.objects:
                    for T in H_bc.objects:
                        hcompose1[(a, b, c, S, T)] = _subset_id(set(S) | set(T))
                for al in H_ab.arrows:
                    S1, S2 = H_ab.src[al], H_ab.dst[al]
                    for be in H_bc.arrows:
                        T1, T2 = H_bc.src[be], H_bc.dst[be]
                        hcompose2[(a, b, c, al, be)] = (
                            f"{_subset_id(set(S1) | set(T1))}>{_subset_id(set(S2) | set(T2))}"
                        )
    unit = {str(i): str(i) for i in range(n + 1)}
    return Fin2Cat(objects, hom, hcompose1, hcompose2, unit)


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
    A = delta_tilde(m)
    B = delta_tilde(n)
    objects = {str(i): str(phi[i]) for i in range(m + 1)}

    def image(S: str) -> str:
        return _subset_id(phi[int(ch)] for ch in S)

    on1 = {}
    on2 = {}
    for (a, b), H in A.hom.items():
        for S in H.objects:
            on1[(a, b, S)] = image(S)
        for al in H.arrows:
            on2[(a, b, al)] = f"{image(H.src[al])}>{image(H.dst[al])}"
    return TwoFunctor(A, B, objects, on1, on2, check=False)


def terminal_2category() -> Fin2Cat:
    # hom(*, *) is the terminal category
    H = FinCat(["1"], ["id_1"], {"id_1": "1"}, {"id_1": "1"}, {("id_1", "id_1"): "id_1"}, {"1": "id_1"})
    return Fin2Cat(
        ["*"],
        {("*", "*"): H},
        {("*", "*", "*", "1", "1"): "1"},
        {("*", "*", "*", "id_1", "id_1"): "id_1"},
        {"*": "1"},
    )


# ---------------------------------------------------------------------------
# inclusion of categories and its left adjoint
# ---------------------------------------------------------------------------

def as_two_category(C: FinCat) -> Fin2Cat:
    """View a category as a 2-category with discrete hom-categories."""
    hom = {}
    for a in C.objects:
        for b in C.objects:
            hom[(a, b)] = discrete_category(C.hom(a, b))
    hcompose1 = {}
    hcompose2 = {}
    for a in C.objects:
        for b in C.objects:
            for c in C.objects:
                for f in C.hom(a, b):
                    for g in C.hom(b, c):
                        gf = C.compose[(g, f)]
                        hcompose1[(a, b, c, f, g)] = gf
                        hcompose2[(a, b, c, f"id_{f}", f"id_{g}")] = f"id_{gf}"
    unit = {a: C.identity[a] for a in C.objects}
    return Fin2Cat(C.objects, hom, hcompose1, hcompose2, unit)


def as_two_functor(F: CatFunctor) -> TwoFunctor:
    A2, B2 = as_two_category(F.source), as_two_category(F.target)
    on1 = {}
    on2 = {}
    for f in F.source.arrows:
        a, b = F.source.src[f], F.source.dst[f]
        on1[(a, b, f)] = F.arrows[f]
        on2[(a, b, f"id_{f}")] = f"id_{F.arrows[f]}"
    return TwoFunctor(A2, B2, dict(F.objects), on1, on2, check=False)


def _hom_components(H: FinCat) -> dict[One, One]:
    """Map each 1-cell to the least 1-cell of its zig-zag component."""
    uf = _UnionFind()
    for f in H.objects:
        uf.add(f)
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
    compose = {}
    for n1, (a, b, r1) in arrows.items():
        for n2, (b2, c, r2) in arrows.items():
            if b == b2:
                compose[(n2, n1)] = _component_name(a, c, comp[(a, c)][C.hc1(a, b, c, r1, r2)])
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
        for al in H.arrows:
            on2[(a, b, al)] = f"id_{on1[(a, b, H.src[al])]}"
    return TwoFunctor(A, D2, objects, on1, on2, check=False)


# ---------------------------------------------------------------------------
# enumeration of strict 2-functors (constrained backtracking)
# ---------------------------------------------------------------------------

def _two_functor_problem(A: Fin2Cat, B: Fin2Cat) -> tuple:
    """Compile the search for strict 2-functors A -> B for the shared kernel.

    Branches on objects, then 1-cells, then 2-cells.  Unit 1-cells and
    identity 2-cells are forced, and so is any cell expressible as a
    horizontal or vertical composite of cells placed before it, which keeps
    the search shallow on simplex-shaped sources.

    B must pass :func:`validate_2category`: a composite instance is not
    checked when the unit and identity laws of B or the forcing of its
    composite from the same parts already make it hold.
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
    # comes after the homs its parts live in), and inside a hom the forced
    # (decomposable) cells come before the freely branched ones.  Free
    # branches are then checked immediately against already-forced composites.
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

    # decompositions of 2-cells: vertical and horizontal
    two_decomp_v: dict[Key, list[tuple[Key, Key]]] = {}
    for (a, b), H in A.hom.items():
        for (be, al), ga in H.compose.items():
            if al != ga and be != ga:
                two_decomp_v.setdefault((2, a, b, ga), []).append(((2, a, b, al), (2, a, b, be)))
    two_decomp_h: dict[Key, list[tuple[Key, Key]]] = {}
    for (a, b, c, al, be), ga in A.hcompose2.items():
        key = (2, a, c, ga)
        if (2, a, b, al) != key and (2, b, c, be) != key:
            two_decomp_h.setdefault(key, []).append(((2, a, b, al), (2, b, c, be)))

    keys: list[Key] = [(0, a) for a in A.objects]
    keys += [(1, a, a, A.unit[a]) for a in A.objects]
    keys += ones
    keys += [(2, a, b, H.identity[f]) for (a, b), H in A.hom.items() for f in H.objects]
    keys += [(2, a, b, al) for (a, b), H in sorted(A.hom.items())
             for al in H.arrows if not H.is_identity(al)]
    index = {key: k for k, key in enumerate(keys)}
    obj = {a: index[(0, a)] for a in A.objects}

    def placed(k1: Key, k2: Key, k: int) -> bool:
        return index[k1] < k and index[k2] < k

    # (part, part, composite) instances whose composite is forced from
    # exactly these parts: the options guarantee them, so they are not checked
    forced = {(k1, k2, key) for key, decs in one_decomp.items()
              for k1, k2 in decs if placed(k1, k2, index[key])}
    forced |= {(k1, k2, key) for decomp in (two_decomp_v, two_decomp_h) for key, decs in decomp.items()
               if not A.hom[key[1:3]].is_identity(key[3])
               for k1, k2 in decs if placed(k1, k2, index[key])}
    unit_identity = {a: A.hom[(a, a)].identity[A.unit[a]] for a in A.objects}

    # constraint instances, each filed under its last variable; those with
    # a unit or identity part hold by the laws of B
    homs_inhabited: dict[int, list[tuple[int, int]]] = {}
    for (a, b), H in A.hom.items():
        if H.objects:
            homs_inhabited.setdefault(max(obj[a], obj[b]), []).append((obj[a], obj[b]))
    one_h: dict[int, list] = {}
    for (a, b, c, f, g), h in A.hcompose1.items():
        k1, k2, kh = (1, a, b, f), (1, b, c, g), (1, a, c, h)
        if (a == b and f == A.unit[a]) or (b == c and g == A.unit[b]) or (k1, k2, kh) in forced:
            continue
        i1, i2, ih = index[k1], index[k2], index[kh]
        one_h.setdefault(max(i1, i2, ih), []).append((i1, i2, ih, obj[a], obj[b], obj[c]))
    # hom-arrow compatibility: if hom_A has an arrow f -> g, the images must
    # admit an arrow in hom_B; prunes hard when hom_B is thin or discrete
    one_rel: dict[int, set] = {}
    for (a, b), H in A.hom.items():
        for al in H.arrows:
            if H.src[al] != H.dst[al]:
                i1, i2 = index[(1, a, b, H.src[al])], index[(1, a, b, H.dst[al])]
                one_rel.setdefault(max(i1, i2), set()).add((i1, i2, obj[a], obj[b]))
    two_v: dict[int, list] = {}
    for (a, b), H in A.hom.items():
        for (be, al), ga in H.compose.items():
            k1, k2, kg = (2, a, b, al), (2, a, b, be), (2, a, b, ga)
            if H.is_identity(al) or H.is_identity(be) or (k1, k2, kg) in forced:
                continue
            i1, i2, ig = index[k1], index[k2], index[kg]
            two_v.setdefault(max(i1, i2, ig), []).append((i1, i2, ig, obj[a], obj[b]))
    two_h: dict[int, list] = {}
    for (a, b, c, al, be), ga in A.hcompose2.items():
        k1, k2, kg = (2, a, b, al), (2, b, c, be), (2, a, c, ga)
        if (a == b and al == unit_identity[a]) or (b == c and be == unit_identity[b]) or (k1, k2, kg) in forced:
            continue
        i1, i2, ig = index[k1], index[k2], index[kg]
        two_h.setdefault(max(i1, i2, ig), []).append((i1, i2, ig, obj[a], obj[b], obj[c]))

    b_inhabited = {xy for xy, K in B.hom.items() if K.objects}
    b_rel = {xy: {(K.src[t], K.dst[t]) for t in K.arrows} for xy, K in B.hom.items()}
    parallel: dict[tuple[Obj, Obj], dict[tuple[One, One], list[Two]]] = {}
    for xy, K in B.hom.items():
        par = parallel.setdefault(xy, {})
        for t in K.arrows:
            par.setdefault((K.src[t], K.dst[t]), []).append(t)
    hc1, hc2 = B.hcompose1, B.hcompose2

    def objects(val: list) -> tuple[Obj, ...]:
        return B.objects

    def unit(x: int) -> Callable[[list], tuple[One]]:
        return lambda val: (B.unit[val[x]],)

    def one_cells(x: int, y: int, decs: list) -> Callable[[list], Sequence[One]]:
        def options(val: list) -> Sequence[One]:
            forced = None
            for i1, i2, p, q, r in decs:
                v = hc1.get((val[p], val[q], val[r], val[i1], val[i2]))
                if v is None or (forced is not None and forced != v):
                    return ()
                forced = v
            cells = B.hom[(val[x], val[y])].objects
            if forced is None:
                return cells
            return (forced,) if forced in cells else ()
        return options

    def identity(x: int, y: int, i: int) -> Callable[[list], tuple[Two]]:
        return lambda val: (B.hom[(val[x], val[y])].identity[val[i]],)

    def two_cells(x: int, y: int, s: int, d: int, vdecs: list, hdecs: list) -> Callable[[list], Sequence[Two]]:
        def options(val: list) -> Sequence[Two]:
            K = B.hom[(val[x], val[y])]
            forced = None
            for i1, i2 in vdecs:
                v = K.compose.get((val[i2], val[i1]))
                if v is None or (forced is not None and forced != v):
                    return ()
                forced = v
            for i1, i2, p, q, r in hdecs:
                v = hc2.get((val[p], val[q], val[r], val[i1], val[i2]))
                if v is None or (forced is not None and forced != v):
                    return ()
                forced = v
            if forced is None:
                return parallel[(val[x], val[y])].get((val[s], val[d]), ())
            ok = K.src.get(forced) == val[s] and K.dst.get(forced) == val[d]
            return (forced,) if ok else ()
        return options

    def check(k: int) -> Optional[Callable[[list], bool]]:
        inhabited, h1, rel = homs_inhabited.get(k, ()), one_h.get(k, ()), one_rel.get(k, ())
        v2, h2 = two_v.get(k, ()), two_h.get(k, ())
        if not (inhabited or h1 or rel or v2 or h2):
            return None

        def holds(val: list) -> bool:
            for p, q in inhabited:
                if (val[p], val[q]) not in b_inhabited:
                    return False
            for i1, i2, ih, p, q, r in h1:
                if hc1.get((val[p], val[q], val[r], val[i1], val[i2])) != val[ih]:
                    return False
            for i1, i2, p, q in rel:
                if (val[i1], val[i2]) not in b_rel[(val[p], val[q])]:
                    return False
            for i1, i2, ig, p, q in v2:
                if B.hom[(val[p], val[q])].compose.get((val[i2], val[i1])) != val[ig]:
                    return False
            for i1, i2, ig, p, q, r in h2:
                if hc2.get((val[p], val[q], val[r], val[i1], val[i2])) != val[ig]:
                    return False
            return True
        return holds

    options: list = []
    for k, key in enumerate(keys):
        if key[0] == 0:
            options.append(objects)
            continue
        _, a, b, cell = key
        H = A.hom[(a, b)]
        if key[0] == 1 and a == b and cell == A.unit[a]:
            options.append(unit(obj[a]))
        elif key[0] == 1:
            decs = [(index[k1], index[k2], obj[k1[1]], obj[k1[2]], obj[k2[2]])
                    for k1, k2 in one_decomp[key] if placed(k1, k2, k)]
            options.append(one_cells(obj[a], obj[b], decs))
        elif H.is_identity(cell):
            options.append(identity(obj[a], obj[b], index[(1, a, b, H.src[cell])]))
        else:
            vdecs = [(index[k1], index[k2])
                     for k1, k2 in two_decomp_v.get(key, ()) if placed(k1, k2, k)]
            hdecs = [(index[k1], index[k2], obj[k1[1]], obj[k1[2]], obj[k2[2]])
                     for k1, k2 in two_decomp_h.get(key, ()) if placed(k1, k2, k)]
            options.append(two_cells(obj[a], obj[b], index[(1, a, b, H.src[cell])],
                                     index[(1, a, b, H.dst[cell])], vdecs, hdecs))
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


def enumerate_two_functors(
    A: Fin2Cat,
    B: Fin2Cat,
    pin: Optional[Mapping[Key, Key]] = None,
    allow: Optional[Callable[[Key, Key], bool]] = None,
    limit: Optional[int] = None,
) -> Iterator[TwoFunctor]:
    """All strict 2-functors A -> B, deterministically ordered.

    Cells are keyed ``(0, object)``, ``(1, a, b, one_cell)`` and
    ``(2, a, b, two_cell)``, the 1- and 2-cells with their hom: ``pin``
    fixes parts of the assignment, ``allow(cell_key, image_key)`` restricts
    candidate images and ``limit`` caps the number of 2-functors.  B must
    pass :func:`validate_2category`; the search relies on its laws.
    """
    yield from _search(*_two_functor_problem(A, B), pin, allow, limit)


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
    return next(_search(*_two_functor_problem(A, B), limit=1, distinct=True), None)


# ---------------------------------------------------------------------------
# the geometric nerve
# ---------------------------------------------------------------------------

def geometric_nerve_cells(C: Fin2Cat, D: int) -> tuple[SimplicialSet, dict[tuple[int, str], TwoFunctor]]:
    """Geometric nerve truncated at D, plus the id -> 2-functor table.

    Level n holds all strict 2-functors ``delta_tilde(n) -> C``, named by
    their ``encode()``; operators act by precomposition with
    :func:`cosimplicial_operator`.  Levels up to 3 are found by
    :func:`enumerate_two_functors`.  The nerve is 3-coskeletal (Street
    1987, "The algebra of oriented simplexes"; Duskin 2002, "Simplicial
    matrices and the nerves of weak n-categories I"): for n >= 4 every
    tuple of (n-1)-cells with matching faces is the boundary of exactly
    one n-cell.  Those levels are built by joining the level below on
    shared faces (:func:`_coskeletal_level`).

    C must pass :func:`validate_2category`: the search files no check that
    the unit and identity laws of C make vacuous, and the join takes the
    cells that lie in no face to be composites in C.
    """
    def level(n: int, named: dict, faces: dict) -> Iterable:
        if n < 4:
            return _listed(enumerate_two_functors(delta_tilde(n), C))
        return _coskeletal_level(C, n, named, faces)
    return _singular(D, level, cosimplicial_operator)


def geometric_nerve(C: Fin2Cat, D: int) -> SimplicialSet:
    return geometric_nerve_cells(C, D)[0]


def _name_template(keys: Iterable[Key]) -> str:
    """The ``encode()`` of a 2-functor whose ``assignments()`` lists these
    source keys, with a ``str.format`` field in place of each image."""
    parts: tuple[list[str], list[str], list[str]] = ([], [], [])
    for key in keys:
        parts[key[0]].append(_escaped("!".join(key[1:])) + ">{}")
    return "/".join(",".join(p) for p in parts)


@lru_cache(maxsize=None)
def _simplex_keys(n: int) -> tuple[tuple[Key, ...], str]:
    """The cell keys of ``delta_tilde(n)`` in ``assignments()`` order, and
    the name template of the 2-functors out of it."""
    keys = tuple(s for s, _ in cosimplicial_operator(tuple(range(n + 1)), n).assignments())
    return keys, _name_template(keys)


@lru_cache(maxsize=None)
def _join_plan(n: int) -> tuple:
    """How an n-cell of a geometric nerve (n >= 4) is read off its faces.

    Concatenate the image tuples of the faces ``x_0 .. x_n`` and append the
    fills below; ``pick`` then takes the n-cell's image tuple from that.  A
    cell of ``delta_tilde(n)`` missing a vertex v is read from ``x_v``.  The
    cells on all of {0..n} lie in no face; each is one composite in C:

    * the 1-cell {0..n} is ``hc1({0,1}, {1..n})``;
    * a 2-cell {0..n} => T where T has an interior vertex m is ``hc2``
      of its restrictions to {0..m} and {m..n} (m the least such vertex);
    * {0..n} => {0,n} is the vertical composite of {0..n} => {0,1,n} and
      {0,1,n} => {0,n}.

    ``one`` and ``splits`` hold the positions of the composed parts in the
    concatenation; ``vertical`` the positions of the objects and 2-cell of
    the last composite, and the place of its first part among the splits.
    """
    keys, _ = _simplex_keys(n)
    lower = {key: k for k, key in enumerate(_simplex_keys(n - 1)[0])}
    everything = set(range(n + 1))

    def at(key: Key) -> int:
        """The position of a cell that misses a vertex."""
        vertices = set(map(int, key[1] if key[0] == 0 else key[3].split(">")[0]))
        v = min(everything - vertices)
        down = str.maketrans({str(w): str(w - (w > v)) for w in everything - {v}})
        return v * len(lower) + lower[(key[0], *(c.translate(down) for c in key[1:]))]

    full = _subset_id(everything)
    last = str(n)
    o0, on = at((0, "0")), at((0, last))
    one = (o0, at((0, "1")), on, at((1, "0", "1", "01")), at((1, "1", last, full[1:])))
    fills = {(1, "0", last, full): 0}
    splits = []
    for T in _subsets_between(0, n):
        m = next((int(ch) for ch in T[1:-1]), None)
        if m is None:
            continue
        fills[(2, "0", last, f"{full}>{T}")] = len(fills)
        head = "".join(ch for ch in T if int(ch) <= m)
        tail = "".join(ch for ch in T if int(ch) >= m)
        splits.append((o0, at((0, str(m))), on, at((2, "0", str(m), f"{full[:m + 1]}>{head}")),
                       at((2, str(m), last, f"{full[m:]}>{tail}"))))
    via = f"01{last}"
    vertical = (o0, on, at((2, "0", last, f"{via}>0{last}")), fills[(2, "0", last, f"{full}>{via}")] - 1)
    fills[(2, "0", last, f"{full}>0{last}")] = len(fills)
    base = (n + 1) * len(lower)
    pick = itemgetter(*(base + fills[key] if key in fills else at(key) for key in keys))
    return pick, one, splits, vertical


def _coskeletal_level(C: Fin2Cat, n: int, named: dict, faces: dict) -> Iterator[tuple]:
    """Level n >= 4 of the geometric nerve of C, from level n-1 given as
    in :func:`_singular`: one cell per tuple ``(x_0 .. x_n)`` of
    (n-1)-cells with ``d_i x_j = d_{j-1} x_i`` for ``i < j``; its faces are
    that tuple.  Requires C to pass :func:`validate_2category`."""
    keys, template = _simplex_keys(n)
    pick, one, splits, vertical = _join_plan(n)
    A = delta_tilde(n)
    ends = (sum(1 for k in keys if k[0] == 0), sum(1 for k in keys if k[0] < 2))
    names = [key[1] if key[0] == 0 else key[1:] for key in keys]
    image_of = {cid: image for image, cid in named.items()}
    hc1, hc2, hom = C.hcompose1, C.hcompose2, C.hom
    o0, o1, on, f01, f1n = one
    z0, zn, via, first = vertical
    for xs in _matching_tuples(n, faces):
        c = sum((image_of[x] for x in xs), ())
        twos = [hc2[(c[a], c[m], c[b], c[x], c[y])] for a, m, b, x, y in splits]
        c += (hc1[(c[o0], c[o1], c[on], c[f01], c[f1n])], *twos,
              hom[(c[z0], c[zn])].compose[(c[via], twos[first])])
        image = pick(c)
        F = TwoFunctor(A, C, dict(zip(names[:ends[0]], image)),
                       dict(zip(names[ends[0]:ends[1]], image[ends[0]:])),
                       dict(zip(names[ends[1]:], image[ends[1]:])), check=False)
        yield image, template.format(*image), F, xs


def _matching_tuples(n: int, faces: dict[str, tuple[str, ...]]) -> Iterator[tuple[str, ...]]:
    """Every tuple ``(x_0 .. x_n)`` of cells with ``d_i x_j = d_{j-1} x_i``
    for ``i < j``, given each cell's faces; candidates for ``x_j`` are
    looked up by their first one or two faces."""
    by_first: dict[str, list[str]] = {}
    by_first_two: dict[tuple[str, str], list[str]] = {}
    for x, fx in faces.items():
        by_first.setdefault(fx[0], []).append(x)
        by_first_two.setdefault(fx[:2], []).append(x)

    def extend(xs: tuple[str, ...]) -> Iterator[tuple[str, ...]]:
        j = len(xs)
        if j > n:
            yield xs
            return
        if j == 0:
            candidates: Iterable[str] = faces
        elif j == 1:
            candidates = by_first.get(faces[xs[0]][0], ())
        else:
            candidates = by_first_two.get((faces[xs[0]][j - 1], faces[xs[1]][j - 1]), ())
        for x in candidates:
            fx = faces[x]
            if all(fx[i] == faces[xs[i]][j - 1] for i in range(2, j)):
                yield from extend(xs + (x,))

    return extend(())


def geometric_nerve_functor(u: TwoFunctor, D: int) -> SimplicialMap:
    """The simplicial map of geometric nerves induced by a 2-functor
    (postcomposition with u on each cell).

    A cell's image is named from its images mapped through u, which is the
    ``encode()`` of the composite without building it."""
    NA, table = geometric_nerve_cells(u.source, D)
    uo, u1, u2 = u.objects, u.on1, u.on2
    templates = [_simplex_keys(n)[1] for n in range(D + 1)]
    levels: dict[int, dict[str, str]] = {n: {} for n in range(D + 1)}
    for (n, cid), F in table.items():
        o = F.objects
        image = [uo[x] for x in o.values()]
        image += [u1[(o[a], o[b], f)] for (a, b, _), f in F.on1.items()]
        image += [u2[(o[a], o[b], al)] for (a, b, _), al in F.on2.items()]
        levels[n][cid] = templates[n].format(*image)
    return SimplicialMap(NA, geometric_nerve(u.target, D), levels, check=False)


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
    """:func:`slice_2category` with each cell's data: ``(a, f)`` per
    object, and per hom ``(g, alpha)`` per 1-cell and
    ``(beta, alpha, alpha')`` per 2-cell."""
    A, C = v.source, v.target
    if c not in set(C.objects):
        raise DomainError(f"object {c!r} not in the target 2-category")
    vo = v.objects
    objects: dict[Obj, tuple[Obj, One]] = {}
    for a in A.objects:
        for f in C.hom[(vo[a], c)].objects:
            _claim(objects, _slice_name(a, f), (a, f))
    ones: dict[tuple[Obj, Obj], dict[One, tuple[One, Two]]] = {}
    twos: dict[tuple[Obj, Obj], dict[Two, tuple[Two, Two, Two]]] = {}
    hom = {}
    for o1, (a1, f1) in objects.items():
        H_c = C.hom[(vo[a1], c)]
        for o2, (a2, f2) in objects.items():
            H_a = A.hom[(a1, a2)]
            cells = ones[(o1, o2)] = {}
            for g in H_a.objects:
                composite = C.hc1(vo[a1], vo[a2], c, v.on1[(a1, a2, g)], f2)
                for al in H_c.arrows:
                    if H_c.src[al] == composite and H_c.dst[al] == f1:
                        _claim(cells, _slice_name(g, al), (g, al))
            idf2 = C.hom[(vo[a2], c)].identity[f2]
            arrows = twos[(o1, o2)] = {}
            src = {}
            dst = {}
            for x, (g, al) in cells.items():
                for y, (g2, al2) in cells.items():
                    for be in H_a.arrows:
                        if H_a.src[be] != g or H_a.dst[be] != g2:
                            continue
                        whisker = C.hc2(vo[a1], vo[a2], c, v.on2[(a1, a2, be)], idf2)
                        if H_c.compose[(al2, whisker)] == al:
                            name = _slice_two_name(be, al, al2)
                            _claim(arrows, name, (be, al, al2))
                            src[name] = x
                            dst[name] = y
            compose = {}
            for n1, (be1, al, _) in arrows.items():
                for n2, (be2, _, al2) in arrows.items():
                    if dst[n1] == src[n2]:
                        compose[(n2, n1)] = _slice_two_name(H_a.compose[(be2, be1)], al, al2)
            identity = {x: _slice_two_name(H_a.identity[g], al, al) for x, (g, al) in cells.items()}
            hom[(o1, o2)] = FinCat(cells, arrows, src, dst, compose, identity)

    hcompose1 = {}
    hcompose2 = {}
    for o1, (a1, _) in objects.items():
        H_c = C.hom[(vo[a1], c)]
        for o2, (a2, _) in objects.items():
            H_12 = hom[(o1, o2)]
            for o3, (a3, _) in objects.items():
                H_23 = hom[(o2, o3)]
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

    Objects: pairs ``(a, f: v(a) -> c)``.
    1-cells ``(a, f) -> (a', f')``: pairs ``(g: a -> a', alpha)`` with
    ``alpha: f' . v(g) -> f`` a 2-cell of C (here ``f' . v(g)`` means
    ``hc1(v(g), f')``).
    2-cells ``(g, alpha) -> (g', alpha')``: 2-cells ``beta: g -> g'`` of A
    with ``alpha' . (f' * v(beta)) = alpha``.

    Compositions (the fixed pasting conventions):

    * composite of ``(g, alpha): (a,f) -> (a',f')`` and
      ``(h, gamma): (a',f') -> (a'',f'')`` is
      ``(h . g, alpha o (gamma * id_{v(g)}))``, i.e. whisker gamma by v(g)
      on the left, then paste with alpha;
    * vertical composition of 2-cells is vertical composition in A;
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
    S_b = slice_2category(q, c)
    on1 = {}
    on2 = {}
    for (o1, o2), cells in ones.items():
        a1, a2 = objects[o1][0], objects[o2][0]
        for x, (g, al) in cells.items():
            on1[(o1, o2, x)] = _slice_name(u.on1[(a1, a2, g)], al)
        for n, (be, al, al2) in twos[(o1, o2)].items():
            on2[(o1, o2, n)] = _slice_two_name(u.on2[(a1, a2, be)], al, al2)
    images = {o: _slice_name(u.objects[a], f) for o, (a, f) in objects.items()}
    return TwoFunctor(S_a, S_b, images, on1, on2, check=False)


def two_functor_to_terminal(C: Fin2Cat) -> TwoFunctor:
    T = terminal_2category()
    objects = {a: "*" for a in C.objects}
    on1 = {(a, b, f): "1" for (a, b), H in C.hom.items() for f in H.objects}
    on2 = {(a, b, al): "id_1" for (a, b), H in C.hom.items() for al in H.arrows}
    return TwoFunctor(C, T, objects, on1, on2, check=False)
