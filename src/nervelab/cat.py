"""Finite categories: composition tables, functors, nerves, slices.

Objects and arrows are identified by strings.  ``compose[(g, f)]`` is the
composite ``g . f`` (f first).  All constructors sort their data, so equal
inputs give structurally equal categories.  Tables are never changed after
construction; ``hom(a, b)`` reads the one table of arrows by endpoints built then.
"""

from __future__ import annotations

from operator import eq, itemgetter
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Optional, TypeVar

from .errors import ContractError, DomainError
from .simplicial import (
    Key,
    SimplicialSet,
    _chain_nerve,
    _claim,
    _digits,
    _dimension_tag,
    _search,
    compose_monotone,
    monotone_maps,
    simplicial_operator,
)

Obj = str
Arr = str
T = TypeVar("T")


def _by_source(arrows: Iterable[T], src: Callable[[T], Hashable]) -> dict[Hashable, list[T]]:
    """Each arrow filed under its source, in the given order: the arrows
    that compose after f are the ones filed under the target of f."""
    out: dict[Hashable, list[T]] = {}
    for f in arrows:
        out.setdefault(src(f), []).append(f)
    return out


class FinCat:
    """A finite category given by explicit tables, never changed after
    construction.  ``hom(a, b)`` is one lookup in the arrows filed by
    ``(src, dst)`` once, in arrow order; ``==`` does not compare that table."""

    __slots__ = ("objects", "arrows", "src", "dst", "compose", "identity", "_hom")

    def __init__(
        self,
        objects: Iterable[Obj],
        arrows: Iterable[Arr],
        src: Mapping[Arr, Obj],
        dst: Mapping[Arr, Obj],
        compose: Mapping[tuple[Arr, Arr], Arr],
        identity: Mapping[Obj, Arr],
    ):
        self.objects = tuple(sorted(objects))
        self.arrows = tuple(sorted(arrows))
        self.src = dict(src)
        self.dst = dict(dst)
        self.compose = dict(compose)
        self.identity = dict(identity)
        hom: dict[tuple[Optional[Obj], Optional[Obj]], list[Arr]] = {}
        for f in self.arrows:  # an untyped arrow is filed too, for validate_category
            hom.setdefault((self.src.get(f), self.dst.get(f)), []).append(f)
        self._hom = {ends: tuple(fs) for ends, fs in hom.items()}

    def hom(self, a: Obj, b: Obj) -> tuple[Arr, ...]:
        return self._hom.get((a, b), ())

    def is_identity(self, f: Arr) -> bool:
        return self.identity.get(self.src[f]) == f

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FinCat):
            return NotImplemented
        return (
            self.objects == other.objects
            and self.arrows == other.arrows
            and self.src == other.src
            and self.dst == other.dst
            and self.compose == other.compose
            and self.identity == other.identity
        )

    def __repr__(self) -> str:
        return f"FinCat({len(self.objects)} objects, {len(self.arrows)} arrows)"


def validate_category(C: FinCat) -> list[str]:
    """Exhaustive axioms check: totality, typing, units, associativity.

    Composable pairs and triples are walked from the arrows filed by source,
    so the cost is that of the composable triples, not arrows cubed.  A
    compose or identity row that names an arrow or object C does not have
    is refused."""
    out = []
    objset, arrset = set(C.objects), set(C.arrows)
    src, dst = C.src.get, C.dst.get  # an arrow may lack an endpoint here
    for f in C.arrows:
        if src(f) not in objset or dst(f) not in objset:
            out.append(f"arrow {f!r} has missing or foreign endpoints")
    for a in C.objects:
        i = C.identity.get(a)
        if i is None or i not in arrset:
            out.append(f"object {a!r} has no identity arrow")
        elif not (src(i) == a and dst(i) == a):
            out.append(f"identity of {a!r} is not an endomorphism")
    out.extend(f"identity row {a!r} names an absent object" for a in C.identity if a not in objset)
    leaving = _by_source(C.arrows, src)
    rows = _by_source(C.compose, itemgetter(1))  # each row (g, f) filed under f
    for f in C.arrows:
        # the arrows leaving dst(f), and those that a row composes after f
        for g in sorted({*leaving.get(dst(f), ()), *(g for g, _ in rows.pop(f, ()))}):
            if g not in arrset:
                out.append(f"compose row ({g!r}, {f!r}) names an absent arrow")
                continue
            if dst(f) != src(g):
                out.append(f"compose defined on non-composable pair ({g!r}, {f!r})")
                continue
            gf = C.compose.get((g, f))
            if gf is None:
                out.append(f"compose missing on ({g!r}, {f!r})")
                continue
            if src(gf) != src(f) or dst(gf) != dst(g):
                out.append(f"composite of ({g!r}, {f!r}) has wrong endpoints")
    out.extend(f"compose row ({g!r}, {f!r}) names an absent arrow" for left in rows.values() for g, f in left)
    for f in C.arrows:
        ia = C.identity.get(src(f))
        ib = C.identity.get(dst(f))
        if ia and C.compose.get((f, ia)) != f:
            out.append(f"right unit law fails on {f!r}")
        if ib and C.compose.get((ib, f)) != f:
            out.append(f"left unit law fails on {f!r}")
    for f in C.arrows:
        for g in leaving.get(dst(f), ()):
            gf = C.compose.get((g, f), "")
            for h in leaving.get(dst(g), ()):
                lhs = C.compose.get((h, gf))
                if lhs is None or lhs != C.compose.get((C.compose.get((h, g), ""), f)):
                    out.append(f"associativity fails on ({h!r}, {g!r}, {f!r})")
    return out


class CatFunctor:
    """Object and arrow assignments preserving the category structure."""

    __slots__ = ("source", "target", "objects", "arrows")

    def __init__(
        self,
        source: FinCat,
        target: FinCat,
        objects: Mapping[Obj, Obj],
        arrows: Mapping[Arr, Arr],
        check: bool = True,
    ):
        self.source = source
        self.target = target
        self.objects = dict(sorted(objects.items()))
        self.arrows = dict(sorted(arrows.items()))
        if check:
            problems = validate_functor(self)
            if problems:
                raise ContractError("not a functor: " + "; ".join(problems[:3]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CatFunctor):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.objects == other.objects
            and self.arrows == other.arrows
        )

    def encode(self) -> str:
        obj = ",".join(f"{a}>{b}" for a, b in self.objects.items())
        arr = ",".join(f"{f}>{g}" for f, g in self.arrows.items())
        return obj + "/" + arr

    def assignments(self) -> Iterator[tuple[Key, Key]]:
        """Each cell key, ``(0, object)`` or ``(1, arrow)``, with the key of its image."""
        for a, b in self.objects.items():
            yield (0, a), (0, b)
        for f, g in self.arrows.items():
            yield (1, f), (1, g)

    def __repr__(self) -> str:
        return f"CatFunctor({self.source!r} -> {self.target!r})"


def validate_functor(F: CatFunctor) -> list[str]:
    """The problems of F's ends, marked ``source:`` or ``target:``, or else of its assignments."""
    ends = (("source", F.source), ("target", F.target))
    return [f"{end}: {msg}" for end, C in ends for msg in validate_category(C)] or _functor_problems(F)


def _functor_problems(F: CatFunctor) -> list[str]:
    """The problems of F's assignments, read on ends that are categories."""
    out = []
    A, B = F.source, F.target
    objects, arrows = set(A.objects), set(A.arrows)
    targets, images = set(B.objects), set(B.arrows)
    out.extend(f"object {a!r} assigned but not a source object" for a in F.objects if a not in objects)
    out.extend(f"arrow {f!r} assigned but not a source arrow" for f in F.arrows if f not in arrows)
    for a in A.objects:
        if F.objects.get(a) not in targets:
            out.append(f"object {a!r} unassigned or foreign image")
    for f in A.arrows:
        g = F.arrows.get(f)
        if g is None or g not in images:
            out.append(f"arrow {f!r} unassigned or foreign image")
            continue
        if B.src[g] != F.objects.get(A.src[f]) or B.dst[g] != F.objects.get(A.dst[f]):
            out.append(f"arrow {f!r} image has wrong endpoints")
    for a in A.objects:
        if F.arrows.get(A.identity[a]) != B.identity.get(F.objects.get(a, "")):
            out.append(f"identity of {a!r} not preserved")
    leaving = _by_source(A.arrows, A.src.get)
    for f in A.arrows:
        for g in leaving.get(A.dst[f], ()):
            lhs = F.arrows.get(A.compose[(g, f)])
            rhs = B.compose.get((F.arrows.get(g, ""), F.arrows.get(f, "")))
            if lhs is None or lhs != rhs:
                out.append(f"composition not preserved on ({g!r}, {f!r})")
    return out


def identity_functor(C: FinCat) -> CatFunctor:
    return CatFunctor(C, C, {a: a for a in C.objects}, {f: f for f in C.arrows}, check=False)


def compose_functors(G: CatFunctor, F: CatFunctor) -> CatFunctor:
    if F.target != G.source:
        raise ContractError("functor composition mismatch")
    return CatFunctor(
        F.source,
        G.target,
        {a: G.objects[b] for a, b in F.objects.items()},
        {f: G.arrows[g] for f, g in F.arrows.items()},
        check=False,
    )


# ---------------------------------------------------------------------------
# small constructors
# ---------------------------------------------------------------------------

def _thin_category(
    elements: Iterable[Obj], leq: Callable[[Obj, Obj], bool], arrow: Callable[[Obj, Obj], Arr]
) -> FinCat:
    """The category of a finite order: one arrow ``arrow(a, b)`` for each
    ``leq(a, b)``, composed by the order."""
    elements = list(elements)
    arrows = {(a, b): arrow(a, b) for a in elements for b in elements if leq(a, b)}
    src = {f: a for (a, _), f in arrows.items()}
    dst = {f: b for (_, b), f in arrows.items()}
    leaving = _by_source(arrows, itemgetter(0))
    compose = {(arrows[(b, c)], f): arrows[(a, c)] for (a, b), f in arrows.items() for _, c in leaving[b]}
    return FinCat(elements, arrows.values(), src, dst, compose, {a: arrows[(a, a)] for a in elements})


def terminal_category() -> FinCat:
    return discrete_category(["*"])


def discrete_category(names: Iterable[Obj]) -> FinCat:
    return _thin_category(names, eq, lambda a, b: f"id_{a}")


def poset_category(elements: Iterable[Obj], leq: Callable[[Obj, Obj], bool]) -> FinCat:
    """The thin category of a finite poset; arrow ``a<=b`` whenever leq(a, b)."""
    return _thin_category(elements, leq, lambda a, b: f"id_{a}" if a == b else f"{a}<={b}")


def chain_category(n: int) -> FinCat:
    """The poset 0 <= 1 <= ... <= n as a category."""
    return poset_category([str(i) for i in range(n + 1)], lambda a, b: int(a) <= int(b))


def arrow_category() -> FinCat:
    return chain_category(1)


def monoid_category(elements: Iterable[str], unit: str, mult: Callable[[str, str], str]) -> FinCat:
    """One-object category from a finite monoid; ``mult(g, f)`` is ``g . f``."""
    elements = list(elements)
    return FinCat(
        ["*"],
        elements,
        {e: "*" for e in elements},
        {e: "*" for e in elements},
        {(g, f): mult(g, f) for g in elements for f in elements},
        {"*": unit},
    )


def parallel_pair_category() -> FinCat:
    return FinCat(
        ["0", "1"],
        ["id_0", "id_1", "f", "g"],
        {"id_0": "0", "id_1": "1", "f": "0", "g": "0"},
        {"id_0": "0", "id_1": "1", "f": "1", "g": "1"},
        {
            ("id_0", "id_0"): "id_0",
            ("id_1", "id_1"): "id_1",
            ("f", "id_0"): "f",
            ("id_1", "f"): "f",
            ("g", "id_0"): "g",
            ("id_1", "g"): "g",
        },
        {"0": "id_0", "1": "id_1"},
    )


# ---------------------------------------------------------------------------
# the nerve
# ---------------------------------------------------------------------------

def _chain_name(chain: tuple[str, ...]) -> str:
    """``<a>`` for the 0-chain at a, ``f1|...|fn`` for a longer chain."""
    return f"<{chain[0]}>" if len(chain) == 1 else "|".join(chain[1:])


def nerve(C: FinCat, D: int) -> SimplicialSet:
    """Nerve truncated at D: level n holds composable n-chains of arrows.

    This is :func:`~nervelab.simplicial._chain_nerve`, the construction
    behind Delta_n and sd Delta_n, applied to C.  The chain ``(f1, ...,
    fn)`` runs left to right (f1 first) and is named ``f1|...|fn``; the
    0-chain at a is named ``<a>``.  Identities are allowed, and chains
    containing them are exactly the degenerate cells.
    """
    for f in C.arrows:
        if "|" in f:
            raise ContractError(f"arrow id {f!r} may not contain '|'")
    out = {a: [] for a in C.objects} | _by_source(C.arrows, C.src.__getitem__)
    return _chain_nerve(out, C.dst, C.compose, C.identity, _chain_name, lambda chain: True, D)


# ---------------------------------------------------------------------------
# slices, final objects, category of elements
# ---------------------------------------------------------------------------

def _slice_name(*parts: str) -> str:
    """The name of a slice cell, written from the data it is made of:
    ``(a|f)`` for an object, ``(g|f1|f2)`` for an arrow and ``(g|alpha)``
    for a 1-cell of a 2-categorical slice.  Names are never parsed back."""
    return "(" + "|".join(parts) + ")"


def _slice_objects(v, over: Callable[[Obj], Iterable[Arr]]) -> dict[Obj, tuple[Obj, Arr]]:
    """The objects ``(a, f: v(a) -> c)`` of a slice of the (2-)functor v,
    each under its name: ``over(x)`` lists the arrows or 1-cells ``x -> c``.
    Two objects that would share a name raise :class:`DomainError`."""
    objects: dict[Obj, tuple[Obj, Arr]] = {}
    for a in v.source.objects:
        for f in over(v.objects[a]):
            _claim(objects, _slice_name(a, f), (a, f))
    return objects


def _slice_category(
    v: CatFunctor, c: Obj, name: Callable[[Arr, Arr, Arr], Arr] = _slice_name
) -> tuple[FinCat, dict[Obj, tuple[Obj, Arr]], dict[Arr, tuple[Arr, Arr, Arr]]]:
    """The comma category A/c with each cell's data: ``(a, f)`` per object
    and ``(g, f1, f2)`` per arrow.  ``name(g, f1, f2)`` names each arrow,
    its composites and identities; objects are named by :func:`_slice_objects`."""
    A, C = v.source, v.target
    if c not in C.objects:
        raise DomainError(f"object {c!r} not in the target category")
    objects = _slice_objects(v, lambda x: C.hom(x, c))
    arrows: dict[Arr, tuple[Arr, Arr, Arr]] = {}
    src = {}
    dst = {}
    for o1, (a1, f1) in objects.items():
        for o2, (a2, f2) in objects.items():
            for g in A.hom(a1, a2):
                if C.compose[(f2, v.arrows[g])] == f1:
                    n = name(g, f1, f2)
                    _claim(arrows, n, (g, f1, f2))
                    src[n] = o1
                    dst[n] = o2
    leaving = _by_source(arrows.items(), lambda item: src[item[0]])
    compose = {(n2, n1): name(A.compose[(g2, g1)], f_lo, f_hi)
               for n1, (g1, f_lo, _) in arrows.items() for n2, (g2, _, f_hi) in leaving.get(dst[n1], ())}
    identity = {o: name(A.identity[a], f, f) for o, (a, f) in objects.items()}
    return FinCat(objects, arrows, src, dst, compose, identity), objects, arrows


def slice_category(v: CatFunctor, c: Obj) -> tuple[FinCat, CatFunctor]:
    """The comma category A/c of ``v: A -> C`` over ``c`` with its projection.

    Objects are pairs ``(a, f: v(a) -> c)``; an arrow ``(a, f) -> (a', f')``
    is ``g: a -> a'`` in A with ``f' . v(g) = f``.
    """
    S, objects, arrows = _slice_category(v, c)
    proj = CatFunctor(
        S, v.source, {o: a for o, (a, _) in objects.items()},
        {n: g for n, (g, _, _) in arrows.items()}, check=False,
    )
    return S, proj


def slice_functor(
    u: CatFunctor, p: CatFunctor, q: CatFunctor, c: Obj
) -> CatFunctor:
    """For a commuting triangle ``q . u = p`` over C, the induced A/c -> B/c.

    Each cell of A/c is mapped through u from the data it was made of.
    """
    if compose_functors(q, u) != p:
        raise ContractError("triangle does not commute: q . u != p")
    Ac, objects, arrows = _slice_category(p, c)
    Bc, images, _ = _slice_category(q, c)
    named = {data: o for o, data in images.items()}
    return CatFunctor(
        Ac, Bc,
        {o: named[(u.objects[a], f)] for o, (a, f) in objects.items()},
        {n: _slice_name(u.arrows[g], f1, f2) for n, (g, f1, f2) in arrows.items()},
        check=False,
    )


def has_final_object(C: FinCat) -> Optional[Obj]:
    """The first object (in canonical order) to which every object has
    exactly one arrow, if any."""
    for z in C.objects:
        if all(len(C.hom(a, z)) == 1 for a in C.objects):
            return z
    return None


def category_of_elements(X: SimplicialSet, D: int) -> FinCat:
    """The D-truncation of the category of elements of X.

    Objects are pairs ``(n, cell)`` with ``n <= D``; an arrow
    ``(m, y) -> (n, x)`` is a monotone ``phi: [m] -> [n]`` with
    ``phi*(x) = y``.  Composition is composition of monotone maps.
    """
    if D < 0:
        raise DomainError(f"truncation {D} must be >= 0")
    if D > X.dim_bound:
        raise DomainError(f"truncation {D} exceeds the bound {X.dim_bound}")
    elements = {(n, c): f"({n}:{c})" for n in range(D + 1) for c in X.cells[n]}

    def arrow(phi: Iterable[int], source: tuple[int, str], target: tuple[int, str]) -> Arr:
        (m, y), (n, x) = source, target
        return f"[{_digits(phi)}:{m}:{y}>{n}:{x}]"

    ends = {}
    for n, x in elements:
        for m in range(D + 1):
            for phi in monotone_maps(m, n):
                source = (m, simplicial_operator(X, phi, n, x))
                ends[arrow(phi, source, (n, x))] = (phi, source, (n, x))
    leaving = _by_source(ends.items(), lambda item: item[1][1])
    compose = {(g, f): arrow(compose_monotone(psi, phi), a, c)
               for f, (phi, a, b) in ends.items() for g, (psi, _, c) in leaving[b]}
    return FinCat(elements.values(), ends, {f: elements[a] for f, (_, a, _) in ends.items()},
                  {f: elements[b] for f, (_, _, b) in ends.items()}, compose,
                  {name: arrow(range(e[0] + 1), e, e) for e, name in elements.items()})


# ---------------------------------------------------------------------------
# functor enumeration and isomorphism search
# ---------------------------------------------------------------------------

def _functor_problem(A: FinCat, B: FinCat) -> tuple:
    """Compile the search for functors A -> B for the shared kernel.

    Objects are branched on first, then identities are forced, then the
    other arrows range over ``B.hom`` of the images of their endpoints;
    each composition triangle is checked once its last arrow is set.
    """
    keys = [(0, a) for a in A.objects]
    keys += [(1, A.identity[a]) for a in A.objects]
    keys += [(1, f) for f in A.arrows if not A.is_identity(f)]
    index = {key: k for k, key in enumerate(keys)}
    triangles: dict[int, list[tuple[int, int, int]]] = {}
    for (g, f), gf in A.compose.items():
        inst = (index[(1, g)], index[(1, f)], index[(1, gf)])
        triangles.setdefault(max(inst), []).append(inst)

    def objects(val: list) -> tuple[Obj, ...]:
        return B.objects

    def identity(j: int) -> Callable[[list], tuple[Arr, ...]]:
        return lambda val: (B.identity[val[j]],)

    def arrows(s: int, d: int) -> Callable[[list], tuple[Arr, ...]]:
        return lambda val: B.hom(val[s], val[d])

    def preserved(insts: list[tuple[int, int, int]]) -> Callable[[list], bool]:
        def check(val: list) -> bool:
            for g, f, gf in insts:
                if B.compose.get((val[g], val[f])) != val[gf]:
                    return False
            return True
        return check

    options: list = []
    for dim, x in keys:
        if dim == 0:
            options.append(objects)
        elif A.is_identity(x):
            options.append(identity(index[(0, A.src[x])]))
        else:
            options.append(arrows(index[(0, A.src[x])], index[(0, A.dst[x])]))
    checks = [preserved(triangles[k]) if k in triangles else None for k in range(len(keys))]

    def emit(val: list) -> CatFunctor:
        objs = {x: v for (dim, x), v in zip(keys, val) if dim == 0}
        arrs = {x: v for (dim, x), v in zip(keys, val) if dim == 1}
        return CatFunctor(A, B, objs, arrs, check=False)

    return keys, options, checks, _dimension_tag, emit


def enumerate_functors(A: FinCat, B: FinCat) -> Iterator[CatFunctor]:
    """All functors A -> B in canonical order (objects, then arrows)."""
    yield from _search(*_functor_problem(A, B))


def count_functors(A: FinCat, B: FinCat) -> int:
    return sum(1 for _ in enumerate_functors(A, B))


def find_cat_iso(A: FinCat, B: FinCat) -> Optional[CatFunctor]:
    """Search for an isomorphism of categories (bijective on objects and arrows)."""
    if len(A.objects) != len(B.objects) or len(A.arrows) != len(B.arrows):
        return None
    return next(_search(*_functor_problem(A, B), distinct=True), None)
