"""Presentations produced by the left adjoints to the nerve functors, and
their bounded realization as finite (2-)categories.

A :class:`CatPresentation` is a generating graph with path relations; a
:class:`TwoCatPresentation` adds 2-generators between parallel paths and
pasting relations between parallel whisker sequences.  The 2-skeleton of a
simplicial set is read once, by ``_two_cell_paths``: ``cat_of`` takes the
nondegenerate edges as generators and each 2-cell whose two paths differ as
a relation, ``twocat_of`` takes ``cat_of``'s graph and makes every
nondegenerate 2-cell a 2-generator, and ``homology.pi1_presentation`` reads
the edge-path group off ``cat_of``.

``realize`` always terminates with a verdict:

* ``finite``   -- a finite category / 2-category plus a certificate,
* ``infinite`` -- with a growth witness (an irreducible generator cycle),
* ``unknown``  -- a completion or enumeration budget ran out.

Rewriting orients relations by length then lexicographic order, so
reduction terminates; completion is classical critical-pair resolution on
typed paths, bounded by the budget.

A 2-presentation is realized over its finite free category of 1-cells.
Each hom is a whisker graph (paths, and 2-generator applications between
them); its edge-paths are enumerated by ``_irreducible_words``, the same
enumerator as the paths, so a whisker cycle or too many edge-paths is
``unknown``.  The 2-cells are the edge-paths modulo the congruence
generated by interchange squares and the instances of the pasting
relations, whose two sides must run between the same two paths.
``_irreducible_words`` walks on explicit stacks, so a path may be longer
than Python's recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .cat import FinCat, _by_source
from .errors import BudgetError, ContractError
from .simplicial import (
    SimplicialMap,
    SimplicialSet,
    _claim,
    _UnionFind,
    boundary_inclusion,
    simplicial_operator,
)
from .subdivision import sd, sd_map
from .twocat import Fin2Cat

Path = tuple[str, ...]


@dataclass
class CatPresentation:
    objects: tuple[str, ...]
    generators: tuple[str, ...]
    src: dict[str, str]
    dst: dict[str, str]
    relations: tuple[tuple[Path, Path], ...]

    def path_endpoints(self, p: Path) -> tuple[str, str]:
        """The ends of a non-empty path."""
        return self.src[p[0]], self.dst[p[-1]]

    def validate(self) -> list[str]:
        out = []
        objset = set(self.objects)
        for g in self.generators:
            if self.src.get(g) not in objset or self.dst.get(g) not in objset:
                out.append(f"generator {g!r} has missing endpoints")
        typed = {g for g in self.generators if g in self.src and g in self.dst}
        for lhs, rhs in self.relations:
            if not set(lhs + rhs) <= typed:
                out.append(f"relation {lhs} = {rhs} names an unknown generator")
                continue
            for p in (lhs, rhs):
                for a, b in zip(p, p[1:]):
                    if self.dst[a] != self.src[b]:
                        out.append(f"path {p} not composable")
            if lhs or rhs:
                # an empty side is the identity at the other side's source
                lhs_ends, rhs_ends = (self.path_endpoints(p) if p else None for p in (lhs, rhs))
                if (lhs_ends or rhs_ends[:1] * 2) != (rhs_ends or lhs_ends[:1] * 2):
                    out.append(f"relation {lhs} = {rhs} not parallel")
        return out


@dataclass(frozen=True)
class WhiskerStep:
    """One vertical step: a 2-generator applied inside left/right contexts."""

    left: Path
    gen: str
    right: Path


@dataclass
class TwoCatPresentation:
    objects: tuple[str, ...]
    generators: tuple[str, ...]  # 1-generators
    src: dict[str, str]
    dst: dict[str, str]
    two_generators: tuple[str, ...]
    two_src: dict[str, Path]
    two_dst: dict[str, Path]
    two_anchor: dict[str, tuple[str, str]]  # endpoints (needed for empty paths)
    relations: tuple[tuple[tuple[WhiskerStep, ...], tuple[WhiskerStep, ...]], ...]

    def validate(self) -> list[str]:
        out = []
        objset = set(self.objects)
        for g in self.generators:
            if self.src.get(g) not in objset or self.dst.get(g) not in objset:
                out.append(f"1-generator {g!r} has missing endpoints")
        typed = {g for g in self.generators if g in self.src and g in self.dst}
        typed2 = {t for t in self.two_generators if t in self.two_src and t in self.two_dst and t in self.two_anchor}
        for t in self.two_generators:
            if t not in typed2:
                out.append(f"2-generator {t!r} has missing paths or anchor")
                continue
            a, b = self.two_anchor[t]
            if a not in objset or b not in objset:
                out.append(f"2-generator {t!r} is anchored at {a} -> {b}, not at two objects")
                continue
            for p in (self.two_src[t], self.two_dst[t]):
                if not set(p) <= typed:
                    out.append(f"2-generator {t!r} has a path through an unknown 1-generator")
                elif not self._runs(p, a, b):
                    out.append(f"2-generator {t!r} has a path {p} that does not run {a} -> {b}")
        for i, (lhs, rhs) in enumerate(self.relations):
            unknown = [s for s in lhs + rhs if s.gen not in typed2 or not set(s.left + s.right) <= typed]
            if unknown:
                out.extend(f"relation step {step} names an unknown generator" for step in unknown)
                continue
            ends = [self._side_ends(side) for side in (lhs, rhs)]
            if None in ends:
                out.append(f"relation {i}: a side is not a composable whisker sequence")
                continue
            # an empty side is the identity of the other side's source
            lhs_ends = ends[0] or ends[1][:1] * 2
            rhs_ends = ends[1] or ends[0][:1] * 2
            if lhs_ends != rhs_ends:
                out.append(f"relation {i}: its sides are not parallel")
        return out

    def _runs(self, p: Path, a: str, b: str) -> bool:
        """Whether the 1-generator path ``p`` runs from a to b."""
        for g in p:
            if self.src[g] != a:
                return False
            a = self.dst[g]
        return a == b

    def _side_ends(self, side: tuple[WhiskerStep, ...]) -> Optional[tuple]:
        """The source and target of a relation side, each a whiskered path
        ``(start object, path, end object)``; ``()`` for an empty side and
        None when the steps do not compose."""
        ends = []
        for s in side:
            a, b = self.two_anchor[s.gen]
            x = self.src[s.left[0]] if s.left else a
            y = self.dst[s.right[-1]] if s.right else b
            if not (self._runs(s.left, x, a) and self._runs(s.right, b, y)):
                return None
            ends.append(((x, s.left + self.two_src[s.gen] + s.right, y),
                         (x, s.left + self.two_dst[s.gen] + s.right, y)))
        if any(prev[1] != nxt[0] for prev, nxt in zip(ends, ends[1:])):
            return None
        return (ends[0][0], ends[-1][1]) if ends else ()


@dataclass
class PresentedMap:
    """A map of presentations by generator assignment."""

    source: object
    target: object
    object_map: dict[str, str]
    generator_map: dict[str, str]
    two_generator_map: dict[str, str] = field(default_factory=dict)

    def validate(self) -> list[str]:
        out = []
        S, T = self.source, self.target
        targets = set(T.objects)
        out.extend(f"object {a!r} unmapped or mapped outside the target" for a in S.objects
                   if self.object_map.get(a) not in targets)
        for g, h in self.generator_map.items():
            if g not in S.src or h not in T.src:
                out.append(f"generator {g!r} -> {h!r} is not from a source generator to a target generator")
                continue
            if T.src[h] != self.object_map.get(S.src[g]):
                out.append(f"generator {g!r} image has wrong source")
            if T.dst[h] != self.object_map.get(S.dst[g]):
                out.append(f"generator {g!r} image has wrong target")
        out.extend(f"generator {g!r} unmapped" for g in S.generators if g not in self.generator_map)
        # a 1-presentation has no 2-generators; a missing row compares as ()
        source2, target2 = (set(getattr(P, "two_generators", ())) for P in (S, T))
        on1, on0 = self.generator_map.get, self.object_map.get
        for t, u in self.two_generator_map.items():
            if t not in source2 or u not in target2:
                out.append(f"2-generator {t!r} -> {u!r} is not from a source 2-generator to a target 2-generator")
                continue
            if T.two_src.get(u, ()) != tuple(map(on1, S.two_src.get(t, ()))):
                out.append(f"2-generator {t!r} image has wrong source path")
            if T.two_dst.get(u, ()) != tuple(map(on1, S.two_dst.get(t, ()))):
                out.append(f"2-generator {t!r} image has wrong target path")
            if T.two_anchor.get(u, ()) != tuple(map(on0, S.two_anchor.get(t, ()))):
                out.append(f"2-generator {t!r} image has wrong anchor")
        out.extend(f"2-generator {t!r} unmapped" for t in getattr(S, "two_generators", ())
                   if t not in self.two_generator_map)
        return out


# ---------------------------------------------------------------------------
# the adjoints
# ---------------------------------------------------------------------------

def _edge_path(X: SimplicialSet, e: str) -> Path:
    return () if X.is_degenerate(1, e) else (e,)


def _two_cell_paths(X: SimplicialSet) -> Iterable[tuple[str, Path, Path]]:
    """Each nondegenerate 2-cell t with its two edge paths: d_2 t then
    d_0 t, and d_1 t, degenerate edges dropped."""
    if X.dim_bound >= 2:
        for t in X.nondegenerate(2):
            lhs = _edge_path(X, X.d(2, 2, t)) + _edge_path(X, X.d(2, 0, t))
            yield t, lhs, _edge_path(X, X.d(2, 1, t))


def cat_of(X: SimplicialSet) -> CatPresentation:
    """Presentation with one generator per nondegenerate edge and one
    composition relation per nondegenerate 2-cell whose two paths differ."""
    generators = tuple(X.nondegenerate(1)) if X.dim_bound >= 1 else ()
    src = {e: X.d(1, 1, e) for e in generators}
    dst = {e: X.d(1, 0, e) for e in generators}
    relations = {(lhs, rhs) for _, lhs, rhs in _two_cell_paths(X) if lhs != rhs}
    return CatPresentation(tuple(X.cells[0]), generators, src, dst, tuple(sorted(relations)))


def twocat_of(X: SimplicialSet) -> TwoCatPresentation:
    """``cat_of(X)``'s graph with a 2-generator per nondegenerate 2-cell,
    oriented from the two-edge path to the direct edge, and one pasting
    relation per nondegenerate 3-cell (the two ways around a tetrahedron
    agree)."""
    one = cat_of(X)
    two_src = {}
    two_dst = {}
    two_anchor = {}
    for t, lhs, rhs in _two_cell_paths(X):
        two_src[t] = lhs
        two_dst[t] = rhs
        two_anchor[t] = (X.d(1, 1, X.d(2, 2, t)), X.d(1, 0, X.d(2, 0, t)))

    def gen_step(tri: str, left: Path, right: Path) -> tuple[WhiskerStep, ...]:
        # a degenerate triangle is an identity 2-cell: contributes no step
        if X.is_degenerate(2, tri):
            return ()
        return (WhiskerStep(left, tri, right),)

    relations = []
    if X.dim_bound >= 3:
        for tau in X.nondegenerate(3):
            e01 = _edge_path(X, simplicial_operator(X, (0, 1), 3, tau))
            e23 = _edge_path(X, simplicial_operator(X, (2, 3), 3, tau))
            d0, d1, d2, d3 = (X.d(3, i, tau) for i in range(4))
            side_a = gen_step(d3, (), e23) + gen_step(d1, (), ())
            side_b = gen_step(d0, e01, ()) + gen_step(d2, (), ())
            if side_a != side_b:
                relations.append((side_a, side_b))
    return TwoCatPresentation(one.objects, one.generators, one.src, one.dst, tuple(two_src),
                              two_src, two_dst, two_anchor, tuple(relations))


# ---------------------------------------------------------------------------
# path rewriting
# ---------------------------------------------------------------------------

def _ordered(a: Path, b: Path) -> tuple[Path, Path]:
    return (a, b) if (len(a), a) > (len(b), b) else (b, a)


def _reduce(word: Path, rules: Sequence[tuple[Path, Path]]) -> Path:
    changed = True
    while changed:
        changed = False
        for lhs, rhs in rules:
            if not lhs:
                continue
            L = len(lhs)
            for i in range(len(word) - L + 1):
                if word[i:i + L] == lhs:
                    word = word[:i] + rhs + word[i + L:]
                    changed = True
                    break
            if changed:
                break
    return word


@dataclass
class RealizeResult:
    status: str  # finite | infinite | unknown
    category: Optional[FinCat] = None
    two_category: Optional[Fin2Cat] = None
    certificate: dict = field(default_factory=dict)
    witness: Optional[object] = None


def _complete(relations: Iterable[tuple[Path, Path]], budget: int) -> Optional[list[tuple[Path, Path]]]:
    """Critical-pair completion on typed paths; None when the budget runs out."""
    rules: list[tuple[Path, Path]] = []
    seen = set()
    for a, b in relations:
        if a == b:
            continue
        rule = _ordered(a, b)
        if rule not in seen:
            seen.add(rule)
            rules.append(rule)
    if not rules:
        return rules
    for _ in range(budget):
        if len(rules) > budget:
            return None
        new_pairs = []
        for r1 in rules:
            lhs1, rhs1 = r1
            for r2 in rules:
                lhs2, rhs2 = r2
                # containment overlaps: lhs2 inside lhs1
                for i in range(len(lhs1) - len(lhs2) + 1):
                    if r1 == r2 and i == 0:
                        continue
                    if lhs1[i:i + len(lhs2)] == lhs2:
                        a = _reduce(rhs1, rules)
                        b = _reduce(lhs1[:i] + rhs2 + lhs1[i + len(lhs2):], rules)
                        if a != b:
                            new_pairs.append(_ordered(a, b))
                # suffix-prefix overlaps
                for k in range(1, min(len(lhs1), len(lhs2))):
                    if lhs1[len(lhs1) - k:] == lhs2[:k]:
                        a = _reduce(rhs1 + lhs2[k:], rules)
                        b = _reduce(lhs1[:len(lhs1) - k] + rhs2, rules)
                        if a != b:
                            new_pairs.append(_ordered(a, b))
        fresh = [r for r in new_pairs if r not in seen]
        if not fresh:
            return rules
        for r in fresh:
            if r not in seen:
                seen.add(r)
                rules.append(r)
    return None


# the most paths (or edge-paths of one hom) that realization enumerates
_MAX_ARROWS = 4000


def _irreducible_words(
    objects: Sequence[str],
    generators: Sequence[str],
    src: dict[str, str],
    dst: dict[str, str],
    rules: Sequence[tuple[Path, Path]],
) -> tuple[str, Optional[dict[str, list[Path]]], Optional[list[str]]]:
    """Enumerate the irreducible paths, or detect that they are infinite.

    Works on the suffix automaton: appending a letter can only create a
    rule occurrence at the tail, so states are (object, short suffix).
    Infinitely many irreducible words exist iff that automaton has a
    reachable cycle, which is returned as the growth witness.  More than
    ``_MAX_ARROWS`` words is ``unknown``.
    """
    L = max((len(lhs) for lhs, _ in rules), default=1)
    out_edges: dict[str, list[str]] = {a: [] for a in objects}
    for g in generators:
        out_edges[src[g]].append(g)
    lhs_set = {lhs for lhs, _ in rules}

    def appendable(suffix: Path, g: str) -> bool:
        w = suffix + (g,)
        return not any(w[len(w) - k:] in lhs_set for k in range(1, len(w) + 1))

    # depth-first search for a cycle, on an explicit stack of (state, its
    # remaining out-edges); ``trail`` holds the generators from the root
    states: dict[tuple[str, Path], int] = {}  # 0 = on stack, 1 = done
    for a in objects:
        if (a, ()) in states:
            continue
        states[(a, ())] = 0
        frames = [((a, ()), iter(sorted(out_edges[a])))]
        trail: list[str] = []
        while frames:
            (_, suffix), edges = frames[-1]
            g = next((g for g in edges if appendable(suffix, g)), None)
            if g is None:
                states[frames.pop()[0]] = 1
                if trail:
                    trail.pop()
                continue
            key = (dst[g], (suffix + (g,))[-(L - 1):] if L > 1 else ())
            trail.append(g)
            mark = states.get(key)
            if mark == 0:
                return "infinite", None, trail
            if mark == 1:
                trail.pop()
            else:
                states[key] = 0
                frames.append((key, iter(sorted(out_edges[key[0]]))))

    words: dict[str, list[Path]] = {a: [] for a in objects}
    total = 0
    stack: list[tuple[str, Path, Path]] = [(a, (), ()) for a in reversed(list(objects))]
    while stack:
        root, word, suffix = stack.pop()
        words[root].append(word)
        total += 1
        if total > _MAX_ARROWS:
            return "unknown", None, None
        here = dst[word[-1]] if word else root
        for g in sorted(out_edges[here], reverse=True):
            if appendable(suffix, g):
                nxt = (suffix + (g,))[-(L - 1):] if L > 1 else ()
                stack.append((root, word + (g,), nxt))
    for a in words:
        words[a].sort()
    return "finite", words, None


def _word_id(obj: str, word: Path) -> str:
    return f"[{obj}|{'.'.join(word)}]"


def realize_cat(p: CatPresentation, budget: int = 200) -> RealizeResult:
    """Bounded completion-based realization of a category presentation."""
    problems = p.validate()
    if problems:
        raise ContractError("; ".join(problems[:3]))
    rules = _complete(p.relations, budget)
    if rules is None:
        return RealizeResult("unknown", certificate={"reason": "completion budget exhausted"})
    status, words, witness = _irreducible_words(
        p.objects, p.generators, p.src, p.dst, rules
    )
    if status == "infinite":
        return RealizeResult("infinite", witness=witness,
                             certificate={"growth": "irreducible cycle"})
    if status == "unknown":
        return RealizeResult("unknown", certificate={"reason": "arrow budget exhausted"})
    named: dict[str, tuple] = {}
    src = {}
    dst = {}
    lookup = {}
    for a in p.objects:
        for w in words[a]:
            name = _word_id(a, w)
            _claim(named, name, (a, w))
            src[name] = a
            dst[name] = p.dst[w[-1]] if w else a
            lookup[(a, w)] = name
    compose = {}
    for a in p.objects:
        for w1 in words[a]:
            mid = p.dst[w1[-1]] if w1 else a
            for w2 in words[mid]:
                norm = _reduce(w1 + w2, rules)
                compose[(lookup[(mid, w2)], lookup[(a, w1)])] = lookup[(a, norm)]
    identity = {a: lookup[(a, ())] for a in p.objects}
    C = FinCat(p.objects, named, src, dst, compose, identity)
    return RealizeResult(
        "finite",
        category=C,
        certificate={"rules": [[list(l), list(r)] for l, r in rules], "confluent": True},
    )


# ---------------------------------------------------------------------------
# realization of 2-presentations
# ---------------------------------------------------------------------------

Edge = tuple[Path, int, str]  # (vertex path, position, 2-generator)


def realize_twocat(p: TwoCatPresentation) -> RealizeResult:
    """Realize a 2-presentation whose 1-cells form a finite free category.

    The hom-categories are whisker graphs (paths as objects, 2-generator
    applications as covering arrows) with parallel edge-paths identified by
    the congruence from interchange and the pasting relations.  A
    2-presentation has no 1-cell relations and so needs no completion;
    only ``_MAX_ARROWS`` bounds it.
    """
    problems = p.validate()
    if problems:
        raise ContractError("; ".join(problems[:3]))
    status, words, witness = _irreducible_words(
        p.objects, p.generators, p.src, p.dst, []
    )
    if status == "infinite":
        return RealizeResult("infinite", witness=witness,
                             certificate={"growth": "free 1-cell cycle"})
    if status == "unknown":
        return RealizeResult("unknown", certificate={"reason": "1-cell budget exhausted"})

    paths: dict[tuple[str, str], list[Path]] = {}
    named: dict[str, tuple] = {}
    for a in p.objects:
        for w in words[a]:
            _claim(named, _word_id(a, w), (a, w))
            paths.setdefault((a, p.dst[w[-1]] if w else a), []).append(w)
    # each 2-generator filed under its anchor object and the first
    # 1-generator of its source, or None for an empty source
    anchored: dict[tuple[str, Optional[str]], list[str]] = {}
    for t in p.two_generators:
        source = p.two_src[t]
        anchored.setdefault((p.two_anchor[t][0], source[0] if source else None), []).append(t)

    # the whisker graph of every hom (edge -> resulting path), and the
    # interchange squares of two disjoint edges leaving the same path
    hom_edges: dict[tuple[str, str], dict[Edge, Path]] = {}
    gen_pairs: dict[tuple[str, str], list[tuple[tuple[Edge, ...], tuple[Edge, ...]]]] = {}
    for (a, b), ps in paths.items():
        table = hom_edges[(a, b)] = {}
        pairs = gen_pairs[(a, b)] = []
        for V in ps:
            leaving = []
            for pos, x in enumerate((a,) + tuple(p.dst[g] for g in V)):
                for head in ((V[pos], None) if pos < len(V) else (None,)):
                    leaving += [(pos, t) for t in anchored.get((x, head), ())
                                if V[pos:pos + len(p.two_src[t])] == p.two_src[t]]
            for pos, t in leaving:
                table[(V, pos, t)] = V[:pos] + p.two_dst[t] + V[pos + len(p.two_src[t]):]
            for p1, t1 in leaving:
                l1 = len(p.two_src[t1])
                for p2, t2 in leaving:
                    # disjoint segments, t2's to the right (a t1 with empty
                    # source must sit strictly left of it)
                    if p2 >= p1 + max(l1, 1):
                        shifted = p2 + len(p.two_dst[t1]) - l1
                        pairs.append((((V, p1, t1), (table[(V, p1, t1)], shifted, t2)),
                                      ((V, p2, t2), (table[(V, p2, t2)], p1, t1))))

    # all edge-paths per hom, keyed (start path, edges), with their end path
    hom_paths: dict[tuple[str, str], dict[tuple[Path, tuple[Edge, ...]], Path]] = {}
    for key, table in hom_edges.items():
        status, edge_paths, _ = _irreducible_words(
            paths[key], list(table), {e: e[0] for e in table}, table, []
        )
        if status == "infinite":
            return RealizeResult("unknown", certificate={"reason": "whisker graph has a cycle"})
        if status == "unknown":
            return RealizeResult("unknown", certificate={"reason": "2-cell budget exhausted"})
        hom_paths[key] = {(V, q): table[q[-1]] if q else V for V in paths[key] for q in edge_paths[V]}

    def instantiate(seq: tuple[WhiskerStep, ...], V: Path, offset: int,
                    table: dict[Edge, Path]) -> Optional[tuple[Edge, ...]]:
        out: list[Edge] = []
        for step in seq:
            edge = (V, offset + len(step.left), step.gen)
            if edge not in table:
                return None  # an empty segment sits at another object here
            out.append(edge)
            V = table[edge]
        return tuple(out)

    # each relation applies where its first step's segment sits in a path,
    # looked up by the segment's first 1-generator.  A segment is never
    # empty here: a 2-generator with an empty source closes a cycle of
    # 1-cells or of a whisker graph, and either has returned above
    sites: dict[str, list[tuple[tuple[str, str], Path, int]]] = {}
    for key, ps in paths.items():
        for V in ps:
            for off, g in enumerate(V):
                sites.setdefault(g, []).append((key, V, off))
    for lhs_seq, rhs_seq in p.relations:
        if not (lhs_seq or rhs_seq):
            continue
        first = (lhs_seq or rhs_seq)[0]
        segment = first.left + p.two_src[first.gen] + first.right
        for key, V, off in sites.get(segment[0], ()):
            if V[off:off + len(segment)] == segment:
                table = hom_edges[key]
                il = instantiate(lhs_seq, V, off, table)
                ir = instantiate(rhs_seq, V, off, table)
                if il is not None and ir is not None and il != ir:
                    gen_pairs[key].append((il, ir))

    # per hom: union-find on parallel edge-paths, joining each one to every
    # edge-path one substitution s1 -> s2 away (which also finds each pair
    # s2 -> s1 from its other side); the classes are the 2-cells
    finders: dict[tuple[str, str], _UnionFind] = {}
    class_name: dict[tuple[str, str], dict] = {}
    hom: dict[tuple[str, str], FinCat] = {}
    for (a, b), ends in hom_paths.items():
        uf = finders[(a, b)] = _UnionFind(ends)
        for V, q in ends:
            for s1, s2 in gen_pairs[(a, b)]:
                n = len(s1)
                for i in range(len(q) - n + 1):
                    if q[i:i + n] == s1:
                        other = (V, q[:i] + s2 + q[i + n:])
                        if other in ends:
                            uf.union(other, (V, q))
        find = uf.find
        reps = sorted({find(k) for k in ends})
        names = class_name[(a, b)] = {r: f"<{i}>" for i, r in enumerate(reps)}
        src = {names[r]: _word_id(a, r[0]) for r in reps}
        dst = {names[r]: _word_id(a, ends[r]) for r in reps}
        starting = _by_source(reps, itemgetter(0))  # each class under its start path
        compose = {(names[r2], names[r1]): names[find((r1[0], r1[1] + r2[1]))]
                   for r1 in reps for r2 in starting.get(ends[r1], ())}
        identity = {_word_id(a, w): names[find((w, ()))] for w in paths[(a, b)]}
        hom[(a, b)] = FinCat([_word_id(a, w) for w in paths[(a, b)]], names.values(),
                             src, dst, compose, identity)

    hcompose1 = {}
    hcompose2 = {}
    homs_from = _by_source(paths, itemgetter(0))
    for (a, b), ps1 in paths.items():
        for _, c in homs_from.get(b, ()):
            ps2 = paths[(b, c)]
            for w1 in ps1:
                for w2 in ps2:
                    hcompose1[(a, b, c, _word_id(a, w1), _word_id(b, w2))] = _word_id(a, w1 + w2)
            ends_ab = hom_paths[(a, b)]
            find_ac = finders[(a, c)].find
            names_ab = class_name[(a, b)]
            names_bc = class_name[(b, c)]
            names_ac = class_name[(a, c)]
            for r1, n1 in names_ab.items():
                V1, q1 = r1
                W1 = ends_ab[r1]
                for r2, n2 in names_bc.items():
                    V2, q2 = r2
                    part1 = tuple((vert + V2, pos, t) for (vert, pos, t) in q1)
                    part2 = tuple((W1 + vert, pos + len(W1), t) for (vert, pos, t) in q2)
                    whole = (V1 + V2, part1 + part2)
                    hcompose2[(a, b, c, n1, n2)] = names_ac[find_ac(whole)]
    unit = {a: _word_id(a, ()) for a in p.objects}
    C2 = Fin2Cat(p.objects, hom, hcompose1, hcompose2, unit)
    return RealizeResult(
        "finite",
        two_category=C2,
        certificate={"one_cells": {f"{a}>{b}": len(v) for (a, b), v in paths.items()}},
    )


def realize(pres, budget: int = 200) -> RealizeResult:
    """Dispatch on the presentation kind.

    ``budget`` bounds the completion of a category presentation's
    relations.  A 2-presentation needs no completion, so ``budget`` does
    not bound it; ``_MAX_ARROWS`` bounds both kinds."""
    if budget < 0:
        raise BudgetError(f"budget {budget} must be >= 0")
    if isinstance(pres, CatPresentation):
        return realize_cat(pres, budget)
    if isinstance(pres, TwoCatPresentation):
        return realize_twocat(pres)
    raise ContractError(f"not a presentation: {type(pres).__name__}")


# ---------------------------------------------------------------------------
# the generating arrows of the lifting calculus
# ---------------------------------------------------------------------------

def presented_inclusion(f: SimplicialMap, level: int) -> PresentedMap:
    """Image of a levelwise-injective simplicial map under the adjoint at
    the requested level (1 or 2)."""
    make = cat_of if level == 1 else twocat_of
    ps = make(f.source)
    pt = make(f.target)
    object_map = {v: f.levels[0][v] for v in f.source.cells[0]}
    generator_map = {}
    for e in ps.generators:
        img = f.levels[1][e]
        if f.target.is_degenerate(1, img):
            raise ContractError(f"generator {e!r} maps to a degenerate edge")
        generator_map[e] = img
    two_map = {}
    if level == 2 and f.source.dim_bound >= 2:
        for t in ps.two_generators:
            img = f.levels[2][t]
            if f.target.is_degenerate(2, img):
                raise ContractError(f"2-generator {t!r} maps to a degenerate cell")
            two_map[t] = img
    return PresentedMap(ps, pt, object_map, generator_map, two_map)


def thomason_generators(n_max: int, level: int) -> list[PresentedMap]:
    """For each n <= n_max, the presented image of the doubly subdivided
    boundary inclusion under the level-1 or level-2 adjoint."""
    if level not in (1, 2):
        raise ContractError("level must be 1 or 2")
    out = []
    for n in range(n_max + 1):
        D = max(n, 2 if level == 1 else 3)
        inc = boundary_inclusion(n, D)
        for _ in range(2):
            inc = sd_map(inc, sd(inc.source)[1], sd(inc.target)[1])
        out.append(presented_inclusion(inc, level))
    return out
