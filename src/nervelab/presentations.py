"""Presentations produced by the left adjoints to the nerve functors, and
their bounded realization as finite (2-)categories.

A :class:`CatPresentation` is a generating graph with path relations; a
:class:`TwoCatPresentation` adds 2-generators between parallel paths and
pasting relations between parallel whisker sequences.

``realize`` always terminates with a verdict:

* ``finite``   -- a finite category / 2-category plus a certificate,
* ``infinite`` -- with a growth witness (an irreducible generator cycle),
* ``unknown``  -- a completion or enumeration budget ran out.

Rewriting orients relations by length then lexicographic order, so
reduction terminates; completion is classical critical-pair resolution on
typed paths, bounded by the budget.  Realized 2-categories are built from
the whisker graph of 2-generator applications modulo the congruence
generated by interchange squares and the pasting relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .cat import FinCat
from .errors import BudgetError, ContractError
from .simplicial import SimplicialMap, SimplicialSet, _UnionFind, boundary, simplicial_operator, standard_simplex
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

    def path_endpoints(self, p: Path, fallback: Optional[str] = None) -> tuple[str, str]:
        if not p:
            if fallback is None:
                raise ContractError("empty path needs an anchoring object")
            return fallback, fallback
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
            if lhs and rhs:
                if self.path_endpoints(lhs) != self.path_endpoints(rhs):
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
        for t in self.two_generators:
            a, b = self.two_anchor[t]
            for p in (self.two_src[t], self.two_dst[t]):
                if not set(p) <= typed:
                    out.append(f"2-generator {t!r} has a path through an unknown 1-generator")
                    continue
                if p:
                    if self.src[p[0]] != a or self.dst[p[-1]] != b:
                        out.append(f"2-generator {t!r} has mistyped paths")
                for x, y in zip(p, p[1:]):
                    if self.dst[x] != self.src[y]:
                        out.append(f"2-generator {t!r} has non-composable path")
        for lhs, rhs in self.relations:
            for step in lhs + rhs:
                if step.gen not in self.two_src or not set(step.left + step.right) <= typed:
                    out.append(f"relation step {step} names an unknown generator")
        return out


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
        for g, h in self.generator_map.items():
            if self.target.src[h] != self.object_map[self.source.src[g]]:
                out.append(f"generator {g!r} image has wrong source")
            if self.target.dst[h] != self.object_map[self.source.dst[g]]:
                out.append(f"generator {g!r} image has wrong target")
        return out


# ---------------------------------------------------------------------------
# the adjoints
# ---------------------------------------------------------------------------

def _edge_path(X: SimplicialSet, e: str) -> Path:
    return () if X.is_degenerate(1, e) else (e,)


def cat_of(X: SimplicialSet) -> CatPresentation:
    """Presentation with one generator per nondegenerate edge and one
    composition relation per nondegenerate 2-cell."""
    objects = tuple(X.cells[0])
    generators = tuple(X.nondegenerate(1)) if X.dim_bound >= 1 else ()
    src = {e: X.d(1, 1, e) for e in generators}
    dst = {e: X.d(1, 0, e) for e in generators}
    relations = []
    if X.dim_bound >= 2:
        for t in X.nondegenerate(2):
            lhs = _edge_path(X, X.d(2, 2, t)) + _edge_path(X, X.d(2, 0, t))
            rhs = _edge_path(X, X.d(2, 1, t))
            if lhs != rhs:
                relations.append((lhs, rhs))
    return CatPresentation(objects, generators, src, dst, tuple(sorted(set(relations))))


def twocat_of(X: SimplicialSet) -> TwoCatPresentation:
    """Presentation with a 2-generator per nondegenerate 2-cell, oriented
    from the two-edge path to the direct edge, and one pasting relation per
    nondegenerate 3-cell (the two ways around a tetrahedron agree)."""
    objects = tuple(X.cells[0])
    generators = tuple(X.nondegenerate(1)) if X.dim_bound >= 1 else ()
    src = {e: X.d(1, 1, e) for e in generators}
    dst = {e: X.d(1, 0, e) for e in generators}
    two_gens = tuple(X.nondegenerate(2)) if X.dim_bound >= 2 else ()
    two_src = {}
    two_dst = {}
    two_anchor = {}
    for t in two_gens:
        two_src[t] = _edge_path(X, X.d(2, 2, t)) + _edge_path(X, X.d(2, 0, t))
        two_dst[t] = _edge_path(X, X.d(2, 1, t))
        v0 = X.d(1, 1, X.d(2, 2, t))
        v2 = X.d(1, 0, X.d(2, 0, t))
        two_anchor[t] = (v0, v2)

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
    return TwoCatPresentation(
        objects,
        generators,
        src,
        dst,
        two_gens,
        two_src,
        two_dst,
        two_anchor,
        tuple(relations),
    )


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


def _irreducible_words(
    objects: Sequence[str],
    generators: Sequence[str],
    src: dict[str, str],
    dst: dict[str, str],
    rules: Sequence[tuple[Path, Path]],
    max_arrows: int,
) -> tuple[str, Optional[dict[str, list[Path]]], Optional[list[str]]]:
    """Enumerate the irreducible paths, or detect that they are infinite.

    Works on the suffix automaton: appending a letter can only create a
    rule occurrence at the tail, so states are (object, short suffix).
    Infinitely many irreducible words exist iff that automaton has a
    reachable cycle, which is returned as the growth witness.
    """
    L = max((len(lhs) for lhs, _ in rules), default=1)
    out_edges: dict[str, list[str]] = {a: [] for a in objects}
    for g in generators:
        out_edges[src[g]].append(g)
    lhs_set = {lhs for lhs, _ in rules}

    def appendable(suffix: Path, g: str) -> bool:
        w = suffix + (g,)
        return not any(w[len(w) - k:] in lhs_set for k in range(1, len(w) + 1))

    states: dict[tuple[str, Path], int] = {}  # 0 = on stack, 1 = done
    witness: Optional[list[str]] = None

    def visit(obj: str, suffix: Path, trail: list[str]) -> bool:
        nonlocal witness
        key = (obj, suffix)
        mark = states.get(key)
        if mark == 0:
            witness = list(trail)
            return False
        if mark == 1:
            return True
        states[key] = 0
        for g in sorted(out_edges[obj]):
            if appendable(suffix, g):
                nxt = (suffix + (g,))[-(L - 1):] if L > 1 else ()
                trail.append(g)
                if not visit(dst[g], nxt, trail):
                    return False
                trail.pop()
        states[key] = 1
        return True

    for a in objects:
        if not visit(a, (), []):
            return "infinite", None, witness

    words: dict[str, list[Path]] = {a: [] for a in objects}
    total = 0
    stack: list[tuple[str, Path, Path]] = [(a, (), ()) for a in reversed(list(objects))]
    while stack:
        root, word, suffix = stack.pop()
        words[root].append(word)
        total += 1
        if total > max_arrows:
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


def realize_cat(p: CatPresentation, budget: int = 200, max_arrows: int = 4000) -> RealizeResult:
    """Bounded completion-based realization of a category presentation."""
    problems = p.validate()
    if problems:
        raise ContractError("; ".join(problems[:3]))
    rules = _complete(p.relations, budget)
    if rules is None:
        return RealizeResult("unknown", certificate={"reason": "completion budget exhausted"})
    status, words, witness = _irreducible_words(
        p.objects, p.generators, p.src, p.dst, rules, max_arrows
    )
    if status == "infinite":
        return RealizeResult("infinite", witness=witness,
                             certificate={"growth": "irreducible cycle"})
    if status == "unknown":
        return RealizeResult("unknown", certificate={"reason": "arrow budget exhausted"})
    arrows = []
    src = {}
    dst = {}
    lookup = {}
    for a in p.objects:
        for w in words[a]:
            name = _word_id(a, w)
            arrows.append(name)
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
    C = FinCat(p.objects, arrows, src, dst, compose, identity)
    return RealizeResult(
        "finite",
        category=C,
        certificate={"rules": [[list(l), list(r)] for l, r in rules], "confluent": True},
    )


# ---------------------------------------------------------------------------
# realization of 2-presentations
# ---------------------------------------------------------------------------

Edge = tuple[Path, int, str]  # (vertex path, position, 2-generator)


def realize_twocat(p: TwoCatPresentation, budget: int = 200, max_arrows: int = 4000) -> RealizeResult:
    """Realize a 2-presentation whose 1-cells form a finite free category.

    The hom-categories are whisker graphs (paths as objects, 2-generator
    applications as covering arrows) with parallel edge-paths identified by
    the congruence from interchange and the pasting relations.
    """
    problems = p.validate()
    if problems:
        raise ContractError("; ".join(problems[:3]))
    status, words, witness = _irreducible_words(
        p.objects, p.generators, p.src, p.dst, [], max_arrows
    )
    if status == "infinite":
        return RealizeResult("infinite", witness=witness,
                             certificate={"growth": "free 1-cell cycle"})
    if status == "unknown":
        return RealizeResult("unknown", certificate={"reason": "1-cell budget exhausted"})

    def path_dst(a: str, w: Path) -> str:
        return p.dst[w[-1]] if w else a

    paths: dict[tuple[str, str], list[Path]] = {}
    start_of: dict[tuple[str, Path], str] = {}
    for a in p.objects:
        for w in words[a]:
            b = path_dst(a, w)
            paths.setdefault((a, b), []).append(w)
            start_of[(a, w)] = a
    for key in paths:
        paths[key].sort()

    def objects_along(a: str, w: Path) -> list[str]:
        objs = [a]
        for g in w:
            objs.append(p.dst[g])
        return objs

    # the whisker graph of every hom: edge -> resulting path
    hom_edges: dict[tuple[str, str], dict[Edge, Path]] = {}
    for (a, b), ps in paths.items():
        table: dict[Edge, Path] = {}
        for V in ps:
            objs = objects_along(a, V)
            for t in p.two_generators:
                S = p.two_src[t]
                x, _ = p.two_anchor[t]
                positions = range(len(V) - len(S) + 1) if S else range(len(V) + 1)
                for pos in positions:
                    if S and V[pos:pos + len(S)] != S:
                        continue
                    if objs[pos] != x:
                        continue
                    table[(V, pos, t)] = V[:pos] + p.two_dst[t] + V[pos + len(S):]
        hom_edges[(a, b)] = table

    # all edge-paths per hom (requires an acyclic whisker graph)
    hom_paths: dict[tuple[str, str], dict[tuple[Path, tuple[Edge, ...]], Path]] = {}
    for (a, b), table in hom_edges.items():
        adj: dict[Path, list[Edge]] = {}
        for edge, W in table.items():
            adj.setdefault(edge[0], []).append(edge)
        color: dict[Path, int] = {}

        def acyclic(V: Path) -> bool:
            c = color.get(V)
            if c == 0:
                return False
            if c == 1:
                return True
            color[V] = 0
            for edge in adj.get(V, ()):
                if not acyclic(table[edge]):
                    return False
            color[V] = 1
            return True

        if not all(acyclic(V) for V in paths[(a, b)]):
            return RealizeResult("unknown",
                                 certificate={"reason": "whisker graph has a cycle"})
        collected: dict[tuple[Path, tuple[Edge, ...]], Path] = {}
        count = 0
        stack: list[tuple[Path, tuple[Edge, ...], Path]] = [
            (V, (), V) for V in reversed(paths[(a, b)])
        ]
        while stack:
            V, acc, here = stack.pop()
            collected[(V, acc)] = here
            count += 1
            if count > max_arrows:
                return RealizeResult("unknown",
                                     certificate={"reason": "2-cell budget exhausted"})
            for edge in sorted(adj.get(here, ()), reverse=True):
                stack.append((V, acc + (edge,), table[edge]))
        hom_paths[(a, b)] = collected

    # congruence generators per hom
    gen_pairs: dict[tuple[str, str], list[tuple[tuple[Edge, ...], tuple[Edge, ...]]]] = {
        key: [] for key in hom_edges
    }
    for (a, b), table in hom_edges.items():
        pairs = gen_pairs[(a, b)]
        for (V, p1, t1) in table:
            l1 = len(p.two_src[t1])
            for (V2, p2, t2) in table:
                if V2 != V or p2 < p1:
                    continue
                l2 = len(p.two_src[t2])
                if p2 < p1 + l1 or (l1 == 0 and p2 == p1):
                    continue  # overlapping segments (or ambiguous empty overlap)
                W1 = table[(V, p1, t1)]
                delta1 = len(p.two_dst[t1]) - l1
                e2_after = (W1, p2 + delta1, t2)
                W2 = table[(V, p2, t2)]
                e1_after = (W2, p1, t1)
                if e2_after in table and e1_after in table:
                    pairs.append((((V, p1, t1), e2_after), ((V, p2, t2), e1_after)))

    def instantiate(seq: tuple[WhiskerStep, ...], V: Path, offset: int,
                    table: dict[Edge, Path]) -> Optional[tuple[Edge, ...]]:
        out: list[Edge] = []
        current = V
        for step in seq:
            edge = (current, offset + len(step.left), step.gen)
            if edge not in table:
                return None
            out.append(edge)
            current = table[edge]
        return tuple(out)

    def seq_source(seq: tuple[WhiskerStep, ...]) -> Optional[Path]:
        if not seq:
            return None
        s = seq[0]
        return s.left + p.two_src[s.gen] + s.right

    for lhs_seq, rhs_seq in p.relations:
        segment = seq_source(lhs_seq) or seq_source(rhs_seq)
        if segment is None:
            continue
        for (a, b), ps in paths.items():
            table = hom_edges[(a, b)]
            for V in ps:
                for off in range(len(V) - len(segment) + 1):
                    if V[off:off + len(segment)] != segment:
                        continue
                    il = instantiate(lhs_seq, V, off, table)
                    ir = instantiate(rhs_seq, V, off, table)
                    if il is not None and ir is not None and il != ir:
                        gen_pairs[(a, b)].append((il, ir))

    # union-find on parallel edge-paths, closed under inner substitution
    finders: dict[tuple[str, str], _UnionFind] = {}
    for (a, b), collected in hom_paths.items():
        uf = _UnionFind()
        for k in collected:
            uf.add(k)
        pairs = gen_pairs[(a, b)]
        changed = True
        while changed:
            changed = False
            for (V, q) in list(uf.parent):
                for s1, s2 in pairs:
                    for before, after in ((s1, s2), (s2, s1)):
                        n = len(before)
                        for i in range(len(q) - n + 1):
                            if q[i:i + n] == before:
                                other = (V, q[:i] + after + q[i + n:])
                                if other in uf.parent and uf.find(other) != uf.find((V, q)):
                                    uf.union(other, (V, q))
                                    changed = True
        finders[(a, b)] = uf

    # hom categories
    hom: dict[tuple[str, str], FinCat] = {}
    class_name: dict[tuple[str, str], dict] = {}
    for (a, b), uf in finders.items():
        find = uf.find
        endpoints = hom_paths[(a, b)]
        reps = sorted({find(k) for k in endpoints})
        names = {r: f"<{i}>" for i, r in enumerate(reps)}
        class_name[(a, b)] = names
        objects = [_word_id(a, w) for w in paths[(a, b)]]
        src = {}
        dst = {}
        for r in reps:
            src[names[r]] = _word_id(a, r[0])
            dst[names[r]] = _word_id(a, endpoints[r])
        compose = {}
        for r1 in reps:
            for r2 in reps:
                if endpoints[r1] != r2[0]:
                    continue
                glued = (r1[0], r1[1] + r2[1])
                compose[(names[r2], names[r1])] = names[find(glued)]
        identity = {_word_id(a, w): names[find((w, ()))] for w in paths[(a, b)]}
        hom[(a, b)] = FinCat(objects, names.values(), src, dst, compose, identity)

    hom_full = {}
    for a in p.objects:
        for b in p.objects:
            hom_full[(a, b)] = hom.get((a, b), FinCat([], [], {}, {}, {}, {}))

    hcompose1 = {}
    hcompose2 = {}
    for (a, b), ps1 in paths.items():
        for (b2, c), ps2 in paths.items():
            if b2 != b:
                continue
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
    C2 = Fin2Cat(p.objects, hom_full, hcompose1, hcompose2, unit)
    return RealizeResult(
        "finite",
        two_category=C2,
        certificate={"one_cells": {f"{a}>{b}": len(v) for (a, b), v in paths.items()}},
    )


def realize(pres, budget: int = 200, max_arrows: int = 4000) -> RealizeResult:
    """Dispatch on the presentation kind."""
    if budget < 0:
        raise BudgetError(f"budget {budget} must be >= 0")
    if isinstance(pres, CatPresentation):
        return realize_cat(pres, budget, max_arrows)
    if isinstance(pres, TwoCatPresentation):
        return realize_twocat(pres, budget, max_arrows)
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
        A = boundary(n, D)
        inc = SimplicialMap(A, standard_simplex(n, D), {m: {c: c for c in A.cells[m]} for m in range(D + 1)},
                            check=False)
        for _ in range(2):
            inc = sd_map(inc, sd(inc.source)[1], sd(inc.target)[1])
        out.append(presented_inclusion(inc, level))
    return out
