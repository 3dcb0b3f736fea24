"""Finite-universe checking of the localizer axioms, and bounded closure of
a seed class of marked edges.

A :class:`DiagramUniverse` is a finite diagram of categories (level 1) or
2-categories (level 2): named nodes, named edges carrying functors, plus a
composite table recording which edge realizes each composable pair.  A
:class:`MarkedClass` is a set of edge names tagged as weak equivalences;
every name must be an edge of the universe it is checked in.

The three checkers are the only statement of the axioms: weak saturation
(identities, two-out-of-three, sections), final-object collapses, and the
slice criterion on every triangle whose slices are all present.
:func:`violations` runs them all, with replayable witnesses, and
:func:`closure` is their least fixed point: it marks every edge a violation
names until none is left to mark.  Every edge from a node meeting the
final criterion into any terminal node is a collapse edge; a node with
none is reported as a missing collapse edge, which marks nothing.  The
closure under-approximates the trace on the universe of the generated
class: no new objects are ever synthesized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Optional, Union

from .cat import (
    CatFunctor,
    FinCat,
    _by_source,
    _slice_objects,
    compose_functors,
    has_final_object,
    identity_functor,
    slice_functor,
)
from .errors import BudgetError, DomainError
from .twocat import (
    Fin2Cat,
    TwoFunctor,
    compose_two_functors,
    identity_two_functor,
    object_admits_final,
    slice_2functor,
)

Node = Union[FinCat, Fin2Cat]
EdgeFun = Union[CatFunctor, TwoFunctor]


@dataclass
class UniverseEdge:
    name: str
    src: str
    dst: str
    functor: EdgeFun


@dataclass
class MarkedClass:
    edges: frozenset[str]

    def __contains__(self, name: str) -> bool:
        return name in self.edges


@dataclass
class LocalizerViolation:
    axiom: str
    witness: dict

    def __repr__(self) -> str:
        return f"LocalizerViolation({self.axiom}: {self.witness})"


class DiagramUniverse:
    """Nodes, edges, and the composite/identity bookkeeping the checkers need.

    The facts the checkers read that depend on the universe alone (its
    identity edges, collapse edges and slice edges) are computed on first
    use and kept."""

    def __init__(self, level: int, nodes: Mapping[str, Node], edges: Mapping[str, UniverseEdge]):
        if level not in (1, 2):
            raise DomainError("level must be 1 or 2")
        self.level = level
        self.nodes = dict(nodes)
        self.edges = dict(edges)
        for e in self.edges.values():
            if e.src not in self.nodes or e.dst not in self.nodes:
                raise DomainError(f"edge {e.name!r} references a missing node")
        self._compose = compose_two_functors if level == 2 else compose_functors
        self._identity = identity_two_functor if level == 2 else identity_functor
        # identity edges
        self.identity_edges: dict[str, str] = {}
        for name, e in sorted(self.edges.items()):
            if e.src == e.dst and e.functor == self._identity(self.nodes[e.src]):
                self.identity_edges.setdefault(e.src, name)
        # composite table: (first, then) -> composite edge name, where present
        self.composites: dict[tuple[str, str], str] = {}
        leaving = _by_source(self.edges.items(), lambda item: item[1].src)
        for n1, e1 in self.edges.items():
            for n2, e2 in leaving.get(e1.dst, ()):
                comp = self._compose(e2.functor, e1.functor)
                for n3, e3 in leaving[e1.src]:
                    if e3.dst == e2.dst and e3.functor == comp:
                        self.composites[(n1, n2)] = n3
                        break

    # -- terminal nodes and finality --------------------------------------

    def terminal_nodes(self) -> tuple[str, ...]:
        """The nodes shaped like the terminal category (one object, one
        arrow) or 2-category (one object, and one 1-cell and one 2-cell on
        it), in name order.  They are all isomorphic."""
        out = []
        for name, C in sorted(self.nodes.items()):
            if len(C.objects) == 1:
                H = C if self.level == 1 else C.hom[(C.objects[0], C.objects[0])]
                if len(H.objects) == 1 and len(H.arrows) == 1:
                    out.append(name)
        return tuple(out)

    def node_satisfies_final_criterion(self, name: str) -> bool:
        C = self.nodes[name]
        if self.level == 1:
            return has_final_object(C) is not None
        return any(object_admits_final(C, z)[0] for z in C.objects)

    # -- facts computed on first use ---------------------------------------

    @cached_property
    def _identity_names(self) -> frozenset[str]:
        return frozenset(self.identity_edges.values())

    @cached_property
    def _collapses(self) -> list[tuple[str, list[str]]]:
        """Each node meeting the final criterion, in name order, with its
        collapse edges: every edge from it into a terminal node, in name
        order (none when the universe has no such edge)."""
        terminal = set(self.terminal_nodes())
        into = _by_source((n for n, e in sorted(self.edges.items()) if e.dst in terminal), lambda n: self.edges[n].src)
        return [(name, into.get(name, [])) for name in sorted(self.nodes) if self.node_satisfies_final_criterion(name)]

    @cached_property
    def _slices(self) -> dict[tuple[str, str, str], list[tuple[str, Optional[str]]]]:
        """Each recorded triangle's ``(object, slice edge)`` pairs over the
        objects of its base, ending at the first slice absent from the
        universe (paired with None).

        A slice functor is built only when some edge runs between
        categories with the objects of its two slices, which are named
        from the base's homs alone; otherwise the slice is absent."""
        make = slice_2functor if self.level == 2 else slice_functor
        ends: dict[tuple[tuple, tuple], list[str]] = {}
        for n, e in sorted(self.edges.items()):
            ends.setdefault((e.functor.source.objects, e.functor.target.objects), []).append(n)
        table = {}
        for (u, q), p in sorted(self.composites.items()):
            eu, ep, eq = self.edges[u], self.edges[p], self.edges[q]
            pairs = table[(u, p, q)] = []
            for c in self.nodes[eq.dst].objects:
                candidates = ends.get((self._slice_names(ep.functor, c), self._slice_names(eq.functor, c)), ())
                uc = make(eu.functor, ep.functor, eq.functor, c) if candidates else None
                name = next((n for n in candidates if self.edges[n].functor == uc), None)
                pairs.append((c, name))
                if name is None:
                    break
        return table

    def _slice_names(self, v: EdgeFun, c: str) -> tuple[str, ...]:
        """The objects of the slice of ``v`` over ``c``, in order."""
        C = v.target
        over = (lambda x: C.hom[(x, c)].objects) if self.level == 2 else (lambda x: C.hom(x, c))
        return tuple(sorted(_slice_objects(v, over)))


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def _marked_within(U: DiagramUniverse, W: MarkedClass) -> MarkedClass:
    """W, whose ids must all be edges of U: each checker, and so
    :func:`violations`, and :func:`closure` check it with this first."""
    stray = sorted(W.edges - U.edges.keys())
    if stray:
        raise DomainError(f"id {stray[0]!r} is not an edge of the universe")
    return W


def check_weak_saturation(U: DiagramUniverse, W: MarkedClass) -> list[LocalizerViolation]:
    """Identities marked; two-out-of-three over recorded composites; the
    section condition: a section whose idempotent composite is marked must
    itself be marked.

    The section rule reads the condition on the composite ``i . r`` (the
    idempotent); reading it on ``r . i``, which is an identity, would make
    the axiom vacuous.  See the README for the convention note.
    """
    _marked_within(U, W)
    out = []
    for node, edge in sorted(U.identity_edges.items()):
        if edge not in W:
            out.append(LocalizerViolation("identity", {"node": node, "edge": edge}))
    for (f, g), h in sorted(U.composites.items()):
        marked = [name in W for name in (f, g, h)]
        if sum(marked) == 2:
            missing = (f, g, h)[marked.index(False)]
            out.append(
                LocalizerViolation(
                    "two-out-of-three",
                    {"first": f, "then": g, "composite": h, "unmarked": missing},
                )
            )
    # sections: r . i = identity; if i . r is marked then i must be
    for (i, r), h in sorted(U.composites.items()):
        if h not in U._identity_names:
            continue
        idem = U.composites.get((r, i))
        if idem is not None and idem in W and i not in W:
            out.append(
                LocalizerViolation(
                    "section",
                    {"section": i, "retraction": r, "idempotent": idem},
                )
            )
    return out


def check_final_collapse(U: DiagramUniverse, W: MarkedClass) -> list[LocalizerViolation]:
    """Every edge from a node satisfying the final-object criterion into
    a terminal node (any of them, since all are isomorphic) must be
    marked.  A node with no such edge is a missing collapse edge."""
    _marked_within(U, W)
    out = []
    for name, collapses in U._collapses:
        if not collapses:
            out.append(LocalizerViolation("missing-collapse-edge", {"node": name}))
        out.extend(LocalizerViolation("final-collapse", {"node": name, "edge": e}) for e in collapses if e not in W)
    return out


def check_slice_triangle(
    U: DiagramUniverse, u: str, p: str, q: str, W: MarkedClass
) -> list[LocalizerViolation]:
    """If every slice of u over the base is marked, u must be marked."""
    _marked_within(U, W)
    if U.composites.get((u, q)) != p:
        raise DomainError(f"({u}, {p}, {q}) is not a recorded triangle")
    slice_edges = U._slices[(u, p, q)]
    if slice_edges and slice_edges[-1][1] is None:
        raise DomainError(f"slice of {u!r} over {slice_edges[-1][0]!r} is not present in the universe")
    if all(name in W for _, name in slice_edges) and u not in W:
        return [
            LocalizerViolation(
                "slice-criterion",
                {"edge": u, "triangle": (u, p, q), "slices": list(slice_edges)},
            )
        ]
    return []


def available_slice_triangles(U: DiagramUniverse) -> list[tuple[str, str, str]]:
    """Triangles whose slice edges are all present in the universe."""
    return [t for t, pairs in U._slices.items() if all(name is not None for _, name in pairs)]


def violations(U: DiagramUniverse, W: MarkedClass) -> list[LocalizerViolation]:
    """Every checker's violations: weak saturation, then final collapses,
    then the slice criterion on each triangle whose slices are all present."""
    out = check_weak_saturation(U, W) + check_final_collapse(U, W)
    for (u, p, q) in available_slice_triangles(U):
        out += check_slice_triangle(U, u, p, q, W)
    return out


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------

# the witness key of the edge each kind of violation says must be marked;
# a missing collapse edge marks nothing
_MUST_MARK = {
    "identity": "edge",
    "two-out-of-three": "unmarked",
    "section": "section",
    "final-collapse": "edge",
    "slice-criterion": "edge",
}


def closure(U: DiagramUniverse, seed: MarkedClass, budget: int = 50) -> MarkedClass:
    """The least marked class containing ``seed`` that no violation asks to
    grow, within the universe and up to ``budget`` sweeps: each sweep marks
    every edge that :func:`violations` names."""
    if budget < 0:
        raise BudgetError(f"budget {budget} must be >= 0")
    marked = MarkedClass(frozenset(_marked_within(U, seed).edges))
    for _ in range(budget):
        new = {v.witness[_MUST_MARK[v.axiom]] for v in violations(U, marked) if v.axiom in _MUST_MARK}
        if not new:
            break
        marked = MarkedClass(marked.edges | new)
    return marked
