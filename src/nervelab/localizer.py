"""Finite-universe checking of weak saturation and the localizer axioms,
and bounded closure of a seed class of marked edges.

A :class:`DiagramUniverse` is a finite diagram of categories (level 1) or
2-categories (level 2): named nodes, named edges carrying functors, plus a
composite table recording which edge realizes each composable pair.  A
:class:`MarkedClass` is a set of edge names tagged as weak equivalences.

The checkers report violations with replayable witnesses; ``closure``
computes the least fixed point of the marking rules inside the universe
(identities, two-out-of-three, final-object collapses, and the slice
criterion whenever all slices are present).  The result under-approximates
the trace on the universe of the generated class: no new objects are ever
synthesized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Union

from .cat import CatFunctor, FinCat, compose_functors, has_final_object, identity_functor, slice_functor
from .errors import DomainError
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
    """Nodes, edges, and the composite/identity bookkeeping the checkers need."""

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
        for n1, e1 in self.edges.items():
            for n2, e2 in self.edges.items():
                if e1.dst != e2.src:
                    continue
                comp = self._compose(e2.functor, e1.functor)
                for n3, e3 in self.edges.items():
                    if e3.src == e1.src and e3.dst == e2.dst and e3.functor == comp:
                        self.composites[(n1, n2)] = n3
                        break
        self._slice_cache: dict = {}

    # -- terminal node and finality --------------------------------------

    def terminal_node(self) -> Optional[str]:
        for name, C in sorted(self.nodes.items()):
            if self.level == 1:
                if len(C.objects) == 1 and len(C.arrows) == 1:
                    return name
            else:
                if len(C.objects) == 1:
                    H = C.hom[(C.objects[0], C.objects[0])]
                    if len(H.objects) == 1 and len(H.arrows) == 1:
                        return name
        return None

    def node_satisfies_final_criterion(self, name: str) -> bool:
        C = self.nodes[name]
        if self.level == 1:
            return has_final_object(C) is not None
        return any(object_admits_final(C, z)[0] for z in C.objects)

    # -- slices ------------------------------------------------------------

    def slice_edge_of(self, u: str, p: str, q: str, c: str) -> Optional[str]:
        """The universe edge realizing u/c for the triangle q . u = p, or None."""
        key = (u, p, q, c)
        if key in self._slice_cache:
            return self._slice_cache[key]
        eu, ep, eq = self.edges[u], self.edges[p], self.edges[q]
        make = slice_2functor if self.level == 2 else slice_functor
        uc = make(eu.functor, ep.functor, eq.functor, c)
        found = None
        for name, e in sorted(self.edges.items()):
            if e.functor == uc:
                found = name
                break
        self._slice_cache[key] = found
        return found

    def triangles(self) -> list[tuple[str, str, str]]:
        """All (u, p, q) with q . u = p recorded in the composite table."""
        out = []
        for (u, q), p in sorted(self.composites.items()):
            out.append((u, p, q))
        return out


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def check_weak_saturation(U: DiagramUniverse, W: MarkedClass) -> list[LocalizerViolation]:
    """Identities marked; two-out-of-three over recorded composites; the
    section condition: a section whose idempotent composite is marked must
    itself be marked.

    The section rule reads the condition on the composite ``i . r`` (the
    idempotent); reading it on ``r . i``, which is an identity, would make
    the axiom vacuous.  See the README for the convention note.
    """
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
        if h not in set(U.identity_edges.values()):
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
    """Every node satisfying the final-object criterion must have its
    (unique) edge to the terminal node present and marked."""
    e = U.terminal_node()
    if e is None:
        raise DomainError("the universe has no terminal node")
    out = []
    for name in sorted(U.nodes):
        if not U.node_satisfies_final_criterion(name):
            continue
        collapse = None
        for ename, edge in sorted(U.edges.items()):
            if edge.src == name and edge.dst == e:
                collapse = ename
                break
        if collapse is None:
            out.append(LocalizerViolation("missing-collapse-edge", {"node": name}))
        elif collapse not in W:
            out.append(
                LocalizerViolation("final-collapse", {"node": name, "edge": collapse})
            )
    return out


def check_slice_triangle(
    U: DiagramUniverse, u: str, p: str, q: str, W: MarkedClass
) -> list[LocalizerViolation]:
    """If every slice of u over the base is marked, u must be marked."""
    if U.composites.get((u, q)) != p:
        raise DomainError(f"({u}, {p}, {q}) is not a recorded triangle")
    C = U.nodes[U.edges[q].dst]
    slice_edges = []
    for c in C.objects:
        name = U.slice_edge_of(u, p, q, c)
        if name is None:
            raise DomainError(f"slice of {u!r} over {c!r} is not present in the universe")
        slice_edges.append((c, name))
    if all(name in W for _, name in slice_edges) and u not in W:
        return [
            LocalizerViolation(
                "slice-criterion",
                {"edge": u, "triangle": (u, p, q), "slices": slice_edges},
            )
        ]
    return []


def available_slice_triangles(U: DiagramUniverse) -> list[tuple[str, str, str]]:
    """Triangles whose slice edges are all present in the universe."""
    out = []
    for (u, p, q) in U.triangles():
        C = U.nodes[U.edges[q].dst]
        if all(U.slice_edge_of(u, p, q, c) is not None for c in C.objects):
            out.append((u, p, q))
    return out


# ---------------------------------------------------------------------------
# closure
# ---------------------------------------------------------------------------

def closure(U: DiagramUniverse, seed: MarkedClass, budget: int = 50) -> MarkedClass:
    """Least fixed point (within the universe, up to the sweep budget) of:
    mark identities, close under two-out-of-three, mark final-object
    collapses, and apply the slice criterion when all slices are present."""
    marked = set(seed.edges)
    terminal = U.terminal_node()
    triangles = available_slice_triangles(U)
    for _ in range(budget):
        before = len(marked)
        marked.update(U.identity_edges.values())
        for (f, g), h in U.composites.items():
            flags = [f in marked, g in marked, h in marked]
            if sum(flags) == 2:
                for name in (f, g, h):
                    marked.add(name)
        if terminal is not None:
            for name in U.nodes:
                if U.node_satisfies_final_criterion(name):
                    for ename, edge in U.edges.items():
                        if edge.src == name and edge.dst == terminal:
                            marked.add(ename)
        for (u, p, q) in triangles:
            if u in marked:
                continue
            C = U.nodes[U.edges[q].dst]
            if all(U.slice_edge_of(u, p, q, c) in marked for c in C.objects):
                marked.add(u)
        if len(marked) == before:
            break
    return MarkedClass(frozenset(marked))
