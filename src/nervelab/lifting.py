"""Lifting problems, right-lifting-property tests, bounded small-object
factorization, and homotopy-pushout comparison.

Lift search works in three ambients: simplicial maps, functors between
finite categories, and strict 2-functors.  Factorization and the homotopy
pushout are simplicial (they need pushouts, which this library only
materializes for simplicial sets).

All claims are bounded by the ambient truncation; a factorization report
records the bound alongside its residual problems.

A factorization stage is one pushout along the coproduct of its squares'
generators.  Sweeps are semi-naive: after the first, a sweep builds only
the generator squares whose top meets a cell the last stage attached
(``generator_squares(..., meeting=...)``); the others provably have
fillers, so reports are those of full sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Union

from .cat import CatFunctor, _functor_problem, compose_functors
from .errors import BudgetError, ContractError
from .homology import EvidenceReport, weak_equivalence_evidence
from .simplicial import (
    SimplicialMap,
    SimplicialSet,
    _colimit,
    _search,
    _simplicial_problem,
    compose_maps,
    constant_map,
    identity_map,
    product_projections,
    pushout_induced,
    standard_simplex,
)
from .twocat import TwoFunctor, _two_functor_problem, compose_two_functors

Map = Union[SimplicialMap, CatFunctor, TwoFunctor]


def _ambient(m: Map) -> tuple[Callable[[object, object], tuple], Callable[[Map, Map], Map]]:
    """The map-search compiler and the composition of the ambient ``m``
    lives in.  A compiled search runs any number of times under
    :func:`_search`, with its own pins and veto each time."""
    if isinstance(m, SimplicialMap):
        return _simplicial_problem, compose_maps
    if isinstance(m, CatFunctor):
        return _functor_problem, compose_functors
    return _two_functor_problem, compose_two_functors


def _compose(g: Map, f: Map) -> Map:
    return _ambient(f)[1](g, f)


@dataclass
class LiftingProblem:
    """A commuting square: ``i: A -> B`` on the left, ``p: X -> Y`` on the
    right, ``top: A -> X`` and ``bottom: B -> Y``."""

    i: Map
    p: Map
    top: Map
    bottom: Map
    # the compiled search for maps i.target -> p.source and the table of p,
    # shared by the squares of one generator_squares call; find_lift builds
    # both for any other square and does not keep them
    _fillers: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        kinds = {type(self.i), type(self.p), type(self.top), type(self.bottom)}
        if len(kinds) != 1:
            raise ContractError("i, p, top, bottom: all four maps must live in the same ambient")
        _check_bounds(self.i, self.p)
        if self._composite("p", "top") != self._composite("bottom", "i"):
            raise ContractError("i, p, top, bottom: the square does not commute")

    def _composite(self, g: str, f: str) -> Map:
        """The composite of two sides of the square, named by the sides if
        they do not compose."""
        try:
            return _compose(getattr(self, g), getattr(self, f))
        except ContractError as exc:
            raise ContractError(f"{f}, {g}: {exc}") from exc


def _check_bounds(i: Map, p: Map) -> None:
    """Refuse simplicial maps truncated at different levels: a square of
    them would pin cells that one side does not have."""
    if isinstance(i, SimplicialMap) and isinstance(p, SimplicialMap) and i.bound != p.bound:
        raise ContractError(f"i, p: truncation bounds {i.bound} and {p.bound} differ")


def _pins(i: Map, top: Map) -> Optional[dict]:
    """The pins ``i(a) -> top(a)`` on the cells of i's target, or None when
    i identifies two cells that ``top`` separates."""
    image = dict(top.assignments())
    pin: dict = {}
    for a, b in i.assignments():
        if pin.setdefault(b, image[a]) != image[a]:
            return None
    return pin


def find_lift(P: LiftingProblem) -> Optional[Map]:
    """A filler ``h: B -> X`` with ``h.i = top`` and ``p.h = bottom``,
    found by canonical-order backtracking; None only after exhaustion."""
    pin = _pins(P.i, P.top)
    if pin is None:
        return None
    fillers, over = P._fillers or (_ambient(P.i)[0](P.i.target, P.p.source), dict(P.p.assignments()))
    under = dict(P.bottom.assignments())
    lifts = _search(*fillers, pin=pin, allow=lambda b, x: over[x] == under[b])
    return next(lifts, None)


# ---------------------------------------------------------------------------
# RLP tests
# ---------------------------------------------------------------------------

def generator_squares(
    p: Map, i: Map, *, meeting: Optional[set] = None
) -> Iterator[LiftingProblem]:
    """All commuting squares from the generator i to p, in canonical order.

    With ``meeting``, a set of cell keys of ``p.source``, only the squares
    whose top hits one of those cells; a top that misses them all is
    skipped before its bottoms are searched.  None means every square.

    Each of the three searches is compiled once per call, and the squares
    share the compiled search for their fillers and the table of p.  The
    pins of a bottom map force it to agree with ``p . top`` on i's image,
    so every square commutes; :class:`LiftingProblem` checks it."""
    _check_bounds(i, p)
    compile_search, compose = _ambient(i)
    bottoms = compile_search(i.target, p.target)
    fillers = compile_search(i.target, p.source), dict(p.assignments())
    for u in _search(*compile_search(i.source, p.source)):
        if meeting is not None and meeting.isdisjoint(image for _, image in u.assignments()):
            continue
        pin = _pins(i, compose(p, u))
        if pin is None:
            continue
        for v in _search(*bottoms, pin=pin):
            square = LiftingProblem(i, p, u, v)
            square._fillers = fillers
            yield square


def has_rlp(p: Map, generators: Sequence[Map]) -> tuple[bool, Optional[LiftingProblem]]:
    """True when every generator square has a filler; otherwise the first
    unsolvable square in canonical order is returned as the counterexample."""
    for i in generators:
        for square in generator_squares(p, i):
            if find_lift(square) is None:
                return False, square
    return True, None


# ---------------------------------------------------------------------------
# bounded small-object factorization (simplicial)
# ---------------------------------------------------------------------------

@dataclass
class Attachment:
    stage: int
    generator: int
    top: str  # canonical encoding of the attaching map at attach time
    bottom: str


@dataclass
class FactorizationReport:
    """``f = right . left`` with ``left`` a relative cell complex.

    ``residual`` lists the generator squares against the right factor that
    remained unsolved when the stage budget ran out (empty residual
    certifies the RLP within the truncation bound).
    """

    middle: SimplicialSet
    left: SimplicialMap
    right: SimplicialMap
    attachments: list[Attachment] = field(default_factory=list)
    residual: list[LiftingProblem] = field(default_factory=list)
    stages: int = 0
    bound: int = 0

    def composite_equals_input(self, f: SimplicialMap) -> bool:
        return compose_maps(self.right, self.left) == f


def small_object_factorize(
    f: SimplicialMap, generators: Sequence[SimplicialMap], stage_budget: int
) -> FactorizationReport:
    """Factor ``f`` as a relative cell complex followed by a map with the
    RLP against the generators, within the stage budget.

    Each stage collects every unsolved generator square against the current
    right factor and attaches all of them at once: the new middle is one
    colimit of the old middle and each square's ``B``, glued along the
    squares' tops and generators.  The squares the last sweep leaves
    unsolved are the residual.

    Only the first sweep builds every square.  A later one builds only the
    squares whose top meets a cell the last stage attached: when the old
    middle's injection into the new one is injective (pushouts along monos
    are monos), a top that misses every new cell factors through the old
    middle, where its square had a filler or got one attached, and that
    filler followed by the injection still fills it.  After a stage whose
    injection is not injective (a generator that is not a mono), the next
    sweep is full.
    """
    if stage_budget < 0:
        raise BudgetError("stage budget must be >= 0")
    X, Y = f.source, f.target
    left = identity_map(X)
    q = f
    Z = X
    attachments: list[Attachment] = []
    stages = 0
    fresh: Optional[set] = None  # the cells of Z the last stage attached; None: every square
    while True:
        unsolved = [(gi, square) for gi, i in enumerate(generators)
                    for square in generator_squares(q, i, meeting=fresh) if find_lift(square) is None]
        if not unsolved or stages == stage_budget:
            break
        stages += 1
        # tagged as one pushout per square in order would tag Z and each B
        k = len(unsolved)
        pieces = [("L:" * k, Z)] + [("L:" * (k - j) + "R:", s.i.target) for j, (_, s) in enumerate(unsolved, 1)]
        P, jz, *jbs = _colimit(pieces, [(0, s.top, j, s.i) for j, (_, s) in enumerate(unsolved, 1)])
        attachments += [Attachment(stages, gi, s.top.encode(), s.bottom.encode()) for gi, s in unsolved]
        q = pushout_induced(P, (jz, q), *((jb, s.bottom) for jb, (_, s) in zip(jbs, unsolved)))
        left = compose_maps(jz, left)
        kept = {image for _, image in jz.assignments()}
        injective = len(kept) == sum(map(len, Z.cells.values()))
        Z = P
        fresh = {(n, c) for n, cells in Z.cells.items() for c in cells} - kept if injective else None
    return FactorizationReport(
        middle=Z,
        left=left,
        right=q,
        attachments=attachments,
        residual=[square for _, square in unsolved],
        stages=stages,
        bound=min(X.dim_bound, Y.dim_bound),
    )


# ---------------------------------------------------------------------------
# homotopy pushout
# ---------------------------------------------------------------------------

def cylinder_inclusions(A: SimplicialSet, D: int) -> tuple[SimplicialSet, SimplicialMap, SimplicialMap, SimplicialMap]:
    """``A x Delta_1`` with its two end inclusions and the projection to A."""
    interval = standard_simplex(1, D)
    proj_a, proj_i = product_projections(A, interval)
    Cyl = proj_a.source
    named = {(n, a, proj_i(n, c)): c for n, level in proj_a.levels.items() for c, a in level.items()}
    i0, i1 = (SimplicialMap(A, Cyl, {n: {a: named[(n, a, v)] for a, v in level.items()}
                                     for n, level in constant_map(A, interval, vertex).levels.items()},
                            check=False) for vertex in "01")
    return Cyl, i0, i1, proj_a


def _double_cylinder(f: SimplicialMap, g: SimplicialMap) -> tuple:
    """The cylinder on ``A`` glued to X along ``f`` at its 0 end and to Y
    along ``g`` at its 1 end, in one colimit.

    Returns ``(P, X -> P, Y -> P, Cyl -> P, Cyl -> A)``.
    """
    if f.source != g.source:
        raise ContractError("f, g: span legs must share their source")
    A = f.source
    D = min(f.target.dim_bound, g.target.dim_bound, A.dim_bound)
    Cyl, i0, i1, proj = cylinder_inclusions(A, D)
    # tagged as gluing X to the cylinder first, and then Y, would tag them
    P, jy, jx, jcyl = _colimit([("L:", g.target), ("R:L:", f.target), ("R:R:", Cyl)],
                               [(1, f, 2, i0), (0, g, 2, i1)])
    return P, jx, jy, jcyl, proj


def homotopy_pushout(
    f: SimplicialMap, g: SimplicialMap
) -> tuple[SimplicialSet, SimplicialMap, SimplicialMap, SimplicialMap]:
    """The double mapping cylinder of ``X <-f- A -g-> Y``.

    Returns ``(P, X -> P, Y -> P, Cyl -> P)``, where ``Cyl`` is the
    cylinder ``A x Delta_1`` of :func:`cylinder_inclusions`.
    """
    return _double_cylinder(f, g)[:4]


def is_homotopy_cocartesian(
    f: SimplicialMap,
    g: SimplicialMap,
    x: SimplicialMap,
    y: SimplicialMap,
    k: int,
) -> EvidenceReport:
    """Homology comparison (through degree k) of the canonical map from the
    double mapping cylinder of the span to the square's corner."""
    h = _compose(x, f)
    if h != _compose(y, g):
        raise ContractError("the square does not commute")
    P, jx, jy, jcyl, proj = _double_cylinder(f, g)
    c = pushout_induced(P, (jx, x), (jy, y), (jcyl, compose_maps(h, proj)))
    return weak_equivalence_evidence(c, k)
