"""Lift search, RLP tests, bounded factorization, homotopy pushouts."""

import hashlib
import itertools
import json

import pytest

from nervelab import corpus, lifting
from nervelab.cat import (
    CatFunctor,
    arrow_category,
    chain_category,
    discrete_category,
    identity_functor,
    terminal_category,
)
from nervelab.errors import ContractError
from nervelab.homology import homology
from nervelab.lifting import (
    Attachment,
    FactorizationReport,
    LiftingProblem,
    cylinder_inclusions,
    find_lift,
    generator_squares,
    has_rlp,
    homotopy_pushout,
    is_homotopy_cocartesian,
    small_object_factorize,
)
from nervelab.serialize import canonical_json, factorization_to_doc
from nervelab.simplicial import (
    SimplicialMap,
    boundary,
    compose_maps,
    constant_map,
    empty_simplicial_set,
    horn,
    identity_map,
    product_projections,
    pushout,
    pushout_induced,
    standard_simplex,
    validate,
    validate_map,
)


def inclusion(A, B):
    return SimplicialMap(A, B, {n: {c: c for c in A.cells[n]} for n in range(min(A.dim_bound, B.dim_bound) + 1)})


def to_point(X, D=None):
    P = standard_simplex(0, X.dim_bound if D is None else D)
    return constant_map(X, P, "0")


def boundary_inclusions(n_max, D):
    return [inclusion(boundary(n, D), standard_simplex(n, D)) for n in range(n_max + 1)]


# -- find_lift -----------------------------------------------------------------

def test_lift_exists_horn_like():
    i = inclusion(boundary(1, 1), standard_simplex(1, 1))
    p = to_point(standard_simplex(1, 1))
    u = inclusion(boundary(1, 1), standard_simplex(1, 1))
    v = to_point(standard_simplex(1, 1))
    h = find_lift(LiftingProblem(i, p, u, v))
    assert h is not None
    assert compose_maps(h, i) == u
    assert compose_maps(p, h) == v


def test_lift_missing_for_two_point_target():
    # p: two-point discrete -> point cannot lift a boundary hitting both points
    two = boundary(1, 1)
    i = inclusion(boundary(1, 1), standard_simplex(1, 1))
    p = to_point(two)
    u = identity_map(two)
    v = to_point(standard_simplex(1, 1))
    assert find_lift(LiftingProblem(i, p, u, v)) is None


def test_lift_along_identity_is_top():
    X = boundary(2, 2)
    i = identity_map(X)
    p = to_point(X)
    u = identity_map(X)
    v = compose_maps(p, u)
    h = find_lift(LiftingProblem(i, p, u, v))
    assert h == u


def test_noncommuting_square_rejected():
    two = boundary(1, 1)
    i = inclusion(two, standard_simplex(1, 1))
    p = identity_map(two)
    u = identity_map(two)
    swap = SimplicialMap(
        standard_simplex(1, 1), two,
        {0: {"0": "1", "1": "0"}, 1: {"00": "11", "01": "11", "11": "00"}},
        check=False,
    )
    with pytest.raises(ContractError):
        LiftingProblem(i, p, u, swap)


def test_maps_truncated_at_different_bounds_are_refused():
    # i at bound 2 against p at bound 1: i pins level-2 cells p has no image for
    i = inclusion(boundary(1, 2), standard_simplex(1, 2))
    p = to_point(standard_simplex(1, 1))
    u = inclusion(boundary(1, 1), standard_simplex(1, 1))
    v = to_point(standard_simplex(1, 2), 1)
    for refuse in (lambda: LiftingProblem(i, p, u, v), lambda: list(generator_squares(p, i))):
        with pytest.raises(ContractError, match="i, p: truncation bounds 2 and 1 differ"):
            refuse()


def test_lift_in_cat_ambient():
    # extend a functor along the inclusion of an endpoint into the arrow
    A = terminal_category()
    B = arrow_category()
    C2 = chain_category(2)
    i = CatFunctor(A, B, {"*": "0"}, {"id_*": "id_0"})
    p = identity_functor(C2)
    u = CatFunctor(A, C2, {"*": "0"}, {"id_*": "id_0"})
    v = CatFunctor(B, C2, {"0": "0", "1": "2"},
                   {"id_0": "id_0", "id_1": "id_2", "0<=1": "0<=2"})
    h = find_lift(LiftingProblem(i, p, u, v))
    assert h is not None and h.objects == {"0": "0", "1": "2"}


def test_lift_in_two_cat_ambient():
    from nervelab.twocat import (
        as_two_category,
        as_two_functor,
        identity_two_functor,
    )

    A = as_two_category(terminal_category())
    B = as_two_category(arrow_category())
    i = as_two_functor(CatFunctor(terminal_category(), arrow_category(), {"*": "0"}, {"id_*": "id_0"}))
    p = identity_two_functor(B)
    u = as_two_functor(CatFunctor(terminal_category(), arrow_category(), {"*": "0"}, {"id_*": "id_0"}))
    v = identity_two_functor(B)
    h = find_lift(LiftingProblem(i, p, u, v))
    assert h is not None


# -- has_rlp ---------------------------------------------------------------------

def test_identity_has_rlp():
    X = boundary(2, 2)
    ok, _ = has_rlp(identity_map(X), boundary_inclusions(2, 2))
    assert ok


def test_point_has_rlp():
    pt = standard_simplex(0, 2)
    ok, _ = has_rlp(identity_map(pt), boundary_inclusions(2, 2))
    assert ok


def test_interval_to_point_fails_rlp_with_decreasing_witness():
    D = 2
    p = to_point(standard_simplex(1, D))
    ok, witness = has_rlp(p, boundary_inclusions(2, D))
    assert not ok
    assert witness is not None
    # the minimal counterexample sends the boundary vertices in decreasing order
    assert witness.top.levels[0] == {"0": "1", "1": "0"}


# -- factorization ----------------------------------------------------------------

def test_factorize_with_no_generators():
    f = to_point(boundary(1, 1))
    rep = small_object_factorize(f, [], 5)
    assert rep.stages == 0
    assert rep.residual == []
    assert rep.composite_equals_input(f)
    assert rep.left == identity_map(f.source)


def test_factorize_empty_into_point():
    D = 1
    E = empty_simplicial_set(D)
    pt = standard_simplex(0, D)
    f = SimplicialMap(E, pt, {})
    gen = SimplicialMap(E, pt, {})
    rep = small_object_factorize(f, [gen], 3)
    assert rep.stages == 1
    assert rep.residual == []
    assert len(rep.attachments) == 1
    assert rep.composite_equals_input(f)
    assert len(rep.middle.level(0)) == 1


def test_factorize_boundary_two_to_point():
    D = 3
    f = to_point(boundary(2, D))
    gens = boundary_inclusions(3, D)
    rep = small_object_factorize(f, gens, 6)
    assert rep.residual == []
    assert rep.composite_equals_input(f)
    assert validate(rep.middle) == []
    ok, _ = has_rlp(rep.right, gens)
    assert ok
    # the left factor replays: each attachment is a generator cell
    assert rep.attachments
    assert rep.stages <= 6


def counted_sweeps(monkeypatch):
    """The generators that ``generator_squares`` is called with, in order."""
    calls = []
    real = lifting.generator_squares

    def counted(p, i, **kwargs):
        calls.append(i)
        return real(p, i, **kwargs)

    monkeypatch.setattr(lifting, "generator_squares", counted)
    return calls


def test_factorize_sweeps_each_right_factor_once(monkeypatch):
    # three stages, then one sweep that finds every square solved: that
    # sweep is the (empty) residual, so no fifth sweep runs
    gens = boundary_inclusions(3, 3)
    calls = counted_sweeps(monkeypatch)
    rep = small_object_factorize(to_point(boundary(2, 3)), gens, 6)
    assert (rep.stages, rep.residual) == (3, [])
    assert len(calls) == 4 * len(gens)


@pytest.mark.parametrize("budget,report,residual", [
    (0, "504e0224fb44677fb60f30b26c06e433526f0eb69268bbda11ebc2a215e5cafa",
     "65abdc941bead4bf45ca8fe6eac7546d1c04c0376daff8026c1d352586ba735e"),
    (1, "a7252190e96dfad39cb7d0fcf4f00b3edf401c776d54e0797f66c4a39a884a24",
     "a1f271538c201286bbcf0059d2576a2efcd68501fc5f7fcf203ed1ea478763cc"),
    (2, "c5d885e24b4153a53bd2ce2c474d3ba4fcfb824c1ac20fb0d4bda3409978369d",
     "11c35de4160eacded11606948f4c0ed4928e2f0e9e83e9ee7b0a256b6e309981"),
])
def test_factorize_out_of_budget_is_pinned(budget, report, residual, monkeypatch):
    """The report and the unsolved squares of runs whose stage budget runs
    out, pinned by SHA-256 from before the last sweep became the residual."""
    gens = boundary_inclusions(3, 3)
    calls = counted_sweeps(monkeypatch)
    rep = small_object_factorize(to_point(boundary(2, 3)), gens, budget)
    assert rep.stages == budget and rep.residual
    assert len(calls) == (budget + 1) * len(gens)
    squares = [[s.i.encode(), s.top.encode(), s.bottom.encode()] for s in rep.residual]
    assert hashlib.sha256(canonical_json(factorization_to_doc(rep)).encode()).hexdigest() == report
    assert hashlib.sha256(json.dumps(squares).encode()).hexdigest() == residual


@pytest.mark.parametrize("name,report", [
    ("circle", "ecd0b9d0cf14a8210b2e40b9fad756ce04eea6bc644a8537c0abfc8bd49dbd07"),
    ("horn21", "27fc76f601fb42308581822330eb8e1ddba67aaa07b8e02ab06de216e279c39a"),
    ("boundary1", "c28958a0839866766b7f27b8ac388d389baa450a4ac5a654258996a9c9aa15a0"),
])
def test_factorize_report_is_pinned(name, report):
    """The reports of three corpus spaces -> point at D=3 against
    ``boundaries:3``, pinned by SHA-256 from when every sweep built every
    square."""
    rep = small_object_factorize(to_point(corpus.simplicial_objects(3)[name]), boundary_inclusions(3, 3), 6)
    assert hashlib.sha256(canonical_json(factorization_to_doc(rep)).encode()).hexdigest() == report


# -- sweeps that build only the squares meeting the last stage's cells --------------

def full_sweep_reports(f, generators):
    """The reports of the small object argument at stage budget 0, 1, 2, ...
    with every sweep building and testing every generator square, up to the
    first sweep that finds them all solved: its report stands for every
    larger budget."""
    Z, left, q = f.source, identity_map(f.source), f
    attachments = []
    for stages in itertools.count():
        unsolved = [(gi, s) for gi, i in enumerate(generators)
                    for s in generator_squares(q, i) if find_lift(s) is None]
        yield FactorizationReport(Z, left, q, list(attachments), [s for _, s in unsolved], stages,
                                  min(f.source.dim_bound, f.target.dim_bound))
        if not unsolved:
            return
        carry = identity_map(Z)
        for gi, s in unsolved:
            P, jz, jb = pushout(compose_maps(carry, s.top), s.i)
            attachments.append(Attachment(stages + 1, gi, s.top.encode(), s.bottom.encode()))
            q = pushout_induced(P, (jz, q), (jb, s.bottom))
            carry, left, Z = compose_maps(jz, carry), compose_maps(jz, left), P


# (id, f, n): f is factored against boundaries:n at its bound
FACTORIZATIONS = (
    [(f"{name}-to-point-D2", to_point(X), 2) for name, X in corpus.simplicial_objects(2).items()]
    + [(f"{name}-to-point-D3", to_point(corpus.simplicial_objects(3)[name]), 3)
       for name in ("boundary1", "circle", "horn21", "boundary2")]
    + [("horn21-into-simplex2-D2", inclusion(horn(2, 1, 2), standard_simplex(2, 2)), 2),
       ("boundary2-into-simplex2-D2", inclusion(boundary(2, 2), standard_simplex(2, 2)), 2)]
)


@pytest.mark.parametrize("f,n", [row[1:] for row in FACTORIZATIONS], ids=[row[0] for row in FACTORIZATIONS])
def test_factorize_matches_full_sweeps(f, n):
    gens = boundary_inclusions(n, f.bound)
    reports = list(itertools.islice(full_sweep_reports(f, gens), 7))
    for budget in (0, 1, 2, 6):
        expected = reports[min(budget, len(reports) - 1)]
        rep = small_object_factorize(f, gens, budget)
        assert canonical_json(factorization_to_doc(rep)) == canonical_json(factorization_to_doc(expected))


@pytest.mark.parametrize("budget", [0, 1, 2, 6])
def test_factorize_with_a_generator_that_is_not_a_mono_matches_full_sweeps(budget):
    # attaching along the fold ∂Δ¹ -> Δ⁰ identifies two vertices, so the
    # old middle does not embed in the new one
    f = to_point(corpus.simplicial_objects(2)["horn21"])
    gens = [to_point(boundary(1, 2))] + boundary_inclusions(2, 2)
    reports = list(itertools.islice(full_sweep_reports(f, gens), budget + 1))
    rep = small_object_factorize(f, gens, budget)
    assert canonical_json(factorization_to_doc(rep)) == canonical_json(factorization_to_doc(reports[-1]))


@pytest.mark.parametrize("name", ["circle", "horn21", "boundary2"])
def test_squares_a_later_sweep_skips_have_fillers(name, monkeypatch):
    real = lifting.generator_squares
    meetings, skipped = [], []

    def checked(p, i, *, meeting=None):
        meetings.append(meeting)
        built = list(real(p, i, meeting=meeting))
        kept = {(s.top.encode(), s.bottom.encode()) for s in built}
        skipped.extend(s for s in real(p, i) if (s.top.encode(), s.bottom.encode()) not in kept)
        return iter(built)

    monkeypatch.setattr(lifting, "generator_squares", checked)
    gens = boundary_inclusions(3, 3)
    small_object_factorize(to_point(corpus.simplicial_objects(3)[name]), gens, 6)
    assert meetings[:len(gens)] == [None] * len(gens)
    assert len(meetings) > len(gens) and None not in meetings[len(gens):]
    assert skipped and all(find_lift(s) is not None for s in skipped)


def test_generator_squares_meeting_keeps_the_tops_that_hit_it():
    p = to_point(standard_simplex(1, 2))
    i = inclusion(boundary(1, 2), standard_simplex(1, 2))
    tops = [s.top.levels[0] for s in generator_squares(p, i)]
    every = {key for key, _ in identity_map(p.source).assignments()}
    assert [s.top.levels[0] for s in generator_squares(p, i, meeting=every)] == tops
    assert list(generator_squares(p, i, meeting=set())) == []
    hit = [s.top.levels[0] for s in generator_squares(p, i, meeting={(0, "1")})]
    assert hit == [top for top in tops if "1" in top.values()] and len(hit) == 3


# -- homotopy pushout ----------------------------------------------------------------

def span_circle(D=3):
    A = boundary(1, D)
    X = standard_simplex(0, D)
    Y = standard_simplex(1, D)
    f = SimplicialMap(A, X, {n: {c: X.cells[n][0] for c in A.cells[n]} for n in range(D + 1)})
    g = inclusion(A, Y)
    return f, g


@pytest.mark.parametrize("name", corpus.simplicial_objects(2))
def test_cylinder_is_the_source_of_its_projection(name):
    """Each end i_v: A -> A x Delta_1 is a section of the projection to A
    whose projection to Delta_1 is constant at v."""
    A = corpus.simplicial_objects(2)[name]
    Cyl, i0, i1, proj = cylinder_inclusions(A, 2)
    assert Cyl is proj.source
    assert i0.target is Cyl and i1.target is Cyl
    assert validate_map(i0) == [] and validate_map(i1) == [] and validate_map(proj) == []
    interval = standard_simplex(1, 2)
    _, proj_i = product_projections(A, interval)
    for vertex, end in (("0", i0), ("1", i1)):
        assert compose_maps(proj, end) == identity_map(A), vertex
        assert compose_maps(proj_i, end) == constant_map(A, interval, vertex), vertex


def test_homotopy_pushout_of_circle_span_has_h1():
    f, g = span_circle(3)
    P, _, _, _ = homotopy_pushout(f, g)
    assert validate(P) == []
    h = homology(P, 1)
    assert h.degrees[0] == (1, ()) and h.degrees[1] == (1, ())


def test_square_of_identities_is_cocartesian():
    X = standard_simplex(1, 3)
    i = identity_map(X)
    r = is_homotopy_cocartesian(i, i, i, i, 1)
    assert r.all_pass()


def test_strict_pushout_along_injective_matches_cylinder():
    f, g = span_circle(4)
    P, jx, jy = pushout(f, g)
    r = is_homotopy_cocartesian(f, g, jx, jy, 2)
    assert r.all_pass()


def test_collapsing_the_circle_is_not_cocartesian():
    # the homotopy pushout of pt <- ∂Δ¹ -> pt is the circle, not the
    # corner pt: the cone of the comparison map has H2 = Z
    A, pt = boundary(1, 3), standard_simplex(0, 3)
    f = constant_map(A, pt, "0")
    r = is_homotopy_cocartesian(f, f, identity_map(pt), identity_map(pt), 1)
    assert r.checks == {"pi0": "PASS", "H0": "PASS", "H1": "FAIL", "pi1": "FAIL"}
    assert r.witnesses["H1"] == {"cone_homology": {1: (0, ()), 2: (1, ())}}
    assert r.witnesses["pi1"]["reason"] == "abelianizations differ"
    corner = standard_simplex(1, 3)
    with pytest.raises(ContractError, match="the square does not commute"):
        is_homotopy_cocartesian(f, f, constant_map(pt, corner, "0"), constant_map(pt, corner, "1"), 1)


def test_pushout_induced_refuses_a_bad_three_leg_cocone():
    f, g = span_circle(3)
    X, Y = f.target, g.target
    P, jx, jy, jcyl = homotopy_pushout(f, g)
    Cyl = jcyl.source
    interval = standard_simplex(1, 3)
    # collapsing every piece to the point is a cocone, and h its one map
    h = pushout_induced(P, (jx, to_point(X)), (jy, to_point(Y)), (jcyl, to_point(Cyl)))
    assert [compose_maps(h, j) for j in (jx, jy, jcyl)] == [to_point(X), to_point(Y), to_point(Cyl)]
    with pytest.raises(ContractError, match="cocone legs must share their target"):
        pushout_induced(P, (jx, to_point(X)), (jy, to_point(Y)), (jcyl, constant_map(Cyl, interval, "0")))
    # the cylinder's 1 end meets Y at "1", which the legs send to "0" and "1"
    with pytest.raises(ContractError, match="cocone does not coequalize"):
        pushout_induced(P, (jx, constant_map(X, interval, "0")), (jy, identity_map(Y)),
                        (jcyl, constant_map(Cyl, interval, "0")))
    with pytest.raises(ContractError, match="not reached by any injection"):
        pushout_induced(P, (jx, to_point(X)), (jy, to_point(Y)), (jx, to_point(X)))


def test_homotopy_pushout_flip_invariant():
    f, g = span_circle(3)
    P1, _, _, _ = homotopy_pushout(f, g)
    P2, _, _, _ = homotopy_pushout(g, f)
    assert homology(P1, 1) == homology(P2, 1)


def test_generator_squares_are_commuting():
    p = to_point(standard_simplex(1, 2))
    i = inclusion(boundary(1, 2), standard_simplex(1, 2))
    squares = list(generator_squares(p, i))
    assert len(squares) == 4  # vertex pairs of the interval
