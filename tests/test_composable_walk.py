"""Composable pairs walked from the arrows filed by source.

The four validators and every constructor that writes a composition table
find the arrows that compose after f among the arrows filed under the
target of f, and a 2-category's composites among the homs with a 1-cell
that it files per object.  Two oracles check that walk:

* the validators written as scans of arrows x arrows, with an endpoint
  filter on each pair (the ``reference_`` functions below, each calling the
  others' references), must list the same messages in the same order on
  deterministic broken variants of the corpus; on a variant that also holds
  a row naming an absent cell, the validator reports that row, and its
  other messages are the reference's; a functor or 2-functor with a broken
  end lists that end's problems instead, where the reference may raise;
* each compose or hcompose table must equal a table built by brute force
  over every pair of arrows (or 1-cells, or 2-cells).
"""

import pytest

from nervelab import corpus
from nervelab.cat import (
    CatFunctor,
    FinCat,
    _slice_category,
    _slice_name,
    arrow_category,
    category_of_elements,
    discrete_category,
    identity_functor,
    poset_category,
    validate_category,
    validate_functor,
)
from nervelab.errors import ContractError
from nervelab.presentations import cat_of, realize, twocat_of
from nervelab.simplicial import _digits, compose_monotone, monotone_maps, simplicial_operator, standard_simplex
from nervelab.subdivision import sd
from nervelab.twocat import (
    Fin2Cat,
    TwoFunctor,
    _component_category,
    _component_name,
    _NO_ARROWS,
    _slice_2category,
    _slice_two_name,
    as_two_category,
    delta_tilde,
    identity_two_functor,
    slice_2category,
    two_functor_to_terminal,
    validate_2category,
    validate_two_functor,
)

ABSENT = "names an absent"  # the mark of a message on a row naming an absent cell


# -- the references: arrows x arrows, filtered by endpoints ------------------------

def reference_validate_category(C: FinCat) -> list[str]:
    """Exhaustive axioms check: totality, typing, units, associativity."""
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
    for f in C.arrows:
        for g in C.arrows:
            if dst(f) != src(g):
                if (g, f) in C.compose:
                    out.append(f"compose defined on non-composable pair ({g!r}, {f!r})")
                continue
            gf = C.compose.get((g, f))
            if gf is None:
                out.append(f"compose missing on ({g!r}, {f!r})")
                continue
            if src(gf) != src(f) or dst(gf) != dst(g):
                out.append(f"composite of ({g!r}, {f!r}) has wrong endpoints")
    for f in C.arrows:
        ia = C.identity.get(src(f))
        ib = C.identity.get(dst(f))
        if ia and C.compose.get((f, ia)) != f:
            out.append(f"right unit law fails on {f!r}")
        if ib and C.compose.get((ib, f)) != f:
            out.append(f"left unit law fails on {f!r}")
    for f in C.arrows:
        for g in C.arrows:
            if dst(f) != src(g):
                continue
            for h in C.arrows:
                if dst(g) != src(h):
                    continue
                lhs = C.compose.get((h, C.compose.get((g, f), "")))
                rhs = C.compose.get((C.compose.get((h, g), ""), f))
                if lhs is None or lhs != rhs:
                    out.append(f"associativity fails on ({h!r}, {g!r}, {f!r})")
    return out


def reference_validate_functor(F: CatFunctor) -> list[str]:
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
    for f in A.arrows:
        for g in A.arrows:
            if A.dst[f] != A.src[g]:
                continue
            lhs = F.arrows.get(A.compose[(g, f)])
            rhs = B.compose.get((F.arrows.get(g, ""), F.arrows.get(f, "")))
            if lhs is None or lhs != rhs:
                out.append(f"composition not preserved on ({g!r}, {f!r})")
    return out


def reference_validate_2category(C: Fin2Cat) -> list[str]:
    """Exhaustive check of the strict 2-category axioms."""
    out = []
    objs = C.objects
    objset = set(objs)
    for (a, b), H in C.hom.items():
        if a not in objset or b not in objset:
            out.append(f"hom({a!r}, {b!r}) indexed by foreign objects")
            continue
        for msg in reference_validate_category(H):
            out.append(f"hom({a!r}, {b!r}): {msg}")
    if out:
        return out  # the checks below assume every hom is a category
    cells = {ab: (set(H.objects), set(H.arrows)) for ab, H in C.hom.items()}
    for a in objs:
        u = C.unit.get(a)
        if u is None or u not in cells[(a, a)][0]:
            out.append(f"unit of {a!r} missing from hom({a!r}, {a!r})")

    def hc1(a, b, c, f, g):
        return C.hcompose1.get((a, b, c, f, g))

    # totality and typing of horizontal composition
    for a in objs:
        for b in objs:
            for c in objs:
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


def reference_validate_two_functor(F: TwoFunctor) -> list[str]:
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
        out.extend(f"hom({a!r}, {b!r}): {msg}" for msg in reference_validate_functor(on_hom))
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


# -- deterministic broken variants ---------------------------------------------------

def spread(items, k=6):
    """Every ``len(items) // k``-th of ``items`` in their order, or all of
    them when there are fewer than 2k."""
    items = list(items)
    return items[::max(1, len(items) // k)]


def with_parts(C: FinCat, **parts) -> FinCat:
    fields = ("objects", "arrows", "src", "dst", "compose", "identity")
    return FinCat(**{**{name: getattr(C, name) for name in fields}, **parts})


def after(cells, x):
    """The cell after x in ``cells``, cyclically (x itself if it is alone)."""
    return cells[(cells.index(x) + 1) % len(cells)]


def category_variants(C: FinCat) -> list[tuple[str, FinCat, bool]]:
    """Broken copies of C, each labelled and flagged when it holds a row
    naming an absent arrow or object: a compose row dropped or changed, a
    row on a non-composable pair, an identity dropped, an endpoint moved,
    and rows on absent cells."""
    out = []
    for row, gf in C.compose.items():
        out.append((f"drop {row}", with_parts(C, compose={k: v for k, v in C.compose.items() if k != row}), False))
        out.append((f"change {row}", with_parts(C, compose={**C.compose, row: after(C.arrows, gf)}), False))
    for f in C.arrows:
        for g in C.arrows:
            if C.dst[f] != C.src[g]:
                out.append((f"extra ({g}, {f})", with_parts(C, compose={**C.compose, (g, f): f}), False))
    for a in C.objects:
        out.append((f"no identity of {a}",
                    with_parts(C, identity={b: i for b, i in C.identity.items() if b != a}), False))
    for f in C.arrows:
        moved = after(C.objects, C.src[f]) if len(C.objects) > 1 else "ghost"
        out.append((f"move src of {f}", with_parts(C, src={**C.src, f: moved}), False))
        out.append((f"move dst of {f}", with_parts(C, dst={**C.dst, f: moved}), False))
    f = C.arrows[0]
    for row in (("ghost", f), (f, "ghost"), ("ghost", "ghost")):
        out.append((f"stray {row}", with_parts(C, compose={**C.compose, row: f}), True))
    out.append(("stray identity", with_parts(C, identity={**C.identity, "phantom": f}), True))
    out.append(("stray and broken", with_parts(
        C, compose={**{k: v for k, v in C.compose.items() if k != (f, f)}, ("ghost", f): f}), True))
    return out


def with_2parts(C: Fin2Cat, **parts) -> Fin2Cat:
    fields = ("objects", "hom", "hcompose1", "hcompose2", "unit")
    return Fin2Cat(**{**{name: getattr(C, name) for name in fields}, **parts})


def two_category_variants(C: Fin2Cat) -> list[tuple[str, Fin2Cat, bool]]:
    """Broken copies of C, flagged as :func:`category_variants` flags them:
    an hcompose row dropped or changed, a composite of 1-cells dropped with
    that of their identities, a unit dropped or moved, a hom between two
    objects dropped with every row through it, a hom replaced by a broken
    variant of it, and rows on absent cells."""
    out = []
    for dim, name, cells_of in ((1, "hcompose1", lambda H: H.objects), (2, "hcompose2", lambda H: H.arrows)):
        table = getattr(C, name)
        for row in spread(table):
            a, _, c, _, _ = row
            kept = {k: v for k, v in table.items() if k != row}
            changed = {**table, row: after(cells_of(C.hom[(a, c)]), table[row])}
            out.append((f"drop {name} {row}", with_2parts(C, **{name: kept}), False))
            out.append((f"change {name} {row}", with_2parts(C, **{name: changed}), False))
        a = C.objects[0]
        cell = cells_of(C.hom[(a, a)])[0]
        for row in ((a, a, a, "ghost", cell), (a, a, "phantom", cell, cell)):
            out.append((f"stray {name} {row}", with_2parts(C, **{name: {**table, row: cell}}), True))
    for row in spread(C.hcompose1):
        a, b, c, f, g = row
        row2 = (a, b, c, C.hom[(a, b)].identity[f], C.hom[(b, c)].identity[g])
        out.append((f"drop {row} in both dimensions", with_2parts(
            C, hcompose1={k: v for k, v in C.hcompose1.items() if k != row},
            hcompose2={k: v for k, v in C.hcompose2.items() if k != row2}), False))
    for a in C.objects:
        out.append((f"no unit of {a}", with_2parts(C, unit={b: u for b, u in C.unit.items() if b != a}), False))
        ones = C.hom[(a, a)].objects
        if len(ones) > 1:
            out.append((f"move unit of {a}", with_2parts(C, unit={**C.unit, a: after(ones, C.unit[a])}), False))
    out.append(("stray unit", with_2parts(C, unit={**C.unit, "phantom": C.unit[C.objects[0]]}), True))
    for ab in spread(ab for ab, H in C.hom.items() if H.objects and ab[0] != ab[1]):
        rows = {name: {row: x for row, x in getattr(C, name).items()
                       if ab not in (row[:2], row[1:3], (row[0], row[2]))} for name in ("hcompose1", "hcompose2")}
        out.append((f"drop hom {ab} and its rows",
                    with_2parts(C, hom={k: H for k, H in C.hom.items() if k != ab}, **rows), False))
    for ab, H in C.hom.items():
        if H.arrows:
            for label, V, stray in spread(category_variants(H), 4) + category_variants(H)[-5:]:
                out.append((f"hom {ab}: {label}", with_2parts(C, hom={**C.hom, ab: V}), stray))
    return out


def outcome(validate, value):
    """The list of messages, or the name of what the validator raised."""
    try:
        return validate(value)
    except (KeyError, TypeError) as exc:
        return type(exc).__name__


def assert_lists_what_the_reference_lists(validate, reference, variants):
    for label, value, stray in variants:
        got, want = outcome(validate, value), outcome(reference, value)
        if stray:
            assert any(ABSENT in message for message in got), label
            got = [message for message in got if ABSENT not in message]
        assert got == want, label


TWO_CATEGORIES = {**corpus.two_categories(), **corpus.nonthin_two_categories()}


@pytest.mark.parametrize("name", corpus.categories())
def test_validate_category_lists_what_the_scan_lists(name):
    variants = category_variants(corpus.categories()[name])
    assert_lists_what_the_reference_lists(validate_category, reference_validate_category, variants)


def functor_variants(C: FinCat) -> list[tuple[str, CatFunctor, bool]]:
    """The identity of C with one image changed or dropped, and the
    identity map between C and each broken variant of C, both ways."""
    F = identity_functor(C)
    out = []
    for a in C.objects:
        out.append((f"object {a}", CatFunctor(C, C, {**F.objects, a: after(C.objects, a)}, F.arrows,
                                              check=False), False))
    for f in C.arrows:
        out.append((f"arrow {f}", CatFunctor(C, C, F.objects, {**F.arrows, f: after(C.arrows, f)},
                                             check=False), False))
        out.append((f"no arrow {f}", CatFunctor(C, C, F.objects, {g: h for g, h in F.arrows.items() if g != f},
                                                check=False), False))
    for label, V, _ in category_variants(C):
        out.append((f"into {label}", CatFunctor(C, V, F.objects, F.arrows, check=False), False))
        out.append((f"from {label}", CatFunctor(V, C, F.objects, F.arrows, check=False), False))
    return out


def assert_lists_the_ends_or_what_the_reference_lists(validate, validate_end, reference, variants):
    """A functor with a broken end lists that end's problems, marked by
    the end, and raises nothing; one between valid ends lists what the
    reference lists."""
    for label, F, _ in variants:
        ends = [f"{end}: {message}" for end, C in (("source", F.source), ("target", F.target))
                for message in validate_end(C)]
        assert validate(F) == (ends or outcome(reference, F)), label


@pytest.mark.parametrize("name", corpus.categories())
def test_validate_functor_lists_what_the_scan_lists(name):
    variants = functor_variants(corpus.categories()[name])
    assert_lists_the_ends_or_what_the_reference_lists(
        validate_functor, validate_category, reference_validate_functor, variants)


def test_a_functor_out_of_a_category_missing_a_composite_is_refused():
    A = arrow_category()
    broken = with_parts(A, compose={k: v for k, v in A.compose.items() if k != ("id_0", "id_0")})
    with pytest.raises(ContractError, match=r"source: compose missing on \('id_0', 'id_0'\)"):
        CatFunctor(broken, A, {a: a for a in A.objects}, {f: f for f in A.arrows})


@pytest.mark.parametrize("name", TWO_CATEGORIES)
def test_validate_2category_lists_what_the_scan_lists(name):
    variants = two_category_variants(TWO_CATEGORIES[name])
    assert_lists_what_the_reference_lists(validate_2category, reference_validate_2category, variants)


def two_functor_variants(C: Fin2Cat) -> list[tuple[str, TwoFunctor, bool]]:
    """The identity of C with one 1-cell or 2-cell image changed, and the
    identity map between C and each broken variant of C, both ways."""
    F = identity_two_functor(C)
    out = []
    for key in spread(F.on1):
        a, b, f = key
        out.append((f"on1 {key}", TwoFunctor(C, C, F.objects, {**F.on1, key: after(C.hom[(a, b)].objects, f)},
                                             F.on2, check=False), False))
    for key in spread(F.on2):
        a, b, al = key
        out.append((f"on2 {key}", TwoFunctor(C, C, F.objects, F.on1,
                                             {**F.on2, key: after(C.hom[(a, b)].arrows, al)}, check=False), False))
    for label, V, _ in two_category_variants(C):
        out.append((f"into {label}", TwoFunctor(C, V, F.objects, F.on1, F.on2, check=False), False))
        out.append((f"from {label}", TwoFunctor(V, C, F.objects, F.on1, F.on2, check=False), False))
    return out


@pytest.mark.parametrize("name", TWO_CATEGORIES)
def test_validate_two_functor_lists_what_the_scan_lists(name):
    variants = two_functor_variants(TWO_CATEGORIES[name])
    assert_lists_the_ends_or_what_the_reference_lists(
        validate_two_functor, validate_2category, reference_validate_two_functor, variants)


# c₂Sd²Δ¹ and c₂Sd²Δ²: 9 of 25 and 85 of 625 homs have a 1-cell, where every
# corpus 2-category has most of its homs inhabited
MOSTLY_EMPTY = {f"c2_sd2_simplex{n}": realize(twocat_of(sd(sd(standard_simplex(n, 2))[0])[0])).two_category
                for n in (1, 2)}


@pytest.mark.parametrize("name", MOSTLY_EMPTY)
def test_validate_2category_lists_what_the_scan_lists_where_most_homs_are_empty(name):
    variants = spread(two_category_variants(MOSTLY_EMPTY[name]), 12)
    assert_lists_what_the_reference_lists(validate_2category, reference_validate_2category, variants)


@pytest.mark.parametrize("name", MOSTLY_EMPTY)
def test_validate_two_functor_lists_what_the_scan_lists_where_most_homs_are_empty(name):
    variants = spread(two_functor_variants(MOSTLY_EMPTY[name]), 12)
    assert_lists_the_ends_or_what_the_reference_lists(
        validate_two_functor, validate_2category, reference_validate_two_functor, variants)


def test_a_2_functor_out_of_a_2_category_missing_a_composite_is_refused():
    C = as_two_category(arrow_category())
    row = ("0", "0", "0", "id_0", "id_0")
    broken = with_2parts(C, hcompose1={k: v for k, v in C.hcompose1.items() if k != row})
    F = identity_two_functor(C)
    with pytest.raises(ContractError, match=r"source: hcompose1 missing/foreign on \(0,0,0,id_0,id_0\)"):
        TwoFunctor(broken, C, F.objects, F.on1, F.on2)


# -- compose tables against brute force -----------------------------------------------

def composable_pairs(C: FinCat) -> set[tuple[str, str]]:
    """Every pair (g, f) with dst f = src g, by a scan of arrows x arrows."""
    return {(g, f) for f in C.arrows for g in C.arrows if C.dst[f] == C.src[g]}


THIN = {
    **{name: corpus.categories()[name]
       for name in ("terminal", "arrow", "chain2", "discrete2", "discrete3", "span", "cospan")},
    "single2cell_hom_ab": corpus.single_two_cell_2cat().hom[("a", "b")],
    "discrete4": discrete_category(["d", "c", "b", "a"]),
    "divisors12": poset_category(["12", "6", "4", "3", "2", "1"], lambda a, b: int(b) % int(a) == 0),
    **{f"simplex2_{n}_hom_{a}{b}": H for n in range(4) for (a, b), H in delta_tilde(n).hom.items() if H.objects},
}


@pytest.mark.parametrize("name", THIN)
def test_a_thin_category_composes_each_pair_to_the_one_arrow_between_its_ends(name):
    C = THIN[name]
    table = {}
    for f in C.arrows:
        for g in C.arrows:
            if C.dst[f] == C.src[g]:
                (h,) = [h for h in C.arrows if C.src[h] == C.src[f] and C.dst[h] == C.dst[g]]
                table[(g, f)] = h
    assert C.compose == table


AS_TWO = {
    **corpus.categories(),
    "chain4": poset_category(["0", "1", "2", "3", "4"], lambda a, b: a <= b),
    "divisors12": THIN["divisors12"],
    "diamond": poset_category(["b", "l", "r", "t"], lambda a, b: a == b or a == "b" or b == "t"),
}


@pytest.mark.parametrize("name", AS_TWO)
def test_as_two_category_is_the_category_with_discrete_homs(name):
    C = AS_TWO[name]
    A = as_two_category(C)
    for a in C.objects:
        for b in C.objects:
            assert A.hom[(a, b)] == discrete_category(C.hom(a, b))
            assert C.hom(a, b) or A.hom[(a, b)] is _NO_ARROWS
    pairs = [(g, f) for f in C.arrows for g in C.arrows if C.dst[f] == C.src[g]]
    assert A.hcompose1 == {(C.src[f], C.dst[f], C.dst[g], f, g): C.compose[(g, f)] for g, f in pairs}
    assert A.hcompose2 == {(C.src[f], C.dst[f], C.dst[g], f"id_{f}", f"id_{g}"): f"id_{C.compose[(g, f)]}"
                           for g, f in pairs}
    assert A.unit == C.identity


def test_the_category_of_elements_composes_each_pair_of_monotone_maps():
    X, D = standard_simplex(2, 2), 2
    ends = {}
    for n in range(D + 1):
        for x in X.cells[n]:
            for m in range(D + 1):
                for phi in monotone_maps(m, n):
                    source = (m, simplicial_operator(X, phi, n, x))
                    ends[f"[{_digits(phi)}:{m}:{source[1]}>{n}:{x}]"] = (phi, source, (n, x))
    C = category_of_elements(X, D)
    assert set(C.arrows) == set(ends)
    table = {}
    for f, (phi, a, b) in ends.items():
        for g, (psi, b2, c) in ends.items():
            if b == b2:
                (m, y), (n, x) = a, c
                table[(g, f)] = f"[{_digits(compose_monotone(psi, phi))}:{m}:{y}>{n}:{x}]"
    assert C.compose == table


def functors_over(C: FinCat) -> list[CatFunctor]:
    return [identity_functor(C), corpus.to_terminal_functor(C)]


@pytest.mark.parametrize("name", corpus.categories())
def test_a_slice_composes_each_pair_of_its_arrows(name):
    for v in functors_over(corpus.categories()[name]):
        for c in v.target.objects:
            S, _, arrows = _slice_category(v, c)
            table = {(n2, n1): _slice_name(v.source.compose[(g2, g1)], f_lo, f_hi)
                     for n1, (g1, f_lo, _) in arrows.items() for n2, (g2, _, f_hi) in arrows.items()
                     if S.dst[n1] == S.src[n2]}
            assert S.compose == table, c


@pytest.mark.parametrize("name", TWO_CATEGORIES)
def test_a_2_slice_composes_each_pair_of_its_2_cells(name):
    C = TWO_CATEGORIES[name]
    for v in (identity_two_functor(C), two_functor_to_terminal(C)):
        for c in v.target.objects:
            S, objects, _, twos = _slice_2category(v, c)
            for (o1, o2), arrows in twos.items():
                H, H_a = S.hom[(o1, o2)], v.source.hom[(objects[o1][0], objects[o2][0])]
                table = {(n2, n1): _slice_two_name(H_a.compose[(be2, be1)], al, al2)
                         for n1, (be1, al, _) in arrows.items() for n2, (be2, _, al2) in arrows.items()
                         if H.dst[n1] == H.src[n2]}
                assert H.compose == table, (c, o1, o2)


@pytest.mark.parametrize("name", [*TWO_CATEGORIES, *MOSTLY_EMPTY])
def test_a_2_slice_shares_the_empty_hom_where_the_source_hom_is_empty(name):
    """A pair of slice objects over a hom of the source with no 1-cell gets
    no comma hom of its own: its hom is the one empty hom."""
    C = {**TWO_CATEGORIES, **MOSTLY_EMPTY}[name]
    for v in (identity_two_functor(C), two_functor_to_terminal(C)):
        for c in v.target.objects:
            S, objects, ones, _ = _slice_2category(v, c)
            for o1, (a1, _) in objects.items():
                for o2, (a2, _) in objects.items():
                    inhabited = bool(v.source.hom[(a1, a2)].objects)
                    assert ((o1, o2) in ones) == inhabited, (c, o1, o2)
                    assert inhabited or S.hom[(o1, o2)] is _NO_ARROWS, (c, o1, o2)


@pytest.mark.parametrize("name", TWO_CATEGORIES)
def test_the_component_category_composes_each_pair_of_components(name):
    C = TWO_CATEGORIES[name]
    K, arrows, comp = _component_category(C)
    table = {(n2, n1): _component_name(a, c, comp[(a, c)][C.hc1(a, b, c, r1, r2)])
             for n1, (a, b, r1) in arrows.items() for n2, (b2, c, r2) in arrows.items() if b == b2}
    assert K.compose == table


REALIZED = {**{name: realize(twocat_of(X)) for name, X in corpus.simplicial_objects(3).items()},
            "sd_simplex2": realize(twocat_of(sd(standard_simplex(2, 2))[0]))}


@pytest.mark.parametrize("name", REALIZED)
def test_a_realized_2_category_composes_every_composable_pair(name):
    """The composites of a realized 2-category are classes of edge-paths,
    which only the realization knows; every composable pair, and only
    those, must have one, and the laws must hold."""
    R = REALIZED[name]
    if R.status != "finite":
        assert name == "circle"
        return
    C = R.two_category
    for H in C.hom.values():
        assert set(H.compose) == composable_pairs(H)
    for table, cells_of in ((C.hcompose1, lambda H: H.objects), (C.hcompose2, lambda H: H.arrows)):
        assert set(table) == {
            (a, b, c, x, y) for (a, b) in C.hom for (b2, c) in C.hom if b == b2
            for x in cells_of(C.hom[(a, b)]) for y in cells_of(C.hom[(b, c)])}
    assert validate_2category(C) == []


def constructions():
    """The categories and 2-categories the library builds: the corpus with
    its slices and component categories, Delta~0..4, and the realizations
    of the corpus's presentations."""
    for name, C in corpus.categories().items():
        yield name, C
        for v in functors_over(C):
            for c in v.target.objects:
                yield f"{name}/{c}", _slice_category(v, c)[0]
    for name, C in TWO_CATEGORIES.items():
        yield name, C
        yield f"components of {name}", _component_category(C)[0]
        for c in C.objects:
            yield f"{name}/{c}", slice_2category(identity_two_functor(C), c)
    for n in range(5):
        yield f"simplex2_{n}", delta_tilde(n)
    for name, X in corpus.simplicial_objects(3).items():
        for present in (cat_of, twocat_of):
            R = realize(present(X))
            if R.status == "finite":
                yield f"{present.__name__}({name})", R.category or R.two_category


def test_no_construction_writes_a_row_on_an_absent_cell():
    for name, C in constructions():
        validate = validate_category if isinstance(C, FinCat) else validate_2category
        assert validate(C) == [], name
