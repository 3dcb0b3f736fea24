"""The four workloads: job lists built from a seed.

Every job returns the canonical JSON text the library produces for its
result, and carries a check that reads that text against a reference
computed outside the timed region.  Jobs reach the library through module
attributes at call time (``nl.twocat.geometric_nerve(...)``), never through
names bound when the job was built, so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import gen

D_NERVE2 = 4       # truncation of every geometric nerve
D_HOMOLOGY = 3     # 2-dimensional complexes, homology through degree 2
D_LIFTING = 3      # horn lifting into nerves of posets
D_RLP = 2          # maps to the point, against boundaries:2


@dataclass
class Job:
    kind: str
    run: Callable[[], str]
    check: Callable[[str], bool]


@dataclass
class Workload:
    jobs: list[Job]
    warmup: int              # index of the job run once during set-up
    tail_percentile: int     # fixed per workload, see BENCHMARK.json
    inputs: list             # what the seed drew, as plain data
    shuffle: random.Random | None = None   # reorders jobs each pass (cli only)

    @property
    def min_jobs(self) -> int:
        """Jobs a run needs so that at least ten lie beyond the tail percentile."""
        return round(10 / (1 - self.tail_percentile / 100))


def _json(nl, doc) -> str:
    return nl.serialize.canonical_json(doc)


def _level_counts(text: str) -> list[int]:
    cells = json.loads(text)["cells"]
    return [len(cells[str(n)]) for n in range(len(cells))]


def _all_pass(text: str) -> bool:
    checks = json.loads(text)["checks"]
    return bool(checks) and all(v == "PASS" for v in checks.values())


# -- nerve2 -----------------------------------------------------------------------------

N2_POSETS = 20
N2_POSET_SHAPE = (6, 8, 11)   # elements, strict relations, strict chains

# Level counts of N2 for the corpus 2-categories that are not of the form iota(C).
N2_CLOSED_FORMS = {
    "terminal2": lambda n: 1,
    "simplex2_0": lambda n: 1,
    "simplex2_1": lambda n: n + 2,
    "simplex2_2": lambda n: 2 ** (n + 2) - 1,
    "simplex2_3": gen.delta_tilde3_level_count,
    "single2cell": lambda n: 2 ** (n + 1),
}


def nerve2(nl, seed: int) -> Workload:
    rng = random.Random(seed)
    jobs: list[Job] = []
    cats = nl.corpus.categories()
    for name, C2 in nl.corpus.two_categories().items():
        if name in N2_CLOSED_FORMS:
            want = [N2_CLOSED_FORMS[name](n) for n in range(D_NERVE2 + 1)]
        else:
            C = cats[name[len("iota_"):]]
            want = gen.nerve_counts(C.objects, [(C.src[f], C.dst[f]) for f in C.arrows], D_NERVE2)
        jobs.append(Job(
            f"n2.{name}",
            lambda C2=C2: _json(nl, nl.serialize.sset_to_doc(nl.twocat.geometric_nerve(C2, D_NERVE2))),
            lambda out, want=want: _level_counts(out) == want,
        ))
    collapses = [nl.twocat.two_functor_to_terminal(nl.twocat.as_two_category(cats[name]))
                 for name in nl.corpus.WITH_FINAL_OBJECT]
    collapses += [nl.twocat.two_functor_to_terminal(nl.twocat.delta_tilde(n)) for n in range(4)]
    for u in collapses:
        jobs.append(Job(
            "evidence2.collapse",
            lambda u=u: _json(nl, nl.serialize.evidence_to_doc(
                nl.homology.weak_equivalence_evidence2(u, D_NERVE2, 2))),
            _all_pass,
        ))
    n = N2_POSET_SHAPE[0]
    inputs = []
    for _ in range(N2_POSETS):
        less = gen.random_poset(rng, *N2_POSET_SHAPE)
        inputs.append(sorted(less))
        P = nl.serialize.fincat_from_doc(gen.poset_doc(n, less), "poset")
        want = gen.nerve_counts(range(n), sorted(less) + [(i, i) for i in range(n)], D_NERVE2)
        jobs.append(Job(
            "n2.iota_poset",
            lambda P=P: _json(nl, nl.serialize.sset_to_doc(
                nl.twocat.geometric_nerve(nl.twocat.as_two_category(P), D_NERVE2))),
            lambda out, want=want: _level_counts(out) == want,
        ))
    warmup = next(i for i, j in enumerate(jobs) if j.kind == "n2.iota_arrow")
    return Workload(jobs, warmup, 90, inputs)


# -- homology ---------------------------------------------------------------------------

HOM_COMPLEXES = 4
HOM_COMPLEX_SHAPE = (6, 10, 4)   # vertices, edges, triangles
HOM_SPANS = 14   # enough small jobs that the median job sits inside their cluster
HOM_SPAN_SHAPE = (5, 7, 2)


def _homology_reference(nl, simplices):
    """H(X) of the complex itself and its Euler characteristic."""
    X = nl.serialize.sset_from_doc(gen.complex_doc(simplices, D_HOMOLOGY), "complex")
    h = nl.serialize.homology_to_doc(nl.homology.homology(X, 2))
    return X, h, gen.euler_characteristic(simplices)


def _homology_check(want: dict, chi: int) -> Callable[[str], bool]:
    def check(out: str) -> bool:
        got = json.loads(out)
        betti = [got["degrees"][str(n)]["betti"] for n in range(3)]
        return got == want and betti[0] - betti[1] + betti[2] == chi
    return check


def _snf_job(nl, M, want_rank: int) -> Job:
    def run() -> str:
        s = nl.homology.smith_normal_form(M)
        return _json(nl, {"invariants": list(s.invariants), "verified": s.verify()})

    def check(out: str) -> bool:
        got = json.loads(out)
        return got["verified"] is True and len(got["invariants"]) == want_rank

    return Job("snf.verify", run, check)


def _snf_jobs(nl, Y, betti: list[int]) -> list[Job]:
    """SNF + verify of each boundary matrix of Y; the expected ranks follow from
    the cell counts and the reference Betti numbers alone."""
    cc = nl.homology.normalized_chains(Y)
    counts = [len(cc.basis[n]) for n in range(3)]
    ranks = {1: counts[0] - betti[0]}
    ranks[2] = counts[1] - betti[1] - ranks[1]
    if counts[2] - ranks[2] != betti[2]:
        raise ValueError("reference Betti numbers disagree with the cell counts")
    return [_snf_job(nl, cc.boundary[n], ranks[n]) for n in (1, 2)]


def homology(nl, seed: int) -> Workload:
    rng = random.Random(seed)
    jobs: list[Job] = []
    sd = lambda X: nl.subdivision.sd(X)[0]

    X, want, chi = _homology_reference(nl, gen.boundary_of_tetrahedron())
    betti = [want["degrees"][str(n)]["betti"] for n in range(3)]
    jobs.append(Job(
        "homology.sd2_boundary3",
        lambda X=X: _json(nl, nl.serialize.homology_to_doc(nl.homology.homology(sd(sd(X)), 2))),
        _homology_check(want, chi),
    ))
    jobs += _snf_jobs(nl, sd(sd(X)), betti)

    inputs = []
    for _ in range(HOM_COMPLEXES):
        inputs.append(gen.random_complex(rng, *HOM_COMPLEX_SHAPE))
        X, want, chi = _homology_reference(nl, inputs[-1])
        betti = [want["degrees"][str(n)]["betti"] for n in range(3)]
        jobs.append(Job(
            "homology.sd",
            lambda X=X: _json(nl, nl.serialize.homology_to_doc(nl.homology.homology(sd(X), 2))),
            _homology_check(want, chi),
        ))
        jobs.append(Job(
            "homology.sd2",
            lambda X=X: _json(nl, nl.serialize.homology_to_doc(nl.homology.homology(sd(sd(X)), 2))),
            _homology_check(want, chi),
        ))
        jobs += _snf_jobs(nl, sd(X), betti)

        def alpha_evidence(X=X) -> str:
            S, cert = nl.subdivision.sd(X)
            return _json(nl, nl.serialize.evidence_to_doc(
                nl.homology.weak_equivalence_evidence(nl.subdivision.alpha(X, cert), 1)))

        jobs.append(Job("evidence.alpha", alpha_evidence, _all_pass))

    for _ in range(HOM_SPANS):
        A, X, Y = gen.random_span(rng, *HOM_SPAN_SHAPE)
        inputs.append([A, X, Y])
        f = nl.serialize.smap_from_doc(gen.inclusion_doc(A, X, D_HOMOLOGY), "span.f")
        g = nl.serialize.smap_from_doc(gen.inclusion_doc(A, Y, D_HOMOLOGY), "span.g")

        def cocartesian(f=f, g=g) -> str:
            P, jx, jy = nl.simplicial.pushout(f, g)
            return _json(nl, nl.serialize.evidence_to_doc(
                nl.lifting.is_homotopy_cocartesian(f, g, jx, jy, 1)))

        jobs.append(Job("hpushout.cocartesian", cocartesian, _all_pass))

    warmup = next(i for i, j in enumerate(jobs) if j.kind == "homology.sd")
    return Workload(jobs, warmup, 90, inputs)


# -- lifting ------------------------------------------------------------------------------

LIFT_RLP = 30
LIFT_RLP_SHAPE = (5, 7, 2)
LIFT_HORNS = 40
LIFT_HORN_POSET = (6, 9, 15)
LIFT_HORN_KINDS = ((3, 1), (3, 2))


def _cli_job(nl, kind: str, argv: list[str], golden: bytes) -> Job:
    def run() -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = nl.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit status {code}")
        return buf.getvalue()

    return Job(kind, run, lambda out: out.encode("utf-8") == golden)


def _inclusion(nl, A, B):
    """The identity on A's cells, as a map into B."""
    return nl.simplicial.SimplicialMap(A, B, {m: {c: c for c in cells} for m, cells in A.cells.items()})


def _boundary_inclusions(nl, n_max: int, D: int):
    simp = nl.simplicial
    return [_inclusion(nl, simp.boundary(n, D), simp.standard_simplex(n, D)) for n in range(n_max + 1)]


def _no_filler(out: str) -> bool:
    """Brute force: no top cell of X has the counterexample's boundary."""
    got = json.loads(out)
    if got["has_rlp"] is not False:
        return False
    sq = got["counterexample"]
    B, X = sq["i"]["target"], sq["top"]["target"]
    n = len(B["cells"]["0"]) - 1
    if n == 0:
        return not X["cells"]["0"]
    top_cell = "".join(str(v) for v in range(n + 1))
    bfaces = {(m, i, src): dst for m, i, src, dst in B["face"]}
    xfaces = {(m, i, src): dst for m, i, src, dst in X["face"]}
    want = [sq["top"]["levels"][str(n - 1)][bfaces[(n, i, top_cell)]] for i in range(n + 1)]
    return not any(all(xfaces[(n, i, c)] == want[i] for i in range(n + 1))
                   for c in X["cells"][str(n)])


def _rlp_job(nl, p, gens) -> Job:
    def run() -> str:
        ok, sq = nl.lifting.has_rlp(p, gens)
        doc = {"has_rlp": ok, "counterexample": None}
        if sq is not None:
            doc["counterexample"] = {k: nl.serialize.smap_to_doc(getattr(sq, k))
                                     for k in ("i", "top", "bottom")}
        return _json(nl, doc)

    return Job("rlp.counterexample", run, _no_filler)


def _horn_job(nl, rng: random.Random, inputs: list) -> Job:
    simp = nl.simplicial
    n_el = LIFT_HORN_POSET[0]
    less = gen.random_poset(rng, *LIFT_HORN_POSET)
    names = gen.poset_names(n_el)
    N = nl.cat.nerve(nl.serialize.fincat_from_doc(gen.poset_doc(n_el, less), "poset"), D_LIFTING)
    n, k = rng.choice(LIFT_HORN_KINDS)
    x = gen.random_chain(rng, n_el, less, n)
    inputs.append([sorted(less), n, k, x])

    def image(cell: str) -> str:
        js = [int(ch) for ch in cell]
        if len(js) == 1:
            return f"<{names[x[js[0]]]}>"
        return "|".join(gen.poset_arrow(names[x[a]], names[x[b]]) for a, b in zip(js, js[1:]))

    H, B = simp.horn(n, k, D_LIFTING), simp.standard_simplex(n, D_LIFTING)
    pt = simp.standard_simplex(0, D_LIFTING)
    top_levels = {m: {c: image(c) for c in H.cells[m]} for m in range(D_LIFTING + 1)}
    problem = nl.lifting.LiftingProblem(
        _inclusion(nl, H, B),
        simp.constant_map(N, pt, "0"),
        simp.SimplicialMap(H, N, top_levels),
        simp.constant_map(B, pt, "0"),
    )
    top_cell = "".join(str(v) for v in range(n + 1))

    def run() -> str:
        h = nl.lifting.find_lift(problem)
        return _json(nl, {"lift": None if h is None else nl.serialize.smap_to_doc(h)})

    def check(out: str) -> bool:
        lift = json.loads(out)["lift"]
        if lift is None:
            return False
        ok = lift["levels"][str(n)][top_cell] == image(top_cell)
        return ok and all(lift["levels"][str(m)][c] == img
                          for m, table in top_levels.items() for c, img in table.items())

    return Job("lift.inner_horn", run, check)


def lifting(nl, seed: int, root) -> Workload:
    rng = random.Random(seed)
    cases = dict(_cli_cases(root))
    jobs = [_cli_job(nl, "factorize.boundary2", cases["factorize_boundary2"],
                     _golden(root, "factorize_boundary2"))]

    objs = nl.corpus.simplicial_objects(2)
    names = ["simplex0", "simplex1", "simplex2", "boundary1", "boundary2", "horn21", "circle"]
    for xn in names:
        for yn in names[:3]:
            X, Y = objs[xn], objs[yn]
            jobs.append(Job(
                "adjunction.sd_ex",
                lambda X=X, Y=Y: _json(nl, {
                    "sd": nl.simplicial.count_maps(nl.subdivision.sd(X)[0], Y),
                    "ex": nl.simplicial.count_maps(X, nl.subdivision.ex(Y, X.dim_bound))}),
                lambda out: (lambda d: d["sd"] == d["ex"] > 0)(json.loads(out)),
            ))
    cats = nl.corpus.categories()
    for xn in ("simplex1", "simplex2", "boundary1", "boundary2", "horn21"):
        for cn in ("terminal", "arrow", "chain2", "z2"):
            X, C = objs[xn], cats[cn]

            def cat_nerve(X=X, C=C) -> str:
                r = nl.presentations.realize_cat(nl.presentations.cat_of(X))
                return _json(nl, {
                    "status": r.status,
                    "cat": nl.cat.count_functors(r.category, C),
                    "nerve": nl.simplicial.count_maps(X, nl.cat.nerve(C, X.dim_bound))})

            jobs.append(Job(
                "adjunction.cat_nerve", cat_nerve,
                lambda out: (lambda d: d["status"] == "finite" and d["cat"] == d["nerve"] > 0)(json.loads(out)),
            ))

    gens = _boundary_inclusions(nl, 2, D_RLP)
    inputs = []
    for _ in range(LIFT_RLP):
        cx = gen.random_complex(rng, *LIFT_RLP_SHAPE)
        inputs.append(cx)
        p = nl.serialize.smap_from_doc(gen.constant_doc(cx, D_RLP), "rlp.p")
        jobs.append(_rlp_job(nl, p, gens))
    for _ in range(LIFT_HORNS):
        jobs.append(_horn_job(nl, rng, inputs))

    warmup = next(i for i, j in enumerate(jobs) if j.kind == "adjunction.cat_nerve")
    return Workload(jobs, warmup, 90, inputs)


# -- cli ----------------------------------------------------------------------------------

def _cli_cases(root) -> list[tuple[str, list[str]]]:
    import cli_cases  # tests/cli_cases.py of the checkout, put on sys.path by run.py

    if cli_cases.DATA.resolve() != (root / "tests" / "data").resolve():
        raise ValueError(f"cli_cases imported from {cli_cases.__file__}, not from {root}")
    return list(cli_cases.CASES)


def _golden(root, name: str) -> bytes:
    return (root / "tests" / "golden" / f"{name}.json").read_bytes()


def cli(nl, seed: int, root) -> Workload:
    jobs = [_cli_job(nl, f"cli.{name}", argv, _golden(root, name))
            for name, argv in _cli_cases(root) if name != "factorize_boundary2"]
    warmup = next(i for i, j in enumerate(jobs) if j.kind == "cli.validate_boundary2")
    return Workload(jobs, warmup, 99, [], shuffle=random.Random(seed))


def build(name: str, nl, seed: int, root) -> Workload:
    if name == "nerve2":
        return nerve2(nl, seed)
    if name == "homology":
        return homology(nl, seed)
    if name == "lifting":
        return lifting(nl, seed, root)
    return cli(nl, seed, root)


WORKLOADS = ("nerve2", "homology", "lifting", "cli")
