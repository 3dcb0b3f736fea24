"""Desk-scale simplicial sets, nerves of (2-)categories, subdivision,
lifting problems and localizer checking."""

__version__ = "0.1.0"

from .simplicial import SimplicialMap, SimplicialSet, product, pushout, validate
from .cat import CatFunctor, FinCat, category_of_elements, has_final_object, nerve, slice_category
from .twocat import (
    Fin2Cat,
    TwoFunctor,
    delta_tilde,
    enumerate_two_functors,
    geometric_nerve,
    object_admits_final,
    slice_2category,
)
from .subdivision import alpha, beta, ex, sd
from .presentations import cat_of, realize, thomason_generators, twocat_of
from .lifting import (
    LiftingProblem,
    find_lift,
    has_rlp,
    homotopy_pushout,
    is_homotopy_cocartesian,
    small_object_factorize,
)
from .homology import (
    EvidenceReport,
    HomologyReport,
    homology,
    normalized_chains,
    pi1_presentation,
    smith_normal_form,
    weak_equivalence_evidence,
    weak_equivalence_evidence2,
)
from .localizer import (
    DiagramUniverse,
    MarkedClass,
    check_final_collapse,
    check_slice_triangle,
    check_weak_saturation,
    closure,
    violations,
)

__all__ = [
    "SimplicialSet", "SimplicialMap", "validate", "pushout", "product",
    "FinCat", "CatFunctor", "nerve", "slice_category", "has_final_object",
    "category_of_elements",
    "Fin2Cat", "TwoFunctor", "delta_tilde", "geometric_nerve", "slice_2category",
    "object_admits_final", "enumerate_two_functors",
    "sd", "ex", "alpha", "beta",
    "cat_of", "twocat_of", "realize", "thomason_generators",
    "LiftingProblem", "find_lift", "has_rlp", "small_object_factorize",
    "homotopy_pushout", "is_homotopy_cocartesian",
    "normalized_chains", "smith_normal_form", "homology", "pi1_presentation",
    "weak_equivalence_evidence", "weak_equivalence_evidence2",
    "HomologyReport", "EvidenceReport",
    "DiagramUniverse", "MarkedClass", "check_weak_saturation",
    "check_final_collapse", "check_slice_triangle", "violations", "closure",
]
