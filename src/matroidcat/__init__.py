"""Catalogue of small binary matroids.

Isomorph-free enumeration over GF(2), regularity testing by excluded Fano
minors, and Tutte polynomials via base activities with a deletion and
contraction cross-check.
"""

from .catalogue import (
    CatalogueEntry,
    ResourceGuard,
    UnwritableOutput,
    matroid_of_labels,
    run_counts,
    run_dual_listing,
    run_generate,
)
from .enumeration import (
    InvalidShape,
    LabelOutOfRange,
    LabelVector,
    MultiplicityFunction,
    SingularMatrix,
    generate,
    is_canonical,
    label_of_vector,
    label_vector_of,
    lex_larger_witness,
    multiplicity_of,
    transform_label,
    vector_of_label,
)
from .gf2 import Gf2Matrix, Gf2Vector, NotInSpan, PivotOnZero, solve_in_basis
from .matroid import (
    BinaryMatroid,
    CircuitSpaceTooLarge,
    CorankTooLarge,
    DependentContractionSet,
    OracleTooLarge,
    is_isomorphic_bruteforce,
)
from .regularity import FanoWitness, is_fano, is_fano_dual, is_regular
from .tutte import (
    TuttePolynomial,
    bases,
    external_activity,
    fundamental_circuit,
    internal_activity,
    tutte_by_activities,
    tutte_by_deletion_contraction,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatroid",
    "CatalogueEntry",
    "CircuitSpaceTooLarge",
    "CorankTooLarge",
    "DependentContractionSet",
    "FanoWitness",
    "Gf2Matrix",
    "Gf2Vector",
    "InvalidShape",
    "LabelOutOfRange",
    "LabelVector",
    "MultiplicityFunction",
    "NotInSpan",
    "OracleTooLarge",
    "PivotOnZero",
    "ResourceGuard",
    "SingularMatrix",
    "TuttePolynomial",
    "UnwritableOutput",
    "bases",
    "external_activity",
    "fundamental_circuit",
    "generate",
    "internal_activity",
    "is_canonical",
    "is_fano",
    "is_fano_dual",
    "is_isomorphic_bruteforce",
    "is_regular",
    "label_of_vector",
    "label_vector_of",
    "lex_larger_witness",
    "matroid_of_labels",
    "multiplicity_of",
    "run_counts",
    "run_dual_listing",
    "run_generate",
    "solve_in_basis",
    "transform_label",
    "tutte_by_activities",
    "tutte_by_deletion_contraction",
    "vector_of_label",
]
