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
    generate,
    is_canonical,
    label_vector_of,
    lex_larger_witness,
)
from .gf2 import Gf2Matrix, NotInSpan, PivotOnZero, solve_in_basis
from .matroid import (
    BinaryMatroid,
    CircuitSpaceTooLarge,
    CorankTooLarge,
    DependentContractionSet,
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
    "InvalidShape",
    "LabelOutOfRange",
    "NotInSpan",
    "PivotOnZero",
    "ResourceGuard",
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
    "is_regular",
    "label_vector_of",
    "lex_larger_witness",
    "matroid_of_labels",
    "run_counts",
    "run_dual_listing",
    "run_generate",
    "solve_in_basis",
    "tutte_by_activities",
    "tutte_by_deletion_contraction",
]
