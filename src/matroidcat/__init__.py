"""Catalogue of small binary matroids.

Isomorph-free enumeration over GF(2), regularity testing by excluded Fano
minors, and Tutte polynomials via base activities with a deletion and
contraction cross-check.

The package root exports the names of the README's Library example; every
other name is imported from its module, and the command line is
``matroidcat.catalogue.main``.
"""

from .enumeration import generate
from .matroid import BinaryMatroid
from .regularity import is_regular
from .tutte import tutte_by_activities

__version__ = "0.1.0"

__all__ = ["BinaryMatroid", "generate", "is_regular", "tutte_by_activities"]
