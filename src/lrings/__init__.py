"""Ideal theory of lattice-valued subrings of finite commutative rings.

The library computes radicals, semiprime radicals and prime radicals of
ideals in L-subrings over finite lattices, constructs and checks primary
decompositions, and can brute-force-verify a table of theorems about these
objects on desk-scale instances.
"""

from .errors import CapExceeded, ConsistencyError
from .lattice import FiniteLattice, LatticeError, make_lattice
from .rings import FiniteRing, RingError, Subring, make_ring
from .core import (LIdeal, LSubring, LSubset, ValidationError,
                   intersect_many, is_ideal_of, is_l_subring, level_cut,
                   level_subring, strong_cut, strong_subring, sum_ideals,
                   sum_subsets)
from .radical import (IdealSurvey, enumerate_family, ideal_survey,
                      is_primary, is_prime, is_semiprime, prime_radical,
                      radical, semiprime_radical)
from .decomp import (Decomposition, DecompositionError, NoCrispDecomposition,
                     decompose, lift_crisp_primary, lift_reducedness,
                     project_level, reduce_factors)
from . import fixtures, verify

__all__ = [
    "CapExceeded", "ConsistencyError",
    "FiniteLattice", "LatticeError", "make_lattice",
    "FiniteRing", "RingError", "Subring", "make_ring",
    "LIdeal", "LSubring", "LSubset", "ValidationError",
    "intersect_many", "is_ideal_of", "is_l_subring", "level_cut",
    "level_subring", "strong_cut", "strong_subring", "sum_ideals",
    "sum_subsets",
    "IdealSurvey", "enumerate_family", "ideal_survey",
    "is_primary", "is_prime", "is_semiprime", "prime_radical",
    "radical", "semiprime_radical",
    "Decomposition", "DecompositionError", "NoCrispDecomposition",
    "decompose", "lift_crisp_primary", "lift_reducedness", "project_level",
    "reduce_factors",
    "fixtures", "verify",
]
