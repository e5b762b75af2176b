"""Z_{p^s}-additive generalized Hadamard codes and their p-ary Gray images.

The package builds the codes H^{t_1,...,t_s} from their generator
matrices, maps them to p-ary codes of length p^t through the generalized
Gray map, computes the rank/kernel invariants that separate inequivalent
codes, materializes the equivalence chains (with explicit coordinate
permutations as witnesses) and tabulates counts and bounds for the
classification of these codes.  See the ``ghcodes`` command for the
command-line surface.
"""

from .classification import BoundsReport, Census, bounds_report, census, enumerate_types, isolated_types
from .construction import (
    DEFAULT_BUDGET_BYTES,
    AdditiveCode,
    GHVerdict,
    GrayCode,
    TypeSignature,
    build_gray_code,
    generator_matrix,
    is_gh_code,
    materialize_gray,
    min_distance,
    validate_type,
)
from .equivalence import EquivalenceReport, chain_members, chain_of, verify_equivalence
from .errors import CapacityError, GHCodeError, InputError
from .gray import Permutation, gray, gray_matrix, phi_table
from .invariants import structural_pair
from .ring import RingParams

__version__ = "0.1.0"

__all__ = [
    "AdditiveCode",
    "BoundsReport",
    "CapacityError",
    "Census",
    "DEFAULT_BUDGET_BYTES",
    "EquivalenceReport",
    "GHCodeError",
    "GHVerdict",
    "GrayCode",
    "InputError",
    "Permutation",
    "RingParams",
    "TypeSignature",
    "bounds_report",
    "build_gray_code",
    "census",
    "chain_members",
    "chain_of",
    "enumerate_types",
    "generator_matrix",
    "gray",
    "gray_matrix",
    "is_gh_code",
    "isolated_types",
    "materialize_gray",
    "min_distance",
    "phi_table",
    "structural_pair",
    "validate_type",
    "verify_equivalence",
]
