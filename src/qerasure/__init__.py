"""Erasure-space analysis of small quantum error-correcting codes.

The package computes, for codes given as explicit state-vector bases on up to
about six qubits, the full linear space of operators the code can absorb as
erasures, the stricter pure variant, Pauli classifications by weight, minimum
distances, and union codes built from mutually orthogonal components,
including an intersection-formula route to union erasure spaces that is
cross-checked against direct computation.
"""

from .codes import (
    CodeValidationError,
    QuantumCode,
    code_to_json,
    ingest_code,
    ket_from_terms,
    transform_code,
)
from .erasure import (
    MembershipReport,
    WeightClassification,
    check_erasure,
    check_pure,
    classify_paulis,
    erasure_space,
    hermitian_basis,
    is_degenerate_distance,
    minimum_distance,
    pure_distance,
    pure_erasure_space,
)
from .fixtures import (
    FIXTURE_NAMES,
    fixture_gbp_code,
    fixture_rains_subcode,
    fixture_union_components,
    gbp_pair_transform,
    get_fixture,
    rains_component_transform,
    rains_orbit_codes,
)
from .operator_space import (
    OperatorSubspace,
    containment_residual,
    coords_to_matrices,
    equality_residual,
    matrices_to_coords,
    operator_weight,
    pauli_coords,
    pauli_index,
)
from .pauli import (
    PauliLetter,
    PauliOperator,
    enumerate_paulis,
    multiply,
    pauli_from_letters,
    pauli_from_string,
    pauli_to_string,
    to_matrix,
    weight,
)
from .states import CodeTransform, UnitaryAction, cyclic_shift
from .tolerances import MATRIX_ELEMENT_TOL, MEMBERSHIP_TOL, SUBSPACE_TOL
from .unions import (
    OrthogonalityError,
    UnionBuildReport,
    conjugate_subspace,
    cross_check_intersection_formulas,
    union_code,
    union_erasure_space_via_intersection,
    union_pure_space_via_intersection,
)

__version__ = "0.1.0"
