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
    basis_matrix,
    code_projector,
    code_to_json,
    fixture_gbp_code,
    fixture_rains_subcode,
    ingest_code,
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
    fixture_union_components,
    gbp_pair_transform,
    get_fixture,
    rains_component_transform,
    rains_orbit_codes,
    rains_product_weight_survey,
)
from .operator_space import (
    OperatorSubspace,
    containment_residual,
    coords_to_matrix,
    coords_to_matrices,
    equality_residual,
    intersect,
    matrices_to_coords,
    operator_weight,
    pauli_coords,
    pauli_index,
)
from .pauli import (
    PauliLetter,
    PauliOperator,
    dagger,
    enumerate_paulis,
    matrix_element,
    multiply,
    pauli_from_letters,
    pauli_from_string,
    pauli_to_string,
    to_matrix,
    weight,
)
from .states import (
    CodeTransform,
    Ket,
    UnitaryAction,
    apply_pauli,
    apply_transform,
    basis_state,
    cyclic_shift,
    inner_product,
    ket_from_terms,
)
from .tolerances import MATRIX_ELEMENT_TOL, MEMBERSHIP_TOL, RANK_RTOL, SUBSPACE_TOL
from .unions import (
    OrthogonalityError,
    UnionBuildReport,
    conjugate_subspace,
    cross_check_intersection_formulas,
    equal_expectation_space,
    left_multiply_subspace,
    right_multiply_subspace,
    union_code,
    union_erasure_space_via_intersection,
    union_pure_space_via_intersection,
)

__version__ = "0.1.0"
