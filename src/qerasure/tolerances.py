"""Every numerical tolerance of the package, in one table.

All bundled constructions involve exact dyadic amplitudes, so each threshold
sits several orders of magnitude from the values it separates.  Each module
imports the tolerances it applies from here, and the package namespace
re-exports MEMBERSHIP_TOL, SUBSPACE_TOL and MATRIX_ELEMENT_TOL.
"""

MEMBERSHIP_TOL = 1e-8  # a member_residual below this is membership
SUBSPACE_TOL = 1e-8  # an equality residual below this means the spaces agree
MATRIX_ELEMENT_TOL = 1e-9  # a code matrix element this far from its required value fails
ORTHONORMALITY_TOL = 1e-9  # largest norm defect or overlap of an orthonormal set
UNITARY_TOL = 1e-9  # largest entry of M M^H - I for a unitary M
CROSS_ORTHOGONALITY_TOL = 1e-9  # largest overlap between union components
COEFFICIENT_TOL = 1e-9  # a coefficient is zero below this, and a unit phase within it of modulus 1
ADJOINT_TOL = 1e-9  # a complement this far from its conjugate is not closed under the adjoint
AMPLITUDE_TOL = 1e-12  # amplitudes code_to_json drops as zero
