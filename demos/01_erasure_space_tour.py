"""Tour of the basic objects: membership checks, spaces, Hermitian bases.

Works through the ((4,4,2)) example code: which single operators it absorbs
as erasures, what the full erasure space looks like as a subspace of the
256-dimensional operator space, and how to pick a Hermitian basis of it.
"""

import numpy as np

from qerasure import (
    check_erasure,
    check_pure,
    classify_paulis,
    erasure_space,
    fixture_gbp_code,
    hermitian_basis,
    minimum_distance,
    pauli_coords,
    pauli_from_string,
    pure_distance,
    pure_erasure_space,
)

code = fixture_gbp_code()
print(f"code {code.label!r}: n={code.n}, K={code.k}")
for ket in code.basis.T:
    live = np.nonzero(np.abs(ket) > 1e-12)[0]
    terms = " + ".join(format(int(i), "04b") for i in live)
    print(f"  basis ket ~ {terms}")

# A single operator either passes both conditions or fails with a witness.
for label in ("IIII", "XIII", "ZZII", "XXII"):
    op = pauli_from_string(label)
    erasure = check_erasure(code, op)
    pure = check_pure(code, op)
    if erasure.member:
        print(f"{label}: erasure member, common diagonal {erasure.alpha:.3f}; "
              f"pure member: {pure.member}")
    else:
        i, j, dev = erasure.witness
        print(f"{label}: NOT a member, first violation at element ({i},{j}), "
              f"deviation {dev:.3f}")

print(f"\nminimum distance: {minimum_distance(code)}")
print(f"pure distance:    {pure_distance(code)}")

# The same conditions, taken over all operators at once, carve out subspaces.
es = erasure_space(code)
ps = pure_erasure_space(code)
print(f"\nerasure space dim: {es.dim} of {4**code.n}")
print(f"pure space dim:    {ps.dim}")
xiii = pauli_coords(pauli_from_string("XIII"))
print(f"XIII membership residual in the erasure space: "
      f"{es.member_residual(xiii):.2e}")

# Per-weight classification of every Pauli.
print("\nper-weight classification (erasure conditions):")
for row in classify_paulis(code):
    print(f"  weight {row.weight}: {row.members} members, "
          f"{row.non_members} violators")

# Any adjoint-closed subspace has an orthonormal basis of Hermitian
# operators: their Pauli coordinates are all real.
sym = hermitian_basis(es)
real = sum(np.max(np.abs(v.imag)) < 1e-9 for v in sym)
gram = np.column_stack(sym).conj().T @ np.column_stack(sym)
print(f"\nHermitian basis: {len(sym)} elements, {real} with all-real coordinates, "
      f"orthonormal to {np.max(np.abs(gram - np.eye(len(sym)))):.0e}")
