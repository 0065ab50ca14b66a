"""The six-component union on five qubits, end to end.

Builds the single-ket subcode, its five images under the X-pattern transform
composed with cyclic shifts, verifies mutual orthogonality, and scans the
union's erasure space by weight.  Also reproduces the weight-two violator
patterns from one-sided products of the transform with the subcode's
weight-three expectation violators.
"""

import numpy as np

from qerasure import (
    CodeTransform,
    UnitaryAction,
    classify_paulis,
    cyclic_shift,
    enumerate_paulis,
    erasure_space,
    fixture_rains_subcode,
    matrices_to_coords,
    minimum_distance,
    operator_weight,
    pauli_from_string,
    pauli_to_string,
    pure_distance,
    rains_orbit_codes,
    to_matrix,
    union_code,
)
from qerasure.tolerances import COEFFICIENT_TOL

base = fixture_rains_subcode()
print(f"subcode {base.label!r}: n={base.n}, K={base.k}")
print(f"  pure distance {pure_distance(base)} "
      f"(all weight-1 and weight-2 expectations vanish)")

table = classify_paulis(base, 3, pure=True)
print(f"  weight-3 pure violators: {table[3].non_members}")
print("  violators:", " ".join(table[3].violators))

components = rains_orbit_codes()
print(f"\nsix components: {[c.label for c in components]}")
union, report = union_code(components)
print(f"union: n={report.n}, K={report.k}, "
      f"max cross overlap {report.max_cross_inner:.1e}")
print(f"minimum distance: {minimum_distance(union)}")
print(f"erasure space dim: {erasure_space(union).dim} of {4**5}")

print("\nper-weight classification of the union (erasure conditions):")
for row in classify_paulis(union, 3):
    print(f"  weight {row.weight}: {row.members} members, "
          f"{row.non_members} violators")

w2 = classify_paulis(union, 2)[2].violators
print(f"\nall {len(w2)} weight-2 violators:")
for start in range(0, len(w2), 10):
    print("  " + " ".join(w2[start:start + 10]))

# One-sided products of the transform family with the two weight-3 pure
# violators of the subcode: the second family drops to weight two and lands
# exactly on the union's base-vs-image violator patterns.
LABELS = [pauli_to_string(p) for p in enumerate_paulis(5, 5)]  # coordinate order


def single_pauli_label(coords):
    """Letter string of the single Pauli the operator equals up to unit phase."""
    live = np.nonzero(np.abs(coords) > COEFFICIENT_TOL)[0]
    if live.size != 1 or abs(abs(coords[live[0]]) - 1.0) > COEFFICIENT_TOL:
        return None
    return LABELS[live[0]]


def product_weight_survey():
    """Weights of one-sided products of the shift/X-pattern unitaries with the
    two weight-three expectation violators of the rains subcode.

    For every pair of shift exponents (i, j), the unitary (shift^i . tau .
    shift^j) multiplies each violator on the left and on the right.  The
    survey records, per violator and side, the minimum operator weight over
    all 25 products, the weight-two products that are plain Paulis up to
    phase, and whether those land inside the four base-vs-image violator
    orbits: the 20 weight-two violators of the union whose nonzero code
    matrix element couples the subcode to one of its five images.  The other
    40 of the union's 60 weight-two violators couple two images.
    """
    listed = {p[i:] + p[:i] for p in ("XZIII", "ZXIII", "ZIYII", "YIZII") for i in range(5)}
    cases = {}
    for name, label in (("E1", "IIYZY"), ("E2", "IZIXX")):
        emat = to_matrix(pauli_from_string(label))
        for side in ("left", "right"):
            weights = []
            weight2_paulis = set()
            for i in range(5):
                for j in range(5):
                    # shift^i . tau . shift^j, written in locals-then-perm form
                    tau_letters = ["I"] * 5
                    for pos in (2, 3, 4):
                        tau_letters[(pos + j) % 5] = "X"
                    u = UnitaryAction.from_transform(
                        CodeTransform(5, perm=cyclic_shift(5, i + j), locals=tau_letters)
                    )
                    prod = u.matrix @ emat if side == "left" else emat @ u.matrix
                    coords = matrices_to_coords(prod, 5)
                    w = operator_weight(coords, 5)
                    weights.append(w)
                    if w == 2:
                        letters = single_pauli_label(coords)
                        if letters is not None:
                            weight2_paulis.add(letters)
            cases[f"{name}.{side}"] = {
                "min_weight": min(weights),
                "weight2_paulis": tuple(sorted(weight2_paulis)),
                "reproduces_listed": bool(weight2_paulis) and weight2_paulis <= listed,
            }
    return cases


for case, entry in product_weight_survey().items():
    print(f"{case}: min product weight {entry['min_weight']}, "
          f"weight-2 Pauli products {list(entry['weight2_paulis'])}, "
          f"inside the base-vs-image violator orbits: "
          f"{entry['reproduces_listed']}")
