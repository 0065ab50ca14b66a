"""Named example codes used as regression anchors.

Four names are registered:

  rains-subcode   the five-qubit single-ket code from signed cyclic orbit sums
  rains-union     the six-component union of that code with its images under
                  the X-pattern transform and cyclic qubit shifts
  gbp             the ((4,4,2)) code of paired bitstrings
  gbp-union       its union with the image under a Y on the last qubit

The cyclic shift convention is position j -> j+1 mod n throughout.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .codes import (
    QuantumCode,
    _cyclic_orbit,
    fixture_gbp_code,
    fixture_rains_subcode,
    transform_code,
)
from .operator_space import _pauli_table, matrices_to_coords, operator_weight
from .pauli import pauli_from_string, to_matrix
from .states import CodeTransform, UnitaryAction, cyclic_shift
from .tolerances import COEFFICIENT_TOL
from .unions import union_code

FIXTURE_NAMES = ("rains-subcode", "rains-union", "gbp", "gbp-union")


def rains_component_transform(i: int) -> CodeTransform:
    """The i-th union component transform: X on qubits 2,3,4, then i cyclic shifts."""
    return CodeTransform(5, perm=cyclic_shift(5, i), locals=["I", "I", "X", "X", "X"])


def gbp_pair_transform() -> CodeTransform:
    """The local transform pairing the gbp code with its orthogonal image."""
    return CodeTransform(4, locals=["I", "I", "I", "Y"])


@lru_cache(maxsize=None)
def rains_orbit_codes() -> tuple[QuantumCode, ...]:
    """The six mutually orthogonal single-ket components of the rains union."""
    base = fixture_rains_subcode()
    out = [base]
    for i in range(5):
        out.append(transform_code(base, rains_component_transform(i),
                                  label=f"pi^{i}.tau({base.label})"))
    return tuple(out)


@lru_cache(maxsize=None)
def get_fixture(name: str) -> QuantumCode:
    if name == "rains-subcode":
        return fixture_rains_subcode()
    if name == "gbp":
        return fixture_gbp_code()
    if name == "rains-union":
        return union_code(rains_orbit_codes(), label="rains-union")[0]
    if name == "gbp-union":
        base = fixture_gbp_code()
        image = transform_code(base, gbp_pair_transform(), label="tau(gbp)")
        return union_code([base, image], label="gbp-union")[0]
    raise KeyError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")


def fixture_union_components(name: str) -> tuple[QuantumCode, ...] | None:
    """The component codes of a union fixture, or None for plain codes."""
    if name == "rains-union":
        return rains_orbit_codes()
    if name == "gbp-union":
        base = fixture_gbp_code()
        return (base, transform_code(base, gbp_pair_transform(), label="tau(gbp)"))
    if name in FIXTURE_NAMES:
        return None
    raise KeyError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}")


def _identify_pauli_letters(coords: np.ndarray, n: int) -> str | None:
    """Letter string of the single Pauli the operator equals up to unit phase."""
    live = np.nonzero(np.abs(coords) > COEFFICIENT_TOL)[0]
    if live.size != 1 or abs(abs(coords[live[0]]) - 1.0) > COEFFICIENT_TOL:
        return None
    return str(_pauli_table(n).labels[live[0]])


def rains_product_weight_survey() -> dict:
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
    listed = {s for pattern in ("XZIII", "ZXIII", "ZIYII", "YIZII") for s in _cyclic_orbit(pattern)}
    out = {"listed_patterns": tuple(sorted(listed)), "cases": {}}
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
                        letters = _identify_pauli_letters(coords, 5)
                        if letters is not None:
                            weight2_paulis.add(letters)
            out["cases"][f"{name}.{side}"] = {
                "min_weight": min(weights),
                "weight2_paulis": tuple(sorted(weight2_paulis)),
                "reproduces_listed": bool(weight2_paulis) and weight2_paulis <= listed,
            }
    return out
