"""Erasure-correctability conditions and the spaces of operators they carve out.

An operator E is an erasure-space member of a code when every off-diagonal
code matrix element <c_i|E|c_j> vanishes and all diagonal elements agree; it
is a pure-space member when <c_i|E|c_j> equals (tr E / 2^n) * delta_ij, the
unique linear strengthening that forces the common diagonal value to be the
identity component of E.  Both condition families are linear in E, so each
space is the nullspace of a small constraint system over Pauli coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import QuantumCode, basis_matrix
from .operator_space import RANK_RTOL, OperatorSubspace, _pauli_table, coords_to_matrix
from .pauli import PauliOperator, apply_to_amplitudes

MATRIX_ELEMENT_TOL = 1e-9


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of a single membership test.

    witness is (i, j, deviation) for the first violated matrix-element
    condition in row-major order, where deviation is the offending matrix
    element minus its required value; alpha is the common diagonal value and
    is only set for members.
    """

    member: bool
    alpha: complex | None = None
    witness: tuple[int, int, complex] | None = None


def _gram_matrix(code: QuantumCode, op) -> np.ndarray:
    """All K x K code matrix elements of op.

    op may be a PauliOperator, a dense (2^n, 2^n) array, or a coordinate
    vector of length 4^n.
    """
    mat = basis_matrix(code)
    if isinstance(op, PauliOperator):
        if op.n != code.n:
            raise ValueError(f"qubit count mismatch: {op.n} != {code.n}")
        return mat.conj().T @ apply_to_amplitudes(op, mat)
    dense = np.asarray(op, dtype=complex)
    if dense.ndim == 1:
        if dense.shape[0] != 4**code.n:
            raise ValueError(f"coordinate vector has length {dense.shape[0]}, expected {4**code.n}")
        dense = coords_to_matrix(dense, code.n)
    if dense.shape != (1 << code.n, 1 << code.n):
        raise ValueError(f"operator shape {dense.shape} does not fit n={code.n}")
    return mat.conj().T @ dense @ mat


def _trace_over_dim(code: QuantumCode, op) -> complex:
    if isinstance(op, PauliOperator):
        return 1j**op.phase if op.x_mask == 0 and op.z_mask == 0 else 0.0
    arr = np.asarray(op, dtype=complex)
    if arr.ndim == 1:
        return complex(arr[0])  # identity is coordinate 0
    return complex(np.trace(arr)) / (1 << code.n)


def _deviations(grams: np.ndarray, alpha) -> np.ndarray:
    """Each gram minus its required value alpha * identity, row-major: (m, K*K).

    Column i*K + j of row p holds <c_i|sigma_p|c_j> - alpha_p delta_ij.  A
    Pauli meets the conditions exactly when its row vanishes, an operator
    with coordinates e when dev.T @ e does.  alpha is the first diagonal
    element for the erasure conditions, tr(sigma)/2^n for the pure ones and
    0 for the annihilating ones.
    """
    m, k, _ = grams.shape
    dev = grams.reshape(m, k * k).copy()
    dev[:, :: k + 1] -= np.reshape(alpha, (-1, 1))
    return dev


def _first_violations(dev: np.ndarray, k: int, tol: float = MATRIX_ELEMENT_TOL):
    """First violated condition, in row-major order, of each row of _deviations.

    Returns the violation mask and, for every row, the (i, j) of its first
    violation and the deviation there.
    """
    bad = np.abs(dev) >= tol
    first = bad.argmax(axis=1)
    return bad.any(axis=1), first // k, first % k, dev[np.arange(dev.shape[0]), first]


def _check(code: QuantumCode, op, tol: float, pure: bool) -> MembershipReport:
    gram = _gram_matrix(code, op)
    alpha = _trace_over_dim(code, op) if pure else gram[0, 0]
    bad, i, j, dev = _first_violations(_deviations(gram[None], alpha), code.k, tol)
    if bad[0]:
        return MembershipReport(False, witness=(int(i[0]), int(j[0]), complex(dev[0])))
    return MembershipReport(True, alpha=complex(alpha if pure else np.mean(np.diag(gram))))


def check_erasure(code: QuantumCode, op,
                  tol: float = MATRIX_ELEMENT_TOL) -> MembershipReport:
    """Test the matching-diagonal conditions for a single operator."""
    return _check(code, op, tol, pure=False)


def check_pure(code: QuantumCode, op,
               tol: float = MATRIX_ELEMENT_TOL) -> MembershipReport:
    """Test the stronger scaled-identity condition for a single operator."""
    return _check(code, op, tol, pure=True)


def _pauli_deviations(code: QuantumCode, pure: bool) -> np.ndarray:
    """_deviations of every Pauli under the erasure, or else the pure, conditions."""
    grams = code.grams
    if not pure:
        return _deviations(grams, grams[:, 0, 0])
    trace = np.zeros(4**code.n)
    trace[0] = 1.0  # tr(sigma)/2^n: 1 at the identity, 0 elsewhere
    return _deviations(grams, trace)


def erasure_space(code: QuantumCode) -> OperatorSubspace:
    """The space of all operators passing check_erasure, as a subspace.

    One constraint row per code matrix element, row-major over (i, j); the
    diagonal rows subtract the first diagonal element, so row (0, 0) is zero.
    """
    return OperatorSubspace.from_constraints(code.n, _pauli_deviations(code, pure=False).T)


def pure_erasure_space(code: QuantumCode) -> OperatorSubspace:
    """The space of all operators passing check_pure; contained in erasure_space.

    Rows cover all K^2 pairs; the diagonal rows subtract the identity
    coordinate so that, for example, the identity operator always passes.
    """
    return OperatorSubspace.from_constraints(code.n, _pauli_deviations(code, pure=True).T)


def annihilating_space(code: QuantumCode) -> OperatorSubspace:
    """Operators whose code matrix elements all vanish: P E P = 0.

    This is the pure erasure space with the identity direction swapped out
    for a trace-carrying one: the pure space is the span of the identity
    plus the traceless part of this space.  It is the exact one-sided factor
    for union erasure spaces, because the mixed-component conditions of a
    union force every matrix element of E*U (and of U-adjoint*E) to zero,
    diagonals included.
    """
    return OperatorSubspace.from_constraints(code.n, _deviations(code.grams, 0).T)


@dataclass(frozen=True)
class WeightClassification:
    """Membership tally for all Paulis of one weight."""

    weight: int
    members: int
    non_members: int
    violators: tuple[str, ...]
    witnesses: tuple[tuple[int, int, complex], ...]


def _pauli_violations(code: QuantumCode, pure: bool):
    """Pauli weights in coordinate order, and _first_violations of every Pauli."""
    t = _pauli_table(code.n)
    return np.bitwise_count(t.x | t.z), _first_violations(_pauli_deviations(code, pure), code.k)


def classify_paulis(code: QuantumCode, max_weight: int | None = None,
                    pure: bool = False) -> list[WeightClassification]:
    """Tally membership of every phase-0 Pauli up to max_weight, by weight."""
    if max_weight is None:
        max_weight = code.n
    if not 0 <= max_weight <= code.n:
        raise ValueError(f"max_weight must be in [0, {code.n}], got {max_weight}")
    weights, (bad, i, j, dev) = _pauli_violations(code, pure)
    labels = _pauli_table(code.n).labels
    out = []
    for w in range(max_weight + 1):
        viols = np.flatnonzero(bad & (weights == w))
        out.append(WeightClassification(
            weight=w,
            members=int(np.sum(weights == w)) - len(viols),
            non_members=len(viols),
            violators=tuple(labels[viols].tolist()),
            witnesses=tuple((int(i[p]), int(j[p]), complex(dev[p])) for p in viols),
        ))
    return out


def _distance_scan(code: QuantumCode, pure: bool) -> int:
    weights, (bad, *_) = _pauli_violations(code, pure)
    failing = weights[bad]  # coordinate order is ascending weight
    return int(failing[0]) if failing.size else code.n + 1


def minimum_distance(code: QuantumCode) -> int:
    """Smallest weight of a Pauli failing check_erasure; n+1 when none does.

    Scanning Paulis suffices: an operator supported on t qubits expands over
    Paulis of weight at most t, and membership is linear.  A value of n+1
    means every operator passes (the degenerate case, e.g. any K=1 code).
    """
    return _distance_scan(code, pure=False)


def pure_distance(code: QuantumCode) -> int:
    """Smallest weight of a Pauli failing check_pure; n+1 when none does."""
    return _distance_scan(code, pure=True)


def is_degenerate_distance(code: QuantumCode, distance: int) -> bool:
    """True when a scan found no violator at all."""
    return distance == code.n + 1


def hermitian_basis(s: OperatorSubspace, tol: float = 1e-9) -> list[np.ndarray]:
    """An orthonormal basis of s made of Hermitian operators.

    Conjugating coordinates realizes the adjoint (the basis Paulis are
    Hermitian), so s must be closed under conjugation.  Then the real and
    imaginary parts of its basis vectors span a real space of dimension
    exactly dim(s), and the first dim(s) left singular vectors of [Re B | Im B]
    are orthonormal real coordinate vectors, i.e. Hermitian operators, that
    span s.  The list has exactly dim(s) elements.
    """
    b = s.basis
    # complement^H conj(B) is the conjugate of complement^T B: same column norms
    outside = np.linalg.norm(s.complement.T @ b, axis=0) / np.linalg.norm(b, axis=0)
    if np.any(outside > tol):
        raise ValueError("subspace is not closed under the adjoint")
    u, sv, _ = np.linalg.svd(np.hstack([b.real, b.imag]), full_matrices=False)
    rank = int(np.sum(sv > RANK_RTOL * sv[0])) if sv.size else 0
    if rank != s.dim:
        raise RuntimeError(f"real and imaginary parts have rank {rank} for a dim-{s.dim} space")
    return [u[:, col].astype(complex) for col in range(rank)]
