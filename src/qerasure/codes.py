"""Quantum codes as validated orthonormal bases, plus the bundled examples.

Codes are compared as subspaces through their projectors, never as ordered
bases, since any orthonormal basis of the same span carries the same
correctability data.  All ingestion normalizes vectors first, enforces
pairwise orthogonality to 1e-9, and then orthonormalizes the accepted basis
to roundoff, so that every quantity built from it (the closed-form complements
of the erasure spaces first of all) is as orthonormal as floating point allows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .operator_space import _pauli_grams
from .states import CodeTransform, Ket, UnitaryAction, apply_transform, ket_from_terms
from .tolerances import AMPLITUDE_TOL, ORTHONORMALITY_TOL

# Size limit of ingest: at most MAX_QUBITS qubits (the 4^n-coordinate Pauli
# table) and a gram tensor <c_i|sigma|c_j> of 16 * 4^n * K^2 bytes at most
# MAX_GRAM_BYTES, about an eighth of the peak memory of an analysis.  Unions
# are held to the same gram limit with K summed over their components.
MAX_QUBITS = 8
MAX_GRAM_BYTES = 64 << 20


class CodeValidationError(ValueError):
    """A code description failed validation (zero vector, bad bits, overlap)."""

    code = "invalid-code"


class CodeTooLargeError(CodeValidationError):
    """A code description beyond the size limit of ingest."""

    code = "too-large"


@dataclass(frozen=True)
class QuantumCode:
    """A K-dimensional code on n qubits with an explicit orthonormal basis."""

    n: int
    k: int
    basis: tuple[Ket, ...]
    label: str = ""

    def __post_init__(self):
        if self.k != len(self.basis) or self.k < 1:
            raise CodeValidationError(f"k={self.k} does not match {len(self.basis)} basis kets")
        if self.k > 1 << self.n:
            raise CodeValidationError(f"k={self.k} exceeds the space dimension {1 << self.n}")
        for idx, ket in enumerate(self.basis):
            if ket.n != self.n:
                raise CodeValidationError(f"basis ket {idx} has {ket.n} qubits, expected {self.n}")
        mat = basis_matrix(self)
        gram = mat.conj().T @ mat
        err = np.abs(gram - np.eye(self.k))
        if np.max(err) > ORTHONORMALITY_TOL:
            i, j = np.unravel_index(int(np.argmax(err)), err.shape)
            raise CodeValidationError(
                f"basis is not orthonormal: |<c_{i}|c_{j}> - delta| = {err[i, j]:.3e}"
            )

    @cached_property
    def grams(self) -> np.ndarray:
        """<c_i|sigma|c_j> for all Paulis in coordinate order, (4^n, K, K); kept once built."""
        grams = _pauli_grams(basis_matrix(self), self.n)
        grams.flags.writeable = False
        return grams


def _check_gram_size(n: int, k: int) -> None:
    """Refuse a code whose gram tensor would exceed MAX_GRAM_BYTES."""
    gram_bytes = 16 * 4**n * k**2
    if gram_bytes > MAX_GRAM_BYTES:
        raise CodeTooLargeError(
            f"n={n}, K={k} needs a {gram_bytes >> 20} MiB gram tensor; "
            f"the limit is {MAX_GRAM_BYTES >> 20} MiB"
        )


def basis_matrix(code: QuantumCode) -> np.ndarray:
    """Basis kets stacked as columns, shape (2^n, K)."""
    return np.column_stack([ket.amplitudes for ket in code.basis])


def ingest_code(spec: dict) -> QuantumCode:
    """Build a code from {"n": int, "label": str, "basis": [[term, ...], ...]}.

    Each term is (amplitude, bitstring) or {"re": .., "im": .., "bits": ..}.
    Vectors are normalized; non-integer n, non-numeric or non-finite amplitudes,
    zero or overflowing norms, malformed bitstrings and non-orthogonal pairs are
    rejected, and codes beyond the size limit are refused before any amplitude is read.
    The accepted basis B, orthonormal to ORTHONORMALITY_TOL, is replaced by
    its symmetric (Lowdin) orthonormalization B (B^H B)^(-1/2), the
    orthonormal basis nearest to it, which moves no vector by more than about
    the largest overlap.
    """
    try:
        n = spec["n"]
        raw_basis = spec["basis"]
    except (KeyError, TypeError) as exc:
        raise CodeValidationError(f"code description is missing a field: {exc}") from exc
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise CodeValidationError(f"n must be a positive integer, got {n!r}")
    label = str(spec.get("label", ""))
    if not isinstance(raw_basis, list) or not raw_basis:
        raise CodeValidationError("code description needs a non-empty basis list")
    if n > MAX_QUBITS:
        raise CodeTooLargeError(f"n={n} exceeds the limit of {MAX_QUBITS} qubits")
    _check_gram_size(n, len(raw_basis))
    kets = []
    for idx, terms in enumerate(raw_basis):
        try:
            with np.errstate(over="ignore"):  # an overflow shows as an infinite norm
                ket = ket_from_terms(n, terms)
                norm = ket.norm()
        except (ValueError, TypeError) as exc:  # TypeError: a term of the wrong shape
            raise CodeValidationError(f"basis vector {idx}: {exc}") from exc
        if not np.isfinite(norm):
            raise CodeValidationError(f"basis vector {idx} has a norm beyond the float range")
        if norm == 0:
            raise CodeValidationError(f"basis vector {idx} is the zero vector")
        kets.append(ket.normalized())
    for i in range(len(kets)):
        for j in range(i + 1, len(kets)):
            overlap = abs(np.vdot(kets[i].amplitudes, kets[j].amplitudes))
            if overlap > ORTHONORMALITY_TOL:
                raise CodeValidationError(
                    f"basis vectors {i} and {j} are not orthogonal: |<c_{i}|c_{j}>| = {overlap:.3e}"
                )
    mat = np.column_stack([ket.amplitudes for ket in kets])
    w, v = np.linalg.eigh(mat.conj().T @ mat)
    mat = mat @ ((v / np.sqrt(w)) @ v.conj().T)
    basis = tuple(Ket(n, mat[:, i]) for i in range(len(kets)))
    return QuantumCode(n=n, k=len(kets), basis=basis, label=label)


def code_to_json(code: QuantumCode, amplitude_tol: float = AMPLITUDE_TOL) -> dict:
    """Serialize to the JSON form accepted by ingest_code."""
    basis = []
    for ket in code.basis:
        terms = []
        for idx in np.nonzero(np.abs(ket.amplitudes) > amplitude_tol)[0]:
            amp = ket.amplitudes[idx]
            terms.append({
                "re": float(amp.real),
                "im": float(amp.imag),
                "bits": format(int(idx), f"0{code.n}b"),
            })
        basis.append(terms)
    return {"n": code.n, "label": code.label, "basis": basis}


def transform_code(code: QuantumCode, t: CodeTransform | UnitaryAction,
                   label: str | None = None) -> QuantumCode:
    """Apply a unitary to every basis ket; orthonormality is preserved."""
    if t.n != code.n:
        raise ValueError(f"qubit count mismatch: {t.n} != {code.n}")
    if isinstance(t, UnitaryAction):
        kets = tuple(t.apply(ket) for ket in code.basis)
    else:
        kets = tuple(apply_transform(t, ket) for ket in code.basis)
    if label is None:
        label = f"U({code.label})"
    return QuantumCode(n=code.n, k=code.k, basis=kets, label=label)


def code_projector(code: QuantumCode) -> np.ndarray:
    """The rank-K projector onto the code subspace."""
    mat = basis_matrix(code)
    return mat @ mat.conj().T


def _cyclic_orbit(bits: str) -> list[str]:
    """Distinct cyclic rotations, rotating position j to j+1."""
    out, s = [], bits
    for _ in range(len(bits)):
        if s not in out:
            out.append(s)
        s = s[-1] + s[:-1]
    return out


def fixture_rains_subcode() -> QuantumCode:
    """The five-qubit single-ket code built from signed cyclic orbit sums.

    The generator is |00000> minus the orbit sum of |00011>, plus the orbit
    sum of |00101>, minus the orbit sum of |01111>, normalized.  Every
    weight-one and weight-two Pauli has zero expectation in it.
    """
    terms = [(1.0, "00000")]
    terms += [(-1.0, b) for b in _cyclic_orbit("00011")]
    terms += [(1.0, b) for b in _cyclic_orbit("00101")]
    terms += [(-1.0, b) for b in _cyclic_orbit("01111")]
    ket = ket_from_terms(5, terms).normalized()
    return QuantumCode(n=5, k=1, basis=(ket,), label="rains-subcode")


def fixture_gbp_code() -> QuantumCode:
    """The four-qubit, four-dimensional code spanned by paired bitstrings."""
    pairs = [("0000", "1111"), ("0110", "1001"), ("0101", "1010"), ("1100", "0011")]
    kets = tuple(
        ket_from_terms(4, [(1.0, a), (1.0, b)]).normalized() for a, b in pairs
    )
    return QuantumCode(n=4, k=4, basis=kets, label="gbp")
