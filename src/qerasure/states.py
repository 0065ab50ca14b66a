"""State vectors on n qubits and the unitary actions used for code transforms.

A transform is a qubit permutation composed with per-qubit 2x2 unitaries; the
locals act first, then the permutation moves qubit j to position perm[j].
Transforms promote to a general unitary action that can also conjugate Pauli
operators symbolically whenever every local factor is a Pauli matrix up to
phase.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import reduce
from typing import Iterable

import numpy as np

from .pauli import PauliLetter, PauliOperator, apply_to_amplitudes
from .tolerances import COEFFICIENT_TOL, ORTHONORMALITY_TOL, UNITARY_TOL

LOCAL_GATES = {
    **{letter.name: letter.matrix for letter in PauliLetter},
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
}


@dataclass(frozen=True)
class Ket:
    """A complex amplitude vector of length 2^n, qubit 0 as most significant bit."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes, got shape {amps.shape}")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self, tol: float = ORTHONORMALITY_TOL) -> bool:
        return abs(self.norm() ** 2 - 1.0) < tol

    def normalized(self) -> "Ket":
        nrm = self.norm()
        if nrm == 0:
            raise ValueError("cannot normalize the zero vector")
        return Ket(self.n, self.amplitudes / nrm)


def ket_from_terms(n: int, terms: Iterable) -> Ket:
    """Build a ket from (amplitude, bitstring) terms, e.g. [(1, "0000"), (1, "1111")].

    Terms are summed as given; normalize explicitly when needed.  Each term may
    also be a mapping with keys "re", "im", "bits".  Amplitude parts must be
    numbers (not bools or strings) and bits a string of n binary digits.
    """
    amps = np.zeros(1 << n, dtype=complex)
    for term in terms:
        if isinstance(term, dict):
            re, im, bits = term.get("re", 0.0), term.get("im", 0.0), term.get("bits")
        else:
            (re, bits), im = term, 0.0
        if any(isinstance(x, bool) or not isinstance(x, numbers.Number) for x in (re, im)):
            raise ValueError(f"amplitude {re!r}, {im!r} is not a number")
        if not isinstance(bits, str) or len(bits) != n or any(ch not in "01" for ch in bits):
            raise ValueError(f"bitstring {bits!r} is not {n} bits")
        amps[int(bits, 2)] += re + 1j * im
    return Ket(n, amps)


def basis_state(n: int, bits: str) -> Ket:
    return ket_from_terms(n, [(1.0, bits)])


def inner_product(a: Ket, b: Ket) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.n != b.n:
        raise ValueError(f"qubit count mismatch: {a.n} != {b.n}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def apply_pauli(p: PauliOperator, k: Ket) -> Ket:
    if p.n != k.n:
        raise ValueError(f"qubit count mismatch: {p.n} != {k.n}")
    return Ket(k.n, apply_to_amplitudes(p, k.amplitudes))


def _as_local(entry) -> np.ndarray:
    if isinstance(entry, str):
        try:
            return LOCAL_GATES[entry]
        except KeyError:
            raise ValueError(f"unknown local gate name {entry!r}") from None
    m = np.asarray(entry, dtype=complex)
    if m.shape == (4, 2):  # four [re, im] rows, row-major 2x2
        m = (m[:, 0] + 1j * m[:, 1]).reshape(2, 2)
    if m.shape != (2, 2):
        raise ValueError(f"local gate must be 2x2, got shape {m.shape}")
    return m


def cyclic_shift(n: int, steps: int = 1) -> tuple[int, ...]:
    """Permutation sending position j to j + steps mod n."""
    return tuple((j + steps) % n for j in range(n))


@dataclass(frozen=True)
class CodeTransform:
    """A qubit permutation composed with per-qubit unitaries (locals first)."""

    n: int
    perm: tuple[int, ...] = None
    locals: tuple[np.ndarray, ...] = None

    def __post_init__(self):
        perm = tuple(range(self.n)) if self.perm is None else tuple(self.perm)
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"perm {perm} is not a permutation of 0..{self.n - 1}")
        locs = (
            tuple(LOCAL_GATES["I"] for _ in range(self.n))
            if self.locals is None
            else tuple(_as_local(m) for m in self.locals)
        )
        if len(locs) != self.n:
            raise ValueError(f"expected {self.n} locals, got {len(locs)}")
        frozen = []
        for j, m in enumerate(locs):
            if np.max(np.abs(m @ m.conj().T - np.eye(2))) > UNITARY_TOL:
                raise ValueError(f"local at qubit {j} is not unitary")
            m = m.copy()
            m.flags.writeable = False
            frozen.append(m)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "locals", tuple(frozen))

    @classmethod
    def identity(cls, n: int) -> "CodeTransform":
        return cls(n)

    @classmethod
    def from_json(cls, spec: dict, n: int) -> "CodeTransform":
        """Parse {"perm": [...], "locals": [...]}; both keys optional."""
        unknown = set(spec) - {"perm", "locals"}
        if unknown:
            raise ValueError(f"unknown transform keys {sorted(unknown)}")
        return cls(n, perm=spec.get("perm"), locals=spec.get("locals"))

    def is_identity(self) -> bool:
        return self.perm == tuple(range(self.n)) and all(
            np.array_equal(m, LOCAL_GATES["I"]) for m in self.locals
        )

    def adjoint(self) -> "CodeTransform":
        """Inverse transform, again in locals-then-permutation form."""
        inv = [0] * self.n
        for j, d in enumerate(self.perm):
            inv[d] = j
        new_locals = [None] * self.n
        for j in range(self.n):
            new_locals[self.perm[j]] = self.locals[j].conj().T
        return CodeTransform(self.n, perm=tuple(inv), locals=tuple(new_locals))


def apply_transform(t: CodeTransform, k: Ket) -> Ket:
    """Apply the per-qubit locals, then move qubit j to position t.perm[j]."""
    if t.n != k.n:
        raise ValueError(f"qubit count mismatch: {t.n} != {k.n}")
    state = k.amplitudes.reshape((2,) * t.n)
    for j, m in enumerate(t.locals):
        if np.array_equal(m, LOCAL_GATES["I"]):
            continue
        state = np.moveaxis(np.tensordot(m, state, axes=([1], [j])), 0, j)
    if t.perm != tuple(range(t.n)):
        state = np.moveaxis(state, list(range(t.n)), list(t.perm))
    return Ket(k.n, state.reshape(-1))


def _pauli_letter_of(m: np.ndarray) -> str | None:
    """Name of the Pauli equal to m up to a unit phase, or None."""
    for name in "IXYZ":
        w = LOCAL_GATES[name]
        c = np.trace(w.conj().T @ m) / 2
        if abs(abs(c) - 1.0) < COEFFICIENT_TOL and np.allclose(m, c * w, atol=COEFFICIENT_TOL):
            return name
    return None


class UnitaryAction:
    """An applicable unitary on n qubits, with its adjoint.

    Wraps either a CodeTransform (applied without building a matrix) or an
    explicit 2^n x 2^n unitary.  When every local factor of a transform is a
    Pauli matrix up to phase, Pauli operators can be conjugated symbolically
    on their masks.
    """

    def __init__(self, n: int, transform: CodeTransform | None = None,
                 matrix: np.ndarray | None = None):
        if (transform is None) == (matrix is None):
            raise ValueError("provide exactly one of transform or matrix")
        self.n = n
        self._transform = transform
        self._adjoint_transform = None
        self._matrix = None
        if matrix is not None:
            m = np.asarray(matrix, dtype=complex)
            dim = 1 << n
            if m.shape != (dim, dim):
                raise ValueError(f"expected a {dim}x{dim} matrix, got {m.shape}")
            if np.max(np.abs(m @ m.conj().T - np.eye(dim))) > UNITARY_TOL:
                raise ValueError("matrix is not unitary")
            self._matrix = m
        self._pauli_letters = None
        if transform is not None:
            letters = [_pauli_letter_of(m) for m in transform.locals]
            if all(name is not None for name in letters):
                self._pauli_letters = tuple(letters)

    @classmethod
    def from_transform(cls, t: CodeTransform) -> "UnitaryAction":
        return cls(t.n, transform=t)

    @classmethod
    def from_matrix(cls, n: int, matrix: np.ndarray) -> "UnitaryAction":
        return cls(n, matrix=matrix)

    @classmethod
    def identity(cls, n: int) -> "UnitaryAction":
        return cls(n, transform=CodeTransform.identity(n))

    @property
    def is_pauli_type(self) -> bool:
        return self._pauli_letters is not None

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            t = self._transform
            dim = 1 << t.n
            # the rows carry the output qubits: permute them as apply_transform does
            rows = reduce(np.kron, t.locals).reshape((2,) * t.n + (dim,))
            self._matrix = np.moveaxis(rows, range(t.n), t.perm).reshape(dim, dim)
        return self._matrix

    def apply(self, k: Ket) -> Ket:
        if k.n != self.n:
            raise ValueError(f"qubit count mismatch: {self.n} != {k.n}")
        if self._transform is not None:
            return apply_transform(self._transform, k)
        return Ket(k.n, self._matrix @ k.amplitudes)

    def apply_adjoint(self, k: Ket) -> Ket:
        if k.n != self.n:
            raise ValueError(f"qubit count mismatch: {self.n} != {k.n}")
        if self._transform is not None:
            if self._adjoint_transform is None:
                self._adjoint_transform = self._transform.adjoint()
            return apply_transform(self._adjoint_transform, k)
        return Ket(k.n, self._matrix.conj().T @ k.amplitudes)

    def adjoint(self) -> "UnitaryAction":
        if self._transform is not None:
            return UnitaryAction.from_transform(self._transform.adjoint())
        return UnitaryAction.from_matrix(self.n, self._matrix.conj().T)

    def conjugate_pauli(self, p: PauliOperator) -> PauliOperator:
        """U p U^dagger as a PauliOperator.  Requires a Pauli-type transform.

        Each local either commutes or anticommutes with the factor it meets,
        so conjugation only flips signs and permutes tensor positions; local
        phases cancel between U and U^dagger.
        """
        if self._pauli_letters is None:
            raise ValueError("conjugate_pauli needs a transform with Pauli-type locals")
        if p.n != self.n:
            raise ValueError(f"qubit count mismatch: {self.n} != {p.n}")
        flips = 0
        x_new = z_new = 0
        perm = self._transform.perm
        for j, name in enumerate(self._pauli_letters):
            xb = (p.x_mask >> j) & 1
            zb = (p.z_mask >> j) & 1
            w = PauliLetter[name]
            if (xb & w.z_bit) ^ (zb & w.x_bit):
                flips += 1
            x_new |= xb << perm[j]
            z_new |= zb << perm[j]
        return PauliOperator(p.n, x_new, z_new, (p.phase + 2 * flips) % 4)
