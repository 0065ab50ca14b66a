"""State vectors on n qubits and the unitary actions used for code transforms.

A transform is a qubit permutation composed with per-qubit 2x2 unitaries; the
locals act first, then the permutation moves qubit j to position perm[j].
A transform is applied to kets without building a matrix; it promotes to a
UnitaryAction, which holds the one 2^n x 2^n matrix every operator-space map
uses.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass
from functools import reduce
from typing import Iterable

import numpy as np

from .pauli import PauliLetter, PauliOperator, apply_to_amplitudes
from .tolerances import ORTHONORMALITY_TOL, UNITARY_TOL

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
    numbers within the float range (not bools, strings, NaN or infinities) and
    bits a string of n binary digits.
    """
    amps = np.zeros(1 << n, dtype=complex)
    for term in terms:
        if isinstance(term, dict):
            re, im, bits = term.get("re", 0.0), term.get("im", 0.0), term.get("bits")
        else:
            (re, bits), im = term, 0.0
        if not all(isinstance(x, numbers.Number) and not isinstance(x, bool)
                   and abs(x) <= sys.float_info.max for x in (re, im)):
            raise ValueError(f"amplitude {re!r}, {im!r} is not a finite number")
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


def _is_unitary(m: np.ndarray) -> bool:
    """Whether every entry of M M^H - I is at most UNITARY_TOL.  An entry of modulus
    above one, which no unitary has, or a NaN fails before the product can overflow."""
    return bool(np.all(np.abs(m) <= 1 + UNITARY_TOL)
                and np.all(np.abs(m @ m.conj().T - np.eye(len(m))) <= UNITARY_TOL))


def cyclic_shift(n: int, steps: int = 1) -> tuple[int, ...]:
    """Permutation sending position j to j + steps mod n."""
    return tuple((j + steps) % n for j in range(n))


@dataclass(frozen=True)
class CodeTransform:
    """A qubit permutation composed with per-qubit unitaries (locals first);
    both default to the identity, so CodeTransform(n) is the identity."""

    n: int
    perm: tuple[int, ...] = None
    locals: tuple[np.ndarray, ...] = None

    def __post_init__(self):
        perm = tuple(range(self.n)) if self.perm is None else tuple(self.perm)
        if any(isinstance(j, bool) or not isinstance(j, numbers.Integral) for j in perm):
            raise ValueError(f"perm {perm} has an entry that is not an integer")
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
            if not _is_unitary(m):
                raise ValueError(f"local at qubit {j} is not unitary")
            m = m.copy()
            m.flags.writeable = False
            frozen.append(m)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "locals", tuple(frozen))

    @classmethod
    def from_json(cls, spec: dict, n: int) -> "CodeTransform":
        """Parse {"perm": [...], "locals": [...]}; both keys optional."""
        unknown = set(spec) - {"perm", "locals"}
        if unknown:
            raise ValueError(f"unknown transform keys {sorted(unknown)}")
        return cls(n, perm=spec.get("perm"), locals=spec.get("locals"))

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


class UnitaryAction:
    """A unitary on n qubits, held as one validated 2^n x 2^n matrix.

    The union formulas use U only as an operator, to conjugate operator spaces
    and to multiply them from one side, so the matrix is all an action keeps.
    A CodeTransform is expanded to its matrix once, when the action is built.
    """

    def __init__(self, n: int, matrix: np.ndarray):
        m = np.asarray(matrix, dtype=complex)
        dim = 1 << n
        if m.shape != (dim, dim):
            raise ValueError(f"expected a {dim}x{dim} matrix, got {m.shape}")
        if not _is_unitary(m):
            raise ValueError("matrix is not unitary")
        self.n = n
        self.matrix = m

    @classmethod
    def from_transform(cls, t: CodeTransform) -> "UnitaryAction":
        dim = 1 << t.n
        # the rows carry the output qubits: permute them as apply_transform does
        rows = reduce(np.kron, t.locals).reshape((2,) * t.n + (dim,))
        return cls(t.n, np.moveaxis(rows, range(t.n), t.perm).reshape(dim, dim))

    @classmethod
    def identity(cls, n: int) -> "UnitaryAction":
        return cls(n, np.eye(1 << n, dtype=complex))

    def apply(self, k: Ket) -> Ket:
        if k.n != self.n:
            raise ValueError(f"qubit count mismatch: {self.n} != {k.n}")
        return Ket(k.n, self.matrix @ k.amplitudes)

    def adjoint(self) -> "UnitaryAction":
        return UnitaryAction(self.n, self.matrix.conj().T)
