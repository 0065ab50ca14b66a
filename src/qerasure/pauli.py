"""N-qubit Pauli operators in a two-mask-plus-phase encoding.

An operator is stored as a pair of n-bit masks plus a phase exponent.  Bit j
of a mask refers to qubit j, qubit 0 is the leftmost tensor factor, and the
dense realization is

    i**phase * W(x_0, z_0) (x) W(x_1, z_1) (x) ... (x) W(x_{n-1}, z_{n-1})

where the single-qubit factor W is read off the mask bits as

    W(0, 0) = I,   W(1, 0) = X,   W(0, 1) = Z,   W(1, 1) = Y = [[0, -i], [i, 0]].

A phase exponent of 0 therefore always denotes a plain tensor product of
identity and Pauli factors, which is Hermitian and unitary.  Products track
the accumulated power of i, so the encoding is closed under multiplication.

Basis states are indexed with qubit 0 as the most significant bit: mask bit j
acts on index bit (n - 1 - j) of an amplitude vector.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

PHASE_LABELS = ("", "i", "-", "-i")

# The package's limit on n: the Pauli tables hold 4^n rows (about 65,000 at
# n = 8), and are refused beyond it before any is built.  Codes are held to
# the same limit (codes.MAX_QUBITS).
MAX_QUBITS = 8


class PauliLetter(enum.Enum):
    """Single-qubit factor names, with their conventional matrix realization."""

    I = (0, 0)
    X = (1, 0)
    Y = (1, 1)
    Z = (0, 1)

    @property
    def matrix(self) -> np.ndarray:
        """W(x, z) = i**(x z) X**x Z**z, which gives Y for (1, 1)."""
        x, z = self.value
        x_then_z = np.array([[1 - x, x], [x, 1 - x]]) * np.array([1, (-1) ** z])
        return x_then_z * 1j ** (x * z)


def _check_qubits(n, error: type[ValueError] = ValueError, too_large: type | None = None) -> None:
    """Raise error unless n is a positive int (a bool is not), and too_large beyond MAX_QUBITS."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise error(f"n must be a positive integer, got {n!r}")
    if too_large is not None and n > MAX_QUBITS:
        raise too_large(f"n={n} exceeds the limit of {MAX_QUBITS} qubits")


@dataclass(frozen=True)
class PauliOperator:
    """A tensor product of I/X/Y/Z factors times a global power of i."""

    n: int
    x_mask: int
    z_mask: int
    phase: int = 0

    def __post_init__(self):
        _check_qubits(self.n)
        if not all(type(v) is int for v in (self.x_mask, self.z_mask, self.phase)):  # a bool is refused
            raise ValueError(f"masks and phase must be integers, got {self.x_mask, self.z_mask, self.phase}")
        limit = 1 << self.n
        if not (0 <= self.x_mask < limit and 0 <= self.z_mask < limit):
            raise ValueError(f"mask has bits outside {self.n} qubits")
        object.__setattr__(self, "phase", self.phase % 4)

    def __mul__(self, other: "PauliOperator") -> "PauliOperator":
        return multiply(self, other)

    def __str__(self) -> str:
        return pauli_to_string(self)

    def letters(self) -> tuple[PauliLetter, ...]:
        out = []
        for j in range(self.n):
            bits = ((self.x_mask >> j) & 1, (self.z_mask >> j) & 1)
            out.append(PauliLetter(bits))
        return tuple(out)


_X_BITS, _Z_BITS = str.maketrans("IXYZ", "0110"), str.maketrans("IXYZ", "0011")


def pauli_from_letters(letters: Sequence[PauliLetter | str]) -> PauliOperator:
    """Build a phase-0 operator from a sequence of letters, or a string of their names (qubit 0 first)."""
    if len(letters) == 0:
        raise ValueError("need at least one letter")
    if not isinstance(letters, str) or letters.strip("IXYZ"):  # not a string of names alone
        names = [letter.name if isinstance(letter, PauliLetter) else letter for letter in letters]
        for name in names:
            if not (isinstance(name, str) and name in PauliLetter.__members__):
                raise ValueError(f"not a Pauli letter: {name!r}")
        letters = "".join(names)
    bits = letters[::-1]  # qubit 0 is mask bit 0, the last digit
    return PauliOperator(len(letters), int(bits.translate(_X_BITS), 2), int(bits.translate(_Z_BITS), 2))


def pauli_from_string(text: str) -> PauliOperator:
    """Parse a label such as "IIYZY", "iXZ" or "-iY" back into an operator."""
    phase = 0
    for k, prefix in ((3, "-i"), (1, "i"), (2, "-")):
        if text.startswith(prefix):
            phase, text = k, text[len(prefix):]
            break
    if not text or text.strip("IXYZ"):
        raise ValueError(f"not a Pauli label: {text!r}")
    base = pauli_from_letters(text)
    return PauliOperator(base.n, base.x_mask, base.z_mask, phase) if phase else base


def pauli_to_string(p: PauliOperator) -> str:
    """Render as a phase prefix from {"", "i", "-", "-i"} plus letters."""
    letters = "".join(letter.name for letter in p.letters())
    return PHASE_LABELS[p.phase] + letters


def weight(p: PauliOperator) -> int:
    """Number of tensor factors that differ from the identity."""
    return (p.x_mask | p.z_mask).bit_count()


def multiply(p: PauliOperator, q: PauliOperator) -> PauliOperator:
    """Operator product p*q, with the accumulated power of i."""
    if p.n != q.n:
        raise ValueError(f"qubit count mismatch: {p.n} != {q.n}")
    # Work in X^x Z^z ordering, where each Y contributes one factor of i and
    # commuting Z past X costs a sign per overlapping bit.
    lam_p = p.phase + (p.x_mask & p.z_mask).bit_count()
    lam_q = q.phase + (q.x_mask & q.z_mask).bit_count()
    lam = lam_p + lam_q + 2 * (p.z_mask & q.x_mask).bit_count()
    x = p.x_mask ^ q.x_mask
    z = p.z_mask ^ q.z_mask
    return PauliOperator(p.n, x, z, (lam - (x & z).bit_count()) % 4)


@lru_cache(maxsize=None)
def _pauli_masks(n: int) -> np.ndarray:
    """(x_mask, z_mask) of every phase-0 operator in the fixed order, shape (4^n, 2).

    The order is ascending weight, then lexicographic by (x_mask, z_mask).
    It defines the coordinate system used for operator subspaces, so it must
    never change.  The array is read-only.  n beyond MAX_QUBITS is refused
    with ValueError before anything is built.
    """
    if n > MAX_QUBITS:
        raise ValueError(f"n={n} exceeds the limit of {MAX_QUBITS} qubits")
    x, z = np.divmod(np.arange(4**n), 1 << n)
    order = np.lexsort((z, x, np.bitwise_count(x | z)))
    masks = np.column_stack([x[order], z[order]])
    masks.flags.writeable = False
    return masks


def enumerate_paulis(n: int, max_weight: int) -> list[PauliOperator]:
    """All phase-0 operators of weight <= max_weight, each exactly once.

    They are the leading rows of _pauli_masks(n), in its order.
    """
    if isinstance(max_weight, bool) or not isinstance(max_weight, int) or not 0 <= max_weight <= n:
        raise ValueError(f"max_weight must be an integer in [0, {n}], got {max_weight!r}")
    masks = _pauli_masks(n)
    count = np.count_nonzero(np.bitwise_count(masks[:, 0] | masks[:, 1]) <= max_weight)
    return [PauliOperator(n, x, z) for x, z in masks[:count].tolist()]


def _reverse_bits(mask, n: int):
    """Mask (an int or an integer array) with its n low bits in reverse order."""
    out = mask & 0
    for j in range(n):
        out |= ((mask >> j) & 1) << (n - 1 - j)
    return out


def to_matrix(p: PauliOperator) -> np.ndarray:
    """Dense 2^n x 2^n realization; n beyond MAX_QUBITS is refused before any matrix is made."""
    _check_qubits(p.n, too_large=ValueError)
    mats = [letter.matrix for letter in p.letters()]
    return (1j**p.phase) * reduce(np.kron, mats)
