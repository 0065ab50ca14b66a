"""Code transforms and the unitaries they act as.

A transform is a qubit permutation composed with per-qubit 2x2 unitaries; the
locals act first, then the permutation moves qubit j to position perm[j].
A transform acts only through its UnitaryAction, the one 2^n x 2^n matrix
that transform_code applies to a code's basis and every operator-space map
uses (_as_action).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .pauli import PauliLetter, _check_qubits
from .tolerances import UNITARY_TOL

LOCAL_GATES = {
    **{letter.name: letter.matrix for letter in PauliLetter},
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
}


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
        _check_qubits(self.n, too_large=ValueError)  # before any 2^n x 2^n matrix
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
        """Parse {"perm": [...], "locals": [...]}; both keys optional, null the default.

        Each field must be an array: a string would be read one letter per
        qubit and an object as its keys.
        """
        if not isinstance(spec, dict) or not set(spec) <= {"perm", "locals"}:
            got = f"keys {sorted(spec, key=str)}" if isinstance(spec, dict) else type(spec).__name__
            raise ValueError(f"a transform must be a JSON object of perm and locals; got {got}")
        for key in ("perm", "locals"):
            if not isinstance(spec.get(key), (list, type(None))):
                raise ValueError(f"{key} must be a JSON array, got {spec[key]!r}")
        return cls(n, perm=spec.get("perm"), locals=spec.get("locals"))


class UnitaryAction:
    """A unitary on n qubits, held as one validated 2^n x 2^n matrix.

    The union formulas use U only as an operator, to conjugate operator spaces
    and to multiply them from one side, so the matrix is all an action keeps.
    A CodeTransform is expanded to its matrix once, when the action is built.
    """

    def __init__(self, n: int, matrix: np.ndarray):
        _check_qubits(n, too_large=ValueError)
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
        # the Kronecker product of the locals, one broadcast product per qubit:
        # entry (2r + a, 2c + b) of m (x) l is m[r, c] l[a, b], as np.kron has it
        m = t.locals[0]
        for local in t.locals[1:]:
            m = (m[:, None, :, None] * local[None, :, None, :]).reshape(2 * len(m), -1)
        # the rows carry the output qubits: move row axis j to position perm[j]
        rows = m.reshape((2,) * t.n + (dim,))
        return cls(t.n, np.moveaxis(rows, range(t.n), t.perm).reshape(dim, dim))


def _as_action(n: int, u) -> UnitaryAction:
    """u as a UnitaryAction on n qubits: an action, a CodeTransform or a 2^n x 2^n matrix."""
    if isinstance(u, (UnitaryAction, CodeTransform)) and u.n != n:
        raise ValueError(f"qubit count mismatch: {u.n} != {n}")
    if isinstance(u, UnitaryAction):
        return u
    if isinstance(u, CodeTransform):
        return UnitaryAction.from_transform(u)
    return UnitaryAction(n, u)
