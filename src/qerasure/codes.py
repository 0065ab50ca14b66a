"""Quantum codes as validated orthonormal basis matrices, and the code-file format.

A code on n qubits is a (2^n, K) matrix of orthonormal columns, its kets.  A
code is its span, not its ordered basis: any orthonormal basis of the same
span carries the same correctability data.  All ingestion normalizes vectors
first, enforces pairwise orthogonality to 1e-9, and then orthonormalizes the
accepted basis to roundoff, so that every quantity built from it (the
closed-form complements of the erasure spaces first of all) is as
orthonormal as floating point allows.

The code-file format is read and written here alone (ingest_code,
code_to_json, ket_from_terms); the bundled codes are built in fixtures.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

from .operator_space import _pauli_grams
from .pauli import MAX_QUBITS, _check_qubits
from .states import CodeTransform, UnitaryAction, _as_action
from .tolerances import AMPLITUDE_TOL, ORTHONORMALITY_TOL

# Size limit of ingest: at most MAX_QUBITS qubits (the 4^n-coordinate Pauli
# table; defined in pauli) and a gram tensor <c_i|sigma|c_j> of 16 * 4^n * K^2
# bytes at most MAX_GRAM_BYTES, about an eighth of the peak memory of an
# analysis.  Unions are held to the same gram limit with K summed over their
# components.
MAX_GRAM_BYTES = 64 << 20


class CodeValidationError(ValueError):
    """A code description failed validation (zero vector, bad bits, overlap)."""

    code = "invalid-code"


class CodeTooLargeError(CodeValidationError):
    """A code description beyond the size limit of ingest."""

    code = "too-large"


@dataclass(frozen=True, eq=False)
class QuantumCode:
    """A K-dimensional code on n qubits: its orthonormal kets as the columns of basis.

    basis is any (2^n, K) array, 1 <= K <= 2^n; the code keeps a read-only complex copy.
    """

    n: int
    k: int = field(init=False)  # read off basis.shape
    basis: np.ndarray
    label: str = ""

    def __post_init__(self):
        n = self.n
        _check_qubits(n, CodeValidationError, CodeTooLargeError)
        if not isinstance(self.label, str):  # union_code joins the labels
            raise CodeValidationError(f"label must be a string, got {self.label!r}")
        try:
            mat = np.asarray(self.basis)
        except ValueError as exc:  # rows of different lengths
            raise CodeValidationError(f"basis is not a rectangular array: {exc}") from exc
        if mat.dtype.kind not in "iufc":
            raise CodeValidationError(f"basis entries must be numbers, got dtype {mat.dtype}")
        mat = np.array(mat, dtype=complex, order="C")
        dim = 1 << n
        if mat.ndim != 2 or mat.shape[0] != dim or not 1 <= mat.shape[1] <= dim:
            raise CodeValidationError(f"basis shape {mat.shape} is not ({dim}, K), 1 <= K <= {dim}")
        with np.errstate(all="ignore"):  # a non-finite entry shows as a NaN or an infinity
            err = np.abs(mat.conj().T @ mat - np.eye(mat.shape[1]))
        if not np.all(err <= ORTHONORMALITY_TOL):
            i, j = np.unravel_index(int(np.argmax(err)), err.shape)
            raise CodeValidationError(
                f"basis is not orthonormal: |<c_{i}|c_{j}> - delta| = {err[i, j]:.3e}"
            )
        mat.flags.writeable = False
        object.__setattr__(self, "basis", mat)
        object.__setattr__(self, "k", mat.shape[1])

    @cached_property
    def grams(self) -> np.ndarray:
        """<c_i|sigma|c_j> for all Paulis in coordinate order, (4^n, K, K); kept once built.

        A code whose tensor would exceed MAX_GRAM_BYTES raises CodeTooLargeError
        before anything is built, however the code was made.
        """
        _check_gram_size(self.n, self.k)
        grams = _pauli_grams(self.basis, self.basis, self.n)
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


_TERM_KEYS = frozenset(("re", "im", "bits"))
_FLOAT_MAX = sys.float_info.max


def _is_finite_number(x) -> bool:
    """A number within the float range: not a bool, a string, NaN or an infinity."""
    if type(x) is not float and (not isinstance(x, numbers.Number) or isinstance(x, bool)):
        return False
    return abs(x) <= _FLOAT_MAX


def _read_terms(n: int, terms: Iterable, offset: int, slots: list, values: list) -> None:
    """Check each term in order, appending its amplitude slot (offset + bits) and value.

    A term is [amplitude, bits] or a mapping with keys among "re", "im" and
    "bits"; the first bad term raises ValueError.  Values are re + 1j * im, as
    a term-by-term sum would add them.
    """
    for term in terms:
        if isinstance(term, dict):
            if not term.keys() <= _TERM_KEYS:
                raise ValueError(f"unknown term keys {sorted(term.keys() - _TERM_KEYS)}")
            re, im, bits = term.get("re", 0.0), term.get("im", 0.0), term.get("bits")
        elif isinstance(term, (list, tuple)) and len(term) == 2:
            (re, bits), im = term, 0.0
        else:
            raise ValueError(f"a term must be [amplitude, bits] or an object of re, im and "
                             f"bits; got {term!r}")
        # two finite floats pass by comparison alone; anything else takes the general check
        if not (type(re) is float and type(im) is float
                and -_FLOAT_MAX <= re <= _FLOAT_MAX and -_FLOAT_MAX <= im <= _FLOAT_MAX) \
                and not (_is_finite_number(re) and _is_finite_number(im)):
            raise ValueError(f"amplitude {re!r}, {im!r} is not a finite number")
        if not isinstance(bits, str) or len(bits) != n or bits.strip("01"):
            raise ValueError(f"bitstring {bits!r} is not {n} bits")
        slots.append(offset + int(bits, 2))
        values.append(re + 1j * im)


def _sum_terms(slots: list, values: list, size: int) -> np.ndarray:
    """Amplitudes of length size: each slot's values summed in input order.

    One bincount per part adds in the order given, from +0.0, so the sums are
    bitwise those of adding the terms one by one.
    """
    slots = np.array(slots, dtype=np.intp)
    values = np.array(values, dtype=complex)
    amps = np.empty(size, dtype=complex)
    amps.real = np.bincount(slots, weights=values.real, minlength=size)
    amps.imag = np.bincount(slots, weights=values.imag, minlength=size)
    return amps


def ket_from_terms(n: int, terms: Iterable) -> np.ndarray:
    """The 2^n amplitudes of (amplitude, bitstring) terms, e.g. [(1, "0000"), (1, "1111")].

    Terms are summed as given; normalize explicitly when needed.  Each term is
    a pair or a mapping with keys "re", "im", "bits" and no others; anything
    else is refused.  Amplitude parts must be numbers within the float range
    (not bools, strings, NaN or infinities) and bits a string of n binary digits.
    """
    slots, values = [], []
    _read_terms(n, terms, 0, slots, values)
    return _sum_terms(slots, values, 1 << n)


def ingest_code(spec: dict) -> QuantumCode:
    """Build a code from {"n": int, "label": str, "basis": [[term, ...], ...]}.

    Each basis entry is an array of terms, and each term is [amplitude,
    bitstring] or {"re": .., "im": .., "bits": ..}.  Vectors are normalized;
    unknown keys, a non-string label, non-integer n, entries or terms of
    another shape, non-numeric or non-finite amplitudes, zero norms, norms
    that overflow or underflow, malformed bitstrings and non-orthogonal pairs
    are rejected, and codes beyond the size limit are refused before any
    amplitude is read.  Errors are reported as a ket-by-ket reader meets
    them: the first bad term, unless a ket before it has a bad norm.

    Every ket's terms are checked one by one and summed into one (K, 2^n)
    array, one bincount per part, in input order.  One Gram matrix of the
    normalized columns serves the orthogonality check, which reports the
    first pair i < j in row-major order beyond ORTHONORMALITY_TOL, and the
    symmetric (Lowdin) orthonormalization B (B^H B)^(-1/2) that replaces the
    accepted basis B: the orthonormal basis nearest to it, which moves no
    vector by more than about the largest overlap.
    """
    if not isinstance(spec, dict) or not {"n", "basis"} <= set(spec) <= {"n", "label", "basis"}:
        got = f"keys {sorted(spec, key=str)}" if isinstance(spec, dict) else type(spec).__name__
        raise CodeValidationError("code description must be a JSON object with keys n, basis "
                                  f"and optionally label; got {got}")
    n, raw_basis, label = spec["n"], spec["basis"], spec.get("label", "")
    _check_qubits(n, CodeValidationError)
    if not isinstance(label, str):
        raise CodeValidationError(f"label must be a string, got {label!r}")
    if not isinstance(raw_basis, list) or not raw_basis:
        raise CodeValidationError("code description needs a non-empty basis list")
    if n > MAX_QUBITS:
        raise CodeTooLargeError(f"n={n} exceeds the limit of {MAX_QUBITS} qubits")
    _check_gram_size(n, len(raw_basis))
    # Read every ket's terms, in order, up to the first bad one; the kets
    # before it are still checked first, as a ket-by-ket reader would.
    slots, values, fault = [], [], None
    for read, terms in enumerate(raw_basis):
        whole = len(slots)
        try:
            if not isinstance(terms, (list, tuple)):
                raise ValueError(f"expected a JSON array of terms, got {type(terms).__name__}")
            _read_terms(n, terms, read << n, slots, values)
        except (ValueError, TypeError) as exc:  # TypeError: an amplitude that adds to no complex
            fault = exc
            del slots[whole:], values[whole:]  # the bad ket's terms before its bad one
            break
    else:
        read = len(raw_basis)
    amps = _sum_terms(slots, values, read << n).reshape(read, 1 << n)
    # one norm per ket: np.linalg.norm(amps, axis=1) differs from it in the last bit
    with np.errstate(over="ignore"):  # an overflow shows as an infinite norm
        norms = [float(np.linalg.norm(row)) for row in amps]
    for idx, (row, norm) in enumerate(zip(amps, norms)):
        if 0 < norm < np.inf:
            continue
        if not np.isfinite(norm):
            raise CodeValidationError(f"basis vector {idx} has a norm beyond the float range")
        if row.any():  # every square underflowed to zero
            raise CodeValidationError(f"basis vector {idx} has a norm below the float range")
        raise CodeValidationError(f"basis vector {idx} is the zero vector")
    if fault is not None:
        raise CodeValidationError(f"basis vector {read}: {fault}") from fault
    mat = np.ascontiguousarray((amps / np.array(norms)[:, None]).T)
    gram = mat.conj().T @ mat
    over = np.triu(np.abs(gram) > ORTHONORMALITY_TOL, 1)
    if over.any():
        i, j = divmod(int(over.argmax()), read)
        raise CodeValidationError(
            f"basis vectors {i} and {j} are not orthogonal: |<c_{i}|c_{j}>| = {abs(gram[i, j]):.3e}"
        )
    w, v = np.linalg.eigh(gram)
    return QuantumCode(n=n, basis=mat @ ((v / np.sqrt(w)) @ v.conj().T), label=label)


def code_to_json(code: QuantumCode) -> dict:
    """Serialize to the JSON form accepted by ingest_code; amplitudes up to AMPLITUDE_TOL drop."""
    basis = []
    for ket in code.basis.T:
        terms = []
        for idx in np.nonzero(np.abs(ket) > AMPLITUDE_TOL)[0]:
            amp = ket[idx]
            terms.append({
                "re": float(amp.real),
                "im": float(amp.imag),
                "bits": format(int(idx), f"0{code.n}b"),
            })
        basis.append(terms)
    return {"n": code.n, "label": code.label, "basis": basis}


def transform_code(code: QuantumCode, t: CodeTransform | UnitaryAction | np.ndarray,
                   label: str | None = None) -> QuantumCode:
    """Apply a unitary to the code's basis matrix; orthonormality is preserved.

    t is a CodeTransform, a UnitaryAction or a 2^n x 2^n unitary matrix.  Each
    is taken to its one matrix (states._as_action), and the image basis is
    one product of that matrix with the basis matrix.
    """
    if label is None:
        label = f"U({code.label})"
    return QuantumCode(n=code.n, basis=_as_action(code.n, t).matrix @ code.basis, label=label)
