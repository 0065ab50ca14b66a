"""The per-term ingest and the per-family Pauli scan that the package reads off arrays.

The package sums every ket's terms with one bincount per part, checks
orthogonality and orthonormalizes from one Gram matrix, and scans the gram
tensor once for the erasure and the pure conditions, touching only the
violating rows after one shared pass.  This module keeps the older routes as
references:

- ingest one ket at a time: each term added into its amplitude on its own,
  each ket normalized as soon as it is read, and each pair i < j checked
  with its own inner product;
- scan one family at a time, over every row of the gram tensor: the
  magnitudes of all K^2 deviations, and the first violation of each row by
  argmax, with the witnesses of every violator.

Only tests call these.
"""

import numbers
import sys

import numpy as np

from qerasure import QuantumCode
from qerasure.codes import MAX_QUBITS, CodeTooLargeError, CodeValidationError, _check_gram_size
from qerasure.operator_space import _pauli_table
from qerasure.tolerances import MATRIX_ELEMENT_TOL, ORTHONORMALITY_TOL


def ket_from_terms(n, terms):
    """Amplitudes summed term by term; raises ValueError (or TypeError) at the first bad term."""
    amps = np.zeros(1 << n, dtype=complex)
    for term in terms:
        if isinstance(term, dict):
            if set(term) - {"re", "im", "bits"}:
                raise ValueError(f"unknown term keys {sorted(set(term) - {'re', 'im', 'bits'})}")
            re, im, bits = term.get("re", 0.0), term.get("im", 0.0), term.get("bits")
        else:
            (re, bits), im = term, 0.0
        if not all(isinstance(x, numbers.Number) and not isinstance(x, bool)
                   and abs(x) <= sys.float_info.max for x in (re, im)):
            raise ValueError(f"amplitude {re!r}, {im!r} is not a finite number")
        if not isinstance(bits, str) or len(bits) != n or any(ch not in "01" for ch in bits):
            raise ValueError(f"bitstring {bits!r} is not {n} bits")
        amps[int(bits, 2)] += re + 1j * im
    return amps


def ingest_code(spec):
    """codes.ingest_code one ket and one pair at a time, with the same messages."""
    if not isinstance(spec, dict) or not {"n", "basis"} <= set(spec) <= {"n", "label", "basis"}:
        got = f"keys {sorted(spec, key=str)}" if isinstance(spec, dict) else type(spec).__name__
        raise CodeValidationError("code description must be a JSON object with keys n, basis "
                                  f"and optionally label; got {got}")
    n, raw_basis, label = spec["n"], spec["basis"], spec.get("label", "")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise CodeValidationError(f"n must be a positive integer, got {n!r}")
    if not isinstance(label, str):
        raise CodeValidationError(f"label must be a string, got {label!r}")
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
                norm = np.linalg.norm(ket)
        except (ValueError, TypeError) as exc:
            raise CodeValidationError(f"basis vector {idx}: {exc}") from exc
        if not np.isfinite(norm):
            raise CodeValidationError(f"basis vector {idx} has a norm beyond the float range")
        if norm == 0 and ket.any():  # every square underflowed to zero
            raise CodeValidationError(f"basis vector {idx} has a norm below the float range")
        if norm == 0:
            raise CodeValidationError(f"basis vector {idx} is the zero vector")
        kets.append(ket / norm)
    for i in range(len(kets)):
        for j in range(i + 1, len(kets)):
            overlap = abs(np.vdot(kets[i], kets[j]))
            if overlap > ORTHONORMALITY_TOL:
                raise CodeValidationError(
                    f"basis vectors {i} and {j} are not orthogonal: |<c_{i}|c_{j}>| = {overlap:.3e}"
                )
    mat = np.column_stack(kets)
    w, v = np.linalg.eigh(mat.conj().T @ mat)
    return QuantumCode(n=n, basis=mat @ ((v / np.sqrt(w)) @ v.conj().T), label=label)


def scan(code, pure):
    """One family's violators in coordinate order: [(weight, label, (i, j, deviation))]."""
    grams = code.grams
    m, k, _ = grams.shape
    rows = grams.reshape(m, k * k)
    if pure:
        alpha = np.zeros(m)
        alpha[0] = 1.0  # tr(sigma)/2^n
    else:
        alpha = grams[:, 0, 0]
    diagonal = rows[:, :: k + 1] - alpha[:, None]
    size = np.abs(rows)
    size[:, :: k + 1] = np.abs(diagonal)
    bad = size >= MATRIX_ELEMENT_TOL
    first = bad.argmax(axis=1)
    i, j = np.divmod(first, k)
    index = np.arange(m)
    dev = np.where(i == j, diagonal[index, i], rows[index, first])
    t = _pauli_table(code.n)
    weights = np.bitwise_count(t.x | t.z)
    return [(int(weights[p]), str(t.labels[p]), (int(i[p]), int(j[p]), complex(dev[p])))
            for p in np.flatnonzero(bad.any(axis=1))]
