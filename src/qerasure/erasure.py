"""Erasure-correctability conditions and the spaces of operators they carve out.

An operator E is an erasure-space member of a code when every off-diagonal
code matrix element <c_i|E|c_j> vanishes and all diagonal elements agree; it
is a pure-space member when <c_i|E|c_j> equals (tr E / 2^n) * delta_ij, the
unique linear strengthening that forces the common diagonal value to be the
identity component of E.  These are the Knill-Laflamme conditions (Knill and
Laflamme, PRA 55, 900, 1997) read as P E P proportional to P.

Both condition families are linear in E, and their complements are already
in the gram tensor: <c_i|E|c_j> is the dot product of E's Pauli coordinates
with column (i, j) of code.grams, which is how a single check reads it, and
by Pauli completeness (sum over sigma of sigma_ab sigma_cd = 2^n delta_ad
delta_bc) the K^2 columns conj(<c_i|sigma|c_j>) / 2^(n/2) are orthonormal,
exactly as far as the code basis is.  So each space is stored by a complement
written down in closed form, with no factorisation of a 4^n-long system, and
its dimension is structural: 4^n - K^2 + 1 (erasure), 4^n - K^2 (pure; 1
when K = 2^n) and 4^n - K^2 (annihilating).

Each of these spaces is closed under the adjoint, which swaps the conditions
on <c_i|E|c_j> and <c_j|E|c_i> and conjugates Pauli coordinates, so each has
a real orthonormal complement (_scaled_columns).  The complements are float64
arrays, and everything built from them runs in real arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .codes import QuantumCode
from .operator_space import (
    OperatorSubspace,
    _pauli_table,
    _residual_norm,
    matrices_to_coords,
    pauli_index,
)
from .pauli import PauliOperator
from .tolerances import ADJOINT_TOL, MATRIX_ELEMENT_TOL


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


def _gram_matrix(code: QuantumCode, op) -> tuple[np.ndarray, complex]:
    """All K x K code matrix elements of op, and tr(op) / 2^n, read off code.grams.

    op may be a PauliOperator, whose elements are one slice of the tensor
    (times i^phase unless the phase is 0, so a phase-0 Pauli's are the scans'
    own, signed zeros included); a dense (2^n, 2^n) array, taken to its Pauli
    coordinates first; or a coordinate vector of length 4^n, whose elements
    are its contraction with the tensor.  The identity is coordinate 0, so
    tr(op) / 2^n is a vector's first entry, and a Pauli's phase at the
    identity and 0 elsewhere.  The tensor comes first, so a code beyond the
    size limit is refused at once.
    """
    grams = code.grams
    if isinstance(op, PauliOperator):
        if op.n != code.n:
            raise ValueError(f"qubit count mismatch: {op.n} != {code.n}")
        index, phase = pauli_index(op), 1j**op.phase
        return phase * grams[index] if op.phase else grams[index], phase if index == 0 else 0.0
    coords = np.asarray(op, dtype=complex)
    dim = 1 << code.n
    if coords.shape == (dim, dim):
        coords = matrices_to_coords(coords, code.n)
    elif coords.shape != (4**code.n,):
        raise ValueError(f"operator shape {coords.shape} is neither ({dim}, {dim}) "
                         f"nor ({4**code.n},) for n={code.n}")
    return np.tensordot(coords, grams, 1), coords[0]


def _deviations(grams: np.ndarray, alphas) -> tuple[np.ndarray, list[np.ndarray]]:
    """Each gram against its required value alpha * identity, row-major, for each alpha.

    Returns the (m, K*K) view of grams, not a copy, and for each alpha the
    (K, m) diagonal deviations <c_i|sigma_p|c_i> - alpha_p, laid out by ket
    so that each row is one long run.  Column i*K + j of row p deviates from
    its required value by the view's entry off the diagonal (i != j) and by
    diagonal[i, p] on it, so a Pauli meets the conditions exactly when every
    deviation of its row vanishes.  alpha is the first diagonal element for
    the erasure conditions, tr(sigma)/2^n for the pure ones and 0 for the
    annihilating ones: the families differ only on the diagonal.  The scans
    and single checks read violations off these rows; the spaces are built
    from the columns of the gram tensor directly (see _condition_complement).
    """
    m, k, _ = grams.shape
    rows = grams.reshape(m, k * k)
    return rows, [np.subtract(rows.T[:: k + 1], alpha, out=np.empty((k, m), dtype=complex))
                  for alpha in alphas]


def _first_violations(grams: np.ndarray, alphas) -> list[tuple[np.ndarray, ...]]:
    """First violated condition, in row-major order, of each gram under each alpha.

    One pass over grams (m, K, K) serves every family of _deviations: the
    off-diagonal magnitudes, which all families share, are compared with
    MATRIX_ELEMENT_TOL once, and each family writes only its diagonal into a
    copy of that mask.  The flat positions of a family's violations come out
    in row-major order, so the first position of each row is that row's
    first violation, found with no reduction along the rows; only
    violations are read after the mask.  For each alpha, returns p, the
    violating rows in ascending order, and at those rows alone the (i, j) of
    the first violation and the deviation there.
    """
    k = grams.shape[1]
    rows, diagonals = _deviations(grams, alphas)
    off = np.abs(rows) >= MATRIX_ELEMENT_TOL
    out = []
    for diagonal in diagonals:
        bad = off.copy()
        bad[:, :: k + 1] = (np.abs(diagonal) >= MATRIX_ELEMENT_TOL).T
        at = np.flatnonzero(bad)
        row = at // (k * k)
        first = np.empty(at.size, dtype=bool)
        first[:1] = True
        np.not_equal(row[1:], row[:-1], out=first[1:])
        p, col = row[first], at[first] % (k * k)
        i, j = np.divmod(col, k)
        out.append((p, i, j, np.where(i == j, diagonal[i, p], rows[p, col])))
    return out


def _check(code: QuantumCode, op, pure: bool) -> MembershipReport:
    """The first violation of op's one K x K block, by _first_violations' rule, or alpha."""
    gram, trace = _gram_matrix(code, op)
    alpha = trace if pure else gram[0, 0]
    dev = gram.copy()
    dev.reshape(-1)[:: code.k + 1] -= alpha  # the diagonal
    at = np.flatnonzero(np.abs(dev) >= MATRIX_ELEMENT_TOL)
    if at.size:
        i, j = divmod(int(at[0]), code.k)
        return MembershipReport(False, witness=(i, j, complex(dev[i, j])))
    return MembershipReport(True, alpha=complex(alpha if pure else np.mean(np.diag(gram))))


def check_erasure(code: QuantumCode, op) -> MembershipReport:
    """Test the matching-diagonal conditions for one operator, read off code.grams."""
    return _check(code, op, pure=False)


def check_pure(code: QuantumCode, op) -> MembershipReport:
    """Test the stronger scaled-identity condition for one operator, read off code.grams."""
    return _check(code, op, pure=True)


def _pauli_alpha(grams: np.ndarray, pure: bool) -> np.ndarray:
    """alpha of every Pauli under the erasure, or else the pure, conditions."""
    if not pure:
        return grams[:, 0, 0]
    trace = np.zeros(len(grams))
    trace[0] = 1.0  # tr(sigma)/2^n: 1 at the identity, 0 elsewhere
    return trace


def _scaled_columns(code: QuantumCode) -> np.ndarray:
    """A real orthonormal basis of the K^2 condition directions: (4^n, K^2), a new array.

    The complex direction of the condition on <c_i|E|c_j> is
    x_ij = conj(<c_i|sigma|c_j>) / 2^(n/2), the Pauli coordinates of
    2^(n/2) |c_i><c_j|.  Paulis are Hermitian, so x_ji = conj(x_ij): the
    diagonal columns i*K + i are real, and each pair i < j spans the same
    space as sqrt(2) Re x_ij, in column i*K + j, and sqrt(2) Im x_ij, in
    column j*K + i.  These are orthonormal because x_ij^T x_ij is
    proportional to tr((|c_i><c_j|)^2) = 0 for i != j.  Read off the gram
    tensor, the upper triangle is sqrt(2) Re <c_i|sigma|c_j> and the lower
    one sqrt(2) Im <c_i|sigma|c_j>, since Im x_ij = Im <c_j|sigma|c_i>.
    """
    return _scale_parts(_gram_parts(code.grams, np.empty(code.grams.shape)), code.n).reshape(-1, code.k**2)


def _gram_parts(g: np.ndarray, out: np.ndarray, shift: int = 0) -> np.ndarray:
    """Write entry (i, j) of a (..., r, c) gram block into out, any view: Im where j < i + shift, Re elsewhere."""
    np.copyto(out, g.real)
    np.copyto(out, g.imag, where=_below(*g.shape[-2:], shift))
    return out


def _scale_parts(cols: np.ndarray, n: int) -> np.ndarray:
    """A (4^n, m, m) grid of _gram_parts, or a view of one, scaled in place to _scaled_columns' entries."""
    m = cols.shape[1]
    cols *= 2.0 ** (-n / 2) * np.where(np.eye(m, dtype=bool), 1.0, np.sqrt(2))
    return cols


def _complement_width(n: int, k: int, pure: bool) -> int:
    """Columns in the complement of the erasure, or else the pure, conditions.

    K^2 - 1 for the erasure conditions, plus the traceless code projector for
    the pure ones unless K = 2^n, where that projector is the identity.  The
    space's dimension is 4^n less this width.
    """
    return k * k - 1 + (pure and k < 1 << n)


def _condition_complement(cols: np.ndarray, n: int, pure: bool) -> np.ndarray:
    """Orthonormal complement of the erasure, or else the pure, conditions.

    cols are a code's K^2 _scaled_columns, or their image under E -> U E
    U-adjoint, as (4^n, K^2) columns or as a (K, K, 4^n) grid of entry rows,
    which may be a block of a wider one; either is overwritten, to the same
    bits.  The off-diagonal columns are kept.  The differences of the K
    diagonal ones span {sum_i w_i d_i : sum_i w_i = 0}, so the K x (K-1)
    orthonormal complement of the all-ones vector (_ones_complement) carries
    them to an orthonormal basis, written over the first K-1 diagonal
    columns.  The pure conditions add the traceless part of their sum, the
    code projector less its identity component, in the last diagonal column,
    which is the last column; _complement_width drops that column when the
    projector is the identity, as it does for the erasure conditions.
    Returns the complement's columns of a (4^n, K^2) input, and a grid as it is.
    """
    grid = cols if cols.ndim == 3 else cols.reshape(len(cols), -1, math.isqrt(cols.shape[1])).transpose(1, 2, 0)
    k = len(grid)  # grid[i, j] is entry (i, j), a view either way
    width = _complement_width(n, k, pure)
    diag = np.arange(k)
    d = np.ascontiguousarray(grid[diag, diag]).T  # (4^n, K)
    grid[diag[:-1], diag[:-1]] = (d @ _ones_complement(k)).T
    if width == k * k:
        projector = d.sum(axis=1)
        projector[0] = 0  # identity is coordinate 0
        grid[-1, -1] = projector / np.linalg.norm(projector)
    return cols if cols.ndim == 3 else cols[:, :width]


@lru_cache(maxsize=None)
def _ones_complement(k: int) -> np.ndarray:
    """Orthonormal complement of the all-ones K-vector, (K, K-1), from one QR; read-only."""
    q = np.linalg.qr(np.ones((k, 1)), mode="complete")[0][:, 1:]
    q.flags.writeable = False
    return q


@lru_cache(maxsize=None)
def _below(rows: int, cols: int, shift: int) -> np.ndarray:
    """Mask of the entries (i, j) with j < i + shift, _gram_parts' Im entries; read-only."""
    mask = np.tri(rows, cols, shift - 1, dtype=bool)
    mask.flags.writeable = False
    return mask


def erasure_space(code: QuantumCode) -> OperatorSubspace:
    """The space of all operators passing check_erasure, as a subspace.

    Its complement has K^2 - 1 columns (see _condition_complement), so its
    dimension is 4^n - K^2 + 1.
    """
    return OperatorSubspace(code.n, complement=_condition_complement(
        _scaled_columns(code), code.n, pure=False))


def pure_erasure_space(code: QuantumCode) -> OperatorSubspace:
    """The space of all operators passing check_pure; contained in erasure_space.

    Its complement adds the traceless part of the code projector to the
    erasure complement, so the identity always passes.  The dimension is
    4^n - K^2, except that K = 2^n leaves the span of the identity.
    """
    return OperatorSubspace(code.n, complement=_condition_complement(
        _scaled_columns(code), code.n, pure=True))


def annihilating_space(code: QuantumCode) -> OperatorSubspace:
    """Operators whose code matrix elements all vanish: P E P = 0.

    Its complement is all K^2 scaled gram columns.  This is the pure erasure
    space with the identity direction swapped out for a trace-carrying one:
    the pure space is the span of the identity plus the traceless part of
    this space.  It is the exact one-sided factor for union erasure spaces,
    because the mixed-component conditions of a union force every matrix
    element of E*U (and of U-adjoint*E) to zero, diagonals included.
    """
    return OperatorSubspace(code.n, complement=_scaled_columns(code))


@dataclass(frozen=True)
class WeightClassification:
    """Membership tally for all Paulis of one weight."""

    weight: int
    members: int
    non_members: int
    violators: tuple[str, ...]
    witnesses: tuple[tuple[int, int, complex], ...]


class _Scan(NamedTuple):
    """One condition family's scan of every Pauli up to a weight.

    coords are the violating coordinates in ascending order, hence by
    weight, and i, j, dev their first violations.  per_weight holds
    (weight, members, the slice of coords of that weight) for each weight.
    """

    distance: int
    per_weight: list[tuple[int, int, slice]]
    coords: np.ndarray
    i: np.ndarray
    j: np.ndarray
    dev: np.ndarray


def _scan(code: QuantumCode, families, max_weight: int | None = None) -> list[_Scan]:
    """Distance and violators up to max_weight of each family, from one pass over code.grams.

    families lists pure flags: False for the erasure conditions, True for the
    pure ones.  All families share one _first_violations pass, and only the
    violating rows are read after it.
    """
    if max_weight is None:
        max_weight = code.n
    if isinstance(max_weight, bool) or not isinstance(max_weight, int) or not 0 <= max_weight <= code.n:
        raise ValueError(f"max_weight must be an integer in [0, {code.n}], got {max_weight!r}")
    grams = code.grams
    t = _pauli_table(code.n)
    starts = t.starts[:max_weight + 2]  # weight w fills starts[w]:starts[w + 1]
    sizes = np.diff(starts).tolist()
    scans = []
    for p, i, j, dev in _first_violations(grams, [_pauli_alpha(grams, pure) for pure in families]):
        distance = int(t.weights[p[0]]) if p.size else code.n + 1
        b = np.searchsorted(p, starts).tolist()  # weight w's violators are p[b[w]:b[w + 1]]
        per_weight = [(w, sizes[w] - (b[w + 1] - b[w]), slice(b[w], b[w + 1]))
                      for w in range(max_weight + 1)]
        scans.append(_Scan(distance, per_weight, p, i, j, dev))
    return scans


def classify_paulis(code: QuantumCode, max_weight: int | None = None,
                    pure: bool = False) -> list[WeightClassification]:
    """Tally membership of every phase-0 Pauli up to max_weight, by weight."""
    [scan] = _scan(code, (pure,), max_weight)
    labels = _pauli_table(code.n).labels
    return [WeightClassification(
        weight=w,
        members=members,
        non_members=viols.stop - viols.start,
        violators=tuple(labels[scan.coords[viols]].tolist()),
        witnesses=tuple(zip(scan.i[viols].tolist(), scan.j[viols].tolist(),
                            scan.dev[viols].tolist())),
    ) for w, members, viols in scan.per_weight]


def minimum_distance(code: QuantumCode) -> int:
    """Smallest weight of a Pauli failing check_erasure; n+1 when none does.

    Scanning Paulis suffices: an operator supported on t qubits expands over
    Paulis of weight at most t, and membership is linear.  A value of n+1
    means every operator passes (the degenerate case, e.g. any K=1 code).
    """
    return _scan(code, (False,), max_weight=0)[0].distance


def pure_distance(code: QuantumCode) -> int:
    """Smallest weight of a Pauli failing check_pure; n+1 when none does."""
    return _scan(code, (True,), max_weight=0)[0].distance


def is_degenerate_distance(code: QuantumCode, distance: int) -> bool:
    """True when a scan found no violator at all."""
    return distance == code.n + 1


def hermitian_basis(s: OperatorSubspace) -> list[np.ndarray]:
    """An orthonormal basis of s made of Hermitian operators: dim(s) vectors.

    Conjugating coordinates realizes the adjoint (the basis Paulis are
    Hermitian), so s must be closed under conjugation, and then so is its
    complement C.  A real C makes the completed basis real, i.e. Hermitian.
    A complex C spans the same space as its conjugate exactly when the
    explicit residual of conj(C) off C vanishes; a spectral norm above
    ADJOINT_TOL means s is not closed under the adjoint.  Otherwise M = [Re C
    | Im C] has M M^T = Re(C C^H), the real projector onto C's span, so its
    c nonzero singular values are 1 and M V, for the eigenvectors V of M^T M
    with its c largest eigenvalues, is a real orthonormal complement, from
    which s's basis is completed.
    """
    c = s.complement
    if np.iscomplexobj(c):
        if _residual_norm(c, c.conj()) > ADJOINT_TOL:
            raise ValueError("subspace is not closed under the adjoint")
        m = np.hstack([c.real, c.imag])
        s = OperatorSubspace(s.n, complement=m @ np.linalg.eigh(m.T @ m)[1][:, c.shape[1]:])
    return list(np.ascontiguousarray(s.basis.T, dtype=complex))
