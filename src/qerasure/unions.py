"""Union codes and the intersection route to their erasure spaces.

The union of mutually orthogonal codes of equal length is the code spanned by
the concatenated bases.  For a two-component union C (+) UC built from a
unitary image, the membership conditions split by component block, so the
erasure space equals an intersection of spaces derived from C alone: its
erasure space, the conjugate of that under U, right and left one-sided
multiples of the zero-block space (operators annihilated by the code
projector on both sides), and the space of operators whose expectation in the
first basis ket is unchanged by conjugation.  The union's pure space takes the
pure space and its conjugate for the first two and drops the last.  Both are
cross-checked against the direct computation over the concatenated basis,
which never special-cases mixed component pairs: its grid is, bit for bit,
what the union's own gram tensor gives (_direct_complement).

The first three factors meet in a space S whose complement needs no
factorization.  Their complements lie in the CC, UU and CU/UC blocks of
operator space, spanned by |a><b| with a, b in C, in UC, or one in each, and
these blocks are Hilbert-Schmidt orthogonal: <|a><b|, |c><d|> = <a|c><d|b>
vanishes across blocks because C is orthogonal to UC.  So S's complement is
one grid of the union's own _scaled_columns, each entry a contiguous row
(_block_sum), the unit traceless projectors of C and UC sit on its
diagonal, and each formula replaces one of them by a closed form
(_formula_complements): every dimension on the route is structural.  Off
the diagonal, entries (a, b) and
(b, a) of the grid, as of the union's own complement, span the real plane of
|a><b| and |b><a|, and these planes are Hilbert-Schmidt orthogonal too, so
the comparison runs one ket pair at a time, in closed form, and one
eigenvalue solve per formula for the diagonal block (_cross_check).

Every factor is closed under the adjoint, so each is stored by a real
complement, and the intersections and the comparison run in real arithmetic.
Every complement is a linear image of the code's K^2 real gram columns, so
one map of their K^2 complex pairs Z_ij + i Z_ji to matrices builds them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from . import operator_space, states
from .codes import QuantumCode, _check_gram_size, transform_code
from .erasure import _complement_width, _condition_complement, _gram_parts, _scale_parts
from .operator_space import OperatorSubspace, _gram_blocks, _pauli_table, _residual_norm
from .operator_space import coords_to_matrices, matrices_to_coords
from .tolerances import CROSS_ORTHOGONALITY_TOL, SUBSPACE_TOL


class OrthogonalityError(ValueError):
    """Two code components overlap beyond tolerance."""

    code = "orthogonality"


@dataclass(frozen=True)
class UnionBuildReport:
    component_labels: tuple[str, ...]
    max_cross_inner: float
    k: int
    n: int


def union_code(codes: Sequence[QuantumCode],
               label: str | None = None) -> tuple[QuantumCode, UnionBuildReport]:
    """Concatenate mutually orthogonal codes into one code.

    The union's basis stacks the components' bases side by side, each checked
    against the columns before it, so every cross-component pair is covered.
    K adds up exactly.  A union whose gram tensor would exceed the size limit
    of ingest raises CodeTooLargeError before anything is built.
    """
    if len(codes) < 2:
        raise ValueError("a union needs at least two codes")
    n = codes[0].n
    if any(c.n != n for c in codes):
        raise ValueError("codes have different lengths")
    _check_gram_size(n, sum(c.k for c in codes))
    stacked = np.hstack([c.basis for c in codes])
    max_cross, start = 0.0, codes[0].k
    for comp_idx, comp in enumerate(codes[1:], start=1):
        overlaps = np.abs(stacked[:, :start].conj().T @ comp.basis)
        worst = float(np.max(overlaps))
        if worst >= CROSS_ORTHOGONALITY_TOL:
            i, j = np.unravel_index(int(np.argmax(overlaps)), overlaps.shape)
            raise OrthogonalityError(
                f"component {comp_idx} ({comp.label!r}) overlaps earlier basis: "
                f"|<b_{i}|c_{j}>| = {worst:.3e}"
            )
        max_cross = max(max_cross, worst)
        start += comp.k
    if label is None:
        label = "+".join(c.label or f"code{i}" for i, c in enumerate(codes))
    code = QuantumCode(n=n, basis=stacked, label=label)
    report = UnionBuildReport(
        component_labels=tuple(c.label for c in codes),
        max_cross_inner=max_cross,
        k=code.k,
        n=n,
    )
    return code, report


def conjugate_subspace(s: OperatorSubspace, u) -> OperatorSubspace:
    """Image of s under E -> U E U-adjoint; dimension is preserved.

    Conjugation keeps Hermitian operators Hermitian, so a real complement
    maps to real coordinates and is kept real: the part dropped is roundoff.
    """
    mat = states._as_action(s.n, u).matrix
    stack = mat @ np.moveaxis(coords_to_matrices(s.complement, s.n), 2, 0) @ mat.conj().T
    image = matrices_to_coords(np.moveaxis(stack, 0, 2), s.n)
    return OperatorSubspace(s.n, complement=image.real if np.isrealobj(s.complement) else image)


@lru_cache(maxsize=None)
def _pair_phase(n: int, k: int) -> np.ndarray:
    """x_ij's (K, K) phase to Z_ij + i Z_ji (_block_sum): 2^(-n/2) times sqrt(2) above the
    diagonal, i sqrt(2) below it and 1 + i on it; read-only."""
    phase = np.where(np.tri(k, k, -1, dtype=bool), 1j, 1) * np.sqrt(2) * 2.0 ** (-n / 2)
    np.fill_diagonal(phase, (1 + 1j) * 2.0 ** (-n / 2))
    phase.flags.writeable = False
    return phase


def _block_sum(code: QuantumCode, action: states.UnitaryAction) -> np.ndarray:
    """S-perp for S = ES(C) meet U ES(C) U-adjoint meet the mixed blocks, with p
    and U p U-adjoint, as an entry-major (2K, 2K, 4^n) grid of C (+) UC's own
    _scaled_columns: entry (a, b) is one contiguous row, column a*2K + b.

    Each complement is an image of Z = _scaled_columns(code), with matrices
    M.  [ES(C)-perp | p] is _condition_complement's combination of Z, and
    conjugation is linear and keeps the identity coordinate, so the same
    combination of U M U-adjoint gives their conjugates.  The mixed blocks Z
    U-adjoint meet U Z have the complement [X, conj X], X the coordinates of
    M U-adjoint, as U Z is the adjoint of Z U-adjoint.  Columns i*K + j and
    j*K + i of Z are sqrt(2) Re and sqrt(2) Im of x_ij, the coordinates of
    2^(n/2) |c_i><c_j| (one column when i = j), so Z_ij + i Z_ji is a fixed
    phase times x_ij: sqrt(2) above the diagonal, i sqrt(2) below it and 1 +
    i on it.  Its image V = X_ij + i X_ji is, up to a phase, sqrt(2) times
    the coordinates of 2^(n/2) |c_i><Uc_j|, whose square vanishes, so Re V
    and Im V are an orthonormal basis of the real plane of the union's kets
    i and K + j.  So entry (a, b) of the grid lies in the plane of the
    union's kets a and b, as _scaled_columns(union)'s does: the CC block
    holds [ES(C)-perp | p], the UU block its conjugate, entry (i, j) of the
    CU block Re V and entry (j, i) of the UC block Im V, p sits at (K-1,
    K-1) and U p U-adjoint at (2K-1, 2K-1).  The CC, UU and CU/UC blocks are
    orthogonal, so the grid less those two slots is an orthonormal
    complement of S.

    The grid is written in place, with no full-size temporary: Z into the CC
    block, then, for each block of whole ket rows i (16 * 4^n * K bytes a
    row as matrices, operator_space._blocks), Re V into its rows of CU, Im V
    into its rows of UC and, once V's coordinates and matrices are dropped,
    Re of the conjugate's coordinates into its rows of UU, each entry as a
    whole row.  CC and UU are then conditioned in place.
    """
    n, k, mat = code.n, code.k, action.matrix
    s = np.empty((2 * k, 2 * k, 4**n))
    cc, cu, uc, uu = s[:k, :k], s[:k, k:], s[k:, :k], s[k:, k:]
    _scale_parts(_gram_parts(code.grams, cc.transpose(2, 0, 1)), n)
    for kets in operator_space._blocks(k, 16 * 4**n * k, width=k):
        x = coords_to_matrices((code.grams[:, kets].conj() * _pair_phase(n, k)[kets]).reshape(4**n, -1), n)
        x = mat.conj() @ x  # row r of each M U-adjoint is conj(U) M[r]
        coords = matrices_to_coords(x, n).reshape(4**n, -1, k).transpose(1, 2, 0)  # V_ij is coords[i, j]
        cu[kets], uc[:, kets] = coords.real, coords.imag.transpose(1, 0, 2)
        del coords
        x = (mat @ x.reshape(1 << n, -1)).reshape(x.shape)  # U M U-adjoint; M U-adjoint is freed
        uu[kets] = matrices_to_coords(x, n).real.reshape(4**n, -1, k).transpose(1, 2, 0)
        del x  # before the next block's
    _condition_complement(cc, n, pure=True)
    _condition_complement(uu, n, pure=True)
    return s


def _formula_complements(code: QuantumCode, action: states.UnitaryAction) -> tuple[np.ndarray, ...]:
    """S-perp's grid, and the diagonal columns of Theorem 4's and Theorem 5's complements.

    p and p' = U p U-adjoint are the unit traceless projectors of C and UC
    (_block_sum).  Both are orthogonal to S-perp, whose diagonal columns are
    traceless differences within one component, and <p, p'> = (tr P_C P_UC
    - K^2 / 2^n) / (K - K^2 / 2^n) = -K / (2^n - K) = c, as C is orthogonal
    to UC.  The row |c_0><c_0| - |Uc_0><Uc_0| less its part in S-perp is
    (P_C - P_UC) / K, along p - p', so Theorem 4 puts a = (p - p') / sqrt(2
    - 2c) in p's slot and drops p''s.  Theorem 5 keeps p and puts the part
    of p' off it, (p' - c p) / sqrt(1 - c^2), in p''s slot, except when 2K =
    2^n: then p' = -p, c = -1 and p''s slot is dropped.  Each theorem's
    diagonal is returned in slot order, without the dropped slot, as Fortran-order columns.
    """
    s = _block_sum(code, action)
    n, k = code.n, code.k
    diagonal = s.reshape(4 * k * k, -1)[:: 2 * k + 1]
    four, five = diagonal[:-1].copy(), diagonal.copy()
    p, p_conj = five[k - 1], five[-1]
    c = -k / ((1 << n) - k)
    four[k - 1] = (p - p_conj) / math.sqrt(2 - 2 * c)
    if 2 * k == 1 << n:
        return s, four.T, five[:-1].T
    five[-1] = (p_conj - c * p) / math.sqrt(1 - c * c)
    return s, four.T, five.T


def _theorem_complement(s: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """s as Fortran-order (4^n, m^2) columns, with diagonal on its diagonal slots; a short one drops the last."""
    m = len(s)
    rows = s.reshape(m * m, -1)[:m * m - m + diagonal.shape[1]]
    rows[:: m + 1] = diagonal.T
    return rows.T


def union_erasure_space_via_intersection(code: QuantumCode, u) -> OperatorSubspace:
    """Erasure space of the union of a code with its orthogonal unitary image,
    intersected from one component's data instead of from the concatenated basis.

    The two within-component condition blocks contribute the erasure space of
    the code and its conjugate; the mixed blocks demand that every matrix
    element of E*U and of U-adjoint*E vanish, diagonals included, which is the
    annihilating space multiplied from the appropriate side (the pure space
    would wrongly re-admit scalar multiples of U, e.g. the pairing transform
    itself); the final factor equates the two components' diagonal values.
    Its complement is S-perp with a in p's slot, on the union's grid.
    """
    action = states._as_action(code.n, u)
    union_code([code, transform_code(code, action)])  # refuses an overlapping image
    s, four, _ = _formula_complements(code, action)
    return OperatorSubspace(code.n, _theorem_complement(s, four))


def union_pure_space_via_intersection(code: QuantumCode, u) -> OperatorSubspace:
    """Pure erasure space of the union, intersected from one component's data.

    Within-component blocks give the pure space and its conjugate; the mixed
    blocks again give one-sided images of the annihilating space.  Its
    complement is S-perp with p and the part of p' off p, on the union's grid.
    """
    action = states._as_action(code.n, u)
    union_code([code, transform_code(code, action)])  # refuses an overlapping image
    s, _, five = _formula_complements(code, action)
    return OperatorSubspace(code.n, _theorem_complement(s, five))


def cross_check_intersection_formulas(code: QuantumCode, u) -> dict:
    """Run both intersection pipelines and compare against direct computation.

    Returns a report with, per formula, the pipeline dimension, the direct
    dimension, the residual and whether they match within SUBSPACE_TOL.  The
    residual is the largest of G = 2K^2 - K + 1 group residuals, one per ket
    pair of the union and one for the diagonal block (_cross_check); it lies
    in [|R| / sqrt(G), 1], where |R| is the sine of the largest principal
    angle between the pipeline and the direct space.
    """
    action = states._as_action(code.n, u)
    union, _ = union_code([code, transform_code(code, action)])
    return _cross_check(code, action, union)


def _cross_check(code: QuantumCode, action: states.UnitaryAction, union: QuantumCode) -> dict:
    """cross_check_intersection_formulas against the union C (+) UC, built from code and action.

    The pipeline is _formula_complements' grid; the direct side is the
    union's PS complement on the same grid (_direct_complement), whose
    leading columns are ES(union)'s.  Each side writes its grid in place,
    a cache-sized block at a time where it is large, so neither holds a
    full-size temporary beside its grid.  The two are independent until
    compared, so a direct grid of operator_space._BESIDE_BYTES or more is
    built beside the pipeline when there are two CPUs or more, in a worker
    thread that this call starts and joins (operator_space._beside: the
    direct side ends before any error reaches the caller, and the
    pipeline's own error wins); both read code.grams, built here first,
    and the report is bitwise the same either way.  Entries (a, b) and
    (b, a) of either grid, a != b, are whole rows in
    the real plane of |a><b| and |b><a|; these planes and the diagonal
    block are Hilbert-Schmidt orthogonal, so each pair is compared on its
    own (_pair_residuals) and the diagonal block by one _residual_norm per
    formula.  For C (+) UC each group residual r_g is roundoff, as
    <a|c><d|b> = 0 across groups.  In general the whole residual R is the
    stacked r_g projected off the direct complement once more, so |R| <=
    sqrt(G) max |r_g|, and each |r_g| <= 1: a mismatch with |R| at least
    sqrt(G) times the tolerance never reads as a match, and a column that
    leaks into another pair's plane reads as a mismatch even where the spans
    agree.
    """
    n, m = code.n, union.k
    code.grams  # built here, before a worker reads it
    if operator_space._cpus() > 1 and 8 * 4**n * m * m >= operator_space._BESIDE_BYTES:
        (s, four, five), (direct,) = operator_space._beside(
            partial(_formula_complements, code, action), [partial(_direct_complement, code, union)])
    else:
        s, four, five = _formula_complements(code, action)
        direct = _direct_complement(code, union)
    shared = _pair_residuals(s, direct)
    report = {}
    for key, diagonal, pure in (("theorem4", four, False), ("theorem5", five, True)):
        width = _complement_width(n, m, pure)  # its diagonal slots are the first 2K - 1 or 2K
        residual = max(shared, _residual_norm(direct.reshape(m * m, -1)[:width:m + 1].T, diagonal))
        dim, direct_dim = 4**n - m * m + m - diagonal.shape[1], 4**n - width
        report[key] = {"dim": dim, "direct_dim": direct_dim, "residual": residual,
                       "matches_direct": dim == direct_dim and residual < SUBSPACE_TOL}
    return report


def _direct_complement(code: QuantumCode, union: QuantumCode) -> np.ndarray:
    """PS(C (+) UC)'s complement, a (2K, 2K, 4^n) grid of entry rows: the union's _scaled_columns
    with _condition_complement applied in place, bit for bit, without its gram tensor.

    The tensor's CC block is code.grams, and _scaled_columns reads Re of its
    CU block, Im of its UC block and all of its UU block: two rectangular
    tensors, <c_i|sigma|Uc_j> and <Uc_i|sigma|[C | UC]_j>, 3K^2 columns to
    4K^2.  Neither is formed whole: each block of x values that
    operator_space._gram_blocks yields fills one run of each entry row,
    taken over (x, z), and those rows are put in coordinate order in place,
    a grid row at a time.
    """
    n, k, t = code.n, code.k, _pauli_table(code.n)
    image, cols = union.basis[:, k:], np.empty((2 * k, 2 * k, 4**n))
    by_xz = cols.reshape(2 * k, 2 * k, 1 << n, 1 << n)  # entry rows over (x, z)
    _gram_parts(code.grams, cols[:k, :k].transpose(2, 0, 1))
    for xs, block in _gram_blocks(code.basis, image, n):
        by_xz[:k, k:, xs] = block.real.transpose(2, 3, 1, 0)
        del block  # not alive beside the next one
    for xs, block in _gram_blocks(image, union.basis, n):
        _gram_parts(block, by_xz[k:, :, xs].transpose(3, 2, 0, 1), shift=k)
        del block
    xz = (t.x << n) | t.z  # coordinate c's place in an (x, z) row
    for written in (*cols[:k, k:], *cols[k:]):  # all but CC, code.grams' own, in coordinate order
        written[...] = np.take(written, xz, axis=1)
    _scale_parts(cols.transpose(2, 0, 1), n)
    _condition_complement(cols, n, pure=True)
    return cols


def _pair_residuals(x: np.ndarray, d: np.ndarray) -> float:
    """Largest spectral norm of the explicit residuals of x's ket pairs off d's.

    x and d are entry-major (m, m, 4^n) grids of erasure._scaled_columns:
    entries (a, b) and (b, a), a != b, are ket pair {a, b}'s two columns,
    each one contiguous row, and d's are orthonormal.  Each pair's residual,
    its two rows of x less their projection onto its two of d, is formed
    explicitly: entry (a, b) of x less its parts along d's (b, a) and (a,
    b), every product one of whole rows.  Its norm is the square root of the
    larger eigenvalue of its 2 x 2 Gram, read in closed form with no
    cancellation, as _residual_norm reads a wider one.  The diagonal entries
    are the caller's.  x is overwritten in blocks of grid rows
    (operator_space._blocks).
    """
    dt = d.transpose(1, 0, 2)  # entry (a, b) is d's (b, a)
    along, back = np.vecdot(d, x), np.vecdot(dt, x)
    for rows in operator_space._blocks(len(x), x[0].nbytes, width=len(x)):  # grid rows of m entries
        part = np.multiply(dt[rows], back[rows, :, None])
        x[rows] -= part
        x[rows] -= np.multiply(d[rows], along[rows, :, None], out=part)
        del part  # not alive beside the next one
    g = np.vecdot(x, x)
    top = (g + g.T) / 2 + np.hypot((g - g.T) / 2, np.vecdot(x, x.transpose(1, 0, 2)))
    np.fill_diagonal(top, 0.0)
    return float(np.sqrt(top.max()))
