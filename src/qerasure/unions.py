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
one grid laid out as the union's own _scaled_columns (_block_sum), the unit
traceless projectors of C and UC sit on its diagonal, and each formula
replaces one of them by a closed form (_formula_complements): every
dimension on the route is structural.  Off the diagonal, entries (a, b) and
(b, a) of the grid, as of the union's own complement, span the real plane of
|a><b| and |b><a|, and these planes are Hilbert-Schmidt orthogonal too, so
the comparison runs one ket pair at a time, in closed form, and one
eigenvalue solve per formula for the diagonal block (_cross_check).

Every factor is closed under the adjoint, so each is stored by a real
complement, and the intersections and the comparison run in real arithmetic.
Every complement is a linear image of the code's K^2 real gram columns, so
one map of them to matrices builds them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from . import operator_space, states
from .codes import QuantumCode, _check_gram_size, transform_code
from .erasure import (
    _complement_width,
    _condition_complement,
    _gram_parts,
    _scale_parts,
    _scaled_columns,
)
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


def _block_sum(code: QuantumCode, action: states.UnitaryAction) -> np.ndarray:
    """S-perp for S = ES(C) meet U ES(C) U-adjoint meet the mixed blocks, with p
    and U p U-adjoint, as a (4^n, 2K, 2K) grid in the layout of C (+) UC's own
    _scaled_columns.

    Each complement is an image of Z = _scaled_columns(code), with matrices
    M.  [ES(C)-perp | p] is _condition_complement's combination of Z, and
    conjugation is linear and keeps the identity coordinate, so the same
    combination of W = U X, X = M U-adjoint, gives their conjugates.  The
    mixed blocks Z U-adjoint meet U Z have the complement [X, conj X], as U Z
    is the adjoint of Z U-adjoint.  Columns i*K + j and j*K + i of Z are
    sqrt(2) Re and sqrt(2) Im of the coordinates of 2^(n/2) |c_i><c_j| (one
    column when i = j), so V = (X_ij + i X_ji) / sqrt(2) is, up to a phase,
    that of 2^(n/2) |c_i><Uc_j|, and sqrt(2) Re V = Re X_ij - Im X_ji and
    sqrt(2) Im V = Im X_ij + Re X_ji are an orthonormal basis of the real
    plane of the union's kets i and K + j.  So entry (a, b) of the grid lies
    in the plane of the union's kets a and b, as _scaled_columns(union)'s
    does: the CC block holds [ES(C)-perp | p], the UU block its conjugate,
    the CU block the Re and the UC block the Im columns, p sits at (K-1,
    K-1) and U p U-adjoint at (2K-1, 2K-1).  The CC, UU and CU/UC blocks are
    orthogonal, so the grid less those two slots is an orthonormal
    complement of S.

    The grid is written in place, with no full-size temporary.  Z goes into
    the CC block a row block at a time, and the maps run over blocks of its
    columns (16 * 4^n bytes each as matrices, operator_space._blocks): each
    block writes A = Re X into the CU block, B = Im X into the UC block and,
    once X's coordinates and matrices are dropped, Re W into the UU block.
    Row blocks then turn CU into A - B^T and UC into A + B^T, and CC and UU
    are conditioned in place.  When Z's matrices fit in two blocks, one
    chain of whole arrays is faster and holds no more.
    """
    n, k, mat = code.n, code.k, action.matrix
    blocks = operator_space._blocks(k * k, 16 * 4**n)
    if len(blocks) == 1:
        z = _scaled_columns(code)
        x = mat.conj() @ coords_to_matrices(z, n)  # row r of each M U-adjoint is conj(U) M[r]
        mixed, w = matrices_to_coords(x, n).reshape(-1, k, k), matrices_to_coords(_left(mat, x, n), n).real
        del x
        s = np.empty((4**n, 2 * k, 2 * k))
        s[:, :k, :k] = _condition_complement(z, n, pure=True).reshape(-1, k, k)
        s[:, k:, k:] = _condition_complement(w, n, pure=True).reshape(-1, k, k)
        mixed_t = mixed.transpose(0, 2, 1)
        np.subtract(mixed.real, mixed_t.imag, out=s[:, :k, k:])
        np.add(mixed.imag, mixed_t.real, out=s[:, k:, :k].transpose(0, 2, 1))
        return s
    s = np.empty((4**n, 2 * k, 2 * k))
    cc, cu, uc, uu = s[:, :k, :k], s[:, :k, k:], s[:, k:, :k], s[:, k:, k:]
    row_blocks = operator_space._blocks(len(s), 2 * cc[0].nbytes)  # two temporaries a row
    for rows in row_blocks:  # Z
        cc[rows] = _scale_parts(_gram_parts(code.grams[rows], np.empty(cc[rows].shape)), n)
    for cols in blocks:
        runs = _runs(cols, k)
        x = mat.conj() @ coords_to_matrices(np.hstack([cc[:, i, js] for i, js, _ in runs]), n)
        coords = matrices_to_coords(x, n)
        for i, js, at in runs:
            cu[:, i, js], uc[:, i, js] = coords.real[:, at], coords.imag[:, at]
        del coords
        x = _left(mat, x, n)  # W's matrices; X's are freed
        coords = matrices_to_coords(x, n)
        for i, js, at in runs:
            uu[:, i, js] = coords.real[:, at]
        del x, coords  # before the next block's
    for rows in row_blocks:
        a, b = cu[rows], uc[rows].transpose(0, 2, 1)  # entry (i, j): Re X_ij and Im X_ji
        cu[rows], uc[rows] = a - b, a + b
    _condition_complement(cc, n, pure=True)
    _condition_complement(uu, n, pure=True)
    return s


def _runs(cols: slice, k: int) -> list[tuple[int, slice, slice]]:
    """Flat columns i*K + j of a K x K grid as runs of one i: (i, its slice of j, its slice of cols)."""
    runs, start = [], cols.start
    while start < cols.stop:
        i, j = divmod(start, k)
        stop = min(cols.stop, (i + 1) * k)
        runs.append((i, slice(j, j + stop - start), slice(start - cols.start, stop - cols.start)))
        start = stop
    return runs


def _left(mat: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """U X for the (2^n, 2^n, c) matrices x, as one product."""
    return (mat @ x.reshape(1 << n, -1)).reshape(x.shape)


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
    diagonal is returned in slot order, without the dropped slot.
    """
    s = _block_sum(code, action)
    n, k = code.n, code.k
    diagonal = s.reshape(len(s), -1)[:, :: 2 * k + 1]
    four, five = diagonal[:, :-1].copy(), diagonal.copy()
    p, p_conj = five[:, k - 1], five[:, -1]
    c = -k / ((1 << n) - k)
    four[:, k - 1] = (p - p_conj) / math.sqrt(2 - 2 * c)
    if 2 * k == 1 << n:
        return s, four, five[:, :-1]
    five[:, -1] = (p_conj - c * p) / math.sqrt(1 - c * c)
    return s, four, five


def _theorem_complement(s: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """s as (4^n, m^2) columns, with diagonal on its diagonal slots; a short one drops the last."""
    m = s.shape[1]
    flat = s.reshape(len(s), m * m)[:, :m * m - m + diagonal.shape[1]]
    flat[:, :: m + 1] = diagonal
    return flat


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
    built beside the pipeline when there are two CPUs or more, by the
    package's pool, the standard library's thread pool executor kept for the
    process (operator_space._beside: the direct side ends before any error
    reaches the caller, and the pipeline's own error wins); both read
    code.grams, built here first, and the report is bitwise the same either
    way.  Entries (a, b) and (b, a) of either grid, a != b, lie
    in the real plane of |a><b| and |b><a|; these planes and the diagonal
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
    shared = _pair_residuals(s, direct.reshape(s.shape))
    report = {}
    for key, diagonal, pure in (("theorem4", four, False), ("theorem5", five, True)):
        width = _complement_width(n, m, pure)
        residual = max(shared, _residual_norm(direct[:, :width][:, :: m + 1], diagonal))
        dim, direct_dim = 4**n - m * m + m - diagonal.shape[1], 4**n - width
        report[key] = {"dim": dim, "direct_dim": direct_dim, "residual": residual,
                       "matches_direct": dim == direct_dim and residual < SUBSPACE_TOL}
    return report


def _direct_complement(code: QuantumCode, union: QuantumCode) -> np.ndarray:
    """PS(C (+) UC)'s complement, (4^n, 4K^2): the union's _scaled_columns with
    _condition_complement applied in place, bit for bit, without its gram tensor.

    The tensor's CC block is code.grams, and _scaled_columns reads Re of its
    CU block, Im of its UC block and all of its UU block: two rectangular
    tensors, <c_i|sigma|Uc_j> and <Uc_i|sigma|[C | UC]_j>, 3K^2 columns to
    4K^2.  Neither is formed whole: each block of x values that
    operator_space._gram_blocks yields is written straight to its rows of
    the grid.
    """
    n, k = code.n, code.k
    image, rows = union.basis[:, k:], _pauli_table(n).coordinate.reshape(1 << n, 1 << n)
    cols = np.empty((4**n, 2 * k, 2 * k))
    _gram_parts(code.grams, cols[:, :k, :k])
    for xs, block in _gram_blocks(code.basis, image, n):
        cols[rows[:, xs], :k, k:] = block.real
        del block  # not alive beside the next one
    for xs, block in _gram_blocks(image, union.basis, n):
        cols[rows[:, xs], k:] = _gram_parts(block, np.empty(block.shape), shift=k)
        del block
    direct = _scale_parts(cols, n).reshape(-1, 4 * k * k)
    _condition_complement(direct, n, pure=True)
    return direct


def _pair_residuals(x: np.ndarray, d: np.ndarray) -> float:
    """Largest spectral norm of the explicit residuals of x's ket pairs off d's.

    x and d are (4^n, m, m) grids in the layout of erasure._scaled_columns:
    entries (a, b) and (b, a), a != b, are ket pair {a, b}'s two columns,
    and d's are orthonormal.  Each pair's residual, its two columns of x
    less their projection onto its two of d, is formed explicitly: entry
    (a, b) of x less its parts along d's (a, b) and, through the transposed
    grid, along d's (b, a).  Its norm is the square root of the larger
    eigenvalue of its 2 x 2 Gram, read in closed form with no cancellation,
    as _residual_norm reads a wider one.  The diagonal entries are the
    caller's.  x is overwritten in row blocks (operator_space._blocks).
    """
    along = np.einsum("iab,iab->ab", d, x)
    across = np.einsum("iab,iba->ab", d, x)  # d's (a, b) against x's (b, a)
    for xr, dr in ((x[rows], d[rows]) for rows in operator_space._blocks(len(x), x[0].nbytes)):
        part = dr * across
        xr -= part.transpose(0, 2, 1)
        xr -= np.multiply(dr, along, out=part)
    g = np.einsum("iab,iab->ab", x, x)
    top = (g + g.T) / 2 + np.hypot((g - g.T) / 2, np.einsum("iab,iba->ab", x, x))
    np.fill_diagonal(top, 0.0)
    return float(np.sqrt(top.max()))
