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
which never special-cases mixed component pairs.

The first three factors meet in a space S whose complement needs no
factorization.  Their complements lie in the CC, UU and CU/UC blocks of
operator space, spanned by |a><b| with a, b in C, in UC, or one in each, and
these blocks are Hilbert-Schmidt orthogonal: <|a><b|, |c><d|> = <a|c><d|b>
vanishes across blocks because C is orthogonal to UC.  So the orthonormal
complements concatenate to an orthonormal complement of S (_block_sum).  The
last factors need none either.  The traceless projectors p = P_C - K / 2^n
and p' = U p U-adjoint, normalized, are orthogonal to S's complement, whose
diagonal columns are traceless differences |c_i><c_i| - |c_0><c_0| within
one component, and their cosine is the constant c = -K / (2^n - K).  The
expectation row, |c_0><c_0| - |Uc_0><Uc_0|, adds (P_C - P_UC) / K, along
p - p'.  So Theorem 4 adds a = (p - p') / sqrt(2 - 2c) to S's complement and
Theorem 5 the Gram-Schmidt pair B = [p | (p' - c p) / sqrt(1 - c^2)], or
B = [p] when the union fills the whole space and c = -1 (_formula_complements):
every dimension on the route is structural.  These, like the diagonal
directions, lie in the block spanned by the kets' own projectors and the
identity.  Every other column of S's complement, and of the union's own,
lies in the real plane of |a><b| and |b><a| for one pair of the union's
kets a != b, and these planes are Hilbert-Schmidt orthogonal too, so the
comparison with the union's own complement runs one ket pair at a time, in
closed form, and one eigenvalue solve per formula for the diagonal block
(_shared_residuals).

Every factor is closed under the adjoint, so each is stored by a real
complement, and the intersections and the comparison run in real arithmetic.
Every complement is a linear image of the code's K^2 real gram columns, so
one map of them to matrices builds them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codes import QuantumCode, _check_gram_size, basis_matrix, transform_code
from .erasure import (
    _complement_width,
    _condition_complement,
    _scaled_columns,
    _union_blocks,
    pure_erasure_space,
)
from .operator_space import OperatorSubspace, _residual_norm, coords_to_matrices, matrices_to_coords
from .states import CodeTransform, UnitaryAction
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

    Implemented as an iterated binary union: each component is checked
    against everything accumulated so far, so every cross-component pair is
    covered.  K adds up exactly.  A union whose gram tensor would exceed the
    size limit of ingest raises CodeTooLargeError before anything is built.
    """
    if len(codes) < 2:
        raise ValueError("a union needs at least two codes")
    n = codes[0].n
    if any(c.n != n for c in codes):
        raise ValueError("codes have different lengths")
    _check_gram_size(n, sum(c.k for c in codes))
    kets = list(codes[0].basis)
    max_cross = 0.0
    for comp_idx, comp in enumerate(codes[1:], start=1):
        acc = np.hstack([basis_matrix(c) for c in codes[:comp_idx]])
        overlaps = np.abs(acc.conj().T @ basis_matrix(comp))
        worst = float(np.max(overlaps))
        if worst >= CROSS_ORTHOGONALITY_TOL:
            i, j = np.unravel_index(int(np.argmax(overlaps)), overlaps.shape)
            raise OrthogonalityError(
                f"component {comp_idx} ({comp.label!r}) overlaps earlier basis: "
                f"|<b_{i}|c_{j}>| = {worst:.3e}"
            )
        max_cross = max(max_cross, worst)
        kets.extend(comp.basis)
    if label is None:
        label = "+".join(c.label or f"code{i}" for i, c in enumerate(codes))
    code = QuantumCode(n=n, k=len(kets), basis=tuple(kets), label=label)
    report = UnionBuildReport(
        component_labels=tuple(c.label for c in codes),
        max_cross_inner=max_cross,
        k=code.k,
        n=n,
    )
    return code, report


def _as_action(n: int, u) -> UnitaryAction:
    if isinstance(u, (UnitaryAction, CodeTransform)) and u.n != n:
        raise ValueError(f"qubit count mismatch: {u.n} != {n}")
    if isinstance(u, UnitaryAction):
        return u
    if isinstance(u, CodeTransform):
        return UnitaryAction.from_transform(u)
    return UnitaryAction(n, u)


def conjugate_subspace(s: OperatorSubspace, u) -> OperatorSubspace:
    """Image of s under E -> U E U-adjoint; dimension is preserved.

    Conjugation keeps Hermitian operators Hermitian, so a real complement
    maps to real coordinates and is kept real: the part dropped is roundoff.
    """
    mat = _as_action(s.n, u).matrix
    stack = mat @ np.moveaxis(coords_to_matrices(s.complement, s.n), 2, 0) @ mat.conj().T
    image = matrices_to_coords(np.moveaxis(stack, 0, 2), s.n)
    return OperatorSubspace(s.n, complement=image.real if np.isrealobj(s.complement) else image)


def _block_sum(code: QuantumCode, action: UnitaryAction) -> tuple[np.ndarray, ...]:
    """S-perp for S = ES(C) meet U ES(C) U-adjoint meet the mixed blocks, p and U p U-adjoint.

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
    plane of the union's kets i and K + j.  These three lie in the
    orthogonal CC, UU and CU/UC blocks, so their orthonormal columns
    concatenate to an orthonormal complement of S, written by ket pair in
    the layout of erasure._union_blocks.  p and U p U-adjoint are returned
    as (4^n, 1) columns beside it.
    """
    n, k, mat = code.n, code.k, action.matrix
    z = _scaled_columns(code)
    # the matrices stay stacked on the last axis, (2^n, 2^n, K^2): row r of
    # each M U-adjoint is conj(U) M[r], and U X is one product over the rows
    x = mat.conj() @ coords_to_matrices(z, n)
    mixed = matrices_to_coords(x, n)
    w = matrices_to_coords((mat @ x.reshape(1 << n, -1)).reshape(x.shape), n).real
    width = _complement_width(n, k, False)
    (es, p), (es_conj, p_conj) = (np.hsplit(_condition_complement(c, n, pure=True), [width])
                                  for c in (z, w))
    own, conj, (first, second), *_ = _union_blocks(k)
    s = np.empty((4**n, 4 * k * k - 2))
    s[:, own] = es
    s[:, conj] = es_conj
    x_ij = mixed.reshape(-1, k, k)
    x_ji = x_ij.transpose(0, 2, 1)
    np.subtract(x_ij.real, x_ji.imag, out=s[:, first].reshape(-1, k, k))
    np.add(x_ij.imag, x_ji.real, out=s[:, second].reshape(-1, k, k))
    return s, p, p_conj


def _formula_complements(code: QuantumCode, action: UnitaryAction) -> tuple[np.ndarray, ...]:
    """S-perp, and a and B: what Theorem 4's expectation row, and Theorem 5's p and p', add to it.

    p and p' = U p U-adjoint are the unit traceless projectors of C and UC
    (_block_sum).  Both are orthogonal to S-perp, whose diagonal columns are
    traceless differences within one component, and <p, p'> = (tr P_C P_UC
    - K^2 / 2^n) / (K - K^2 / 2^n) = -K / (2^n - K) = c, as C is orthogonal
    to UC.  The row |c_0><c_0| - |Uc_0><Uc_0| less its part in S-perp is
    (P_C - P_UC) / K, along p - p', so a = (p - p') / sqrt(2 - 2c).  The
    pair is orthonormalized in closed form, B = [p | (p' - c p) / sqrt(1 -
    c^2)], except when 2K = 2^n: then p' = -p, c = -1 and B = [p].
    """
    s, p, p_conj = _block_sum(code, action)
    n, k = code.n, code.k
    c = -k / ((1 << n) - k)
    a = (p - p_conj) / math.sqrt(2 - 2 * c)
    if 2 * k == 1 << n:
        return s, a, p
    return s, a, np.hstack([p, (p_conj - c * p) / math.sqrt(1 - c * c)])


def union_erasure_space_via_intersection(code: QuantumCode, u) -> OperatorSubspace:
    """Erasure space of the union of a code with its orthogonal unitary image,
    intersected from one component's data instead of from the concatenated basis.

    The two within-component condition blocks contribute the erasure space of
    the code and its conjugate; the mixed blocks demand that every matrix
    element of E*U and of U-adjoint*E vanish, diagonals included, which is the
    annihilating space multiplied from the appropriate side (the pure space
    would wrongly re-admit scalar multiples of U, e.g. the pairing transform
    itself); the final factor equates the two components' diagonal values.
    Its complement is [S-perp | a].
    """
    action = _as_action(code.n, u)
    union_code([code, transform_code(code, action)])  # refuses an overlapping image
    s, a, _ = _formula_complements(code, action)
    return OperatorSubspace(code.n, np.hstack([s, a]))


def union_pure_space_via_intersection(code: QuantumCode, u) -> OperatorSubspace:
    """Pure erasure space of the union, intersected from one component's data.

    Within-component blocks give the pure space and its conjugate; the mixed
    blocks again give one-sided images of the annihilating space.  Its
    complement is [S-perp | B].
    """
    action = _as_action(code.n, u)
    union_code([code, transform_code(code, action)])  # refuses an overlapping image
    s, _, b = _formula_complements(code, action)
    return OperatorSubspace(code.n, np.hstack([s, b]))


def cross_check_intersection_formulas(code: QuantumCode, u) -> dict:
    """Run both intersection pipelines and compare against direct computation.

    Returns a report with, per formula, the pipeline dimension, the direct
    dimension, the equality residual (sine of the largest principal angle)
    and whether they match within SUBSPACE_TOL.
    """
    action = _as_action(code.n, u)
    union, _ = union_code([code, transform_code(code, action)])
    return _cross_check(code, action, union)


def _cross_check(code: QuantumCode, u, union: QuantumCode) -> dict:
    """cross_check_intersection_formulas against an already built union C (+) UC.

    Theorem 4's complement is [S-perp | a] and Theorem 5's [S-perp | b]:
    S-perp from one _block_sum, a and b the closed forms of what its
    expectation row, or p and U p U-adjoint, add to it
    (_formula_complements), so no step of the route factors a matrix.
    PS(union) has the complement [ES(union)-perp | p_union], so one closed
    form gives both direct spaces, and a caller that has the union builds it
    once.  A formula
    whose dimension differs reports 1, as the larger space holds a unit
    vector orthogonal to the smaller.  The residuals are read ket pair by ket
    pair (_shared_residuals), on a union of 2K kets, as C (+) UC has.
    """
    action = _as_action(code.n, u)
    s, a, b = _formula_complements(code, action)
    direct = pure_erasure_space(union).complement
    width = _complement_width(union.n, union.k, False)
    # the blocks are laid out for a union of 2K kets, (2K)^2 - 1 = width
    fits = width == s.shape[1] + 1
    residuals = _shared_residuals(s, a, b, direct, width) if fits else (1.0, 1.0)
    report = {}
    for key, x, d, residual in zip(("theorem4", "theorem5"), (a, b), (width, direct.shape[1]),
                                   residuals):
        dim, direct_dim = 4**code.n - s.shape[1] - x.shape[1], 4**code.n - d
        residual = residual if dim == direct_dim else 1.0
        report[key] = {"dim": dim, "direct_dim": direct_dim, "residual": residual,
                       "matches_direct": dim == direct_dim and residual < SUBSPACE_TOL}
    return report


def _shared_residuals(s: np.ndarray, a: np.ndarray, b: np.ndarray,
                      direct: np.ndarray, width: int) -> tuple[float, float]:
    """Sines of the largest principal angles of [s | a] against direct[:, :width]
    and of [s | b] against direct, one ket pair at a time.

    [s | a], [s | b] and direct are orthonormal, so for a pair of equal
    widths the sine is the spectral norm of the pipeline complement less its
    projection onto the direct one.  Every off-diagonal column of s and of
    direct lies in the real plane of one ket pair of C (+) UC, and s holds
    each plane's two columns where erasure._union_blocks says; a, b, s's
    diagonal columns and direct's diagonal and projector columns lie in the
    diagonal block, which holds the identity.  Within a pair the residual is
    two columns against the plane's two direct columns (_pair_residuals);
    the diagonal block's is _residual_norm's, Theorem 4's [s | a] against
    direct's diagonal columns before width, Theorem 5's [s | b] against all
    of them.  The value returned is the largest of these G = 2K^2 - K + 1
    group residuals r_g.  For C (+) UC every pipeline column lies in its own
    group's direct span, as <a|c><d|b> = 0 across groups, so each r_g is
    roundoff.  In general the whole residual R is the stacked r_g projected
    off direct once more, so |R| <= sqrt(G) max |r_g|, and each |r_g| <= 1:
    the value lies in [|R| / sqrt(G), 1], and is |R| when no column meets
    another group's direct columns and the r_g are mutually orthogonal.  A
    mismatch with |R| at least sqrt(G) times the tolerance never reads as a
    match, while a column that leaks into another pair's plane reads as a
    mismatch even where the spans agree.
    """
    *_, facing, diagonal = _union_blocks(math.isqrt(s.shape[1] + 2) // 2)
    # np.take keeps the gathered columns row-major, as s is; an index array
    # in the second place of [] would return them column-major
    shared = _pair_residuals(s[:, :facing.size], np.take(direct, facing, axis=1))
    diag = s[:, facing.size:]
    return tuple(max(shared, _residual_norm(np.take(direct, diagonal[diagonal < w], axis=1),
                                            np.hstack([diag, y])))
                 for y, w in ((a, width), (b, direct.shape[1])))


def _pair_residuals(x: np.ndarray, d: np.ndarray) -> float:
    """Largest spectral norm of the explicit residuals of x's column pairs off d's.

    x and d have 2G columns; columns g and G + g of each are group g's, and
    d's are orthonormal.  Each group's residual, its two columns of x less
    their projection onto its two of d, is formed explicitly, and its norm
    is the square root of the larger eigenvalue of its 2 x 2 Gram, read in
    closed form with no cancellation, as _residual_norm reads a wider one.
    d is overwritten.
    """
    x, d = (c.reshape(c.shape[0], 2, -1) for c in (x, d))

    def dot(u, v):
        return np.einsum("iap,iap->ap", u, v)

    swap = d[:, ::-1]
    r = swap * dot(swap, x)
    d *= dot(d, x)
    r += d
    r -= x  # the residual, negated
    rr, tt = dot(r, r)
    top = (rr + tt) / 2 + np.hypot((rr - tt) / 2, np.einsum("ip,ip->p", r[:, 0], r[:, 1]))
    return float(np.sqrt(top.max(initial=0.0)))
