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
last factors are not block-orthogonal.  The expectation row, |a><a| -
|Ua><Ua|, overlaps the diagonal directions of the first two.  The traceless
projectors p = P_C - K / 2^n and U p U-adjoint each spread a multiple of the
identity over every block and overlap each other (cosine -K / (2^n - K)).  So
each formula adds to S's complement only the directions they bring, from one
narrow factorization against it.  These, like the diagonal directions, lie in
the block spanned by the kets' own projectors and the identity, so the
comparison with the union's own complement runs one block at a time.

Every factor is closed under the adjoint, so each is stored by a real
complement, and the intersections and the comparison run in real arithmetic.
Every complement, the expectation row's included, is a linear image of the
code's K^2 real gram columns, so one map of them to matrices builds them all.
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
from .operator_space import (
    OperatorSubspace,
    _new_directions,
    _residual_norm,
    coords_to_matrices,
    intersect,
    matrices_to_coords,
)
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
        acc = np.column_stack([k.amplitudes for k in kets])
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


def _block_sum(code: QuantumCode, action: UnitaryAction) -> tuple[OperatorSubspace, ...]:
    """S = ES(C) meet U ES(C) U-adjoint meet the mixed blocks, p, U p U-adjoint, a.

    Each complement is an image of Z = _scaled_columns(code), with matrices
    M.  [ES(C)-perp | p] is _condition_complement's combination of Z, and
    conjugation is linear and keeps the identity coordinate, so the same
    combination of W = U X, X = M U-adjoint, gives their conjugates.  The
    mixed blocks Z U-adjoint meet U Z have the complement [X, conj X], as U Z
    is the adjoint of Z U-adjoint, and it spans the real sqrt(2) [Re X, Im X].
    These three lie in the orthogonal CC, UU and CU/UC blocks, so their
    orthonormal columns concatenate to an orthonormal complement of S.
    Columns 0 of Z and W are <c_0|sigma|c_0> and <Uc_0|sigma|Uc_0> over
    2^(n/2), orthonormal as c_0 is orthogonal to Uc_0, so the row a of
    <c_0|E|c_0> = <Uc_0|E|Uc_0> is their difference (norm sqrt(2)), normalized.
    """
    n, mat = code.n, action.matrix
    z = _scaled_columns(code)
    x = np.moveaxis(coords_to_matrices(z, n), 2, 0) @ mat.conj().T
    mixed = np.sqrt(2) * matrices_to_coords(np.moveaxis(x, 0, 2), n)
    w = matrices_to_coords(np.moveaxis(mat @ x, 0, 2), n).real
    row = z[:, :1] - w[:, :1]
    width = _complement_width(n, code.k, False)
    (es, p), (es_conj, p_conj) = (np.hsplit(_condition_complement(c, n, pure=True), [width])
                                  for c in (z, w))
    return tuple(OperatorSubspace(n, c) for c in (np.hstack([es, es_conj, mixed.real, mixed.imag]),
                                                  p, p_conj, row / np.linalg.norm(row)))


def union_erasure_space_via_intersection(code: QuantumCode, u) -> OperatorSubspace:
    """Erasure space of the union of a code with its orthogonal unitary image,
    intersected from one component's data instead of from the concatenated basis.

    The two within-component condition blocks contribute the erasure space of
    the code and its conjugate; the mixed blocks demand that every matrix
    element of E*U and of U-adjoint*E vanish, diagonals included, which is the
    annihilating space multiplied from the appropriate side (the pure space
    would wrongly re-admit scalar multiples of U, e.g. the pairing transform
    itself); the final factor equates the two components' diagonal values.
    """
    action = _as_action(code.n, u)
    union_code([code, transform_code(code, action)])  # refuses an overlapping image
    shared, *_, expectation = _block_sum(code, action)
    return intersect([shared, expectation])


def union_pure_space_via_intersection(code: QuantumCode, u) -> OperatorSubspace:
    """Pure erasure space of the union, intersected from one component's data.

    Within-component blocks give the pure space and its conjugate; the mixed
    blocks again give one-sided images of the annihilating space.
    """
    action = _as_action(code.n, u)
    union_code([code, transform_code(code, action)])  # refuses an overlapping image
    return intersect(_block_sum(code, action)[:3])


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
    S-perp from one _block_sum, a and b what its expectation row, or p and
    U p U-adjoint, add to it (intersect's new-direction step).  PS(union) has
    the complement [ES(union)-perp | p_union], so one closed form gives both
    direct spaces, and a caller that has the union builds it once.  A formula
    whose dimension differs reports 1, as the larger space holds a unit
    vector orthogonal to the smaller.  The residuals are read block by block
    (_shared_residuals), on a union of 2K kets, as C (+) UC has.
    """
    action = _as_action(code.n, u)
    shared, p, p_conj, expectation = _block_sum(code, action)
    s = shared.complement
    a = _new_directions(s, expectation.complement)
    b = _new_directions(s, np.hstack([p.complement, p_conj.complement]))
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
    and of [s | b] against direct, one Hilbert-Schmidt block at a time.

    [s | a], [s | b] and direct are orthonormal, so for a pair of equal
    widths the sine is the spectral norm of the pipeline complement less its
    projection onto the direct one.  Each column of s and of direct lies in
    one block of C (+) UC (erasure._union_blocks); a, b and direct's
    projector column lie in the diagonal block, which holds the identity.
    The blocks are orthogonal, so each block's pipeline columns need only
    that block's direct columns d, and the residual is the largest of the
    block residuals x - d (d^H x) (_residual_norm).  The CC, UU and mixed
    blocks serve both formulas; Theorem 4's diagonal block takes [s | a]
    against direct's diagonal columns before width, Theorem 5's [s | b]
    against all of them.  Should a pipeline column leave its block, the
    whole residual is the stacked block residuals projected off direct once
    more, so the largest block sine is still at least half of it.
    """
    *off, (x, d) = _union_blocks(math.isqrt(s.shape[1] + 2) // 2, direct.shape[1])
    shared = max(_residual_norm(direct[:, dd], s[:, xx]) for xx, dd in off)
    diag = s[:, x]
    return tuple(max(shared, _residual_norm(direct[:, dd], np.hstack([diag, y])))
                 for y, dd in ((a, d[d < width]), (b, d)))
