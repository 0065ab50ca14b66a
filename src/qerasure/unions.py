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
narrow factorization against it.  The cross-check compares both formulas with
the direct spaces through one projection off the union's pure complement,
whose leading block is the union's erasure complement, and one Gram.

Every factor is closed under the adjoint, so each is stored by a real
complement, and the intersections and the comparison run in real arithmetic;
conjugation by U keeps a real complement real.  Every complement of S is a
linear image of the code's K^2 real gram columns Z, the coordinates of
|c_j><c_i| / 2^(n/2): ES(C)-perp and p are fixed combinations of Z, their
conjugates the same combinations of U Z U-adjoint, and the two one-sided
multiples of the zero-block space, adjoints of each other, enter as one real
factor read off the complex Z U-adjoint.  So one map of Z to matrices
builds them all (_block_sum).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codes import QuantumCode, _check_gram_size, basis_matrix, transform_code
from .erasure import (
    _complement_width,
    _condition_complement,
    _scaled_columns,
    pure_erasure_space,
)
from .operator_space import (
    OperatorSubspace,
    _largest_singular_value,
    _new_directions,
    _pauli_grams,
    coords_to_matrices,
    equality_residual,
    intersect,
    matrices_to_coords,
)
from .states import CodeTransform, UnitaryAction
from .tolerances import CROSS_ORTHOGONALITY_TOL, SUBSPACE_TOL


class OrthogonalityError(ValueError):
    """Two code components overlap beyond tolerance."""


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


def equal_expectation_space(code: QuantumCode, u,
                            anchor: int = 0) -> OperatorSubspace:
    """Operators whose expectation in basis ket `anchor` is conjugation-invariant.

    The single constraint <a|E|a> = <Ua|E|Ua> cuts the space down by at most
    one dimension.  Its row, a difference of two expectations of Hermitian
    Paulis, is real.
    """
    if not 0 <= anchor < code.k:
        raise ValueError(f"anchor must be in [0, {code.k}), got {anchor}")
    action = _as_action(code.n, u)
    ket = code.basis[anchor]
    pair = np.column_stack([ket.amplitudes, action.apply(ket).amplitudes])
    grams = _pauli_grams(pair, code.n)
    return OperatorSubspace.from_constraints(code.n, (grams[:, 0, 0] - grams[:, 1, 1]).real)


def _block_sum(code: QuantumCode, action: UnitaryAction) -> tuple[OperatorSubspace, ...]:
    """S = ES(C) meet U ES(C) U-adjoint meet the mixed blocks, p, and U p U-adjoint.

    Each complement is an image of Z = _scaled_columns(code), with matrices
    M.  [ES(C)-perp | p] is _condition_complement's combination of Z, and
    conjugation is linear and keeps the identity coordinate, so the same
    combination of W = U X, X = M U-adjoint, gives their conjugates.  The
    mixed blocks Z U-adjoint meet U Z have the complement [X, conj X], as U Z
    is the adjoint of Z U-adjoint, and it spans the real sqrt(2) [Re X, Im X].
    ES(C)-perp, its conjugate and the mixed complement lie in the CC, UU and
    CU/UC blocks, which are orthogonal: <|a><b|, |c><d|> = <a|c><d|b> = 0
    across blocks, as C is orthogonal to UC.  So their orthonormal columns
    concatenate to an orthonormal complement of S, and no SVD confirms it.
    """
    n, mat = code.n, action.matrix
    z = _scaled_columns(code)
    x = np.moveaxis(coords_to_matrices(z, n), 2, 0) @ mat.conj().T
    mixed = np.sqrt(2) * matrices_to_coords(np.moveaxis(x, 0, 2), n)
    w = matrices_to_coords(np.moveaxis(mat @ x, 0, 2), n).real
    width = _complement_width(n, code.k, False)
    (es, p), (es_conj, p_conj) = (np.hsplit(_condition_complement(c, n, pure=True), [width])
                                  for c in (z, w))
    return tuple(OperatorSubspace(n, c) for c in
                 (np.hstack([es, es_conj, mixed.real, mixed.imag]), p, p_conj))


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
    return intersect([_block_sum(code, action)[0], equal_expectation_space(code, action)])


def union_pure_space_via_intersection(code: QuantumCode, u) -> OperatorSubspace:
    """Pure erasure space of the union, intersected from one component's data.

    Within-component blocks give the pure space and its conjugate; the mixed
    blocks again give one-sided images of the annihilating space.
    """
    action = _as_action(code.n, u)
    union_code([code, transform_code(code, action)])  # refuses an overlapping image
    return intersect(_block_sum(code, action))


def cross_check_intersection_formulas(code: QuantumCode, u,
                                      tol: float = SUBSPACE_TOL) -> dict:
    """Run both intersection pipelines and compare against direct computation.

    Returns a report with, per formula, the pipeline dimension, the direct
    dimension, the equality residual (sine of the largest principal angle)
    and whether they match within tol.
    """
    action = _as_action(code.n, u)
    union, _ = union_code([code, transform_code(code, action)])
    return _cross_check(code, action, union, tol)


def _cross_check(code: QuantumCode, u, union: QuantumCode,
                 tol: float = SUBSPACE_TOL) -> dict:
    """cross_check_intersection_formulas against an already built union C (+) UC.

    Theorem 4's complement is [S-perp | a] and Theorem 5's [S-perp | b]:
    S-perp from one _block_sum, a and b what the expectation row, or p and
    U p U-adjoint, add to it (intersect's new-direction step).  PS(union) has
    the complement [ES(union)-perp | p_union], so one closed form gives both
    direct spaces, and a caller that has the union builds it once.  Matching
    dimensions take both residuals from one projection (_shared_residuals);
    a mismatch already fails, and equality_residual reads its angles.
    """
    action = _as_action(code.n, u)
    shared, p, p_conj = _block_sum(code, action)
    s = shared.complement
    a = _new_directions(s, equal_expectation_space(code, action).complement)
    b = _new_directions(s, np.hstack([p.complement, p_conj.complement]))
    direct = pure_erasure_space(union).complement
    width = _complement_width(union.n, union.k, False)
    sides = {"theorem4": (a, direct[:, :width]), "theorem5": (b, direct)}
    if all(s.shape[1] + x.shape[1] == d.shape[1] for x, d in sides.values()):
        residuals = _shared_residuals(s, a, b, direct, width)
    else:
        residuals = [equality_residual(OperatorSubspace(code.n, np.hstack([s, x])),
                                       OperatorSubspace(code.n, d)) for x, d in sides.values()]
    report = {}
    for (key, (x, d)), residual in zip(sides.items(), residuals):
        dim, direct_dim = 4**code.n - s.shape[1] - x.shape[1], 4**code.n - d.shape[1]
        report[key] = {"dim": dim, "direct_dim": direct_dim, "residual": residual,
                       "matches_direct": dim == direct_dim and residual < tol}
    return report


def _shared_residuals(s: np.ndarray, a: np.ndarray, b: np.ndarray,
                      direct: np.ndarray, width: int) -> tuple[float, float]:
    """Sines of the largest principal angles of [s | a] against direct[:, :width]
    and of [s | b] against direct, from one projection and one Gram.

    [s | a], [s | b] and direct are orthonormal (a and b need not be
    orthogonal to each other), and each pair has equal widths, so each sine
    is the spectral norm of the pipeline complement projected off the direct
    one.  x = [s | a | b] is projected off direct once, in place in
    one copy: r = x - direct (direct^H x), and g = r^H r.  The Theorem 5
    Gram is g's block on [s | b].  Theorem 4's direct complement d =
    direct[:, :width] leaves out direct's trailing columns e, and
    I - d d^H = (I - direct direct^H) + e e^H, so its Gram is g's block on
    [s | a] plus t^H t, where t = e^H [s | a] is already in direct^H x.  Both
    terms are formed explicitly and are positive semidefinite, so no
    1 - cos^2 cancellation enters.
    """
    r = np.hstack([s, a, b])
    proj = direct.conj().T @ r
    r -= direct @ proj
    g = r.conj().T @ r
    head = s.shape[1] + a.shape[1]
    t = proj[width:, :head]
    theorem5 = np.r_[:s.shape[1], head:r.shape[1]]
    return (_largest_singular_value(g[:head, :head] + t.conj().T @ t),
            _largest_singular_value(g[np.ix_(theorem5, theorem5)]))
