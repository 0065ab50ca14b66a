"""Union codes and the intersection route to their erasure spaces.

The union of mutually orthogonal codes of equal length is the code spanned by
the concatenated bases.  For a two-component union C (+) UC built from a
unitary image, the membership conditions split by component block, so the
erasure space equals an intersection of five spaces derived from C alone: its
erasure space, the conjugate of that under U, right and left one-sided
multiples of the zero-block space (operators annihilated by the code
projector on both sides), and the space of operators whose expectation in the
first basis ket is unchanged by conjugation.  The union's pure space is the
analogous four-way intersection.  Both pipelines are cross-checked here
against the direct computation over the concatenated basis, which never
special-cases mixed component pairs.

Every factor of both intersections is closed under the adjoint, so each is
stored by a real complement and the intersections and their comparison with
the direct spaces run in real arithmetic.  Conjugation by U keeps a real
complement real.  The two one-sided multiples of the zero-block space are
adjoints of each other, so they enter as one real factor, their
intersection, built from a single one-sided map (_mixed_blocks).  The
one-sided maps themselves return complex complements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codes import QuantumCode, _check_gram_size, basis_matrix, transform_code
from .erasure import annihilating_space, erasure_space, pure_erasure_space
from .operator_space import (
    OperatorSubspace,
    _pauli_grams,
    coords_to_matrices,
    equality_residual,
    intersect,
    map_subspace,
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
    if isinstance(u, UnitaryAction):
        return u
    if isinstance(u, CodeTransform):
        return UnitaryAction.from_transform(u)
    return UnitaryAction(n, u)


def _product_map(n: int, left: np.ndarray | None = None,
                 right: np.ndarray | None = None):
    """Coordinate map of E -> left E right (None stands for the identity)."""
    def apply(cols: np.ndarray) -> np.ndarray:
        stack = np.moveaxis(coords_to_matrices(cols, n), 2, 0)
        if left is not None:
            stack = left @ stack
        if right is not None:
            stack = stack @ right
        return matrices_to_coords(np.moveaxis(stack, 0, 2), n)

    return apply


def conjugate_subspace(s: OperatorSubspace, u) -> OperatorSubspace:
    """Image of s under E -> U E U-adjoint; dimension is preserved.

    Conjugation keeps Hermitian operators Hermitian, so a real complement
    maps to real coordinates and is kept real: the part dropped is roundoff.
    """
    mat = _as_action(s.n, u).matrix
    image = _product_map(s.n, left=mat, right=mat.conj().T)(s.complement)
    return OperatorSubspace(s.n, complement=image.real if np.isrealobj(s.complement) else image)


def left_multiply_subspace(s: OperatorSubspace, u) -> OperatorSubspace:
    """Image of s under E -> U E."""
    return map_subspace(s, _product_map(s.n, left=_as_action(s.n, u).matrix))


def right_multiply_subspace(s: OperatorSubspace, u) -> OperatorSubspace:
    """Image of s under E -> E U (pass the adjoint action for E -> E U-adjoint)."""
    return map_subspace(s, _product_map(s.n, right=_as_action(s.n, u).matrix))


def equal_expectation_space(code: QuantumCode, u,
                            anchor: int = 0) -> OperatorSubspace:
    """Operators whose expectation in basis ket `anchor` is conjugation-invariant.

    The single constraint <a|E|a> = <Ua|E|Ua> cuts the space down by at most
    one dimension.  Its row, a difference of two expectations of Hermitian
    Paulis, is real.
    """
    if code.k < 1:
        raise ValueError("code has no basis kets")
    action = _as_action(code.n, u)
    ket = code.basis[anchor]
    pair = np.column_stack([ket.amplitudes, action.apply(ket).amplitudes])
    grams = _pauli_grams(pair, code.n)
    return OperatorSubspace.from_constraints(code.n, (grams[:, 0, 0] - grams[:, 1, 1]).real)


def _require_orthogonal_image(code: QuantumCode, action: UnitaryAction) -> QuantumCode:
    image = transform_code(code, action, label=f"U({code.label})")
    overlaps = np.abs(basis_matrix(code).conj().T @ basis_matrix(image))
    worst = float(np.max(overlaps))
    if worst >= CROSS_ORTHOGONALITY_TOL:
        raise OrthogonalityError(
            f"code and its unitary image overlap: max |<c_i|U|c_j>| = {worst:.3e}"
        )
    return image


def _mixed_blocks(code: QuantumCode, action: UnitaryAction) -> OperatorSubspace:
    """The mixed-block factor of both formulas: Z U-adjoint meet U Z, Z annihilating.

    U Z is the adjoint of Z U-adjoint, so its complement is the conjugate of
    the complement X of Z U-adjoint.  The two complements are orthogonal,
    because the code is orthogonal to its image: <|c_j><Uc_i|, |Uc_l><c_m|>
    = <c_j|Uc_l><c_m|Uc_i> = 0.  So the intersection has the orthonormal
    complement [X, conj X], which spans the same space as the real
    sqrt(2) [Re X, Im X], and one one-sided map builds it.
    """
    x = right_multiply_subspace(annihilating_space(code), action.adjoint()).complement
    return OperatorSubspace(code.n, complement=np.sqrt(2) * np.hstack([x.real, x.imag]))


def _theorem4(code: QuantumCode, action: UnitaryAction,
              mixed: OperatorSubspace) -> OperatorSubspace:
    es = erasure_space(code)
    return intersect([es, conjugate_subspace(es, action), mixed,
                      equal_expectation_space(code, action)])


def _theorem5(code: QuantumCode, action: UnitaryAction,
              mixed: OperatorSubspace) -> OperatorSubspace:
    ps = pure_erasure_space(code)
    return intersect([ps, conjugate_subspace(ps, action), mixed])


def union_erasure_space_via_intersection(code: QuantumCode, u) -> OperatorSubspace:
    """Erasure space of the union of a code with its orthogonal unitary image,
    computed as a five-way intersection instead of from the concatenated basis.

    The two within-component condition blocks contribute the erasure space of
    the code and its conjugate; the mixed blocks demand that every matrix
    element of E*U and of U-adjoint*E vanish, diagonals included, which is the
    annihilating space multiplied from the appropriate side (the pure space
    would wrongly re-admit scalar multiples of U, e.g. the pairing transform
    itself); the final factor equates the two components' diagonal values.
    """
    action = _as_action(code.n, u)
    _require_orthogonal_image(code, action)
    return _theorem4(code, action, _mixed_blocks(code, action))


def union_pure_space_via_intersection(code: QuantumCode, u) -> OperatorSubspace:
    """Pure erasure space of the union, intersected from one component's data.

    Within-component blocks give the pure space and its conjugate; the mixed
    blocks again give one-sided images of the annihilating space.
    """
    action = _as_action(code.n, u)
    _require_orthogonal_image(code, action)
    return _theorem5(code, action, _mixed_blocks(code, action))


def cross_check_intersection_formulas(code: QuantumCode, u,
                                      tol: float = SUBSPACE_TOL) -> dict:
    """Run both intersection pipelines and compare against direct computation.

    Returns a report with, per formula, the pipeline dimension, the direct
    dimension, the equality residual (sine of the largest principal angle)
    and whether they match within tol.
    """
    action = _as_action(code.n, u)
    union, _ = union_code([code, _require_orthogonal_image(code, action)])
    return _cross_check(code, action, union, tol)


def _cross_check(code: QuantumCode, u, union: QuantumCode,
                 tol: float = SUBSPACE_TOL) -> dict:
    """cross_check_intersection_formulas against an already built union C (+) UC.

    Both formulas share the mixed-block factor, and the direct spaces read
    the union's gram tensor, so a caller that has the union builds it once.
    """
    action = _as_action(code.n, u)
    mixed = _mixed_blocks(code, action)
    report = {}
    for key, pipeline, direct in (
        ("theorem4", _theorem4(code, action, mixed), erasure_space(union)),
        ("theorem5", _theorem5(code, action, mixed), pure_erasure_space(union)),
    ):
        residual = equality_residual(pipeline, direct)
        report[key] = {
            "dim": pipeline.dim,
            "direct_dim": direct.dim,
            "residual": residual,
            "matches_direct": pipeline.dim == direct.dim and residual < tol,
        }
    return report
