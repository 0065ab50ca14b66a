"""The constraint-SVD route to the erasure, pure and annihilating spaces.

The package writes the complements of these spaces down in closed form from
the gram tensor.  This module keeps the older route as a second one: each
space is the nullspace of its (K^2, 4^n) condition system, the gram rows
of erasure._deviations with its diagonal deviations written in, from one thin
SVD with a relative rank cut.  Dimensions come out of that rank cut here, not
from the structure of the conditions.

It also keeps the older factorizations behind OperatorSubspace: the nullspace
complement of a constraint system from the SVD of its wide rows, which the
package no longer solves at all, and the full singular value spectrum of a
containment residual, where the package reads the largest singular value
from a small Gram.  It keeps intersect, the general intersection that the
package's union formulas no longer need: it factors only what its widest
input complement does not span, with an absolute rank cut, and the wide SVD
of all complements stacked as rows is its second route.  The union
formulas' closed-form directions (unions._formula_complements) are tested
against its new-direction step.  And it keeps the routes through a spanning
basis B, where the package reads membership and containment off
complements alone: the member residual |v - B B^H v| / |v|, and the
containment residual sigma_max(C_outer^H B_inner).  Last, it keeps the
one-sided maps E -> U E and E -> E U that unions._block_sum folds into one
map of the gram columns; the pairing of each real mapped column with its
transposed partner, which that map's complex columns replace; the
equal-expectation space from the anchor pair's own gram tensor, whose row
the closed-form direction a replaces; and
the union cross-check's residuals from one projection of each theorem's
whole complement off the whole direct one, where the package projects each
ket pair's two columns off that pair's two direct columns.
Spans given by their vectors are built here too: only tests build them.
"""

import numpy as np

from qerasure import OperatorSubspace, erasure_space, pure_erasure_space
from qerasure.erasure import _condition_complement, _deviations, _scaled_columns, annihilating_space
from qerasure.operator_space import (
    _as_columns,
    _complete_orthonormal,
    _pauli_grams,
    coords_to_matrices,
    matrices_to_coords,
)
from qerasure.states import _as_action

# intersect's absolute rank cut: a residual of unit-norm columns keeps
# singular values above it; kept directions weaker than REPROJECT_BELOW are
# projected once more ("twice is enough": Giraud, Langou, Rozloznik 2005)
RANK_RTOL = 1e-8
REPROJECT_BELOW = 0.5


def _rank(s, rtol):
    """Number of singular values above rtol times the largest one."""
    return int(np.sum(s > rtol * s[0])) if s.size else 0


def from_span(n, vectors, rtol=RANK_RTOL):
    """Subspace spanned by the given (not necessarily orthonormal) columns.

    The left singular vectors of the columns give an orthonormal basis of
    the span, and its complement is completed from them once.
    """
    u, s, _ = np.linalg.svd(_as_columns(vectors, 4**n), full_matrices=False)
    return OperatorSubspace(n, complement=_complete_orthonormal(u[:, :_rank(s, rtol)]))


def wide_nullspace_complement(rows, rtol=RANK_RTOL):
    """Complement of {v : rows @ v = 0}: conjugated right singular vectors of the rows.

    A single row may be given as a vector.  Real rows give a float64 complement.
    """
    _, s, vh = np.linalg.svd(np.atleast_2d(rows), full_matrices=False)
    return vh[:_rank(s, rtol)].conj().T


def largest_singular_value_svd(m):
    return float(np.linalg.svd(m, compute_uv=False)[0])


def basis_member_residual(basis, v):
    """Relative norm of v less its projection onto the span of basis."""
    return float(np.linalg.norm(v - basis @ (basis.conj().T @ v)) / np.linalg.norm(v))


def basis_containment_residual(inner, outer):
    """Sine of the largest principal angle, from inner's basis and outer's complement."""
    m = outer.complement.conj().T @ inner.basis
    return largest_singular_value_svd(m) if m.size else 0.0


def _nullspace(code, alpha):
    rows, [diagonal] = _deviations(code.grams, [alpha])
    dev = rows.copy()
    dev[:, :: code.k + 1] = diagonal.T
    return OperatorSubspace(code.n, wide_nullspace_complement(dev.T))


def erasure_space_svd(code):
    return _nullspace(code, code.grams[:, 0, 0])


def pure_space_svd(code):
    trace = np.zeros(4**code.n)
    trace[0] = 1.0  # tr(sigma)/2^n: 1 at the identity, 0 elsewhere
    return _nullspace(code, trace)


def annihilating_space_svd(code):
    return _nullspace(code, 0)


# Each closed-form space of the package beside its route here.
CLOSED_FORMS = ((erasure_space, erasure_space_svd), (pure_erasure_space, pure_space_svd),
                (annihilating_space, annihilating_space_svd))


def product_image(s, left=None, right=None):
    """Image of s under E -> left E right (None is the identity), complex in general."""
    stack = np.moveaxis(coords_to_matrices(s.complement, s.n), 2, 0)
    if left is not None:
        stack = left @ stack
    if right is not None:
        stack = stack @ right
    return OperatorSubspace(s.n, matrices_to_coords(np.moveaxis(stack, 0, 2), s.n))


def real_column_block_sum(code, action):
    """unions._block_sum's grid from the code's real gram columns Z, each mapped as it stands.

    With X the coordinates of Z's matrices times U-adjoint and W those of U
    Z U-adjoint, the CC block is Z and the UU block Re W, both conditioned,
    entry (i, j) of the CU block is Re X_ij - Im X_ji and entry (j, i) of
    the UC block Im X_ij + Re X_ji: Re and Im of X_ij + i X_ji, each column
    paired with its transposed partner after the map.
    """
    n, k, mat = code.n, code.k, action.matrix
    z = _scaled_columns(code).reshape(-1, k, k)
    stack = np.moveaxis(coords_to_matrices(z.reshape(-1, k * k), n), 2, 0) @ mat.conj().T
    x = matrices_to_coords(np.moveaxis(stack, 0, 2), n).reshape(-1, k, k)
    w = matrices_to_coords(np.moveaxis(mat @ stack, 0, 2), n).real.reshape(-1, k, k)
    s = np.empty((4**n, 2 * k, 2 * k))
    s[:, :k, :k], s[:, k:, k:] = _condition_complement(z, n, True), _condition_complement(w, n, True)
    s[:, :k, k:] = x.real - x.imag.transpose(0, 2, 1)
    s[:, k:, :k] = (x.imag + x.real.transpose(0, 2, 1)).transpose(0, 2, 1)
    return s


def equal_expectation_space(code, u, anchor=0):
    """Operators E with <a|E|a> = <Ua|E|Ua> for basis ket a: one real constraint row."""
    ket = code.basis[:, anchor]
    pair = np.column_stack([ket, _as_action(code.n, u).matrix @ ket])
    grams = _pauli_grams(pair, pair, code.n)
    row = (grams[:, 0, 0] - grams[:, 1, 1]).real
    return OperatorSubspace(code.n, wide_nullspace_complement(row))


def theorem_columns(s, diagonal):
    """A theorem's complement from unions._formula_complements' grid s and its
    diagonal columns: the grid's entries off its diagonal, then diagonal."""
    m = s.shape[1]
    return np.hstack([s.reshape(len(s), m * m)[:, ~np.eye(m, dtype=bool).ravel()], diagonal])


def grid_residuals_full_gram(s, four, five, direct):
    """unions._cross_check's residuals from one projection of each theorem's
    whole complement off the whole direct one.

    direct is the union's complement grid flattened to (4^n, m^2) columns,
    and a theorem's direct complement its leading columns, as many as that
    theorem's complement has.  r = x - d (d^H x) and the residual is the
    square root of the largest eigenvalue of r^H r.
    """
    out = []
    for diagonal in (four, five):
        x = theorem_columns(s, diagonal)
        d = direct[:, :x.shape[1]]
        r = x - d @ (d.conj().T @ x)
        out.append(float(np.sqrt(max(np.linalg.eigvalsh(r.conj().T @ r)[-1], 0.0))))
    return tuple(out)


def _new_directions(q, rest):
    """Orthonormal directions that the columns of rest add to the orthonormal q.

    rest, projected off q, is a residual with 4^n rows and rest's columns;
    its left singular vectors with singular values above RANK_RTOL are the
    new directions (Barlow and Smoktunowicz, "Reorthogonalized block
    classical Gram-Schmidt", Numer. Math. 123, 2013).  The cut is absolute,
    since rest has unit-norm columns.  Those below REPROJECT_BELOW are
    projected off q again, in place: one near the cut is about eps /
    RANK_RTOL off the complement of q.  Only the kept columns are returned.
    """
    u, s, _ = np.linalg.svd(rest - q @ (q.conj().T @ rest), full_matrices=False)
    new = u[:, :np.count_nonzero(s > RANK_RTOL)]
    weak = new[:, np.count_nonzero(s >= REPROJECT_BELOW):]
    weak -= q @ (q.conj().T @ weak)
    return new


def intersect(subspaces):
    """Common subspace of all inputs.

    A vector lies in every subspace exactly when it is orthogonal to every
    complement, so the complement of the intersection is the span of them
    all.  Complements are orthonormal, so the widest one, Q (the first of
    equal width), is kept as it stands, and only the others, stacked, are
    factored against it for the directions they add (_new_directions).
    """
    if len(subspaces) == 0:
        raise ValueError("need at least one subspace")
    n = subspaces[0].n
    if any(s.n != n for s in subspaces):
        raise ValueError("subspaces live on different qubit counts")
    widest = max(range(len(subspaces)), key=lambda i: subspaces[i].complement.shape[1])
    q = subspaces[widest].complement
    rest = [s.complement for i, s in enumerate(subspaces) if i != widest]
    if sum(c.shape[1] for c in rest) == 0:
        return OperatorSubspace(n, complement=q)
    return OperatorSubspace(n, complement=np.hstack([q, _new_directions(q, np.hstack(rest))]))


