"""Linear subspaces of n-qubit operator space in Pauli coordinates.

Every operator E on 2^n dimensions expands uniquely as E = sum_sigma e_sigma
* sigma over the 4^n phase-0 Pauli products, taken in the fixed enumeration
order of enumerate_paulis(n, n).  The coefficient vector e is the coordinate
representation used throughout; since tr(sigma tau) = 2^n * delta, the plain
complex dot product on coordinates agrees with the Hilbert-Schmidt inner
product up to the constant 2^n, so orthonormal coordinate bases describe
operator subspaces faithfully.

A subspace is stored by one array: an orthonormal basis of its orthogonal
complement.  Every space the package builds is nearly the whole space, so
the complement is the small representation: the erasure, pure and
annihilating spaces write theirs down in closed form from a code's gram
tensor (see erasure), the nullspace of a stacked constraint system, as in
intersect, takes its complement from one thin SVD of the rows in tall column
form, and a span given by its vectors has its complement completed once.
The spanning basis is completed from the complement on first use.  Unitary
maps of operator space carry complements to complements, so they act on the
complement alone.

A space closed under the adjoint has a real orthonormal complement: the
phase-0 Paulis are Hermitian, so E -> E^H conjugates coordinates, and a
Hermitian operator has real ones.  The erasure, pure and annihilating
spaces, their conjugates and every factor of the union formulas are of that
kind and store float64 complements; the one-sided products of the unions
module are not, and stay complex.  Nothing selects a real or a complex path:
the constructors keep the dtype of their input, real as float64 and complex
as complex128, and numpy promotes to complex only where some input is
complex.  So intersections, containment residuals and completions of real
spaces run in real arithmetic, in half the memory.

Completion, in either direction, takes the Householder QR of the k known
columns in compact-WY form Q = I - V T V^H (Schreiber and Van Loan, "A
storage-efficient WY representation for products of Householder
transformations", SIAM J. Sci. Stat. Comput. 10, 1989) and writes the last
4^n - k columns of Q as one rank-k product.  At n = 6 that spanning basis is
a 4096 x ~4093 array, float64 (134 MB) for a real space and complex (268 MB)
otherwise, the only O(16^n) object here.

Numerical conventions: ranks are read from singular values with a relative
threshold of RANK_RTOL times the largest one, and membership and containment
residuals are compared against MEMBERSHIP_TOL and SUBSPACE_TOL (see
tolerances).  Every rank-revealing SVD factors a tall matrix: constraint rows
(r, 4^n) are factored as their transpose, whose left singular vectors carry
the nullspace complement, since LAPACK reduces a wide matrix through an extra
LQ pass.  A containment residual is the sine of the largest principal angle,
read as the spectral norm of the explicit residual (I - P_inner) Q_outer
from the largest eigenvalue of its c x c Gram.  It is never read as
1 - cos^2 of the smallest principal-angle cosine, which cancels to a floor
near sqrt(eps), about 1e-8, on equal spaces (Bjorck and Golub, "Numerical
methods for computing angles between linear subspaces", Math. Comp. 27,
1973).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .pauli import (
    PauliOperator,
    _index_aligned_masks,
    _pauli_masks,
    _reverse_bits,
)
from .tolerances import COEFFICIENT_TOL, ORTHONORMALITY_TOL, RANK_RTOL


class _PauliTable(NamedTuple):
    """How each coordinate's Pauli acts: sigma |b> = phase (-1)^(b.z) |b ^ x>.

    x and z are index-aligned masks (see pauli.apply_to_amplitudes), phase is
    i to the number of Y factors, labels are the letter strings (qubit 0
    first), hadamard[a, b] = (-1)^(a.b) is the 2^n x 2^n Walsh-Hadamard
    matrix that sums over b against every z at once, and coordinate is the
    inverse of _slots: coordinate[(z << n) | x] is that Pauli's index.
    """

    x: np.ndarray
    z: np.ndarray
    phase: np.ndarray
    labels: np.ndarray
    hadamard: np.ndarray
    coordinate: np.ndarray


@lru_cache(maxsize=None)
def _pauli_table(n: int) -> _PauliTable:
    x, z = _reverse_bits(_pauli_masks(n), n).T
    phase = np.array([1, 1j, -1, -1j])[np.bitwise_count(x & z) % 4]
    bit = np.arange(n - 1, -1, -1)  # qubit j sits at index bit n - 1 - j
    letter = ((x[:, None] >> bit) & 1) | (((z[:, None] >> bit) & 1) << 1)
    labels = np.array(list("IXZY"))[letter].view(f"<U{n}")[:, 0]  # join each row
    b = np.arange(1 << n)
    hadamard = 1.0 - 2 * (np.bitwise_count(b[:, None] & b[None, :]) & 1)
    coordinate = np.empty(4**n, dtype=np.int64)
    coordinate[(z << n) | x] = np.arange(4**n)
    return _PauliTable(x, z, phase, labels, hadamard, coordinate)


def _hadamard(t: _PauliTable, a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the first axis, as one real matmul."""
    a = np.ascontiguousarray(a, dtype=complex)
    flat = a.reshape(a.shape[0], -1).view(np.float64)
    return (t.hadamard @ flat).view(complex).reshape(a.shape)


def _slots(t: _PauliTable, n: int) -> np.ndarray:
    """Each coordinate's row in a transform output flattened over (z, x)."""
    return (t.z << n) | t.x


def _pauli_grams(vecs: np.ndarray, n: int) -> np.ndarray:
    """<v_i|sigma|v_j> for every Pauli sigma in coordinate order, shape (4^n, K, K).

    For a fixed x, the elements over all z are one Walsh-Hadamard transform
    over b of conj(v_i[b ^ x]) v_j[b] (Georges, Berntson, Sunderhauf and
    Ivanov, "Pauli decomposition via the fast Walsh-Hadamard transform").
    """
    t = _pauli_table(n)
    b = np.arange(1 << n)
    k = vecs.shape[1]
    # The product tensor is freed as soon as its transform exists, and the
    # phase multiplies the gathered copy in place: at most two (4^n, K, K)
    # arrays are alive at once.
    grams = _hadamard(t, vecs.conj()[b[:, None] ^ b[None, :], :, None] * vecs[:, None, None, :])
    out = grams.reshape(4**n, k, k)[_slots(t, n)]
    out *= t.phase[:, None, None]
    return out


def pauli_index(p: PauliOperator) -> int:
    """Position of p's mask pair in the coordinate ordering."""
    rx, rz = _index_aligned_masks(p)
    return int(_pauli_table(p.n).coordinate[(rz << p.n) | rx])


def pauli_coords(p: PauliOperator) -> np.ndarray:
    """Coordinate vector of p: the single entry i**phase at its index."""
    v = np.zeros(4**p.n, dtype=complex)
    v[pauli_index(p)] = 1j**p.phase
    return v


def operator_weight(coords: np.ndarray, n: int, tol: float = COEFFICIENT_TOL) -> int:
    """Size of the union of supports of the nonzero Pauli components."""
    t = _pauli_table(n)
    live = np.abs(coords) > tol
    joined = np.bitwise_or.reduce((t.x | t.z)[live]) if live.any() else 0
    return int(joined).bit_count()


def coords_to_matrices(coords: np.ndarray, n: int) -> np.ndarray:
    """Coordinate vectors (columns) to dense operators, shape (2^n, 2^n, k).

    Entry (r, c) collects the Paulis with x = r ^ c, summed over z against
    (-1)^(c.z): a scatter into (z, x), one transform, and a gather.
    """
    t = _pauli_table(n)
    v = np.atleast_2d(coords.T).T  # promote a single vector to one column
    spec = np.zeros((4**n, v.shape[1]), dtype=complex)
    spec[_slots(t, n)] = t.phase[:, None] * v
    by_x = _hadamard(t, spec.reshape(1 << n, 1 << n, -1))  # [c, x] = E[c ^ x, c]
    b = np.arange(1 << n)
    return by_x[b[None, :], b[:, None] ^ b[None, :]]


def matrices_to_coords(mats: np.ndarray, n: int) -> np.ndarray:
    """Inverse of coords_to_matrices; accepts (2^n, 2^n) or (2^n, 2^n, k)."""
    mats = np.asarray(mats)
    single = mats.ndim == 2
    if single:
        mats = mats[:, :, None]
    t = _pauli_table(n)
    b = np.arange(1 << n)
    spec = _hadamard(t, mats[b[:, None] ^ b[None, :], b[:, None]])
    out = t.phase.conj()[:, None] * spec.reshape(4**n, -1)[_slots(t, n)] / (1 << n)
    return out[:, 0] if single else out


def coords_to_matrix(coords: np.ndarray, n: int) -> np.ndarray:
    return coords_to_matrices(coords, n)[:, :, 0]


def _real_or_complex(arr) -> np.ndarray:
    """arr as float64 when it is real and as complex128 when it is complex."""
    a = np.asarray(arr)
    return a.astype(np.result_type(a, np.float64), copy=False)


def _as_columns(arr: np.ndarray, dim: int) -> np.ndarray:
    a = _real_or_complex(arr)
    if a.ndim == 1:
        a = a[:, None]
    if a.shape[0] != dim:
        raise ValueError(f"expected vectors of length {dim}, got {a.shape[0]}")
    return a


def _rank(s: np.ndarray, rtol: float) -> int:
    """Number of singular values above rtol times the largest one."""
    return int(np.sum(s > rtol * s[0])) if s.size else 0


def _wy_triangle(vv: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Upper-triangular T with H_1 ... H_k = I - V T V^H, from vv = V^H V.

    The recursive form of LAPACK's zlarft: splitting the reflectors into two
    runs with factors T1 and T2, the off-diagonal block is -T1 V1^H V2 T2.
    """
    k = tau.shape[0]
    if k <= 1:
        return tau.reshape(k, k).copy()
    h = k // 2
    t = np.zeros((k, k), dtype=vv.dtype)
    t[:h, :h] = _wy_triangle(vv[:h, :h], tau[:h])
    t[h:, h:] = _wy_triangle(vv[h:, h:], tau[h:])
    t[:h, h:] = -(t[:h, :h] @ vv[:h, h:]) @ t[h:, h:]
    return t


def _complete_orthonormal(part: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the given columns.

    The Householder QR of part is Q = H_1 ... H_k = I - V T V^H in compact-WY
    form (Schreiber and Van Loan, "A storage-efficient WY representation for
    products of Householder transformations", SIAM J. Sci. Stat. Comput. 10,
    1989): V is the unit lower-trapezoidal (dim, k) array of reflectors from
    the raw QR, and T the k x k upper triangle of _wy_triangle.  The last
    dim - k columns of Q, the ones a complete QR returns, are
    I[:, k:] + V @ (-T V[k:]^H): one rank-k product into the output, with the
    sign folded into the k x k factor T and the ones added along the shifted
    diagonal, so Q itself is never formed.
    """
    dim, k = part.shape
    h, tau = np.linalg.qr(part, mode="raw")  # h is the (k, dim) transpose
    v = np.tril(h.T, -1)
    np.fill_diagonal(v, 1)
    out = v @ (-_wy_triangle(v.conj().T @ v, tau) @ v[k:].conj().T)
    out.reshape(-1)[k * (dim - k)::dim - k + 1] += 1
    return out


class OperatorSubspace:
    """An operator subspace, held by an orthonormal basis of its complement.

    complement has shape (4^n, c) with orthonormal columns, float64 when given
    real and complex128 when given complex; the space has dimension 4^n - c.
    The spanning basis is completed from it on first use.
    """

    def __init__(self, n: int, complement: np.ndarray):
        self.n = n
        self.total_dim = 4**n
        self.complement = _as_columns(complement, self.total_dim)
        self._basis = None

    @property
    def dim(self) -> int:
        return self.total_dim - self.complement.shape[1]

    @property
    def basis(self) -> np.ndarray:
        if self._basis is None:
            self._basis = _complete_orthonormal(self.complement)
        return self._basis

    @classmethod
    def full(cls, n: int) -> "OperatorSubspace":
        return cls(n, complement=np.zeros((4**n, 0)))

    @classmethod
    def from_constraints(cls, n: int, rows: np.ndarray,
                         rtol: float = RANK_RTOL) -> "OperatorSubspace":
        """Nullspace {v : rows @ v = 0} of a (m, 4^n) constraint system.

        The conjugated row space is the complement of the nullspace, so a
        thin SVD is all that is needed up front.  It factors the tall column
        form rows^T = U S V^H, whose left singular vectors are the conjugated
        right ones of the rows: the complement is the conjugate of U's first
        rank columns.  LAPACK factors a tall matrix without the LQ pass a
        wide one takes, and only the kept columns are conjugated.
        """
        rows = _real_or_complex(rows)
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.shape[1] != 4**n:
            raise ValueError(f"constraint rows must have 4^{n} columns")
        u, s, _ = np.linalg.svd(rows.T, full_matrices=False)
        return cls(n, complement=u[:, :_rank(s, rtol)].conj())

    @classmethod
    def from_span(cls, n: int, vectors: np.ndarray,
                  rtol: float = RANK_RTOL) -> "OperatorSubspace":
        """Subspace spanned by the given (not necessarily orthonormal) columns.

        The left singular vectors of the columns give an orthonormal basis of
        the span, and its complement is completed from them once.
        """
        u, s, _ = np.linalg.svd(_as_columns(vectors, 4**n), full_matrices=False)
        return cls(n, complement=_complete_orthonormal(u[:, :_rank(s, rtol)]))

    def member_residual(self, coords: np.ndarray) -> float:
        """Relative norm of the component of coords outside the subspace."""
        v = np.asarray(coords)
        nrm = np.linalg.norm(v)
        if nrm == 0:
            return 0.0
        c = self.complement
        # v^H c is the conjugate of c^H v.  A real c meets v's real and
        # imaginary parts as one real product, so the tall complement is
        # never conjugated or promoted to complex.
        w = np.stack([v.real, v.imag]) if np.isrealobj(c) else v.conj()
        return float(np.linalg.norm(w @ c) / nrm)

    def validate(self, tol: float = ORTHONORMALITY_TOL) -> None:
        """Check that the complement is orthonormal; for tests."""
        c = self.complement
        if np.max(np.abs(c.conj().T @ c - np.eye(c.shape[1])), initial=0) > tol:
            raise ValueError("stored complement is not orthonormal")

    def __repr__(self) -> str:
        return f"OperatorSubspace(n={self.n}, dim={self.dim})"


def map_subspace(s: OperatorSubspace,
                 f: Callable[[np.ndarray], np.ndarray]) -> OperatorSubspace:
    """Image of s under a coordinate map that is unitary on operator space.

    Such a map sends the orthogonal complement of s to that of the image, so
    only the complement is mapped: it is the small part of every space here.
    """
    return OperatorSubspace(s.n, complement=f(s.complement))


def intersect(subspaces: Sequence[OperatorSubspace]) -> OperatorSubspace:
    """Common subspace of all inputs.

    A vector lies in every subspace exactly when it is orthogonal to every
    complement, so the intersection is the nullspace of the stacked
    complement constraints.
    """
    if len(subspaces) == 0:
        raise ValueError("need at least one subspace")
    n = subspaces[0].n
    if any(s.n != n for s in subspaces):
        raise ValueError("subspaces live on different qubit counts")
    rows = np.vstack([s.complement.conj().T for s in subspaces])
    return OperatorSubspace.from_constraints(n, rows)


def _largest_singular_value(m: np.ndarray) -> float:
    """Spectral norm of m, from the largest eigenvalue of its small Gram.

    With m made tall, shape (r, c) with c <= r, the c x c Hermitian m^H m
    has the squared singular values of m as eigenvalues.  Formed from an
    explicit m, its largest eigenvalue is accurate to relative roundoff, so
    even a residual near 1e-16 keeps its digits; it costs about half a
    singular value decomposition of m.
    """
    if m.size == 0:
        return 0.0
    if m.shape[0] < m.shape[1]:
        m = m.T
    return float(np.sqrt(max(np.linalg.eigvalsh(m.conj().T @ m)[-1], 0.0)))


def containment_residual(inner: OperatorSubspace, outer: OperatorSubspace) -> float:
    """Sine of the largest principal angle obstructing inner <= outer.

    Zero (up to roundoff) exactly when every inner vector lies in outer.
    Computed from the complements, since inner <= outer is equivalent to
    complement(outer) <= complement(inner): the residual co - ci (ci^H co)
    of the outer complement co against the inner one ci is formed explicitly,
    and its spectral norm is read from its small Gram
    (_largest_singular_value).  The explicit residual keeps roundoff-level
    answers near 1e-16 on equal spaces, where 1 - sigma_min(ci^H co)^2
    would cancel to about 1e-8.
    """
    if inner.n != outer.n:
        raise ValueError("subspaces live on different qubit counts")
    if inner.dim == 0:
        return 0.0
    ci, co = inner.complement, outer.complement
    return _largest_singular_value(co - ci @ (ci.conj().T @ co))


def equality_residual(a: OperatorSubspace, b: OperatorSubspace) -> float:
    """Max of the two containment residuals; near zero iff the spaces agree.

    For projectors of equal rank, |(I - P_b) P_a| = |(I - P_a) P_b| (both are
    the sine of the largest principal angle), so equal dimensions need one.
    """
    if a.dim == b.dim:
        return containment_residual(a, b)
    return max(containment_residual(a, b), containment_residual(b, a))
