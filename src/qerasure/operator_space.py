"""Linear subspaces of n-qubit operator space in Pauli coordinates.

Every operator E on 2^n dimensions expands uniquely as E = sum_sigma e_sigma
* sigma over the 4^n phase-0 Pauli products, taken in the fixed enumeration
order of enumerate_paulis(n, n).  The coefficient vector e is the coordinate
representation used throughout; since tr(sigma tau) = 2^n * delta, the plain
complex dot product on coordinates agrees with the Hilbert-Schmidt inner
product up to the constant 2^n, so orthonormal coordinate bases describe
operator subspaces faithfully.  The index arrays between coordinates, masks
and amplitudes (_PauliTable: b ^ b', transform slots, mask reversals,
weights) are built once per n, read-only, so a single lookup or map does
only its own work.

A subspace is stored by one array: an orthonormal basis of its orthogonal
complement.  Every space the package builds is nearly the whole space, so
the complement is the small representation.  The erasure, pure and
annihilating spaces write theirs down in closed form from a code's gram
tensor (see erasure), and so are the factors of the union formulas (see
unions): no dimension here comes out of a rank cut.  The spanning basis is
completed from the complement on first use.  Unitary maps of operator space
carry complements to complements, so they act on the complement alone.

A space closed under the adjoint has a real orthonormal complement: the
phase-0 Paulis are Hermitian, so E -> E^H conjugates coordinates, and a
Hermitian operator has real ones.  The erasure, pure and annihilating
spaces, their conjugates and every factor of the union formulas are of that
kind and store float64 complements; a space given a complex complement
keeps it complex.  Nothing selects a real or a complex path: the
constructor keeps the dtype of its input, real as float64 and complex as
complex128, and numpy promotes to complex only where some input is
complex.  So containment residuals and completions of real spaces run in
real arithmetic, in half the memory.

Completion writes the last 4^n - k columns of the compact-WY Householder QR
of the k known columns as a rank-k product, one cache-sized row block at a
time (see _complete_orthonormal).  At n = 6 that spanning basis is a 4096 x
~4093 array, float64 (134 MB) for a real space and complex (268 MB)
otherwise, the only O(16^n) object here; a larger one is refused before it
is allocated (MAX_BASIS_BYTES).  The kernel zeroes each fresh page it faults
in, so the blocks are filled in one contiguous range per CPU.  It is cached
read-only.  glibc unmaps every freed block above its 32 MiB mmap
ceiling, so each fresh n = 6 basis would have the kernel fault in and zero
all its pages again.  The completion keeps the buffer behind its last n = 6
basis and writes the next one into it once no array refers to it, so one
such buffer stays mapped after the last basis dies.  The CLI and the
theorem route complete no basis, so they keep none.

Outputs over two _BLOCK_BYTES (the gram tensor; a cross-check's grids and pair
residuals in unions) are built in such blocks and written once, bit for bit
(_blocks, _gram_blocks).

Threads that a call starts and joins itself, through a ThreadPoolExecutor
scoped to the call (_beside), fill those ranges beside the caller's own,
and build a large cross-check's direct side beside its pipeline
(unions._cross_check).  No thread outlives a call, so a forked child needs
nothing of its parent's.

Numerical conventions: membership and containment residuals are compared
against MEMBERSHIP_TOL and SUBSPACE_TOL (see tolerances).  A containment
residual is the sine of the largest principal angle, read as the spectral
norm of the explicit residual (I - P_inner) Q_outer from the largest
eigenvalue of its c x c Gram.  It is never read as 1 - cos^2 of the
smallest principal-angle cosine, which cancels to a floor near sqrt(eps),
about 1e-8, on equal spaces (Bjorck and Golub, "Numerical methods for
computing angles between linear subspaces", Math. Comp. 27, 1973).
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .pauli import PauliOperator, _pauli_masks, _reverse_bits
from .tolerances import COEFFICIENT_TOL


class _PauliTable(NamedTuple):
    """How each coordinate's Pauli acts, sigma |b> = phase (-1)^(b.z) |b ^ x>, and the per-n indices.

    x and z are index-aligned masks, bit n - 1 - j for qubit j, since qubit 0
    is the most significant bit of an amplitude index; phase is i to the
    number of Y factors, labels are the letter strings (qubit 0 first), and
    weights the weights, which fill rows starts[w]:starts[w + 1].
    hadamard[a, b] = (-1)^(a.b) is the Walsh-Hadamard matrix that sums over b
    against every z at once, and xor[a, b] = a ^ b gathers the maps' inputs
    and outputs.  slots = (z << n) | x is each coordinate's row in a
    transform output flattened over (z, x), and coordinate its inverse;
    slot_phase[slots] = phase and unphase = conj(phase) / 2^n are the factors
    that coords_to_matrices and matrices_to_coords apply in place.  reverse,
    a tuple, is the n-bit reversal of every mask, to index-aligned ones.
    """

    x: np.ndarray
    z: np.ndarray
    phase: np.ndarray
    labels: np.ndarray
    hadamard: np.ndarray
    coordinate: np.ndarray
    slot_phase: np.ndarray
    unphase: np.ndarray
    xor: np.ndarray
    slots: np.ndarray
    reverse: tuple[int, ...]
    weights: np.ndarray
    starts: np.ndarray


@lru_cache(maxsize=None)
def _pauli_table(n: int) -> _PauliTable:
    x, z = _reverse_bits(_pauli_masks(n), n).T
    phase = np.array([1, 1j, -1, -1j])[np.bitwise_count(x & z) % 4]
    bit = np.arange(n - 1, -1, -1)  # qubit j sits at index bit n - 1 - j
    letter = ((x[:, None] >> bit) & 1) | (((z[:, None] >> bit) & 1) << 1)
    labels = np.array(list("IXZY"))[letter].view(f"<U{n}")[:, 0]  # join each row
    b = np.arange(1 << n)
    hadamard = 1.0 - 2 * (np.bitwise_count(b[:, None] & b[None, :]) & 1)
    slots = (z << n) | x
    coordinate = np.argsort(slots)  # slots is a permutation
    weights = np.bitwise_count(x | z)
    t = _PauliTable(x, z, phase, labels, hadamard, coordinate, phase[coordinate], phase.conj() / (1 << n),
                    b[:, None] ^ b[None, :], slots, tuple(_reverse_bits(b, n).tolist()), weights,
                    np.searchsorted(weights, np.arange(n + 2)))
    for a in t:
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return t


def _hadamard(t: _PauliTable, a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform along the first axis, as one real matmul."""
    a = np.ascontiguousarray(a, dtype=complex)
    flat = a.reshape(a.shape[0], -1).view(np.float64)
    return (t.hadamard @ flat).view(complex).reshape(a.shape)


def _gram_blocks(left: np.ndarray, right: np.ndarray, n: int):
    """Yield <l_i|sigma|r_j> a block of x values at a time: (xs, block), block (2^n, len(xs), K_l, K_r).

    left and right are (2^n, K_l) and (2^n, K_r) columns.  For a fixed x,
    the elements over all z are one Walsh-Hadamard transform over b of
    conj(l_i[b ^ x]) r_j[b] (Georges, Berntson, Sunderhauf and Ivanov,
    "Pauli decomposition via the fast Walsh-Hadamard transform").  Each pair
    (i, j) is its own column of that transform's real product, so a
    rectangular tensor is, bit for bit, its block of the square one, as long
    as BLAS sums each column the same way at any width (the tests check it).
    An output of more than two _BLOCK_BYTES comes in blocks of x values
    (_blocks), and smaller ones in one block.  Entry [z, x] of a block,
    phase included, is the tensor's row coordinate[(z << n) | x], so a
    block's rows are coordinate.reshape(2^n, 2^n)[:, xs].
    """
    t, conj = _pauli_table(n), left.conj()
    for xs in _blocks(1 << n, 16 * left.shape[1] * right.shape[1] << n):
        # conj(l)[b ^ x] by np.take, which gathers rows faster than fancy indexing
        block = _hadamard(t, np.take(conj, t.xor[:, xs], axis=0)[..., None]
                          * right[:, None, None, :])
        block *= t.slot_phase.reshape(1 << n, 1 << n, 1, 1)[:, xs]
        yield xs, block
        del block  # not alive beside the next one


def _pauli_grams(left: np.ndarray, right: np.ndarray, n: int) -> np.ndarray:
    """<l_i|sigma|r_j> for every Pauli sigma in coordinate order, shape (4^n, K_l, K_r).

    A code's own tensor passes its basis as both.  The blocks of
    _gram_blocks are scattered to their rows of one output, written once;
    a single block is gathered instead, which is faster for small outputs.
    """
    t, shape = _pauli_table(n), (4**n, left.shape[1], right.shape[1])
    out, rows = None, t.coordinate.reshape(1 << n, 1 << n)
    for xs, block in _gram_blocks(left, right, n):
        if xs == slice(0, 1 << n):  # at 256 KiB up to twice the scatter's speed (BENCH_44.json)
            return block.reshape(shape)[t.slots]
        if out is None:
            out = np.empty(shape, dtype=complex)
        out[rows[:, xs]] = block
        del block
    return out


def pauli_index(p: PauliOperator) -> int:
    """Position of p's mask pair in the coordinate ordering."""
    t = _pauli_table(p.n)
    return int(t.coordinate[(t.reverse[p.z_mask] << p.n) | t.reverse[p.x_mask]])


def pauli_coords(p: PauliOperator) -> np.ndarray:
    """Coordinate vector of p: the single entry i**phase at its index."""
    index = pauli_index(p)  # refuses n beyond MAX_QUBITS before the vector is made
    v = np.zeros(4**p.n, dtype=complex)
    v[index] = 1j**p.phase
    return v


def _require_shape(a: np.ndarray, lead: tuple[int, ...], stacked: bool = True) -> None:
    """Raise ValueError unless a has shape lead, or lead and one more axis when stacked."""
    if a.shape[:len(lead)] != lead or a.ndim not in (len(lead), len(lead) + stacked):
        extra = " or (" + ", ".join(map(str, lead + ("k",))) + ")" if stacked else ""
        raise ValueError(f"got shape {a.shape}, expected {lead}{extra}")


def operator_weight(coords: np.ndarray, n: int) -> int:
    """Size of the union of supports of the nonzero Pauli components."""
    coords = np.asarray(coords)
    _require_shape(coords, (4**n,), stacked=False)
    t = _pauli_table(n)
    live = np.abs(coords) > COEFFICIENT_TOL
    joined = np.bitwise_or.reduce((t.x | t.z)[live]) if live.any() else 0
    return int(joined).bit_count()


def coords_to_matrices(coords: np.ndarray, n: int) -> np.ndarray:
    """Coordinate vectors (columns) to dense operators, shape (2^n, 2^n, k).

    Entry (r, c) collects the Paulis with x = r ^ c, summed over z against
    (-1)^(c.z): a scatter into (z, x), one transform, and a gather.
    """
    coords = np.asarray(coords)
    _require_shape(coords, (4**n,))
    t = _pauli_table(n)
    v = np.atleast_2d(coords.T).T  # promote a single vector to one column
    spec = np.zeros((4**n, v.shape[1]), dtype=complex)
    spec[t.slots] = v
    spec *= t.slot_phase[:, None]
    by_x = _hadamard(t, spec.reshape(1 << n, 1 << n, -1))  # [c, x] = E[c ^ x, c]
    return by_x[np.arange(1 << n), t.xor]


def matrices_to_coords(mats: np.ndarray, n: int) -> np.ndarray:
    """Inverse of coords_to_matrices; accepts (2^n, 2^n) or (2^n, 2^n, k)."""
    mats = np.asarray(mats)
    _require_shape(mats, (1 << n, 1 << n))
    single = mats.ndim == 2
    if single:
        mats = mats[:, :, None]
    t = _pauli_table(n)
    spec = _hadamard(t, mats[t.xor, np.arange(1 << n)[:, None]])
    out = spec.reshape(4**n, -1)[t.slots]
    out *= t.unphase[:, None]
    return out[:, 0] if single else out


def _as_columns(arr, dim: int) -> np.ndarray:
    """arr as (dim, c) columns: float64 when it is real and complex128 when complex."""
    a = np.asarray(arr)
    _require_shape(a, (dim,))
    a = a.astype(np.result_type(a, np.float64), copy=False)
    return a[:, None] if a.ndim == 1 else a


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


# Row blocks of the completion, sized by measurement on a 2 MiB L2
# (BENCH_24.json): blocks of 128 to 512 KiB wrote a real n = 6 basis in
# about half the time of one product, 2 MiB blocks were no faster than it,
# and at n = 5, 512 KiB blocks were at times slower than 256 KiB ones.
_BLOCK_BYTES = 1 << 18


def _blocks(items: int, item_bytes: int, width: int = 1) -> list[slice]:
    """Slices of about _BLOCK_BYTES of items of width columns, one when all fit in two blocks:
    multiples of four columns, a lone last item of one column joining the one before, as BLAS
    sums four or eight columns at a time and the last few by other code, and numpy gives one
    column to a matrix-vector product."""
    group = (1, 4, 2, 4)[width % 4]  # items to a multiple of four columns
    step = items if items * item_bytes <= 2 * _BLOCK_BYTES else max(_BLOCK_BYTES // item_bytes // group, 1) * group
    edges = list(range(0, max(items - (width == 1), 1), step)) + [items]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


# The largest spanning basis completed: a complex one at n = 6, 4^6 x 4^6
# entries of 16 bytes.  Any basis at n = 7 takes 2 GiB or more.
MAX_BASIS_BYTES = 1 << 28
# Output bytes per thread of the completion (BENCH_27.json): every basis up
# to n = 5 (at most 17 MB) stays in the calling thread, where two threads
# were slower; a real n = 6 one (134 MB) may take four.
_THREAD_BYTES = 32 << 20
# Bytes of a union's direct grid, 8 * 4^n * (2K)^2, from which
# unions._cross_check builds it in a thread of its own beside the pipeline
# (BENCH_29.json has the per-(n, K) table behind the cut).  Whether that
# pays depends on the load of the other CPU: in-process the caller-only
# check was at most 4% slower than the threaded one, but in theorem runs
# where the worker overlapped the direct side it made op_p90_ms 40% worse
# (BENCH_33.json, BENCH_39.json).
_BESIDE_BYTES = 1 << 19


def _cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _beside(own: Callable, tasks: Sequence[Callable]) -> tuple:
    """own() here while each task runs in a thread of this call: (own's result, [the tasks' results]).

    The threads are the standard library's ThreadPoolExecutor, scoped to the
    call: every task ends and its thread is joined before this returns or
    raises, so no thread outlives the call.  The caller's own error wins;
    otherwise the first failed task's error is re-raised.  Once the
    interpreter has begun to exit (in a thread that outlives the main one,
    or an atexit handler) the executor refuses work, and the tasks it
    refused run here after own(), in order.
    """
    futures = []
    with ThreadPoolExecutor(max(len(tasks), 1), "qerasure-worker") as pool:
        try:
            for task in tasks:
                futures.append(pool.submit(task))
        except RuntimeError:  # cannot schedule new futures after interpreter shutdown
            pass
        mine = own()
    return mine, [future.result() for future in futures] + [task() for task in tasks[len(futures):]]


# The byte buffer behind the last completion of 2 _THREAD_BYTES or more,
# under one key, so that a call takes it with one atomic dict.pop.
_kept: dict[str, np.ndarray] = {}


def _holders(a: np.ndarray) -> int:
    """References to a, as a function that holds a in one local variable sees them."""
    return sys.getrefcount(a)


def _alone() -> int:
    a = np.empty(0, dtype=np.uint8)
    return _holders(a)


# The count _holders gives for an array that only its caller's local holds;
# any view of a buffer adds one, since its base is the buffer itself.
_ALONE = _alone()


def _complete_orthonormal(part: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the given columns.

    The Householder QR of part is Q = H_1 ... H_k = I - V T V^H in compact-WY
    form (Schreiber and Van Loan, "A storage-efficient WY representation for
    products of Householder transformations", SIAM J. Sci. Stat. Comput. 10,
    1989): V is the unit lower-trapezoidal (dim, k) array of reflectors from
    the raw QR, and T the k x k upper triangle of _wy_triangle.  The last
    dim - k columns of Q, the ones a complete QR returns, are
    I[:, k:] + V @ M with M = -T V[k:]^H: a rank-k product, with the sign
    folded into the k x k factor T, so Q itself is never formed.

    One GEMM into a fresh array makes two passes over it: BLAS zeroes C for
    beta = 0, then accumulates into it.  Written one row block at a time, each
    block of about _BLOCK_BYTES stays in cache from the product to the ones
    of the shifted diagonal, so the output is written once (Goto and van de
    Geijn, "Anatomy of high-performance matrix multiplication", ACM TOMS 34,
    2008).  Every block repacks all of M, k rows against the block's rows, so
    a complement of more columns than half a block's rows takes blocks of 2k
    rows: at n = 6 on two CPUs a real k = 8 completion took 18 against 37 ms
    for one product (BENCH_29.json), and at n = 5 a real k = 35 one 1.78
    against 1.73 ms (BENCH_43.json), so one rule serves every size.
    Contiguous ranges of blocks go to min(CPUs, output bytes //
    _THREAD_BYTES, blocks) threads, the caller and threads started and
    joined by this call (_beside), each zeroing the fresh pages it faults
    in; each block is the same product, so the array is bitwise the same.

    An output of 2 _THREAD_BYTES or more is a view of a byte buffer that
    stays in _kept after the call.  glibc maps every block above its 32 MiB
    mmap ceiling on its own and unmaps it when it is freed, so each fresh
    n = 6 basis faults in its pages again, and the kernel zeroes each one:
    on a 2-CPU Xeon VM, an n = 6 tour operation took 22-28 ms, 18-21 of them
    system time for 554 minor faults, and 13 ms with 2 faults and no system
    time when written into pages the process held (BENCH_42.json).  The
    next such output is written into the kept buffer when it is large
    enough and no array refers to it any more: every view's base is the
    buffer, so its reference count is then the one _ALONE measures.
    Otherwise a fresh buffer is written and kept in its place.  The product
    and the shifted ones write every entry, so the array is bitwise the
    fresh one.  Two calls at once never share it: one takes it out of
    _kept, and the other finds none.  Once its last view is gone, the
    process keeps the one buffer mapped: 134 MB after a real n = 6 basis,
    268 MB after a complex one.
    """
    dim, k = part.shape
    h, tau = np.linalg.qr(part, mode="raw")  # h is the (k, dim) transpose
    v = np.tril(h.T, -1)
    np.fill_diagonal(v, 1)
    m = -_wy_triangle(v.conj().T @ v, tau) @ v[k:].conj().T
    size = dim * (dim - k) * m.itemsize
    keep = size >= 2 * _THREAD_BYTES
    buffer = _kept.pop("basis", None) if keep else None  # one atomic take: no other call holds it
    if buffer is None or buffer.nbytes < size or _holders(buffer) != _ALONE:
        buffer = np.empty(size, dtype=np.uint8)
    out = buffer[:size].view(m.dtype).reshape(dim, dim - k)
    rows = max(_BLOCK_BYTES // (out.itemsize * max(dim - k, 1)), 2 * k, 1)
    ones = out.reshape(-1)[k * (dim - k)::dim - k + 1]  # entry (k + j, j)
    blocks = -(-dim // rows)

    def fill(start: int, stop: int) -> None:
        for r in range(start, stop, rows):
            np.matmul(v[r:r + rows], m, out=out[r:r + rows])
            ones[max(r - k, 0):r + rows - k] += 1

    workers = max(min(_cpus(), out.nbytes // _THREAD_BYTES, blocks), 1)
    edges = [min(rows * (blocks * i // workers), dim) for i in range(workers + 1)]
    _beside(partial(fill, 0, edges[1]), [partial(fill, a, b) for a, b in zip(edges[1:], edges[2:])])
    if keep:
        _kept["basis"] = buffer
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
        """The spanning basis, (4^n, dim); a basis beyond MAX_BASIS_BYTES raises ValueError."""
        if self._basis is None:
            size = self.total_dim * self.dim * self.complement.itemsize
            if size > MAX_BASIS_BYTES:
                raise ValueError(f"n={self.n}, dim={self.dim} needs a {size >> 20} MiB spanning "
                                 f"basis; the limit is {MAX_BASIS_BYTES >> 20} MiB")
            self._basis = _complete_orthonormal(self.complement)
            self._basis.flags.writeable = False
        return self._basis

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

    def __repr__(self) -> str:
        return f"OperatorSubspace(n={self.n}, dim={self.dim})"


def _residual_norm(inner: np.ndarray, outer: np.ndarray) -> float:
    """Spectral norm of the explicit residual r = outer - inner (inner^H outer).

    inner has orthonormal columns.  The norm is read from the largest
    eigenvalue of the small Gram r^H r, whose eigenvalues are the squared
    singular values of r.  Formed from an explicit r, that eigenvalue is
    accurate to relative roundoff, so even a norm near 1e-16 keeps its
    digits; it costs about half a singular value decomposition of r.
    """
    r = outer - inner @ (inner.conj().T @ outer)
    if r.shape[1] == 0:
        return 0.0
    return float(np.sqrt(max(np.linalg.eigvalsh(r.conj().T @ r)[-1], 0.0)))


def containment_residual(inner: OperatorSubspace, outer: OperatorSubspace) -> float:
    """Sine of the largest principal angle obstructing inner <= outer.

    Zero (up to roundoff) exactly when every inner vector lies in outer.
    Computed from the complements, since inner <= outer is equivalent to
    complement(outer) <= complement(inner): the spectral norm of the
    explicit residual of the outer complement co against the inner one ci
    (_residual_norm).  The explicit residual keeps roundoff-level answers
    near 1e-16 on equal spaces, where 1 - sigma_min(ci^H co)^2 would cancel
    to about 1e-8.  The union cross-check reads its residuals the same way,
    projecting the other way round, one Hilbert-Schmidt block at a time
    (unions._cross_check).
    """
    if inner.n != outer.n:
        raise ValueError("subspaces live on different qubit counts")
    if inner.dim == 0:
        return 0.0
    return _residual_norm(inner.complement, outer.complement)


def equality_residual(a: OperatorSubspace, b: OperatorSubspace) -> float:
    """Max of the two containment residuals; near zero iff the spaces agree.

    For projectors of equal rank, |(I - P_b) P_a| = |(I - P_a) P_b| (both are
    the sine of the largest principal angle), so equal dimensions need one.
    """
    if a.dim == b.dim:
        return containment_residual(a, b)
    return max(containment_residual(a, b), containment_residual(b, a))
