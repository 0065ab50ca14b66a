import hashlib
import re
import sys
import threading
import time

import numpy as np
import pytest
import scipy.linalg

from qerasure import (
    OperatorSubspace,
    containment_residual,
    coords_to_matrices,
    enumerate_paulis,
    equality_residual,
    matrices_to_coords,
    operator_weight,
    pauli_coords,
    pauli_from_string,
    pauli_index,
    pauli_to_string,
    to_matrix,
)
from qerasure import operator_space
from qerasure.operator_space import _complete_orthonormal, _pauli_table
from qerasure.pauli import PauliOperator, _pauli_masks, _reverse_bits

from _oracle import dense_pauli, gram, sorted_paulis
from _svd_route import (
    intersect,
    basis_containment_residual,
    basis_member_residual,
    from_span,
    largest_singular_value_svd,
    wide_nullspace_complement,
)
from conftest import assert_orthonormal, random_code, random_unitary, set_cpus


def span_of(labels, n):
    vecs = np.column_stack([pauli_coords(pauli_from_string(s)) for s in labels])
    return from_span(n, vecs)


def test_pauli_order_matches_oracle():
    for n in (1, 2, 3):
        assert [pauli_to_string(p) for p in enumerate_paulis(n, n)] == sorted_paulis(n)
    for n in (1, 2, 3, 4):
        assert all(pauli_index(p) == i for i, p in enumerate(enumerate_paulis(n, n)))
    for n in range(1, 7):
        assert _pauli_table(n).labels.tolist() == [
            pauli_to_string(p) for p in enumerate_paulis(n, n)]


def test_pauli_table_masks_match_the_operators():
    # the table's masks against the operators' own, and both against a plain
    # sort of every mask pair by (weight, x, z) and a bit reversal by string
    for n in range(1, 7):
        t = _pauli_table(n)
        ops = enumerate_paulis(n, n)
        assert np.column_stack([t.x, t.z]).tolist() == [
            [_reverse_bits(p.x_mask, n), _reverse_bits(p.z_mask, n)] for p in ops]
        keys = sorted(((x | z).bit_count(), x, z) for x in range(1 << n) for z in range(1 << n))
        assert [(p.x_mask, p.z_mask) for p in ops] == [(x, z) for _, x, z in keys]
        flip = [int(format(m, f"0{n}b")[::-1], 2) for m in range(1 << n)]
        assert t.x.tolist() == [flip[x] for _, x, _ in keys]
        assert t.z.tolist() == [flip[z] for _, _, z in keys]


def test_pauli_table_builds_no_operator_objects(monkeypatch):
    made = []
    init = PauliOperator.__init__

    def counted(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PauliOperator, "__init__", counted)
    _pauli_masks.cache_clear()
    for n in range(1, 7):
        _pauli_table.__wrapped__(n)  # a fresh build, past the cache
    assert made == []
    enumerate_paulis(2, 2)  # the counter sees objects where they are made
    assert len(made) == 16


def test_coords_dense_round_trip_all_paulis():
    for n in (1, 2, 3):
        for p in enumerate_paulis(n, n):
            dm = to_matrix(p)
            assert np.allclose(coords_to_matrices(pauli_coords(p), n)[:, :, 0], dm, atol=1e-12)
            assert np.allclose(matrices_to_coords(dm, n), pauli_coords(p), atol=1e-12)


def test_coords_dense_round_trip_random(rng):
    n = 3
    v = rng.standard_normal(4**n) + 1j * rng.standard_normal(4**n)
    assert np.allclose(matrices_to_coords(coords_to_matrices(v, n)[:, :, 0], n), v, atol=1e-10)
    # oracle route: expand the vector as an explicit Pauli sum
    dense = sum(c * dense_pauli(s) for c, s in zip(v, sorted_paulis(n)))
    assert np.allclose(coords_to_matrices(v, n)[:, :, 0], dense, atol=1e-10)


def test_pauli_gram_kernel_matches_oracle(rng):
    from qerasure.operator_space import _pauli_grams

    for n, k in ((1, 1), (2, 3), (3, 2), (4, 4)):
        mat = random_code(rng, n, k).basis
        dense = np.array([gram(mat, dense_pauli(s)) for s in sorted_paulis(n)])
        assert np.max(np.abs(_pauli_grams(mat, mat, n) - dense)) < 1e-12


@pytest.mark.parametrize("n, left, right", [(1, 1, 1), (2, 1, 3), (3, 3, 2), (4, 2, 6), (5, 8, 8)])
def test_rectangular_pauli_grams_are_blocks_of_the_square_tensor(rng, n, left, right):
    # <l_i|sigma|r_j> against the dense oracle, and bit for bit the (l, r)
    # block of the square tensor of [l | r]: the Hadamard product computes
    # each (i, j) column alone, which the union cross-check relies on
    from qerasure.operator_space import _pauli_grams

    frame = random_unitary(rng, 1 << n)[:, :left + right]
    l, r = frame[:, :left], frame[:, left:]
    out = _pauli_grams(l, r, n)
    assert out.shape == (4**n, left, right)
    if n <= 4:
        dense = np.array([l.conj().T @ dense_pauli(s) @ r for s in sorted_paulis(n)])
        assert np.max(np.abs(out - dense)) < 1e-12
    square = _pauli_grams(frame, frame, n)
    assert out.tobytes() == np.ascontiguousarray(square[:, :left, left:]).tobytes()
    assert _pauli_grams(r, frame, n).tobytes() == np.ascontiguousarray(square[:, left:]).tobytes()


def test_pauli_gram_kernel_phase_in_place(rng):
    # the phase multiplies the gathered transform in place: the same products,
    # bit for bit, as the out-of-place form, with half the peak memory
    import tracemalloc

    from qerasure.operator_space import _hadamard, _pauli_grams, _slots

    for n, k in ((1, 1), (3, 2), (4, 4), (5, 8)):
        vecs = random_code(rng, n, k).basis
        t = _pauli_table(n)
        b = np.arange(1 << n)
        prod = vecs.conj()[b[:, None] ^ b[None, :], :, None] * vecs[:, None, None, :]
        grams = _hadamard(t, prod).reshape(4**n, k, k)
        expected = t.phase[:, None, None] * grams[_slots(t, n)]
        del prod, grams
        tracemalloc.start()
        try:
            out = _pauli_grams(vecs, vecs, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.view(np.uint64).tobytes() == expected.view(np.uint64).tobytes()
        if n == 5:  # two (4^n, K, K) arrays at most, not four
            assert peak < 2.5 * out.nbytes


def test_coords_batch_shape(rng):
    cols = rng.standard_normal((16, 3)) + 1j * rng.standard_normal((16, 3))
    stack = coords_to_matrices(cols, 2)
    assert stack.shape == (4, 4, 3)
    assert np.allclose(matrices_to_coords(stack, 2), cols, atol=1e-10)


def test_from_constraints_nullspace(rng):
    # a nullspace by its complement, the conjugated row space: the completed
    # basis is the nullspace
    n = 2
    rows = rng.standard_normal((5, 16)) + 1j * rng.standard_normal((5, 16))
    s = OperatorSubspace(n, wide_nullspace_complement(rows))
    assert s.dim == 16 - np.linalg.matrix_rank(rows)
    assert np.max(np.abs(rows @ s.basis)) < 1e-9
    assert_orthonormal(s, 1e-9)
    # complement and basis together form a unitary
    q = np.hstack([s.basis, s.complement])
    assert np.allclose(q.conj().T @ q, np.eye(16), atol=1e-9)


def test_containment_residual_matches_full_svd(rng):
    def orthonormal(dim, k):
        return random_unitary(rng, dim)[:, :k]

    for n, ci, co in ((2, 3, 5), (2, 7, 2), (3, 20, 10), (4, 50, 80), (5, 256, 256)):
        dim = 4**n
        a = OperatorSubspace(n, complement=orthonormal(dim, ci))
        b = OperatorSubspace(n, complement=orthonormal(dim, co))
        # generic principal angles between a and b, small ones between b and
        # two copies of b tilted by 1e-9 and 1e-5
        tilts = [np.linalg.qr(b.complement + t * orthonormal(dim, co))[0] for t in (1e-9, 1e-5)]
        for inner, outer in [(a, b), (b, a)] + [(OperatorSubspace(n, complement=c), b)
                                                for c in tilts]:
            cin, cout = inner.complement, outer.complement
            ref = largest_singular_value_svd(cout - cin @ (cin.conj().T @ cout))
            assert abs(containment_residual(inner, outer) - ref) < 1e-12 * ref
        # the same space under another complement basis: pure roundoff, with
        # no sqrt(eps) floor such as 1 - cos^2 of the principal angles has
        same = OperatorSubspace(n, complement=a.complement @ random_unitary(rng, ci))
        ref = largest_singular_value_svd(
            same.complement - a.complement @ (a.complement.conj().T @ same.complement))
        got = containment_residual(a, same)
        assert abs(got - ref) < 1e-14
        assert got < 1e-14


def test_full_space():
    s = OperatorSubspace(2, np.zeros((16, 0)))
    assert s.dim == 16
    assert s.complement.shape == (16, 0) and s.complement.dtype == np.float64
    assert s.member_residual(pauli_coords(pauli_from_string("XY"))) == 0.0


def test_from_span_drops_dependent_columns(rng):
    v = pauli_coords(pauli_from_string("XI"))
    s = from_span(2, np.column_stack([v, 3 * v]))
    assert s.dim == 1


def test_dtype_follows_the_data(rng):
    # real input stays float64, complex input stays complex; intersect and
    # the completed basis promote only when some input is complex
    n, dim = 2, 16
    real_rows = rng.standard_normal((3, dim))
    a = OperatorSubspace(n, wide_nullspace_complement(real_rows))
    b = OperatorSubspace(n, wide_nullspace_complement(real_rows[:2].astype(int)))
    c = OperatorSubspace(n, wide_nullspace_complement(
        real_rows + 1j * rng.standard_normal((3, dim))))
    assert (a.complement.dtype, b.complement.dtype, c.complement.dtype) == (
        np.float64, np.float64, np.complex128)
    # an integer complement is read as float64, and a complex one kept
    assert OperatorSubspace(n, np.eye(dim, 2, dtype=int)).complement.dtype == np.float64
    assert OperatorSubspace(n, c.complement).complement.dtype == np.complex128
    assert from_span(n, real_rows.T).basis.dtype == np.float64
    assert a.basis.dtype == np.float64
    for parts, dtype in (([a, b], np.float64), ([a, OperatorSubspace(n, np.zeros((dim, 0)))], np.float64),
                         ([a, c], np.complex128)):
        meet = intersect(parts)
        assert meet.complement.dtype == dtype
        assert_orthonormal(meet, 1e-12)
    meet = intersect([a, b])
    complex_meet = intersect([OperatorSubspace(n, complement=s.complement.astype(complex))
                              for s in (a, b)])
    assert complex_meet.complement.dtype == np.complex128
    rank = np.linalg.matrix_rank(np.vstack([real_rows, real_rows[:2].astype(int)]))
    assert meet.dim == complex_meet.dim == dim - rank
    assert equality_residual(meet, complex_meet) < 1e-12


def test_intersect_hand_example():
    a = span_of(["XI", "ZI"], 2)
    b = span_of(["XI", "YI"], 2)
    meet = intersect([a, b])
    assert meet.dim == 1
    assert meet.member_residual(pauli_coords(pauli_from_string("XI"))) < 1e-12


def test_intersect_with_full_and_self(rng):
    s = span_of(["XZ", "YI", "IZ"], 2)
    assert equality_residual(intersect([s, OperatorSubspace(2, np.zeros((16, 0)))]), s) < 1e-12
    assert equality_residual(intersect([s, s]), s) < 1e-12


def test_intersect_membership_probes(rng):
    n = 2
    spaces = [
        OperatorSubspace(n, wide_nullspace_complement(
            rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))))
        for _ in range(3)
    ]
    meet = intersect(spaces)
    for _ in range(20):
        coeff = rng.standard_normal(meet.dim) + 1j * rng.standard_normal(meet.dim)
        probe = meet.basis @ coeff
        assert all(s.member_residual(probe) < 1e-9 for s in spaces)


def test_containment_residual_against_scipy(rng):
    n = 2
    big = from_span(
        n, rng.standard_normal((16, 9)) + 1j * rng.standard_normal((16, 9)))
    small = from_span(n, big.basis[:, :4])
    assert containment_residual(small, big) < 1e-10
    other = from_span(
        n, rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5)))
    angles = scipy.linalg.subspace_angles(other.basis, big.basis)
    assert abs(containment_residual(other, big) - np.sin(np.max(angles))) < 1e-9


def test_containment_complement_route_agrees(rng):
    n = 2
    rows_a = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    rows_b = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
    a = OperatorSubspace(n, wide_nullspace_complement(np.vstack([rows_a, rows_b])))
    b = OperatorSubspace(n, wide_nullspace_complement(rows_b))
    assert containment_residual(a, b) < 1e-9
    assert basis_containment_residual(a, b) < 1e-9
    # the complement route against the basis route on a non-contained pair
    c = OperatorSubspace(n, wide_nullspace_complement(rows_a))
    fast = containment_residual(c, b)
    assert fast > 0.1
    assert abs(fast - basis_containment_residual(c, b)) < 1e-9


def test_equality_residual_of_equal_dims_is_either_containment(rng):
    # equal-rank projectors: |(I - P_b) P_a| = |(I - P_a) P_b|, so one suffices
    n = 2
    for scale in (0.0, 1e-9, 1e-3, 1.0):
        rows = rng.standard_normal((5, 16)) + 1j * rng.standard_normal((5, 16))
        tilt = rng.standard_normal((5, 16)) + 1j * rng.standard_normal((5, 16))
        a = OperatorSubspace(n, wide_nullspace_complement(rows))
        b = OperatorSubspace(n, wide_nullspace_complement(rows + scale * tilt))
        assert a.dim == b.dim == 11
        both = max(containment_residual(a, b), containment_residual(b, a))
        assert abs(equality_residual(a, b) - both) < 1e-12
        # and against the basis route, which reads each direction separately
        oracle = max(basis_containment_residual(a, b), basis_containment_residual(b, a))
        assert abs(equality_residual(a, b) - oracle) < 1e-12


def assert_completes(part, rest, tol=1e-13):
    """rest is the complete QR's completion of part: orthonormal, orthogonal to part."""
    dim, k = part.shape
    assert rest.shape == (dim, dim - k)
    assert np.max(np.abs(rest - np.linalg.qr(part, mode="complete")[0][:, k:]), initial=0) < tol
    assert np.max(np.abs(rest.conj().T @ rest - np.eye(dim - k)), initial=0) < tol
    assert np.max(np.abs(part.conj().T @ rest), initial=0) < tol


def random_part(rng, dim, k, dtype):
    """k random orthonormal columns of the given dtype."""
    raw = rng.standard_normal((dim, k)).astype(dtype)
    if dtype is complex:
        raw += 1j * rng.standard_normal((dim, k))
    return np.linalg.qr(raw)[0]


@pytest.mark.parametrize("n", [1, 2, 4, 5])
@pytest.mark.parametrize("dtype", [float, complex])
def test_complete_orthonormal_matches_complete_qr(rng, n, dtype):
    # at n = 5, k = 3 completes in row blocks, k = 15 too when real, and
    # k = 35 in one product; k = dim leaves no column to size a block by
    dim = 4**n
    for k in (3, 15, 35) if n == 5 else (0, 1, dim - 1, dim):
        part = random_part(rng, dim, k, dtype)
        rest = _complete_orthonormal(part)
        assert rest.dtype == part.dtype and rest.flags.c_contiguous
        assert_completes(part, rest)


@pytest.mark.parametrize("rows", [1, 5, 7])
@pytest.mark.parametrize("dtype", [float, complex])
def test_complete_orthonormal_in_blocks_of_any_height(rng, monkeypatch, rows, dtype):
    # 64 rows in blocks of 5 or 7 end in a short block; every k up to half a
    # block keeps the blocks, and the ones of the shifted diagonal start in
    # the first
    dim = 64
    calls, matmul = [], np.matmul

    def counted(a, b, out):
        calls.append(a.shape[0])
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", counted)
    for k in range(rows // 2 + 1):
        monkeypatch.setattr(operator_space, "_BLOCK_BYTES", rows * np.dtype(dtype).itemsize * (dim - k))
        part = random_part(rng, dim, k, dtype)
        calls.clear()
        rest = _complete_orthonormal(part)
        assert sum(calls) == dim and len(calls) == -(-dim // rows)
        assert_completes(part, rest)


def block_row(out):
    """First row of a block that np.matmul writes into a row slice of the output."""
    return (out.ctypes.data - out.base.ctypes.data) // out.strides[0]


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
@pytest.mark.parametrize("n, rows", [(4, 7), (5, None)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_complete_orthonormal_in_ranges_is_bitwise_one_range(rng, monkeypatch, fresh_pool, cpus, n, rows, dtype):
    # with _THREAD_BYTES lowered to one byte every complement of several
    # blocks splits into min(cpus, blocks) ranges: 256 rows in blocks of 7
    # (37 blocks, the last short) and 1024 rows in the default blocks (32 or
    # 64 of them), neither a multiple of 3; k = 35 at n = 5, wider than half
    # a block, takes blocks of 70 rows.  The caller fills the first range and
    # the pool's cpus - 1 workers the others; the first split starts them,
    # and no later one starts a thread
    dim = 4**n
    calls, matmul, caller = [], np.matmul, threading.get_ident()
    threads = threading.active_count()

    def counted(a, b, out):
        calls.append((block_row(out), a.shape[0], threading.get_ident()))
        return matmul(a, b, out=out)

    for k in (0, 3) if n == 4 else (0, 3, 35):
        part = random_part(rng, dim, k, dtype)
        if rows is not None:
            monkeypatch.setattr(operator_space, "_BLOCK_BYTES", rows * np.dtype(dtype).itemsize * (dim - k))
        monkeypatch.setattr(operator_space, "_THREAD_BYTES", 1)
        set_cpus(monkeypatch, 1)
        one = _complete_orthonormal(part)
        set_cpus(monkeypatch, cpus)
        monkeypatch.setattr(np, "matmul", counted)
        calls.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often: a lost write would show
        try:
            split = _complete_orthonormal(part)
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(np, "matmul", matmul)
        assert split.dtype == one.dtype and split.tobytes() == one.tobytes()
        starts = sorted(r for r, _, _ in calls)  # every block once, at its one-range rows
        height = starts[1]
        assert starts == list(range(0, dim, height)) and sum(h for _, h, _ in calls) == dim
        assert (height == 2 * k) == (k == 35)
        assert all(t == caller for r, _, t in calls if r == 0)
        off_caller = {t for _, _, t in calls} - {caller}
        workers = {w.ident for w in operator_space._pool.workers} if cpus > 1 else set()
        assert off_caller <= workers and bool(off_caller) == (cpus > 1)
        assert threading.active_count() == threads + cpus - 1


def test_a_failed_range_leaves_no_basis_and_no_thread(rng, monkeypatch, fresh_pool):
    # 256 rows in blocks of 16 over two CPUs: the caller fills rows 0-127 and
    # the pool's one worker rows 128-255.  A block of either range raises
    # while the other range takes 50 ms: the error reaches .basis only once
    # the other range is done, .basis caches nothing, no thread starts, and
    # a retry completes
    dim, k, rows = 256, 3, 16
    part = random_part(rng, dim, k, float)
    set_cpus(monkeypatch, 1)
    monkeypatch.setattr(operator_space, "_BLOCK_BYTES", rows * 8 * (dim - k))
    one = _complete_orthonormal(part)
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(operator_space, "_THREAD_BYTES", 1)
    matmul, s = np.matmul, OperatorSubspace(4, part)
    s.basis  # starts the pool's one worker
    s._basis = None
    threads = threading.active_count()
    for failing in (0, dim // 2):
        written = []

        def flaky(a, b, out):
            row = block_row(out)
            if row == failing:
                raise MemoryError(f"block {row}")
            if row == dim // 2 - failing:
                time.sleep(0.05)
            written.append(row)
            return matmul(a, b, out=out)

        monkeypatch.setattr(np, "matmul", flaky)
        with pytest.raises(MemoryError, match=f"block {failing}"):
            s.basis
        assert s._basis is None and threading.active_count() == threads
        other = range(dim // 2 - failing, dim - failing, rows)  # the range that did not fail
        assert set(other) <= set(written)
    monkeypatch.setattr(np, "matmul", matmul)
    assert s.basis.tobytes() == one.tobytes() and not s.basis.flags.writeable
    assert threading.active_count() == threads


def test_wide_complements_at_n6_fill_blocks_of_2k_rows_in_ranges(rng, monkeypatch, fresh_pool):
    # a real n = 6 complement of k = 8 columns is wider than half the cache
    # block (8 rows) but its 134 MB output splits: blocks of 16 rows, in one
    # range per CPU, bitwise the one-range fill and orthonormal off the
    # complement.  At n = 5 an output below the thread rule keeps the single
    # product for k = 35
    calls, matmul = [], np.matmul

    def counted(a, b, out):
        calls.append(a.shape[0])
        return matmul(a, b, out=out)

    monkeypatch.setattr(np, "matmul", counted)
    part = random_part(rng, 1024, 35, float)
    assert_completes(part, _complete_orthonormal(part))
    assert calls == [1024]
    part = random_part(rng, 4096, 8, float)
    digests = []
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        calls.clear()
        rest = None  # one 134 MB basis alive at a time
        rest = _complete_orthonormal(part)
        assert calls == [16] * 256
        digests.append(hashlib.sha256(rest.data).hexdigest())
    assert digests[0] == digests[1]
    cols = rest[:, ::97]
    assert np.max(np.abs(cols.T @ cols - np.eye(cols.shape[1]))) < 1e-12
    assert np.max(np.abs(part.T @ rest)) < 1e-12


def test_member_residual_routes_agree(rng):
    for n in (2, 4):
        dim = 4**n
        rows = rng.standard_normal((6, dim)) + 1j * rng.standard_normal((6, dim))
        s = OperatorSubspace(n, wide_nullspace_complement(rows))
        by_span = from_span(n, s.basis)
        for _ in range(10):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            assert abs(s.member_residual(v) - basis_member_residual(s.basis, v)) < 1e-10
            assert abs(by_span.member_residual(v) - s.member_residual(v)) < 1e-10
        # both completion directions: complement -> basis, and from_span's
        # span -> complement, from the left singular vectors of its columns
        assert_completes(s.complement, s.basis)
        assert_completes(np.linalg.svd(s.basis, full_matrices=False)[0], by_span.complement)


def test_operator_weight():
    assert operator_weight(pauli_coords(pauli_from_string("IZIXX")), 5) == 3
    v = pauli_coords(pauli_from_string("XIII")) + 0.5 * pauli_coords(pauli_from_string("IIIZ"))
    assert operator_weight(v, 4) == 2
    assert operator_weight(np.zeros(16), 2) == 0


@pytest.mark.parametrize("call, expected", [
    (lambda: operator_weight(np.ones(3), 2), "expected (16,)"),
    (lambda: matrices_to_coords(np.eye(3), 2), "expected (4, 4) or (4, 4, k)"),
    (lambda: coords_to_matrices(np.ones(5), 1), "expected (4,) or (4, k)"),
    (lambda: OperatorSubspace(1, np.ones((4, 2, 1))), "expected (4,) or (4, k)"),
], ids=["operator_weight", "matrices_to_coords", "coords_to_matrices", "OperatorSubspace"])
def test_coordinate_maps_refuse_a_wrong_shape(call, expected):
    with pytest.raises(ValueError, match=re.escape(expected)):
        call()


def test_subspace_requires_some_part():
    # the complement is the one required part, with one row per coordinate
    with pytest.raises(TypeError):
        OperatorSubspace(2)
    for wrong in (np.zeros((15, 1)), np.zeros(17), np.zeros((64, 2), dtype=complex)):
        with pytest.raises(ValueError):
            OperatorSubspace(2, complement=wrong)
