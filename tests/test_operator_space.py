import numpy as np
import pytest
import scipy.linalg

from qerasure import (
    OperatorSubspace,
    containment_residual,
    coords_to_matrix,
    coords_to_matrices,
    enumerate_paulis,
    equality_residual,
    intersect,
    matrices_to_coords,
    operator_weight,
    pauli_coords,
    pauli_from_string,
    pauli_index,
    pauli_to_string,
    to_matrix,
)
from qerasure.operator_space import _complete_orthonormal, _pauli_table, map_subspace
from qerasure.pauli import PauliOperator, _index_aligned_masks, _pauli_masks

from _oracle import dense_pauli, gram, sorted_paulis
from _svd_route import (
    basis_containment_residual,
    basis_member_residual,
    largest_singular_value_svd,
    wide_nullspace_complement,
)
from conftest import random_code, random_unitary


def span_of(labels, n):
    vecs = np.column_stack([pauli_coords(pauli_from_string(s)) for s in labels])
    return OperatorSubspace.from_span(n, vecs)


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
            list(_index_aligned_masks(p)) for p in ops]
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
            assert np.allclose(coords_to_matrix(pauli_coords(p), n), dm, atol=1e-12)
            assert np.allclose(matrices_to_coords(dm, n), pauli_coords(p), atol=1e-12)


def test_coords_dense_round_trip_random(rng):
    n = 3
    v = rng.standard_normal(4**n) + 1j * rng.standard_normal(4**n)
    assert np.allclose(matrices_to_coords(coords_to_matrix(v, n), n), v, atol=1e-10)
    # oracle route: expand the vector as an explicit Pauli sum
    dense = sum(c * dense_pauli(s) for c, s in zip(v, sorted_paulis(n)))
    assert np.allclose(coords_to_matrix(v, n), dense, atol=1e-10)


def test_pauli_gram_kernel_matches_oracle(rng):
    from qerasure.codes import basis_matrix
    from qerasure.operator_space import _pauli_grams

    for n, k in ((1, 1), (2, 3), (3, 2), (4, 4)):
        mat = basis_matrix(random_code(rng, n, k))
        dense = np.array([gram(mat, dense_pauli(s)) for s in sorted_paulis(n)])
        assert np.max(np.abs(_pauli_grams(mat, n) - dense)) < 1e-12


def test_pauli_gram_kernel_phase_in_place(rng):
    # the phase multiplies the gathered transform in place: the same products,
    # bit for bit, as the out-of-place form, with half the peak memory
    import tracemalloc

    from qerasure.codes import basis_matrix
    from qerasure.operator_space import _hadamard, _pauli_grams, _slots

    for n, k in ((1, 1), (3, 2), (4, 4), (5, 8)):
        vecs = basis_matrix(random_code(rng, n, k))
        t = _pauli_table(n)
        b = np.arange(1 << n)
        prod = vecs.conj()[b[:, None] ^ b[None, :], :, None] * vecs[:, None, None, :]
        grams = _hadamard(t, prod).reshape(4**n, k, k)
        expected = t.phase[:, None, None] * grams[_slots(t, n)]
        del prod, grams
        tracemalloc.start()
        try:
            out = _pauli_grams(vecs, n)
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
    n = 2
    rows = rng.standard_normal((5, 16)) + 1j * rng.standard_normal((5, 16))
    s = OperatorSubspace.from_constraints(n, rows)
    assert s.dim == 16 - np.linalg.matrix_rank(rows)
    assert np.max(np.abs(rows @ s.basis)) < 1e-9
    s.validate()
    # complement and basis together form a unitary
    q = np.hstack([s.basis, s.complement])
    assert np.allclose(q.conj().T @ q, np.eye(16), atol=1e-9)


def test_from_constraints_handles_dependent_rows(rng):
    n = 2
    row = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    s = OperatorSubspace.from_constraints(n, np.vstack([row, 2 * row, 1j * row]))
    assert s.dim == 15


def projector(cols):
    return cols @ cols.conj().T


def assert_matches_wide_svd(n, rows, tol=1e-12):
    """from_constraints (tall SVD of rows^T) against the SVD of the wide rows."""
    tall = OperatorSubspace.from_constraints(n, rows).complement
    wide = wide_nullspace_complement(rows)
    assert tall.shape == wide.shape
    assert np.max(np.abs(projector(tall) - projector(wide)), initial=0) < tol
    return tall, wide


def test_from_constraints_matches_wide_svd(rng):
    for n, r in ((1, 2), (2, 5), (3, 40), (4, 100), (5, 256)):
        rows = rng.standard_normal((r, 4**n)) + 1j * rng.standard_normal((r, 4**n))
        assert_matches_wide_svd(n, rows)
    row = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    tall, _ = assert_matches_wide_svd(2, np.vstack([row, 2 * row, 1j * row]))
    assert tall.shape[1] == 1


def test_from_constraints_matches_wide_svd_on_graded_rows(rng):
    # singular values 1e-6 (kept) and 1e-10 (cut) times the largest, either
    # side of RANK_RTOL.  A backward-stable SVD fixes the kept subspace only
    # to about eps / 1e-6 (Wedin's theorem: backward error over the gap at
    # the cut), so that is the bound for either route, against the exact
    # complement and against each other.
    tol = np.finfo(float).eps / 1e-6
    for n, r in ((2, 6), (3, 12), (4, 40)):
        s = rng.uniform(0.5, 2.0, r)
        s[1], s[2] = 1e-6 * s.max(), 1e-10 * s.max()
        right = random_unitary(rng, 4**n)[:, :r]
        rows = (random_unitary(rng, r) * s) @ right.conj().T
        exact = projector(np.delete(right, 2, axis=1))
        for cols in assert_matches_wide_svd(n, rows, tol):
            assert cols.shape[1] == r - 1
            assert np.max(np.abs(projector(cols) - exact)) < tol


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
    s = OperatorSubspace.full(2)
    assert s.dim == 16
    assert s.complement.shape == (16, 0) and s.complement.dtype == np.float64
    assert s.member_residual(pauli_coords(pauli_from_string("XY"))) == 0.0


def test_empty_constraints_give_full_space():
    s = OperatorSubspace.from_constraints(2, np.zeros((0, 16)))
    assert s.dim == 16


def test_from_span_drops_dependent_columns(rng):
    v = pauli_coords(pauli_from_string("XI"))
    s = OperatorSubspace.from_span(2, np.column_stack([v, 3 * v]))
    assert s.dim == 1


def test_dtype_follows_the_data(rng):
    # real input stays float64, complex input stays complex; intersect and
    # the completed basis promote only when some input is complex
    n, dim = 2, 16
    real_rows = rng.standard_normal((3, dim))
    a = OperatorSubspace.from_constraints(n, real_rows)
    b = OperatorSubspace.from_constraints(n, real_rows[:2].astype(int))
    c = OperatorSubspace.from_constraints(n, real_rows + 1j * rng.standard_normal((3, dim)))
    assert (a.complement.dtype, b.complement.dtype, c.complement.dtype) == (
        np.float64, np.float64, np.complex128)
    assert OperatorSubspace.from_span(n, real_rows.T).basis.dtype == np.float64
    assert a.basis.dtype == np.float64
    for parts, dtype in (([a, b], np.float64), ([a, OperatorSubspace.full(n)], np.float64),
                         ([a, c], np.complex128)):
        meet = intersect(parts)
        assert meet.complement.dtype == dtype
        meet.validate(1e-12)
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
    assert equality_residual(intersect([s, OperatorSubspace.full(2)]), s) < 1e-12
    assert equality_residual(intersect([s, s]), s) < 1e-12


def test_intersect_membership_probes(rng):
    n = 2
    spaces = [
        OperatorSubspace.from_constraints(
            n, rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16)))
        for _ in range(3)
    ]
    meet = intersect(spaces)
    for _ in range(20):
        coeff = rng.standard_normal(meet.dim) + 1j * rng.standard_normal(meet.dim)
        probe = meet.basis @ coeff
        assert all(s.member_residual(probe) < 1e-9 for s in spaces)


def test_containment_residual_against_scipy(rng):
    n = 2
    big = OperatorSubspace.from_span(
        n, rng.standard_normal((16, 9)) + 1j * rng.standard_normal((16, 9)))
    small = OperatorSubspace.from_span(n, big.basis[:, :4])
    assert containment_residual(small, big) < 1e-10
    other = OperatorSubspace.from_span(
        n, rng.standard_normal((16, 5)) + 1j * rng.standard_normal((16, 5)))
    angles = scipy.linalg.subspace_angles(other.basis, big.basis)
    assert abs(containment_residual(other, big) - np.sin(np.max(angles))) < 1e-9


def test_containment_complement_route_agrees(rng):
    n = 2
    rows_a = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    rows_b = rng.standard_normal((2, 16)) + 1j * rng.standard_normal((2, 16))
    a = OperatorSubspace.from_constraints(n, np.vstack([rows_a, rows_b]))
    b = OperatorSubspace.from_constraints(n, rows_b)
    assert containment_residual(a, b) < 1e-9
    assert basis_containment_residual(a, b) < 1e-9
    # the complement route against the basis route on a non-contained pair
    c = OperatorSubspace.from_constraints(n, rows_a)
    fast = containment_residual(c, b)
    assert fast > 0.1
    assert abs(fast - basis_containment_residual(c, b)) < 1e-9


def test_equality_residual_of_equal_dims_is_either_containment(rng):
    # equal-rank projectors: |(I - P_b) P_a| = |(I - P_a) P_b|, so one suffices
    n = 2
    for scale in (0.0, 1e-9, 1e-3, 1.0):
        rows = rng.standard_normal((5, 16)) + 1j * rng.standard_normal((5, 16))
        tilt = rng.standard_normal((5, 16)) + 1j * rng.standard_normal((5, 16))
        a = OperatorSubspace.from_constraints(n, rows)
        b = OperatorSubspace.from_constraints(n, rows + scale * tilt)
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


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("dtype", [float, complex])
def test_complete_orthonormal_matches_complete_qr(rng, n, dtype):
    dim = 4**n
    for k in (0, 1, dim - 1, dim):
        raw = rng.standard_normal((dim, k)).astype(dtype)
        if dtype is complex:
            raw += 1j * rng.standard_normal((dim, k))
        part = np.linalg.qr(raw)[0]
        assert_completes(part, _complete_orthonormal(part))


def test_member_residual_routes_agree(rng):
    for n in (2, 4):
        dim = 4**n
        rows = rng.standard_normal((6, dim)) + 1j * rng.standard_normal((6, dim))
        s = OperatorSubspace.from_constraints(n, rows)
        by_span = OperatorSubspace.from_span(n, s.basis)
        for _ in range(10):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            assert abs(s.member_residual(v) - basis_member_residual(s.basis, v)) < 1e-10
            assert abs(by_span.member_residual(v) - s.member_residual(v)) < 1e-10
        # both completion directions: complement -> basis, and from_span's
        # span -> complement, from the left singular vectors of its columns
        assert_completes(s.complement, s.basis)
        assert_completes(np.linalg.svd(s.basis, full_matrices=False)[0], by_span.complement)


def test_map_subspace_preserves_structure(rng):
    n = 2
    s = OperatorSubspace.from_constraints(
        n, rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16)))
    _ = s.basis  # materialize both parts
    phase = np.exp(2j * np.pi * rng.standard_normal())

    def f(cols):
        return phase * cols

    out = map_subspace(s, f)
    out.validate()
    assert out.dim == s.dim
    assert equality_residual(out, s) < 1e-9


def test_operator_weight():
    assert operator_weight(pauli_coords(pauli_from_string("IZIXX")), 5) == 3
    v = pauli_coords(pauli_from_string("XIII")) + 0.5 * pauli_coords(pauli_from_string("IIIZ"))
    assert operator_weight(v, 4) == 2
    assert operator_weight(np.zeros(16), 2) == 0


def test_subspace_requires_some_part():
    # the complement is the one required part, with one row per coordinate
    with pytest.raises(TypeError):
        OperatorSubspace(2)
    for wrong in (np.zeros((15, 1)), np.zeros(17), np.zeros((64, 2), dtype=complex)):
        with pytest.raises(ValueError):
            OperatorSubspace(2, complement=wrong)
