import itertools

import numpy as np
import pytest

from qerasure import (
    OperatorSubspace,
    PauliOperator,
    check_erasure,
    check_pure,
    classify_paulis,
    containment_residual,
    enumerate_paulis,
    equality_residual,
    erasure_space,
    fixture_gbp_code,
    fixture_rains_subcode,
    get_fixture,
    hermitian_basis,
    ingest_code,
    is_degenerate_distance,
    minimum_distance,
    pauli_coords,
    pauli_from_string,
    pauli_to_string,
    pure_distance,
    pure_erasure_space,
    to_matrix,
)
from qerasure.cli import _space_sections
from qerasure.erasure import _scan, annihilating_space
from qerasure.tolerances import MATRIX_ELEMENT_TOL

import _loop_route
from _oracle import (
    all_pauli_letterings,
    dense_pauli,
    erasure_constraint_matrix,
    gram,
    pure_constraint_matrix,
    sorted_paulis,
    svd_rank,
    zero_block_constraint_matrix,
)
from _svd_route import CLOSED_FORMS, from_span
from conftest import assert_orthonormal, random_code


def cyclic_orbit(label):
    out, s = [], label
    for _ in range(len(label)):
        if s not in out:
            out.append(s)
        s = s[-1] + s[:-1]
    return out


# ---------------------------------------------------------------- membership

def test_identity_is_always_member(rng):
    for code in (fixture_gbp_code(), random_code(rng, 3, 3)):
        report = check_erasure(code, pauli_from_string("I" * code.n))
        assert report.member and abs(report.alpha - 1.0) < 1e-9
        assert report.witness is None
        assert check_pure(code, pauli_from_string("I" * code.n)).member


def test_k1_codes_accept_everything(rng):
    code = fixture_rains_subcode()
    for p in enumerate_paulis(5, 2):
        assert check_erasure(code, p).member
    dense = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    assert check_erasure(code, dense).member


def test_union_rejects_weight2_pattern():
    union = get_fixture("rains-union")
    report = check_erasure(union, pauli_from_string("XZIII"))
    assert not report.member
    assert report.witness is not None
    assert report.alpha is None


def test_pure_rejects_listed_weight3():
    code = fixture_rains_subcode()
    for label in ("IIYZY", "IZIXX"):
        for shifted in cyclic_orbit(label):
            assert not check_pure(code, pauli_from_string(shifted)).member


def test_pure_accepts_low_weight_on_rains():
    code = fixture_rains_subcode()
    for p in enumerate_paulis(5, 2):
        assert check_pure(code, p).member


def test_witness_points_at_first_violation():
    union = get_fixture("gbp-union")
    report = check_erasure(union, pauli_from_string("IIIY"))
    i, j, value = report.witness
    assert abs(value) > 1e-9
    # the flagged element really is the violating matrix element
    from qerasure.erasure import _gram_matrix

    gram, _ = _gram_matrix(union, pauli_from_string("IIIY"))
    assert abs(gram[i, j] - value) < 1e-12 or abs((gram[i, i] - gram[0, 0]) - value) < 1e-12


def test_operator_value_forms_agree(rng):
    code = fixture_gbp_code()
    p = pauli_from_string("XZII")
    from qerasure import to_matrix

    as_pauli = check_erasure(code, p)
    as_dense = check_erasure(code, to_matrix(p))
    as_coords = check_erasure(code, pauli_coords(p))
    assert as_pauli.member == as_dense.member == as_coords.member


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_single_check_reads_its_block_by_the_scan_rule(k, rng, monkeypatch):
    # a check searches its one K x K block alone; on planted grams it returns
    # what the scans' _first_violations finds for that block as one row, bit
    # for bit, with violations off the diagonal, on it, in both or in neither
    from qerasure import erasure

    tol, code = MATRIX_ELEMENT_TOL, random_code(rng, 3, k)
    for pure, where in itertools.product((False, True), ("neither", "off", "diagonal", "both")):
        if k == 1 and where != "neither" and not (pure and where == "diagonal"):
            continue  # K = 1 has no off-diagonal entry, and one erasure diagonal always matches
        for _ in range(12):
            a = complex(*rng.normal(size=2))
            gram = a * np.eye(k) + (rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))) * tol / 8
            trace = a + complex(*rng.normal(size=2)) * tol / 8
            if where in ("off", "both"):
                i, j = rng.choice(k, 2, replace=False)
                gram[i, j] = rng.choice([tol, -tol, 1j * tol, 3 * tol, 0.5])
            if where in ("diagonal", "both"):
                i = rng.integers(0 if pure else 1, k)
                gram[i, i] += rng.choice([3, -3j, 1e6]) * tol
            alpha = trace if pure else gram[0, 0]
            monkeypatch.setattr(erasure, "_gram_matrix", lambda code, op: (gram.copy(), trace))
            report = erasure._check(code, None, pure)
            [(p, i, j, dev)] = erasure._first_violations(gram[None], [alpha])
            assert bool(p.size) == (where != "neither") == (not report.member)
            if p.size:
                assert report.witness[:2] == (i[0], j[0])
                assert np.complex128(report.witness[2]).tobytes() == dev[:1].tobytes()
            else:
                expected = trace if pure else np.mean(np.diag(gram))
                assert np.complex128(report.alpha).tobytes() == np.complex128(expected).tobytes()


def test_cached_cross_check_constants_are_read_only_and_exact():
    # _gram_parts' Im mask and _block_sum's (K, K) phase are built once per
    # shape; a write through either would change every later grid
    from qerasure.erasure import _below
    from qerasure.unions import _pair_phase

    for rows, cols, shift in ((1, 1, 0), (3, 3, 0), (2, 4, 2), (4, 8, 4)):
        assert np.array_equal(_below(rows, cols, shift), np.tri(rows, cols, shift - 1, dtype=bool))
    for n, k in ((1, 1), (4, 3), (5, 8)):
        phase = _pair_phase(n, k)
        expected = np.where(np.tri(k, k, -1, dtype=bool), 1j, 1) * np.sqrt(2) * 2.0 ** (-n / 2)
        np.fill_diagonal(expected, (1 + 1j) * 2.0 ** (-n / 2))
        assert phase.tobytes() == expected.tobytes()
    for a in (_below(3, 3, 0), _pair_phase(4, 3)):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = a[0, 0]


def test_membership_dimension_mismatch():
    with pytest.raises(ValueError):
        check_erasure(fixture_gbp_code(), pauli_from_string("XX"))


@pytest.mark.parametrize("shape", [(16, 16, 1), (257,), (8, 8)],
                         ids=["stack", "long-vector", "other-n"])
def test_single_check_names_both_accepted_shapes(shape):
    # a (2^n, 2^n, 1) stack would pass matrices_to_coords alone
    for check in (check_erasure, check_pure):
        with pytest.raises(ValueError, match=r"neither \(16, 16\) nor \(256,\)"):
            check(fixture_gbp_code(), np.ones(shape))


def test_single_checks_share_the_one_gram_tensor(rng, gram_builds):
    code = random_code(rng, 4, 3)
    p = PauliOperator(4, 0b0101, 0b0011, phase=3)
    for op in (p, to_matrix(p), pauli_coords(p)):
        check_erasure(code, op)
        check_pure(code, op)
    assert gram_builds == [(4, 3, 3)]  # the checks built it, and the rest reuse it
    erasure_space(code)
    pure_erasure_space(code)
    classify_paulis(code)
    assert gram_builds == [(4, 3, 3)]


def oracle_report(c, e, pure):
    """(member, (i, j) of the first violation, alpha) from dense matrix elements."""
    g = gram(c, e)
    alpha = np.trace(e) / len(e) if pure else np.mean(np.diag(g))
    required = np.eye(len(g)) * (alpha if pure else g[0, 0])
    bad = np.argwhere(np.abs(g - required) >= 1e-9)
    if len(bad):
        return False, tuple(int(x) for x in bad[0]), None
    return True, None, alpha


def test_every_input_kind_agrees_with_the_dense_conditions(rng):
    """A Pauli in each of its four phases, its dense matrix and its
    coordinates; and dense operators, some inside the erasure or the pure
    space and one with a complex trace, with their coordinates from the
    oracle's traces."""
    for code in (get_fixture("gbp-union"), random_code(rng, 5, 4)):
        n, c = code.n, code.basis
        dim = 1 << n
        off = np.eye(dim) - c @ c.conj().T  # the projector off the code
        a = off @ (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) @ off
        traceless = a - np.trace(a) / (dim - code.k) * off
        labels = sorted_paulis(n)
        paulis = np.array([dense_pauli(s) for s in labels])
        dense = [0.3 * np.eye(dim), a + 0.3 * np.eye(dim), traceless + (0.3 + 0.2j) * np.eye(dim),
                 rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))]
        ops = [(e, e) for e in dense]
        for label in ("I" * n, "X" + "I" * (n - 1), "IZ" + "Y" * (n - 2), labels[7], labels[-1]):
            p = pauli_from_string(label)
            ops += [(PauliOperator(n, p.x_mask, p.z_mask, phase), 1j**phase * dense_pauli(label))
                    for phase in range(4)]
        for op, e in ops:
            coords = np.einsum("sab,ba->s", paulis, e) / dim
            kinds = [e, coords] + ([op] if op is not e else [])
            for pure, check in ((False, check_erasure), (True, check_pure)):
                member, where, alpha = oracle_report(c, e, pure)
                for kind in kinds:
                    report = check(code, kind)
                    assert report.member == member
                    if member:
                        assert abs(report.alpha - alpha) < 1e-12
                    else:
                        assert report.witness[:2] == where


# ------------------------------------------------------------------- spaces

def test_k1_erasure_space_is_full():
    code = fixture_rains_subcode()
    assert erasure_space(code).dim == 4**5


def test_gbp_space_dims_match_rank_oracle():
    code = fixture_gbp_code()
    mat = code.basis
    assert erasure_space(code).dim == 4**4 - svd_rank(erasure_constraint_matrix(mat, 4))
    assert pure_erasure_space(code).dim == 4**4 - svd_rank(pure_constraint_matrix(mat, 4))
    assert annihilating_space(code).dim == 4**4 - svd_rank(zero_block_constraint_matrix(mat, 4))


def test_gbp_space_dims_frozen():
    code = fixture_gbp_code()
    assert erasure_space(code).dim == 241
    assert pure_erasure_space(code).dim == 240
    assert annihilating_space(code).dim == 240


def test_six_qubit_erasure_space_basis(rng):
    es = erasure_space(random_code(rng, 6, 2))
    basis = es.basis
    assert basis.shape == (4096, 4093) and basis.dtype == np.float64  # 134 MB, not 268
    assert basis.flags.c_contiguous and not basis.flags.writeable
    cols = basis[:, rng.choice(4093, size=64, replace=False)]
    assert np.max(np.abs(np.linalg.norm(cols, axis=0) - 1)) < 1e-12
    assert np.max(np.abs(es.complement.conj().T @ cols)) < 1e-12


def test_rains_subcode_pure_dim():
    code = fixture_rains_subcode()
    space = pure_erasure_space(code)
    mat = code.basis
    assert space.dim == 4**5 - svd_rank(pure_constraint_matrix(mat, 5)) == 1023


def test_union_space_dims_frozen():
    union = get_fixture("rains-union")
    assert erasure_space(union).dim == 989   # 4^5 - (36 - 1)
    assert pure_erasure_space(union).dim == 988


def test_closed_form_dims_are_structural(rng):
    for n, k in ((2, 3), (4, 5), (5, 6)):
        code = random_code(rng, n, k)
        dims = tuple(build(code).dim for build, _ in CLOSED_FORMS)
        assert dims == (4**n - k * k + 1, 4**n - k * k, 4**n - k * k)


def test_condition_complement_gives_the_same_bits_in_either_layout(rng):
    # a code's own (4^n, K^2) columns and the entry-major (K, K, 4^n) grid
    # of the same values, whose entry (i, j) is column i*K + j, condition to
    # the same bits, the projector column included; K = 2^n has none
    from qerasure.erasure import _complement_width, _condition_complement, _scaled_columns

    for n, k in ((1, 2), (2, 1), (2, 3), (3, 8), (4, 5), (5, 8), (5, 16)):
        code = random_code(rng, n, k)
        for pure in (False, True):
            cols = _scaled_columns(code)
            grid = np.ascontiguousarray(cols.T).reshape(k, k, -1)
            assert _condition_complement(grid, n, pure) is grid
            want = _condition_complement(cols, n, pure)
            assert want.shape == (4**n, _complement_width(n, k, pure))
            got = grid.reshape(k * k, -1).T[:, :want.shape[1]]
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_full_code_spaces(rng, n):
    # K = 2^n: the projector is the identity, so only scalars survive the
    # erasure and pure conditions and nothing is annihilated
    code = random_code(rng, n, 1 << n)
    ident = np.zeros(4**n, dtype=complex)
    ident[0] = 1.0
    for closed, svd in CLOSED_FORMS:
        space, oracle = closed(code), svd(code)
        assert space.complement.dtype == np.float64
        assert space.dim == oracle.dim
        assert equality_residual(space, oracle) < 1e-12
        assert_orthonormal(space, 1e-12)
    assert (erasure_space(code).dim, pure_erasure_space(code).dim,
            annihilating_space(code).dim) == (1, 1, 0)
    assert pure_erasure_space(code).member_residual(ident) < 1e-12


def test_pure_contained_in_erasure_on_fixtures():
    for name in ("rains-subcode", "rains-union", "gbp", "gbp-union"):
        code = get_fixture(name)
        resid = containment_residual(pure_erasure_space(code), erasure_space(code))
        assert resid < 1e-8


def test_identity_always_in_pure():
    for name in ("gbp", "rains-union"):
        code = get_fixture(name)
        ident = np.zeros(4**code.n, dtype=complex)
        ident[0] = 1.0
        assert pure_erasure_space(code).member_residual(ident) < 1e-10
        assert annihilating_space(code).member_residual(ident) > 0.1


def test_pure_is_identity_plus_traceless_zero_block():
    # swapping the identity for a trace direction maps between the two spaces
    code = fixture_gbp_code()
    ps, zs = pure_erasure_space(code), annihilating_space(code)
    assert ps.dim == zs.dim
    # common part has codimension one in each
    from _svd_route import intersect

    common = intersect([ps, zs])
    assert common.dim == ps.dim - 1
    # every common element is traceless (zero identity coordinate)
    assert np.max(np.abs(common.basis[0, :])) < 1e-9


def test_membership_consistent_with_subspace_projection():
    for name in ("gbp", "rains-union"):
        code = get_fixture(name)
        es = erasure_space(code)
        ps = pure_erasure_space(code)
        for p in enumerate_paulis(code.n, code.n):
            coords = pauli_coords(p)
            assert check_erasure(code, p).member == (es.member_residual(coords) < 1e-8)
            assert check_pure(code, p).member == (ps.member_residual(coords) < 1e-8)


def test_adjoint_closure_of_erasure_space():
    for name in ("gbp", "gbp-union"):
        space = erasure_space(get_fixture(name))
        basis = space.basis
        for col in range(basis.shape[1]):
            assert space.member_residual(np.conj(basis[:, col])) < 1e-8


def test_sum_closure_by_random_combination(rng):
    code = get_fixture("gbp-union")
    es = erasure_space(code)
    members = [pauli_coords(p) for p in enumerate_paulis(4, 1)
               if check_erasure(code, p).member]
    for _ in range(20):
        coeff = rng.standard_normal(len(members)) + 1j * rng.standard_normal(len(members))
        combo = sum(c * m for c, m in zip(coeff, members))
        assert es.member_residual(combo) < 1e-8


# -------------------------------------------------------------- classify

def test_classify_rains_union_weights():
    union = get_fixture("rains-union")
    table = classify_paulis(union, 2)
    assert table[0].members == 1 and table[0].non_members == 0
    assert table[1].members == 15 and table[1].non_members == 0
    assert table[2].non_members == 60
    listed = set()
    for label in ("XZIII", "ZXIII", "ZIYII", "YIZII"):
        listed.update(cyclic_orbit(label))
    assert listed <= set(table[2].violators)


def test_classify_pure_rains_subcode():
    code = fixture_rains_subcode()
    table = classify_paulis(code, 3, pure=True)
    assert table[1].non_members == 0
    assert table[2].non_members == 0
    assert table[3].non_members == 10
    expected = set(cyclic_orbit("IIYZY")) | set(cyclic_orbit("IZIXX"))
    assert set(table[3].violators) == expected
    assert all(w is not None for w in table[3].witnesses)


def test_classify_witnesses_match_single_checks():
    for name in ("rains-subcode", "rains-union", "gbp", "gbp-union"):
        code = get_fixture(name)
        for pure, check in ((False, check_erasure), (True, check_pure)):
            table = classify_paulis(code, pure=pure)
            found = {label: wit for row in table
                     for label, wit in zip(row.violators, row.witnesses)}
            for p in enumerate_paulis(code.n, code.n):
                report = check(code, p)
                assert report.member == (pauli_to_string(p) not in found)
                if not report.member:
                    i, j, value = found[pauli_to_string(p)]
                    assert (i, j) == report.witness[:2]
                    assert abs(value - report.witness[2]) < 1e-12


@pytest.mark.parametrize("source", ["gbp", "gbp-union", "rains-subcode", "rains-union", "random"])
def test_one_pass_sections_match_per_family_scans(source, rng):
    # analyze and distance read both families off one pass; each family alone
    # must come out as the per-family full-table scan and the public tallies have it
    if source == "random":
        codes = [random_code(rng, n, k) for n in range(1, 6) for k in range(1, 5) if k <= 1 << n]
    else:
        codes = [get_fixture(source)]
    for code in codes:
        sections = _space_sections(code, code.n, (False, True))
        for pure, scan, section in zip((False, True), _scan(code, (False, True)), sections):
            reference = _loop_route.scan(code, pure)
            table = classify_paulis(code, pure=pure)
            assert [(row.weight, label, witness) for row in table
                    for label, witness in zip(row.violators, row.witnesses)] == reference
            assert [(int(p), int(i), int(j), complex(d))
                    for p, i, j, d in zip(scan.coords, scan.i, scan.j, scan.dev)] == [
                (p, *witness) for p, (_, _, witness) in zip(scan.coords.tolist(), reference)]
            assert section["per_weight"] == [
                {"w": row.weight, "members": row.members, "non_members": row.non_members,
                 "violators": list(row.violators)} for row in table]
            distance = (pure_distance if pure else minimum_distance)(code)
            assert scan.distance == section["distance"] == distance
            assert distance == (reference[0][0] if reference else code.n + 1)


@pytest.mark.parametrize("name", ["gbp", "rains-union"])
def test_witnesses_match_dense_first_violation(name):
    code = get_fixture(name)
    kets = code.basis
    on_diagonal = 0
    for pure, check in ((False, check_erasure), (True, check_pure)):
        found = {label: wit for row in classify_paulis(code, pure=pure)
                 for label, wit in zip(row.violators, row.witnesses)}
        for letters in all_pauli_letterings(code.n):
            op = dense_pauli(letters)
            g = gram(kets, op)
            alpha = np.trace(op) / 2**code.n if pure else g[0, 0]
            dev = (g - alpha * np.eye(code.k)).ravel()
            bad = np.flatnonzero(np.abs(dev) >= 1e-9)
            if bad.size == 0:
                assert letters not in found
                continue
            i, j = divmod(int(bad[0]), code.k)
            on_diagonal += i == j
            for witness in (found[letters], check(code, pauli_from_string(letters)).witness):
                assert witness[:2] == (i, j)
                assert abs(witness[2] - dev[bad[0]]) < 1e-12
    # the diagonal deviations, g_ii - alpha, are read back too
    assert on_diagonal > 0


def test_classify_rejects_excess_weight():
    with pytest.raises(ValueError):
        classify_paulis(fixture_gbp_code(), 5)


@pytest.mark.parametrize("max_weight", [True, False, 1.5, 2.0, "2"])
def test_scans_refuse_a_bool_or_non_integer_weight(max_weight):
    # neither a silent scan to weight 1 nor numpy's own TypeError
    code = fixture_gbp_code()
    for scan in (lambda: classify_paulis(code, max_weight),
                 lambda: classify_paulis(code, max_weight, pure=True),
                 lambda: _scan(code, (False, True), max_weight)):
        with pytest.raises(ValueError, match="max_weight must be an integer"):
            scan()


# -------------------------------------------------------------- distances

def test_distances_frozen():
    assert minimum_distance(get_fixture("gbp")) == 2
    assert pure_distance(get_fixture("gbp")) == 2
    assert minimum_distance(get_fixture("rains-union")) == 2
    assert minimum_distance(get_fixture("gbp-union")) == 1
    assert pure_distance(fixture_rains_subcode()) == 3


def test_k1_distance_degenerate():
    code = fixture_rains_subcode()
    d = minimum_distance(code)
    assert d == 6
    assert is_degenerate_distance(code, d)
    assert not is_degenerate_distance(code, pure_distance(code))


def test_all_zero_ket_pure_distance():
    code = ingest_code({"n": 5, "label": "z", "basis": [[(1, "00000")]]})
    assert pure_distance(code) == 1  # a Z expectation is already nonzero


def test_distance_soundness(rng):
    for code in (get_fixture("gbp-union"), random_code(rng, 3, 2)):
        d = minimum_distance(code)
        if is_degenerate_distance(code, d):
            continue
        from qerasure import weight

        failing = [p for p in enumerate_paulis(code.n, code.n)
                   if not check_erasure(code, p).member]
        assert min(weight(p) for p in failing) == d


# -------------------------------------------------------- hermitian basis

def test_hermitian_basis_trivial_cases():
    xi = from_span(2, pauli_coords(pauli_from_string("XI")))
    out = hermitian_basis(xi)
    assert len(out) == 1
    assert np.max(np.abs(out[0].imag)) < 1e-12  # Hermitian: real coordinates

    izi = from_span(2, 1j * pauli_coords(pauli_from_string("ZI")))
    out = hermitian_basis(izi)
    assert len(out) == 1
    # the span contains the Hermitian representative ZI as well
    assert np.max(np.abs(out[0].imag)) < 1e-12 or np.max(np.abs(out[0].real)) < 1e-12


def test_cached_basis_is_read_only():
    space = erasure_space(get_fixture("gbp"))
    with pytest.raises(ValueError):
        space.basis[:, 0] = 7
    rows = hermitian_basis(space)
    assert len(rows) == space.dim
    for row in rows[:4]:
        assert row.dtype == complex and row.flags.writeable
        assert not np.shares_memory(row, space.basis)
        row[:] = 7
    assert np.max(np.abs(space.complement.T @ space.basis[:, :4])) < 1e-12


def test_hermitian_basis_keeps_dimension():
    space = erasure_space(fixture_gbp_code())
    out = hermitian_basis(space)
    assert len(out) == space.dim
    for vec in out:
        real = np.max(np.abs(vec.imag)) < 1e-9
        imag = np.max(np.abs(vec.real)) < 1e-9
        assert real or imag
        assert space.member_residual(vec) < 1e-8
    rebuilt = from_span(space.n, np.column_stack(out))
    assert rebuilt.dim == space.dim


def test_hermitian_basis_rejects_non_adjoint_closed():
    v = pauli_coords(pauli_from_string("XI")) + 2j * pauli_coords(pauli_from_string("YI"))
    s = from_span(2, v)
    with pytest.raises(ValueError):
        hermitian_basis(s)


def test_hermitian_basis_edge_dimensions(rng):
    full = OperatorSubspace(2, complement=np.zeros((16, 0), dtype=complex))
    out = np.column_stack(hermitian_basis(full))
    assert out.shape == (16, 16)
    assert np.max(np.abs(out.conj().T @ out - np.eye(16))) < 1e-12
    assert np.max(np.abs(out.imag)) < 1e-12
    unitary = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))[0]
    for everything in (np.eye(16), unitary):
        assert hermitian_basis(OperatorSubspace(2, complement=everything)) == []


def test_hermitian_basis_on_roundoff_prone_frame():
    # a four-qubit K=4 frame, drawn like the random frames of
    # perfbench/inputs.py, on which a residual-threshold Gram-Schmidt kept
    # one candidate too many and overran its buffer
    rng = np.random.default_rng(42)
    m = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    frame = np.zeros((16, 4), dtype=complex)
    frame[:8] = np.linalg.qr(m)[0]
    code = ingest_code({"n": 4, "basis": [
        [(complex(a), format(i, "04b")) for i, a in enumerate(col) if abs(a) > 1e-14]
        for col in frame.T]})
    space = erasure_space(code)
    out = np.column_stack(hermitian_basis(space))
    assert out.shape == (256, space.dim)
    assert np.max(np.abs(out.imag)) < 1e-12
    assert np.max(np.abs(out.conj().T @ out - np.eye(space.dim))) < 1e-10
    assert np.linalg.norm(space.complement.conj().T @ out) < 1e-8
