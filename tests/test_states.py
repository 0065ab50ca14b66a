import numpy as np
import pytest

from qerasure import (
    CodeTransform,
    Ket,
    UnitaryAction,
    apply_pauli,
    apply_transform,
    basis_state,
    cyclic_shift,
    enumerate_paulis,
    fixture_gbp_code,
    inner_product,
    ket_from_terms,
    pauli_from_string,
    pauli_to_string,
)

from qerasure.states import LOCAL_GATES

from _oracle import all_pauli_letterings, conjugate_letters, dense_pauli, transform_matrix


def random_ket(rng, n):
    return Ket(n, rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)).normalized()


def test_ket_validation():
    with pytest.raises(ValueError):
        Ket(2, np.ones(3))
    with pytest.raises(ValueError):
        ket_from_terms(3, [(1, "00")])
    with pytest.raises(ValueError):
        ket_from_terms(2, [(1, "02")])
    with pytest.raises(ValueError):
        Ket(1, np.zeros(2)).normalized()


def test_ket_from_dict_terms():
    k = ket_from_terms(2, [{"re": 1.0, "im": -1.0, "bits": "01"}])
    assert k.amplitudes[0b01] == 1.0 - 1.0j


def test_inner_product_basics(rng):
    c = random_ket(rng, 3)
    assert abs(inner_product(c, c) - 1.0) < 1e-12
    gbp = fixture_gbp_code()
    assert abs(inner_product(gbp.basis[0], gbp.basis[1])) < 1e-12
    a, b = random_ket(rng, 3), random_ket(rng, 3)
    assert abs(inner_product(a, b) - np.conj(inner_product(b, a))) < 1e-12
    with pytest.raises(ValueError):
        inner_product(a, random_ket(rng, 2))


def test_apply_pauli_examples():
    k = basis_state(5, "00000")
    assert apply_pauli(pauli_from_string("IIIII"), k).amplitudes[0] == 1.0
    flipped = apply_pauli(pauli_from_string("XIIII"), k)
    assert abs(flipped.amplitudes[int("10000", 2)] - 1.0) < 1e-12


def test_apply_pauli_matches_dense(rng):
    for n in (1, 2, 3):
        k = random_ket(rng, n)
        for p in enumerate_paulis(n, n):
            fast = apply_pauli(p, k).amplitudes
            dense = dense_pauli(pauli_to_string(p)) @ k.amplitudes
            assert np.max(np.abs(fast - dense)) < 1e-12


def test_transform_identity():
    k = ket_from_terms(3, [(1, "010"), (1j, "111")])
    out = apply_transform(CodeTransform(3), k)
    assert np.array_equal(out.amplitudes, k.amplitudes)


def test_transform_y_local_example():
    plus = ket_from_terms(4, [(1, "0000"), (1, "1111")]).normalized()
    t = CodeTransform(4, locals=["I", "I", "I", "Y"])
    got = apply_transform(t, plus)
    want = ket_from_terms(4, [(1, "0001"), (-1, "1110")]).normalized()
    # agreement up to a global phase
    assert abs(abs(inner_product(want, got)) - 1.0) < 1e-9


def test_transform_cyclic_shift_example():
    k = basis_state(5, "00011")
    t = CodeTransform(5, perm=cyclic_shift(5, 1))
    out = apply_transform(t, k)
    assert abs(out.amplitudes[int("10001", 2)] - 1.0) < 1e-12


def test_transform_preserves_inner_products(rng):
    t = CodeTransform(3, perm=(2, 0, 1), locals=["H", "S", "Y"])
    for _ in range(20):
        a, b = random_ket(rng, 3), random_ket(rng, 3)
        before = inner_product(a, b)
        after = inner_product(apply_transform(t, a), apply_transform(t, b))
        assert abs(before - after) < 1e-9
        assert abs(apply_transform(t, a).norm() - 1.0) < 1e-9


def test_transform_matches_dense_matrix(rng):
    transforms = [CodeTransform(3, perm=(1, 2, 0), locals=["H", "Y", "S"])]
    for n in range(1, 6):
        for _ in range(3):
            gates = rng.choice(["I", "X", "Y", "Z", "H", "S"], size=n).tolist()
            transforms.append(CodeTransform(n, perm=rng.permutation(n).tolist(), locals=gates))
    for t in transforms:
        u = UnitaryAction.from_transform(t)
        for _ in range(10):
            k = random_ket(rng, t.n)
            dense = u.matrix @ k.amplitudes
            assert np.max(np.abs(apply_transform(t, k).amplitudes - dense)) < 1e-12


def test_transform_validation():
    with pytest.raises(ValueError):
        CodeTransform(3, perm=(0, 0, 1))
    with pytest.raises(ValueError):
        CodeTransform(2, locals=[[[1, 0], [0, 0]], "I"])
    with pytest.raises(ValueError):
        CodeTransform(2, locals=["I"])
    with pytest.raises(ValueError):
        CodeTransform.from_json({"perms": [0, 1]}, 2)


def test_transform_from_json_matrix_entries():
    spec = {"locals": [[[0, 0], [1, 0], [1, 0], [0, 0]], "I"]}
    t = CodeTransform.from_json(spec, 2)
    assert np.allclose(t.locals[0], np.array([[0, 1], [1, 0]]))


def test_unitary_action_round_trip(rng):
    t = CodeTransform(3, perm=(2, 0, 1), locals=["H", "S", "X"])
    u = UnitaryAction.from_transform(t)
    for _ in range(10):
        k = random_ket(rng, 3)
        back = u.adjoint().apply(u.apply(k))
        assert np.max(np.abs(back.amplitudes - k.amplitudes)) < 1e-9
    assert np.allclose(u.adjoint().matrix, u.matrix.conj().T, atol=1e-12)


def test_identity_action():
    u = UnitaryAction.identity(2)
    k = ket_from_terms(2, [(1, "01"), (1j, "10")])
    assert np.array_equal(u.apply(k).amplitudes, k.amplitudes)


def test_action_matrix_matches_oracle():
    perm, gates = (2, 0, 3, 1), ["H", "S", "Y", "X"]
    u = UnitaryAction.from_transform(CodeTransform(4, perm=perm, locals=gates))
    local_mats = [LOCAL_GATES[g] for g in gates]
    assert np.max(np.abs(u.matrix - transform_matrix(perm, local_mats))) < 1e-15


def test_conjugate_pauli_sign_example():
    # X Z X = -Z on the qubit the X-pattern touches
    assert conjugate_letters("IIZII", range(5), "IIXXX") == (-1, "IIZII")
    tau = UnitaryAction.from_transform(CodeTransform(5, locals=["I", "I", "X", "X", "X"]))
    z2 = dense_pauli("IIZII")
    assert np.array_equal(tau.matrix @ z2 @ tau.matrix.conj().T, -z2)


def test_conjugate_pauli_matches_dense():
    perm, gates = (1, 2, 0), "XYZ"
    u = UnitaryAction.from_transform(CodeTransform(3, perm=perm, locals=list(gates)))
    for p in all_pauli_letterings(3):
        sign, image = conjugate_letters(p, perm, gates)
        dense = u.matrix @ dense_pauli(p) @ u.matrix.conj().T
        assert np.max(np.abs(sign * dense_pauli(image) - dense)) < 1e-12


def test_permutation_only_conjugation():
    for perm in ((1, 2, 0), (2, 1, 0), (0, 2, 1)):
        u = UnitaryAction.from_transform(CodeTransform(3, perm=perm))
        for p in all_pauli_letterings(3, weights={0, 1, 2}):
            sign, image = conjugate_letters(p, perm, "III")
            assert sign == 1
            dense = u.matrix @ dense_pauli(p) @ u.matrix.conj().T
            assert np.allclose(dense_pauli(image), dense, atol=1e-12)


def test_conjugation_preserves_weight():
    perm, gates = cyclic_shift(5, 2), "IXYZI"
    u = UnitaryAction.from_transform(CodeTransform(5, perm=perm, locals=list(gates)))
    for p in all_pauli_letterings(5):
        sign, image = conjugate_letters(p, perm, gates)
        assert image.count("I") == p.count("I")
        dense = u.matrix @ dense_pauli(p) @ u.matrix.conj().T
        assert np.max(np.abs(sign * dense_pauli(image) - dense)) < 1e-12


def test_action_rejects_non_unitary_matrix():
    with pytest.raises(ValueError):
        UnitaryAction(1, np.array([[1, 1], [0, 1]], dtype=complex))
    with pytest.raises(ValueError, match="not unitary"):
        UnitaryAction(1, np.array([[np.nan, 0], [0, 1]], dtype=complex))
    with pytest.raises(ValueError, match="not unitary"):
        UnitaryAction(1, np.array([[np.inf, 0], [0, 1]], dtype=complex))
    with pytest.raises(ValueError):
        UnitaryAction(2, np.eye(2))


def test_transform_rejects_non_finite_locals():
    # a NaN makes every comparison false, so "max > tol" would let it through
    for bad in (np.nan, np.inf, 1e300):
        with pytest.raises(ValueError, match="local at qubit 3 is not unitary"):
            CodeTransform.from_json(
                {"locals": ["I", "I", "I", [[bad, 0], [0, 0], [0, 0], [1, 0]]]}, 4)


def test_transform_perm_entries_must_be_ints():
    for perm in ([0, 1, 2, 3.0], [False, True, 2, 3], ["0", 1, 2, 3]):
        with pytest.raises(ValueError, match="not an integer"):
            CodeTransform(4, perm=perm)
    assert CodeTransform(3, perm=np.array([2, 0, 1])).perm == (2, 0, 1)


def test_ket_rejects_non_finite_amplitudes():
    for re, im in ((np.nan, 0.0), (0.0, np.inf), (-np.inf, 0.0), (10**400, 0)):
        with pytest.raises(ValueError, match="not a finite number"):
            ket_from_terms(2, [{"re": re, "im": im, "bits": "01"}])
    big = ket_from_terms(1, [(1e308, "0"), (-1e308, "1")])
    assert np.array_equal(big.amplitudes, [1e308, -1e308])
