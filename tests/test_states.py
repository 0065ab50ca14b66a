import re
from functools import reduce

import numpy as np
import pytest

from qerasure import (
    CodeTransform,
    QuantumCode,
    UnitaryAction,
    cyclic_shift,
    ket_from_terms,
    transform_code,
)

from qerasure.codes import CodeValidationError
from qerasure.states import LOCAL_GATES

from _oracle import all_pauli_letterings, conjugate_letters, dense_pauli, transform_matrix
from conftest import random_code, random_unitary


def unit(v):
    return v / np.linalg.norm(v)


def random_ket(rng, n):
    return unit(rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))


def test_ket_validation():
    with pytest.raises(ValueError):
        ket_from_terms(3, [(1, "00")])
    with pytest.raises(ValueError):
        ket_from_terms(2, [(1, "02")])
    with pytest.raises(CodeValidationError, match="not orthonormal"):
        QuantumCode(n=1, basis=np.zeros((2, 1)))


def test_ket_from_dict_terms():
    k = ket_from_terms(2, [{"re": 1.0, "im": -1.0, "bits": "01"}])
    assert k[0b01] == 1.0 - 1.0j


def one_ket_code(k):
    return QuantumCode(n=len(k).bit_length() - 1, basis=k[:, None])


def image_ket(t, k):
    """The one ket of transform_code on the one-ket code of k."""
    return transform_code(one_ket_code(k), t).basis[:, 0]


def test_transform_identity():
    k = unit(ket_from_terms(3, [(1, "010"), (1j, "111")]))
    out = image_ket(CodeTransform(3), k)
    assert np.array_equal(out, k)


def test_transform_y_local_example():
    plus = unit(ket_from_terms(4, [(1, "0000"), (1, "1111")]))
    t = CodeTransform(4, locals=["I", "I", "I", "Y"])
    got = image_ket(t, plus)
    want = unit(ket_from_terms(4, [(1, "0001"), (-1, "1110")]))
    # agreement up to a global phase
    assert abs(abs(np.vdot(want, got)) - 1.0) < 1e-9


def test_transform_cyclic_shift_example():
    k = ket_from_terms(5, [(1.0, "00011")])
    t = CodeTransform(5, perm=cyclic_shift(5, 1))
    out = image_ket(t, k)
    assert abs(out[int("10001", 2)] - 1.0) < 1e-12


def test_transform_preserves_inner_products(rng):
    t = CodeTransform(3, perm=(2, 0, 1), locals=["H", "S", "Y"])
    u = UnitaryAction.from_transform(t).matrix
    assert np.max(np.abs(u - transform_matrix(t.perm, t.locals))) < 1e-15
    for _ in range(20):
        a, b = random_ket(rng, 3), random_ket(rng, 3)
        before = np.vdot(a, b)
        after = np.vdot(u @ a, u @ b)
        assert abs(before - after) < 1e-9
        assert abs(np.linalg.norm(image_ket(t, a)) - 1.0) < 1e-9
    image = transform_code(random_code(rng, 3, 4), t).basis
    assert np.max(np.abs(image.conj().T @ image - np.eye(4))) < 1e-12


def test_transform_matches_dense_matrix(rng):
    transforms = [CodeTransform(3, perm=(1, 2, 0), locals=["H", "Y", "S"])]
    for n in range(1, 6):
        for _ in range(3):
            gates = rng.choice(["I", "X", "Y", "Z", "H", "S"], size=n).tolist()
            transforms.append(CodeTransform(n, perm=rng.permutation(n).tolist(), locals=gates))
    for t in transforms:
        dense = transform_matrix(t.perm, t.locals)
        for k in range(1, min(4, 1 << t.n) + 1):
            code = random_code(rng, t.n, k)
            image = transform_code(code, t).basis
            assert np.max(np.abs(image - dense @ code.basis)) < 1e-12


def test_transform_validation():
    with pytest.raises(ValueError):
        CodeTransform(3, perm=(0, 0, 1))
    with pytest.raises(ValueError):
        CodeTransform(2, locals=[[[1, 0], [0, 0]], "I"])
    with pytest.raises(ValueError):
        CodeTransform(2, locals=["I"])
    with pytest.raises(ValueError):
        CodeTransform.from_json({"perms": [0, 1]}, 2)


@pytest.mark.parametrize("spec", [
    {"locals": "IIIY"}, {"locals": {"I": 0, "X": 1, "Y": 2, "Z": 3}},
    {"perm": "3210"}, {"perm": {"0": 3, "1": 2, "2": 1, "3": 0}}, {"perm": 3},
], ids=["locals-string", "locals-object", "perm-string", "perm-object", "perm-int"])
def test_transform_from_json_fields_must_be_arrays(spec):
    # a string was read one letter per qubit, and an object as its keys
    with pytest.raises(ValueError, match="must be a JSON array"):
        CodeTransform.from_json(spec, 4)


def test_transform_from_json_null_is_the_default():
    t = CodeTransform.from_json({"perm": None, "locals": None}, 3)
    assert t.perm == (0, 1, 2)
    assert all(np.array_equal(m, np.eye(2)) for m in t.locals)


def test_transform_from_json_matrix_entries():
    spec = {"locals": [[[0, 0], [1, 0], [1, 0], [0, 0]], "I"]}
    t = CodeTransform.from_json(spec, 2)
    assert np.allclose(t.locals[0], np.array([[0, 1], [1, 0]]))


def test_unitary_action_round_trip(rng):
    t = CodeTransform(3, perm=(2, 0, 1), locals=["H", "S", "X"])
    u = UnitaryAction.from_transform(t)
    assert np.max(np.abs(u.matrix - transform_matrix(t.perm, t.locals))) < 1e-15
    for k in range(1, 9):
        code = random_code(rng, 3, k)
        back = transform_code(transform_code(code, u), UnitaryAction(3, u.matrix.conj().T))
        assert np.max(np.abs(back.basis - code.basis)) < 1e-9


def test_identity_action():
    u = UnitaryAction(2, np.eye(4))
    k = unit(ket_from_terms(2, [(1, "01"), (1j, "10")]))
    assert np.array_equal(transform_code(one_ket_code(k), u).basis[:, 0], k)


def test_action_matrix_matches_oracle():
    perm, gates = (2, 0, 3, 1), ["H", "S", "Y", "X"]
    u = UnitaryAction.from_transform(CodeTransform(4, perm=perm, locals=gates))
    local_mats = [LOCAL_GATES[g] for g in gates]
    assert np.max(np.abs(u.matrix - transform_matrix(perm, local_mats))) < 1e-15


@pytest.mark.parametrize("n", range(1, 7))
def test_action_matrix_is_the_kronecker_chain_bit_for_bit(rng, n):
    # one broadcast product per qubit against reduce(np.kron) with its rows
    # permuted, under a random permutation and random dense unitary locals
    t = CodeTransform(n, perm=[int(j) for j in rng.permutation(n)],
                      locals=[random_unitary(rng, 2) for _ in range(n)])
    dim = 1 << n
    rows = reduce(np.kron, t.locals).reshape((2,) * n + (dim,))
    chain = np.moveaxis(rows, range(n), t.perm).reshape(dim, dim)
    assert np.array_equal(UnitaryAction.from_transform(t).matrix, chain)


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


@pytest.mark.parametrize("n", [True, 0, -1, 2.0, "2", None])
def test_transform_refuses_an_n_that_is_not_a_positive_int(n):
    with pytest.raises(ValueError, match=rf"n must be a positive integer, got {re.escape(repr(n))}$"):
        CodeTransform(n)


@pytest.mark.parametrize("n", [True, 0, 1.0, "1", None])
def test_action_refuses_an_n_that_is_not_a_positive_int(n):
    with pytest.raises(ValueError, match=rf"n must be a positive integer, got {re.escape(repr(n))}$"):
        UnitaryAction(n, np.eye(2))


@pytest.mark.parametrize("build", [
    lambda n: CodeTransform(n), lambda n: UnitaryAction(n, np.eye(2)),
    lambda n: UnitaryAction.from_transform(CodeTransform(n)),
], ids=["transform", "action", "from_transform"])
def test_n_beyond_the_qubit_limit_is_refused_before_any_matrix(build):
    # n = MAX_QUBITS + 1 would need a 512 x 512 unitary (4 MiB): refused with
    # ValueError before any matrix is made, as QuantumCode refuses such an n
    import tracemalloc

    from qerasure.pauli import MAX_QUBITS

    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^n={MAX_QUBITS + 1} exceeds the limit of {MAX_QUBITS} qubits$"):
            build(MAX_QUBITS + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


def test_ket_rejects_non_finite_amplitudes():
    for re, im in ((np.nan, 0.0), (0.0, np.inf), (-np.inf, 0.0), (10**400, 0)):
        with pytest.raises(ValueError, match="not a finite number"):
            ket_from_terms(2, [{"re": re, "im": im, "bits": "01"}])
    big = ket_from_terms(1, [(1e308, "0"), (-1e308, "1")])
    assert np.array_equal(big, [1e308, -1e308])
