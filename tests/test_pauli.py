import re

import numpy as np
import pytest

from qerasure import (
    PauliOperator,
    enumerate_paulis,
    multiply,
    pauli_coords,
    pauli_from_letters,
    pauli_index,
    pauli_from_string,
    pauli_to_string,
    to_matrix,
    weight,
)

from qerasure import QuantumCode, check_erasure

from _oracle import dense_pauli, ket_from_terms, sorted_paulis


def test_letter_mask_encoding():
    p = pauli_from_letters(list("IIXXX"))
    assert (p.x_mask, p.z_mask, p.phase) == (0b11100, 0, 0)
    p = pauli_from_letters(list("IIIII"))
    assert (p.x_mask, p.z_mask) == (0, 0)
    assert weight(p) == 0
    assert weight(pauli_from_letters(list("IIYZY"))) == 3


def test_letter_round_trip():
    for label in ("IIYZY", "XZIII", "IZIXX", "I", "YYYY"):
        p = pauli_from_string(label)
        assert pauli_to_string(p) == label
        assert "".join(le.name for le in p.letters()) == label


def test_phase_prefix_round_trip():
    for prefix, k in (("", 0), ("i", 1), ("-", 2), ("-i", 3)):
        p = pauli_from_string(prefix + "XZ")
        assert p.phase == k
        assert pauli_to_string(p) == prefix + "XZ"


def test_parser_rejects_garbage():
    with pytest.raises(ValueError):
        pauli_from_string("XQ")
    with pytest.raises(ValueError):
        pauli_from_string("")
    with pytest.raises(ValueError):
        pauli_from_letters([])


@pytest.mark.parametrize("letters", [["x"], "XQ", [1]], ids=["lower-case", "unknown", "not-a-letter"])
def test_letters_refuse_what_is_not_a_pauli_letter(letters):
    # a lower-case or unknown letter, and a non-letter, are refused as a bad
    # label is, not with the KeyError or AttributeError of the lookup
    with pytest.raises(ValueError, match="not a Pauli letter"):
        pauli_from_letters(letters)


@pytest.mark.parametrize("build", [
    lambda p: pauli_index(p), lambda p: pauli_coords(p), lambda p: enumerate_paulis(p.n, 1),
], ids=["pauli_index", "pauli_coords", "enumerate_paulis"])
def test_pauli_tables_beyond_the_qubit_limit_are_refused_up_front(build):
    # n = MAX_QUBITS + 1 would need 4^9 = 262,144 table rows (and a 4 MiB
    # coordinate vector): refused with ValueError before any table or
    # vector is made, as QuantumCode refuses such an n
    import tracemalloc

    from qerasure import codes
    from qerasure.operator_space import _pauli_table
    from qerasure.pauli import MAX_QUBITS, _pauli_masks

    assert codes.MAX_QUBITS is MAX_QUBITS == 8
    p = PauliOperator(MAX_QUBITS + 1, 1, 0)
    tables = _pauli_table.cache_info().currsize, _pauli_masks.cache_info().currsize
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"n={MAX_QUBITS + 1} exceeds the limit of {MAX_QUBITS} qubits"):
            build(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert (_pauli_table.cache_info().currsize, _pauli_masks.cache_info().currsize) == tables


def test_weight_examples():
    assert weight(pauli_from_string("IZIXX")) == 3
    assert weight(pauli_from_string("XZIII")) == 2


def test_multiply_basic():
    x = pauli_from_string("X")
    z = pauli_from_string("Z")
    assert multiply(x, x) == pauli_from_string("I")
    xz = multiply(x, z)
    assert (xz.x_mask, xz.z_mask, xz.phase) == (1, 1, 3)  # -iY
    p = pauli_from_string("IZIXX")
    assert multiply(p, pauli_from_string("IIIII")) == p


def test_multiply_matches_dense_exhaustive_n2():
    ops = enumerate_paulis(2, 2)
    for p in ops:
        for q in ops:
            lhs = to_matrix(multiply(p, q))
            rhs = to_matrix(p) @ to_matrix(q)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_multiply_matches_dense_random_n3(rng):
    ops = enumerate_paulis(3, 3)
    for _ in range(200):
        p, q = rng.choice(len(ops), size=2)
        p, q = ops[p], ops[q]
        assert np.allclose(to_matrix(multiply(p, q)), to_matrix(p) @ to_matrix(q),
                           atol=1e-12)


def test_multiply_rejects_mismatched_n():
    with pytest.raises(ValueError):
        multiply(pauli_from_string("XX"), pauli_from_string("X"))


def test_weight_subadditive(rng):
    ops = enumerate_paulis(4, 4)
    for _ in range(300):
        i, j = rng.choice(len(ops), size=2)
        p, q = ops[i], ops[j]
        assert weight(multiply(p, q)) <= weight(p) + weight(q)


def test_dense_realization_unitary_hermitian():
    for p in enumerate_paulis(2, 2):
        m = to_matrix(p)
        assert np.allclose(m @ m.conj().T, np.eye(4), atol=1e-12)
        assert np.allclose(m, m.conj().T, atol=1e-12)


def test_enumeration_counts():
    assert len(enumerate_paulis(5, 1)) == 16
    assert len(enumerate_paulis(5, 5)) == 1024
    exactly2 = [p for p in enumerate_paulis(4, 2) if weight(p) == 2]
    assert len(exactly2) == 54


def test_enumeration_distinct_and_ordered():
    ops = enumerate_paulis(3, 3)
    assert len({(p.x_mask, p.z_mask) for p in ops}) == 64
    keys = [(weight(p), p.x_mask, p.z_mask) for p in ops]
    assert keys == sorted(keys)


def test_enumeration_matches_oracle_order():
    ops = enumerate_paulis(3, 3)
    assert [pauli_to_string(p) for p in ops] == sorted_paulis(3)


def test_enumeration_rejects_bad_weight():
    with pytest.raises(ValueError):
        enumerate_paulis(3, 4)
    with pytest.raises(ValueError):
        enumerate_paulis(3, -1)


@pytest.mark.parametrize("max_weight", [True, False, 1.5, 1.0, "1", None])
def test_enumeration_refuses_a_bool_or_non_integer_weight(max_weight):
    # a bool is not read as 0 or 1, and a float is not cut down to an int
    with pytest.raises(ValueError, match="max_weight must be an integer"):
        enumerate_paulis(4, max_weight)


def matrix_element(bra, p, ket):
    """<bra| p |ket> through the dense oracle, from p's letters and its power of i."""
    letters = pauli_to_string(PauliOperator(p.n, p.x_mask, p.z_mask))
    return complex(np.vdot(bra, 1j**p.phase * dense_pauli(letters) @ ket))


def test_matrix_element_trivial():
    c = ket_from_terms(5, [(1, "00000"), (1, "11111")])
    ident = pauli_from_string("IIIII")
    assert abs(matrix_element(c, ident, c) - 1.0) < 1e-12
    zz = ket_from_terms(2, [(1, "00")])
    assert abs(matrix_element(zz, pauli_from_string("XI"), zz)) < 1e-12


def test_matrix_element_matches_dense(rng):
    for _ in range(100):
        n = int(rng.integers(1, 4))
        bra = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        ket = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        ops = enumerate_paulis(n, n)
        p = ops[int(rng.integers(len(ops)))]
        expect = bra.conj() @ to_matrix(p) @ ket
        assert abs(matrix_element(bra, p, ket) - expect) < 1e-12


def test_matrix_element_all_paulis_small_n(rng):
    # every Pauli in every phase: to_matrix against the oracle's letters times i^phase
    for n in (1, 2, 3):
        bra = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        ket = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        for base in enumerate_paulis(n, n):
            for phase in range(4):
                p = PauliOperator(n, base.x_mask, base.z_mask, phase)
                expect = bra.conj() @ to_matrix(p) @ ket
                assert abs(matrix_element(bra, p, ket) - expect) < 1e-12


def test_matrix_element_dimension_mismatch():
    # the package's matrix elements come from a code's gram tensor, which
    # refuses a Pauli on another number of qubits
    c2 = ket_from_terms(2, [(1, "00")])
    with pytest.raises(ValueError, match="qubit count mismatch: 3 != 2"):
        check_erasure(QuantumCode(n=2, basis=c2[:, None]), pauli_from_string("XXX"))


def test_mask_validation():
    with pytest.raises(ValueError):
        PauliOperator(2, 0b100, 0)
    assert PauliOperator(2, 0, 0, 7).phase == 3


@pytest.mark.parametrize("args, message", [
    ((2, 1, 0, 1.5), "masks and phase must be integers, got (1, 0, 1.5)"),
    ((2, 1.0, 0), "masks and phase must be integers, got (1.0, 0, 0)"),
    ((2, 0, False), "masks and phase must be integers, got (0, False, 0)"),
    ((True, 1, 0), "n must be a positive integer, got True"),
    ((2.0, 1, 0), "n must be a positive integer, got 2.0"),
    ((0, 0, 0), "n must be a positive integer, got 0"),
])
def test_pauli_operator_refuses_what_is_not_an_int(args, message):
    # a float phase or mask was kept as given, and a float mask failed later
    # as a bare TypeError in pauli_index
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PauliOperator(*args)
