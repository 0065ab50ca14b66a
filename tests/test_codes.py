import numpy as np
import pytest

from qerasure import (
    CodeTransform,
    CodeValidationError,
    QuantumCode,
    check_erasure,
    check_pure,
    classify_paulis,
    cyclic_shift,
    code_to_json,
    erasure_space,
    fixture_gbp_code,
    fixture_rains_subcode,
    fixture_union_components,
    get_fixture,
    ingest_code,
    minimum_distance,
    pauli_from_string,
    pure_erasure_space,
    transform_code,
)
from qerasure.codes import CodeTooLargeError
from qerasure.states import UnitaryAction

from conftest import random_code

GBP_SPEC = {
    "n": 4,
    "label": "gbp",
    "basis": [
        [(1, "0000"), (1, "1111")],
        [(1, "0110"), (1, "1001")],
        [(1, "0101"), (1, "1010")],
        [(1, "1100"), (1, "0011")],
    ],
}


def code_projector(code):
    """The rank-K projector onto the code subspace, from its basis kets."""
    mat = code.basis
    return mat @ mat.conj().T


def projector_distance(a, b):
    return np.max(np.abs(code_projector(a) - code_projector(b)))


def test_ingest_gbp_spec():
    code = ingest_code(GBP_SPEC)
    assert (code.n, code.k) == (4, 4)
    assert np.max(np.abs(np.linalg.norm(code.basis, axis=0) - 1.0)) < 1e-9


def test_ingest_single_ket():
    code = ingest_code({"n": 5, "label": "one", "basis": [[(1, "00000")]]})
    assert code.k == 1


def test_ingest_rejects_duplicates():
    with pytest.raises(CodeValidationError, match="0 and 1"):
        ingest_code({"n": 2, "basis": [[(1, "00")], [(1, "00")]]})


def test_ingest_rejects_zero_vector():
    with pytest.raises(CodeValidationError, match="zero"):
        ingest_code({"n": 2, "basis": [[(1, "00"), (-1, "00")]]})


def test_ingest_rejects_bad_bitstrings():
    with pytest.raises(CodeValidationError):
        ingest_code({"n": 3, "basis": [[(1, "00")]]})


def test_ingest_orthonormalizes_the_basis(rng):
    frame = np.linalg.qr(rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3)))[0]
    frame[:, 2] += 4e-10 * frame[:, 0]
    frame /= np.linalg.norm(frame, axis=0)
    spec = {"n": 3, "basis": [[{"re": a.real, "im": a.imag, "bits": format(b, "03b")}
                               for b, a in enumerate(col)] for col in frame.T]}
    code = ingest_code(spec)
    mat = code.basis
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(3))) < 1e-14
    # the nearest orthonormal basis: no vector moves by more than the overlap
    assert np.max(np.linalg.norm(mat - frame, axis=0)) < 4e-10
    exact = ingest_code(GBP_SPEC)
    assert np.max(np.abs(exact.basis[:, 0] - fixture_gbp_code().basis[:, 0])) < 1e-15


def test_serialize_round_trip():
    code = fixture_gbp_code()
    again = ingest_code(code_to_json(code))
    assert projector_distance(code, again) < 1e-9


def test_transform_round_trip():
    code = fixture_gbp_code()
    t = CodeTransform(4, perm=(1, 3, 0, 2), locals=["H", "S", "Y", "I"])
    inverse = UnitaryAction(4, UnitaryAction.from_transform(t).matrix.conj().T)
    back = transform_code(transform_code(code, t), inverse)
    assert projector_distance(code, back) < 1e-9


def test_transform_identity_keeps_subspace():
    code = fixture_gbp_code()
    out = transform_code(code, CodeTransform(4))
    assert projector_distance(code, out) < 1e-9


def test_transform_kinds_give_one_basis(rng):
    # a CodeTransform, its UnitaryAction and its raw matrix are one product
    for code in (fixture_gbp_code(), random_code(rng, 5, 3)):
        t = CodeTransform(code.n, perm=cyclic_shift(code.n, 2),
                          locals=["H", "S", "Y", "X", "I"][:code.n])
        action = UnitaryAction.from_transform(t)
        images = [transform_code(code, u).basis for u in (t, action, action.matrix)]
        assert all(np.array_equal(images[0], image) for image in images[1:])
    with pytest.raises(ValueError, match="qubit count mismatch: 3 != 4"):
        transform_code(fixture_gbp_code(), CodeTransform(3))
    with pytest.raises(ValueError, match="expected a 16x16 matrix"):
        transform_code(fixture_gbp_code(), np.eye(8))


def test_oversized_code_is_refused_where_its_gram_tensor_is_built(gram_builds):
    # n=7, K=17 needs a 72 MiB gram tensor, beyond the 64 MiB limit; a code
    # made directly, or as a transform's image, is refused on its first
    # check, space or scan, before anything the size of the tensor exists
    import tracemalloc

    code = QuantumCode(n=7, basis=np.eye(1 << 7)[:, :17])
    image = transform_code(code, CodeTransform(7, perm=cyclic_shift(7, 1)))
    p = pauli_from_string("XIIIIIZ")
    queries = (lambda c: check_erasure(c, p), lambda c: check_pure(c, p),
               lambda c: check_erasure(c, np.eye(1 << 7)), erasure_space,
               pure_erasure_space, classify_paulis, minimum_distance)
    tracemalloc.start()
    try:
        for c in (code, image):
            for query in queries:
                with pytest.raises(CodeTooLargeError, match="n=7, K=17 needs a 72 MiB"):
                    query(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gram_builds == []
    assert peak < 1 << 20


@pytest.mark.parametrize("n, basis, refused", [
    (2, np.eye(8)[:, :2], r"basis shape \(8, 2\) is not \(4, K\), 1 <= K <= 4"),
    (2, np.zeros((4, 0)), r"basis shape \(4, 0\)"),
    (1, np.eye(2)[:, [0, 1, 0]], r"basis shape \(2, 3\) is not \(2, K\)"),
    (2, np.eye(4)[:, 0], r"basis shape \(4,\)"),
    # NaN compares False with any tolerance, so no deviation may pass as small
    (2, np.diag([np.nan, 1, 1, 1])[:, :2], r"not orthonormal: \|<c_0\|c_0> - delta\| = nan"),
    (2, np.diag([1, np.inf, 1, 1])[:, :2], r"basis is not orthonormal"),
    (2, np.eye(4)[:, 1:3], None),
    (4, np.eye(16, dtype=int), None),
    (7, np.eye(1 << 7)[:, :17], None),
], ids=["rows-not-2^n", "no-columns", "columns-beyond-2^n", "one-dimensional", "nan", "inf",
        "k2", "whole-space", "n7-k17-too-large"])
def test_constructor_takes_a_validated_basis_matrix(n, basis, refused):
    if refused is not None:
        with pytest.raises(CodeValidationError, match=refused):
            QuantumCode(n=n, basis=basis)
        return
    mine = basis.copy()
    code = QuantumCode(n=n, basis=mine, label="columns")
    mine[0, 0] = 5  # the code keeps its own copy
    assert code.basis.dtype == complex and np.array_equal(code.basis, basis)
    assert code.k == code.basis.shape[1] == basis.shape[1]
    with pytest.raises(ValueError, match="read-only"):
        code.basis[0, 0] = 5
    if n == 7:  # a 72 MiB gram tensor, beyond the 64 MiB limit
        with pytest.raises(CodeTooLargeError, match="n=7, K=17 needs a 72 MiB"):
            code.grams
    else:
        assert code.grams.shape == (4**n, code.k, code.k)


@pytest.mark.parametrize("n, basis, error, refused", [
    (2.0, np.eye(4)[:, :1], CodeValidationError, r"n must be a positive integer, got 2\.0"),
    (-1, np.eye(4)[:, :1], CodeValidationError, r"n must be a positive integer, got -1"),
    (0, np.ones((1, 1)), CodeValidationError, r"n must be a positive integer, got 0"),
    (True, np.eye(2)[:, :1], CodeValidationError, r"n must be a positive integer, got True"),
    (9, np.eye(512)[:, :1], CodeTooLargeError, r"n=9 exceeds the limit of 8 qubits"),
    (1, np.array([["a"], ["b"]]), CodeValidationError, r"basis entries must be numbers, got dtype <U1"),
    # numpy would read "1" as the number 1: a string is refused, not coerced
    (1, [["1"], ["0"]], CodeValidationError, r"basis entries must be numbers"),
    (1, np.eye(2, dtype=bool)[:, :1], CodeValidationError, r"got dtype bool"),
    (2, [[1], [0, 1]], CodeValidationError, r"basis is not a rectangular array: .*inhomogeneous"),
], ids=["float-n", "negative-n", "zero-n", "bool-n", "n-beyond-max", "string-entries",
        "numeric-strings", "bool-entries", "ragged-basis"])
def test_constructor_refuses_n_and_entries_as_ingest_does(n, basis, error, refused):
    with pytest.raises(CodeValidationError, match=refused) as caught:
        QuantumCode(n=n, basis=basis)
    assert caught.type is error


def test_constructor_refuses_a_label_that_is_not_a_string():
    # as ingest refuses it, and before union_code would join it with "+"
    with pytest.raises(CodeValidationError, match=r"^label must be a string, got 5$"):
        QuantumCode(n=1, basis=np.eye(2)[:, :1], label=5)


def test_transform_gbp_pair_spans_listed_vectors():
    code = fixture_gbp_code()
    image = transform_code(code, CodeTransform(4, locals=["I", "I", "I", "Y"]))
    pairs = [("0001", "1110"), ("0010", "1101"), ("0100", "1011"), ("1000", "0111")]
    target = ingest_code({
        "n": 4,
        "label": "",
        "basis": [[(1, a), (-1, b)] for a, b in pairs],
    })
    assert projector_distance(image, target) < 1e-9


def test_rains_subcode_amplitudes():
    code = fixture_rains_subcode()
    amps = code.basis[:, 0]
    assert np.count_nonzero(np.abs(amps) > 1e-12) == 16
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-12
    assert amps[int("00000", 2)] > 0
    assert amps[int("00011", 2)] < 0
    assert amps[int("00101", 2)] > 0
    assert amps[int("01111", 2)] < 0
    # one representative per cyclic orbit, with the orbit's shared sign
    assert amps[int("10001", 2)] < 0  # shift of 00011
    assert amps[int("01010", 2)] > 0  # shift of 00101
    assert amps[int("11110", 2)] < 0  # shift of 01111


def test_rains_subcode_is_cyclic_invariant():
    code = fixture_rains_subcode()
    shifted = transform_code(code, CodeTransform(5, perm=cyclic_shift(5, 1)))
    assert projector_distance(code, shifted) < 1e-9


def test_gbp_fixture_amplitudes():
    code = fixture_gbp_code()
    assert (code.n, code.k) == (4, 4)
    for ket in code.basis.T:
        nonzero = ket[np.abs(ket) > 1e-12]
        assert len(nonzero) == 2
        assert np.allclose(np.abs(nonzero), 1 / np.sqrt(2))


def test_union_components_of_a_plain_or_an_unknown_fixture():
    # a plain fixture has none; an unknown name is refused, by get_fixture too
    for name in ("rains-subcode", "gbp"):
        assert fixture_union_components(name) is None
    for lookup in (fixture_union_components, get_fixture):
        with pytest.raises(KeyError) as refused:
            lookup("nope")
        assert refused.value.args == ("unknown fixture 'nope'; known: rains-subcode, "
                                      "rains-union, gbp, gbp-union",)


def test_fixtures_survive_reingest():
    for code in (fixture_gbp_code(), fixture_rains_subcode()):
        again = ingest_code(code_to_json(code))
        assert projector_distance(code, again) < 1e-9


def test_code_projector_properties():
    for code, k in ((fixture_gbp_code(), 4), (fixture_rains_subcode(), 1)):
        p = code_projector(code)
        assert abs(np.trace(p) - k) < 1e-9
        assert np.max(np.abs(p @ p - p)) < 1e-9
        assert np.max(np.abs(p - p.conj().T)) < 1e-9
        assert np.linalg.matrix_rank(p, tol=1e-9) == k
