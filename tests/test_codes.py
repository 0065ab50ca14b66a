import numpy as np
import pytest

from qerasure import (
    CodeTransform,
    CodeValidationError,
    cyclic_shift,
    code_projector,
    code_to_json,
    fixture_gbp_code,
    fixture_rains_subcode,
    ingest_code,
    transform_code,
)

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


def projector_distance(a, b):
    return np.max(np.abs(code_projector(a) - code_projector(b)))


def test_ingest_gbp_spec():
    code = ingest_code(GBP_SPEC)
    assert (code.n, code.k) == (4, 4)
    for ket in code.basis:
        assert ket.is_normalized()


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
    mat = np.column_stack([ket.amplitudes for ket in code.basis])
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(3))) < 1e-14
    # the nearest orthonormal basis: no vector moves by more than the overlap
    assert np.max(np.linalg.norm(mat - frame, axis=0)) < 4e-10
    exact = ingest_code(GBP_SPEC)
    assert np.max(np.abs(exact.basis[0].amplitudes - fixture_gbp_code().basis[0].amplitudes)) < 1e-15


def test_serialize_round_trip():
    code = fixture_gbp_code()
    again = ingest_code(code_to_json(code))
    assert projector_distance(code, again) < 1e-9


def test_transform_round_trip():
    code = fixture_gbp_code()
    t = CodeTransform(4, perm=(1, 3, 0, 2), locals=["H", "S", "Y", "I"])
    back = transform_code(transform_code(code, t), t.adjoint())
    assert projector_distance(code, back) < 1e-9


def test_transform_identity_keeps_subspace():
    code = fixture_gbp_code()
    out = transform_code(code, CodeTransform(4))
    assert projector_distance(code, out) < 1e-9


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
    amps = code.basis[0].amplitudes
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
    for ket in code.basis:
        nonzero = ket.amplitudes[np.abs(ket.amplitudes) > 1e-12]
        assert len(nonzero) == 2
        assert np.allclose(np.abs(nonzero), 1 / np.sqrt(2))


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
