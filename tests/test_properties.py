"""Property tests (hypothesis) on up to four qubits.

The transform round trip, the Pauli group laws of the mask arithmetic, the
subspace maps of the union formulas, the code and transform readers of the
command line against arbitrary JSON, ingest against its per-term
reference, by hypothesis and on listed first faults, the closed-form spaces
of random frames against their SVD route, and the Hermitian basis of
complex adjoint-closed spaces.  Every search is derandomized but the one
over random frames.  The module is skipped where hypothesis is not
installed.
"""

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qerasure import (
    CodeTransform,
    OperatorSubspace,
    PauliOperator,
    QuantumCode,
    UnitaryAction,
    conjugate_subspace,
    equality_residual,
    hermitian_basis,
    multiply,
    pauli_to_string,
    to_matrix,
    transform_code,
)
from qerasure.cli import main
from qerasure.codes import CodeValidationError, ingest_code

import _loop_route
from _oracle import dense_pauli, transform_matrix
from _svd_route import CLOSED_FORMS, product_image, wide_nullspace_complement
from conftest import assert_orthonormal, random_code, random_unitary

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)

angles = st.floats(0.0, 2 * math.pi)


@st.composite
def local_gates(draw):
    """A named gate, or e^(ia) Rz(b) Ry(c) Rz(d) from four angles as a 2x2 list."""
    if draw(st.booleans()):
        return draw(st.sampled_from(["I", "X", "Y", "Z", "H", "S"]))
    a, b, c, d = (draw(angles) for _ in range(4))
    rz = lambda t: np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])
    ry = np.array([[np.cos(c / 2), -np.sin(c / 2)], [np.sin(c / 2), np.cos(c / 2)]])
    return (np.exp(1j * a) * rz(b) @ ry @ rz(d)).tolist()


@st.composite
def transforms_and_kets(draw):
    n = draw(st.integers(1, 4))
    perm = draw(st.permutations(range(n)))
    t = CodeTransform(n, perm=perm, locals=[draw(local_gates()) for _ in range(n)])
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 << n, max_size=2 << n))
    amps = np.array(parts[::2]) + 1j * np.array(parts[1::2])
    return t, amps


@PROPERTY
@given(transforms_and_kets())
def test_transform_adjoint_round_trip(case):
    t, k = case
    assume(np.linalg.norm(k) > 1e-3)
    code = QuantumCode(n=t.n, basis=(k / np.linalg.norm(k))[:, None])
    # the transform's matrix is the oracle's, and its adjoint undoes transform_code
    u = UnitaryAction.from_transform(t).matrix
    assert np.allclose(u, transform_matrix(t.perm, t.locals), atol=1e-12)
    image = transform_code(code, t)
    assert np.allclose(image.basis, u @ code.basis, atol=1e-12)
    back = transform_code(image, UnitaryAction(t.n, u.conj().T))
    assert np.allclose(back.basis, code.basis, atol=1e-12)


@st.composite
def pauli_triples(draw):
    n = draw(st.integers(1, 4))
    masks = st.integers(0, (1 << n) - 1)
    return [PauliOperator(n, draw(masks), draw(masks), draw(st.integers(0, 3)))
            for _ in range(3)]


@PROPERTY
@given(pauli_triples())
def test_pauli_group_laws(triple):
    p, q, r = triple
    # to_matrix against the oracle's kron of letters, then the laws against it
    label = pauli_to_string(p)
    letters = label.lstrip("-i")
    assert np.array_equal(to_matrix(p), 1j ** p.phase * dense_pauli(letters))
    assert np.allclose(to_matrix(multiply(p, q)), to_matrix(p) @ to_matrix(q), atol=1e-12)
    assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))
    # the adjoint keeps the masks and negates the phase
    adjoint = PauliOperator(p.n, p.x_mask, p.z_mask, -p.phase)
    assert np.allclose(to_matrix(adjoint), to_matrix(p).conj().T, atol=1e-12)
    ident = multiply(p, adjoint)
    assert (ident.x_mask, ident.z_mask, ident.phase) == (0, 0, 0)


@st.composite
def spaces_and_actions(draw):
    """A space on n <= 3 qubits by a random real or complex complement, and a
    unitary: a dense random one, or a permutation-plus-locals transform."""
    n = draw(st.integers(1, 3))
    dim = 4**n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = draw(st.integers(0, dim))
    cols = rng.standard_normal((dim, c))
    if draw(st.booleans()):
        cols = cols + 1j * rng.standard_normal((dim, c))
    space = OperatorSubspace(n, complement=np.linalg.qr(cols)[0])
    if draw(st.booleans()):
        action = UnitaryAction(n, random_unitary(rng, 1 << n))
    else:
        perm = draw(st.permutations(range(n)))
        action = UnitaryAction.from_transform(
            CodeTransform(n, perm=perm, locals=[draw(local_gates()) for _ in range(n)]))
    return space, action


@PROPERTY
@given(spaces_and_actions())
def test_subspace_maps_are_unitary_and_invertible(case):
    # conjugation and the reference one-sided maps are each E -> L E R, which
    # is unitary on operator space: it keeps the complement orthonormal, and
    # U-adjoint undoes it
    space, u = case
    for image_of in (conjugate_subspace, lambda s, u: product_image(s, left=u.matrix),
                     lambda s, u: product_image(s, right=u.matrix)):
        image = image_of(space, u)
        assert_orthonormal(image, 1e-12)
        assert image.dim == space.dim
        back = image_of(image, UnitaryAction(u.n, u.matrix.conj().T))
        assert_orthonormal(back, 1e-12)
        assert back.dim == space.dim
        assert equality_residual(back, space) < 1e-12


# Leaves of the fuzzed JSON: every JSON type, plus the non-finite floats, the
# floats that overflow a norm and the ints beyond the float range.
extremes = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 1e160, 5e-324, 10**400])
leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.integers(),
    st.floats(allow_nan=True, allow_infinity=True), extremes,
    st.text(max_size=4), st.sampled_from(["0", "1", "01", "10", "110"]),
)
json_trees = st.recursive(
    leaves,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(
        st.sampled_from(["n", "basis", "label", "re", "im", "bits"]) | st.text(max_size=3),
        kids, max_size=4),
    max_leaves=16,
)


@st.composite
def code_specs(draw):
    """Arbitrary JSON now and then; mostly a code description whose parts are
    each sometimes replaced by arbitrary JSON or an extreme number.

    The kets of one description sit on disjoint bitstrings, so most valid
    descriptions are orthogonal and reach the analysis.
    """
    def junk(p, clean, other=leaves):
        return draw(other) if draw(st.integers(0, 99)) < p else draw(clean)

    if draw(st.integers(0, 7)) == 0:
        return draw(json_trees)
    n = junk(15, st.integers(1, 3))
    width = n if type(n) is int and 1 <= n <= 3 else 2
    k = draw(st.integers(1, min(3, 1 << width)))
    basis = []
    for i in range(k):
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            index = st.integers(0, ((1 << width) - 1 - i) // k).map(lambda m: i + k * m)
            bits = junk(5, index.map(lambda b: format(b, f"0{width}b")))
            amp = junk(15, st.floats(-2.0, 2.0) | st.integers(-3, 3), extremes | leaves)
            term = junk(5, st.sampled_from([[amp, bits], {"re": amp, "bits": bits},
                                            {"re": 0.5, "im": amp, "bits": bits}]), json_trees)
            terms.append(term)
        basis.append(terms)
    spec = {"n": n, "basis": junk(5, st.just(basis), json_trees)}
    if draw(st.booleans()):
        spec["label"] = draw(json_trees)
    return spec


def _no_constant(name):
    raise AssertionError(f"report contains {name}")


def _cli_on_file(text, *argv):
    """Run the CLI with argv and the path of a file holding text appended."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main([*argv, str(path)])
    return status, out.getvalue(), err.getvalue()


def _assert_ends_cleanly(status, out, err):
    if status == 0:
        assert err == ""
        json.loads(out, parse_constant=_no_constant)
    else:
        assert status == 1 and out == ""
        assert re.fullmatch(r"qerasure: error\[[a-z-]+\] [^\n]*\n", err), err
        assert "error[internal]" not in err


@settings(PROPERTY, max_examples=200)
@given(code_specs())
def test_fuzzed_ingest_ends_cleanly(spec):
    _assert_ends_cleanly(*_cli_on_file(json.dumps(spec), "analyze", "--code"))


# A gate as four [re, im] rows, row-major: H and S
GATE_ROWS = [[[0.5**0.5, 0], [0.5**0.5, 0], [0.5**0.5, 0], [-(0.5**0.5), 0]],
             [[1, 0], [0, 0], [0, 0], [0, 1]]]
gates = st.sampled_from(["I", "X", "Y", "Z", "H", "S"]) | st.sampled_from(GATE_ROWS)


@st.composite
def transform_docs(draw):
    """Arbitrary JSON now and then; mostly a four-qubit transform whose perm
    and locals are each sometimes left out or replaced by arbitrary JSON,
    one gate now and then too, with a stray key now and then."""
    def junk(p, clean):
        return draw(json_trees) if draw(st.integers(0, 99)) < p else draw(clean)

    if draw(st.integers(0, 7)) == 0:
        return draw(json_trees)
    doc = {}
    if draw(st.booleans()):
        doc["perm"] = junk(5, st.permutations(range(4)))
    if draw(st.booleans()):
        locals_ = [draw(gates) for _ in range(4)]
        if draw(st.integers(0, 19)) == 0:
            locals_[draw(st.integers(0, 3))] = draw(json_trees)
        doc["locals"] = junk(5, st.just(locals_))
    if draw(st.integers(0, 19)) == 0:
        doc[draw(st.text(max_size=3))] = draw(json_trees)
    return doc


@settings(PROPERTY, max_examples=100)
@given(transform_docs())
def test_fuzzed_transform_ends_cleanly(doc):
    _assert_ends_cleanly(*_cli_on_file(json.dumps(doc), "theorem-check", "--fixture", "gbp",
                                       "--transform"))


# Amplitude parts: small numbers, signed zeros, values at the edges of the
# float range (sums and squares overflow or underflow), and, now and then,
# what ingest refuses.
AMPLITUDE_EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, 3, -2, 1e308, -1e308, sys.float_info.max,
                   -sys.float_info.max, 1e160, 1e-170, -1e-170, 1e-162, 5e-324, 2**1023]
BAD_AMPLITUDES = [float("nan"), float("inf"), -float("inf"), True, "1", None, 10**400, [1.0]]


@st.composite
def ingest_specs(draw):
    """A code description whose kets are drawn mostly on disjoint bitstrings, so
    that many are accepted; its terms are pairs or objects, with repeated
    bitstrings.  In half the specs, terms now and then carry a bad amplitude,
    a bad bitstring or a stray key, and kets may be empty, in any number of
    places."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    faulty = draw(st.booleans())
    shared = draw(st.integers(0, 3)) == 0  # kets on shared bitstrings: overlaps
    good = st.one_of(st.floats(0.1, 4), st.floats(-4, -0.1), st.floats(-4, 4),
                     st.integers(-3, 3), *[st.sampled_from(AMPLITUDE_EDGES)] * faulty)
    bad = st.sampled_from(BAD_AMPLITUDES) if faulty else good
    part = st.one_of(*[good] * 15, bad)
    basis = []
    for ket in range(k):
        pool = [format(b, f"0{n}b") for b in range(1 << n) if shared or b % k == ket]
        bits = st.sampled_from(pool) if pool else st.just("0" * n)
        if faulty and draw(st.integers(0, 9)) == 0:
            bits = bits | st.sampled_from(["0" * (n + 1), "2" * n, 5, None, " " + "0" * (n - 1)])
        terms = []
        for _ in range(draw(st.integers(0 if faulty else 1, 5))):
            if draw(st.booleans()):
                terms.append((draw(part), draw(bits)))
                continue
            term = {"bits": draw(bits)}
            for key in ("re", "im"):
                if draw(st.integers(0, 3)):
                    term[key] = draw(part)
            if faulty and draw(st.integers(0, 29)) == 0:
                term["phase"] = 0
            terms.append(term)
        basis.append(terms)
    return {"n": n, "label": "drawn", "basis": basis}


def _ingest_outcome(ingest, spec):
    """The amplitudes' bytes, or the message, of one ingest of spec."""
    try:
        code = ingest(spec)
    except CodeValidationError as exc:
        return "refused", str(exc)
    return "accepted", code.label, code.basis.tobytes()


@settings(PROPERTY, max_examples=600)
@given(ingest_specs())
def test_ingest_matches_its_per_term_reference(spec):
    assert _ingest_outcome(ingest_code, spec) == _ingest_outcome(_loop_route.ingest_code, spec)


# A first fault at ket 1, term 1, after a good ket and a good term: (term, the
# message, or None when the term is accepted).  Every message of
# codes._read_terms appears, each as the per-term reference words it.
FIRST_FAULTS = {
    "int-pair": ([2, "010"], None),
    "int-parts": ({"re": 1, "im": -3, "bits": "010"}, None),
    "float-pair": ([0.25, "010"], None),
    "no-re": ({"im": 1.0, "bits": "010"}, None),
    "no-im": ({"re": 1.0, "bits": "010"}, None),
    "true-re": ({"re": True, "bits": "010"}, "amplitude True, 0.0 is not a finite number"),
    "true-pair": ([True, "010"], "amplitude True, 0.0 is not a finite number"),
    "nan-re": ({"re": math.nan, "bits": "010"}, "amplitude nan, 0.0 is not a finite number"),
    "inf-im": ({"re": 1.0, "im": math.inf, "bits": "010"},
               "amplitude 1.0, inf is not a finite number"),
    "minus-inf-pair": ([-math.inf, "010"], "amplitude -inf, 0.0 is not a finite number"),
    "int-beyond-float": ([10**400, "010"], f"amplitude {10**400!r}, 0.0 is not a finite number"),
    "unknown-key": ({"re": 1.0, "bits": "010", "phase": 0}, "unknown term keys ['phase']"),
    "no-bits": ({"re": 1.0}, "bitstring None is not 3 bits"),
    "bits-too-long": ([1.0, "0100"], "bitstring '0100' is not 3 bits"),
    "bits-not-binary": ({"re": 1.0, "bits": "012"}, "bitstring '012' is not 3 bits"),
    "bits-not-a-string": ([1.0, 2], "bitstring 2 is not 3 bits"),
    "one-element": ([1.0], "a term must be [amplitude, bits] or an object of re, im and "
                           "bits; got [1.0]"),
}


@pytest.mark.parametrize("name", sorted(FIRST_FAULTS))
def test_ingest_refuses_the_first_bad_term_as_its_reference_does(name):
    term, message = FIRST_FAULTS[name]
    spec = {"n": 3, "label": "first-fault",
            "basis": [[[1.0, "000"], {"re": 1.0, "bits": "111"}],
                      [{"re": 0.5, "im": 0.0, "bits": "001"}, term, [1.0, "110"]]]}
    outcome = _ingest_outcome(ingest_code, spec)
    if message is None:
        assert outcome[:2] == ("accepted", "first-fault")
    else:
        assert outcome == ("refused", f"basis vector 1: {message}")
    if name != "one-element":  # the reference unpacks a pair without naming the shape
        assert outcome == _ingest_outcome(_loop_route.ingest_code, spec)


@pytest.mark.parametrize("ket, reason", [
    ([[1.0, "000"], [-1.0, "000"]], "is the zero vector"),
    ([[1e-170, "000"]], "has a norm below the float range"),
    ([[1e308, "000"], [1e308, "000"]], "has a norm beyond the float range"),
], ids=["zero", "underflow", "overflow"])
def test_a_bad_norm_before_a_bad_term_is_reported_first(ket, reason):
    spec = {"n": 3, "basis": [[[1.0, "111"]], ket, [[1.0, "011"], [math.nan, "001"]]]}
    outcome = _ingest_outcome(ingest_code, spec)
    assert outcome == ("refused", f"basis vector 1 {reason}")
    assert outcome == _ingest_outcome(_loop_route.ingest_code, spec)


@st.composite
def random_frames(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 1 << n))
    return random_code(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n, k)


@settings(max_examples=40, deadline=None, database=None)
@given(random_frames())
def test_closed_form_spaces_match_svd_route(code):
    # the closed forms are real; the SVD route factors the complex condition rows
    for closed, svd in CLOSED_FORMS:
        space, oracle = closed(code), svd(code)
        assert space.complement.dtype == np.float64
        assert oracle.complement.dtype == np.complex128
        assert space.dim == oracle.dim
        assert equality_residual(space, oracle) < 1e-12
        assert_orthonormal(space, 1e-12)


@st.composite
def complex_constraints(draw):
    """Complex rows R on n <= 3 qubits, at most half as many as coordinates."""
    n = draw(st.integers(1, 3))
    dim = 4**n
    r = draw(st.integers(1, dim // 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return n, rng.standard_normal((r, dim)) + 1j * rng.standard_normal((r, dim))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(complex_constraints())
def test_hermitian_basis_of_complex_adjoint_closed_spaces(case):
    # R stacked with conj(R) cuts out an adjoint-closed space (v -> conj(v)
    # swaps the two blocks) whose complement is complex; R alone does not
    n, rows = case
    space = OperatorSubspace(n, wide_nullspace_complement(np.vstack([rows, rows.conj()])))
    assert space.complement.dtype == np.complex128
    vecs = hermitian_basis(space)
    assert len(vecs) == space.dim
    out = np.reshape(vecs, (space.dim, 4**n)).T
    assert np.max(np.abs(out.imag), initial=0) < 1e-12  # Hermitian: real coordinates
    assert np.max(np.abs(out.T @ out - np.eye(space.dim)), initial=0) < 1e-10
    assert all(space.member_residual(v) < 1e-10 for v in out.T)
    with pytest.raises(ValueError):
        hermitian_basis(OperatorSubspace(n, wide_nullspace_complement(rows)))
