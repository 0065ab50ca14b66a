"""Property tests (hypothesis, derandomized) on up to four qubits.

The transform adjoint, the Pauli group laws of the mask arithmetic, and the
ingest boundary of the command line against arbitrary JSON.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qerasure import (
    CodeTransform,
    Ket,
    PauliOperator,
    UnitaryAction,
    apply_transform,
    dagger,
    multiply,
    pauli_to_string,
    to_matrix,
)
from qerasure.cli import main

from _oracle import dense_pauli

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
    return t, Ket(n, amps)


@PROPERTY
@given(transforms_and_kets())
def test_transform_adjoint_round_trip(case):
    t, k = case
    back = apply_transform(t.adjoint(), apply_transform(t, k))
    assert np.allclose(back.amplitudes, k.amplitudes, atol=1e-12)
    u = UnitaryAction.from_transform(t).matrix
    assert np.allclose(UnitaryAction.from_transform(t.adjoint()).matrix, u.conj().T, atol=1e-12)


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
    assert np.allclose(to_matrix(dagger(p)), to_matrix(p).conj().T, atol=1e-12)
    ident = multiply(p, dagger(p))
    assert (ident.x_mask, ident.z_mask, ident.phase) == (0, 0, 0)


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


@settings(PROPERTY, max_examples=200)
@given(code_specs())
def test_fuzzed_ingest_ends_cleanly(spec):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "code.json"
        path.write_text(json.dumps(spec))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(["analyze", "--code", str(path)])
    out, err = out.getvalue(), err.getvalue()
    if status == 0:
        assert err == ""
        json.loads(out, parse_constant=_no_constant)
    else:
        assert status == 1 and out == ""
        assert re.fullmatch(r"qerasure: error\[[a-z-]+\] [^\n]*\n", err), err
        assert "error[internal]" not in err
