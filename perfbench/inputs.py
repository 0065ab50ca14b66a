"""Seeded inputs and reference values for the benchmark, built with numpy alone.

Nothing here imports qerasure.  Codes, transforms and the numbers the
program's outputs are checked against come from a separate implementation of
the package's documented conventions: qubit 0 is the most significant bit of
an amplitude index, and a transform applies its per-qubit locals first, then
moves qubit j to position perm[j].
"""

from __future__ import annotations

import numpy as np

GATES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
}
PAULIS = ("I", "X", "Y", "Z")
CLIFFORDS = ("I", "X", "Y", "Z", "H", "S")
ELEMENT_TOL = 1e-9  # matrix-element tolerance of the membership conditions


# --- states and transforms ---------------------------------------------------

def ket(n: int, terms) -> np.ndarray:
    v = np.zeros(1 << n, dtype=complex)
    for amp, bits in terms:
        v[int(bits, 2)] += amp
    return v / np.linalg.norm(v)


def kron(mats) -> np.ndarray:
    """Tensor product, first factor on the most significant index bits."""
    out = np.ones((1, 1), dtype=complex)
    for m in mats:
        out = (out[:, None, :, None] * m[None, :, None, :]).reshape(
            out.shape[0] * m.shape[0], out.shape[1] * m.shape[1])
    return out


def apply(cols: np.ndarray, n: int, locals_, perm) -> np.ndarray:
    """Apply per-qubit 2x2 locals, then move qubit j to position perm[j]."""
    state = (kron(locals_) @ cols).reshape((2,) * n + (cols.shape[1],))
    state = np.moveaxis(state, list(range(n)), list(perm))
    return state.reshape(1 << n, cols.shape[1])


def _orbit(bits: str) -> list[str]:
    out, s = [], bits
    for _ in bits:
        if s not in out:
            out.append(s)
        s = s[-1] + s[:-1]
    return out


def base_codes() -> dict[str, tuple[int, np.ndarray]]:
    """The four bundled fixtures and the six-qubit test code, as (n, 2^n x K)."""
    gbp = np.column_stack([ket(4, [(1, a), (1, b)]) for a, b in
                           (("0000", "1111"), ("0110", "1001"),
                            ("0101", "1010"), ("1100", "0011"))])
    gbp_pair = ([GATES[c] for c in "IIIY"], range(4))
    terms = [(1.0, "00000")]
    for sign, seed in ((-1.0, "00011"), (1.0, "00101"), (-1.0, "01111")):
        terms += [(sign, b) for b in _orbit(seed)]
    rains = ket(5, terms)[:, None]
    rains_union = np.column_stack(
        [rains] + [apply(rains, 5, *rains_component(i)) for i in range(5)])
    six = np.column_stack([ket(6, [(1, "000000"), (1, "111111")]),
                           ket(6, [(1, "010101"), (1, "101010")])])
    return {
        "gbp": (4, gbp),
        "gbp-union": (4, np.column_stack([gbp, apply(gbp, 4, *gbp_pair)])),
        "rains-subcode": (5, rains),
        "rains-union": (5, rains_union),
        "six": (6, six),
    }


def rains_component(i: int):
    """X on qubits 2, 3, 4, then i cyclic shifts j -> j+i mod 5."""
    return [GATES[c] for c in "IIXXX"], [(j + i) % 5 for j in range(5)]


# Orthogonal partners of the base codes: (locals, perm) with U C orthogonal to C.
def fixture_partner(name: str, rng) -> tuple[list[np.ndarray], list[int]]:
    if name in ("gbp", "six"):
        n = 4 if name == "gbp" else 6
        return [GATES["I"]] * (n - 1) + [GATES["Y"]], list(range(n))
    if name == "rains-subcode":
        return rains_component(int(rng.integers(5)))
    raise KeyError(name)


def random_clifford_locals(rng, n: int) -> list[np.ndarray]:
    """Per-qubit products of two gates from {I,X,Y,Z,H,S}: local Cliffords."""
    return [GATES[CLIFFORDS[a]] @ GATES[CLIFFORDS[b]]
            for a, b in rng.integers(len(CLIFFORDS), size=(n, 2))]


def random_frame(rng, n: int, k: int) -> np.ndarray:
    """Random orthonormal K-frame supported on the |0> half of qubit 0."""
    half = 1 << (n - 1)
    m = rng.standard_normal((half, k)) + 1j * rng.standard_normal((half, k))
    out = np.zeros((1 << n, k), dtype=complex)
    out[:half] = np.linalg.qr(m)[0]
    return out


def frame_partner(rng, n: int, tag: str) -> tuple[list[np.ndarray], list[int]]:
    """X or Y on qubit 0 (so the image is orthogonal), random locals elsewhere.

    tag "pauli" draws the other locals from {I,X,Y,Z}; tag "dense" draws from
    {I,X,Y,Z,H,S} with at least one H or S.  The permutation fixes qubit 0.
    """
    names = [PAULIS[rng.integers(1, 3)]]
    pool = PAULIS if tag == "pauli" else CLIFFORDS
    rest = [pool[i] for i in rng.integers(len(pool), size=n - 1)]
    if tag == "dense" and not set(rest) & {"H", "S"}:
        rest[int(rng.integers(n - 1))] = "HS"[int(rng.integers(2))]
    perm = [0] + [int(p) + 1 for p in rng.permutation(n - 1)]
    return [GATES[c] for c in names + rest], perm


def conjugate_pair(rng, n: int, code: np.ndarray, partner):
    """A fresh copy of (code, partner): V code and V U V^dagger.

    V is a random qubit permutation after random Pauli locals, so the new
    partner stays a permutation-plus-Pauli-locals transform.
    """
    lv = [GATES[PAULIS[i]] for i in rng.integers(4, size=n)]
    sigma = [int(p) for p in rng.permutation(n)]
    mu, pi = partner
    inv = [0] * n
    for j, s in enumerate(sigma):
        inv[s] = j
    # V U V^dagger = P_{sigma pi sigma^-1} (x)_p L_{pi(q)} M_q L_q^dagger, q = sigma^-1(p)
    new_locals = [lv[pi[inv[p]]] @ mu[inv[p]] @ lv[inv[p]].conj().T for p in range(n)]
    new_perm = [sigma[pi[inv[p]]] for p in range(n)]
    new_code = apply(code, n, lv, sigma)
    expected = apply(apply(code, n, mu, pi), n, lv, sigma)
    if not np.allclose(apply(new_code, n, new_locals, new_perm), expected, atol=1e-12):
        raise AssertionError("conjugated partner does not reproduce V U C")
    return new_code, (new_locals, new_perm)


def is_orthogonal_pair(code: np.ndarray, n: int, partner) -> bool:
    image = apply(code, n, *partner)
    return float(np.max(np.abs(code.conj().T @ image))) < ELEMENT_TOL


# --- JSON forms accepted by the program --------------------------------------

def code_spec(code: np.ndarray, n: int, label: str) -> dict:
    basis = []
    for col in code.T:
        basis.append([
            {"re": float(a.real), "im": float(a.imag), "bits": format(int(i), f"0{n}b")}
            for i, a in enumerate(col) if abs(a) > 1e-14
        ])
    return {"n": n, "label": label, "basis": basis}


def spec_matrix(spec: dict) -> np.ndarray:
    """Basis columns of a code_spec, read back without the program."""
    n = spec["n"]
    out = np.zeros((1 << n, len(spec["basis"])), dtype=complex)
    for col, terms in enumerate(spec["basis"]):
        for t in terms:
            out[int(t["bits"], 2), col] += complex(t["re"], t["im"])
    return out


def _local_json(m: np.ndarray):
    for name, g in GATES.items():
        if np.array_equal(m, g):
            return name
    return [[float(z.real), float(z.imag)] for z in m.reshape(-1)]


def transform_spec(partner) -> dict:
    locals_, perm = partner
    return {"perm": list(perm), "locals": [_local_json(m) for m in locals_]}


def pauli_matrix(label: str) -> np.ndarray:
    return kron(GATES[c] for c in label)


# --- reference values (the independent route) --------------------------------

def pauli_grams(code: np.ndarray, n: int) -> np.ndarray:
    """<c_i| X^x Z^z |c_j> for every mask pair, shape (2^n, 2^n, K, K), index [x, z]."""
    d, k = code.shape
    b = np.arange(d)
    signs = 1.0 - 2.0 * (np.bitwise_count(b[:, None] & b[None, :]) & 1)
    out = np.empty((d, d, k, k), dtype=complex)
    for x in range(d):
        m = code[b ^ x].conj()[:, :, None] * code[:, None, :]
        out[x] = (signs @ m.reshape(d, k * k)).reshape(d, k, k)
    return out


def member_flags(grams: np.ndarray, pure: bool) -> np.ndarray:
    """Membership of each operator whose K x K code block is given."""
    k = grams.shape[-1]
    eye = np.eye(k, dtype=bool)
    diag = np.diagonal(grams, axis1=-2, axis2=-1)
    off_ok = np.all((np.abs(grams) < ELEMENT_TOL) | eye, axis=(-2, -1))
    if pure:
        return off_ok & np.all(np.abs(diag) < ELEMENT_TOL, axis=-1)
    return off_ok & np.all(np.abs(diag - diag[..., :1]) < ELEMENT_TOL, axis=-1)


def _rank(rows: np.ndarray) -> int:
    s = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(s > 1e-8 * s[0])) if s.size else 0


def reference(code: np.ndarray, n: int) -> dict:
    """Dimensions, distances and per-weight tallies of a code, from scratch."""
    grams = pauli_grams(code, n)
    d, k = code.shape
    masks = np.arange(d)
    weights = np.bitwise_count(masks[:, None] | masks[None, :])
    flat = grams.reshape(d * d, k * k).T
    out = {}
    for key, pure in (("erasure", False), ("pure", True)):
        g = grams.copy()
        if pure:
            g[0, 0] -= np.eye(k)  # the identity's required value is tr/2^n = 1
        member = member_flags(g, pure)
        rows = [(w, int(np.sum(member & (weights == w))), int(np.sum(~member & (weights == w))))
                for w in range(n + 1)]
        failing = weights[~member]
        distance = int(failing.min()) if failing.size else n + 1
        if pure:
            cons = flat.copy()
            cons[np.arange(0, k * k, k + 1), 0] -= 1.0
        else:
            off = [i * k + j for i in range(k) for j in range(k) if i != j]
            cons = np.vstack([flat[off], flat[[(i * k + i) for i in range(1, k)]] - flat[0]])
        out[key] = {
            "dim": d * d - (_rank(cons) if cons.size else 0),
            "distance": distance,
            "degenerate": distance == n + 1,
            "rows": rows,
        }
    return out


def anchor_references(refs: dict) -> None:
    """The numbers the test suite pins for the bundled codes."""
    gbp, union = refs["gbp"], refs["rains-union"]
    if (gbp["erasure"]["dim"], gbp["pure"]["dim"], gbp["erasure"]["distance"]) != (241, 240, 2):
        raise AssertionError(f"gbp reference is off: {gbp}")
    if union["erasure"]["rows"][2][2] != 60:
        raise AssertionError(f"rains-union weight-2 reference is off: {union['erasure']['rows']}")

