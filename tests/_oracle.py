"""Dense brute-force reference implementations used to check the fast paths.

Everything here works on explicit 2^n x 2^n matrices built with np.kron and
plain SVD linear algebra.  Nothing imports from the qerasure package, so these
routines stay an independent route to the same answers.

Conventions match the library: qubit 0 is the leftmost tensor factor and the
most significant bit of a basis-state index; Y = [[0,-1j],[1j,0]].
"""

import itertools

import numpy as np

SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_all(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def dense_pauli(letters):
    """Dense matrix of a Pauli string given as e.g. 'IXZY' (qubit 0 first)."""
    return kron_all([SINGLE[ch] for ch in letters])


def transform_matrix(perm, local_mats):
    """Dense matrix of the per-qubit locals, then qubit j moved to position perm[j]."""
    n = len(perm)
    move = np.zeros((2**n, 2**n), dtype=complex)
    for b in range(2**n):
        moved = ["0"] * n
        for j, ch in enumerate(format(b, f"0{n}b")):
            moved[perm[j]] = ch
        move[int("".join(moved), 2), b] = 1.0
    return move @ kron_all(local_mats)


def conjugate_letters(letters, perm, local_letters):
    """U P U^dagger as (sign, letter string), for P = dense_pauli(letters) and
    U = transform_matrix(perm, [SINGLE[ch] for ch in local_letters]).

    A local Pauli commutes or anticommutes with the factor it meets (two
    non-identity letters anticommute unless equal), so each anticommuting
    pair flips the sign, and factor j then moves to position perm[j].
    """
    sign = 1
    out = ["I"] * len(letters)
    for j, (ch, loc) in enumerate(zip(letters, local_letters)):
        if "I" not in (ch, loc) and ch != loc:
            sign = -sign
        out[perm[j]] = ch
    return sign, "".join(out)


def all_pauli_letterings(n, weights=None):
    """All letter strings over {I,X,Y,Z}, optionally restricted by weight."""
    out = []
    for letters in itertools.product("IXYZ", repeat=n):
        w = sum(ch != "I" for ch in letters)
        if weights is None or w in weights:
            out.append("".join(letters))
    return out


def sorted_paulis(n):
    """Letter strings in (weight, x_mask, z_mask) order, the library's order."""

    def key(letters):
        x = sum(1 << i for i, ch in enumerate(letters) if ch in "XY")
        z = sum(1 << i for i, ch in enumerate(letters) if ch in "ZY")
        w = sum(ch != "I" for ch in letters)
        return (w, x, z)

    return sorted(all_pauli_letterings(n), key=key)


def ket_from_terms(n, terms):
    """terms: list of (amplitude, bitstring); returns normalized vector."""
    v = np.zeros(2**n, dtype=complex)
    for amp, bits in terms:
        v[int(bits, 2)] += amp
    return v / np.linalg.norm(v)


def code_matrix(kets):
    """Stack kets as columns: shape (2^n, K)."""
    return np.column_stack(kets)


def gram(C, E):
    """All code matrix elements <c_i|E|c_j> as a K x K matrix."""
    return C.conj().T @ E @ C


def erasure_member_dense(C, E, tol=1e-9):
    G = gram(C, E)
    off = G - np.diag(np.diag(G))
    diag = np.diag(G)
    return np.max(np.abs(off)) < tol and np.max(np.abs(diag - diag.mean())) < tol


def pure_member_dense(C, E, tol=1e-9):
    G = gram(C, E)
    n = int(round(np.log2(C.shape[0])))
    target = (np.trace(E) / 2**n) * np.eye(C.shape[1])
    return np.max(np.abs(G - target)) < tol


def _grams_by_pauli(C, n):
    return np.array([gram(C, dense_pauli(s)) for s in sorted_paulis(n)])


def erasure_constraint_matrix(C, n):
    """Rows of the erasure condition system over the sorted Pauli order."""
    grams = _grams_by_pauli(C, n)
    K = C.shape[1]
    rows = []
    for i in range(K):
        for j in range(K):
            if i != j:
                rows.append(grams[:, i, j])
    for i in range(1, K):
        rows.append(grams[:, i, i] - grams[:, 0, 0])
    return np.array(rows, dtype=complex)


def pure_constraint_matrix(C, n):
    grams = _grams_by_pauli(C, n)
    labels = sorted_paulis(n)
    K = C.shape[1]
    rows = []
    for i in range(K):
        for j in range(K):
            row = grams[:, i, j].copy()
            if i == j:
                row[labels.index("I" * n)] -= 1.0
            rows.append(row)
    return np.array(rows, dtype=complex)


def zero_block_constraint_matrix(C, n):
    """Rows demanding every code matrix element of the operator vanish."""
    grams = _grams_by_pauli(C, n)
    K = C.shape[1]
    return np.array([grams[:, i, j] for i in range(K) for j in range(K)],
                    dtype=complex)


def svd_rank(M, rtol=1e-8):
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > rtol * s[0]))


def min_distance_dense(C, n, member=erasure_member_dense):
    """Smallest Pauli weight failing the membership test; n+1 if none fails."""
    for w in range(n + 1):
        for s in all_pauli_letterings(n, weights={w}):
            if not member(C, dense_pauli(s)):
                return w
    return n + 1


def violators_dense(C, n, weight, member=erasure_member_dense):
    return [
        s
        for s in sorted_paulis(n)
        if sum(ch != "I" for ch in s) == weight and not member(C, dense_pauli(s))
    ]
