"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 4 settles the six-component union's weight-two violator set
by a second route: the dense oracle, on kets rebuilt from bitstrings, finds
the same 60 operators as the package (12 cyclic orbits).  Each of the 60 has
nonzero code matrix elements only between one component pair (a, b), of
modulus 1, and each of the 15 pairs owns 4 of them.  The 20-operator
reference list is exactly the violators whose pair contains the subcode:
the base-vs-image violators of the code-plus-one-image case.  A second "20"
is the weight-two Shor-Laflamme sum B_2 - A_2, to which each violator adds
1/3.
"""

import json
import subprocess
import sys

import numpy as np

from qerasure import (
    QuantumCode,
    check_erasure,
    check_pure,
    classify_paulis,
    containment_residual,
    cross_check_intersection_formulas,
    enumerate_paulis,
    erasure_space,
    fixture_gbp_code,
    fixture_rains_subcode,
    gbp_pair_transform,
    get_fixture,
    minimum_distance,
    pauli_from_string,
    pauli_to_string,
    pure_distance,
    pure_erasure_space,
    rains_component_transform,
    rains_orbit_codes,
    union_code,
    weight,
)

from _oracle import (
    code_matrix,
    dense_pauli,
    erasure_member_dense,
    gram,
    ket_from_terms,
    pure_constraint_matrix,
    pure_member_dense,
    sorted_paulis,
    svd_rank,
    violators_dense,
)
from _svd_route import intersect
from conftest import random_code, random_orthogonal_pair, src_env


def cyclic_orbit(label):
    out, s = [], label
    for _ in range(len(label)):
        if s not in out:
            out.append(s)
        s = s[-1] + s[:-1]
    return out


LISTED_W3 = set(cyclic_orbit("IIYZY")) | set(cyclic_orbit("IZIXX"))
LISTED_W2 = (set(cyclic_orbit("XZIII")) | set(cyclic_orbit("ZXIII"))
             | set(cyclic_orbit("ZIYII")) | set(cyclic_orbit("YIZII")))
# All weight-2 violators of the rains union: 12 cyclic orbits of 5.
UNION_W2 = set().union(*(cyclic_orbit(p) for p in (
    "XZIII", "ZXIII", "ZIYII", "YIZII", "XYIII", "YXIII",
    "YYIII", "ZZIII", "XIXII", "XIYII", "YIXII", "ZIZII")))


def rains_union_kets_dense():
    """The rains union's six kets in union order, built from bitstrings.

    Component 0 is |00000> - orbit(00011) + orbit(00101) - orbit(01111);
    component i+1 flips bits 2, 3, 4 of every term and then shifts each bit
    position j to j+i mod 5.
    """
    terms = [(1.0, "00000")]
    for sign, seed in ((-1.0, "00011"), (1.0, "00101"), (-1.0, "01111")):
        terms += [(sign, bits) for bits in cyclic_orbit(seed)]

    def image(bits, i):
        flipped = bits[:2] + "".join("1" if b == "0" else "0" for b in bits[2:])
        return flipped[-i:] + flipped[:-i]

    kets = [ket_from_terms(5, terms)]
    kets += [ket_from_terms(5, [(a, image(b, i)) for a, b in terms]) for i in range(5)]
    return code_matrix(kets)


def test_c01_rains_subcode_purity():
    code = fixture_rains_subcode()
    low_weight = [p for p in enumerate_paulis(5, 2) if weight(p) > 0]
    assert len(low_weight) == 105
    assert all(check_pure(code, p).member for p in low_weight)
    for label in LISTED_W3:
        assert not check_pure(code, pauli_from_string(label)).member
    assert pure_distance(code) == 3
    print("ACCEPTANCE C01 PASS: all 105 weight<=2 Paulis pure-pass, "
          "both listed weight-3 orbits fail, pure distance 3")


def test_c02_weight3_violator_count():
    code = fixture_rains_subcode()
    table = classify_paulis(code, 3, pure=True)
    count = table[3].non_members
    found = set(table[3].violators)
    print(f"ACCEPTANCE C02: weight-3 pure violators computed = {count}, "
          f"listed orbits hold {len(LISTED_W3)}")
    # second route: the dense oracle on the subcode's ket
    mat = code.basis
    assert found == set(violators_dense(mat, 5, 3, member=pure_member_dense))
    assert found == LISTED_W3
    assert count == len(LISTED_W3) == 10
    print("ACCEPTANCE C02 PASS: exactly the 10 operators of the two listed "
          "orbits violate, as the dense oracle confirms")


def test_c03_rains_union_construction():
    components = rains_orbit_codes()
    mats = [c.basis for c in components]
    worst = 0.0
    for i in range(6):
        for j in range(i + 1, 6):
            worst = max(worst, float(np.max(np.abs(mats[i].conj().T @ mats[j]))))
    assert worst < 1e-9
    union, report = union_code(components)
    assert (union.n, union.k) == (5, 6)
    print(f"ACCEPTANCE C03 PASS: six components mutually orthogonal "
          f"(max overlap {worst:.1e}), union is N=5, K=6")


def test_c04_rains_union_distance_and_violators():
    union = get_fixture("rains-union")
    assert minimum_distance(union) == 2
    table = classify_paulis(union, 2)
    assert table[1].non_members == 0 and table[1].members == 15
    found = set(table[2].violators)
    print(f"ACCEPTANCE C04: distance 2 and all 15 weight-1 members confirmed; "
          f"weight-2 non-members computed = {len(found)}, reference list has "
          f"{len(LISTED_W2)}; listed subset of computed: {LISTED_W2 <= found}")

    # second route: the dense oracle on kets rebuilt from bitstrings
    mat = union.basis
    assert np.max(np.abs(mat - rains_union_kets_dense())) < 1e-12
    assert found == set(violators_dense(mat, 5, 2))
    assert found == UNION_W2

    # attribute each violator to the component pair whose conditions it breaks
    k = union.k
    by_pair = {}
    sl_sum = 0.0
    for label in sorted_paulis(5):
        if sum(ch != "I" for ch in label) != 2:
            continue
        g = gram(mat, dense_pauli(label))
        term = np.linalg.norm(g) ** 2 / k - abs(np.trace(g)) ** 2 / k**2
        sl_sum += term
        if label not in found:
            continue
        assert abs(term - 1 / 3) < 1e-9, (label, term)
        assert np.max(np.abs(np.diag(g) - g[0, 0])) < 1e-9, label
        off = g - np.diag(np.diag(g))
        live = {(int(i), int(j)) for i, j in np.argwhere(np.abs(off) > 1e-9)}
        a, b = min(live)
        assert live == {(a, b), (b, a)} and abs(abs(g[a, b]) - 1) < 1e-9, label
        by_pair.setdefault((a, b), set()).add(label)
    assert sorted(by_pair) == [(a, b) for a in range(k) for b in range(a + 1, k)]
    assert all(len(ops) == 4 for ops in by_pair.values())
    base_vs_image = set().union(*(by_pair[(0, i)] for i in range(1, k)))
    assert base_vs_image == LISTED_W2
    assert abs(sl_sum - 20) < 1e-9
    print(f"ACCEPTANCE C04: dense oracle finds the same {len(found)} violators; "
          f"{len(by_pair)} component pairs own 4 each; pairs (0, i) own "
          f"{len(base_vs_image)} = the reference list, pairs (a, b) with "
          f"1 <= a < b own {len(found - base_vs_image)}; weight-2 "
          f"Shor-Laflamme sum {sl_sum:.6f} = {len(found)} x 1/3")
    print("ACCEPTANCE C04 PASS")


def test_c05_gbp_fixture():
    code = fixture_gbp_code()
    singles = [p for p in enumerate_paulis(4, 1) if weight(p) == 1]
    assert len(singles) == 12
    assert all(check_erasure(code, p).member for p in singles)
    assert minimum_distance(code) == 2
    print("ACCEPTANCE C05 PASS: all 12 weight-1 Paulis pass, distance 2")


def test_c06_gbp_union():
    base = fixture_gbp_code()
    image_transform = gbp_pair_transform()
    from qerasure import transform_code

    union, report = union_code([base, transform_code(base, image_transform)])
    assert report.k == 8
    assert minimum_distance(union) == 1
    xz_singles = [f"{'I' * i}{letter}{'I' * (3 - i)}" for i in range(4)
                  for letter in "XZ"]
    assert len(xz_singles) == 8
    for label in xz_singles:
        assert check_erasure(union, pauli_from_string(label)).member
    violators = [pauli_to_string(p) for p in enumerate_paulis(4, 1)
                 if weight(p) == 1 and not check_erasure(union, p).member]
    assert violators
    print(f"ACCEPTANCE C06 PASS: K=8, distance 1, all single X/Z members; "
          f"weight-1 non-members found by scan: {violators}")


def test_c07_erasure_formula_cross_validation():
    results = []
    report = cross_check_intersection_formulas(fixture_gbp_code(), gbp_pair_transform())
    assert report["theorem4"]["matches_direct"], report
    results.append(("gbp", report["theorem4"]["dim"], report["theorem4"]["residual"]))
    base = fixture_rains_subcode()
    for i in range(5):
        rep = cross_check_intersection_formulas(base, rains_component_transform(i))
        assert rep["theorem4"]["matches_direct"], (i, rep)
        results.append((f"pair{i}", rep["theorem4"]["dim"], rep["theorem4"]["residual"]))
    summary = ", ".join(f"{name}: dim {dim} resid {res:.1e}" for name, dim, res in results)
    print(f"ACCEPTANCE C07 PASS: erasure-space formula equals direct on {summary}")


def test_c08_pure_formula_cross_validation():
    report = cross_check_intersection_formulas(fixture_gbp_code(), gbp_pair_transform())
    assert report["theorem5"]["matches_direct"]
    assert report["theorem5"]["residual"] < 1e-8
    print(f"ACCEPTANCE C08 PASS: pure-space formula equals direct on gbp pair "
          f"(dim {report['theorem5']['dim']}, residual "
          f"{report['theorem5']['residual']:.1e})")


def test_c09_containment_properties():
    rng = np.random.default_rng(1905)
    checked = 0
    for name in ("rains-subcode", "rains-union", "gbp", "gbp-union"):
        code = get_fixture(name)
        assert containment_residual(pure_erasure_space(code), erasure_space(code)) < 1e-8
        checked += 1
    for _ in range(20):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, min(4, 1 << n) + 1))
        code = random_code(rng, n, k)
        assert containment_residual(pure_erasure_space(code), erasure_space(code)) < 1e-8
        checked += 1
    # union erasure space sits inside the intersection of component spaces
    union_cases = [
        (get_fixture("rains-union"), list(rains_orbit_codes())),
        (get_fixture("gbp-union"), None),
    ]
    from qerasure import transform_code

    union_cases[1] = (union_cases[1][0],
                      [fixture_gbp_code(),
                       transform_code(fixture_gbp_code(), gbp_pair_transform())])
    for _ in range(10):
        n = int(rng.integers(2, 5))
        a, b = random_orthogonal_pair(rng, n, 2, 2)
        union_cases.append((union_code([a, b])[0], [a, b]))
    for union, comps in union_cases:
        meet = intersect([erasure_space(c) for c in comps])
        assert containment_residual(erasure_space(union), meet) < 1e-8
    print(f"ACCEPTANCE C09 PASS: pure-in-erasure on {checked} codes, "
          f"union-in-component-intersection on {len(union_cases)} unions, "
          f"residuals < 1e-8")


def test_c10_dense_vs_fast_consistency():
    rng = np.random.default_rng(42)
    disagreements = 0
    total = 0
    for trial in range(10):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, (1 << n) + 1))
        code = random_code(rng, n, k)
        dense_code = code.basis
        for p in enumerate_paulis(n, n):
            dense_op = dense_pauli(pauli_to_string(p))
            total += 1
            if check_erasure(code, p).member != erasure_member_dense(dense_code, dense_op):
                disagreements += 1
            if check_pure(code, p).member != pure_member_dense(dense_code, dense_op):
                disagreements += 1
    assert disagreements == 0
    print(f"ACCEPTANCE C10 PASS: dense and mask implementations agree on "
          f"{total} Pauli/code condition pairs, zero disagreements")


def test_c11_k1_degeneracy():
    rng = np.random.default_rng(7)
    for n in (2, 3, 5):
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        code = QuantumCode(n=n, basis=(amps / np.linalg.norm(amps))[:, None], label="k1")
        assert erasure_space(code).dim == 4**n
        dense = rng.standard_normal((1 << n, 1 << n)) + 1j * rng.standard_normal((1 << n, 1 << n))
        assert check_erasure(code, dense).member
    code = fixture_rains_subcode()
    space = pure_erasure_space(code)
    mat = code.basis
    oracle_dim = 4**5 - svd_rank(pure_constraint_matrix(mat, 5))
    assert space.dim == oracle_dim == 4**5 - 1
    print("ACCEPTANCE C11 PASS: K=1 erasure space is everything; "
          "rains-subcode pure dim = 1023 (rank oracle agrees)")


def test_c12_cli_determinism():
    cmd = [sys.executable, "-m", "qerasure", "analyze", "--fixture", "rains-union",
           "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, env=src_env())
    second = subprocess.run(cmd, capture_output=True, env=src_env())
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0
    json.loads(first.stdout)
    print("ACCEPTANCE C12 PASS: repeated CLI runs byte-identical "
          f"({len(first.stdout)} bytes)")


# Violators per weight 0..n of each fixture, (erasure, pure).
VIOLATOR_COUNTS = {
    "rains-subcode": ((0, 0, 0, 0, 0, 0), (0, 0, 0, 10, 15, 6)),
    "rains-union": ((0, 0, 60, 130, 195, 126), (0, 0, 60, 130, 195, 126)),
    "gbp": ((0, 0, 18, 24, 18), (0, 0, 18, 24, 21)),
    "gbp-union": ((0, 4, 30, 52, 40), (0, 4, 30, 52, 41)),
}


def test_c13_every_violator_set_has_a_second_route():
    # every fixture, both condition families, every weight: the scan's
    # violators are the dense oracle's, in the same order
    for name, counts in VIOLATOR_COUNTS.items():
        code = get_fixture(name)
        for pure, expected, member in zip((False, True), counts,
                                          (erasure_member_dense, pure_member_dense)):
            table = classify_paulis(code, pure=pure)
            assert [row.weight for row in table] == list(range(code.n + 1))
            for row in table:
                dense = violators_dense(code.basis, code.n, row.weight, member=member)
                assert list(row.violators) == dense, (name, pure, row.weight)
                assert row.non_members == len(dense)
            assert tuple(row.non_members for row in table) == expected, (name, pure)
    print("ACCEPTANCE C13 PASS: the violators of all four fixtures, erasure and "
          "pure, at every weight, are the dense oracle's")


def test_c14_the_union_is_not_additive():
    # the paper's remark that a union "might be non-additive": a stabilizer
    # code with projector P has exactly 2^n / K Paulis with |tr(sigma P)| = K,
    # its stabilizer group up to sign.  Counted with the dense oracle's Paulis alone: the rains subcode and
    # each of its six components are additive (32), as are gbp (4) and
    # gbp-union (2); the rains union (K = 6) has only the identity, and 2^5 / 6
    # is not an integer, so no stabilizer code has its projector
    import itertools

    def full_traces(basis, n):
        projector = basis @ basis.conj().T
        k = basis.shape[1]
        hits = [letters for letters in map("".join, itertools.product("IXYZ", repeat=n))
                if abs(abs(np.sum(dense_pauli(letters) * projector.T)) - k) < 1e-9]
        return k, hits

    codes = {"rains-subcode": get_fixture("rains-subcode"), "gbp": get_fixture("gbp"),
             "gbp-union": get_fixture("gbp-union"), "rains-union": get_fixture("rains-union")}
    codes.update({f"rains component {i}": c for i, c in enumerate(rains_orbit_codes())})
    counts = {}
    for name, code in codes.items():
        k, hits = full_traces(code.basis, code.n)
        assert hits[0] == "I" * code.n, name
        counts[name] = len(hits)
        if name != "rains-union":
            assert len(hits) * k == 2**code.n, (name, k, len(hits))
    assert counts == {"rains-subcode": 32, "gbp": 4, "gbp-union": 2, "rains-union": 1,
                      **{f"rains component {i}": 32 for i in range(6)}}
    assert 2**5 % codes["rains-union"].k != 0
    print("ACCEPTANCE C14 PASS: the rains subcode and its six components have 32 "
          "Paulis with |tr(sigma P)| = K, gbp 4 and gbp-union 2, as stabilizer codes "
          "must; the rains union has only the identity, so it is not additive")
