import sys
import threading
import time

import numpy as np
import pytest

from qerasure import (
    CodeTransform,
    OperatorSubspace,
    OrthogonalityError,
    QuantumCode,
    SUBSPACE_TOL,
    UnitaryAction,
    code_to_json,
    conjugate_subspace,
    containment_residual,
    cross_check_intersection_formulas,
    cyclic_shift,
    equality_residual,
    erasure_space,
    fixture_gbp_code,
    fixture_rains_subcode,
    gbp_pair_transform,
    get_fixture,
    ingest_code,
    minimum_distance,
    multiply,
    pauli_coords,
    pauli_from_string,
    pure_erasure_space,
    rains_component_transform,
    rains_orbit_codes,
    transform_code,
    union_code,
    union_erasure_space_via_intersection,
    union_pure_space_via_intersection,
    weight,
)
from qerasure.erasure import _condition_complement, _scaled_columns, annihilating_space
from qerasure.operator_space import _pauli_grams, _pauli_table
from qerasure.states import _as_action
from qerasure.unions import _block_sum, _cross_check, _direct_complement, _formula_complements

from _oracle import SINGLE, all_pauli_letterings, conjugate_letters, dense_pauli, transform_matrix
from _svd_route import (
    _new_directions,
    equal_expectation_space,
    from_span,
    intersect,
    grid_residuals_full_gram,
    product_image,
    real_column_block_sum,
    theorem_columns,
    wide_nullspace_complement,
)
from conftest import (
    assert_orthonormal,
    random_code,
    random_orthogonal_pair,
    random_unitary,
)

ADJOINT_CLOSED = (erasure_space, pure_erasure_space, annihilating_space)


def one_sided_meet(space, act):
    """space U-adjoint meet U space, from the reference one-sided maps: complex."""
    return intersect([product_image(space, right=act.matrix.conj().T),
                      product_image(space, left=act.matrix)])


def swap_pair(rng, n, k):
    """A random K-frame and a dense unitary that swaps it with an orthogonal one."""
    code, other = random_orthogonal_pair(rng, n, k, k)
    b1, b2 = code.basis, other.basis
    # unitary sending code -> other, completed arbitrarily on the complement
    rest = np.linalg.qr(np.hstack([b1, b2]), mode="complete")[0][:, 2 * k:]
    rest2 = np.linalg.qr(np.hstack([b2, b1]), mode="complete")[0][:, 2 * k:]
    u = np.hstack([b2, b1, rest2]) @ np.hstack([b1, b2, rest]).conj().T
    return code, UnitaryAction(n, u)


def half_frame_pair(rng, n, k):
    """A random K-frame on the qubit-0 = |0> half and a Pauli-type transform
    with X on qubit 0, whose image lies in the other half."""
    frame = random_unitary(rng, 1 << (n - 1))[:, :k]
    return (QuantumCode(n=n, basis=np.vstack([frame, np.zeros_like(frame)]), label="half"),
            CodeTransform(n, locals=["X"] + ["Y"] * (n - 1)))


# ------------------------------------------------------------------ unions

def test_gbp_union_build():
    base = fixture_gbp_code()
    image = transform_code(base, gbp_pair_transform())
    union, report = union_code([base, image])
    assert (union.n, union.k) == (4, 8)
    assert report.k == 8
    assert report.max_cross_inner < 1e-9
    assert minimum_distance(union) == 1


def test_rains_union_build():
    union, report = union_code(rains_orbit_codes())
    assert (union.n, union.k) == (5, 6)
    assert report.max_cross_inner < 1e-9
    assert len(report.component_labels) == 6


def test_union_with_itself_fails():
    code = fixture_gbp_code()
    with pytest.raises(OrthogonalityError):
        union_code([code, code])


def test_union_overlap_names_the_earlier_column():
    # component 2 meets component 0's column and, more, component 1's second
    # column: b indexes the columns of every earlier component, c its own
    e = np.eye(4)
    first = QuantumCode(n=2, basis=e[:, :1], label="first")
    second = QuantumCode(n=2, basis=e[:, 1:3], label="second")
    third = QuantumCode(n=2, basis=np.column_stack([e[:, 3], 0.6 * e[:, 0] + 0.8 * e[:, 2]]),
                        label="third")
    union_code([first, second])
    message = "component 2 ('third') overlaps earlier basis: |<b_2|c_1>| = 8.000e-01"
    with pytest.raises(OrthogonalityError) as info:
        union_code([first, second, third])
    assert str(info.value) == message


def test_union_length_mismatch():
    with pytest.raises(ValueError):
        union_code([fixture_gbp_code(), fixture_rains_subcode()])


def test_union_needs_two_codes():
    with pytest.raises(ValueError):
        union_code([fixture_gbp_code()])


def test_union_distance_bounded_by_components(rng):
    for name in ("gbp-union", "rains-union"):
        union = get_fixture(name)
        if name == "gbp-union":
            comps = [fixture_gbp_code(),
                     transform_code(fixture_gbp_code(), gbp_pair_transform())]
        else:
            comps = list(rains_orbit_codes())
        d_union = minimum_distance(union)
        assert d_union <= min(minimum_distance(c) for c in comps)


# --------------------------------------------------------- subspace maps

def test_conjugate_identity_keeps_subspace():
    s = erasure_space(fixture_gbp_code())
    out = conjugate_subspace(s, UnitaryAction(4, np.eye(16)))
    assert equality_residual(out, s) < 1e-10


def test_conjugate_matches_transformed_code():
    # image-code erasure space computed directly serves as the oracle
    code = fixture_gbp_code()
    t = gbp_pair_transform()
    lhs = conjugate_subspace(erasure_space(code), t)
    rhs = erasure_space(transform_code(code, t))
    assert lhs.dim == rhs.dim
    assert equality_residual(lhs, rhs) < 1e-8


def test_conjugate_symbolic_and_dense_agree():
    # the transform's own matrix against one the oracle builds from the letters
    code = fixture_rains_subcode()
    space = pure_erasure_space(code)
    t = rains_component_transform(2)
    from_transform = conjugate_subspace(space, t)
    oracle = transform_matrix(t.perm, [SINGLE[ch] for ch in "IIXXX"])
    dense = conjugate_subspace(space, UnitaryAction(5, oracle))
    assert equality_residual(from_transform, dense) < 1e-9


@pytest.mark.parametrize("space_map", [conjugate_subspace])
@pytest.mark.parametrize("u", [CodeTransform(5), UnitaryAction(5, np.eye(32))],
                         ids=["transform", "action"])
def test_subspace_maps_refuse_a_qubit_count_mismatch(space_map, u):
    with pytest.raises(ValueError, match="qubit count mismatch: 5 != 4"):
        space_map(erasure_space(fixture_gbp_code()), u)


def test_conjugate_preserves_dim_random(rng):
    s = from_span(
        3, rng.standard_normal((64, 10)) + 1j * rng.standard_normal((64, 10)))
    u = UnitaryAction(3, random_unitary(rng, 8))
    assert conjugate_subspace(s, u).dim == s.dim


def test_conjugation_permutes_within_weight_classes():
    # the dense conjugation map sends each Pauli to +-(its letter-string image),
    # a Pauli of the same weight, for every Pauli-type component transform
    labels = _pauli_table(5).labels.tolist()
    column = {label: i for i, label in enumerate(labels)}
    for i in (0, 1, 4):
        t = rains_component_transform(i)
        images = conjugate_subspace(OperatorSubspace(5, np.eye(4**5, dtype=complex)), t).complement
        expected = np.zeros((4**5, 4**5))
        for j, label in enumerate(labels):
            sign, image = conjugate_letters(label, t.perm, "IIXXX")
            assert image.count("I") == label.count("I")
            expected[column[image], j] = sign
        assert np.max(np.abs(images - expected)) < 1e-12


def test_one_sided_products_change_weight():
    # a weight-3 operator drops to weight two after one-sided multiplication
    e2 = pauli_from_string("IZIXX")
    shifted_tau = pauli_from_string("XIIXX")  # X-pattern rotated by one
    prod = multiply(shifted_tau, e2)
    assert weight(e2) == 3 and weight(shifted_tau) == 3
    assert weight(prod) == 2
    assert (prod.x_mask, prod.z_mask) == (
        pauli_from_string("XZIII").x_mask, pauli_from_string("XZIII").z_mask)


def product_weight_survey():
    """Per weight-3 violator of the rains subcode and side: the minimum weight
    of its 25 one-sided products with shift^i . tau . shift^j, and the
    weight-two products that are single Paulis up to phase; dense oracle."""
    labels = all_pauli_letterings(5)
    paulis = np.array([dense_pauli(p) for p in labels])
    cases = {}
    for name, label in (("E1", "IIYZY"), ("E2", "IZIXX")):
        emat = dense_pauli(label)
        for side in ("left", "right"):
            weights, weight2_paulis = [], set()
            for i in range(5):
                for j in range(5):
                    tau = ["X" if (q - j) % 5 in (2, 3, 4) else "I" for q in range(5)]
                    u = transform_matrix(cyclic_shift(5, i + j), [SINGLE[ch] for ch in tau])
                    prod = u @ emat if side == "left" else emat @ u
                    coeffs = np.einsum("qij,ij->q", paulis.conj(), prod) / 32
                    live = np.nonzero(np.abs(coeffs) > 1e-9)[0]
                    w = sum(any(labels[q][s] != "I" for q in live) for s in range(5))
                    weights.append(w)
                    if w == 2 and live.size == 1 and abs(abs(coeffs[live[0]]) - 1) < 1e-9:
                        weight2_paulis.add(labels[live[0]])
            cases[f"{name}.{side}"] = (min(weights), weight2_paulis)
    return cases


def test_product_weight_survey():
    listed = {p[i:] + p[:i] for p in ("XZIII", "ZXIII", "ZIYII", "YIZII") for i in range(5)}
    cases = product_weight_survey()
    # products built from the first violator never drop below weight three
    assert cases["E1.left"][0] >= 3
    assert cases["E1.right"][0] >= 3
    assert cases["E1.left"][1] == set()
    # products built from the second violator reproduce listed patterns
    for side in ("left", "right"):
        min_weight, weight2_paulis = cases[f"E2.{side}"]
        assert min_weight == 2
        assert weight2_paulis and weight2_paulis <= listed


# ------------------------------------------------------ expectation space

def test_equal_expectation_identity_action():
    # the reference row vanishes when U fixes the anchor ket: no constraint
    code = fixture_gbp_code()
    s = equal_expectation_space(code, UnitaryAction(4, np.eye(16)))
    assert s.dim == 256


def test_equal_expectation_gbp_dim():
    # the one direction a that the expectation row adds to S-perp is traceless
    code = fixture_gbp_code()
    four = _formula_complements(code, _as_action(4, gbp_pair_transform()))[1]
    s = OperatorSubspace(4, four[:, code.k - 1])
    assert s.dim == 255
    ident = np.zeros(256, dtype=complex)
    ident[0] = 1.0
    assert s.member_residual(ident) < 1e-10


# ------------------------------------------------------------- pipelines

def test_intersection_formulas_match_direct_gbp():
    report = cross_check_intersection_formulas(fixture_gbp_code(), gbp_pair_transform())
    assert report["theorem4"]["matches_direct"]
    assert report["theorem4"]["dim"] == 193
    assert report["theorem4"]["residual"] < 1e-8
    assert report["theorem5"]["matches_direct"]
    assert report["theorem5"]["dim"] == 192
    assert report["theorem5"]["residual"] < 1e-8


def test_intersection_formula_rains_pair():
    code = fixture_rains_subcode()
    report = cross_check_intersection_formulas(code, rains_component_transform(0))
    assert report["theorem4"]["matches_direct"]
    assert report["theorem4"]["dim"] == 1021
    assert report["theorem5"]["matches_direct"]
    assert report["theorem5"]["dim"] == 1020


def test_anchor_independence():
    # the expectation factor nominally uses the first basis ket; every other
    # anchor must give the same five-way intersection
    code, t = fixture_gbp_code(), gbp_pair_transform()
    out = union_erasure_space_via_intersection(code, t)
    assert out.dim == 193
    es = erasure_space(code)
    act = _as_action(code.n, t)
    others = [es, conjugate_subspace(es, t), one_sided_meet(annihilating_space(code), act)]
    for anchor in range(code.k):
        alt = intersect(others + [equal_expectation_space(code, t, anchor=anchor)])
        assert alt.dim == 193
        assert equality_residual(alt, out) < SUBSPACE_TOL


def test_pipeline_output_contains_xz_singles():
    out = union_erasure_space_via_intersection(fixture_gbp_code(), gbp_pair_transform())
    for i in range(4):
        for letter in "XZ":
            label = "I" * i + letter + "I" * (3 - i)
            assert out.member_residual(pauli_coords(pauli_from_string(label))) < 1e-8
    assert out.member_residual(pauli_coords(pauli_from_string("IIIY"))) > 0.1


def test_pure_pipeline_inside_erasure_pipeline():
    code, t = fixture_gbp_code(), gbp_pair_transform()
    pure = union_pure_space_via_intersection(code, t)
    full = union_erasure_space_via_intersection(code, t)
    assert containment_residual(pure, full) < 1e-8


def test_pipeline_rejects_non_orthogonal_image():
    with pytest.raises(OrthogonalityError):
        union_erasure_space_via_intersection(
            fixture_gbp_code(), CodeTransform(4))
    with pytest.raises(OrthogonalityError):
        union_pure_space_via_intersection(
            fixture_gbp_code(), CodeTransform(4))


def test_toy_two_qubit_pipeline():
    # |00> paired with its bit-flipped image on the first qubit
    code = ingest_code({"n": 2, "label": "toy", "basis": [[(1, "00")]]})
    t = CodeTransform(2, locals=["X", "I"])
    report = cross_check_intersection_formulas(code, t)
    assert report["theorem4"]["matches_direct"]
    assert report["theorem5"]["matches_direct"]


def test_pipeline_random_pair(rng):
    # a random unitary image, forced orthogonal by embedding into a frame
    report = cross_check_intersection_formulas(*swap_pair(rng, 3, 2))
    assert report["theorem4"]["matches_direct"]
    assert report["theorem5"]["matches_direct"]


def test_shared_route_matches_the_one_shot_formulas(rng):
    # S = ES meet U ES U^H meet mixed is factored once and met with the last
    # one or two factors; associativity makes that the one-shot intersections
    # beside the usual pairs: the fixtures under H/S transforms, and n = 2
    dense = [(fixture_gbp_code(), CodeTransform(4, locals=["I", "X", "H", "X"])),
             (fixture_rains_subcode(), CodeTransform(5, locals=["I", "I", "I", "H", "S"])),
             swap_pair(rng, 2, 1)]
    for code, u in fixture_and_random_pairs(rng) + dense:
        act = _as_action(code.n, u)
        mixed = one_sided_meet(annihilating_space(code), act)
        es, ps = erasure_space(code), pure_erasure_space(code)
        one_shot = (
            intersect([es, conjugate_subspace(es, act), mixed, equal_expectation_space(code, act)]),
            intersect([ps, conjugate_subspace(ps, act), mixed]),
        )
        shared_route = (union_erasure_space_via_intersection(code, act),
                        union_pure_space_via_intersection(code, act))
        for shared, direct in zip(shared_route, one_shot):
            assert shared.dim == direct.dim
            assert equality_residual(shared, direct) < 1e-12


WHOLE_SPACE = [
    (1, ["0"], ["X"]),
    (2, ["00", "01"], ["X", "I"]),
    (3, ["000", "011", "101", "110"], ["X", "I", "I"]),
]


@pytest.mark.parametrize("n, kets, locals_", WHOLE_SPACE)
def test_union_filling_the_whole_space(n, kets, locals_):
    # K = 2^(n-1) and an image on the other half: the union is the whole
    # space, so both of its spaces are the identity line, and its pure
    # complement has no projector column
    code = ingest_code({"n": n, "label": "half", "basis": [[(1, ket)] for ket in kets]})
    t = CodeTransform(n, locals=locals_)
    report = cross_check_intersection_formulas(code, t)
    for key in ("theorem4", "theorem5"):
        assert report[key]["dim"] == report[key]["direct_dim"] == 1
        assert report[key]["matches_direct"]
    assert union_erasure_space_via_intersection(code, t).dim == 1
    assert union_pure_space_via_intersection(code, t).dim == 1


# ------------------------------------------------- real Pauli coordinates

@pytest.mark.parametrize("n", [1, 2, 3])
def test_conjugated_spaces_stay_real(rng, n):
    # K = 2^n included, under a Pauli-type and a dense transform; the complex
    # route is the same map of the same complement, imaginary part kept
    for k in sorted({1, 2, 1 << n}):
        code = random_code(rng, n, k)
        for u in (CodeTransform(n, locals=["Y"] + ["X"] * (n - 1)),
                  UnitaryAction(n, random_unitary(rng, 1 << n))):
            mat = _as_action(n, u).matrix
            for build in ADJOINT_CLOSED:
                space = build(code)
                out = conjugate_subspace(space, u)
                assert out.complement.dtype == np.float64
                assert_orthonormal(out, 1e-12)
                complex_route = product_image(space, left=mat, right=mat.conj().T)
                assert np.max(np.abs(complex_route.complement.imag), initial=0) <= 1e-13
                assert out.dim == complex_route.dim == space.dim
                assert equality_residual(out, complex_route) < 1e-12


def fixture_and_random_pairs(rng):
    return [(fixture_gbp_code(), gbp_pair_transform()),
            (fixture_rains_subcode(), rains_component_transform(1)),
            swap_pair(rng, 3, 2), swap_pair(rng, 4, 3), half_frame_pair(rng, 4, 3)]


def grid_blocks(s):
    """The CC, UU and mixed (CU then UC) blocks of a _block_sum grid, as columns."""
    k = s.shape[1] // 2
    c, u = slice(None, k), slice(k, None)
    cc, uu, cu, uc = (s[:, a, b].reshape(len(s), -1) for a, b in ((c, c), (u, u), (c, u), (u, c)))
    return cc, uu, np.hstack([cu, uc])


def grid_parts(s):
    """S-perp's columns of a _block_sum grid, and p and p' = U p U^H, read off
    their diagonal slots (K-1, K-1) and (2K-1, 2K-1)."""
    m = s.shape[1]
    flat = s.reshape(len(s), m * m)
    p, p_conj = (m // 2 - 1) * (m + 1), m * m - 1
    return np.delete(flat, [p, p_conj], axis=1), flat[:, [p]], flat[:, [p_conj]]


def mixed_slice(code, act):
    """The mixed blocks' complement, read out of S-perp's grid."""
    return OperatorSubspace(code.n, grid_blocks(_block_sum(code, act))[2])


def test_real_mixed_piece_matches_complex_one_sided_images(rng):
    for code, u in fixture_and_random_pairs(rng):
        act = _as_action(code.n, u)
        one_sided = one_sided_meet(annihilating_space(code), act)
        assert one_sided.complement.dtype == np.complex128
        mixed = mixed_slice(code, act)
        assert mixed.complement.dtype == np.float64
        assert_orthonormal(mixed, 1e-12)
        assert mixed.dim == one_sided.dim == 4**code.n - 2 * code.k**2
        assert equality_residual(mixed, one_sided) < 1e-12


def test_equal_expectation_space_is_real(rng):
    # the reference's row, a difference of expectations of Hermitian Paulis
    for code, u in fixture_and_random_pairs(rng):
        act = _as_action(code.n, u)
        s = equal_expectation_space(code, act)
        assert s.complement.dtype == np.float64
        assert_orthonormal(s, 1e-12)
        ket = code.basis[:, 0]
        pair = np.column_stack([ket, act.matrix @ ket])
        grams = _pauli_grams(pair, pair, code.n)
        complex_route = OperatorSubspace(
            code.n, wide_nullspace_complement(grams[:, 0, 0] - grams[:, 1, 1]))
        assert complex_route.complement.dtype == np.complex128
        assert s.dim == complex_route.dim
        assert equality_residual(s, complex_route) < 1e-12


def test_theorem_route_runs_in_real_arithmetic(rng):
    for code, u in fixture_and_random_pairs(rng):
        for space in (union_erasure_space_via_intersection(code, u),
                      union_pure_space_via_intersection(code, u)):
            assert space.complement.dtype == np.float64
            assert_orthonormal(space, 1e-12)


def test_upper_bound_chains():
    code = fixture_gbp_code()
    act = _as_action(4, gbp_pair_transform())
    union = get_fixture("gbp-union")
    eu = erasure_space(union)
    es = erasure_space(code)
    zs = annihilating_space(code)
    conj_chain = intersect([es, conjugate_subspace(es, act)])
    assert containment_residual(eu, conj_chain) < 1e-8
    assert containment_residual(eu, one_sided_meet(zs, act)) < 1e-8


def test_one_sided_pure_chain_misses_pairing_scalar():
    # substituting the pure space into the one-sided factors re-admits the
    # pairing unitary itself, so that containment fails by a fixed angle
    code = fixture_gbp_code()
    act = _as_action(4, gbp_pair_transform())
    union = get_fixture("gbp-union")
    eu = erasure_space(union)
    ps = pure_erasure_space(code)
    sided_pure = one_sided_meet(ps, act)
    assert containment_residual(eu, sided_pure) > 0.1
    tau_coords = pauli_coords(pauli_from_string("IIIY"))
    assert sided_pure.member_residual(tau_coords) < 1e-9
    assert eu.member_residual(tau_coords) > 0.1


def test_six_qubit_pipeline():
    # the largest supported length; complements keep this fast
    code = ingest_code({"n": 6, "label": "six", "basis": [
        [(1, "000000"), (1, "111111")],
        [(1, "010101"), (1, "101010")],
    ]})
    assert erasure_space(code).dim == 4**6 - 3
    assert minimum_distance(code) == 2
    t = CodeTransform(6, locals=["I", "I", "I", "I", "I", "Y"])
    report = cross_check_intersection_formulas(code, t)
    assert report["theorem4"]["matches_direct"]
    assert report["theorem4"]["dim"] == 4**6 - 15
    assert report["theorem5"]["matches_direct"]


def test_union_containment_in_component_intersection(rng):
    for name in ("rains-union", "gbp-union"):
        union = get_fixture(name)
        if name == "rains-union":
            comps = rains_orbit_codes()
        else:
            comps = (fixture_gbp_code(),
                     transform_code(fixture_gbp_code(), gbp_pair_transform()))
        eu = erasure_space(union)
        meet = intersect([erasure_space(c) for c in comps])
        assert containment_residual(eu, meet) < 1e-8


def test_cross_check_builds_the_image_once(monkeypatch):
    from qerasure import unions

    images = []
    real = unions.transform_code
    monkeypatch.setattr(unions, "transform_code",
                        lambda *args, **kwargs: images.append(args) or real(*args, **kwargs))
    report = cross_check_intersection_formulas(fixture_gbp_code(), gbp_pair_transform())
    assert report["theorem4"]["matches_direct"] and report["theorem5"]["matches_direct"]
    assert len(images) == 1


def test_cross_check_builds_the_code_tensor_and_two_rectangular_ones(gram_builds):
    code = ingest_code(code_to_json(fixture_gbp_code()))
    cross_check_intersection_formulas(code, gbp_pair_transform())
    # the code's own, then the direct side's C against UC and UC against
    # [C | UC]: the union's CC block is the code's tensor, so the union's
    # square tensor is never built, and a and B are closed forms of the
    # code's gram columns, so no tensor of the anchor pair is built either
    assert gram_builds == [(4, 4, 4), (4, 4, 4), (4, 4, 8)]


def test_cross_check_shares_one_conjugation_and_no_wide_intersection(monkeypatch):
    from qerasure import erasure, unions

    code, t = fixture_gbp_code(), gbp_pair_transform()
    cross_check_intersection_formulas(code, t)  # warm-up: the cached ones complements
    calls = {name: [] for name in ("conjugate_subspace", "coords_to_matrices",
                                   "matrices_to_coords", "union_code",
                                   "_condition_complement", "_pair_residuals")}
    for name, seen in calls.items():
        real = getattr(unions, name)
        monkeypatch.setattr(unions, name, lambda *args, real=real, seen=seen, **kwargs:
                            seen.append(args) or real(*args, **kwargs))
    scaled = []
    real_scaled = erasure._scaled_columns
    monkeypatch.setattr(erasure, "_scaled_columns", lambda c: scaled.append(c) or real_scaled(c))
    eigensolves = []
    real_eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda g: eigensolves.append(g.shape) or real_eigvalsh(g))
    factorizations = {"svd": [], "qr": []}
    for name, seen in factorizations.items():
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *args, real=real, seen=seen, **kwargs:
                            seen.append(args) or real(*args, **kwargs))
    report = cross_check_intersection_formulas(code, t)
    assert report["theorem4"]["matches_direct"] and report["theorem5"]["matches_direct"]
    # one map of the code's K^2 complex gram columns to matrices, and two
    # back: Z U^H for the mixed blocks and U Z U^H for the conjugated
    # ES(C)-perp and p
    assert calls["conjugate_subspace"] == []
    assert [cols.shape[1] for cols, _ in calls["coords_to_matrices"]] == [code.k**2]
    assert len(calls["matrices_to_coords"]) == 2
    # gram columns of the code alone: the union's grid, whose pure complement
    # gives both direct spaces, is written from the code's tensor and two
    # rectangular ones; the pipeline writes Z from the code's tensor into its
    # grid, where the one closed form of the code's complement serves
    # ES(C)-perp and its conjugate, conditioned in place on the grid's CC
    # and UU views; no space of the code itself (pure or annihilating) is
    # built, and the one orthogonality check is union_code's
    assert scaled == []
    k, rows = code.k, 4**code.n
    assert [cols.shape for cols, _ in calls["_condition_complement"]] == [
        (rows, k, k), (rows, k, k), (rows, 4 * k * k)]
    assert len(calls["union_code"]) == 1
    # S is a concatenation, never intersected, and what the expectation row
    # and p with U p U^H add to it are closed forms: nothing is factored
    assert factorizations == {"svd": [], "qr": []}
    # both residuals against the union's pure complement, ket pair by ket
    # pair on one grid: the pairs' 2 x 2 Grams are read in closed form, and
    # the only eigenvalue solves are one for each formula's diagonal block
    (pipeline, direct), = calls["_pair_residuals"]
    assert pipeline.shape == direct.shape == (4**code.n, 2 * k, 2 * k)
    assert all(np.shares_memory(cols, pipeline) for cols, _ in calls["_condition_complement"][:2])
    assert eigensolves == [(w, w) for w in (2 * k - 1, 2 * k)]


@pytest.mark.parametrize("public, dim", [
    (union_erasure_space_via_intersection, 193),
    (union_pure_space_via_intersection, 192),
])
def test_each_public_formula_builds_only_its_own_intersection(monkeypatch, gram_builds,
                                                              public, dim):
    from qerasure import unions

    blocks = []
    real = unions._block_sum
    monkeypatch.setattr(unions, "_block_sum",
                        lambda *args: blocks.append(args) or real(*args))
    code = fixture_gbp_code()
    code.grams  # the code's own tensor, built before the count starts
    gram_builds.clear()
    assert public(code, gbp_pair_transform()).dim == dim
    # one S-perp, with the formula's own closed-form directions beside it
    assert len(blocks) == 1
    # the expectation row comes from the code's own gram tensor: no other is built
    assert gram_builds == []


def block_sum_cases(rng):
    """Pauli-type and H/S transforms of the fixtures, dense swaps at n = 2, 3, 4
    and the two widest grids (n = 5, K = 8 and n = 6, K = 4), a half-frame
    pair, and the three unions that fill the whole space."""
    whole = [(ingest_code({"n": n, "label": "half", "basis": [[(1, ket)] for ket in kets]}),
              CodeTransform(n, locals=locals_)) for n, kets, locals_ in WHOLE_SPACE]
    return [(fixture_gbp_code(), gbp_pair_transform()),
            (fixture_gbp_code(), CodeTransform(4, locals=["I", "X", "H", "X"])),
            (fixture_rains_subcode(), rains_component_transform(1)),
            (fixture_rains_subcode(), CodeTransform(5, locals=["I", "I", "I", "H", "S"])),
            swap_pair(rng, 2, 1), swap_pair(rng, 3, 2), swap_pair(rng, 4, 3),
            swap_pair(rng, 5, 8), swap_pair(rng, 6, 4), half_frame_pair(rng, 4, 3)] + whole


def test_block_sum_matches_the_wide_intersection(rng):
    # the CC, UU and CU/UC blocks are orthogonal, so the grid less p's and
    # p''s slots is an orthonormal complement of S and spans what intersect finds
    for code, u in block_sum_cases(rng):
        act = _as_action(code.n, u)
        grid = _block_sum(code, act)
        assert grid.shape == (4**code.n, 2 * code.k, 2 * code.k)
        s, p, p_conj = grid_parts(grid)
        shared = OperatorSubspace(code.n, s)
        assert_orthonormal(shared, 1e-12)
        assert s.shape[1] == 4 * code.k**2 - 2
        assert p.shape[1] == p_conj.shape[1] == 1
        es = erasure_space(code)
        oracle = intersect([es, conjugate_subspace(es, act),
                            one_sided_meet(annihilating_space(code), act)])
        assert shared.dim == oracle.dim
        assert equality_residual(shared, oracle) < 1e-12


def test_block_sum_slices_are_the_conjugate_and_the_one_sided_images(rng):
    # one map of the gram columns gives all three: the CC block, with p in
    # its last slot, is PS(C)'s complement, the UU block its conjugate, and
    # the CU and UC blocks the mixed blocks' complement
    for code, u in block_sum_cases(rng):
        act = _as_action(code.n, u)
        cc, uu, mixed = grid_blocks(_block_sum(code, act))
        pure = pure_erasure_space(code)
        for got, want in ((cc, pure), (uu, conjugate_subspace(pure, act)),
                          (mixed, one_sided_meet(annihilating_space(code), act))):
            assert got.dtype == np.float64
            got = OperatorSubspace(code.n, got)
            assert got.dim == want.dim
            assert equality_residual(got, want) < 1e-12


def test_block_sum_expectation_row_matches_the_reference(rng):
    # a, the closed form along p - U p U^H in p's slot, is what the row of
    # the anchor pair's own gram tensor adds to S-perp: [S-perp | a] is S met
    # with the reference's equal-expectation space
    for code, u in block_sum_cases(rng):
        act = _as_action(code.n, u)
        grid, four, _ = _formula_complements(code, act)
        s = grid_parts(grid)[0]
        a = four[:, code.k - 1:code.k]
        assert four.shape == (4**code.n, 2 * code.k - 1)
        assert a.dtype == np.float64
        assert abs(a[0, 0]) < 1e-15  # tr E is unconstrained
        meet = intersect([OperatorSubspace(code.n, s), equal_expectation_space(code, act)])
        theorem4 = OperatorSubspace(code.n, np.hstack([s, a]))
        assert_orthonormal(theorem4, 1e-12)
        assert theorem4.dim == meet.dim
        assert equality_residual(theorem4, meet) < 1e-12


def test_block_sum_matches_the_real_column_pairing(rng):
    # mapping each complex column Z_ij + i Z_ji once gives, entry for entry,
    # what mapping Z's real columns and pairing each with its transposed
    # partner gives, also where the map runs in blocks of ket rows (n = 5,
    # K = 7 and 8; n = 6, K = 5)
    for code, u in block_sum_cases(rng) + [swap_pair(rng, 5, 7), swap_pair(rng, 6, 5)]:
        act = _as_action(code.n, u)
        assert np.max(np.abs(_block_sum(code, act) - real_column_block_sum(code, act))) <= 1e-15


def cross_check_inputs(monkeypatch, code, act, union):
    """What _cross_check compares, and its report: _formula_complements' grid
    and the two theorems' diagonal columns, and the union's complement grid
    that it hands to _pair_residuals, flattened to (4^n, (2K)^2) columns."""
    from qerasure import unions

    seen = {}
    formulas, pairs = unions._formula_complements, unions._pair_residuals

    def spy_formulas(*args):
        out = formulas(*args)
        seen["pipeline"] = tuple(x.copy() for x in out)
        return out

    def spy_pairs(x, d):
        seen["direct"] = d.reshape(len(d), -1).copy()
        return pairs(x, d)

    with monkeypatch.context() as m:
        m.setattr(unions, "_formula_complements", spy_formulas)
        m.setattr(unions, "_pair_residuals", spy_pairs)
        report = _cross_check(code, act, union)
    return (*seen["pipeline"], seen["direct"]), report


def test_direct_erasure_complement_is_the_erasure_space_one(monkeypatch, rng):
    # the union's complement grid holds its pure complement in its leading
    # columns, and the erasure one in fewer, bit for bit
    for code, u in block_sum_cases(rng):
        act = _as_action(code.n, u)
        union, _ = union_code([code, transform_code(code, act)])
        (*_, direct), _ = cross_check_inputs(monkeypatch, code, act, union)
        for space in (pure_erasure_space(union), erasure_space(union)):
            width = space.complement.shape[1]
            assert np.array_equal(direct[:, :width], space.complement)


def test_direct_grid_is_the_unions_own_scaled_columns(rng):
    # the grid written from the code's tensor and the two rectangular ones,
    # C against UC and UC against [C | UC], is bitwise the union's own
    # _scaled_columns, and so is its pure complement: every residual of the
    # cross-check is the one the union's square tensor would give
    for code, u in block_sum_cases(rng):
        act = _as_action(code.n, u)
        union, _ = union_code([code, transform_code(code, act)])
        want = _scaled_columns(union)
        _condition_complement(want, code.n, pure=True)
        got = _direct_complement(code, union)
        assert got.dtype == want.dtype and got.shape == want.shape == (4**code.n, 4 * code.k**2)
        assert got.tobytes() == want.tobytes()


def direct_threads(monkeypatch, delay=0.0):
    """The thread of every _direct_complement call that _cross_check makes,
    recorded as the call returns, after delay seconds."""
    from qerasure import unions

    seen, real = [], unions._direct_complement

    def recorded(*args):
        direct = real(*args)
        time.sleep(delay)
        seen.append(threading.current_thread())
        return direct

    monkeypatch.setattr(unions, "_direct_complement", recorded)
    return seen


def test_cross_check_report_is_bitwise_the_same_in_either_thread(monkeypatch, rng, fresh_pool):
    # _BESIDE_BYTES at 0 puts every direct side in a worker thread of its
    # call (two CPUs), and beyond the largest grid keeps every one in the
    # caller: the reports, residuals included, agree bit for bit; each direct
    # side has returned, and its thread has been joined, before its report
    # does
    from qerasure import operator_space

    caller = threading.current_thread()
    cases = [(fixture_gbp_code(), gbp_pair_transform()),
             (fixture_rains_subcode(), CodeTransform(5, locals=["I", "I", "I", "H", "S"])),
             swap_pair(rng, 3, 2), swap_pair(rng, 5, 8), half_frame_pair(rng, 4, 3)]
    interval, threads = sys.getswitchinterval(), threading.active_count()
    fresh_pool.set_cpus(2)
    for code, u in cases:
        act = _as_action(code.n, u)
        union, _ = union_code([code, transform_code(code, act)])
        reports = {}
        for beside in (0, 1 << 62):
            with monkeypatch.context() as m:
                m.setattr(operator_space, "_BESIDE_BYTES", beside)
                seen = direct_threads(m)
                sys.setswitchinterval(1e-6)  # switch threads often: a shared write would show
                try:
                    reports[beside] = _cross_check(code, act, union)
                finally:
                    sys.setswitchinterval(interval)
            assert threading.active_count() == threads and fresh_pool() == []
            assert len(seen) == 1
            if beside:
                assert seen[0] is caller
            else:
                assert seen[0].name.startswith("qerasure-worker") and not seen[0].is_alive()
        threaded, in_caller = reports.values()
        assert threaded == in_caller
        for key in ("theorem4", "theorem5"):
            assert np.float64(threaded[key]["residual"]).tobytes() == \
                np.float64(in_caller[key]["residual"]).tobytes()


@pytest.mark.parametrize("n, k, cpus, beside", [
    (5, 8, 2, True), (5, 5, 2, True), (6, 3, 2, True), (5, 8, 1, False),
    (5, 4, 2, True), (5, 3, 2, False), (5, 2, 2, False), (6, 2, 2, True), (4, 8, 2, True),
])
def test_direct_side_runs_beside_the_pipeline_for_large_unions(monkeypatch, rng, fresh_pool,
                                                               n, k, cpus, beside):
    # the default rule: grids of 0.5 MiB and more (n = 5, K = 4; n = 6,
    # K = 2; n = 4, K = 8) take a worker thread of the call when there are
    # two CPUs; n = 5, K <= 3 (288 KiB and less) stays in the caller, as
    # does everything on one CPU, where no worker starts; no worker is left
    # once the call returns
    code, act = swap_pair(rng, n, k)
    union, _ = union_code([code, transform_code(code, act)])
    fresh_pool.set_cpus(cpus)
    seen = direct_threads(monkeypatch)
    report = _cross_check(code, act, union)
    assert report["theorem4"]["matches_direct"] and report["theorem5"]["matches_direct"]
    assert len(seen) == 1 and (seen[0] is not threading.current_thread()) == beside
    assert seen[0].name.startswith("qerasure-worker") == beside and fresh_pool() == []


@pytest.mark.parametrize("failing", ["_direct_complement", "_formula_complements"])
def test_an_error_on_either_side_reaches_the_caller_and_leaves_no_thread(monkeypatch, rng, fresh_pool,
                                                                         failing):
    # the direct side fails in the worker, or the pipeline in the caller while
    # the worker runs: the error reaches the caller only once the worker's
    # task has ended and its thread is joined, no thread is left, and a retry
    # gives the report of a clean run
    from qerasure import operator_space, unions

    code, act = swap_pair(rng, 3, 2)
    union, _ = union_code([code, transform_code(code, act)])
    fresh_pool.set_cpus(2)
    monkeypatch.setattr(operator_space, "_BESIDE_BYTES", 0)
    threads = threading.active_count()
    clean = _cross_check(code, act, union)
    seen = direct_threads(monkeypatch, delay=0.05)  # a slow worker: an early error would show

    def fail(*args):
        seen.append(threading.current_thread())
        raise MemoryError(failing)

    with monkeypatch.context() as m:
        m.setattr(unions, failing, fail)
        with pytest.raises(MemoryError, match=failing):
            _cross_check(code, act, union)
        # the worker's failure, or the caller's and then the worker's
        # completed direct side, are in by the time the error arrives
        caller, worker = threading.current_thread(), seen[-1]
        assert worker.name.startswith("qerasure-worker") and not worker.is_alive()
        assert seen == ([worker] if failing == "_direct_complement" else [caller, worker])
    assert threading.active_count() == threads and fresh_pool() == []
    assert _cross_check(code, act, union) == clean
    assert threading.active_count() == threads


def test_shared_residuals_equal_the_equality_residuals(rng):
    for code, u in block_sum_cases(rng):
        act = _as_action(code.n, u)
        union, _ = union_code([code, transform_code(code, act)])
        report = _cross_check(code, act, union)
        pipelines = (union_erasure_space_via_intersection(code, act),
                     union_pure_space_via_intersection(code, act))
        for key, pipeline, direct in zip(("theorem4", "theorem5"), pipelines,
                                         (erasure_space(union), pure_erasure_space(union))):
            assert report[key]["matches_direct"]
            assert abs(report[key]["residual"] - equality_residual(pipeline, direct)) < 1e-12


def _rotated(col, away, angle):
    return np.cos(angle) * col + np.sin(angle) * away


# Grid entries of S-perp for K = 4, in the union's layout of 8 kets: C's
# kets 0-3 and UC's 4-7.  One per block: CC pair (1, 3)'s second column,
# UU pair (1, 3)'s second, mixed pair (2, 1)'s first (the plane of the
# union's kets 2 and 5) and the conjugate's second diagonal column
S_PERP_ENTRY = {"block-sum-column": (3, 1), "uu-column": (7, 5), "mixed-column": (2, 5),
                "diagonal-column": (5, 5)}


@pytest.mark.parametrize("moved", ["expectation-direction", *S_PERP_ENTRY, "cross-pair-leak"])
def test_shared_residuals_track_a_rotated_pipeline(monkeypatch, rng, moved):
    # turn one pipeline column by a small angle toward a direction orthogonal
    # to its pipeline complement: the spaces now differ, and the cross-check
    # must still give each sine that equality_residual finds.  a may turn
    # toward the union's projector column (in Theorem 5's complement), which
    # Theorem 4 leaves out; a column of S-perp is shared, so it turns away
    # from both pipelines, and so from every direct column, in every pair.
    # The leak turns a mixed column half toward another pair's direct column:
    # the pair read sees the whole turn, the full one only what leaves the
    # direct span, and the value stays in [full / sqrt(G), 1]
    from qerasure import unions

    code, u = fixture_gbp_code(), CodeTransform(4, locals=["I", "X", "H", "X"])
    act = _as_action(code.n, u)
    k = code.k
    union, _ = union_code([code, transform_code(code, act)])
    (grid, four, five, direct), _ = cross_check_inputs(monkeypatch, code, act, union)
    # each theorem's complement is orthonormal, but four and five share
    # only S-perp's diagonal columns
    kept = [theorem_columns(grid, four)]
    if moved != "expectation-direction":
        kept.append(five[:, k - 1::k])  # B
    span = np.linalg.qr(np.hstack(kept))[0]
    away = rng.standard_normal(4**code.n)
    away -= span @ (span.T @ away)
    away -= span @ (span.T @ away)
    away /= np.linalg.norm(away)
    # entry (0, 1): in CC pair (0, 1)'s plane, and off the span
    leak = (direct[:, 1] + away) / np.sqrt(2)
    groups = 2 * k * k - k + 1
    for angle in np.logspace(-10, 0, 11):
        grid2, four2, five2 = grid.copy(), four.copy(), five.copy()
        if moved == "expectation-direction":
            four2[:, k - 1] = _rotated(four[:, k - 1], away, angle)
        elif moved == "cross-pair-leak":
            a, b = S_PERP_ENTRY["mixed-column"]
            grid2[:, a, b] = _rotated(grid[:, a, b], leak, angle)
        elif moved == "diagonal-column":
            slot = S_PERP_ENTRY[moved][0]
            for before, after in ((four, four2), (five, five2)):
                after[:, slot] = _rotated(before[:, slot], away, angle)
        else:
            a, b = S_PERP_ENTRY[moved]
            grid2[:, a, b] = _rotated(grid[:, a, b], away, angle)
        with monkeypatch.context() as m:
            m.setattr(unions, "_formula_complements",
                      lambda *args: (grid2.copy(), four2, five2))
            report = _cross_check(code, act, union)
        got = (report["theorem4"]["residual"], report["theorem5"]["residual"])
        if moved == "cross-pair-leak":
            for res, want in zip(got, grid_residuals_full_gram(grid2, four2, five2, direct)):
                assert want / np.sqrt(groups) <= res <= 1 + 1e-12
                assert abs(res - np.sin(angle)) <= 1e-6 * np.sin(angle) + 1e-14
                assert res >= SUBSPACE_TOL or angle < 1e-7  # a failed verdict
            continue
        oracle = [equality_residual(OperatorSubspace(code.n, theorem_columns(grid2, diagonal)),
                                    OperatorSubspace(code.n, d))
                  for diagonal, d in ((four2, direct[:, :-1]), (five2, direct))]
        for res, want in zip(got, oracle):
            assert abs(res - want) <= 1e-6 * want + 1e-14
        assert got[0] > 0.1 * angle
        if moved != "expectation-direction":
            assert got[1] > 0.1 * angle


def test_grid_entries_span_the_unions_ket_pair_planes(monkeypatch, rng):
    # for each a != b the pipeline's entries (a, b) and (b, a) span the
    # union's own _scaled_columns plane (a, b) and meet no other plane and
    # no diagonal column, and every pipeline diagonal column, a and B
    # included, meets no plane: what lets each ket pair be compared on its own
    for code, u in block_sum_cases(rng):
        act = _as_action(code.n, u)
        union, _ = union_code([code, transform_code(code, act)])
        (grid, four, five, _), _ = cross_check_inputs(monkeypatch, code, act, union)
        m = 2 * code.k
        planes = _scaled_columns(union)
        pipeline = np.hstack([grid.reshape(len(grid), -1), four, five])
        a, b = np.divmod(np.arange(m * m), m)
        # an off-diagonal entry's group is its ket pair, a diagonal one's -1
        group = np.where(a == b, -1, np.minimum(a, b) * m + np.maximum(a, b))
        pipeline_group = np.r_[group, np.full(four.shape[1] + five.shape[1], -1)]
        overlap = planes.T @ pipeline
        apart = group[:, None] != pipeline_group[None, :]
        assert np.max(np.abs(overlap[apart])) < 1e-12
        for pair in np.unique(group[group >= 0]):
            block = overlap[np.ix_(group == pair, pipeline_group == pair)]
            assert block.shape == (2, 2)
            assert np.max(np.abs(block.T @ block - np.eye(2))) < 1e-12


def test_pair_residuals_match_a_per_pair_loop(monkeypatch, rng):
    # the grid read, entries (a, b) and (b, a) through the transposed grid,
    # is the largest _residual_norm of each ket pair's two pipeline columns
    # off its two direct ones, and never reads the diagonal entries
    from qerasure.operator_space import _residual_norm
    from qerasure.unions import _pair_residuals

    for code, u in [swap_pair(rng, 3, 2), (fixture_gbp_code(), gbp_pair_transform())]:
        act = _as_action(code.n, u)
        union, _ = union_code([code, transform_code(code, act)])
        (grid, *_, direct), _ = cross_check_inputs(monkeypatch, code, act, union)
        m = grid.shape[1]
        x = grid + 1e-3 * rng.standard_normal(grid.shape)
        flat = x.reshape(len(x), -1)
        pairs = [[a * m + b, b * m + a] for a in range(m) for b in range(a + 1, m)]
        loop = max(_residual_norm(direct[:, pair], flat[:, pair]) for pair in pairs)
        got = _pair_residuals(x.copy(), direct.reshape(x.shape))
        assert abs(got - loop) <= 1e-12 * loop
        diagonal = np.arange(m)
        x[:, diagonal, diagonal] = rng.standard_normal((len(x), m))
        assert _pair_residuals(x, direct.reshape(x.shape)) == got


@pytest.mark.parametrize("n, k, blocks", [
    (5, 6, [2, 2, 2]), (5, 7, [4, 3]), (5, 8, [2] * 4), (6, 3, [3]), (6, 8, [1] * 8), (6, 5, [4, 1]),
])
def test_block_sum_in_column_blocks_is_bitwise_one_block(monkeypatch, rng, n, k, blocks):
    # the complex gram columns go through the maps a block of whole ket rows
    # at a time, each block but the last a multiple of four columns: K = 7
    # takes rows in fours, and a lone last row of K > 1 columns stays on its
    # own (n = 6, K = 5); n = 6, K = 3 fits in one block of four rows.  The
    # whole cross-check report, its gram tensors, direct grid and pair
    # residuals in blocks too, is the one-block report bit for bit
    from conftest import one_block
    from qerasure import operator_space

    code, act = swap_pair(rng, n, k)
    assert [b.stop - b.start for b in operator_space._blocks(k, 16 * 4**n * k, width=k)] == blocks
    got = _block_sum(code, act)
    assert got.tobytes() == one_block(monkeypatch, _block_sum, code, act).tobytes()
    union, _ = union_code([code, transform_code(code, act)])
    report = _cross_check(code, act, union)
    assert report == one_block(monkeypatch, _cross_check, code, act, union)
    assert report["theorem4"]["matches_direct"] and report["theorem5"]["matches_direct"]


def test_pair_residuals_in_row_blocks_are_bitwise_one_block(monkeypatch, rng):
    # n = 5, K = 6: 1,024 rows in blocks of 224, the last of 128
    from conftest import one_block
    from qerasure import operator_space
    from qerasure.unions import _pair_residuals

    code, act = swap_pair(rng, 5, 6)
    union, _ = union_code([code, transform_code(code, act)])
    (grid, *_, direct), _ = cross_check_inputs(monkeypatch, code, act, union)
    x = grid + 1e-3 * rng.standard_normal(grid.shape)
    d = direct.reshape(x.shape)
    sizes = [b.stop - b.start for b in operator_space._blocks(len(x), x[0].nbytes)]
    assert sizes == [224] * 4 + [128]
    got, want = x.copy(), x.copy()
    residual = _pair_residuals(got, d)
    assert residual > 1e-4
    assert np.float64(residual).tobytes() == np.float64(one_block(monkeypatch, _pair_residuals, want, d)).tobytes()
    assert got.tobytes() == want.tobytes()


def tracemalloc_peak(fn, *args):
    """fn(*args)'s tracemalloc peak in MiB."""
    import tracemalloc

    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_cross_check_stages_keep_no_full_size_temporary(monkeypatch, rng):
    # n = 5, K = 8, the theorem workload's widest grid (2 MiB): tracemalloc
    # peaks of each stage and of the whole check in one thread, with the
    # code's tensor built beforehand.  Each grid is written in place, so a
    # stage holds its grid and a few blocks, and the check both grids and a
    # few blocks
    from qerasure import operator_space
    from qerasure.unions import _pair_residuals

    monkeypatch.setattr(operator_space, "_BESIDE_BYTES", 1 << 62)  # one thread
    code, act = swap_pair(rng, 5, 8)
    union, _ = union_code([code, transform_code(code, act)])
    code.grams
    s = _formula_complements(code, act)[0]
    d = _direct_complement(code, union).reshape(s.shape)
    assert tracemalloc_peak(_formula_complements, code, act) <= 3.5
    assert tracemalloc_peak(_direct_complement, code, union) <= 3.0
    assert tracemalloc_peak(_pair_residuals, s, d) <= 0.75
    assert tracemalloc_peak(_cross_check, code, act, union) <= 5.25


@pytest.mark.parametrize("n, k, bound", [(5, 4, 2.13), (6, 2, 2.26)])
def test_small_cross_checks_keep_their_peak(monkeypatch, rng, n, k, bound):
    # grids of 512 KiB, whose maps take one block: the whole check's
    # tracemalloc peak in one thread stays at most what it was before the
    # grids were written in place (2.13 and 2.26 MiB)
    from qerasure import operator_space

    monkeypatch.setattr(operator_space, "_BESIDE_BYTES", 1 << 62)  # one thread
    code, act = swap_pair(rng, n, k)
    union, _ = union_code([code, transform_code(code, act)])
    code.grams
    assert tracemalloc_peak(_cross_check, code, act, union) <= bound


def test_block_residuals_match_the_full_gram_reference(monkeypatch, rng):
    # one projection of each theorem's whole complement off the whole direct
    # one gives the same sines; n = 5, K = 8 is the widest grid the
    # cross-check meets, and the whole-space unions have no projector column
    # in the direct complement
    for code, u in block_sum_cases(rng) + [swap_pair(rng, 5, 8), swap_pair(rng, 5, 8)]:
        act = _as_action(code.n, u)
        union, _ = union_code([code, transform_code(code, act)])
        args, report = cross_check_inputs(monkeypatch, code, act, union)
        for key, want in zip(("theorem4", "theorem5"), grid_residuals_full_gram(*args)):
            assert abs(report[key]["residual"] - want) < 1e-12


def near_image(rng, code, act, angle):
    """W U for W = exp(i angle H), H random Hermitian on the complement of the
    code: W fixes C, so the image W U C stays orthogonal to it."""
    b = code.basis
    perp = np.eye(1 << code.n) - b @ b.conj().T
    h = rng.standard_normal(perp.shape) + 1j * rng.standard_normal(perp.shape)
    w, v = np.linalg.eigh(perp @ (h + h.conj().T) @ perp)
    return UnitaryAction(code.n, v @ np.diag(np.exp(1j * angle * w)) @ v.conj().T @ act.matrix)


def test_cross_check_of_an_equal_size_foreign_union(monkeypatch, rng):
    # C (+) VC with V != U has the dimensions of C (+) UC, so the pairs are
    # read, but the pipeline columns are not the union's: the verdict is
    # False, and the largest group residual is within a factor two of the
    # full one (only sqrt(2K^2 - K + 1) is guaranteed), for a V far from U
    # and for V = W U with W close to the identity
    code, act = fixture_gbp_code(), _as_action(4, gbp_pair_transform())
    cases = [(code, act, CodeTransform(4, locals=["I", "X", "H", "X"]))]
    near, near_act = swap_pair(rng, 3, 2)
    cases += [(near, near_act, near_image(rng, near, near_act, angle)) for angle in (1e-6, 1e-3)]
    for code, act, v in cases:
        union, _ = union_code([code, transform_code(code, v)])
        args, report = cross_check_inputs(monkeypatch, code, act, union)
        for key, want in zip(("theorem4", "theorem5"), grid_residuals_full_gram(*args)):
            assert report[key]["dim"] == report[key]["direct_dim"]
            assert not report[key]["matches_direct"]
            assert want / 2 <= report[key]["residual"] <= 1 + 1e-12


def closed_form_cases(rng):
    """block_sum_cases, the whole-space gbp-union under IIIX, and |00> under X (x) H."""
    pair = ingest_code({"n": 2, "label": "pair", "basis": [[(1, "00")]]})
    return block_sum_cases(rng) + [
        (get_fixture("gbp-union"), CodeTransform(4, locals=["I", "I", "I", "X"])),
        (pair, CodeTransform(2, locals=["X", "H"]))]


def projector_distance(x, y):
    """|P_x - P_y|_2 for orthonormal x and y of equal width: the sine of their
    largest principal angle, the norm of the residual of y off x."""
    assert x.shape == y.shape
    return float(np.linalg.norm(y - x @ (x.T @ y), 2))


def test_closed_form_directions_match_the_new_direction_step(rng):
    # a and B span what the reference's rank-cut step finds that the
    # expectation row, and p with U p U^H, add to S-perp; a sits in p's
    # slot of Theorem 4's diagonal, and B in p's and p''s of Theorem 5's
    for code, u in closed_form_cases(rng):
        act = _as_action(code.n, u)
        k = code.k
        grid = _block_sum(code, act)
        shared, four, five = _formula_complements(code, act)
        assert np.array_equal(shared, grid)
        s, p, p_conj = grid_parts(grid)
        a, b = four[:, k - 1:k], five[:, k - 1::k]
        # S-perp's own diagonal columns are the same in both
        assert np.array_equal(np.delete(four, k - 1, axis=1),
                              np.delete(five, k - 1, axis=1)[:, :2 * k - 2])
        row = equal_expectation_space(code, act).complement
        assert projector_distance(a, _new_directions(s, row)) <= 1e-14
        assert projector_distance(b, _new_directions(s, np.hstack([p, p_conj]))) <= 1e-14
        assert b.shape[1] == (1 if 2 * k == 1 << code.n else 2)
        assert np.max(np.abs(b.T @ b - np.eye(b.shape[1]))) <= 1e-14
        assert np.max(np.abs(s.T @ np.hstack([a, b]))) <= 1e-14
        # the cosine of p and U p U^H is the constant the closed forms use
        assert abs((p.T @ p_conj).item() + k / ((1 << code.n) - k)) <= 1e-14


def test_pure_formula_with_the_erasure_direction_has_the_wrong_dimension(rng):
    # negative control: where B has two columns, Theorem 4's diagonal, with a
    # in p's slot, in place of Theorem 5's leaves the pure formula one
    # dimension too large
    for code, u in closed_form_cases(rng):
        if 2 * code.k == 1 << code.n:
            continue  # there c = -1 and a = p = B: the control cannot differ
        act = _as_action(code.n, u)
        grid, four, _ = _formula_complements(code, act)
        union, _ = union_code([code, transform_code(code, act)])
        wrong = OperatorSubspace(code.n, theorem_columns(grid, four))
        assert wrong.dim != pure_erasure_space(union).dim
