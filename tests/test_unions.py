import numpy as np
import pytest

from qerasure import (
    CodeTransform,
    Ket,
    OperatorSubspace,
    OrthogonalityError,
    QuantumCode,
    SUBSPACE_TOL,
    UnitaryAction,
    code_to_json,
    conjugate_subspace,
    containment_residual,
    cross_check_intersection_formulas,
    equal_expectation_space,
    equality_residual,
    erasure_space,
    fixture_gbp_code,
    fixture_rains_subcode,
    gbp_pair_transform,
    get_fixture,
    ingest_code,
    intersect,
    left_multiply_subspace,
    minimum_distance,
    multiply,
    pauli_coords,
    pauli_from_string,
    pure_erasure_space,
    rains_component_transform,
    rains_orbit_codes,
    rains_product_weight_survey,
    right_multiply_subspace,
    transform_code,
    union_code,
    union_erasure_space_via_intersection,
    union_pure_space_via_intersection,
    weight,
)
from qerasure.codes import basis_matrix
from qerasure.erasure import annihilating_space
from qerasure.operator_space import _pauli_grams, _pauli_table
from qerasure.unions import _as_action, _mixed_blocks, _product_map

from _oracle import SINGLE, conjugate_letters, transform_matrix
from conftest import random_code, random_orthogonal_pair, random_unitary

ADJOINT_CLOSED = (erasure_space, pure_erasure_space, annihilating_space)


def swap_pair(rng, n, k):
    """A random K-frame and a dense unitary that swaps it with an orthogonal one."""
    code, other = random_orthogonal_pair(rng, n, k, k)
    b1, b2 = basis_matrix(code), basis_matrix(other)
    # unitary sending code -> other, completed arbitrarily on the complement
    rest = np.linalg.qr(np.hstack([b1, b2]), mode="complete")[0][:, 2 * k:]
    rest2 = np.linalg.qr(np.hstack([b2, b1]), mode="complete")[0][:, 2 * k:]
    u = np.hstack([b2, b1, rest2]) @ np.hstack([b1, b2, rest]).conj().T
    return code, UnitaryAction(n, u)


def half_frame_pair(rng, n, k):
    """A random K-frame on the qubit-0 = |0> half and a Pauli-type transform
    with X on qubit 0, whose image lies in the other half."""
    frame = random_unitary(rng, 1 << (n - 1))[:, :k]
    kets = tuple(Ket(n, np.concatenate([col, np.zeros(1 << (n - 1))])) for col in frame.T)
    return (QuantumCode(n=n, k=k, basis=kets, label="half"),
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
    out = conjugate_subspace(s, UnitaryAction.identity(4))
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


def test_conjugate_preserves_dim_random(rng):
    s = OperatorSubspace.from_span(
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
        act = _as_action(5, t)
        conj = _product_map(5, left=act.matrix, right=act.matrix.conj().T)
        images = conj(np.eye(4**5, dtype=complex))
        expected = np.zeros((4**5, 4**5))
        for j, label in enumerate(labels):
            sign, image = conjugate_letters(label, t.perm, "IIXXX")
            assert image.count("I") == label.count("I")
            expected[column[image], j] = sign
        assert np.max(np.abs(images - expected)) < 1e-12


def test_one_sided_multiplication_round_trip():
    s = pure_erasure_space(fixture_gbp_code())
    act = _as_action(4, gbp_pair_transform())
    back = left_multiply_subspace(left_multiply_subspace(s, act), act.adjoint())
    assert equality_residual(back, s) < 1e-9
    back = right_multiply_subspace(right_multiply_subspace(s, act), act.adjoint())
    assert equality_residual(back, s) < 1e-9
    ident = UnitaryAction.identity(4)
    assert equality_residual(left_multiply_subspace(s, ident), s) < 1e-10


def test_one_sided_products_change_weight():
    # a weight-3 operator drops to weight two after one-sided multiplication
    e2 = pauli_from_string("IZIXX")
    shifted_tau = pauli_from_string("XIIXX")  # X-pattern rotated by one
    prod = multiply(shifted_tau, e2)
    assert weight(e2) == 3 and weight(shifted_tau) == 3
    assert weight(prod) == 2
    assert (prod.x_mask, prod.z_mask) == (
        pauli_from_string("XZIII").x_mask, pauli_from_string("XZIII").z_mask)


def test_product_weight_survey():
    survey = rains_product_weight_survey()
    cases = survey["cases"]
    # products built from the first violator never drop below weight three
    assert cases["E1.left"]["min_weight"] >= 3
    assert cases["E1.right"]["min_weight"] >= 3
    assert cases["E1.left"]["weight2_paulis"] == ()
    # products built from the second violator reproduce listed patterns
    for side in ("left", "right"):
        entry = cases[f"E2.{side}"]
        assert entry["min_weight"] == 2
        assert entry["reproduces_listed"]
        assert set(entry["weight2_paulis"]) <= set(survey["listed_patterns"])
        assert entry["weight2_paulis"]


# ------------------------------------------------------ expectation space

def test_equal_expectation_identity_action():
    code = fixture_gbp_code()
    s = equal_expectation_space(code, UnitaryAction.identity(4))
    assert s.dim == 256


def test_equal_expectation_gbp_dim():
    code = fixture_gbp_code()
    s = equal_expectation_space(code, gbp_pair_transform())
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
    others = [es, conjugate_subspace(es, t), _mixed_blocks(code, _as_action(code.n, t))]
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
                out.validate(1e-12)
                image = _product_map(n, left=mat, right=mat.conj().T)(space.complement)
                assert np.max(np.abs(image.imag), initial=0) <= 1e-13
                complex_route = OperatorSubspace(n, complement=image)
                assert out.dim == complex_route.dim == space.dim
                assert equality_residual(out, complex_route) < 1e-12


def fixture_and_random_pairs(rng):
    return [(fixture_gbp_code(), gbp_pair_transform()),
            (fixture_rains_subcode(), rains_component_transform(1)),
            swap_pair(rng, 3, 2), swap_pair(rng, 4, 3), half_frame_pair(rng, 4, 3)]


def test_real_mixed_piece_matches_complex_one_sided_images(rng):
    for code, u in fixture_and_random_pairs(rng):
        act = _as_action(code.n, u)
        zs = annihilating_space(code)
        one_sided = intersect([right_multiply_subspace(zs, act.adjoint()),
                               left_multiply_subspace(zs, act)])
        assert one_sided.complement.dtype == np.complex128
        mixed = _mixed_blocks(code, act)
        assert mixed.complement.dtype == np.float64
        mixed.validate(1e-12)
        assert mixed.dim == one_sided.dim == 4**code.n - 2 * code.k**2
        assert equality_residual(mixed, one_sided) < 1e-12


def test_equal_expectation_space_is_real(rng):
    for code, u in fixture_and_random_pairs(rng):
        act = _as_action(code.n, u)
        s = equal_expectation_space(code, act)
        assert s.complement.dtype == np.float64
        s.validate(1e-12)
        ket = code.basis[0]
        grams = _pauli_grams(np.column_stack([ket.amplitudes, act.apply(ket).amplitudes]),
                             code.n)
        complex_route = OperatorSubspace.from_constraints(code.n, grams[:, 0, 0] - grams[:, 1, 1])
        assert complex_route.complement.dtype == np.complex128
        assert s.dim == complex_route.dim
        assert equality_residual(s, complex_route) < 1e-12


def test_theorem_route_runs_in_real_arithmetic(rng):
    for code, u in fixture_and_random_pairs(rng):
        for space in (union_erasure_space_via_intersection(code, u),
                      union_pure_space_via_intersection(code, u)):
            assert space.complement.dtype == np.float64
            space.validate(1e-12)


def test_upper_bound_chains():
    code = fixture_gbp_code()
    act = _as_action(4, gbp_pair_transform())
    union = get_fixture("gbp-union")
    eu = erasure_space(union)
    es = erasure_space(code)
    zs = annihilating_space(code)
    conj_chain = intersect([es, conjugate_subspace(es, act)])
    assert containment_residual(eu, conj_chain) < 1e-8
    sided_chain = intersect([
        right_multiply_subspace(zs, act.adjoint()),
        left_multiply_subspace(zs, act),
    ])
    assert containment_residual(eu, sided_chain) < 1e-8


def test_one_sided_pure_chain_misses_pairing_scalar():
    # substituting the pure space into the one-sided factors re-admits the
    # pairing unitary itself, so that containment fails by a fixed angle
    code = fixture_gbp_code()
    act = _as_action(4, gbp_pair_transform())
    union = get_fixture("gbp-union")
    eu = erasure_space(union)
    ps = pure_erasure_space(code)
    sided_pure = intersect([
        right_multiply_subspace(ps, act.adjoint()),
        left_multiply_subspace(ps, act),
    ])
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


def test_cross_check_builds_the_image_once(monkeypatch, constraint_solves):
    from qerasure import unions

    images = []
    real = unions.transform_code
    monkeypatch.setattr(unions, "transform_code",
                        lambda *args, **kwargs: images.append(args) or real(*args, **kwargs))
    report = cross_check_intersection_formulas(fixture_gbp_code(), gbp_pair_transform())
    assert report["theorem4"]["matches_direct"] and report["theorem5"]["matches_direct"]
    assert len(images) == 1
    # the two intersections and the equal-expectation space; every other
    # space is written down from a gram tensor
    assert len(constraint_solves) == 3


def test_cross_check_builds_three_gram_tensors(gram_builds):
    code = ingest_code(code_to_json(fixture_gbp_code()))
    cross_check_intersection_formulas(code, gbp_pair_transform())
    # the code's, the union's, and the anchor pair's of the expectation space
    assert sorted(gram_builds) == [(4, 2), (4, 4), (4, 8)]
