"""Property tests for the laws of the subspace algebra on random complements.

Each example draws two or more spaces on n <= 3 qubits from orthonormal
complements that share a random number of directions, so intersections range
from the zero space to nearly the whole space and include rank-deficient
stacks.  Intersections are also checked against the stacked wide SVD of
_svd_route.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from qerasure import OperatorSubspace, containment_residual, equality_residual

from _svd_route import intersect, wide_nullspace_complement
from conftest import assert_orthonormal, random_unitary


@st.composite
def space_pairs(draw):
    n = draw(st.integers(1, 3))
    dim = 4**n
    ca = draw(st.integers(0, dim))
    cb = draw(st.one_of(st.just(ca), st.integers(0, dim)))  # equal dims half the time
    shared = draw(st.integers(0, min(ca, cb)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = random_unitary(rng, dim)[:, :ca]
    # b's complement: a mix of a's first `shared` directions plus fresh ones
    fresh = rng.standard_normal((dim, cb - shared)) + 1j * rng.standard_normal((dim, cb - shared))
    mixed = a[:, :shared] @ random_unitary(rng, shared)
    b = np.linalg.qr(np.hstack([mixed, fresh]))[0]
    return OperatorSubspace(n, complement=a), OperatorSubspace(n, complement=b)


LAWS = settings(max_examples=60, deadline=None, derandomize=True)


@LAWS
@given(space_pairs())
def test_intersection_lies_in_each_input(pair):
    a, b = pair
    meet = intersect([a, b])
    assert_orthonormal(meet, 1e-12)
    assert containment_residual(meet, a) < 1e-12
    assert containment_residual(meet, b) < 1e-12


@LAWS
@given(space_pairs())
def test_intersection_with_itself_is_idempotent(pair):
    a, _ = pair
    meet = intersect([a, a])
    assert_orthonormal(meet, 1e-12)
    assert meet.dim == a.dim
    assert equality_residual(meet, a) < 1e-12


@LAWS
@given(space_pairs())
def test_intersection_is_symmetric(pair):
    a, b = pair
    ab, ba = intersect([a, b]), intersect([b, a])
    assert_orthonormal(ab, 1e-12)
    assert_orthonormal(ba, 1e-12)
    assert ab.dim == ba.dim
    assert equality_residual(ab, ba) < 1e-12


@st.composite
def real_and_complex_complements(draw):
    """One space by two complements: a real orthonormal one, and the same
    columns mixed by a random complex unitary, which spans the same space."""
    n = draw(st.integers(1, 3))
    dim = 4**n
    c = draw(st.integers(0, dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    real = np.linalg.qr(rng.standard_normal((dim, c)))[0]
    mixed = real @ random_unitary(rng, c)
    probes = rng.standard_normal((4, dim)) + 1j * rng.standard_normal((4, dim))
    probes[0] = real @ (rng.standard_normal(c) + 1j * rng.standard_normal(c))  # in the complement
    return (OperatorSubspace(n, complement=real), OperatorSubspace(n, complement=mixed),
            probes)


@LAWS
@given(real_and_complex_complements())
def test_real_and_complex_complements_agree(spaces):
    real, mixed, probes = spaces
    assert real.complement.dtype == np.float64 and mixed.complement.dtype == np.complex128
    for v in probes:
        assert abs(real.member_residual(v) - mixed.member_residual(v)) < 1e-12
        assert abs(real.member_residual(v.real) - mixed.member_residual(v.real)) < 1e-12
    assert equality_residual(real, mixed) < 1e-12


@LAWS
@given(space_pairs())
def test_equality_residual_is_symmetric(pair):
    a, b = pair
    if a.dim == b.dim:
        assert abs(equality_residual(a, b) - equality_residual(b, a)) < 1e-14


@st.composite
def intersection_inputs(draw):
    """Two to four spaces on n <= 3 qubits, each complement real or complex.

    Every complement mixes a random number of directions from one shared
    real orthonormal pool with fresh random ones, so the inputs overlap and
    their intersection ranges from the zero space to nearly the whole space.
    One input may have an empty complement (the whole space).
    """
    n = draw(st.integers(1, 3))
    dim = 4**n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.linalg.qr(rng.standard_normal((dim, dim)))[0][:, :draw(st.integers(0, dim))]
    m = draw(st.integers(2, 4))
    full = draw(st.one_of(st.none(), st.integers(0, m - 1)))
    spaces = []
    for i in range(m):
        c = 0 if i == full else draw(st.integers(0, dim))
        shared = draw(st.integers(0, min(c, pool.shape[1])))
        real = draw(st.booleans())
        fresh = rng.standard_normal((dim, c - shared))
        if real:
            mixed = pool[:, :shared] @ np.linalg.qr(rng.standard_normal((shared, shared)))[0]
        else:
            mixed = pool[:, :shared] @ random_unitary(rng, shared)
            fresh = fresh + 1j * rng.standard_normal((dim, c - shared))
        spaces.append(OperatorSubspace(n, complement=np.linalg.qr(np.hstack([mixed, fresh]))[0]))
    return spaces, draw(st.permutations(range(m)))


@LAWS
@given(intersection_inputs())
def test_intersection_matches_the_stacked_svd(case):
    spaces, order = case
    meet = intersect(spaces)
    assert_orthonormal(meet, 1e-12)
    rows = np.vstack([s.complement.conj().T for s in spaces])
    oracle = OperatorSubspace(spaces[0].n, complement=wide_nullspace_complement(rows))
    assert meet.dim == oracle.dim
    assert equality_residual(meet, oracle) < 1e-12
    if all(np.isrealobj(s.complement) for s in spaces):
        assert meet.complement.dtype == np.float64
    permuted = intersect([spaces[i] for i in order])
    assert_orthonormal(permuted, 1e-12)
    assert permuted.dim == meet.dim
    assert equality_residual(permuted, meet) < 1e-12


def test_rank_cut_of_the_intersection_is_absolute():
    # b's one complement direction sits eps off a's three-column complement:
    # its residual off a has singular value eps, kept above RANK_RTOL = 1e-8
    rng = np.random.default_rng(12)
    w = np.linalg.qr(rng.standard_normal((16, 16)))[0]
    a = OperatorSubspace(2, complement=w[:, :3])
    for eps, kept in ((1e-6, True), (1e-10, False)):
        v = w[:, 0] + eps * w[:, 5]
        meet = intersect([a, OperatorSubspace(2, complement=v / np.linalg.norm(v))])
        assert_orthonormal(meet, 1e-12)
        if kept:
            assert meet.dim == a.dim - 1
            assert meet.member_residual(w[:, 5]) > 1 - 1e-12
        else:
            assert meet.dim == a.dim
            assert equality_residual(meet, a) < 1e-12
