"""Property tests for the laws of the subspace algebra on random complements.

Each example draws two spaces on n <= 3 qubits from orthonormal complements
that share a random number of directions, so intersections range from the
zero space to nearly the whole space and include rank-deficient stacks.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from qerasure import OperatorSubspace, containment_residual, equality_residual, intersect

from conftest import random_unitary


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
    meet.validate(1e-12)
    assert containment_residual(meet, a) < 1e-12
    assert containment_residual(meet, b) < 1e-12


@LAWS
@given(space_pairs())
def test_intersection_with_itself_is_idempotent(pair):
    a, _ = pair
    meet = intersect([a, a])
    meet.validate(1e-12)
    assert meet.dim == a.dim
    assert equality_residual(meet, a) < 1e-12


@LAWS
@given(space_pairs())
def test_intersection_is_symmetric(pair):
    a, b = pair
    ab, ba = intersect([a, b]), intersect([b, a])
    ab.validate(1e-12)
    ba.validate(1e-12)
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
