import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from qerasure import QuantumCode


def src_env() -> dict:
    """Environment for a child interpreter that imports qerasure from src/."""
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def random_unitary(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return np.linalg.qr(m)[0]


def random_code(rng, n, k, label="random"):
    """Random orthonormal K-frame on n qubits."""
    return QuantumCode(n=n, basis=random_unitary(rng, 1 << n)[:, :k], label=label)


def assert_orthonormal(space, tol):
    """The complement a space stores is orthonormal: every entry of C^H C - I is at most tol."""
    c = space.complement
    assert np.max(np.abs(c.conj().T @ c - np.eye(c.shape[1])), initial=0) <= tol


def random_orthogonal_pair(rng, n, k1, k2):
    """Two mutually orthogonal random codes drawn from one frame."""
    frame = random_unitary(rng, 1 << n)[:, : k1 + k2]
    first = QuantumCode(n=n, basis=frame[:, :k1], label="rand-a")
    second = QuantumCode(n=n, basis=frame[:, k1:], label="rand-b")
    return first, second


def one_block(monkeypatch, fn, *args):
    """fn(*args) with operator_space._BLOCK_BYTES raised past every output, so
    each kernel that works in blocks makes one."""
    from qerasure import operator_space

    with monkeypatch.context() as m:
        m.setattr(operator_space, "_BLOCK_BYTES", 1 << 62)
        return fn(*args)


class FreshPool:
    """The threads of a test.  Calling it lists the live threads named
    qerasure-worker that started during the test; set_cpus makes
    operator_space._cpus, and so the thread rules, see a given number of
    CPUs."""

    def __init__(self, monkeypatch):
        self.monkeypatch, self.before = monkeypatch, set(threading.enumerate())

    def __call__(self):
        return [t for t in threading.enumerate()
                if t.name.startswith("qerasure-worker") and t not in self.before]

    def set_cpus(self, cpus):
        self.monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


@pytest.fixture
def fresh_pool(monkeypatch):
    """A FreshPool; no qerasure-worker thread it lists outlives the test."""
    pool = FreshPool(monkeypatch)
    yield pool
    assert pool() == []


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def gram_builds(monkeypatch):
    """Record every gram tensor build made through any qerasure module, as
    (n, left columns, right columns): a code's own tensor is (n, K, K).
    Each build, whole (_pauli_grams) or written block by block where it is
    read, is one _gram_blocks call."""
    from qerasure import operator_space

    calls = []
    real = operator_space._gram_blocks

    def counted(left, right, n):
        calls.append((n, left.shape[1], right.shape[1]))
        return real(left, right, n)

    for name, mod in list(sys.modules.items()):
        if name.startswith("qerasure") and getattr(mod, "_gram_blocks", None) is real:
            monkeypatch.setattr(mod, "_gram_blocks", counted)
    return calls
