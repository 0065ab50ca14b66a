import os
import sys
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


def set_cpus(monkeypatch, cpus):
    """Make operator_space._cpus, and so the thread rules, see cpus CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


@pytest.fixture
def fresh_pool(monkeypatch):
    """operator_space's worker pool, started anew on first use in the test
    (after set_cpus, with that many CPUs less one workers); its workers are
    stopped and joined after the test, and the process's pool put back."""
    from qerasure import operator_space

    monkeypatch.setattr(operator_space, "_pool", None)
    yield
    pool = operator_space._pool
    if pool is not None:
        for _ in pool.workers:
            pool.tasks.put(None)
        for worker in pool.workers:
            worker.join(10)
            assert not worker.is_alive()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def gram_builds(monkeypatch):
    """Record every _pauli_grams call made through any qerasure module, as
    (n, left columns, right columns): a code's own tensor is (n, K, K)."""
    from qerasure import operator_space

    calls = []
    real = operator_space._pauli_grams

    def counted(left, right, n):
        calls.append((n, left.shape[1], right.shape[1]))
        return real(left, right, n)

    for name, mod in list(sys.modules.items()):
        if name.startswith("qerasure") and getattr(mod, "_pauli_grams", None) is real:
            monkeypatch.setattr(mod, "_pauli_grams", counted)
    return calls
