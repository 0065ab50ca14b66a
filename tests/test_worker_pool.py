"""The package's one worker pool: started once, kept, shared, and reset in a forked child.

Every wait here has a timeout, so a deadlock fails the test instead of
hanging the suite, and no test starts more than one child process.
"""

import json
import os
import select
import subprocess
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest

from qerasure import CodeTransform, QuantumCode, cross_check_intersection_formulas
from qerasure import operator_space
from qerasure.operator_space import _beside, _complete_orthonormal

from conftest import random_unitary, set_cpus, src_env


def within(seconds, fn):
    """fn() in a daemon thread: its result, or its error re-raised; fails if it
    has not returned within seconds, so a deadlock fails instead of hanging."""
    box = {}

    def run():
        try:
            box["result"] = fn()
        except BaseException as error:  # re-raised in the test's thread below
            box["error"] = error

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["result"]


def half_frame(rng, n, k):
    """A random K-frame on the qubit-0 = |0> half, and a transform with X on
    qubit 0 and H/S locals, whose image lies in the other half."""
    frame = random_unitary(rng, 1 << (n - 1))[:, :k]
    code = QuantumCode(n=n, basis=np.vstack([frame, np.zeros_like(frame)]))
    return code, CodeTransform(n, locals=["X"] + (["H", "S"] * n)[:n - 1])


def test_the_callers_error_wins_and_every_task_ends_first(monkeypatch, fresh_pool):
    # two tasks of 50 ms beside the caller: an error reaches the caller only
    # once both have ended; the caller's own error wins, then the first
    # failed task's; without errors the results come in task order
    set_cpus(monkeypatch, 3)
    ended = []

    def task(i, fail):
        time.sleep(0.05)
        ended.append(i)
        if fail:
            raise RuntimeError(f"task {i}")
        return i

    def own(fail):
        if fail:
            raise ValueError("caller")
        return "own"

    def run():
        with pytest.raises(ValueError, match="caller"):
            _beside(partial(own, True), [partial(task, 1, True), partial(task, 2, True)])
        assert sorted(ended) == [1, 2]
        ended.clear()
        with pytest.raises(RuntimeError, match="task 1"):
            _beside(partial(own, False), [partial(task, 1, True), partial(task, 2, False)])
        assert sorted(ended) == [1, 2]
        return _beside(partial(own, False), [partial(task, 1, False), partial(task, 2, False)])

    assert within(30, run) == ("own", [1, 2])
    assert len(operator_space._pool.workers) == 2


def test_no_pool_task_submits_to_the_pool(rng, monkeypatch, fresh_pool):
    # a threaded cross-check and a spanning basis split over four ranges:
    # every submit comes from the caller, none from a worker, so a queued
    # task never waits on a task behind it
    set_cpus(monkeypatch, 4)
    monkeypatch.setattr(operator_space, "_BESIDE_BYTES", 0)
    monkeypatch.setattr(operator_space, "_THREAD_BYTES", 1 << 20)
    submitters, submit = [], operator_space._submit
    monkeypatch.setattr(operator_space, "_submit",
                        lambda task: submitters.append(threading.current_thread()) or submit(task))
    code, t = half_frame(rng, 4, 3)
    part = np.linalg.qr(rng.standard_normal((1024, 3)))[0]

    def run():
        cross_check_intersection_formulas(code, t)
        _complete_orthonormal(part)
        return threading.current_thread()

    caller = within(30, run)
    assert submitters == [caller] * 4  # one direct side, then three ranges
    assert not set(operator_space._pool.workers) & set(submitters)


def test_two_callers_at_once_get_the_serial_results(rng, monkeypatch, fresh_pool):
    # two caller threads run the same threaded cross-checks and split fills,
    # in opposite orders, on one pool of three workers (more workers than
    # this machine may have CPUs): each gets, bit for bit, what one caller
    # got alone, no thread starts beyond the three workers, and neither
    # waits forever.  n = 5 fills with _THREAD_BYTES lowered to 1 MiB (8 MB
    # each, four ranges) stand for the n = 6 ones, which hold 134 MB each
    set_cpus(monkeypatch, 4)
    monkeypatch.setattr(operator_space, "_BESIDE_BYTES", 0)
    monkeypatch.setattr(operator_space, "_THREAD_BYTES", 1 << 20)
    jobs = []
    for n, k in ((4, 3), (5, 2), (5, 4)):
        code, t = half_frame(rng, n, k)
        jobs.append(partial(cross_check_intersection_formulas, code, t))
    for imag in (0, 1j):
        part = np.linalg.qr(rng.standard_normal((1024, 3)) + imag * rng.standard_normal((1024, 3)))[0]
        jobs.append(lambda part=part: _complete_orthonormal(part).tobytes())
    serial = within(60, lambda: [job() for job in jobs])
    threads = threading.active_count()
    assert len(operator_space._pool.workers) == 3
    results = [None, None]

    def caller(i):
        order = range(len(jobs)) if i == 0 else reversed(range(len(jobs)))
        results[i] = {j: jobs[j]() for j in order}

    callers = [threading.Thread(target=caller, args=(i,), daemon=True) for i in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often: a shared write would show
    try:
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    for got in results:
        assert got is not None and [got[j] for j in range(len(jobs))] == serial
    assert threading.active_count() == threads


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:.*fork\\(\\) may lead to deadlocks")
def test_a_forked_child_starts_its_own_pool_and_gets_the_parents_report(rng, monkeypatch, fresh_pool):
    # the parent's pool is running when it forks; the child has none of its
    # threads, forgets the pool, starts its own for its threaded cross-check
    # and gets the parent's report
    set_cpus(monkeypatch, 2)
    monkeypatch.setattr(operator_space, "_BESIDE_BYTES", 0)
    code, t = half_frame(rng, 5, 4)
    report = cross_check_intersection_formulas(code, t)
    parent_pool = operator_space._pool
    assert parent_pool is not None
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: write the report and whether its pool is its own
        try:
            os.close(read)
            got = cross_check_intersection_formulas(code, t)
            own = operator_space._pool is not parent_pool and operator_space._pool.workers[0].is_alive()
            os.write(write, json.dumps([got, own]).encode())
        finally:
            os._exit(0)
    os.close(write)
    data, deadline = b"", time.monotonic() + 60
    try:
        while time.monotonic() < deadline:
            if select.select([read], [], [], max(deadline - time.monotonic(), 0))[0]:
                chunk = os.read(read, 1 << 16)
                if not chunk:
                    break
                data += chunk
    finally:
        os.close(read)
        if time.monotonic() >= deadline:
            os.kill(pid, 9)
        _, status = os.waitpid(pid, 0)
    assert time.monotonic() < deadline, "the child's cross-check did not return within 60 s"
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    got, own = json.loads(data)
    assert own and got == json.loads(json.dumps(report))


def test_a_process_exits_promptly_after_a_threaded_cross_check():
    # the kept worker is a daemon thread blocked on its queue: it neither
    # holds the interpreter at exit nor changes the exit status
    script = (
        "import os\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from qerasure import CodeTransform, cross_check_intersection_formulas, get_fixture\n"
        "from qerasure import operator_space\n"
        "operator_space._BESIDE_BYTES = 0\n"
        "report = cross_check_intersection_formulas(get_fixture('gbp'), "
        "CodeTransform(4, locals=['I', 'I', 'I', 'Y']))\n"
        "assert operator_space._pool.workers[0].is_alive()\n"
        "print(report['theorem4']['matches_direct'], report['theorem5']['matches_direct'])\n"
    )
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", script], env=src_env(), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True True\n"
    assert time.monotonic() - start < 30
