"""The package's worker threads: the standard library's thread pool
executor, scoped to each call that fills a spanning basis in row ranges or
builds a large cross-check's direct side beside its pipeline.  Its threads
are started and joined within the call, so none outlives it.

Every wait here has a timeout, so a deadlock fails the test instead of
hanging the suite, and no test starts more than one child process.
"""

import hashlib
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
from qerasure import operator_space, unions
from qerasure.operator_space import _beside, _complete_orthonormal

from conftest import random_unitary, src_env


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


def matmul_threads(monkeypatch):
    """Record the name of the thread of every np.matmul call."""
    names, matmul = [], np.matmul

    def recorded(*args, **kwargs):
        names.append(threading.current_thread().name)
        return matmul(*args, **kwargs)

    monkeypatch.setattr(np, "matmul", recorded)
    return names


def test_the_callers_error_wins_and_every_task_ends_first(fresh_pool):
    # two tasks of 50 ms beside the caller, each in a thread of the call: an
    # error reaches the caller only once both have ended; the caller's own
    # error wins, then the first failed task's; without errors the results
    # come in task order, and no thread is left once a call returns
    ended = []

    def task(i, fail):
        time.sleep(0.05)
        ended.append((i, threading.current_thread().name))
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
        assert sorted(i for i, _ in ended) == [1, 2] and fresh_pool() == []
        ended.clear()
        with pytest.raises(RuntimeError, match="task 1"):
            _beside(partial(own, False), [partial(task, 1, True), partial(task, 2, False)])
        assert sorted(i for i, _ in ended) == [1, 2] and fresh_pool() == []
        ended.clear()
        return _beside(partial(own, False), [partial(task, 1, False), partial(task, 2, False)])

    assert within(30, run) == ("own", [1, 2])
    assert all(name.startswith("qerasure-worker") for _, name in ended)
    assert fresh_pool() == []


def test_no_thread_outlives_a_call(rng, monkeypatch, fresh_pool):
    # on two CPUs an n = 5, K = 8 cross-check (a 2 MiB direct grid) builds
    # its direct side in a worker thread that it joins before it returns; a
    # completion split into ranges as an n = 6 one is (_THREAD_BYTES lowered
    # so 1024 rows take two) fills its second range in a thread it starts,
    # and joins that thread before it returns
    fresh_pool.set_cpus(2)
    code, t = half_frame(rng, 5, 8)
    caller, seen, direct = threading.current_thread(), [], unions._direct_complement
    monkeypatch.setattr(unions, "_direct_complement",
                        lambda *a: seen.append(threading.current_thread()) or direct(*a))
    threads = threading.active_count()
    report = cross_check_intersection_formulas(code, t)
    assert report["theorem4"]["matches_direct"] and report["theorem5"]["matches_direct"]
    worker, = seen
    assert worker.name.startswith("qerasure-worker") and not worker.is_alive()
    assert threading.active_count() == threads and fresh_pool() == []
    monkeypatch.setattr(operator_space, "_THREAD_BYTES", 1 << 20)
    part = np.linalg.qr(rng.standard_normal((1024, 3)))[0]
    names = matmul_threads(monkeypatch)
    _complete_orthonormal(part)
    assert caller.name in names and any(name.startswith("qerasure-worker") for name in names)
    assert threading.active_count() == threads and fresh_pool() == []


def test_two_callers_at_once_get_the_serial_results(rng, monkeypatch, fresh_pool):
    # two caller threads run the same threaded cross-checks and split
    # fills, in opposite orders, on four CPUs (more than this machine may
    # have): each gets, bit for bit, what one caller got alone, and neither
    # waits forever; every thread a call starts is joined by the time it
    # returns.  n = 5 fills with _THREAD_BYTES lowered to 1 MiB (8 MB each,
    # four ranges) stand for the n = 6 ones, which hold 134 MB each
    fresh_pool.set_cpus(4)
    monkeypatch.setattr(operator_space, "_BESIDE_BYTES", 0)
    monkeypatch.setattr(operator_space, "_THREAD_BYTES", 1 << 20)
    jobs = []
    for n, k in ((4, 3), (5, 2), (5, 4)):
        code, t = half_frame(rng, n, k)
        jobs.append(partial(cross_check_intersection_formulas, code, t))
    for imag in (0, 1j):
        part = np.linalg.qr(rng.standard_normal((1024, 3)) + imag * rng.standard_normal((1024, 3)))[0]
        jobs.append(lambda part=part: _complete_orthonormal(part).tobytes())
    threads = threading.active_count()
    serial = within(60, lambda: [job() for job in jobs])
    assert threading.active_count() == threads and fresh_pool() == []
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
    assert threading.active_count() == threads and fresh_pool() == []


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:.*fork\\(\\) may lead to deadlocks")
def test_a_forked_child_starts_its_own_pool_and_gets_the_parents_report(rng, monkeypatch, fresh_pool):
    # the parent fills a basis in two ranges and runs a threaded
    # cross-check, then forks; the child's fill starts a thread of its own
    # and joins it, and gives the parent's basis bit for bit, and the
    # child's threaded cross-check gives the parent's report
    fresh_pool.set_cpus(2)
    monkeypatch.setattr(operator_space, "_BESIDE_BYTES", 0)
    monkeypatch.setattr(operator_space, "_THREAD_BYTES", 1 << 20)
    code, t = half_frame(rng, 5, 4)
    part = np.linalg.qr(rng.standard_normal((1024, 3)))[0]
    digest = hashlib.sha256(_complete_orthonormal(part).data).hexdigest()
    report = cross_check_intersection_formulas(code, t)
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: write its digest, its report and the threads its fill used
        try:
            os.close(read)
            names = matmul_threads(monkeypatch)
            got = hashlib.sha256(_complete_orthonormal(part).data).hexdigest()
            got_report = cross_check_intersection_formulas(code, t)
            own = any(name.startswith("qerasure-worker") for name in names) and fresh_pool() == []
            os.write(write, json.dumps([got, got_report, own]).encode())
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
    assert time.monotonic() < deadline, "the child did not return within 60 s"
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    got, child_report, own = json.loads(data)
    assert own and got == digest and child_report == json.loads(json.dumps(report))


def test_a_process_exits_promptly_after_a_threaded_cross_check():
    # the cross-check joins its worker before it returns: only the main
    # thread is left, and the interpreter neither hangs at exit nor changes
    # the exit status
    script = (
        "import os\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from qerasure import CodeTransform, cross_check_intersection_formulas, get_fixture\n"
        "from qerasure import operator_space\n"
        "operator_space._BESIDE_BYTES = 0\n"
        "report = cross_check_intersection_formulas(get_fixture('gbp'), "
        "CodeTransform(4, locals=['I', 'I', 'I', 'Y']))\n"
        "import threading\n"
        "assert [t.name for t in threading.enumerate()] == ['MainThread']\n"
        "print(report['theorem4']['matches_direct'], report['theorem5']['matches_direct'])\n"
    )
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", script], env=src_env(), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True True\n"
    assert time.monotonic() - start < 30


def test_calls_after_the_interpreter_begins_to_exit_run_in_the_caller():
    # once the interpreter has begun to exit the executor refuses every
    # submit: a thread that outlives the main one and an atexit handler
    # still get their results, with every task run in the calling thread
    # after own(), and a threaded cross-check its report.  The late thread
    # waits until a probe executor refuses work, so the exit hook has run
    script = (
        "import atexit, os, threading, time\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from qerasure import CodeTransform, cross_check_intersection_formulas, get_fixture\n"
        "from qerasure import operator_space\n"
        "from qerasure.operator_space import _beside\n"
        "operator_space._BESIDE_BYTES = 0\n"
        "def where(tag, order):\n"
        "    order.append(tag)\n"
        "    return threading.current_thread().name\n"
        "def call(name):\n"
        "    order = []\n"
        "    got = _beside(lambda: where('own', order), [lambda: where('a', order), lambda: where('b', order)])\n"
        "    report = cross_check_intersection_formulas(get_fixture('gbp'), CodeTransform(4, locals=['I', 'I', 'I', 'Y']))\n"
        "    print(name, got == (name, [name, name]), order, report['theorem4']['matches_direct'], flush=True)\n"
        "def late():\n"
        "    probe = ThreadPoolExecutor(1)\n"
        "    deadline = time.monotonic() + 20\n"
        "    while time.monotonic() < deadline:\n"
        "        try:\n"
        "            probe.submit(int).result()\n"
        "        except RuntimeError:\n"
        "            break\n"
        "        time.sleep(0.01)\n"
        "    call('late')\n"
        "atexit.register(call, 'MainThread')\n"
        "threading.Thread(target=late, name='late').start()\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=src_env(), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ("late True ['own', 'a', 'b'] True\n"
                           "MainThread True ['own', 'a', 'b'] True\n")
