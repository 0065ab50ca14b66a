"""One fresh interpreter of a benchmark run: import, warm up, run a closed loop.

Usage: child.py PLAN RESULT MODE SPAWN_TIME SECONDS

MODE is "setup" (import and warm up, then stop), "plain" (also run the
timed loop) or "traced" (the same with spans around every public function).
SPAWN_TIME is the parent's time.monotonic() just before it started this
process, so set-up time includes interpreter start-up.  The loop runs whole
rounds of the plan until SECONDS of operation time have been spent; one
caller, each operation started after the previous one was checked.

Between operations, untimed, the child runs a fixed calibration kernel for
about 5% of the operation time, and ten times right after set-up; run.py
scales every time by the machine speed it shows (see CALIBRATION_REF_S).
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

CALIBRATION_SHARE = 0.05
SETUP_CALIBRATIONS = 10


def calibrate() -> float:
    """Seconds for a fixed mix of LAPACK, numpy gathers and interpreter work.

    Uses numpy and the interpreter only, never qerasure, so it measures the
    machine and not the program.
    """
    rng = np.random.default_rng(0)
    a = rng.standard_normal((24, 1024)) + 1j * rng.standard_normal((24, 1024))
    v = rng.standard_normal((64, 2)) + 1j * rng.standard_normal((64, 2))
    idx = np.arange(64)
    start = time.perf_counter()
    np.linalg.svd(a, full_matrices=False)
    acc = 0.0
    for x in range(256):
        signs = 1 - 2 * (np.bitwise_count(idx & x) & 1)
        acc += abs(np.vdot(v[:, 0], (signs * v[:, 1])[idx ^ (x & 63)]))
    table = {}
    for x in range(4096):
        table[(x & 63, x >> 6)] = (x | (x >> 3)).bit_count()
    return time.perf_counter() - start


def _run_one(workload, op, tracer, op_id):
    """Prepare, time and check one operation.

    Returns (seconds, status, detail, whether the check ran).
    """
    prepare, run, check = workload
    prepared = prepare(op)
    if tracer is not None and op_id is not None:
        tracer.begin(op_id, op.get("tag", ""))
    start = time.perf_counter()
    try:
        result = run(op, prepared)
    except Exception as exc:  # counted as a failed operation
        seconds = time.perf_counter() - start
        status, detail = "fail", f"{type(exc).__name__}: {exc}"
    else:
        seconds = time.perf_counter() - start
        status, detail = None, ""
    if tracer is not None and op_id is not None and op_id >= 0:
        tracer.end(seconds)
    checked = status is None
    if checked:
        try:
            status, detail = check(op, prepared, result)
        except Exception as exc:  # output the check could not read
            status, detail = "fail", f"check raised {type(exc).__name__}: {exc}"
        del result
    gc.collect()
    return seconds, status, detail, checked


def main(plan_path: str, result_path: str, mode: str, spawn_time: float,
         seconds: float) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import ops  # imports qerasure, numpy and scipy

    imported = time.monotonic()
    plan = json.loads(Path(plan_path).read_text())
    workload = ops.WORKLOADS[plan["workload"]]
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        tracer.begin(-1, "setup")
    warmup = [_run_one(workload, op, None, None) for op in plan["warmup"]]
    if tracer is not None:
        tracer.end(None)
    ready = time.monotonic()
    # Objects alive after set-up are never garbage; keeping them out of the
    # collector makes the per-operation collection below cheap.
    gc.freeze()
    result = {"import_s": imported - spawn_time, "ready_s": ready - spawn_time,
              "warmup": [{"kind": op["kind"], "status": st, "detail": d}
                         for op, (_, st, d, _) in zip(plan["warmup"], warmup)],
              "ops": [], "exhausted": False,
              "setup_calibration": [calibrate() for _ in range(SETUP_CALIBRATIONS)],
              "calibration": []}  # (index of the operation it followed, seconds)
    if mode != "setup":
        spent, op_id, calibrated = 0.0, 0, 0.0
        for rnd in plan["rounds"]:
            for op in rnd:
                sec, status, detail, checked = _run_one(workload, op, tracer, op_id)
                result["ops"].append({"kind": op["kind"], "tag": op.get("tag", ""),
                                      "n": op["n"], "ms": sec * 1e3,
                                      "status": status, "detail": detail, "checked": checked})
                spent += sec
                op_id += 1
                if calibrated < CALIBRATION_SHARE * spent:
                    result["calibration"].append((op_id - 1, calibrate()))
                    calibrated += result["calibration"][-1][1]
            if spent >= seconds:
                break
        else:
            result["exhausted"] = True
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(Path(result_path).with_suffix(".npz"))
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2], sys.argv[3], float(sys.argv[4]), float(sys.argv[5]))
