"""Smoke check of the benchmark itself; not part of the test suite.

    python3 perfbench/smoke.py

Makes a one-round run of every workload with --trace 0 and --trace 1 and
asserts that every metric BENCHMARK.json names is emitted with its unit, that
the output check ran on every timed operation, and that the checks reject a
wrong output.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            result = run.run_workload(workload, seed=0, seconds=1, trace=trace,
                                      setup_children=0)
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            assert got == wanted[trace], (workload, trace, set(got) ^ set(wanted[trace]))
            assert result["correct"], (workload, trace, result["details"]["failures"])
            assert result["attempted"] >= 1
            assert result["details"]["checked"] == result["attempted"], (workload, trace)
            print(f"{workload} trace={trace}: {len(got)} metrics, "
                  f"{result['details']['checked']} of {result['attempted']} operations checked")
    sys.path.insert(0, str(run.ROOT / "src"))
    import ops  # imports qerasure; only needed for the negative checks

    wrong = {"theorem4": {"dim": 5, "direct_dim": 5, "residual": 0.0, "matches_direct": True},
             "theorem5": {"dim": 4, "direct_dim": 4, "residual": 0.0, "matches_direct": True}}
    assert ops.theorem_check({"dims": {"theorem4": 6, "theorem5": 4}}, None, wrong)[0] == "fail"
    malformed = {"kind": "malformed-n-float", "known_defect": "exit 0"}
    assert ops.report_check(malformed, None, (0, None, ""))[0] == "known"
    assert ops.report_check(malformed, None, (2, None, ""))[0] == "fail"
    assert ops.report_check(malformed, None, (1, None, "qerasure: error[bad-json] x\n"))[0] == "ok"
    print("checks reject wrong outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
