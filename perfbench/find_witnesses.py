"""Finds the stored inputs of the tour workload's hermitian_basis slot.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/find_witnesses.py COUNT

Draws random four-qubit K=4 frames (inputs.random_frame, fixed search seed)
and keeps those on which hermitian_basis of the erasure space raises the
IndexError that ops.HERMITIAN_DEFECT describes, until COUNT are found.  They
are written, as the code files the program reads, to hermitian_witnesses.json
next to this file.  About one frame in 70 qualifies (40 in 2931 at the seed search).

The tour runs hermitian_basis only on these frames, one per round, so that
the defect shows in a fixed share of the operations instead of on whichever
random frames a run happens to reach; see README.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import qerasure
import inputs
from ops import HERMITIAN_DEFECT

N, K = 4, 4
SEARCH_SEED = 20260


def triggers(spec: dict) -> bool:
    space = qerasure.erasure_space(qerasure.ingest_code(spec))
    try:
        qerasure.hermitian_basis(space)
    except IndexError as exc:
        return f"IndexError: {exc}" == HERMITIAN_DEFECT.format(dim=space.dim)
    return False


def main(count: int) -> int:
    rng = np.random.default_rng(SEARCH_SEED)
    found, tried = [], 0
    while len(found) < count:
        tried += 1
        spec = json.loads(json.dumps(inputs.code_spec(inputs.random_frame(rng, N, K), N,
                                                      f"hermitian-witness-{len(found)}")))
        if triggers(spec):
            found.append(spec)
            print(f"{len(found)} of {count} after {tried} frames", flush=True)
    path = Path(__file__).resolve().parent / "hermitian_witnesses.json"
    path.write_text(json.dumps({"n": N, "k": K, "search_seed": SEARCH_SEED, "tried": tried,
                                "codes": found}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1])))
