"""qerasure benchmark: three closed-loop workloads in fresh interpreters.

    python3 perfbench/run.py --workload {report,theorem,tour} --seed N \
        --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root.  The seed fixes every input; inputs are
generated here (perfbench/inputs.py, numpy only) before any child starts, so
the program sees only generated code files, codes and transforms.  Each child
is a new interpreter with one caller and BLAS pinned to one thread.  Times are
scaled to a reference machine speed measured in the same child (see
CALIBRATION_REF_S and perfbench/README.md).

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of a traced child, beside an untraced one for trace.overhead.  The
last line of output is one JSON object: correct, attempted, failed, metrics.
"all" runs every workload with both settings and prints each metric by name
with its unit.  Details (environment, every operation) are written to
.perfbench_out/.  What each metric means, and which end-to-end metric each
per-layer metric should move, is in perfbench/layers.json.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tomllib
from pathlib import Path

import numpy as np

import inputs
from tracer import MODULES, SPACE_BUILDERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("report", "theorem", "tour")
SETUP_ONLY_CHILDREN = 2  # plus the measuring child: set-up is a median of three
BLAS_THREADS = "1"
# Rounds generated per run, several times what a run uses today, so that a
# faster program still finds fresh inputs for its whole measuring time.
ROUNDS = {"report": 60, "theorem": 40, "tour": 60}
RUN_TIMEOUT_S = 170  # a run, all its children included, ends within this
# The host's speed moves by 20-40% from one run to the next, and CPU time moves
# with it, so every reported time is scaled to a reference machine speed:
# divided by (calibration kernel time / CALIBRATION_REF_S), using the
# calibrations the same child ran near it (child.calibrate).  Unscaled values
# are kept in the details file.
CALIBRATION_REF_S = 0.010
CALIBRATION_WINDOW = 15  # operations on each side of an operation

# Malformed code files in every report round: (case, base code, the documented
# wrong outcome at the time the benchmark was written, or None when the input
# is already handled).  The contract is exit 1 with one "qerasure: error[..]"
# line; a case that still shows its documented outcome counts as a failed
# operation but leaves "correct" true, any other deviation makes it false.
MALFORMED = (
    ("truncated-json", "gbp", None),
    ("duplicate-vector", "rains-subcode", None),
    ("re-string", "gbp", "traceback TypeError"),
    ("bits-int", "gbp-union", "traceback TypeError"),
    ("n-float", "gbp", "exit 0"),
)
# (mode, extra arguments, format, max weight) for each base code in a round.
# 5 bases x 6 modes + 5 malformed files = 35 operations: with an odd count
# whose 90% point falls mid-operation, op_p50_ms and op_p90_ms each sit inside
# one kind of operation instead of on a step between two.
REPORT_MODES = (
    ("analyze", [], "json", None),
    ("analyze", ["--max-weight", "2"], "table", 2),
    ("classify", [], "json", None),
    ("classify", ["--pure"], "table", None),
    ("distance", [], "json", None),
    ("distance", [], "table", None),
)
REPORT_BASES = ("gbp", "gbp-union", "rains-subcode", "rains-union", "six")
# theorem: random K-frames (n, K, tag) plus the fixture pairs.  Of 16
# operations, 7 are cheaper than n=5, K=4 and 3 (n=5, K=8) dearer than
# everything else, so the median falls inside the n=5, K=4 Pauli-only
# operations and the 90th percentile inside the K=8 ones, never on a step
# between two kinds.  n=6 is kept at K=2 (the gram-tensor-bound case); one
# n=6, K=8 operation takes over 5 s, a sixth of a run.
THEOREM_SLOTS = (
    (5, 1, "pauli"), (5, 1, "dense"), (5, 1, "dense"), (5, 2, "pauli"), (5, 2, "dense"),
    (5, 4, "pauli"), (5, 4, "dense"), (5, 4, "pauli"), (5, 4, "dense"),
    (5, 8, "pauli"), (5, 8, "dense"), (5, 8, "pauli"), (6, 2, "dense"),
    "gbp", "rains-subcode", "six",
)
# "hermitian" is a stored four-qubit K=4 frame (hermitian_witnesses.json) on
# which hermitian_basis shows its IndexError defect; the script calls
# hermitian_basis on that slot only.  On random frames the defect strikes about
# 1 in 70, so which runs met it depended on how many rounds they reached; with
# the stored frames it is exactly 1 in 10 tour operations, and a fix shows.
TOUR_SLOTS = ("gbp", (4, 2), "hermitian", "rains-subcode", (5, 2), (5, 2), (5, 4), (5, 4),
              "six", (6, 2))
WITNESSES = BENCH / "hermitian_witnesses.json"

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_rss_mb", "MB"))
SELF_MS = ("erasure.classify_paulis", "erasure.minimum_distance", "erasure.pure_distance",
           "codes.ingest_code", "cli.main", "cli.emit_report", "erasure.erasure_space",
           "erasure.pure_erasure_space", "erasure.annihilating_space",
           "operator_space.from_constraints", "operator_space.intersect",
           "operator_space.equality_residual", "unions.conjugate_subspace",
           "unions.left_multiply_subspace", "unions.right_multiply_subspace",
           "unions.equal_expectation_space", "unions.union_code",
           "operator_space.coords_to_matrices", "operator_space.matrices_to_coords",
           "operator_space.basis", "erasure.hermitian_basis")
CALLS = ("erasure.check_erasure", "erasure.check_pure", "codes.basis_matrix",
         "pauli.apply_to_amplitudes", "operator_space.from_constraints",
         "operator_space.member_residual")
TAGS = ("pauli", "dense")
TAG_MS = ("unions.conjugate_subspace", "unions.left_multiply_subspace",
          "unions.right_multiply_subspace", "unions.equal_expectation_space",
          "operator_space.coords_to_matrices", "operator_space.matrices_to_coords",
          "operator_space.from_constraints", "operator_space.intersect",
          "erasure.erasure_space")


def per_layer_metrics() -> list[tuple[str, str]]:
    out = [("setup.import_s", "s"), ("setup.warmup_s", "s"),
           ("operator_space.pauli_order.ms", "ms")]
    out += [(f"{name}.ms", "ms") for name in SELF_MS]
    out += [(f"{name}.calls", "count") for name in CALLS]
    out += [("codes.ingest_code.errors", "count"), ("erasure.space_calls", "count"),
            ("erasure.gram_bytes", "B")]
    for mod in MODULES:
        out += [(f"{mod}.self_ms", "ms"), (f"{mod}.calls", "count")]
    for tag in TAGS:
        out += [(f"tag.{tag}.ops", "count"), (f"tag.{tag}.op_ms", "ms")]
        out += [(f"tag.{tag}.{name}.ms", "ms") for name in TAG_MS]
    out += [("trace.overhead", "ratio"), ("fail_frac", "ratio")]
    return out


# --- inputs -------------------------------------------------------------------

class Inputs:
    """Generates one run's operations from the seed; every code is new."""

    def __init__(self, workload: str, seed: int, tmp: Path):
        self.rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
        self.tmp = tmp
        self.bases = inputs.base_codes()
        self.seen: set[bytes] = set()
        self.count = 0
        self.witnesses: list[np.ndarray] | None = None
        self.witness_count = 0

    def _fresh(self, make):
        """Draw from make() until the code has not been used in this run."""
        while True:
            code, extra = make()
            key = np.round(code, 9).tobytes()
            if key not in self.seen:
                self.seen.add(key)
                return code, extra

    def image(self, base: str) -> tuple[int, np.ndarray]:
        """A random qubit permutation after random local Cliffords of a base code."""
        n, code = self.bases[base]

        def make():
            locs = inputs.random_clifford_locals(self.rng, n)
            return inputs.apply(code, n, locs, self.rng.permutation(n)), None

        return n, self._fresh(make)[0]

    def witness(self) -> np.ndarray:
        """The next stored hermitian_basis witness, in an order drawn from the
        seed; they repeat only after every one has been used."""
        if self.witnesses is None:
            stored = json.loads(WITNESSES.read_text())["codes"]
            self.witnesses = [inputs.spec_matrix(stored[i])
                              for i in self.rng.permutation(len(stored))]
        code = self.witnesses[self.witness_count % len(self.witnesses)]
        self.witness_count += 1
        self.seen.add(np.round(code, 9).tobytes())
        return code

    def pair(self, slot) -> dict:
        """A code and a transform whose image is orthogonal to it."""
        if slot == "hermitian":
            code = self.witness()
            n, k, tag = 4, code.shape[1], TAGS[self.rng.integers(2)]
            partner = inputs.frame_partner(self.rng, n, tag)
            kind = f"n{n}-K{k}-hermitian"
        elif isinstance(slot, str):
            n, base = self.bases[slot]
            tag = "pauli"
            partner = inputs.fixture_partner(slot, self.rng)
            code, partner = self._fresh(
                lambda: inputs.conjugate_pair(self.rng, n, base, partner))
            kind = f"{slot}-pair"
        else:
            n, k, tag = slot if len(slot) == 3 else (*slot, TAGS[self.rng.integers(2)])
            code, partner = self._fresh(lambda: (inputs.random_frame(self.rng, n, k),
                                                 inputs.frame_partner(self.rng, n, tag)))
            kind = f"n{n}-K{k}-{tag}"
        if not inputs.is_orthogonal_pair(code, n, partner):
            raise AssertionError(f"{kind}: generated image is not orthogonal")
        return {"kind": kind, "tag": tag, "n": n, "k": code.shape[1],
                "code": inputs.code_spec(code, n, kind),
                "transform": inputs.transform_spec(partner)}

    def label(self, n: int, weight: int) -> str:
        letters = ["I"] * n
        for q in self.rng.choice(n, size=weight, replace=False):
            letters[q] = "XYZ"[self.rng.integers(3)]
        return "".join(letters)

    def path(self, kind: str, text: str) -> tuple[str, str]:
        self.count += 1
        code_path = self.tmp / f"{self.count:06d}-{kind}.json"
        code_path.write_text(text)
        return str(code_path), str(self.tmp / f"{self.count:06d}.out")


def report_op(gen: Inputs, refs: dict, base: str, variant) -> dict:
    mode, extra, fmt, max_weight = variant
    n, code = gen.image(base)
    code_path, out = gen.path(base, json.dumps(inputs.code_spec(code, n, base)))
    sections = {"analyze": ["erasure", "pure"], "distance": ["erasure", "pure"]}.get(
        mode, ["pure" if "--pure" in extra else "erasure"])
    return {"kind": f"{mode}{''.join(extra)}-{fmt}-{base}", "n": n, "mode": mode,
            "format": fmt, "out": out, "expected": refs[base], "sections": sections,
            "rows": None if mode == "distance" else (n if max_weight is None else max_weight) + 1,
            "argv": [mode, *extra, "--format", fmt, "--code", code_path, "--out", out]}


def malformed_op(gen: Inputs, case: str, base: str, known: str | None) -> dict:
    n, code = gen.image(base)
    spec = inputs.code_spec(code, n, base)
    ket = spec["basis"][gen.rng.integers(len(spec["basis"]))]
    term = ket[gen.rng.integers(len(ket))]
    if case == "duplicate-vector":
        spec["basis"].append(spec["basis"][0])
    elif case == "re-string":
        term["re"] = "abc"
    elif case == "bits-int":
        term["bits"] = 5
    elif case == "n-float":
        spec["n"] = n + 0.7
    text = json.dumps(spec)
    if case == "truncated-json":
        text = text[: int(gen.rng.integers(len(text) // 4, 3 * len(text) // 4))]
    code_path, out = gen.path(case, text)
    return {"kind": f"malformed-{case}", "n": n, "known_defect": known,
            "argv": ["distance", "--code", code_path, "--out", out]}


def theorem_op(gen: Inputs, slot) -> dict:
    op = gen.pair(slot)
    d, k2 = 4 ** op["n"], (2 * op["k"]) ** 2
    # K^2 functionals E -> <c_i|E|c_j> of an orthonormal frame are linearly
    # independent, so a union of dimension 2K has these space dimensions.
    op["dims"] = {"theorem4": d - k2 + 1, "theorem5": d - k2}
    return op


def tour_op(gen: Inputs, slot, hermitian: bool = False) -> dict:
    op = gen.pair(slot)
    op["tag"] = ""
    op["hermitian"] = hermitian or slot == "hermitian"
    n = op["n"]
    op["paulis"] = [gen.label(n, w) for w in (1, 2, 3)]
    op["dense"] = [[[[1, 0], gen.label(n, 1)], [[0.5, 0], gen.label(n, 2)]],
                   [[[1, 0], "I" * n], [[0, 1], gen.label(n, 1)]]]
    op["coords"] = [[[1, 0], gen.label(n, 1)], [[0, 1], gen.label(n, 2)]]
    return op


def build_plan(workload: str, seed: int, tmp: Path) -> dict:
    gen = Inputs(workload, seed, tmp)
    if workload == "report":
        refs = {name: inputs.reference(code, n) for name, (n, code) in gen.bases.items()}
        inputs.anchor_references(refs)
        warmup = [report_op(gen, refs, base, REPORT_MODES[0])
                  for base in ("gbp", "rains-union", "six")]

        def one_round():
            ops = [report_op(gen, refs, b, v) for b in REPORT_BASES for v in REPORT_MODES]
            ops += [malformed_op(gen, *case) for case in MALFORMED]
            return ops
    elif workload == "theorem":
        warmup = [theorem_op(gen, slot) for slot in ("gbp", (5, 1, "pauli"), (6, 1, "pauli"))]

        def one_round():
            return [theorem_op(gen, slot) for slot in THEOREM_SLOTS]
    else:
        warmup = [tour_op(gen, "gbp", hermitian=True), tour_op(gen, (5, 2)),
                  tour_op(gen, (6, 2))]

        def one_round():
            return [tour_op(gen, slot) for slot in TOUR_SLOTS]
    rounds = []
    for _ in range(ROUNDS[workload]):
        ops = one_round()
        rounds.append([ops[i] for i in gen.rng.permutation(len(ops))])
    return {"workload": workload, "warmup": warmup, "rounds": rounds}


# --- children -----------------------------------------------------------------

def run_child(plan_path: Path, mode: str, seconds: float, tmp: Path, index: int,
              deadline: float) -> dict:
    result_path = tmp / f"result-{index}-{mode}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), str(plan_path), str(result_path), mode,
         repr(spawn), repr(seconds)],
        env=env, cwd=str(tmp), timeout=max(1.0, deadline - spawn), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(result_path.read_text())
    if mode == "traced":
        result["spans_file"] = str(result_path.with_suffix(".npz"))
    return result


def environment(workload: str, seed: int, seconds: float) -> dict:
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    lines = {p.name: len(p.read_text().splitlines())
             for p in sorted((ROOT / "src" / "qerasure").glob("*.py"))}
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": int(BLAS_THREADS),
        "src_lines": lines, "src_lines_total": sum(lines.values()),
        "runtime_dependencies": project.get("dependencies", []),
    }


# --- metrics --------------------------------------------------------------------

def _tally(children: list[dict]) -> tuple[int, int, bool]:
    ops = [o for c in children for o in c["ops"]]
    warm = [w for c in children for w in c["warmup"]]
    failed = sum(o["status"] != "ok" for o in ops)
    correct = all(o["status"] != "fail" for o in ops + warm)
    return len(ops), failed, correct


def slowness(calibrations) -> float:
    """Machine speed as a factor: mean calibration time over CALIBRATION_REF_S."""
    return statistics.fmean(calibrations) / CALIBRATION_REF_S


def latencies(child: dict, scaled: bool = True) -> np.ndarray:
    """Operation latencies in ms, each divided by the slowness measured by the
    calibrations that ran within CALIBRATION_WINDOW operations of it."""
    lat = np.array([o["ms"] for o in child["ops"]])
    if not scaled:
        return lat
    at = np.array([i for i, _ in child["calibration"]])
    cal = np.array([c for _, c in child["calibration"]])
    factor = np.array([slowness(cal[np.abs(at - i) <= CALIBRATION_WINDOW]
                                if np.any(np.abs(at - i) <= CALIBRATION_WINDOW) else cal)
                       for i in range(len(lat))])
    return lat / factor


def setup_time(child: dict, key: str = "ready_s", scaled: bool = True) -> float:
    return child[key] / (slowness(child["setup_calibration"]) if scaled else 1.0)


def ops_per_s(child: dict, scaled: bool = True) -> float:
    """Operations that passed their check per second of operation time."""
    passed = sum(o["status"] == "ok" for o in child["ops"])
    return passed / (latencies(child, scaled).sum() / 1e3)


def end_to_end(setups: list[dict], main: dict, scaled: bool = True) -> dict:
    p50, p90 = np.percentile(latencies(main, scaled), [50, 90])
    return {
        "setup_s": statistics.median(setup_time(c, scaled=scaled) for c in setups),
        "ops_per_s": ops_per_s(main, scaled),
        "op_p50_ms": float(p50),
        "op_p90_ms": float(p90),
        "peak_rss_mb": main["peak_rss_mb"],
    }


def per_layer(setups: list[dict], plain: dict, traced: dict) -> dict:
    tr = traced["trace"]
    names = tr["names"]

    def ids(metric: str) -> list[int]:
        mod, attr = metric.split(".", 1)
        return [i for i, full in enumerate(names)
                if full.split(".", 1)[0] == mod and full.rsplit(".", 1)[1] == attr]

    tags = tr["per_tag"].values()
    n_ops = sum(t["ops"] for t in tags)
    ms = 1e3 / slowness([c for _, c in traced["calibration"]])

    def per_op(key: str, idx: list[int], acc=None, scale=1.0) -> float:
        groups = [acc] if acc is not None else list(tags)
        ops = sum(g["ops"] for g in groups) if acc is not None else n_ops
        total = sum(g[key][i] for g in groups for i in idx)
        return scale * total / ops if ops else 0.0

    out = {
        "setup.import_s": statistics.median(setup_time(c, "import_s") for c in setups),
        "setup.warmup_s": statistics.median(setup_time(c) - setup_time(c, "import_s")
                                            for c in setups),
        # pauli_order is paid once per process, in set-up; inclusive, because the
        # table it returns is built by its callee enumerate_paulis.
        "operator_space.pauli_order.ms":
            1e3 / slowness(traced["setup_calibration"])
            * sum(tr["setup"]["incl_s"][i] for i in ids("operator_space.pauli_order")),
    }
    for name in SELF_MS:
        out[f"{name}.ms"] = per_op("self_s", ids(name), scale=ms)
    for name in CALLS:
        out[f"{name}.calls"] = per_op("calls", ids(name))
    out["codes.ingest_code.errors"] = per_op("errors", ids("codes.ingest_code"))
    out["erasure.space_calls"] = per_op("calls", [i for s in SPACE_BUILDERS for i in ids(s)])
    out["erasure.gram_bytes"] = sum(t["gram_bytes"] for t in tags) / n_ops if n_ops else 0.0
    for mod in MODULES:
        idx = [i for i, full in enumerate(names) if full.split(".", 1)[0] == mod]
        out[f"{mod}.self_ms"] = per_op("self_s", idx, scale=ms)
        out[f"{mod}.calls"] = per_op("calls", idx)
    for tag in TAGS:
        acc = tr["per_tag"].get(tag)
        out[f"tag.{tag}.ops"] = acc["ops"] if acc else 0
        out[f"tag.{tag}.op_ms"] = ms * acc["op_s"] / acc["ops"] if acc else 0.0
        for name in TAG_MS:
            out[f"tag.{tag}.{name}.ms"] = per_op("self_s", ids(name), acc, ms) if acc else 0.0
    out["trace.overhead"] = ops_per_s(plain) / ops_per_s(traced)
    attempted, failed, _ = _tally([plain, traced])
    out["fail_frac"] = failed / attempted
    return out


# --- runs ---------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 setup_children: int = SETUP_ONLY_CHILDREN) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT_S
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=ROOT / ".perfbench_tmp"))
    try:
        plan_path = tmp / "plan.json"
        plan_path.write_text(json.dumps(build_plan(workload, seed, tmp)))
        setups = [run_child(plan_path, "setup", 0, tmp, i, deadline)
                  for i in range(setup_children)]
        if trace:
            plain = run_child(plan_path, "plain", seconds / 2, tmp, setup_children, deadline)
            traced = run_child(plan_path, "traced", seconds / 2, tmp, setup_children + 1,
                               deadline)
            children = [plain, traced]
            metrics = per_layer(setups + [plain], plain, traced)
            units = dict(per_layer_metrics())
            shutil.move(traced.pop("spans_file"), out_dir / f"spans-{workload}.npz")
        else:
            main = run_child(plan_path, "plain", seconds, tmp, setup_children, deadline)
            children = [main]
            metrics = end_to_end(setups + [main], main)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    attempted, failed, correct = _tally(setups + children)
    ops = [o for c in children for o in c["ops"]]
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    lat = latencies(children[0])
    details = {
        "environment": environment(workload, seed, seconds),
        "trace": trace, "fail_frac": failed / attempted,
        "ops_above_p90": int(np.sum(lat > np.percentile(lat, 90))),
        "slowness": slowness([c for _, c in children[0]["calibration"]]),
        "unscaled": end_to_end(setups + children[:1], children[0], scaled=False),
        "checked": sum(o["checked"] for o in ops),
        "exhausted": any(c["exhausted"] for c in children),
        "failures": sorted({f"{o['kind']} {o.get('detail', '')}".strip()
                            for o in ops if o["status"] != "ok"}),
        "setup_samples_s": [c["ready_s"] for c in setups + children[:1]],
        "calibration_s": {"setup": [c["setup_calibration"] for c in setups + children],
                          "ops": [c["calibration"] for c in children]},
        "ops": [{k: o[k] for k in ("kind", "tag", "n", "ms", "status")} for o in ops],
    }
    if trace:
        details["trace_summary"] = {k: children[1]["trace"][k] for k in ("spans", "spans_dropped")}
    (out_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"result": result, **details}, indent=1))
    result["details"] = details
    return result


def print_result(workload: str, result: dict) -> None:
    d = result["details"]
    env = {k: v for k, v in d["environment"].items() if k != "src_lines"}
    print(f"environment: {json.dumps(env)}")
    print(f"{workload}: {result['attempted']} operations, {result['failed']} failed "
          f"(fail_frac {d['fail_frac']:.4f} ratio), {d['ops_above_p90']} above op_p90_ms, "
          f"correct={result['correct']}" + (", input list exhausted" if d["exhausted"] else ""))
    for failure in d["failures"]:
        print(f"  failed: {failure}")
    for name, m in result["metrics"].items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qerasure" / "__init__.py").is_file():
        print(f"perfbench: no qerasure sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print_result(args.workload, result)
        result.pop("details")
        print(json.dumps(result))
        return 0
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(workload, args.seed, args.seconds, trace)
            print_result(workload, result)
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
