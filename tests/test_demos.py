"""Each demo script runs to completion in a fresh interpreter."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [
    "01_erasure_space_tour",
    "02_rains_union_story",
    "03_phase_amplitude_erasures",
    "04_intersection_formulas",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / f"{demo}.py")],
                          env=src_env(), cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    if demo.startswith("01_"):
        assert ("Hermitian basis: 241 elements, 241 with all-real coordinates"
                in proc.stdout)
    if demo.startswith("02_"):
        # one-sided products of the first weight-3 violator never drop below
        # weight three; those of the second reproduce base-vs-image violators
        for side in ("left", "right"):
            assert f"E1.{side}: min product weight 3, weight-2 Pauli products []," in proc.stdout
            assert re.search(rf"E2\.{side}: min product weight 2, weight-2 Pauli products "
                             r"\['[IXYZ]{5}'.*\], inside the base-vs-image violator orbits: "
                             r"True", proc.stdout)
