"""Every demo script runs to completion against the package sources, prints
the pinned bytes, and writes the pinned bytes where it writes a sweep."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_sweep import PINNED_DIGESTS

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# The files a demo writes, with their sha256: demo 04 sweeps T2 over n <= 4.
WRITES = {
    "04_equivalence_sweep.py": dict(
        zip(("t2_sweep.csv", "t2_sweep.summary.json"), PINNED_DIGESTS[("T2", 4)])
    ),
}
# The sha256 of each demo's stdout, with the checkout's path read as
# "<root>" (demo 04 prints where it wrote). Every demo is deterministic;
# demo 02 prints the conflict graph that build_conflict_graph returns.
PRINTS = {
    "01_structure_levels.py": "94426cea0df1078a11a3f99f537750454c8d1aec520bd5be9f97c4bddd5a6420",
    "02_exact_solvers.py": "8654edb047d02cc41e91200a5b0c76dff7d89a86217533a666ca66556098c3b4",
    "03_reductions.py": "b319bf3a63f90a058d2c8c79d917c10b30fc632b847bc57c9edf7e9613154500",
    "04_equivalence_sweep.py": "be94e5025216bea5d8dfc75de25861e09e006c07ca44f2bd749e158508a6c127",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    writes = WRITES.get(demo.name, {})
    for name in writes:  # so that a stale file cannot pass
        (ROOT / "demos" / name).unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    stdout = proc.stdout.replace(str(ROOT), "<root>")
    assert hashlib.sha256(stdout.encode()).hexdigest() == PRINTS[demo.name], stdout
    for name, digest in writes.items():
        assert hashlib.sha256((ROOT / "demos" / name).read_bytes()).hexdigest() == digest, name
