"""Every demo script runs to completion against the package sources, and
writes the pinned bytes where it writes a sweep."""

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
    for name, digest in writes.items():
        assert hashlib.sha256((ROOT / "demos" / name).read_bytes()).hexdigest() == digest, name
