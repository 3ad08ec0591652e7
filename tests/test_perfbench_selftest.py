"""The benchmark's self-test runs in the test suite, so a renamed engine
function or a broken benchmark check fails here and not only in a
benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    r = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, check=False, cwd=ROOT,
    )
    assert r.returncode == 0, r.stdout + r.stderr
