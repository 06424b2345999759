"""The benchmark's own self-test, run against this checkout's library."""

import subprocess
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    # bench/ calls into walks, cli and the rest through their public names;
    # a library change that breaks those calls fails here, not only in a
    # benchmark run
    done = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
