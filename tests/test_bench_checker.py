"""The benchmark's independent checker reads the program's output formats;
its own unit tests run here so that a format change cannot pass unnoticed."""

import subprocess
import sys
from pathlib import Path


def test_bench_checker_unit_tests_pass():
    root = Path(__file__).parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench", "-p", "test_*.py"],
        cwd=root, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
