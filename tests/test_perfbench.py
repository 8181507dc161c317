import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_checkers_reject_their_planted_faults():
    # in a subprocess: the checkers' tests re-import ssig from scratch
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "perfbench/test_checks.py"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
