#!/usr/bin/env python3
"""Runs the benchmark's own tests: the output checks and the compare step.

    python3 satmbench/tests/run_tests.py

Builds satmbench (as run.py does), runs satmbench_checks_test, which feeds
every output check a corrupted input and expects it to be rejected, then
the compare.py unit tests. Exit status 0 when all pass.
"""

import subprocess
import sys
import unittest
from pathlib import Path

TESTS = Path(__file__).resolve().parent
sys.path.insert(0, str(TESTS.parent))
import run  # noqa: E402


def main():
    if not run.build():
        return 2
    run.WORK_DIR.mkdir(parents=True, exist_ok=True)
    checks = subprocess.run([str(run.BUILD_DIR / "satmbench_checks_test"),
                             str(run.WORK_DIR)])
    suite = unittest.defaultTestLoader.discover(str(TESTS),
                                                pattern="test_*.py")
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    return 0 if checks.returncode == 0 and ok else 1


if __name__ == "__main__":
    sys.exit(main())
