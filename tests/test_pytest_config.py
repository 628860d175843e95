"""The suite's warning filters turn every warning into an error, yet a
failing test is still reported as a failure, and the suite imports the
package from ``src`` without ``PYTHONPATH``.

When a ``@given`` test fails, hypothesis's pytest plugin imports ``libcst``,
which raises ``mypy_extensions``' ``DeprecationWarning``; under the bare
``"error"`` filter that warning ends the whole session in an
``INTERNALERROR``.  A probe of failing tests is run under ``pyproject.toml``
in a subprocess, outside the repository.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"

PROBE = '''
import warnings

from hypothesis import given, settings, strategies as st


@settings(max_examples=1, database=None)
@given(st.integers())
def test_drawn(x):
    assert False


def test_plain():
    assert False


def test_own_warning():
    warnings.warn("probe", DeprecationWarning)
'''


def test_failing_tests_are_listed_not_an_internal_error(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out
    # The filter is for that one warning: the probe's own is still an error.
    for name in ("test_drawn", "test_plain", "test_own_warning"):
        assert f"::{name} - " in out, out
    assert "3 failed" in out, out


def test_plain_pytest_finds_the_package_without_pythonpath():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "--collect-only", "-q",
         "tests/test_core.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
