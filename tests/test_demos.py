"""Every demo script runs to completion against the library in ``src``, and
the pinned ones print the same bytes."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout.
STDOUT_SHA256 = {
    "01_checking_circular_proofs":
        "0d89ee11aedd078ccfb1fe96823a190fa5ea98a7a79aa0471305898aa7407abb",
    "02_pigeonhole_refutations":
        "759a8f3c77bd366656e7363675544b3fa7e5a014069d1c158c1bc379ad31df18",
    "03_polynomial_translations":
        "48a947476b9ad88a9bc7f4dfa2740156025400a6c9d1c334f189cce5e947b0e6",
    "04_bounded_width_search":
        "ddbbf0ad469905725f596cb0acefd815d601ffbd6549246344d4103544a8b924",
}


def test_demos_exist():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if demo.stem in STDOUT_SHA256:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_SHA256[demo.stem]


def test_every_pinned_demo_exists():
    assert STDOUT_SHA256.keys() <= {d.stem for d in DEMOS}
