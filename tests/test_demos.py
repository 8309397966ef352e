"""The fast demos run to completion, and every check they print holds.

A demo prints its checks as booleans, so a printed `False` is a failed
check even when the demo exits 0. Each runs as a script in a fresh working
directory (convergence_oracle writes its CSVs there) against the package this
suite imports.
`distill_and_evaluate.py` takes about 9 s and stays a manual check.
"""

import os
import re
import subprocess
import sys

import pytest

import sgsdistill

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(sgsdistill.__file__)))
# Checks a demo must print, so that dropping one fails too.
REQUIRED = {"containers_and_checkpoints": r"^  load peak .* record chunk: True$"}


@pytest.mark.parametrize("demo", ["spectral_decomposition", "containers_and_checkpoints",
                                  "pseudo_domains", "convergence_oracle"])
def test_demo_exits_cleanly(tmp_path, demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [PACKAGE_ROOT, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, os.path.join(DEMOS, f"{demo}.py")], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    failed = [line for line in done.stdout.splitlines() if re.search(r"\bFalse\b", line)]
    assert not failed, "\n".join(failed)
    if demo in REQUIRED:
        assert re.search(REQUIRED[demo], done.stdout, re.MULTILINE), done.stdout
