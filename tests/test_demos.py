"""Every narrative script in demos/ runs to completion."""

import glob
import os
import subprocess
import sys

import pytest

import fraclap

# the child process imports the same fraclap as this one
_SRC = os.path.dirname(os.path.dirname(fraclap.__file__))
_DEMOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "demos", "*.py")))


def test_demos_found():
    assert _DEMOS


@pytest.mark.parametrize("script", _DEMOS, ids=os.path.basename)
def test_demo_exits_zero(script):
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, script], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": path})
    assert r.returncode == 0, r.stderr
