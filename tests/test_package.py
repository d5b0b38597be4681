"""Tests of the package as a whole."""

import os
import subprocess
import sys

import planequant


def test_import_does_not_load_scipy_special():
    # scipy.special costs ~0.07 s of every cold start on top of scipy.linalg;
    # log-factorials come from math.lgamma instead
    src = os.path.dirname(os.path.dirname(os.path.abspath(planequant.__file__)))
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import planequant; "
        "print('scipy.special' in sys.modules, 'scipy.linalg' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["False", "True"]
