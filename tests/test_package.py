"""Tests of the package as a whole."""

import os
import subprocess
import sys

import pytest

import planequant

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(planequant.__file__)))


def _fresh_modules(statement: str, cwd=None) -> tuple[bool, bool]:
    """('scipy.special', 'scipy.linalg') loaded after ``statement`` in a new interpreter."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import planequant; "
        f"{statement}; "
        "print('scipy.special' in sys.modules, 'scipy.linalg' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code, _SRC], capture_output=True, text=True,
                         check=True, cwd=cwd).stdout
    return tuple(word == "True" for word in out.split()[-2:])


def test_import_does_not_load_scipy_special():
    # scipy.special would cost ~0.07 s of every cold start and scipy.linalg
    # ~0.3 s; log-factorials come from math.lgamma, and LAPACK is bound only
    # when a spectrum is computed
    assert _fresh_modules("pass") == (False, False)


@pytest.mark.parametrize("argv", [
    ["bounds", "--l-c", "1e-10", "--l-m", "1e-35"],
    ["lower-symbols", "--which", "UNCERTAINTY", "--n", "10", "--steps", "5"],
])
def test_commands_without_a_spectrum_leave_scipy_linalg_unloaded(argv, tmp_path):
    statement = f"from planequant import cli; cli.main({argv!r})"
    assert _fresh_modules(statement, cwd=tmp_path) == (False, False)


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", "50"],
    ["bounds", "--l-c", "1e-10", "--l-m", "1e-35", "--sigma-n", "100"],
])
def test_commands_with_a_spectrum_load_scipy_linalg(argv, tmp_path):
    statement = f"from planequant import cli; cli.main({argv!r})"
    assert _fresh_modules(statement, cwd=tmp_path) == (False, True)


def test_every_export_resolves_once():
    # a stale name in __all__ (a removed class, a duplicate) fails here
    names = planequant.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(planequant, name)]
    assert missing == []
