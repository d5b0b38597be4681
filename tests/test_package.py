"""Tests of the package as a whole."""

import os
import subprocess
import sys

import numpy as np
import pytest

import planequant
from planequant import spectra

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(planequant.__file__)))


def _scipy_modules_after(statement: str, cwd=None) -> list[str]:
    """The scipy modules loaded after ``statement`` in a new interpreter."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import planequant; "
        f"{statement}; "
        "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), sep=',')"
    )
    out = subprocess.run([sys.executable, "-c", code, _SRC], capture_output=True, text=True,
                         check=True, cwd=cwd).stdout
    return [name for name in out.splitlines()[-1].split(",") if name]


def test_import_does_not_load_scipy_special():
    # scipy.special would cost ~0.07 s of every cold start and scipy.linalg
    # ~0.3 s; log-factorials come from math.lgamma, and LAPACK is bound only
    # when a spectrum is computed
    assert _scipy_modules_after("pass") == []


@pytest.mark.parametrize("argv", [
    ["bounds", "--l-c", "1e-10", "--l-m", "1e-35"],
    ["lower-symbols", "--which", "UNCERTAINTY", "--n", "10", "--steps", "5"],
])
def test_commands_without_a_spectrum_leave_scipy_linalg_unloaded(argv, tmp_path):
    statement = f"from planequant import cli; cli.main({argv!r})"
    assert _scipy_modules_after(statement, cwd=tmp_path) == []


@pytest.mark.skipif(spectra._numpy_routines() is None,
                    reason="numpy's LAPACK does not export dstebz and dlasq1")
@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", "50"],
    ["bounds", "--l-c", "1e-10", "--l-m", "1e-35", "--sigma-n", "100"],
    ["sigma-table", "--n-list", "10,101"],
    ["verify"],
], ids=["spectrum", "bounds-sigma-n", "sigma-table", "verify"])
def test_commands_with_a_spectrum_leave_scipy_unloaded(argv, tmp_path):
    # dstebz and dlasq1 come from numpy's own LAPACK
    statement = f"from planequant import cli; cli.main({argv!r})"
    assert _scipy_modules_after(statement, cwd=tmp_path) == []


def test_every_export_resolves_once():
    # a stale name in __all__ (a removed class, a duplicate) fails here
    names = planequant.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(planequant, name)]
    assert missing == []


@pytest.mark.parametrize("build, field, given", [
    (lambda a: planequant.SymTridiagonal(a), "offdiag", np.ones(3)),
    (lambda a: planequant.OperatorMatrix(a), "entries", np.eye(2, dtype=complex)),
    (lambda a: planequant.CoherentState(a), "coeffs", np.array([1.0, 0.0], dtype=complex)),
    (lambda a: planequant.SymbolGrid("C", 2, (0.0, 1.0, 2), (0.0, 1.0, 2), a), "values",
     np.ones((2, 2))),
], ids=["SymTridiagonal", "OperatorMatrix", "CoherentState", "SymbolGrid"])
def test_frozen_containers_keep_a_private_copy(build, field, given):
    # the container is read-only, but the caller's array stays writable and
    # writing to it does not reach the container
    held = getattr(build(given), field)
    before = held.copy()
    assert given.flags.writeable and not held.flags.writeable
    given.flat[0] = 2.0
    assert np.array_equal(held, before)
