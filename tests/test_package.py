"""Tests of the package as a whole."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import planequant
from planequant import spectra

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(planequant.__file__)))


def _modules_after(statement: str, cwd=None, package: str = "scipy") -> list[str]:
    """The modules of ``package`` loaded after ``statement``, one or more lines,
    in a new interpreter."""
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import planequant\n"
        f"{statement}\n"
        f"print(*sorted(m for m in sys.modules if (m + '.').startswith({package + '.'!r})), "
        "sep=',')"
    )
    out = subprocess.run([sys.executable, "-c", code, _SRC], capture_output=True, text=True,
                         check=True, cwd=cwd).stdout
    return [name for name in out.splitlines()[-1].split(",") if name]


def test_import_does_not_load_scipy_special():
    # scipy.special would cost ~0.07 s of every cold start and scipy.linalg
    # ~0.3 s; log-factorials come from math.lgamma, and LAPACK is bound only
    # when a spectrum is computed
    assert _modules_after("pass") == []


def test_numpy_fft_loads_with_the_first_quadrature_sandwich():
    # frame_sandwich's angular DFT is the package's only use of numpy.fft
    code = "import sys, numpy; print('numpy.fft' in sys.modules)"
    if subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                      check=True).stdout.strip() == "True":
        pytest.skip("this numpy imports numpy.fft with numpy itself")
    assert _modules_after("pass", package="numpy.fft") == []
    statement = "planequant.verify_identity_resolution(2)"
    assert "numpy.fft" in _modules_after(statement, package="numpy.fft")


@pytest.mark.parametrize("argv", [
    ["bounds", "--l-c", "1e-10", "--l-m", "1e-35"],
    ["lower-symbols", "--which", "UNCERTAINTY", "--n", "10", "--steps", "5"],
])
def test_commands_without_a_spectrum_leave_scipy_linalg_unloaded(argv, tmp_path):
    statement = f"from planequant import cli; cli.main({argv!r})"
    assert _modules_after(statement, cwd=tmp_path) == []


@pytest.mark.skipif(spectra._numpy_routines() is None,
                    reason="numpy's LAPACK does not export dlaebz and dlasq1")
@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", "50"],
    ["bounds", "--l-c", "1e-10", "--l-m", "1e-35", "--sigma-n", "100"],
    ["sigma-table", "--n-list", "10,101,4607"],
    ["verify"],
], ids=["spectrum", "bounds-sigma-n", "sigma-table", "verify"])
def test_commands_with_a_spectrum_leave_scipy_unloaded(argv, tmp_path):
    # dlaebz and dlasq1 come from numpy's own LAPACK
    statement = f"from planequant import cli; cli.main({argv!r})"
    assert _modules_after(statement, cwd=tmp_path) == []


@pytest.mark.parametrize("statement", [
    "pass",
    "from planequant import cli; cli.main(['bounds', '--l-c', '1e-10', '--l-m', '1e-35'])",
    "from planequant import cli\ntry:\n    cli.main(['--help'])\nexcept SystemExit:\n    pass",
], ids=["import", "bounds", "help"])
def test_numpy_free_paths_leave_numpy_unloaded(statement, tmp_path):
    # bounds computes with math alone, and a name of the package is imported
    # on first use
    assert _modules_after(statement, cwd=tmp_path, package="numpy") == []


@pytest.mark.parametrize("argv, runs, skips", [
    (["sigma-table", "--n-list", "10"], {"spectra", "frame"}, {"symbols", "operators", "verify"}),
    (["lower-symbols", "--steps", "3"], {"symbols", "frame"}, {"spectra", "operators", "verify"}),
], ids=["sigma-table", "lower-symbols"])
def test_a_command_loads_only_the_modules_it_runs(argv, runs, skips, tmp_path):
    statement = f"from planequant import cli; cli.main({argv!r})"
    loaded = {name.removeprefix("planequant.")
              for name in _modules_after(statement, cwd=tmp_path, package="planequant")}
    assert runs <= loaded and not skips & loaded


def test_star_import_and_dir_give_every_export():
    # each name is the class or function its own module defines
    namespace = {}
    exec("from planequant import *", namespace)
    for name in planequant.__all__:
        obj = namespace[name]
        assert obj.__name__ == name and getattr(sys.modules[obj.__module__], name) is obj
        assert getattr(planequant, name) is obj
    assert set(planequant.__all__) <= set(dir(planequant))


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="module 'planequant' has no attribute 'nope'"):
        planequant.nope  # noqa: B018


def test_every_export_resolves_once():
    # a stale name in __all__ (a removed class, a duplicate) fails here
    names = planequant.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(planequant, name)]
    assert missing == []


@pytest.mark.parametrize("build, field, given", [
    (lambda a: planequant.OperatorMatrix(a), "entries", np.eye(2, dtype=complex)),
    (lambda a: planequant.CoherentState(a), "coeffs", np.array([1.0, 0.0], dtype=complex)),
], ids=["OperatorMatrix", "CoherentState"])
def test_frozen_containers_keep_a_private_copy(build, field, given):
    # the container is read-only, but the caller's array stays writable and
    # writing to it does not reach the container
    held = getattr(build(given), field)
    before = held.copy()
    assert given.flags.writeable and not held.flags.writeable
    given.flat[0] = 2.0
    assert np.array_equal(held, before)


@pytest.mark.parametrize("which", sorted(planequant.symbols.GRID_KINDS))
def test_symbol_grid_is_its_inputs_and_owns_read_only_values(which):
    # a grid takes no values: it evaluates them itself, into an array that
    # no caller holds and no one can write
    init = [f.name for f in dataclasses.fields(planequant.SymbolGrid) if f.init]
    assert init == ["which", "n_dim", "q_range", "p_range"]
    for n_dim in (1, 2, 12):
        values = planequant.SymbolGrid(which, n_dim, (0.0, 1.0, 3), (-1.0, 1.0, 2)).values
        assert values.shape == (3, 2) and values.dtype == np.float64
        assert values.flags.owndata and not values.flags.writeable


@pytest.mark.parametrize("build", [
    lambda: planequant.SymTridiagonal(3),
    lambda: planequant.OperatorMatrix(np.eye(2)),
    lambda: planequant.CoherentState(np.array([1.0, 0.0])),
    lambda: planequant.SymbolGrid("C", 2, (0.0, 1.0, 2), (0.0, 1.0, 2)),
    lambda: planequant.position_operator(3),
    lambda: planequant.position_tridiagonal(4),
], ids=["SymTridiagonal", "OperatorMatrix", "CoherentState", "SymbolGrid",
        "position_operator", "position_tridiagonal"])
def test_frozen_containers_compare_and_hash_by_identity(build):
    # an array field has no truth value and no hash, so equality is identity
    one, twin = build(), build()
    assert one == one and one != twin
    assert {one, twin, one} == {one, twin}

