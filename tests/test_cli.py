"""End-to-end tests of the command-line front end and its exit codes."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from planequant import spectra, symbols, verify
from planequant.cli import main
from planequant.frame import PhasePoint
from planequant.operators import OperatorMatrix
from planequant.symbols import GRID_KINDS

TWO_PI = 2.0 * math.pi

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(symbols.__file__)))


def _read(path) -> str:
    return path.read_text(encoding="utf-8")


class TestSpectrumCommand:
    def test_small_dim_full_spectrum(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--n", "3", "--out", str(out)]) == 0
        lines = _read(out).strip().splitlines()
        assert lines[0] == "index,eigenvalue"
        values = sorted(float(line.split(",")[1]) for line in lines[1:])
        assert values == pytest.approx([-1.224745, 0.0, 1.224745], abs=1e-6)

    def test_beyond_the_cap_names_sigma_table(self, tmp_path, monkeypatch, capsys):
        # one route per output: the extremes beyond the full-spectrum cap are
        # sigma-table's, and spectrum refuses before it builds anything
        def no_matrix(n_dim):
            raise AssertionError("built a matrix beyond the cap")

        monkeypatch.setattr(spectra, "position_tridiagonal", no_matrix)
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--n", "20001", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", "error: --n 20001 exceeds the full-spectrum cap 20000; "
                                           "sigma-table --n-list 20001 gives its extremes\n")
        assert not out.exists()

    def test_json_format(self, tmp_path):
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--n", "4", "--format", "json", "--out", str(out)]) == 0
        data = json.loads(_read(out))
        assert len(data["eigenvalues"]) == 4

    def test_degenerate_dim_is_usage_error(self, tmp_path):
        assert main(["spectrum", "--n", "1", "--out", str(tmp_path / "x.csv")]) == 2

    def test_io_failure(self, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert main(["spectrum", "--n", "3", "--out", str(missing)]) == 3

    def test_beyond_physical_memory_is_usage_error(self, tmp_path, monkeypatch, capsys):
        from planequant import frame

        # spectrum --n 20000 needs 0.96 MB
        monkeypatch.setattr(frame, "_physical_memory_bytes", lambda: 900_000)
        out = tmp_path / "x.csv"
        assert main(["spectrum", "--n", "20000", "--out", str(out)]) == 2
        assert main(["sigma-table", "--n-list", "10,1000000000", "--out", str(out)]) == 2
        assert capsys.readouterr().err.count("physical memory") == 2
        assert not out.exists()


class TestSigmaTableCommand:
    def test_explicit_list_matches_reference(self, tmp_path):
        out = tmp_path / "sigma.csv"
        assert main(["sigma-table", "--n-list", "10,55,100", "--out", str(out)]) == 0
        lines = _read(out).strip().splitlines()
        assert lines[0].endswith(",two_pi")
        sigmas = [float(line.split(",")[5]) for line in lines[1:]]
        assert sigmas == pytest.approx([4.713054, 5.774856, 5.941534], abs=1e-5)

    def test_geometric_ladder_monotone_within_parity(self, tmp_path):
        out = tmp_path / "ladder.csv"
        assert main(["sigma-table", "--geometric", "10", "2000", "8", "--out", str(out)]) == 0
        rows = [line.split(",") for line in _read(out).strip().splitlines()[1:]]
        by_parity: dict[str, list[float]] = {"even": [], "odd": []}
        for row in rows:
            by_parity[row[6]].append(float(row[5]))
        for values in by_parity.values():
            assert values == sorted(values)

    def test_geometric_count_beyond_the_range_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["sigma-table", "--geometric", "2", "5", "10", "--out", str(out)]) == 2
        assert "at most 4" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_list_is_usage_error(self, tmp_path):
        assert main(["sigma-table", "--n-list", "", "--out", str(tmp_path / "x.csv")]) == 2

    def test_bad_dim_is_usage_error(self, tmp_path):
        assert main(["sigma-table", "--n-list", "5,1", "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("n_list, got", [("10,abc", "'abc'"), ("1", "1"), ("10,-3", "'-3'")])
    def test_bad_n_list_entry_names_the_flag(self, tmp_path, capsys, n_list, got):
        out = tmp_path / "x.csv"
        assert main(["sigma-table", "--n-list", n_list, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --n-list must be an integer >= 2, got {got}\n"
        assert not out.exists()

    def test_n_list_and_geometric_exclude_each_other(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["sigma-table", "--n-list", "10,20", "--geometric", "2", "100", "5",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "--geometric: not allowed with argument --n-list" in capsys.readouterr().err
        assert not out.exists()

    def test_emit_plot_writes_scripts(self, tmp_path):
        out = tmp_path / "sigma.csv"
        assert main([
            "sigma-table", "--n-list", "10,11,12", "--out", str(out), "--emit-plot",
        ]) == 0
        sigma_script = _read(tmp_path / "sigma_sigma.gp")
        assert "sigma.csv" in sigma_script and "2 pi" in sigma_script
        assert (tmp_path / "sigma_extremes.gp").exists()

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sigma-table", "--n-list", "2,3,10,55", "--out", str(a)]) == 0
        assert main(["sigma-table", "--n-list", "2,3,10,55", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_nine_significant_digits_round_trip(self, tmp_path):
        out = tmp_path / "sigma.csv"
        assert main(["sigma-table", "--n-list", "10,55", "--out", str(out)]) == 0
        for line in _read(out).strip().splitlines()[1:]:
            for cell in line.split(",")[1:6]:
                assert f"{float(cell):.9g}" == cell


class TestLowerSymbolsCommand:
    @pytest.mark.parametrize("which", list(GRID_KINDS))
    def test_grid_with_default_dim(self, tmp_path, which):
        # without --n every kind runs at the default dimension of its GRID_KINDS row
        grid = ["lower-symbols", "--which", which, "--steps", "9",
                "--q-min", "-3", "--q-max", "3", "--p-min", "-3", "--p-max", "3"]
        out = tmp_path / "grid.csv"
        assert main([*grid, "--out", str(out)]) == 0
        lines = _read(out).strip().splitlines()
        assert lines[0] == "q,p,value"
        assert len(lines) == 1 + 81
        out_json = tmp_path / "grid.json"
        assert main([*grid, "--format", "json", "--out", str(out_json)]) == 0
        assert json.loads(_read(out_json))["n_dim"] == GRID_KINDS[which].default_dim

    def test_help_lists_every_default_dim(self, capsys):
        with pytest.raises(SystemExit):
            main(["lower-symbols", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        for which, row in GRID_KINDS.items():
            assert f"{which} {row.default_dim}" in help_text

    def test_uncertainty_grid_below_half_for_two_levels(self, tmp_path):
        out = tmp_path / "u.csv"
        assert main([
            "lower-symbols", "--which", "UNCERTAINTY", "--n", "2", "--steps", "21",
            "--q-min", "-8", "--q-max", "8", "--p-min", "-8", "--p-max", "8",
            "--out", str(out),
        ]) == 0
        values = np.array([
            float(line.split(",")[2]) for line in _read(out).strip().splitlines()[1:]
        ])
        assert values.max() <= 0.5 + 1e-12
        assert values.min() < 0.45  # dips well below the supremum away from the origin

    def test_emit_plot(self, tmp_path):
        out = tmp_path / "q2.csv"
        assert main([
            "lower-symbols", "--which", "Q2", "--steps", "5", "--out", str(out), "--emit-plot",
        ]) == 0
        assert "splot 'q2.csv'" in _read(tmp_path / "q2.gp")

    def test_overflowing_grid_is_usage_error(self, tmp_path):
        # (q^2 + p^2)/2 overflows a double at q = 1e200: one line on stderr and
        # exit 2, without numpy's overflow warning
        out = tmp_path / "x.csv"
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from planequant.cli import main; sys.exit(main())",
             "lower-symbols", "--q-min=-1e200", "--q-max=1e200", "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": _SRC})
        assert run.returncode == 2
        assert "RuntimeWarning" not in run.stderr
        assert run.stderr.splitlines() == [
            "error: |z|^2 = (q^2 + p^2)/2 must be finite, got inf"]
        assert not out.exists()

    def test_grid_past_the_linear_scale_limit(self, tmp_path):
        # |z|^2 reaches 3600 at the corners; each cell prints the library's value
        out = tmp_path / "h.csv"
        assert main(["lower-symbols", "--which", "H", "--q-min", "-60", "--q-max", "60",
                     "--p-min", "-60", "--p-max", "60", "--out", str(out)]) == 0
        for line in _read(out).strip().splitlines()[1:]:
            q, p, value = line.split(",")
            a_val, _ = symbols.quadratic_symbols(5, PhasePoint(float(q), float(p)))
            assert value == f"{a_val:.9g}", line

    def test_huge_dimension_finishes(self, tmp_path):
        # every series term is 0.0 long before N = 3e6, where the sum stops
        out = tmp_path / "h.csv"
        assert main(["lower-symbols", "--which", "H", "--n", "3000000", "--out", str(out)]) == 0
        values = {tuple(line.split(",")[:2]): float(line.split(",")[2])
                  for line in _read(out).strip().splitlines()[1:]}
        assert len(values) == 81 * 81
        # far below the truncation the energy symbol is the oscillator's |z|^2 + 1/2
        assert values[("0", "0")] == 0.5
        assert values[("6", "-6")] == 36.5

    def test_oversized_grid_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # 10^10 cells are refused before numpy is asked for the grid
        from planequant import frame

        def no_grid(*args, **kwargs):
            raise AssertionError("grid allocated before the memory check")

        monkeypatch.setattr(frame, "_physical_memory_bytes", lambda: 8 * 2**30)
        monkeypatch.setattr(np, "linspace", no_grid)
        out = tmp_path / "x.csv"
        assert main(["lower-symbols", "--which", "H", "--n", "5", "--steps", "100000",
                     "--out", str(out)]) == 2
        # 64 bytes per cell, the command's peak with its export
        assert "100000 x 100000 grid need about 596 GiB" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fmt, steps", [("csv", 401), ("json", 801)])
    def test_peak_memory_is_under_the_guard(self, tmp_path, fmt, steps):
        # 9.5 bytes per cell for the values and one block, 39-41 with the CSV
        # export at any size from 201 x 201 on, and 59.3 with the JSON one at
        # the benchmark's 801 x 801, where the up to 3.4 MB of formatted values
        # that json's encoder holds before joining them weigh least
        cells = steps * steps
        argv = ["lower-symbols", "--which", "UNCERTAINTY", "--n", "64", "--steps", str(steps),
                "--format", fmt, "--out", str(tmp_path / f"u.{fmt}")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= symbols._GRID_BYTES_PER_CELL * cells, peak / cells

    def test_unknown_kind_names_the_kinds_and_does_no_work(self, tmp_path, monkeypatch,
                                                           capsys):
        def no_grid(*args):
            raise AssertionError("a grid was computed")

        monkeypatch.setattr(symbols, "symbol_grid", no_grid)
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["lower-symbols", "--which", "Q3", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --which: unknown grid kind 'Q3'; expected one of " \
               + ", ".join(GRID_KINDS) in err
        assert not out.exists()

    @pytest.mark.parametrize("bounds, message", [
        (["--steps", "0"], "at least 2 steps per axis, got 0"),
        (["--steps", "1"], "at least 2 steps per axis, got 1"),
        (["--q-min", "1", "--q-max", "-1"], "min < max, got (1.0, -1.0)"),
        (["--q-max", "inf"], "grid range must be finite, got (-6.0, inf)"),
    ])
    def test_bad_grid_is_usage_error(self, tmp_path, capsys, bounds, message):
        out = tmp_path / "x.csv"
        assert main(["lower-symbols", "--which", "H", *bounds, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_json_format(self, tmp_path):
        out = tmp_path / "c.json"
        assert main([
            "lower-symbols", "--which", "C", "--steps", "4", "--format", "json",
            "--out", str(out),
        ]) == 0
        data = json.loads(_read(out))
        assert data["n_dim"] == 12
        assert len(data["values"]) == 16


class TestBoundsCommand:
    def test_report_to_stdout(self, capsys):
        assert main(["bounds", "--l-c", "1e-10", "--l-m", "1e-35"]) == 0
        out = capsys.readouterr().out
        assert "6.28318531e+15" in out

    def test_hall_bound_with_theta(self, capsys, tmp_path):
        json_out = tmp_path / "b.json"
        assert main([
            "bounds", "--l-c", "2.0", "--l-m", "1.0", "--theta", "4.0",
            "--out", str(json_out),
        ]) == 0
        data = json.loads(_read(json_out))
        assert data["hall_l_max"] == pytest.approx(TWO_PI * 2.0)

    def test_inverse_problem_line(self, capsys):
        assert main([
            "bounds", "--l-c", "1e-5", "--l-m", "1.6e-35", "--universe-size", "1.3e26",
        ]) == 0
        out = capsys.readouterr().out
        assert "l_c =" in out

    def test_bad_scales_usage_error(self, capsys):
        assert main(["bounds", "--l-c", "1e-35", "--l-m", "1e-10"]) == 2

    @pytest.mark.parametrize("size", ["nan", "-1", "inf"])
    def test_bad_universe_size_is_usage_error_before_any_output(self, size, tmp_path, capsys):
        out = tmp_path / "b.json"
        assert main(["bounds", "--l-c", "1e-5", "--l-m", "1.6e-35", "--universe-size", size,
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"universe_size must be a positive finite number, got {float(size)!r}" \
            in captured.err
        assert not out.exists()

    @pytest.mark.parametrize("scales, l_c", [
        (["--l-c", "1", "--l-m", "5e-324", "--universe-size", "5e-324"], "0.0"),
    ], ids=["underflow"])
    def test_derived_l_c_out_of_range_is_usage_error(self, scales, l_c, tmp_path, capsys):
        # l_c itself, 1.97e-324, rounds to 0; every other value is valid.  No
        # positive finite l_m and universe size overflow l_c
        out = tmp_path / "b.json"
        assert main(["bounds", *scales, "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: derived value l_c = {l_c} is not a positive finite number\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--l-c", "1", "--l-m", "1", "--p-c", "1e200"], "2*pi*p_c^2 = inf"),
        (["--l-c", "1e150", "--l-m", "1e-160"], "l_c/l_m = inf"),
    ], ids=["momentum-cell", "ratio"])
    def test_overflowing_derived_value_is_usage_error(self, argv, message, tmp_path, capsys):
        # refused by name before any output, never printed as inf or written
        # as the non-JSON Infinity
        out = tmp_path / "b.json"
        assert main(["bounds", *argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: derived value {message} is not a positive "
                                "finite number\n")
        assert not out.exists()

    def test_finite_dim_sigma_flag(self, capsys):
        assert main(["bounds", "--l-c", "1.0", "--l-m", "1.0", "--sigma-n", "10"]) == 0
        out = capsys.readouterr().out
        assert "4.71305409" in out


class TestVerifyCommand:
    def test_default_plan_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 8
        assert "FAIL" not in out
        assert out.splitlines()[-1] == "all 8 checks passed"

    def test_inject_fault_is_not_an_option(self, capsys):
        # the checks' faults live in the tests' FAULTS table alone
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--inject-fault"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --inject-fault" in captured.err

    def test_nan_identity_deviation_fails_by_name(self, monkeypatch):
        monkeypatch.setattr(verify, "verify_identity_resolution", lambda n: math.nan)
        result = {r.name: r for r in verify.run_verification()}["identity_resolution"]
        assert not result.passed
        assert result.detail == "max deviation nan"

    def test_nan_commutator_entry_fails_by_name(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "commutator", _nan_last_entry(verify.commutator))
        assert main(["verify"]) == 1
        captured = capsys.readouterr()
        assert "FAIL commutator: max deviation nan" in captured.out
        assert "1 check(s) failed: commutator" in captured.err

    def test_sigma_above_two_pi_fails_naming_the_bound(self, monkeypatch, capsys):
        # lambda_m = 1, lambda_M = 4 gives sigma = 16 at every even N
        monkeypatch.setattr(spectra, "extreme_eigenvalues", lambda n_dim: (1.0, 4.0))
        assert main(["verify"]) == 1
        captured = capsys.readouterr()
        failed = [line for line in captured.out.splitlines() if line.startswith("FAIL")]
        assert len(failed) == 1
        assert failed[0].startswith("FAIL sigma_below_two_pi: sigma = ")
        assert failed[0].endswith("violates the 2*pi bound at dim 2")
        assert "1 check(s) failed: sigma_below_two_pi" in captured.err

    def test_unproved_bracket_fails_the_sigma_check_alone(self, monkeypatch, capsys):
        # a count that misses at one N fails sigma_below_two_pi by name with
        # the error's message; every other check still runs and prints
        dlaebz = spectra._dlaebz

        def miscounted_at_57(t, brackets):
            counts = dlaebz(t, brackets)
            return [(lo, lo) for lo, _ in counts] if t.dim == 57 else counts

        monkeypatch.setattr(spectra, "_dlaebz", miscounted_at_57)
        assert main(["verify"]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 8 and all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1].startswith("FAIL sigma_below_two_pi: dim 57, index 29: bracket (")
        assert lines[-1].endswith("] has 29 and 29 eigenvalue(s) at or below its ends")
        assert captured.err == "1 check(s) failed: sigma_below_two_pi\n"

    def test_nan_gap_margin_fails_by_name(self, monkeypatch):
        gap_margin = spectra.gap_margin
        monkeypatch.setattr(spectra, "gap_margin",
                            lambda n_dim: math.nan if n_dim == 12 else gap_margin(n_dim))
        failed = [r for r in verify.run_verification() if not r.passed]
        assert [(r.name, r.detail) for r in failed] == [("gap", "smallest gap margin nan")]

    def test_sturm_qr_reads_the_sturm_counts(self, monkeypatch):
        assert verify._check_sturm_qr(np.random.default_rng(0)).passed
        count = spectra.sturm_count
        for fault in (lambda t, lam: count(t, lam - 0.5), lambda t, lam: count(t, lam) + 1):
            monkeypatch.setattr(spectra, "sturm_count", fault)
            for seed in range(20):
                result = verify._check_sturm_qr(np.random.default_rng(seed))
                assert not result.passed and result.detail != "0 count mismatches", seed

    def test_sturm_qr_counts_the_zero_eigenvalue(self, monkeypatch):
        # sturm_qr counts at +-1e-9 on every seed, so a count that is off on
        # either side of the odd-N zero fails whatever shifts are drawn
        count = spectra.sturm_count
        for bumped in (lambda lam: 0.0 <= lam < 1e-3, lambda lam: -1e-3 < lam < 0.0):
            monkeypatch.setattr(spectra, "sturm_count",
                                lambda t, lam, bumped=bumped: count(t, lam) + bumped(lam))
            for seed in range(20):
                assert not verify._check_sturm_qr(np.random.default_rng(seed)).passed, seed

    def test_negative_seed_names_the_flag(self, capsys):
        assert main(["verify", "--seed", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: --seed must be an integer >= 0, got -1\n")

    def test_deterministic_for_fixed_seed(self, capsys):
        assert main(["verify", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first


def _wrap(monkeypatch, module, name, make) -> None:
    """Replace ``module.name`` by ``make(original)``."""
    monkeypatch.setattr(module, name, make(getattr(module, name)))


def _nan_last_entry(commutator):
    def patched(a, b):
        entries = commutator(a, b).entries.copy()
        entries[-1, -1] = math.nan
        return OperatorMatrix(entries)
    return patched


def _last_level_unshifted_at_200(hamiltonian):
    # at the sandwich check's dimensions this fault fails sandwich_vs_formula too
    def patched(n_dim):
        h = hamiltonian(n_dim)
        if n_dim != 200:
            return h
        entries = h.entries.copy()
        entries[-1, -1] = n_dim - 0.5
        return OperatorMatrix(entries)
    return patched


def _top_two_swapped_at_150(eig_all):
    def patched(t):
        ev = eig_all(t)
        if t.dim != 150:
            return ev
        ev = ev.copy()
        ev[[-2, -1]] = ev[[-1, -2]]
        return ev
    return patched


def _middle_zero_moved_at_201(eig_all):
    # only interlacing's order N + 1 = 201 spectrum has this dimension
    def patched(t):
        ev = eig_all(t)
        if t.dim != 201:
            return ev
        ev = ev.copy()
        ev[100] = 1.0
        return ev
    return patched


def _lambda_m_shrunk_at_odd_n_above_150(extreme_eigenvalues):
    def patched(n_dim):
        lam_m, lam_max = extreme_eigenvalues(n_dim)
        if n_dim > 150 and n_dim % 2:
            lam_m *= 1.0 - 1e-3
        return lam_m, lam_max
    return patched


# One fault per verify check, in run order: each one fails its check and no
# other, so no check passes on every input and none duplicates another.
FAULTS = {
    "commutator": lambda mp: _wrap(mp, verify, "commutator", _nan_last_entry),
    "hamiltonian": lambda mp: _wrap(mp, verify, "hamiltonian", _last_level_unshifted_at_200),
    "identity_resolution": lambda mp: _wrap(
        mp, verify, "verify_identity_resolution", lambda f: lambda n_dim: math.nan),
    "sandwich_vs_formula": lambda mp: _wrap(
        mp, symbols, "corrective_factor", lambda f: lambda n_dim, r: f(n_dim, r) + 1e-6),
    "sturm_qr": lambda mp: _wrap(
        mp, spectra, "sturm_count", lambda f: lambda t, lam: f(t, lam) + (0.0 <= lam < 1e-3)),
    "interlacing": lambda mp: _wrap(mp, spectra, "eig_all", _middle_zero_moved_at_201),
    "gap": lambda mp: _wrap(mp, spectra, "eig_all", _top_two_swapped_at_150),
    "sigma_below_two_pi": lambda mp: _wrap(
        mp, spectra, "extreme_eigenvalues", _lambda_m_shrunk_at_odd_n_above_150),
}


def test_every_check_has_a_fault():
    assert list(FAULTS) == [r.name for r in verify.run_verification()]


@pytest.mark.parametrize("check", list(FAULTS))
def test_fault_fails_its_check_alone(check, monkeypatch):
    FAULTS[check](monkeypatch)
    assert {r.name for r in verify.run_verification() if not r.passed} == {check}


GOLDEN = Path(__file__).parent / "data" / "cli"

# (output file, argv without --out): every file a run writes equals its
# namesake in tests/data/cli, byte for byte.  The sigma-table dimensions
# cover the dqds, bracketed and certified routes; 20001 is the first one
# beyond spectrum's full-spectrum cap.  Full-precision JSON of a spectrum
# depends on the LAPACK build, so only 9-digit CSVs and the pure-Python
# bounds report are pinned.  The files are the output of
# `planequant <argv> --out <file>` run in tests/data/cli.
GOLDEN_RUNS = [
    ("sigma_table.csv", ["sigma-table", "--n-list", "2,3,10,55,99,100,551,1000,4606,4607,5555",
                         "--emit-plot"]),
    ("spectrum_50.csv", ["spectrum", "--n", "50"]),
    ("sigma_table_20001.csv", ["sigma-table", "--n-list", "20001"]),
    *((f"lower_symbols_{kind}.csv", ["lower-symbols", "--which", kind, "--n", "10",
                                     "--steps", "9"]) for kind in GRID_KINDS),
    ("bounds.json", ["bounds", "--l-c", "2e-6", "--l-m", "1e-6", "--theta", "1e-12"]),
]


@pytest.mark.parametrize("out, argv", GOLDEN_RUNS, ids=[out for out, _ in GOLDEN_RUNS])
def test_output_matches_golden_file(tmp_path, out, argv):
    assert main([*argv, "--out", str(tmp_path / out)]) == 0
    written = list(tmp_path.iterdir())
    assert tmp_path / out in written
    for path in written:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


def test_every_golden_file_has_a_run():
    plots = {"sigma_table_sigma.gp", "sigma_table_extremes.gp"}
    assert {path.name for path in GOLDEN.iterdir()} == {out for out, _ in GOLDEN_RUNS} | plots
