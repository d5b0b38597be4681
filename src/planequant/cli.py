"""Command-line front end.

Subcommands
-----------
spectrum       full spectrum (N <= 20000; sigma-table gives larger N's extremes)
sigma-table    forbidden-cell/width products for a list or ladder of N
lower-symbols  phase-space grids of the symbol family, optional plot script
bounds         dimensioned inequalities for concrete physical scales
verify         cross-module invariant suite, nonzero exit on failure

Every file a command writes goes through ``_write``, which prints
``wrote <path>``, and every ``--format`` choice through ``_write_data``.
Dimension flags are checked by ``as_dimension`` under the flag's name;
every other check is the library's own, and ``main`` maps its exception
to an exit code.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 I/O failure.  Output is deterministic for fixed flags (and seed), so CSV
artifacts are byte-identical across runs.  To pin the linear-algebra
thread pool, set OPENBLAS_NUM_THREADS / OMP_NUM_THREADS before launch.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import bounds, spectra, symbols
from .errors import PlanequantError, VerificationError
from .frame import as_dimension
from .verify import run_verification

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3

_TABLE_DIMS = [10, 55, 100, 551, 1000, 5555, 10000, 55255, 100000, 500555, 1000000]


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path``, the one place the CLI writes a file, and say so."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _write_data(args, data, to_csv, to_json) -> None:
    """Write ``data`` to ``--out`` as CSV or as one line of JSON, per ``--format``."""
    _write(args.out, to_csv(data) if args.format == "csv" else to_json(data) + "\n")


def _cmd_spectrum(args) -> int:
    n = as_dimension(args.n, 2, "--n")
    if n > spectra.DENSE_SPECTRUM_CAP:
        raise ValueError(f"--n {n} exceeds the full-spectrum cap {spectra.DENSE_SPECTRUM_CAP}; "
                         f"sigma-table --n-list {n} gives its extremes")
    _write_data(args, spectra.eig_all(spectra.position_tridiagonal(n)),
                spectra.spectrum_to_csv, spectra.spectrum_to_json)
    return EXIT_OK


def _parse_dims(args) -> list[int]:
    if args.geometric is not None:
        lo, hi, count = args.geometric
        if lo < 2 or hi <= lo or count < 2:
            raise ValueError(f"bad geometric ladder ({lo}, {hi}, {count})")
        if count > hi - lo + 1:
            raise ValueError(f"bad geometric ladder ({lo}, {hi}, {count}): COUNT is at most "
                             f"{hi - lo + 1}, the number of dimensions from {lo} to {hi}")
        ratio = (hi / lo) ** (1.0 / (count - 1))
        return sorted({int(round(lo * ratio**i)) for i in range(count)})
    if args.n_list is None:
        return list(_TABLE_DIMS)
    # an entry of anything but decimal digits reaches as_dimension as text, which it refuses
    return [as_dimension(int(s) if s.strip().isdecimal() else s, 2, "--n-list")
            for s in args.n_list.split(",") if s.strip()]


def _cmd_sigma_table(args) -> int:
    _write_data(args, spectra.sigma_table(_parse_dims(args)),
                spectra.summaries_to_csv, spectra.summaries_to_json)
    if args.emit_plot:
        stem, data = os.path.splitext(args.out)[0], os.path.basename(args.out)
        _write(stem + "_sigma.gp", spectra.gnuplot_sigma_script(data))
        _write(stem + "_extremes.gp", spectra.gnuplot_extremes_script(data))
    return EXIT_OK


def _cmd_lower_symbols(args) -> int:
    n = args.n if args.n is not None else symbols.GRID_KINDS[args.which].default_dim
    grid = symbols.symbol_grid(as_dimension(n, 2, "--n"), args.which,
                               (args.q_min, args.q_max, args.steps),
                               (args.p_min, args.p_max, args.steps))
    _write_data(args, grid, symbols.grid_to_csv, symbols.grid_to_json)
    if args.emit_plot:
        stem = os.path.splitext(args.out)[0]
        _write(stem + ".gp", symbols.grid_gnuplot_script(grid, os.path.basename(args.out)))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    scales = bounds.PhysicalScales(l_c=args.l_c, p_c=args.p_c, l_m=args.l_m, theta=args.theta)
    if args.universe_size is not None:
        l_c = bounds.solve_characteristic_length(args.l_m, args.universe_size)
    sigma = spectra.TWO_PI
    if args.sigma_n is not None:
        sigma = spectra.spectrum_summary(as_dimension(args.sigma_n, 2, "--sigma-n")).sigma
    report = bounds.bounds_report(scales, sigma=sigma)
    for line in report.lines():
        print(line)
    if args.universe_size is not None:
        print(f"characteristic length making the bound tight at size "
              f"{args.universe_size:.9g} m: l_c = {l_c:.9g} m")
    if args.out:
        _write(args.out, report.to_json() + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = run_verification(seed=as_dimension(args.seed, 0, "--seed"))
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(r.name for r in failed)}",
              file=sys.stderr)
        return EXIT_VERIFY
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def _add_output_flags(parser, out: str, plot_help: str | None = None) -> None:
    """--out with default ``out``, --format, and --emit-plot if ``plot_help`` is given."""
    parser.add_argument("--out", default=out)
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    if plot_help:
        parser.add_argument("--emit-plot", action="store_true", help=plot_help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planequant",
        description="Coherent-state quantization of the plane on a truncated Fock space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "spectrum", help="eigenvalues of the position matrix",
        description="Every eigenvalue (index,eigenvalue) by dqds on the half-size "
                    "bidiagonal, for n <= 20000; sigma-table gives the extreme "
                    "eigenvalues of any n.")
    sp.add_argument("--n", type=int, required=True, help="matrix dimension (2..20000)")
    _add_output_flags(sp, "spectrum.csv")
    sp.set_defaults(func=_cmd_spectrum)

    st = sub.add_parser("sigma-table", help="forbidden-cell/width product table")
    dims = st.add_mutually_exclusive_group()
    dims.add_argument("--n-list", default=None,
                      help="comma-separated dimensions (default: the built-in ladder to 10^6)")
    dims.add_argument("--geometric", nargs=3, type=int, default=None,
                      metavar=("LO", "HI", "COUNT"), help="geometric ladder of dimensions")
    _add_output_flags(st, "sigma_table.csv", "also write gnuplot scripts next to the table")
    st.set_defaults(func=_cmd_sigma_table)

    ls = sub.add_parser("lower-symbols", help="phase-space grid of a symbol")
    ls.add_argument("--n", type=int, default=None, help="dimension (defaults: " + ", ".join(
        f"{kind} {row.default_dim}" for kind, row in symbols.GRID_KINDS.items()) + ")")
    ls.add_argument("--which", choices=tuple(symbols.GRID_KINDS), default="Q2")
    ls.add_argument("--q-min", type=float, default=-6.0)
    ls.add_argument("--q-max", type=float, default=6.0)
    ls.add_argument("--p-min", type=float, default=-6.0)
    ls.add_argument("--p-max", type=float, default=6.0)
    ls.add_argument("--steps", type=int, default=81, help="grid steps per axis")
    _add_output_flags(ls, "lower_symbols.csv", "also write a gnuplot script next to the grid")
    ls.set_defaults(func=_cmd_lower_symbols)

    bd = sub.add_parser("bounds", help="dimensioned inequalities for physical scales")
    bd.add_argument("--l-c", type=float, required=True, help="characteristic length (m)")
    bd.add_argument("--p-c", type=float, default=1.0, help="characteristic momentum")
    bd.add_argument("--l-m", type=float, required=True, help="minimal length (m)")
    bd.add_argument("--theta", type=float, default=None, help="minimal area (m^2)")
    bd.add_argument("--sigma-n", type=int, default=None,
                    help="use the finite-N product instead of the 2*pi limit")
    bd.add_argument("--universe-size", type=float, default=None,
                    help="solve for l_c given this largest observable size (m)")
    bd.add_argument("--out", default=None, help="optional JSON report path")
    bd.set_defaults(func=_cmd_bounds)

    vf = sub.add_parser("verify", help="run the invariant suite")
    vf.add_argument("--seed", type=int, default=0)
    vf.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (ValueError, ArithmeticError, PlanequantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
