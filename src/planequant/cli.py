"""Command-line front end.

Subcommands
-----------
spectrum       full spectrum (N <= 20000) or extreme-value summary (larger N)
sigma-table    forbidden-cell/width products for a list or ladder of N
lower-symbols  phase-space grids of the symbol family, optional plot script
bounds         dimensioned inequalities for concrete physical scales
verify         cross-module invariant suite, nonzero exit on failure

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 I/O failure.  Output is deterministic for fixed flags (and seed), so CSV
artifacts are byte-identical across runs.  To pin the linear-algebra
thread pool, set OPENBLAS_NUM_THREADS / OMP_NUM_THREADS before launch.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import PlanequantError, VerificationError
from .symbols import GRID_KINDS

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3

_TABLE_DIMS = [10, 55, 100, 551, 1000, 5555, 10000, 55255, 100000, 500555, 1000000]


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_spectrum(args) -> int:
    from . import spectra

    n = args.n
    if n < 2:
        print(f"error: need n >= 2 for a spectrum with positive eigenvalues, got {n}",
              file=sys.stderr)
        return EXIT_USAGE
    if n <= spectra.DENSE_SPECTRUM_CAP:
        eigenvalues = spectra.eig_all(spectra.position_tridiagonal(n))
        text = (spectra.spectrum_to_csv(eigenvalues) if args.format == "csv"
                else spectra.spectrum_to_json(eigenvalues) + "\n")
    else:
        summary = spectra.spectrum_summary(n)
        text = (spectra.summaries_to_csv([summary])
                if args.format == "csv"
                else spectra.summaries_to_json([summary]) + "\n")
    _write_text(args.out, text)
    print(f"wrote {args.out}")
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
    dims = [int(s) for s in args.n_list.split(",") if s.strip()]
    if not dims:
        raise ValueError("empty dimension list")
    return dims


def _cmd_sigma_table(args) -> int:
    from . import spectra

    summaries = spectra.sigma_table(_parse_dims(args))
    text = (spectra.summaries_to_csv(summaries)
            if args.format == "csv"
            else spectra.summaries_to_json(summaries) + "\n")
    _write_text(args.out, text)
    print(f"wrote {args.out}")
    if args.emit_plot:
        stem = os.path.splitext(args.out)[0]
        _write_text(stem + "_sigma.gp", spectra.gnuplot_sigma_script(os.path.basename(args.out)))
        _write_text(stem + "_extremes.gp",
                    spectra.gnuplot_extremes_script(os.path.basename(args.out)))
        print(f"wrote {stem}_sigma.gp and {stem}_extremes.gp")
    return EXIT_OK


def _cmd_lower_symbols(args) -> int:
    from . import symbols

    n = args.n if args.n is not None else GRID_KINDS[args.which].default_dim
    if n < 2:
        print(f"error: need n >= 2, got {n}", file=sys.stderr)
        return EXIT_USAGE
    grid = symbols.symbol_grid(
        n,
        args.which,
        (args.q_min, args.q_max, args.steps),
        (args.p_min, args.p_max, args.steps),
    )
    text = symbols.grid_to_csv(grid) if args.format == "csv" else symbols.grid_to_json(grid) + "\n"
    _write_text(args.out, text)
    print(f"wrote {args.out}")
    if args.emit_plot:
        stem = os.path.splitext(args.out)[0]
        _write_text(stem + ".gp", symbols.grid_gnuplot_script(grid, os.path.basename(args.out)))
        print(f"wrote {stem}.gp")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    from . import bounds, spectra

    scales = bounds.PhysicalScales(l_c=args.l_c, p_c=args.p_c, l_m=args.l_m, theta=args.theta)
    if args.universe_size is not None:
        l_c = bounds.solve_characteristic_length(args.l_m, args.universe_size)
    sigma = spectra.TWO_PI
    if args.sigma_n is not None:
        sigma = spectra.spectrum_summary(args.sigma_n).sigma
    report = bounds.bounds_report(scales, sigma=sigma)
    for line in report.lines():
        print(line)
    if args.universe_size is not None:
        print(f"characteristic length making the bound tight at size "
              f"{args.universe_size:.9g} m: l_c = {l_c:.9g} m")
    if args.out:
        _write_text(args.out, report.to_json() + "\n")
        print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import run_verification

    results = run_verification(
        n_max_dense=args.n_max_dense,
        seed=args.seed,
        inject_fault=args.inject_fault,
    )
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(r.name for r in failed)}",
              file=sys.stderr)
        return EXIT_VERIFY
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planequant",
        description="Coherent-state quantization of the plane on a truncated Fock space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "spectrum", help="eigenvalues of the position matrix",
        description="Every eigenvalue (index,eigenvalue) by dqds on the half-size "
                    "bidiagonal for n <= 20000; beyond, the extreme-eigenvalue "
                    "summary by LAPACK bisection, the same row as sigma-table.")
    sp.add_argument("--n", type=int, required=True, help="matrix dimension (>= 2)")
    sp.add_argument("--out", default="spectrum.csv")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_spectrum)

    st = sub.add_parser("sigma-table", help="forbidden-cell/width product table")
    st.add_argument("--n-list", default=None,
                    help="comma-separated dimensions (default: the built-in ladder to 10^6)")
    st.add_argument("--geometric", nargs=3, type=int, default=None,
                    metavar=("LO", "HI", "COUNT"), help="geometric ladder of dimensions")
    st.add_argument("--out", default="sigma_table.csv")
    st.add_argument("--format", choices=("csv", "json"), default="csv")
    st.add_argument("--emit-plot", action="store_true",
                    help="also write gnuplot scripts next to the table")
    st.set_defaults(func=_cmd_sigma_table)

    ls = sub.add_parser("lower-symbols", help="phase-space grid of a symbol")
    ls.add_argument("--n", type=int, default=None,
                    help="dimension (defaults: " + ", ".join(
                        f"{kind} {row.default_dim}" for kind, row in GRID_KINDS.items()) + ")")
    ls.add_argument("--which", choices=tuple(GRID_KINDS), default="Q2")
    ls.add_argument("--q-min", type=float, default=-6.0)
    ls.add_argument("--q-max", type=float, default=6.0)
    ls.add_argument("--p-min", type=float, default=-6.0)
    ls.add_argument("--p-max", type=float, default=6.0)
    ls.add_argument("--steps", type=int, default=81, help="grid steps per axis")
    ls.add_argument("--out", default="lower_symbols.csv")
    ls.add_argument("--format", choices=("csv", "json"), default="csv")
    ls.add_argument("--emit-plot", action="store_true")
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
    vf.add_argument("--n-max-dense", type=int, default=200)
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--inject-fault", action="store_true",
                    help="perturb one coupling to prove the harness can fail")
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
