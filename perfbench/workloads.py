"""Workload sessions and the output checks that judge them.

A session is a list of operations run back to back by one client (a closed
loop).  Each operation is either a ``planequant`` CLI invocation or the
library session of ``library_session.py``; both expose ``main(argv)``, so
the same operation runs as a subprocess for the end-to-end figures and
in-process for the traced run.

Every check here is independent of the package under test: the reference
sigma table is copied from the acceptance suite, eigenvalues are bracketed
by a Sturm count written here in plain Python, and the spread product is
evaluated from the matrix sandwich <z|Q^2|z> - <z|Q|z>^2 rather than from
the closed forms the package uses.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

TWO_PI = 2.0 * math.pi

# The acceptance suite's reference products, to be met within 1e-5.
REFERENCE_SIGMA = {
    10: 4.713054,
    55: 5.774856,
    100: 5.941534,
    551: 6.173778,
    1000: 6.209670,
    5555: 6.259760,
    10000: 6.267356,
    55255: 6.278122,
    100000: 6.279776,
    500555: 6.282020,
    1000000: 6.282450,
}
REFERENCE_TOL = 1e-5
LADDER = sorted(REFERENCE_SIGMA)
SURVEY_DIMS = list(range(2, 2001))
SPECTRUM_DIM = 20000
GRID_DIM = 64
GRID_STEPS = 801
GRID_RANGE = 6.0
L_C, L_M = 1e-10, 1e-35

# Half a unit in the ninth significant digit, the precision of every CSV.
CSV_REL = 5e-9


@dataclass(frozen=True)
class Op:
    """One operation of a session.

    ``entry`` is ``cli`` or ``library``; ``name`` is the command's metric
    stem; ``outputs`` are the files it writes in the work directory;
    ``check(result, workdir)`` returns a list of problems, empty when the
    output is correct.
    """

    name: str
    entry: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[["OpResult", Path], list[str]]


@dataclass
class OpResult:
    op: Op
    returncode: int | None
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0


def session(workload: str, seed: int) -> list[Op]:
    """The operations of one session of ``workload``.

    ``ladder`` and ``survey`` are deterministic: their program inputs do
    not depend on the seed, which only picks their spot checks.  In
    ``phase-space`` the seed also feeds ``verify --seed`` and the library
    session's phase points.
    """
    rng = random.Random(seed)
    if workload == "ladder":
        return [Op("sigma_table", "cli", ("sigma-table", "--out", "ladder.csv"),
                   ("ladder.csv",), check_ladder)]
    if workload == "survey":
        picks = sorted(rng.sample(range(1, SPECTRUM_DIM - 1), 6))
        return [
            Op("sigma_table", "cli",
               ("sigma-table", "--n-list", ",".join(map(str, SURVEY_DIMS)), "--out", "survey.csv"),
               ("survey.csv",), check_survey_table),
            Op("spectrum", "cli", ("spectrum", "--n", str(SPECTRUM_DIM), "--out", "spectrum.csv"),
               ("spectrum.csv",), lambda r, d: check_spectrum(r, d, picks)),
        ]
    if workload == "phase-space":
        cells = [(rng.randrange(GRID_STEPS), rng.randrange(GRID_STEPS)) for _ in range(24)]
        mid = GRID_STEPS // 2
        cells += [(0, 0), (mid, mid), (GRID_STEPS - 1, GRID_STEPS - 1)]
        return [
            Op("verify", "cli", ("verify", "--seed", str(seed)), (), check_verify),
            Op("lower_symbols", "cli",
               ("lower-symbols", "--which", "UNCERTAINTY", "--n", str(GRID_DIM),
                "--steps", str(GRID_STEPS), "--out", "uncertainty.csv"),
               ("uncertainty.csv",), lambda r, d: check_grid(r, d, cells)),
            Op("bounds", "cli", ("bounds", "--l-c", str(L_C), "--l-m", str(L_M)), (),
               check_bounds),
            Op("library", "library", ("--seed", str(seed), "--out", "library.json"),
               ("library.json",), check_library),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("ladder", "survey", "phase-space")


def common_problems(r: OpResult) -> list[str]:
    """A nonzero exit or a traceback fails any operation."""
    problems = []
    if r.returncode != 0:
        problems.append(f"exit code {r.returncode}")
    if "Traceback" in r.stderr:
        problems.append("traceback on stderr")
    return problems


# ---------------------------------------------------------------------------
# sigma tables
# ---------------------------------------------------------------------------

def _sigma_rows(path: Path) -> list[dict]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    if header != ["N", "lambda_m", "lambda_M", "delta", "width", "sigma", "parity", "two_pi"]:
        raise ValueError(f"unexpected header {lines[0]!r}")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _table_problems(path: Path, dims: list[int]) -> list[str]:
    try:
        rows = _sigma_rows(path)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable table: {exc}"]
    got = [int(r["N"]) for r in rows]
    if got != dims:
        return [f"table has {len(got)} rows, not the {len(dims)} requested dimensions"]
    problems = []
    sigma = {}
    for r in rows:
        n = int(r["N"])
        lam_m, lam_big = float(r["lambda_m"]), float(r["lambda_M"])
        s = float(r["sigma"])
        sigma[n] = s
        expect = (2.0 if n % 2 == 0 else 1.0) * lam_m * 2.0 * lam_big
        if abs(s - expect) > 4 * CSV_REL * s:
            problems.append(f"N={n}: sigma {s} is not delta*width {expect}")
        if r["parity"] != ("even" if n % 2 == 0 else "odd"):
            problems.append(f"N={n}: parity {r['parity']}")
        if not s < TWO_PI:
            problems.append(f"N={n}: sigma {s} not below 2*pi")
        if n in REFERENCE_SIGMA and abs(s - REFERENCE_SIGMA[n]) > REFERENCE_TOL:
            problems.append(f"N={n}: sigma {s} vs reference {REFERENCE_SIGMA[n]}")
    for parity in (0, 1):
        same = [n for n in dims if n % 2 == parity]
        for a, b in zip(same, same[1:]):
            if not sigma[b] > sigma[a]:
                problems.append(f"sigma not increasing from N={a} to N={b}")
    return problems


def check_ladder(r: OpResult, workdir: Path) -> list[str]:
    return common_problems(r) or _table_problems(workdir / "ladder.csv", LADDER)


def check_survey_table(r: OpResult, workdir: Path) -> list[str]:
    return common_problems(r) or _table_problems(workdir / "survey.csv", SURVEY_DIMS)


# ---------------------------------------------------------------------------
# full spectrum
# ---------------------------------------------------------------------------

def position_sturm_count(n: int, lam: float) -> int:
    """Eigenvalues of the N-dim position matrix strictly below ``lam``.

    Counts negative pivots of T - lam*I for the zero-diagonal tridiagonal
    with off-diagonal sqrt(k/2), tiny pivots replaced by a signed floor.
    """
    pivmin = 2.2250738585072014e-308 * max((n - 1) / 2.0, 1.0)
    count = 0
    d = -lam
    for k in range(n):
        if k:
            d = -lam - (0.5 * k) / d
        if d <= 0.0:
            count += 1
            if d > -pivmin:
                d = -pivmin
        elif d < pivmin:
            d = pivmin
    return count


def check_spectrum(r: OpResult, workdir: Path, picks: list[int]) -> list[str]:
    problems = common_problems(r)
    if problems:
        return problems
    lines = (workdir / "spectrum.csv").read_text(encoding="utf-8").splitlines()
    if lines[0] != "index,eigenvalue" or len(lines) != SPECTRUM_DIM + 1:
        return [f"spectrum has {len(lines) - 1} rows, expected {SPECTRUM_DIM}"]
    values = []
    for i, line in enumerate(lines[1:]):
        idx, val = line.split(",")
        if int(idx) != i:
            return [f"row {i} has index {idx}"]
        values.append(float(val))
    n = SPECTRUM_DIM
    if any(not b > a for a, b in zip(values, values[1:])):
        problems.append("spectrum is not strictly ascending")
    worst = max(abs(values[i] + values[n - 1 - i]) / abs(values[i]) for i in range(n))
    if worst > 4 * CSV_REL:
        problems.append(f"spectrum not sign-symmetric: relative {worst:.2e}")
    for i in sorted({0, n // 2 - 1, n // 2, n - 1, *picks}):
        v = values[i]
        slack = 4 * CSV_REL * abs(v)
        below, above = position_sturm_count(n, v - slack), position_sturm_count(n, v + slack)
        if not below <= i < above:
            problems.append(f"eigenvalue {i} = {v} not bracketed by Sturm counts "
                            f"({below}, {above})")
    return problems


# ---------------------------------------------------------------------------
# phase-space session
# ---------------------------------------------------------------------------

def sandwich_uncertainty(n: int, q: float, p: float) -> float:
    """(dQ)(dP) in the N-dim truncated coherent state, from the sandwich."""
    z = complex(q, p) / math.sqrt(2.0)
    coeffs = [1.0 + 0j]
    for k in range(1, n):
        coeffs.append(coeffs[-1] * z / math.sqrt(k))
    norm = math.sqrt(sum(abs(c) ** 2 for c in coeffs))
    coeffs = [c / norm for c in coeffs]
    off = [math.sqrt(k / 2.0) for k in range(1, n)]
    # Q c and P c with Q = (a + a^dagger)/sqrt(2), P = (a - a^dagger)/(i sqrt(2))
    qc = [0j] * n
    pc = [0j] * n
    for k, b in enumerate(off):
        qc[k] += b * coeffs[k + 1]
        qc[k + 1] += b * coeffs[k]
        pc[k] += -1j * b * coeffs[k + 1]
        pc[k + 1] += 1j * b * coeffs[k]
    mean_q = sum(c.conjugate() * v for c, v in zip(coeffs, qc)).real
    mean_p = sum(c.conjugate() * v for c, v in zip(coeffs, pc)).real
    var_q = sum(abs(v) ** 2 for v in qc) - mean_q ** 2
    var_p = sum(abs(v) ** 2 for v in pc) - mean_p ** 2
    return math.sqrt(max(var_q, 0.0)) * math.sqrt(max(var_p, 0.0))


def check_verify(r: OpResult, workdir: Path) -> list[str]:
    problems = common_problems(r)
    lines = r.stdout.splitlines()
    passed = sum(line.startswith("PASS ") for line in lines)
    if any(line.startswith("FAIL ") for line in lines):
        problems.append("verify reported a FAIL line")
    if not lines or lines[-1] != f"all {passed} checks passed" or passed == 0:
        problems.append("verify did not report all checks passed")
    return problems


def check_grid(r: OpResult, workdir: Path, cells: list[tuple[int, int]]) -> list[str]:
    problems = common_problems(r)
    if problems:
        return problems
    lines = (workdir / "uncertainty.csv").read_text(encoding="utf-8").splitlines()
    if lines[0] != "q,p,value" or len(lines) != GRID_STEPS * GRID_STEPS + 1:
        return [f"grid has {len(lines) - 1} rows, expected {GRID_STEPS ** 2}"]
    step = 2.0 * GRID_RANGE / (GRID_STEPS - 1)
    for i, j in cells:
        qs, ps, vs = lines[1 + i * GRID_STEPS + j].split(",")
        q, p, value = float(qs), float(ps), float(vs)
        if abs(q - (-GRID_RANGE + i * step)) > 1e-8 or abs(p - (-GRID_RANGE + j * step)) > 1e-8:
            problems.append(f"cell ({i}, {j}) sits at ({q}, {p})")
            continue
        ref = sandwich_uncertainty(GRID_DIM, q, p)
        if abs(value - ref) > 1e-10 + CSV_REL * abs(ref):
            problems.append(f"cell ({i}, {j}): {value} vs sandwich {ref}")
    return problems


_LMAX = re.compile(r"l_max = sigma \* \(l_c/l_m\) \* l_c = (\S+) m")


def check_bounds(r: OpResult, workdir: Path) -> list[str]:
    problems = common_problems(r)
    match = _LMAX.search(r.stdout)
    if not match:
        return problems + ["no l_max line"]
    expect = TWO_PI * (L_C / L_M) * L_C
    if abs(float(match.group(1)) - expect) > 2 * CSV_REL * expect:
        problems.append(f"l_max {match.group(1)} vs {expect:.9g}")
    return problems


def check_library(r: OpResult, workdir: Path) -> list[str]:
    problems = common_problems(r)
    if problems:
        return problems
    data = json.loads((workdir / "library.json").read_text(encoding="utf-8"))
    for name, dev in sorted(data["oracle_rel_dev"].items()):
        if not dev <= 1e-10:
            problems.append(f"quantize vs quantize_quadrature for {name}: {dev:.2e}")
    for name, dev in sorted(data["lower_symbol_rel_dev"].items()):
        if not dev <= 1e-10:
            problems.append(f"lower symbols of the two quantizations of {name}: {dev:.2e}")
    for key in ("commutator_dev", "named_operator_dev", "qp_closed_form_dev"):
        if not data[key] <= 1e-11:
            problems.append(f"{key} {data[key]:.2e}")
    for q, p, value in data["uncertainty_products"]:
        ref = sandwich_uncertainty(data["dim"], q, p)
        if not abs(value - ref) <= 1e-10:
            problems.append(f"uncertainty_product at ({q}, {p}): {value} vs sandwich {ref}")
    if len(data["uncertainty_products"]) == 0:
        problems.append("no phase points evaluated")
    return problems
