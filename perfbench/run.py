"""planequant benchmark: end-to-end sessions, and a traced run per layer.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 1

Run from the root of a source checkout; the package is imported from
``src`` (nothing needs installing).  The workloads are defined in
``workloads.py`` and the metric names, units and directions in
``BENCHMARK.json``.

``--trace 0`` measures end to end with tracing off.  One client runs the
workload's session (CLI commands and the library session, each a fresh
interpreter) back to back, a closed loop, until ``--seconds`` have passed;
at least one whole session always runs.  Session timings are means over the
sessions, peak RSS the largest.  ``setup_s`` is the median over fresh
interpreters through ``import planequant``, spread over the run: some before
the first session, one after each operation and the rest after the last.

``--trace 1`` gives the per-layer figures: the same session runs once
in-process, traced, through ``planequant.cli.main(argv)`` and the library
calls; then ``python -X importtime`` times, in fresh interpreters, the
imports of the modules that session loaded.  The tracing overhead is the
measured cost of one wrapped call times the number of wrapped calls.

Every output is checked (see ``workloads.py``), and every output file and
standard output must be byte-identical to that of any earlier run of the
same code with the same inputs, recorded in ``.perfbench_out/``.  Human-
readable lines come first; the last line of standard output is the JSON
result.  The exit code is 0 when every check passed, 1 when one failed and
2 when the checkout has no ``src/planequant``.
"""

import os

# Linear-algebra thread pools are pinned before numpy is imported anywhere,
# in this process and in every child.  One thread never exceeds nproc and
# keeps the figures and the output bytes independent of the machine.
THREADS = 1
THREAD_ENV = {var: str(THREADS) for var in (
    "PLANEQUANT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from workloads import Op, OpResult  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = SRC / "planequant"
OUT = ROOT / ".perfbench_out"

CLI_BOOT = "import sys; from planequant.cli import main; sys.exit(main())"
SETUP_SAMPLES = 11
IMPORT_SAMPLES = 3
IMPORT_METRICS = ("planequant", "numpy", "scipy.special", "scipy.linalg")
# A run stops starting sessions once another would end past this, and kills
# a child still running at the hard limit, well inside 180 s.
SOFT_LIMIT_S = 150.0
HARD_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update(THREAD_ENV)
    return env


def child_command(op: Op) -> list[str]:
    if op.entry == "cli":
        return [sys.executable, "-c", CLI_BOOT, *op.argv]
    return [sys.executable, str(HERE / "library_session.py"), *op.argv]


class Run:
    """State of one benchmark invocation: deadline, work directory and the
    digests of earlier runs."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.workdir = OUT / f"work-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.digest_path = OUT / "digests.json"
        try:
            self.digests = json.loads(self.digest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.digests = {}
        self.code_hash = tree_hash()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def child(self, cmd: list[str]) -> tuple[int | None, float, float, float, str, str]:
        """Run one child to completion: (exit code, wall s, cpu s, peak RSS MB,
        stdout, stderr).  The child is killed at the hard limit."""
        out_path, err_path = self.workdir / ".stdout", self.workdir / ".stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=child_env(),
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            killer = threading.Timer(max(HARD_LIMIT_S - self.elapsed(), 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        return (code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"))

    def judge(self, result: OpResult) -> list[str]:
        """Output checks plus byte-identity with earlier runs of the same code."""
        try:
            problems = result.op.check(result, self.workdir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        digests = {"stdout": hashlib.sha256(result.stdout.encode()).hexdigest()}
        for name in result.op.outputs:
            path = self.workdir / name
            if path.exists():
                digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
                path.unlink()
        key = f"{self.code_hash} {result.op.entry} {' '.join(result.op.argv)}"
        expected = self.digests.setdefault(key, digests)
        for name in sorted(set(expected) | set(digests)):
            if expected.get(name) != digests.get(name):
                problems.append(f"{name} differs from an earlier run of the same code")
        return problems

    def close(self) -> None:
        tmp = self.digest_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.digests, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.digest_path)
        shutil.rmtree(self.workdir, ignore_errors=True)


def tree_hash() -> str:
    """Hash of the package and benchmark sources: the code whose outputs the
    digests describe."""
    h = hashlib.sha256()
    for path in sorted([*PACKAGE.rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def warm_start(run: Run) -> None:
    """One unmeasured fresh import: compiles bytecode (a one-off cost users
    do not pay per command) and proves the package comes from ``src``."""
    code, *_, out, err = run.child([sys.executable, "-c", "import planequant; print(planequant.__file__)"])
    if code != 0 or Path(out.strip()).resolve().parent != PACKAGE.resolve():
        raise RuntimeError(f"planequant does not import from {PACKAGE}: {out.strip()} {err.strip()}")


def setup_sample(run: Run) -> float:
    """Wall time of one fresh interpreter through ``import planequant``."""
    return run.child([sys.executable, "-c", "import planequant"])[1]


# ---------------------------------------------------------------------------
# end to end (tracing off)
# ---------------------------------------------------------------------------

def run_end_to_end(run: Run, seconds: float) -> dict:
    ops = workloads.session(run.workload, run.seed)
    warm_start(run)
    # Set-up samples are spread over the run, some first, one after every
    # operation and the rest at the end, rather than taken in one burst, which
    # would land wholly in whatever speed the machine has at that moment.
    setup = [setup_sample(run) for _ in range(SETUP_SAMPLES // 2)]
    sessions = []
    loop_start = time.perf_counter()
    while True:
        results = []
        start = time.perf_counter()
        for op in ops:
            code, wall, cpu, rss, out, err = run.child(child_command(op))
            results.append(OpResult(op, code, out, err, wall, cpu, rss))
            setup.append(setup_sample(run))
        # Checks run after the timed session, whose wall leaves out the
        # set-up samples between its operations.
        problems = {r.op.name: run.judge(r) for r in results}
        sessions.append({
            "wall_s": sum(r.wall_s for r in results),
            "cpu_s": sum(r.cpu_s for r in results),
            "peak_rss_mb": max(r.peak_rss_mb for r in results),
            "ops": {r.op.name: r.wall_s for r in results},
            "runtime_warnings": sum(r.stderr.count("RuntimeWarning") for r in results),
            "problems": {k: v for k, v in problems.items() if v},
        })
        taken = time.perf_counter() - start
        if time.perf_counter() - loop_start >= seconds or run.elapsed() + taken > SOFT_LIMIT_S:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(run))
    attempted = len(ops) * len(sessions)
    failed = sum(len(s["problems"]) for s in sessions)
    # Session figures are means over the window: on a shared 2-core VM the
    # CPU speed switched between two modes every few seconds, and a median of
    # a few sessions jumps between the modes where a mean averages them.
    metrics = {
        "wall_s": statistics.fmean(s["wall_s"] for s in sessions),
        "setup_s": statistics.median(setup),
        "cpu_s": statistics.fmean(s["cpu_s"] for s in sessions),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in sessions),
    }
    commands = {f"{op.name}_s": statistics.fmean(s["ops"][op.name] for s in sessions)
                for op in ops}
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "commands": commands,
        "error_rate": failed / attempted,
        "runtime_warnings": sessions[0]["runtime_warnings"],
        "sessions": sessions,
        "setup_samples": setup,
    }


# ---------------------------------------------------------------------------
# traced run (per layer)
# ---------------------------------------------------------------------------

def measure_imports(run: Run, loaded: list[str]) -> dict[str, float]:
    """Cumulative import time of each module in ``IMPORT_METRICS``, median
    over fresh interpreters that import ``planequant`` and then the modules
    in ``loaded``, as the session did.  A module not in ``loaded`` reads 0:
    the session never imports it."""
    imported = ["planequant", *loaded]
    code = "; ".join(f"import {name}" for name in imported)
    samples: dict[str, list[float]] = {name: [] for name in IMPORT_METRICS}
    for _ in range(IMPORT_SAMPLES):
        *_, err = run.child([sys.executable, "-X", "importtime", "-c", code])
        seen = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and line.startswith("import time:") and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1]) / 1e6
        for name in IMPORT_METRICS:
            samples[name].append(seen.get(name, 0.0) if name in imported else 0.0)
    return {f"import.{name}.s": statistics.median(v) for name, v in samples.items()}


def call_in_process(op: Op, tracer) -> tuple[OpResult, int]:
    """Run one operation through its ``main(argv)`` in this process.

    Warnings are recorded rather than printed, counted when they are
    ``RuntimeWarning``s, and passed on to the operation's stderr text.
    """
    if op.entry == "cli":
        main = sys.modules["planequant.cli"].main
    else:
        import library_session
        main = library_session.main
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("default")
        start = time.perf_counter()
        try:
            # cli.main is a traced layer itself; the library session gets a span here.
            with tracer.span("library.main") if op.entry == "library" else nullcontext():
                code = main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # the op fails; the traceback goes to its stderr
            traceback.print_exc()
            code = None
        wall = time.perf_counter() - start
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno, w.line))
    runtime = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return OpResult(op, code, out.getvalue(), err.getvalue(), wall), runtime


def in_process_session(run: Run, ops: list[Op], tracer) -> tuple[float, int, dict]:
    """(wall s, RuntimeWarnings, problems by failed operation) of one
    in-process session, traced."""
    results, runtime = [], 0
    cwd = os.getcwd()
    os.chdir(run.workdir)
    try:
        start = time.perf_counter()
        with tracer.span("session"):
            for op in ops:
                r, w = call_in_process(op, tracer)
                results.append(r)
                runtime += w
        wall = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    problems = {r.op.name: run.judge(r) for r in results}
    return wall, runtime, {k: v for k, v in problems.items() if v}


def run_traced(run: Run) -> dict:
    import tracing

    warm_start(run)
    sys.path.insert(0, str(SRC))
    import planequant.cli  # noqa: F401  (the package imports every other layer)

    ops = workloads.session(run.workload, run.seed)
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        wall, runtime, problems = in_process_session(run, ops, tracer)
    # This process imports only the standard library besides what the session
    # loads, so sys.modules now tells which measured modules the session needs.
    metrics = tracer.metrics()
    metrics.update(measure_imports(run, [m for m in IMPORT_METRICS[1:] if m in sys.modules]))
    metrics["cli.runtime_warnings"] = runtime
    metrics["trace.overhead_s"] = tracing.wrapper_cost() * sum(tracer.calls.values())
    return {
        "attempted": len(ops),
        "failed": len(problems),
        "metrics": metrics,
        "problems": [f"{op}: {p}" for op, ps in problems.items() for p in ps],
        "traced_wall_s": wall,
        "tracer": tracer,
    }


# ---------------------------------------------------------------------------
# environment and reporting
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": THREADS,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k == "PLANEQUANT_THREADS" or k.startswith(("OMP_", "OPENBLAS_", "MKL_"))},
        "git_commit": commit,
        "source_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                            for p in PACKAGE.rglob("*.py")),
        "platform": platform.platform(),
    }


def declared_metrics(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    run = Run(workload, seed)
    try:
        body = run_traced(run) if trace else run_end_to_end(run, seconds)
    finally:
        run.close()
    metrics = {m["name"]: {"value": float(body["metrics"].get(m["name"], 0.0)), "unit": m["unit"]}
               for m in declared_metrics(trace)}
    result = {
        "correct": body["failed"] == 0,
        "attempted": body["attempted"],
        "failed": body["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "result": result,
        **{k: v for k, v in body.items() if k not in ("metrics", "tracer")},
    }
    if trace:
        tracer = body["tracer"]
        record["all_layer_metrics"] = body["metrics"]
        record["spans"] = [[s.sid, s.parent, s.name, s.tag, s.start, s.end] for s in tracer.spans]
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    report(record, metrics)
    return result


def report(record: dict, metrics: dict) -> None:
    env = record["environment"]
    print(f"# workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"threads {env['threads']} of nproc {env['nproc']}  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}  source lines {env['source_lines']}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    if not record["trace"]:
        print(f"  sessions {len(record['sessions'])}; per-command wall (mean): "
              + ", ".join(f"{k} {v:.4g} s" for k, v in record["commands"].items()))
        print(f"  runtime warnings per session {record['runtime_warnings']}")
    print(f"  error_rate {record['result']['failed']}/{record['result']['attempted']} = "
          f"{record['result']['failed'] / record['result']['attempted']:.3g}")
    problems = record["problems"] if record["trace"] else [
        f"{op}: {p}" for s in record["sessions"] for op, ps in s["problems"].items() for p in ps]
    for p in problems:
        print(f"  FAILED {p}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="planequant benchmark")
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no planequant package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # The seed feeds numpy generators and ``verify --seed``, which reject negative values.
    seed = args.seed % 2**32
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, seed, args.seconds, args.trace) for name in names}
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
