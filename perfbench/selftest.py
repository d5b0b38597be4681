"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

Runs the ``ladder`` and ``phase-space`` sessions in-process, traced, twice
each (about 80 s), and checks that:

* every public function is wrapped on its defining module and on each
  module that bound it by ``from ... import``, and is restored afterwards;
* a traced ladder run reports about 100 ``sturm_count`` calls per dimension;
* call counts and computed counters repeat exactly across the two runs;
* in every span tree the self times are nonnegative and sum to the root;
* the workloads separate the layers: ``sturm_count`` covers most of
  ``cli.main`` on ``ladder``, and spectra is a few percent of
  ``phase-space``.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import sys

import run as bench  # pins the thread pools before numpy is imported
import tracing
import workloads

SEED = 11


def rebound_names():
    """(module, attribute, defining module) triples bound by ``from ... import``."""
    import planequant
    from planequant import frame, operators, spectra, symbols, verify

    return [
        (verify, "commutator", operators),
        (verify, "verify_identity_resolution", frame),
        (symbols, "coherent_state", frame),
        (operators, "monomial_state_matrix", frame),
        (planequant, "sturm_count", spectra),
        (planequant, "quantize", operators),
    ]


def traced(workload: str, failures: list[str]) -> tracing.Tracer:
    run = bench.Run(workload, SEED)
    names = rebound_names()
    originals = [getattr(defining, attr) for _, attr, defining in names]
    tracer = tracing.Tracer()
    try:
        with tracing.instrumented(tracer) as wrappers:
            for (module, attr, _), fn in zip(names, originals):
                if getattr(module, attr) is not wrappers.get(fn):
                    failures.append(f"{module.__name__}.{attr} is not wrapped")
            _, _, problems = bench.in_process_session(run, workloads.session(workload, SEED), tracer)
    finally:
        run.close()
    for (module, attr, _), fn in zip(names, originals):
        if getattr(module, attr) is not fn:
            failures.append(f"{module.__name__}.{attr} was not restored")
    failures.extend(f"{workload} {op}: {p}" for op, ps in problems.items() for p in ps)
    return tracer


def check_span_trees(tracer: tracing.Tracer, label: str, failures: list[str]) -> None:
    own = tracer.self_times()
    root_of = {}
    totals: dict[int, float] = {}
    for s, t in zip(tracer.spans, own):
        root = s.sid if s.parent is None else root_of[s.parent]
        root_of[s.sid] = root
        totals[root] = totals.get(root, 0.0) + t
        if t < -1e-9:
            failures.append(f"{label}: span {s.name} has negative self time {t:.3g}")
    for root, total in totals.items():
        span = tracer.spans[root]
        duration = span.end - span.start
        if abs(total - duration) > 1e-9 * max(1.0, duration) * len(tracer.spans):
            failures.append(f"{label}: self times sum to {total} under root "
                            f"{span.name} of {duration}")


def main() -> int:
    sys.path.insert(0, str(bench.SRC))
    failures: list[str] = []
    runs = {}
    for workload in ("ladder", "phase-space"):
        first = traced(workload, failures)
        second = traced(workload, failures)
        for label, tracer in (("first", first), ("second", second)):
            check_span_trees(tracer, f"{workload} {label}", failures)
        if first.calls != second.calls or first.counters != second.counters:
            failures.append(f"{workload}: counts differ between two traced runs")
        runs[workload] = first.metrics()
        root = first.spans[0]
        runs[workload]["session.s"] = root.end - root.start

    ladder = runs["ladder"]
    per_dim = ladder["spectra.sturm_count.calls"] / len(workloads.LADDER)
    print(f"ladder: {per_dim:.1f} sturm_count calls per dimension")
    if not 50 <= per_dim <= 150:
        failures.append(f"ladder: {per_dim:.1f} sturm_count calls per dimension, expected ~100")
    share = ladder["spectra.sturm_count.s"] / ladder["cli.main.sigma-table.s"]
    print(f"ladder: sturm_count is {share:.1%} of cli.main")
    if not share > 0.5:
        failures.append(f"ladder: sturm_count covers only {share:.1%} of cli.main")

    phase = runs["phase-space"]
    share = phase["spectra.self_s"] / phase["session.s"]
    print(f"phase-space: spectra is {share:.1%} of the session")
    if not share < 0.15:
        failures.append(f"phase-space: spectra takes {share:.1%} of the session")

    for f in failures:
        print(f"FAIL {f}")
    print("selftest passed" if not failures else f"selftest failed: {len(failures)} problem(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
