"""Library session of the phase-space workload.

Quantizes the paper's real observables (q, p, q^2, p^2 and the energy
|z|^2 = (q^2 + p^2)/2) at N = 64 twice, with the closed-form ``quantize``
and with the ``quantize_quadrature`` oracle, compares the two, and
evaluates lower symbols at phase points drawn from the seed.  The findings
go to a JSON file with sorted keys, so two runs with the same seed write
the same bytes; ``workloads.check_library`` judges them.

Run as ``python3 perfbench/library_session.py --seed 7 --out library.json``
with ``src`` on ``PYTHONPATH``; the benchmark also calls ``main`` in-process
for its traced run.
"""

from __future__ import annotations

import argparse
import json
import math

DIM = 64
POINTS = 12
# The points stay inside |q|, |p| <= 4, where the N = 64 frame is far from
# its truncation edge and every closed form holds to roundoff.
POINT_RANGE = 4.0


def observables():
    """The five real observables, as (name, PolynomialSymbol)."""
    from planequant import PolynomialSymbol

    q = PolynomialSymbol.position()
    p = PolynomialSymbol.momentum()
    q2 = PolynomialSymbol.from_terms([(2, 0, 0.5), (1, 1, 1.0), (0, 2, 0.5)])
    p2 = PolynomialSymbol.from_terms([(2, 0, -0.5), (1, 1, 1.0), (0, 2, -0.5)])
    energy = PolynomialSymbol.from_terms([(1, 1, 1.0)])
    return [("q", q), ("p", p), ("q2", q2), ("p2", p2), ("H", energy)]


def run(seed: int) -> dict:
    import numpy as np

    import planequant as pq

    rng = np.random.default_rng(seed)
    points = [pq.PhasePoint(float(a), float(b))
              for a, b in rng.uniform(-POINT_RANGE, POINT_RANGE, size=(POINTS, 2))]

    oracle_dev = {}
    symbol_dev = {}
    ops = {}
    for name, sym in observables():
        closed = pq.quantize(sym, DIM)
        quad = pq.quantize_quadrature(sym.evaluate, DIM)
        scale = max(1.0, float(np.max(np.abs(closed.entries))))
        oracle_dev[name] = float(np.max(np.abs(closed.entries - quad.entries))) / scale
        worst = 0.0
        for x in points:
            a = pq.lower_symbol(closed, x)
            b = pq.lower_symbol(quad, x)
            worst = max(worst, abs(a - b) / max(1.0, abs(a)))
        symbol_dev[name] = worst
        ops[name] = closed

    # quantize(q) and quantize(p) are the named position/momentum matrices,
    # so their commutator is i(I - N |N-1><N-1|).
    comm = pq.commutator(ops["q"], ops["p"]).entries
    expected = 1j * (np.eye(DIM) - DIM * pq.last_level_projector(DIM).entries)
    named_dev = max(
        float(np.max(np.abs(ops["q"].entries - pq.position_operator(DIM).entries))),
        float(np.max(np.abs(ops["p"].entries - pq.momentum_operator(DIM).entries))),
    )

    closed_form_dev = 0.0
    products = []
    for x in points:
        c = pq.corrective_factor(DIM, math.sqrt(x.r2))
        closed_form_dev = max(
            closed_form_dev,
            abs(pq.lower_symbol(ops["q"], x) - c * x.q),
            abs(pq.lower_symbol(ops["p"], x) - c * x.p),
        )
        products.append([x.q, x.p, pq.uncertainty_product(DIM, x)])

    return {
        "dim": DIM,
        "seed": seed,
        "oracle_rel_dev": oracle_dev,
        "lower_symbol_rel_dev": symbol_dev,
        "commutator_dev": float(np.max(np.abs(comm - expected))),
        "named_operator_dev": named_dev,
        "qp_closed_form_dev": closed_form_dev,
        "uncertainty_products": products,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run(args.seed)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(result, sort_keys=True, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
