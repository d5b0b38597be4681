"""Write tests/data/hermite_extremes.json: the extreme Hermite zeros to 35 digits.

The eigenvalues of the N x N position matrix are the zeros of
p_N, with p_0 = 1, p_1 = -x and p_{k+1} = -x p_k - (k/2) p_{k-1}.  For each
dimension this script refines the double-precision asymptotic guesses of
``planequant.spectra._extreme_guesses`` for the smallest positive zero
lambda_m and the largest zero lambda_M by Newton's method on that recurrence
and its derivative, in stdlib ``decimal`` at 40 significant digits.  The
four running values are rescaled by a power of ten every 64 steps, which is
exact, so they stay in range for any N.  Three Newton steps take a guess
that is good to 1e-9 relative to the working precision; the script fails if
the last step is not below 1e-30 relative.

The dimensions are the sigma-table ladder from 100 on, N = 1001 and 5000
(the other dimensions at which the guesses are held to a tenth of their
bracket's room), every N in 100..1320, the first dimensions that return
the guesses, where the guesses' truncation errors are largest, and
every N in 4600..4620, with 40 dimensions of both parities spread
geometrically over 111..4606 and 36 over 4621..20001.  Each zero is written
as a 35-significant-digit string.

Run from the repository root; it takes 35 to 40 s on 2 cores, 17 s of it at
N = 10^6:

    PYTHONPATH=src python tests/make_hermite_reference.py

A rerun reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import sys
from decimal import Context, Decimal, localcontext
from pathlib import Path

from planequant.spectra import _extreme_guesses

REFERENCE_PATH = Path(__file__).with_name("data") / "hermite_extremes.json"

_DIGITS = 40
_WRITTEN_DIGITS = 35
_NEWTON_STEPS = 3
_RESCALE_EVERY = 64
_LADDER_DIMS = [100, 551, 1000, 5555, 10000, 55255, 100000, 500555, 1000000]
_HALF_WIDTH_DIMS = [1001, 5000]
# (first, last, count) of each geometric sample
_SAMPLES = [(111, 4606, 40), (4621, 20001, 36)]


def reference_dims() -> list[int]:
    """Ladder dims >= 100, 1001, 5000, every N in 100..1320 and 4600..4620,
    and geometric samples of 111..4606 and 4621..20001."""
    dims = set(_LADDER_DIMS + _HALF_WIDTH_DIMS)
    dims.update(range(100, 1321), range(4600, 4621))
    for lo, hi, count in _SAMPLES:
        dims.update(round(lo * (hi / lo) ** (k / (count - 1))) for k in range(count))
    return sorted(dims)


def _newton_step(n_dim: int, x: Decimal) -> Decimal:
    """p_N(x) / p_N'(x) by the three-term recurrence and its derivative."""
    neg = -x
    p_prev, p = Decimal(1), neg
    dp_prev, dp = Decimal(0), Decimal(-1)
    for k in range(1, n_dim):
        half_k = Decimal(k) / 2
        p_prev, p, dp_prev, dp = (p, neg * p - half_k * p_prev,
                                  dp, neg * dp - p - half_k * dp_prev)
        if k % _RESCALE_EVERY == 0:
            shift = -max(v.adjusted() for v in (p_prev, p, dp_prev, dp))
            p_prev, p, dp_prev, dp = (v.scaleb(shift) for v in (p_prev, p, dp_prev, dp))
    return p / dp


def newton_zero(n_dim: int, guess: float) -> Decimal:
    """The zero of p_N next to ``guess``, to about 35 digits."""
    with localcontext(Context(prec=_DIGITS)):
        x = Decimal(guess)
        for _ in range(_NEWTON_STEPS):
            step = _newton_step(n_dim, x)
            x -= step
        if abs(step) > Decimal("1e-30") * abs(x):
            raise RuntimeError(f"Newton at N = {n_dim} from {guess!r}: last step {step} too large")
        return x


def _written(x: Decimal) -> str:
    with localcontext(Context(prec=_DIGITS)):
        return format(x, f".{_WRITTEN_DIGITS}g")


def hermite_extremes(n_dim: int) -> dict[str, str]:
    """{"lambda_m": ..., "lambda_M": ...} of dimension ``n_dim`` as written to the file."""
    guess_m, guess_max = _extreme_guesses(n_dim)
    return {"lambda_m": _written(newton_zero(n_dim, guess_m)),
            "lambda_M": _written(newton_zero(n_dim, guess_max))}


def main() -> int:
    zeros = {}
    for n in reference_dims():
        zeros[str(n)] = hermite_extremes(n)
        print(n, zeros[str(n)]["lambda_m"], zeros[str(n)]["lambda_M"], file=sys.stderr)
    doc = {
        "description": "smallest positive (lambda_m) and largest (lambda_M) zero of the "
                       "degree-N Hermite polynomial, the extreme positive eigenvalues of the "
                       "N x N position matrix; written by tests/make_hermite_reference.py",
        "digits": _WRITTEN_DIGITS,
        "zeros": zeros,
    }
    REFERENCE_PATH.parent.mkdir(exist_ok=True)
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(zeros)} dimensions to {REFERENCE_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
