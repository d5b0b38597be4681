"""Span tracing of the planequant layers, from outside the package.

``instrumented(tracer)`` replaces every public function of the layer
modules with a wrapper that counts the call and records a span (name,
start, end, parent span).  A function is replaced on its defining module
and on every ``planequant`` module that bound it with ``from ... import``
(``verify.commutator``, ``symbols.coherent_state``,
``operators.monomial_state_matrix``, the package namespace, ...), so calls
through any of those names are seen.  Everything is restored on exit.

A span's self time is its duration minus the durations of its child spans;
the benchmark runs single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

LAYER_MODULES = ("frame", "operators", "symbols", "spectra", "bounds", "verify", "cli")


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    tag: str | None
    start: float
    end: float = 0.0
    # True when an enclosing span has the same name; inclusive time counts
    # only the outermost of such spans.
    nested: bool = False


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _sturm_pivots(args, kwargs):
    # One pivot per row of the tridiagonal.
    return "spectra.sturm_count.pivots", _arg(args, kwargs, 0, "t").dim


def _monomial_mb(args, kwargs):
    # The complex128 matrix V has dim x nodes entries of 16 bytes.
    dim = _arg(args, kwargs, 0, "dim")
    z = _arg(args, kwargs, 1, "z")
    nodes = z.size if hasattr(z, "size") else len(z)
    return "frame.monomial_state_matrix.computed_mb", dim * nodes * 16 / 1e6


def _commutator_flops(args, kwargs):
    # Two dense complex N x N products, 8 real flops per multiply-add.
    return "operators.commutator.flops", 16 * _arg(args, kwargs, 0, "a").dim ** 3


COUNTER_HOOKS = {
    "spectra.sturm_count": _sturm_pivots,
    "frame.monomial_state_matrix": _monomial_mb,
    "operators.commutator": _commutator_flops,
}


def _cli_command(args, kwargs):
    """The subcommand of a ``cli.main(argv)`` call, which tags its span."""
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


class Tracer:
    """Spans and counts, kept in memory until the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()

    @contextmanager
    def span(self, name: str, tag: str | None = None):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), parent, name, tag, time.perf_counter(),
                 nested=self._active[name] > 0)
        self.spans.append(s)
        self._stack.append(s.sid)
        self._active[name] += 1
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self._active[name] -= 1

    def wrap(self, name: str, fn):
        hook = COUNTER_HOOKS.get(name)
        tagger = _cli_command if name == "cli.main" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            if hook is not None:
                key, amount = hook(args, kwargs)
                self.counters[key] += amount
            with self.span(name, tagger(args, kwargs) if tagger else None):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> list[float]:
        """Self time of each span, indexed like ``spans``."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - child[s.sid] for s in self.spans]

    def metrics(self) -> dict[str, float]:
        """Per-function ``calls``, ``s`` (inclusive) and ``self_s``, per-module
        self time, per-command ``cli.main.<command>.s`` and the counters."""
        out: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self.self_times()):
            out[f"{s.name}.self_s"] += own
            if not s.nested:
                out[f"{s.name}.s"] += s.end - s.start
            module = s.name.split(".", 1)[0]
            if module in LAYER_MODULES:
                out[f"{module}.self_s"] += own
            if s.name == "cli.main" and s.tag:
                out[f"cli.main.{s.tag}.s"] += s.end - s.start
        for name, count in self.calls.items():
            out[f"{name}.calls"] = count
        out.update(self.counters)
        return dict(out)


def wrapper_cost() -> float:
    """Seconds a wrapper adds to one call: a wrapped no-op against the bare
    no-op, median over 5 batches of 20,000 calls each."""
    def noop():
        return None

    calls = 20000
    costs = []
    for _ in range(5):
        wrapped = Tracer().wrap("noop", noop)
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(costs)


def public_functions(module) -> dict[str, object]:
    """Public functions defined in ``module`` (not re-exported ones)."""
    return {
        attr: obj for attr, obj in vars(module).items()
        if not attr.startswith("_") and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap the layer modules' public functions for the duration of the block.

    Yields the mapping from each original function to its wrapper.
    """
    wrappers = {}
    for short in LAYER_MODULES:
        module = importlib.import_module(f"planequant.{short}")
        for attr, fn in public_functions(module).items():
            wrappers[fn] = tracer.wrap(f"{short}.{attr}", fn)
    patched = []
    package_modules = [m for name, m in list(sys.modules.items())
                       if m is not None and (name == "planequant" or name.startswith("planequant."))]
    for module in package_modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, attr, wrappers[obj])
                patched.append((module, attr, obj))
    try:
        yield wrappers
    finally:
        for module, attr, obj in patched:
            setattr(module, attr, obj)
