"""Spans around calls into circuitmarket, recorded from outside the package.

`instrument` wraps every public function that `circuitmarket` exports from
its `purecircuit`, `market`, `reduction` and `solver` modules, and rebinds
the wrapper in every `circuitmarket.*` namespace that holds the original.
That is what makes nested calls nest: `solver.tatonnement` looks up
`canonical_demand` in its own module globals, and `cli` reaches
`compile_circuit` through the `reduction` module, so both find the wrapper.
`rationals` stays unwrapped because it is called once per number.

A span is `[name, start, end, parent index, op id]`; spans stay in memory and
are written out with the result.  A gap is `[span index, start, end]`: time
the harness spent on its speed probe while that span was the innermost one
open.  A span's self time is its duration minus the part of its interval
that its direct children and its gaps cover, so probing never counts as
time of the program.
"""

from __future__ import annotations

import sys
import time
import types
from collections import defaultdict

LAYERS = ("purecircuit", "market", "reduction", "solver")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.gaps: list[list] = []
        self.op = None
        self.errors: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._last_error = None

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def _error(self, layer: str, exc: BaseException) -> None:
        # An exception unwinding through nested wrappers counts once, in the
        # layer where it was first seen.
        if exc is not self._last_error:
            self._last_error = exc
            self.errors[layer] += 1

    def span(self, name: str):
        return _Span(self, name)

    def exclude(self, start: float, end: float) -> None:
        """Mark [start, end] as the harness's own time inside the innermost
        open span."""
        if self._stack:
            self.gaps.append([self._stack[-1], start, end])

    def wrap(self, name: str, fn, observe=None):
        layer = name.split(".", 1)[0]
        tracer = self

        def wrapper(*args, **kwargs):
            record = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._error(layer, exc)
                raise
            finally:
                tracer._close(record)
            if observe is not None:
                observe(tracer.counters, result)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper


class _Span:
    __slots__ = ("tracer", "name", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.record = self.tracer._open(self.name)
        return self.record

    def __exit__(self, exc_type, exc, tb):
        if exc is not None:
            self.tracer._error(self.name.split(".", 1)[0], exc)
        self.tracer._close(self.record)
        return False


class NullTracer:
    """Stands in for a Tracer when tracing is off: spans cost one call."""

    op = None

    def span(self, name: str):
        return _NULL_SPAN

    def exclude(self, start: float, end: float) -> None:
        pass


class _NullSpan:
    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_SPAN = _NullSpan()


# --- counters read off wrapped results -------------------------------------


def _compiled(counters, reduced):
    counters["reduction.goods"] += len(reduced.market.goods)
    counters["reduction.buyers"] += len(reduced.market.buyers)


def _market_json(counters, text):
    counters["market.market_json_bytes"] += len(text)


def _exchange_json(counters, text):
    counters["market.exchange_json_bytes"] += len(text)


def _tatonnement(counters, result):
    counters["solver.tatonnement.iterations"] += len(result.trace) - 1
    counters["solver.tatonnement.converged"] += bool(result.converged)
    bits = max(
        (max(p.numerator.bit_length(), p.denominator.bit_length())
         for p in result.prices.values()),
        default=0,
    )
    counters["solver.price_bits_max"] = max(counters["solver.price_bits_max"], bits)


def _bisection(counters, result):
    counters["solver.pinned_bisection.exact"] += bool(result.exact)


OBSERVERS = {
    "reduction.compile_circuit": _compiled,
    "market.market_to_json": _market_json,
    "market.exchange_to_json": _exchange_json,
    "solver.tatonnement": _tatonnement,
    "solver.pinned_bisection": _bisection,
}


def exported_functions(package):
    """(layer, name, function) for each public function `package` exports
    from one of LAYERS."""
    for layer in LAYERS:
        module_name = f"{package.__name__}.{layer}"
        for name, obj in sorted(vars(package).items()):
            if (
                not name.startswith("_")
                and isinstance(obj, types.FunctionType)
                and obj.__module__ == module_name
            ):
                yield layer, name, obj


def instrument(tracer: Tracer, package) -> "callable":
    """Wrap the exported functions of `package` everywhere they are bound;
    returns a function that puts the originals back."""
    prefix = package.__name__ + "."
    modules = [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == package.__name__ or name.startswith(prefix))
    ]
    patched = []
    for layer, name, fn in exported_functions(package):
        full = f"{layer}.{name}"
        wrapper = tracer.wrap(full, fn, OBSERVERS.get(full))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, fn))

    def restore():
        for module, attr, fn in reversed(patched):
            setattr(module, attr, fn)

    return restore


# --- self time --------------------------------------------------------------


def _covered(start: float, end: float, intervals) -> float:
    """Length of the union of `intervals`, each clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def net_duration(start: float, end: float, gaps) -> float:
    """Length of [start, end] without the gaps inside it."""
    return (end - start) - _covered(start, end, [(lo, hi) for _, lo, hi in gaps])


def self_times(spans, gaps) -> list[float]:
    """Self time of every span, in span order."""
    children = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    for index, start, end in gaps:
        children[index].append((start, end))
    return [
        (end - start) - _covered(start, end, children.get(i, ()))
        for i, (name, start, end, parent, op) in enumerate(spans)
    ]


def by_name(spans, gaps) -> dict[str, dict[str, float]]:
    """Per span name: number of calls and summed self time."""
    out: dict[str, dict[str, float]] = {}
    for (name, *_), own in zip(spans, self_times(spans, gaps)):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
    return out
