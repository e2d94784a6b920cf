"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each adekit layer module, plus
the methods that carry the scalar and series work (``Frac.__init__``,
``PowerSeries.__mul__``, ``PowerSeries.compose``).  Where one module
imported a wrapped name from another (``poly_gcd`` in ``discovery``,
``expand_series`` in ``pipeline``, ...), that module's copy is rebound
too, so calls are traced whichever module makes them.

Each call is a span.  A span's self time is its duration minus the
duration of the traced spans it caused; inclusive time is counted only
for the outermost call of a recursive function.  Calls, self and
inclusive times are summed per name as the spans close; shallow spans
(the operations and the layer entry points below them) are also kept in
memory as records, to be written out with the results.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = (
    "scalars",
    "series",
    "expr",
    "diffpoly",
    "chain_rewrite",
    "discovery",
    "pipeline",
    "growth",
)

# Helpers called once per polynomial term or per derivative monomial:
# wrapping them would multiply the traced run time without telling which
# layer is busy, which their callers' self time already shows.
UNWRAPPED = {
    "scalars.mono_mul",
    "scalars.mono_degree",
    "scalars.mono_str",
    "diffpoly.mono_of",
    "diffpoly.mono_weight",
    "diffpoly.mono_total_degree",
    "diffpoly.mono_order",
    "diffpoly.mono_product",
    "diffpoly.mono_rank",
}

# Recursive functions traced at their top-level call only: the recursion
# inside runs unwrapped.
TOP_LEVEL_ONLY = {"growth.eval_log_polar"}

# Spans shallower than this (the operation, the layer entry point it
# calls, and one level below) are kept as records.
SPAN_DEPTH = 3


def _methods():
    from adekit.scalars import Frac
    from adekit.series import PowerSeries

    return {
        "scalars.frac": (Frac, "__init__"),
        "series.mul": (PowerSeries, "__mul__"),
        "series.compose": (PowerSeries, "compose"),
    }


class Tracer:
    """Wraps adekit's layers on ``install`` and restores them on
    ``uninstall``; ``stats`` maps a span name to [calls, self_s, incl_s]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.extra: dict[str, float] = {}
        self.spans: list = []
        self._stack: list = []
        self._active: dict[str, int] = {}
        self._restore: list = []

    # -- accounting ---------------------------------------------------------

    def reset(self):
        for row in self.stats.values():
            row[0], row[1], row[2] = 0, 0.0, 0.0
        for key in self.extra:
            self.extra[key] = 0
        self.spans.clear()

    def bump(self, key: str, amount):
        self.extra[key] = self.extra.get(key, 0) + amount

    def top(self, key: str, value):
        self.extra[key] = max(self.extra.get(key, 0), value)

    def _wrap(self, name: str, fn, hook=None):
        row = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, active, spans = self._stack, self._active, self.spans
        active.setdefault(name, 0)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            depth = len(stack)
            frame = [0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                active[name] -= 1
                row[0] += 1
                row[1] += dur - frame[0]
                if not active[name]:
                    row[2] += dur
                if stack:
                    stack[-1][0] += dur
                if depth < SPAN_DEPTH:
                    spans.append((name, depth, start, dur))
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn):
        """Run fn as a traced span of its own (the benchmark's operations)."""
        return self._wrap(name, fn)()

    # -- installation -------------------------------------------------------

    def install(self):
        originals = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"adekit.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or name in UNWRAPPED
                ):
                    continue
                originals[id(obj)] = (obj, self._wrap_function(mod, attr, name, obj))
        for name, (cls, attr) in _methods().items():
            orig = cls.__dict__[attr]
            self._restore.append((cls, attr, orig))
            setattr(cls, attr, self._wrap(name, orig, HOOKS.get(name)))
        # rebind every module's own copy of a wrapped function
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "adekit" or modname.startswith("adekit.")):
                continue
            for attr, obj in list(vars(mod).items()):
                orig, wrapper = originals.get(id(obj), (None, None))
                if orig is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        return self

    def _wrap_function(self, mod, attr, name, fn):
        if name not in TOP_LEVEL_ONLY:
            return self._wrap(name, fn, HOOKS.get(name))
        inner = self._wrap(name, fn, HOOKS.get(name))

        def top_level(*args, **kwargs):
            setattr(mod, attr, fn)
            try:
                return inner(*args, **kwargs)
            finally:
                setattr(mod, attr, top_level)

        return top_level

    def uninstall(self):
        while self._restore:
            target, attr, orig = self._restore.pop()
            setattr(target, attr, orig)

    # -- results ------------------------------------------------------------

    def table(self) -> dict:
        """A copy of the sums: span name -> [calls, self_s, incl_s], and
        each counter by its name."""
        out = {name: list(row) for name, row in self.stats.items()}
        out.update(self.extra)
        return out


def counts(table: dict) -> dict:
    """The entries of a table that must repeat exactly from pass to pass:
    calls and counters, not times."""
    return {name: v[0] if isinstance(v, list) else v for name, v in table.items()}


# ---------------------------------------------------------------------------
# Counters computed from arguments and results


def _mul_hook(tracer, args, result):
    # a truncated product to order n multiplies (n+1)(n+2)/2 coefficient pairs
    n = result.order
    tracer.bump("series.mul.coeff_products", (n + 1) * (n + 2) // 2)


def _nullspace_hook(tracer, args, result):
    rows = args[0]
    basis, _ = result
    tracer.bump("discovery.exact_nullspace.cells", len(rows) * (len(rows[0]) if rows else 0))
    if not basis:
        tracer.bump("discovery.exact_nullspace.full_rank", 1)
    bits = 0
    for vec in basis:
        for x in vec:
            for poly in (x.num, x.den):
                for g in poly.terms.values():
                    for q in (g.re, g.im):
                        bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
    tracer.top("discovery.kernel_bits_max", bits)


HOOKS = {
    "series.mul": _mul_hook,
    "discovery.exact_nullspace": _nullspace_hook,
}
