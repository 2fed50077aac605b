"""Span tracing of compopnum from outside the package.

`Tracer.install()` replaces the public functions of each layer module, and
the few class methods named in METHODS, with wrappers that time the call on
a span stack.  A span's self time is its duration minus the time of the
spans it called, so the self times of all spans add up to the duration of
the outermost span (`cli.main` for CLI jobs).  Names one module imported
from another (`cli.assemble`, `opmatrix.power_coefficient_table`, ...) are
rebound to the same wrapper, or calls through them would be missed.

A call made while a span of the same name is already open (ComposedMap's
evaluate calling its factors', image_contains recursing into the inner
symbol) adds to self time but not to `calls` or the argument counters, so
counts are per outermost call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from collections import Counter, defaultdict

LAYERS = ("symbols", "series", "tails", "opmatrix", "geometry", "analysis", "cli")
# run_pipeline is the body of cli.main: left unwrapped, its glue (CSV and
# report writing) stays in cli.main's self time
UNWRAPPED = ("cli.run_pipeline",)

# (module, class, method, span name); every catalog class with its own
# evaluate is added by install()
METHODS = (
    ("geometry", "CuspRegion", "annulus_area", "geometry.CuspRegion.annulus_area"),
    ("geometry", "BlaschkeProduct", "abs2", "geometry.BlaschkeProduct.abs2"),
)


def _size(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x) if isinstance(x, (list, tuple)) else 1
    return math.prod(shape)


def _count_points(st, args):
    st["points"] += _size(args["z" if "z" in args else "w"])


def _count_abs2(st, args):
    from compopnum import geometry

    w = args["w"]
    st["points"] += _size(w)
    st["inside"] += int(geometry.CuspRegion().contains(w).sum())


def _count_power_table(st, args):
    # computed from the arguments: one FFT of length Q per power and radius
    M, _rho, Q = args["params"].resolved()
    ffts = args["k_max"] * (2 if args.get("certify", True) else 1)
    st["ffts"] += ffts
    st["fft_points"] += ffts * Q
    st["table_mb"] = max(st["table_mb"], args["k_max"] * (M + 1) * 16 / 1e6)


def _count_svd_dim(st, args):
    st["svd_dim"] = max(st["svd_dim"], max(args["m"].entries.shape))


def _count_fallback(st, result):
    if result.model in ("mixed", "divergent"):
        st["fallbacks"] += 1


# span name -> hook on the bound arguments of an outermost call
BEFORE = {
    "symbols.evaluate": _count_points,
    "geometry.image_contains": _count_points,
    "geometry.BlaschkeProduct.abs2": _count_abs2,
    "series.power_coefficient_table": _count_power_table,
    "opmatrix.singular_spectrum": _count_svd_dim,
}
# span name -> hook on the return value of an outermost call
AFTER = {"tails.tail_remainder": _count_fallback}

# span stats that combine across jobs by max instead of sum
MAX_FIELDS = ("table_mb", "svd_dim")


class Tracer:
    """Per-span counters and self times for one process."""

    def __init__(self):
        self.stats = defaultdict(Counter)
        self._stack = []  # time spent in child spans, one entry per open span
        self._open = Counter()

    def wrap(self, name, fn):
        stats, stack, is_open = self.stats[name], self._stack, self._open
        hooks = self.stats["trace.hooks"]
        before, after = BEFORE.get(name), AFTER.get(name)
        sig = inspect.signature(fn) if before else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            t0 = clock()
            hook_s = 0.0
            outermost = not is_open[name]
            if outermost:
                stats["calls"] += 1
                if before:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    before(stats, bound.arguments)
                    hook_s = clock() - t0
                    hooks["self_s"] += hook_s
            is_open[name] += 1
            # the hook's own time is booked to trace.hooks, as if a child span
            stack.append(hook_s)
            try:
                result = fn(*args, **kwargs)
            except ArithmeticError:
                stats["failures"] += 1
                raise
            finally:
                dt = clock() - t0
                stats["self_s"] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                is_open[name] -= 1
            if after and outermost:
                after(stats, result)
            return result

        return span

    def install(self):
        """Wraps every layer's public functions and the METHODS in place."""
        modules = {name: importlib.import_module(f"compopnum.{name}") for name in LAYERS}
        wrapped = {}
        for name, mod in modules.items():
            for attr, obj in vars(mod).items():
                span = f"{name}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and span not in UNWRAPPED):
                    wrapped[obj] = self.wrap(span, obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        symbols = modules["symbols"]
        methods = [
            (cls, "evaluate", "symbols.evaluate")
            for cls in vars(symbols).values()
            if isinstance(cls, type) and issubclass(cls, symbols.SymbolMap) and "evaluate" in vars(cls)
        ]
        methods += [(getattr(modules[m], c), meth, span) for m, c, meth, span in METHODS]
        for cls, meth, span in methods:
            setattr(cls, meth, self.wrap(span, vars(cls)[meth]))

    def summary(self) -> dict:
        return {name: dict(st) for name, st in self.stats.items() if st}
