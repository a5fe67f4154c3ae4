"""Outside-in tracing of qtoric's layers, from the benchmark's own files.

``Tracer.install`` replaces each public function of the layer modules by a
wrapper in every ``qtoric`` module that holds a binding to it (``recursion``
holds its own ``component_series``, ``qdiff`` its own
``mori_cone_membership``), and wraps two methods on their class:
``NovikovSeries.coefficient`` and ``QRational.__init__``.  ``uninstall``
puts every original object back.

Each wrapped call is a span: name, start, end, parent span and job id.  Spans
stay in memory until ``write_spans``.  Self time is a span's duration minus
the time covered by its child spans; it is accumulated on the fly, so spans
that are not kept still count.  ``QRational.__init__`` is counted only: it
is the most frequent call and a timed span there would add more than it
tells.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("models", "toric", "linalg", "kirwan", "localization", "scalars",
          "series", "qdiff", "recursion", "exprs", "cli")


class Stat:
    """Calls, self time and one hook-specific count of a traced function."""

    __slots__ = ("calls", "self_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.extra = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.spans: list[tuple] = []
        self.job = None
        self.coeff_bits_max = 0
        self._next_id = 0
        self._stack: list[list] = []
        self._patches: list[tuple] = []
        self._fixed_points_cache = None
        self._cache_before = self._cache_after = (0, 0)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from qtoric import scalars, series, toric

        self._fixed_points_cache = toric.enumerate_fixed_points
        modules = {name: importlib.import_module(f"qtoric.{name}") for name in LAYERS}
        originals = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                originals[id(obj)] = self._wrapper(f"{short}.{attr}", obj)
        holders = [m for name, m in sys.modules.items()
                   if m is not None and (name == "qtoric" or name.startswith("qtoric."))]
        for module in holders:
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals:
                    self._patch(module, attr, obj, originals[id(obj)])
        coefficient = series.NovikovSeries.coefficient
        self._patch(series.NovikovSeries, "coefficient", coefficient,
                    self._wrapper("series.NovikovSeries.coefficient", coefficient))
        init = scalars.QRational.__init__
        self._patch(scalars.QRational, "__init__", init, self._counter("scalars.QRational", init))
        self._cache_before = self._cache_counts()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._cache_after = self._cache_counts()

    def unrestored(self) -> list[str]:
        """Names of patched attributes that do not hold their original object."""
        return [f"{owner.__name__}.{attr}" for owner, attr, original in self._patches
                if vars(owner).get(attr) is not original]

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _cache_counts(self) -> tuple[int, int]:
        info = self._fixed_points_cache.cache_info()
        return info.hits, info.misses

    # -- wrappers ----------------------------------------------------------

    def _counter(self, name, fn):
        stat = self.stats.setdefault(name, Stat())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrapper(self, name, fn):
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        tracer = self
        if name == "series.component_series":
            signature = inspect.signature(fn)

            def name_of(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                symbolic = bound.arguments.get("symbolic_q", False)
                return name + (".symbolic" if symbolic else ".numeric")
        else:
            def name_of(args, kwargs):
                return name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(name_of(args, kwargs), fn, args, kwargs, hook)
        return wrapper

    def _call(self, name, fn, args, kwargs, hook):
        stack = self._stack
        parent = stack[-1] if stack else None
        frame = [self._next_id, 0.0]
        self._next_id += 1
        stack.append(frame)
        if hook is not None:
            args, kwargs = hook(args, kwargs, None, before=True)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = Stat()
            stat.calls += 1
            stat.self_s += (end - start) - frame[1]
            self.spans.append((frame[0], name, start, end,
                               parent[0] if parent else None, self.job))
            if parent is not None:
                parent[1] += end - start
        if hook is not None:
            hook(args, kwargs, result, before=False)
        return result

    # Hooks see the call before (and may replace its arguments) and after.

    def _hook_toric_box_degrees(self, args, kwargs, result, before):
        if not before:
            self.stats["toric.box_degrees"].extra += len(result)
        return args, kwargs

    def _hook_linalg_in_cone(self, args, kwargs, result, before):
        if not before and result:
            self.stats["linalg.in_cone"].extra += 1
        return args, kwargs

    def _hook_series_NovikovSeries_coefficient(self, args, kwargs, result, before):
        if not before:
            series, d = args[0], args[1] if len(args) > 1 else kwargs["d"]
            if not series.box.contains(d):
                self.stats["series.NovikovSeries.coefficient"].extra += 1
        return args, kwargs

    def _hook_series_component_series(self, args, kwargs, result, before):
        if not before:
            for c in result.coeffs.values():
                if hasattr(c, "denominator"):
                    bits = max(c.numerator.bit_length(), c.denominator.bit_length())
                    if bits > self.coeff_bits_max:
                        self.coeff_bits_max = bits
        return args, kwargs

    def _hook_scalars_with_resampling(self, args, kwargs, result, before):
        if before:
            args = list(args)
            make_ctx = args[0] if args else kwargs.pop("make_ctx")
            stat = self.stats.setdefault("scalars.with_resampling.attempts", Stat())

            def counted(t):
                stat.calls += 1
                return make_ctx(t)
            if args:
                args[0] = counted
            else:
                kwargs["make_ctx"] = counted
        return tuple(args), kwargs

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-function calls, self time and extra counts, plus derived figures."""
        out = {name: {"calls": s.calls, "self_s": s.self_s, "extra": s.extra}
               for name, s in self.stats.items()}
        hits = self._cache_after[0] - self._cache_before[0]
        misses = self._cache_after[1] - self._cache_before[1]
        out["_derived"] = {
            "coeff_bits_max": self.coeff_bits_max,
            "fixed_points_hits": hits,
            "fixed_points_misses": misses,
            "spans": len(self.spans),
        }
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "job"), span))) + "\n")
