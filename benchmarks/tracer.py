"""Outside-in span tracer for dptool's layers.

While a :class:`Tracer` is active, every public function of each layer
module is replaced by a wrapper at every binding the package holds: the
module attribute itself, each ``from .x import f`` copy in another dptool
module, function values stored in module-level dicts (``suites._SUITES``)
and the two per-ball hot methods ``Region.mask_for`` and
``GridFunction.cell_centers`` on their classes.  Each call records a span
``[name, start, end, parent]`` in memory; a call that a function makes
directly to itself (``reporting.to_json`` recursing into a report) stays
inside the outer span.  Leaving the ``with`` block restores every original
binding.  The program's sources are not touched, and the wrappers return
what the wrapped function returned, so outputs cannot change.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = (
    "grid", "dpgrid_io", "exponents", "weights", "maximal", "potentials",
    "meanpoly", "whitney", "truncation", "gehring", "harness", "suites",
    "cli", "reporting",
)
METHODS = (("grid", "Region", "mask_for"), ("grid", "GridFunction", "cell_centers"))

# Per-layer metrics reported from a traced pass: name -> unit.
PER_LAYER = {
    "weights.self_s": "s", "weights.calls": "count", "weights.pairs": "count",
    "maximal.self_s": "s", "maximal.calls": "count", "maximal.cells": "count",
    "potentials.self_s": "s", "potentials.fft_cells": "count",
    "dpgrid_io.self_s": "s", "dpgrid_io.bytes": "bytes",
    "whitney.self_s": "s", "whitney.balls": "count", "whitney.mask_cells": "count",
    "grid.self_s": "s", "grid.mask_for.calls": "count", "grid.mask_for.cells": "count",
    "grid.mask_for.inside_frac": "frac", "grid.cell_centers.calls": "count",
    "meanpoly.self_s": "s", "meanpoly.fits": "count",
    "harness.self_s": "s", "harness.scan_balls": "count",
    "gehring.self_s": "s", "gehring.pairs": "count",
    "truncation.self_s": "s", "truncation.cover_balls": "count",
    "exponents.self_s": "s", "reporting.self_s": "s", "reporting.report_bytes": "bytes",
    "suites.self_s": "s", "cli.self_s": "s",
    "trace.overhead_frac": "frac", "trace.unattributed_frac": "frac",
}


# Per-layer counts of spans of one function, beside "<layer>.calls".
CALL_COUNTS = {
    "grid.mask_for": "grid.mask_for.calls",
    "grid.cell_centers": "grid.cell_centers.calls",
    "meanpoly.fit_on_cells": "meanpoly.fits",  # every fit ends in fit_on_cells
}
_MARK = "_benchmark_span_wrapper"


def _bindings():
    """Every binding dptool holds: (container, key, value, is_item).

    Module attributes, the values of module-level dicts, and the METHODS on
    their classes.
    """
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "dptool" or modname.startswith("dptool.")):
            continue
        for attr, obj in list(vars(mod).items()):
            yield mod, attr, obj, False
            if isinstance(obj, dict):
                for key, val in list(obj.items()):
                    yield obj, key, val, True
    for layer, cls_name, meth in METHODS:
        cls = getattr(sys.modules[f"dptool.{layer}"], cls_name)
        yield cls, meth, vars(cls)[meth], False


def leftover_wrappers() -> list[str]:
    """Bindings still holding a span wrapper; empty once a Tracer has exited."""
    return [f"{getattr(target, '__name__', 'dict')}.{key}" for target, key, obj, _ in _bindings()
            if getattr(obj, _MARK, False)]


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """Context manager that spans every layer call made inside it."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        grid = sys.modules["dptool.grid"]
        # counters that need a mask call it untraced, so they add no spans
        self._mask_for = grid.Region.mask_for

    # -- work counters, keyed by span name ------------------------------

    def _seminorm_pairs(self, args, kwargs, result):
        a = _arg(args, kwargs, 0, "a")
        region = _arg(args, kwargs, 2, "region")
        mask = np.ones(a.dims, dtype=bool) if region is None else self._mask_for(region, a)
        stride = np.zeros(a.dims, dtype=bool)
        stride[tuple(slice(None, None, 2) for _ in range(a.n))] = True
        fine = int(mask.sum())
        coarse = int((mask & stride).sum())
        return {"weights.pairs": fine * fine + (coarse * coarse if coarse >= 2 else 0)}

    def _cover(self, args, kwargs, result):
        grid_fn = _arg(args, kwargs, 0, "grid")
        mask = _arg(args, kwargs, 1, "mask")
        if not isinstance(mask, np.ndarray):
            mask = self._mask_for(mask, grid_fn)
        return {"whitney.balls": len(result), "whitney.mask_cells": int(np.count_nonzero(mask))}

    def _hooks(self) -> dict:
        """Span name -> hook(args, kwargs, result) giving counter increments."""

        def file_bytes(args, kwargs, result):
            return {"dpgrid_io.bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}

        def scan_balls(args, kwargs, result):
            return {"harness.scan_balls": result["count"]}

        return {
            "weights.estimate_seminorm": self._seminorm_pairs,
            "weights.regularize": lambda a, k, r: {"weights.pairs": int(np.prod(r.dims)) ** 2},
            # cells x applications
            "maximal.maximal_function": lambda a, k, r: {
                "maximal.cells": int(np.prod(r.dims)) * _arg(a, k, 1, "spec").iterations},
            # full linear convolution of the lattice with its (2d-1)^n kernel
            "potentials.riesz_potential": lambda a, k, r: {
                "potentials.fft_cells": int(np.prod([3 * d - 2 for d in r.dims]))},
            "dpgrid_io.read_dpgrid": file_bytes,
            "dpgrid_io.write_dpgrid": file_bytes,
            "dpgrid_io.read_csv": file_bytes,
            "dpgrid_io.write_csv": file_bytes,
            "whitney.cover": self._cover,
            "grid.mask_for": lambda a, k, r: {
                "grid.mask_for.cells": r.size, "grid.mask_for.inside": int(np.count_nonzero(r))},
            "harness.caccioppoli_scan": scan_balls,
            "harness.reverse_holder_scan": scan_balls,
            "gehring.gehring_verify": lambda a, k, r: {"gehring.pairs": r["pairs"]},
            "truncation.truncate": lambda a, k, r: {"truncation.cover_balls": len(r.cover)},
            "reporting.to_json": lambda a, k, r: {"reporting.report_bytes": len(r.encode("utf-8"))},
        }

    # -- installing and restoring wrappers ------------------------------

    def _wrap(self, name: str, fn, hook):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if hook is not None:
                for key, amount in hook(args, kwargs, result).items():
                    counts[key] += amount
            return result

        setattr(traced, _MARK, True)
        return traced

    def _set(self, target, key, value, is_item: bool):
        if is_item:
            self._undo.append((target, key, target[key], True))
            target[key] = value
        else:
            self._undo.append((target, key, getattr(target, key), False))
            setattr(target, key, value)

    def __enter__(self) -> "Tracer":
        hooks = self._hooks()
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = sys.modules[f"dptool.{layer}"]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self._wrap(name, obj, hooks.get(name))
        for layer, cls_name, meth in METHODS:
            fn = vars(getattr(sys.modules[f"dptool.{layer}"], cls_name))[meth]
            wrappers[id(fn)] = self._wrap(f"{layer}.{meth}", fn, hooks.get(f"{layer}.{meth}"))
        try:
            for target, key, obj, is_item in _bindings():
                if id(obj) in wrappers:
                    self._set(target, key, wrappers[id(obj)], is_item)
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self):
        while self._undo:
            target, key, original, is_item = self._undo.pop()
            if is_item:
                target[key] = original
            else:
                setattr(target, key, original)

    def __exit__(self, *exc):
        self._restore()
        return False

    # -- results ---------------------------------------------------------

    def layer_metrics(self, pass_s: float, untraced_s: float) -> dict:
        """Per-layer self time and work counts of the traced pass."""
        child = [0.0] * len(self.spans)
        root = 0.0
        for name, start, end, parent in self.spans:
            if parent < 0:
                root += end - start
            else:
                child[parent] += end - start
        out = {key: 0.0 for key in PER_LAYER}
        for (name, start, end, _parent), below in zip(self.spans, child):
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += (end - start) - below
            for key in (f"{layer}.calls", CALL_COUNTS.get(name)):
                if key in out:
                    out[key] += 1
        for key, val in self.counts.items():
            if key in out:
                out[key] += val
        cells = self.counts.get("grid.mask_for.cells", 0)
        out["grid.mask_for.inside_frac"] = self.counts.get("grid.mask_for.inside", 0) / cells if cells else 0.0
        out["trace.overhead_frac"] = (pass_s - untraced_s) / untraced_s
        out["trace.unattributed_frac"] = (pass_s - root) / pass_s
        return out

    def write(self, path, t0: float) -> None:
        """Spans as [name index, start us, end us, parent], times from ``t0``."""
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent in self.spans:
            idx = names.setdefault(name, len(names))
            rows.append([idx, round((start - t0) * 1e6, 1), round((end - t0) * 1e6, 1), parent])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))
