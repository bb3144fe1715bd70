"""Layer tracing from outside the program.

Every public function of every layer module is rebound, in each
``persposet.*`` namespace that holds it, to a wrapper that records a
span: function, start, end, parent span and operation id.  The
rebinding has to reach every namespace because modules import names
directly (``from .homology import homology_tower``); patching only the
defining module would miss those call sites.  Spans stay in memory and
are turned into self times and exact call counts afterwards.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "documents", "posets", "pposets", "complexes", "homology", "linalg", "modules", "verifier")


def _is_cached(fn) -> bool:
    return hasattr(fn, "cache_info") and hasattr(fn, "cache_clear")


def _measure_order_complex(args, result, built):
    return len(result.simplices) if built else 0


# Work counts taken at the same boundaries as the spans.  Each entry maps a
# traced function to (counter name, amount contributed by one call).
COUNTERS = {
    "linalg.row_reduce": ("cells", lambda args, result, built: args[0].shape[0] * args[0].shape[1]),
    "complexes.order_complex": ("simplices", _measure_order_complex),
    "homology.homology_tower": ("zero", lambda args, result, built: int(result.is_zero())),
    "modules.bottleneck_distance": ("bars", lambda args, result, built: len(args[0].bars) + len(args[1].bars)),
}


def public_functions() -> dict[str, object]:
    """``layer.name`` -> function, for every public function defined in a layer module."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"persposet.{layer}"]
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or _is_cached(obj):
                found[f"{layer}.{name}"] = obj
    return found


class Tracer:
    """Rebinds the public layer functions while active and records spans.

    Spans are parallel arrays indexed by span id; ``parent`` is -1 for a
    root span.  ``counters`` accumulates the work counts of ``COUNTERS``.
    """

    def __init__(self) -> None:
        self.functions = public_functions()
        self.names = list(self.functions)
        self.layer_of = [name.split(".", 1)[0] for name in self.names]
        self.fn = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.counters: Counter = Counter()
        self.current_op = -1
        self._stack = [-1]
        self._bindings: list[tuple[dict, str, object]] = []

    def reset(self) -> None:
        """Drop the recorded spans and counts, keeping the arrays the wrappers append to."""
        for spans in (self.fn, self.start, self.end, self.parent, self.op):
            del spans[:]
        self.counters.clear()
        del self._stack[1:]

    def _wrap(self, fid: int, qualname: str, original):
        fn, start, end, parent, op, stack = self.fn, self.start, self.end, self.parent, self.op, self._stack
        counter = COUNTERS.get(qualname)
        tracer = self

        def traced(*args, **kwargs):
            sid = len(fn)
            fn.append(fid)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            misses = original.cache_info().misses if counter and _is_cached(original) else 0
            t0 = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if counter:
                built = _is_cached(original) and original.cache_info().misses > misses
                tracer.counters[f"{qualname}.{counter[0]}"] += counter[1](args, result, built)
            return result

        traced.__wrapped__ = original
        return traced

    def __enter__(self) -> "Tracer":
        self.reset()
        wrappers = {
            id(original): self._wrap(fid, name, original)
            for fid, (name, original) in enumerate(self.functions.items())
        }
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "persposet" or modname.startswith("persposet.")):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._bindings.append((namespace, attr, value))
                    namespace[attr] = wrapper
        return self

    def __exit__(self, *exc) -> None:
        for namespace, attr, original in reversed(self._bindings):
            namespace[attr] = original
        self._bindings.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as arrays, with each span's self time."""
        fn = np.array(self.fn, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int64)
        start, end = np.array(self.start), np.array(self.end)
        duration = end - start
        child = np.zeros(len(fn))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], duration[has_parent])
        return {
            "fn": fn,
            "start": start,
            "end": end,
            "parent": parent.astype(np.int32),
            "op": np.array(self.op, dtype=np.int32),
            "self": duration - child,
        }

    def summary(self, factor: float) -> dict:
        """Exact call counts, and self seconds times ``factor``, per function and per layer."""
        spans = self.arrays()
        n = len(self.names)
        self_s = np.bincount(spans["fn"], weights=spans["self"], minlength=n) * factor
        calls = np.bincount(spans["fn"], minlength=n)
        out = {"fn_self_s": {}, "fn_calls": {}, "layer_self_s": dict.fromkeys(LAYERS, 0.0),
               "layer_calls": dict.fromkeys(LAYERS, 0), "counters": dict(self.counters)}
        for fid, name in enumerate(self.names):
            out["fn_self_s"][name] = float(self_s[fid])
            out["fn_calls"][name] = int(calls[fid])
            out["layer_self_s"][self.layer_of[fid]] += float(self_s[fid])
            out["layer_calls"][self.layer_of[fid]] += int(calls[fid])
        return out

    def write(self, path: Path) -> None:
        """Write the spans of the current pass, unscaled, as a compressed NumPy archive."""
        spans = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.asarray(self.names), **spans)
