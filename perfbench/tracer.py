"""Layer tracing from outside the library, by patching its public callables.

Each layer is one module of `besselweights` (`experiments` is the package of
scenario runners).  The tracer wraps the layer's public functions, the
public methods of its classes and the `FuncExpr` arithmetic operators, and
rebinds every alias of a wrapped function that other modules imported or
hold as a default argument.  The small value classes (`Interval`, `Piece`,
`MeasureKind`, `DyadicCube`) stay unwrapped, except
`DyadicCube.contains_point`.

A call whose caller runs in another layer is a layer crossing: it opens a
span (name, start, end, parent span, trace id).  Spans of one scenario or
protocol call share the trace id of its root span.  Hot entry points are
aggregated into count and time and store no span record.  Per entry point
the tracer counts calls and sums inclusive time (outermost call only); per
layer it counts crossings into the layer and sums self time, the layer's
span time minus the time of child spans in other layers.  Spans stay in
memory until `write_spans`.  `uninstall` restores every patched attribute.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "besselweights"
LAYERS = ("measure", "weights", "dyadic", "orlicz", "operators", "riesz", "bmo", "experiments")
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__")
UNWRAPPED_CLASSES = ("Interval", "Piece", "MeasureKind", "DyadicCube")
EXTRA_METHODS = {("DyadicCube", "contains_point")}
# Hot entry points store no spans.  Every measure entry point is hot (the
# per-interval arithmetic all layers lean on) except the four that isolate
# roots or fall back to quadrature.
HOT = frozenset({"weights.mass", "dyadic.contains_point"})
COLD_MEASURE = frozenset({"measure.abs", "measure.lp_integral", "measure.integrate_callable", "measure.sign_regions"})


def is_hot(layer: str, key: str) -> bool:
    return key in HOT or (layer == "measure" and key not in COLD_MEASURE)


def layer_modules() -> dict[str, list]:
    """Layer name -> the modules that make it up."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{PACKAGE}.{layer}")
        mods = [mod]
        if hasattr(mod, "__path__"):
            mods += [
                importlib.import_module(f"{mod.__name__}.{info.name}")
                for info in pkgutil.iter_modules(mod.__path__)
            ]
        out[layer] = mods
    return out


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.layer_calls: dict[str, int] = defaultdict(int)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []  # (span_id, parent_id, trace_id, name, start, end)
        self._stack: list[list] = []  # open crossings: [layer, child_time, span_id]
        self._active: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._trace_id = 0
        self._patches: list[tuple] = []  # (owner, name, original)
        self.keys: set[str] = set()  # every entry point wrapped so far

    # -- counters ---------------------------------------------------------------

    def reset_counters(self) -> None:
        self.calls.clear()
        self.seconds.clear()
        self.layer_calls.clear()
        self.layer_self.clear()

    def _wrap(self, layer: str, key: str, fn):
        # counters are bound once: reset_counters clears them in place
        calls, seconds = self.calls, self.seconds
        layer_calls, layer_self = self.layer_calls, self.layer_self
        stack, active, spans = self._stack, self._active, self.spans
        hot = is_hot(layer, key)
        self.keys.add(key)
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent[0] == layer:
                depth = active[key]
                active[key] = depth + 1
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    active[key] = depth
                    calls[key] += 1
                    if not depth:
                        seconds[key] += dt
            if hot:
                span_id = parent[2] if parent is not None else None
            else:
                tracer._next_id += 1
                span_id = tracer._next_id
            frame = [layer, 0.0, span_id]
            stack.append(frame)
            depth = active[key]
            active[key] = depth + 1
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                active[key] = depth
                calls[key] += 1
                if not depth:
                    seconds[key] += dt
                stack.pop()
                layer_calls[layer] += 1
                layer_self[layer] += dt - frame[1]
                if parent is not None:
                    parent[1] += dt
                if not hot:
                    spans.append((span_id, parent[2] if parent is not None else None,
                                  tracer._trace_id, key, t0, t1))

        return traced

    @contextmanager
    def root(self, layer: str, name: str):
        """Open the root span of one traced call."""
        self._trace_id += 1
        self._next_id += 1
        frame = [layer, 0.0, self._next_id]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.layer_calls[layer] += 1
            self.layer_self[layer] += (t1 - t0) - frame[1]
            self.calls[name] += 1
            self.seconds[name] += t1 - t0
            self.spans.append((frame[2], None, self._trace_id, name, t0, t1))

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        """Wrap every public callable of every layer."""
        layers = layer_modules()
        wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer, mods in layers.items():
            for mod in mods:
                for name, obj in list(vars(mod).items()):
                    if getattr(obj, "__module__", None) != mod.__name__:
                        continue
                    if inspect.isfunction(obj) and not name.startswith("_"):
                        wrappers[id(obj)] = (obj, self._wrap(layer, f"{layer}.{name}", obj))
                    elif inspect.isclass(obj):
                        self._wrap_class(layer, obj)

        def swap(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else value

        # rebind the defining name, every imported alias and every default
        # argument that holds a wrapped function
        all_mods = [mod for mods in layers.values() for mod in mods]
        for mod in all_mods:
            for name, obj in list(vars(mod).items()):
                if swap(obj) is not obj:
                    self._set(mod, name, obj, swap(obj))
        for fn in _functions_of(all_mods):
            defaults = fn.__defaults__
            if defaults and any(swap(d) is not d for d in defaults):
                self._set(fn, "__defaults__", defaults, tuple(swap(d) for d in defaults))

    def _wrap_class(self, layer: str, cls) -> None:
        for name, raw in list(vars(cls).items()):
            if cls.__name__ in UNWRAPPED_CLASSES and (cls.__name__, name) not in EXTRA_METHODS:
                continue
            if name in ARITHMETIC:
                key = f"{layer}.arith"
            elif name.startswith("_"):
                continue
            else:
                key = f"{layer}.{name}"
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(layer, key, raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrap(layer, key, raw)
            else:
                continue
            self._set(cls, name, raw, new)

    def _set(self, owner, name, original, new) -> None:
        setattr(owner, name, new)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first, and verify."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        for owner, name, original in self._patches:
            now = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
            if now is not original:
                raise RuntimeError(f"tracer left {owner!r}.{name} patched")
        self._patches.clear()

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    # -- output -----------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """Write every recorded span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tparent\ttrace\tname\tstart_s\tend_s\n")
            for span_id, parent, trace, name, t0, t1 in self.spans:
                fh.write(f"{span_id}\t{parent or ''}\t{trace}\t{name}\t{t0:.9f}\t{t1:.9f}\n")


def _functions_of(mods) -> list:
    """Plain functions and methods defined in the given modules, unwrapped."""
    out = []
    for mod in mods:
        for obj in vars(mod).values():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else (obj,)
            for member in members:
                fn = inspect.unwrap(getattr(member, "__func__", member))
                if inspect.isfunction(fn):
                    out.append(fn)
    return out
