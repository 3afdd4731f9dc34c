"""Span recorder for the traced benchmark run.

The recorder wraps the package's public functions from outside: every
module attribute through which the package (or the benchmark) reaches a
traced function is replaced by a timing wrapper while a traced region is
open, and restored when it closes. No library code changes.

Each call becomes a span (name, start, end, self time, parent, operation
id). A span's self time is its duration minus the time of its child spans,
where a child is charged with its whole wrapper, so the recorder's own
bookkeeping never lands in a parent's self time. Calls that make no traced
calls of their own (leaves such as ``xpoly_mul``) are merged per parent and
name into one span that carries a call count, which keeps the span list
small when a leaf runs millions of times.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

SETUP = "setup"
LOOP = "loop"

SPAN_FIELDS = ("name", "start_s", "end_s", "self_s", "parent", "op", "count")


def _grid_atoms_built(cell_lists, ambient_dim: int) -> int:
    """Atoms of the endpoint grid the boolean ops build: per axis, every
    finite endpoint is a cut, and c cuts give 2c + 1 atoms."""
    total = 1
    for j in range(ambient_dim):
        cuts = set()
        for cells in cell_lists:
            for c in cells:
                f = c.factors[j]
                if math.isfinite(f.lo):
                    cuts.add(f.lo)
                if math.isfinite(f.hi):
                    cuts.add(f.hi)
        total *= 2 * len(cuts) + 1
    return total


def _boolean_counts(args, result):
    if "raw" in args:  # canonicalize(raw, ambient_dim); raw must be a sequence
        operands = (args["raw"],)
    else:  # union/intersect/difference(a, b), complement(a)
        operands = tuple(args[k].cells for k in ("a", "b") if k in args)
    return {"boxset.grid_atoms_built": _grid_atoms_built(operands, result.ambient_dim),
            "boxset.cells_out": len(result.cells)}


def _crofton_counts(args, result):
    rng = args["sample_range"]
    n = rng[1] - rng[0] if rng is not None else args["n_samples"]
    return {"crofton.samples": n, "crofton.sample_cells": n * len(args["a"].cells)}


def _find_n_counts(args, result):
    n_start = max(1, int(args["n_start"]))
    return {"sampler.find_n.span": result - n_start + 1, "sampler.N_max": result}


# layer name -> (module, traced functions, count hook). A hook gets the bound
# arguments by parameter name (defaults applied) and the result, and runs
# outside every span.
LAYERS = {
    "dsl.parse": ("dsl", ("parse",), None),
    "dsl.evaluate": ("dsl", ("evaluate",), None),
    "boxset.boolean": ("boxset", ("union", "intersect", "difference", "complement",
                                  "canonicalize"), _boolean_counts),
    "boxset.is_subset": ("boxset", ("is_subset",), None),
    "boxset.contains_point": ("boxset", ("contains_point",), None),
    "measure.mu": ("measure", ("mu",), lambda args, r: {"measure.mu.cells": len(args["a"].cells)}),
    "xpoly.mul": ("xpoly", ("xpoly_mul",), None),
    "xpoly.add": ("xpoly", ("xpoly_add",), None),
    "xpoly.eval": ("xpoly", ("xpoly_eval",), None),
    "sampler.find_n": ("sampler", ("find_near_integer_N",), _find_n_counts),
    "sampler.build_sample": ("sampler", ("build_sample",),
                             lambda args, r: {"sampler.points_placed": len(r.points)}),
    "crofton.volume": ("crofton", ("estimate_volume",), _crofton_counts),
    "crofton.codim1": ("crofton", ("estimate_codim1",), _crofton_counts),
    "rng": ("rng", ("uniforms", "uniforms_open"),
            lambda args, r: {"rng.draws": len(args["counters"])}),
}
# generator functions: the span covers only the time spent inside next()
GENERATOR_LAYERS = {"boxset.grid_atoms": ("boxset", "grid_atoms")}

# counters combined by maximum instead of sum
_MAX_COUNTERS = {"sampler.N_max"}


class _Frame:
    __slots__ = ("name", "t0", "child_s", "idx", "leaves")

    def __init__(self, name: str, t0: float, idx: int | None = None):
        self.name = name
        self.t0 = t0
        self.child_s = 0.0
        self.idx = idx
        self.leaves: dict[str, int] | None = None


class Recorder:
    """Collects spans and per-layer aggregates for one benchmark run.

    Aggregates are kept per phase: SETUP for operation id -1 (the workload
    set-up) and LOOP for the timed operations.
    """

    def __init__(self, package):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.calls = {SETUP: {}, LOOP: {}}
        self.self_s = {SETUP: {}, LOOP: {}}
        self.incl_s = {SETUP: {}, LOOP: {}}
        self.counters = {SETUP: {}, LOOP: {}}
        self._stack: list[_Frame] = []
        self._op = -1
        self._phase = SETUP
        self._origin = perf_counter()
        self._bindings = self._find_bindings(package)

    def _find_bindings(self, package):
        """(module, attribute, original, wrapper) for every module of the
        package that binds a traced function, the package itself included."""
        targets = {}
        for layer, (mod, fns, hook) in LAYERS.items():
            for fn_name in fns:
                fn = getattr(getattr(package, mod), fn_name)
                targets[id(fn)] = self._wrap(layer, fn, hook)
        for layer, (mod, fn_name) in GENERATOR_LAYERS.items():
            fn = getattr(getattr(package, mod), fn_name)
            targets[id(fn)] = self._wrap_generator(layer, fn)
        prefix = package.__name__ + "."
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package.__name__ or n.startswith(prefix))]
        return [(module, attr, value, targets[id(value)])
                for module in modules
                for attr, value in list(vars(module).items())
                if id(value) in targets and callable(value)]

    @contextmanager
    def traced(self, op: int, name: str):
        """Trace every call made inside as descendants of one root span."""
        self._op = op
        self._phase = SETUP if op < 0 else LOOP
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        root = _Frame(name, perf_counter())
        root.idx = self._new_span(name, -1)
        self._stack.append(root)
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)
            self._finish(root, t1, t1 - root.t0 - root.child_s)

    # -- spans --------------------------------------------------------

    def _new_span(self, name: str, parent: int) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.spans.append([self._name_ids[name], 0.0, 0.0, 0.0, parent, self._op, 1])
        return len(self.spans) - 1

    def _span_of(self, depth: int) -> int:
        """Span index of the open frame at this stack depth; a frame gets
        its span only once it has a child, so leaves can be merged."""
        frame = self._stack[depth]
        if frame.idx is None:
            frame.idx = self._new_span(frame.name, self._span_of(depth - 1))
        return frame.idx

    def _finish(self, frame: _Frame, t1: float, self_time: float) -> None:
        span = self.spans[frame.idx]
        span[1], span[2], span[3] = frame.t0 - self._origin, t1 - self._origin, self_time

    def _close(self, frame: _Frame, t1: float) -> None:
        """Account a returned call; the frame is already off the stack."""
        layer, phase = frame.name, self._phase
        dur = t1 - frame.t0
        self_time = dur - frame.child_s
        self.calls[phase][layer] = self.calls[phase].get(layer, 0) + 1
        self.self_s[phase][layer] = self.self_s[phase].get(layer, 0.0) + self_time
        self.incl_s[phase][layer] = self.incl_s[phase].get(layer, 0.0) + dur
        if frame.idx is not None:
            self._finish(frame, t1, self_time)
            return
        parent = self._stack[-1]
        if parent.leaves is None:
            parent.leaves = {}
        idx = parent.leaves.get(layer)
        if idx is None:
            idx = parent.leaves[layer] = self._new_span(layer, self._span_of(len(self._stack) - 1))
            self.spans[idx][1] = frame.t0 - self._origin
        else:
            self.spans[idx][6] += 1
        span = self.spans[idx]
        span[2] = t1 - self._origin
        span[3] += self_time

    def _count(self, values: dict) -> None:
        counters = self.counters[self._phase]
        for key, v in values.items():
            if key in _MAX_COUNTERS:
                counters[key] = max(counters.get(key, v), v)
            else:
                counters[key] = counters.get(key, 0) + v

    # -- wrappers -----------------------------------------------------

    def _wrap(self, layer, fn, hook):
        rec = self
        sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            t_enter = perf_counter()
            stack = rec._stack
            parent = stack[-1]
            frame = _Frame(layer, 0.0)
            stack.append(frame)
            frame.t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                rec._close(frame, t1)
                parent.child_s += perf_counter() - t_enter
            if hook is not None:
                t_hook = perf_counter()
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec._count(hook(bound.arguments, result))
                parent.child_s += perf_counter() - t_hook
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, layer, fn):
        rec = self

        def wrapper(*args, **kwargs):
            return rec._traced_iter(layer, fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def _traced_iter(self, layer, gen):
        """Yield from gen; one span per generator whose self time is the
        time spent inside next() and whose count is the number of steps."""
        phase = self._phase
        self.calls[phase][layer] = self.calls[phase].get(layer, 0) + 1
        idx = None
        while True:
            t_enter = perf_counter()
            stack = self._stack
            parent = stack[-1]
            if idx is None:
                idx = self._new_span(layer, self._span_of(len(stack) - 1))
                self.spans[idx][1] = t_enter - self._origin
                self.spans[idx][6] = 0
            frame = _Frame(layer, 0.0, idx)
            stack.append(frame)
            frame.t0 = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                item = frame  # sentinel: exhausted
            finally:
                t1 = perf_counter()
                stack.pop()
                step = t1 - frame.t0 - frame.child_s
                span = self.spans[idx]
                span[2] = t1 - self._origin
                span[3] += step
                span[6] += 1
                self.self_s[phase][layer] = self.self_s[phase].get(layer, 0.0) + step
                parent.child_s += perf_counter() - t_enter
            if item is frame:
                return
            yield item

    # -- output -------------------------------------------------------

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "fields": SPAN_FIELDS, "spans": self.spans}, fh)
