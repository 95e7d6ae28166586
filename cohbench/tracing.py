"""Out-of-process-boundary tracing of cohlab's layers.

Nothing inside cohlab is changed: `Tracer.install` replaces every reference
to a layer's public functions (in every loaded `cohlab` module namespace,
so `from .bath import x` bindings are caught too) with a wrapper that
records a span, and `Tracer.uninstall` puts the originals back.  Spans are
kept in flat in-memory arrays (name, parent span, start, end in ns) and
written out once, at the end of the run.  A span's self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

# layer -> public functions wrapped (the module's __all__ functions, plus
# cli.write_csv, which carries the CSV-write metric)
LAYERS = ("cli", "propagator", "_fourier", "bath", "codes", "channel")
EXTRA = {"cli": ("write_csv",)}


class Tracer:
    def __init__(self):
        self.names: list[str] = []          # "layer.function"
        self.layer_of: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.pass_bounds: list[tuple[int, int]] = []  # span index range per traced pass
        self.counts: list[dict] = []                  # counters per traced pass
        self._stack: list[int] = []
        self._counter: dict = {}
        self._keys: set = set()
        self._patches: list[tuple[object, str, object, object]] = []

    # -- installation ---------------------------------------------------

    def _targets(self):
        for layer in LAYERS:
            mod = sys.modules[f"cohlab.{layer}"]
            names = [n for n in getattr(mod, "__all__", ())
                     if callable(getattr(mod, n)) and not isinstance(getattr(mod, n), type)]
            for n in names + list(EXTRA.get(layer, ())):
                yield layer, n, getattr(mod, n)

    def install(self) -> None:
        wrappers = {}
        for layer, fname, fn in self._targets():
            key = f"{layer}.{fname}"
            if key not in self.name_id:
                self.name_id[key] = len(self.names)
                self.names.append(key)
                self.layer_of.append(layer)
            wrappers[id(fn)] = self._wrap(self.name_id[key], fn, _COUNT_HOOKS.get(key))
        for mname, mod in list(sys.modules.items()):
            if mname != "cohlab" and not mname.startswith("cohlab."):
                continue
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None and getattr(val, "__wrapped__", None) is None:
                    self._patches.append((mod, attr, val, w))
                    setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, orig, _ in self._patches:
            setattr(mod, attr, orig)
        self._patches.clear()

    def _wrap(self, nid: int, fn, hook):
        tr = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tr._stack
            idx = len(tr.span_name)
            tr.span_name.append(nid)
            tr.span_parent.append(stack[-1] if stack else -1)
            tr.span_start.append(0)
            tr.span_end.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.span_end[idx] = clock()
                tr.span_start[idx] = t0
                stack.pop()
            if hook is not None:
                hook(tr, args, kwargs, result)
            return result

        return wrapper

    # -- passes -----------------------------------------------------------

    def begin_pass(self) -> None:
        self._counter = {}
        self._keys = set()
        self._pass_start = len(self.span_name)
        self.install()

    def end_pass(self) -> None:
        self.uninstall()
        self.pass_bounds.append((self._pass_start, len(self.span_name)))
        c = dict(self._counter)
        c["solve_laplace.distinct"] = len(self._keys)
        self.counts.append(c)

    def add(self, key: str, amount) -> None:
        self._counter[key] = self._counter.get(key, 0) + amount

    # -- aggregation ------------------------------------------------------

    def pass_times(self, k: int) -> tuple[np.ndarray, np.ndarray, dict]:
        """Inclusive and self seconds per function name for traced pass k,
        and self seconds per layer."""
        lo, hi = self.pass_bounds[k]
        name = np.frombuffer(self.span_name, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.span_parent, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.span_end, dtype=np.int64)[lo:hi]
               - np.frombuffer(self.span_start, dtype=np.int64)[lo:hi]) * 1e-9
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent] - lo, weights=dur[has_parent], minlength=hi - lo)
        own = dur - child
        n = len(self.names)
        incl = np.bincount(name, weights=dur, minlength=n)
        self_s = np.bincount(name, weights=own, minlength=n)
        layers = {}
        for i, layer in enumerate(self.layer_of):
            layers[layer] = layers.get(layer, 0.0) + self_s[i]
        return incl, self_s, layers

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            pass_bounds=np.array(self.pass_bounds, dtype=np.int64).reshape(-1, 2),
        )


# -- work counters, recorded at the same boundaries as the spans ------------

def _grid_key(grid) -> tuple:
    return (len(grid.samples), hash(grid.samples.tobytes()))


def _solve_laplace(tr, args, kwargs, result):
    spec, omega0, grid = args[:3]
    tr.add("solve_laplace.calls", 1)
    tr._keys.add((spec, float(omega0), _grid_key(grid), tuple(sorted(kwargs.items()))))


def _solve_volterra(tr, args, kwargs, result):
    tr.add("solve_volterra.calls", 1)


def _build_panels(tr, args, kwargs, result):
    tr.add("panels", len(result))


def _fourier_integral(tr, args, kwargs, result):
    tr.add("panel_times", len(args[0]) * int(np.size(args[1])))


def _points(key, pos):
    def hook(tr, args, kwargs, result):
        tr.add(key, int(np.size(args[pos])))
    return hook


def _phase_success_prob(tr, args, kwargs, result):
    tr.add("phase_success_prob.calls", 1)


def _write_csv(tr, args, kwargs, result):
    path, _, columns, rows = args[:4]
    tr.add("write_csv.bytes", os.path.getsize(path))
    if "c_prime" in columns:
        tr.add("phase_rows", len(rows))


_COUNT_HOOKS = {
    "propagator.solve_laplace": _solve_laplace,
    "propagator.solve_volterra": _solve_volterra,
    "_fourier.build_panels": _build_panels,
    "_fourier.fourier_integral": _fourier_integral,
    "bath.inversion_denominator": _points("inversion_denominator.points", 2),
    "bath.imaginary_axis_denominator": _points("imaginary_axis_denominator.points", 2),
    "codes.phase_success_prob": _phase_success_prob,
    "cli.write_csv": _write_csv,
}
