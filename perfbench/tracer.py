"""Outside-in span tracer for the tanhqi modules.

``Tracer.installed()`` wraps every public function of the eight tanhqi
modules, plus ``cli._emit``, ``FunctionPreset.value``/``derivative`` and
numpy's ``leggauss``, without editing the package.  A wrapper replaces the
function under every name that refers to it: the defining module, each
module that did ``from .x import y``, the package namespace and
module-level dicts such as ``cli._RUNNERS``.  Patching only the defining
module would miss those calls.

Spans live in memory as ``[name, start, end, parent, count]`` lists and
are written by ``write_spans`` as JSON lines::

    {"id": 7, "parent": 3, "name": "kernel.psi_eval", "start": 0.0123, "end": 0.0125, "count": 34}

``start``/``end`` are seconds from the tracer's epoch, ``parent`` is the id
of the enclosing span (null at the root) and ``count`` is the work the
call carried (elements evaluated, L1 grid points), or null.  A layer's
self time is its span minus its child spans; calls nest strictly because
the benchmark is single-threaded.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import math
import time

import numpy as np

MODULES = ("activation", "kernel", "presets", "operators", "fractional", "manifold",
           "analysis", "cli")


class Tracer:
    """Span recorder plus the distinct-work counters measured at the same calls."""

    def __init__(self):
        self.epoch = time.perf_counter()
        self.spans = []
        self._stack = []
        self.rl_keys = set()      # distinct (f, beta, h, x) rl_derivative calls
        self.cells = set()        # distinct (n, k) Kantorovich cells
        self.cell_averages = 0    # Kantorovich cell averages computed

    def reset(self):
        """Drop the recorded spans and counters (wrappers keep these objects)."""
        self.spans.clear()
        self._stack.clear()
        self.rl_keys.clear()
        self.cells.clear()
        self.cell_averages = 0

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None,
                   count(self, *args, **kwargs) if count else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the tanhqi layers for the duration of the block."""
        undo = []
        try:
            _install(self, undo)
            yield self
        finally:
            for owner, key, original in reversed(undo):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)

    def summary(self) -> dict:
        """Per span name: calls, summed count and self time in seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, count) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "count": 0, "self_s": 0.0})
            s["calls"] += 1
            s["count"] += count or 0
            s["self_s"] += (end - start) - child[i]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for i, (name, start, end, parent, count) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name,
                                     "start": start - self.epoch, "end": end - self.epoch,
                                     "count": count}) + "\n")


def _size(tracer, params, x, *rest, **kw):
    return int(np.size(x))


def _preset_size(tracer, preset, *coords, **kw):
    return int(np.broadcast(*coords).size) if coords else 0


def _rl_points(tracer, cfg, f, x, *rest, **kw):
    tracer.rl_keys.add((id(f), cfg.beta, cfg.h, float(x)))
    return math.ceil(x / cfg.h) + 1 if x > 0 else 0


def _kantorovich_cells(tracer, cfg, f, x, *rest, **kw):
    # the window lattice_window gives each axis: ceil(u - W) .. floor(u + W)
    w = cfg.kernel.radius
    axes = [range(math.ceil(cfg.n * xi - w), math.floor(cfg.n * xi + w) + 1)
            for xi in np.atleast_1d(np.asarray(x, dtype=float))]
    tracer.cell_averages += math.prod(len(a) for a in axes)
    if len(axes) == 1:
        tracer.cells.update((cfg.n, k) for k in axes[0])
    else:
        tracer.cells.update((cfg.n, *ks) for ks in itertools.product(*axes))
    return None


COUNTS = {
    "activation.h_eval": _size,
    "kernel.psi_eval": _size,
    "presets.value": _preset_size,
    "fractional.rl_derivative": _rl_points,
    "operators.apply_kantorovich": _kantorovich_cells,
}


def _targets():
    """(span name, function) for every wrapped callable, and the module objects."""
    mods = {m: importlib.import_module(f"tanhqi.{m}") for m in MODULES}
    targets = []
    for m, mod in mods.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                targets.append((f"{m}.{attr}", obj))
    targets.append(("cli.emit", mods["cli"]._emit))
    return targets, [importlib.import_module("tanhqi"), *mods.values()]


def _install(tracer, undo):
    targets, namespaces = _targets()
    by_id = {id(fn): tracer.wrap(name, fn, COUNTS.get(name)) for name, fn in targets}
    for mod in namespaces:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in by_id:
                undo.append((mod, attr, obj))
                setattr(mod, attr, by_id[id(obj)])
            elif isinstance(obj, dict) and not attr.startswith("__"):
                for key, value in list(obj.items()):
                    if id(value) in by_id:
                        undo.append((obj, key, value))
                        obj[key] = by_id[id(value)]
    from tanhqi.presets import FunctionPreset
    for meth in ("value", "derivative"):
        original = FunctionPreset.__dict__[meth]
        undo.append((FunctionPreset, meth, original))
        setattr(FunctionPreset, meth, tracer.wrap(f"presets.{meth}", original,
                                                  COUNTS.get(f"presets.{meth}")))
    legendre = np.polynomial.legendre
    undo.append((legendre, "leggauss", legendre.leggauss))
    legendre.leggauss = tracer.wrap("operators.leggauss", legendre.leggauss)
