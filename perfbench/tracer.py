"""Opt-in spans around the program's public calls, installed from outside.

``install`` rebinds the public functions where the program looks them up
(``probtree``, ``probtree.cli``, ``probtree.learner``,
``probtree.inference``) and the methods of ``PiecewiseLinearCDF``,
``Multinomial`` and ``TreeModel`` to timing wrappers. Each wrapper adds
its wall time to its call key and its self time (minus nested wrapped
calls) to its layer. Nothing is installed unless the traced run asks for
it, so untraced runs execute the program's own bindings.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter

LAYERS = ("data", "learner", "plcdf", "multinomial", "model_io", "inference")

# (module where the name is bound, name, layer)
_FUNCTIONS = [
    ("probtree.cli", "ingest_csv", "data"),
    ("probtree.cli", "emit_csv", "data"),
    ("probtree.cli", "parse_assignment", "data"),
    ("probtree.cli", "learn", "learner"),
    ("probtree.cli", "save", "model_io"),
    ("probtree.cli", "load", "model_io"),
    ("probtree.cli", "event_probability", "inference"),
    ("probtree.cli", "mpe", "inference"),
    ("probtree.cli", "log_likelihood", "inference"),
    ("probtree.cli", "sample", "inference"),
    ("probtree.learner", "build_quantile_dataset", "plcdf"),
    ("probtree.learner", "cdf_learn", "plcdf"),
    ("probtree.inference", "leaf_posterior", "inference"),
    ("probtree.inference", "event_probability", "inference"),
    ("probtree.inference", "posterior_distributions", "inference"),
    ("probtree.inference", "mpe", "inference"),
    ("probtree.inference", "log_likelihood", "inference"),
    ("probtree.inference", "sample", "inference"),
    ("probtree", "make_assignment", "data"),
    ("probtree", "learn", "learner"),
    ("probtree", "save", "model_io"),
    ("probtree", "leaf_posterior", "inference"),
    ("probtree", "event_probability", "inference"),
    ("probtree", "posterior_distributions", "inference"),
    ("probtree", "mpe", "inference"),
    ("probtree", "log_likelihood", "inference"),
    ("probtree", "sample", "inference"),
]

_METHODS = [
    ("probtree.plcdf", "PiecewiseLinearCDF", "plcdf",
     ("__init__", "cdf", "cdf_vec", "interval_probability", "ppf", "ppf_vec",
      "density", "expectation", "crop", "sample", "confidence_interval")),
    ("probtree.multinomial", "Multinomial", "multinomial",
     ("__init__", "fit", "condition", "event_probability", "argmax", "sample",
      "from_json")),
    ("probtree.learner", "TreeModel", "learner", ("descend",)),
]


class Tracer:
    def __init__(self):
        self.wall = defaultdict(float)   # call key -> summed wall time
        self.calls = defaultdict(int)    # call key -> number of calls
        self.self_time = defaultdict(float)  # layer -> summed self time
        self._stack = []
        self._undo = []

    def _wrap(self, key: str, layer: str, fn):
        stack, wall, calls, self_time = self._stack, self.wall, self.calls, self.self_time

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                wall[key] += dt
                calls[key] += 1
                self_time[layer] += dt - child
                if stack:
                    stack[-1] += dt
        return wrapper

    def install(self) -> None:
        for mod_name, name, layer in _FUNCTIONS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, name)
            self._undo.append((mod, name, orig))
            setattr(mod, name, self._wrap(f"{mod_name.split('.')[-1]}.{name}", layer, orig))
        for mod_name, cls_name, layer, methods in _METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            for name in methods:
                orig = cls.__dict__[name]
                self._undo.append((cls, name, orig))
                if isinstance(orig, staticmethod):
                    new = staticmethod(self._wrap(f"{cls_name}.{name}", layer, orig.__func__))
                else:
                    new = self._wrap(f"{cls_name}.{name}", layer, orig)
                setattr(cls, name, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    def snapshot(self):
        """Copies of the counters, to difference around an operation."""
        return dict(self.wall), dict(self.calls), dict(self.self_time)


def delta(before, after):
    """Per-key differences between two snapshots, as three dicts."""
    return tuple({k: v - b.get(k, 0) for k, v in a.items()} for b, a in zip(before, after))
