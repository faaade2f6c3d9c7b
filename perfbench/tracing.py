"""Span tracing of hsh4's layers from outside the library.

Each traced function is replaced, in every hsh4 module that binds it, by a
wrapper that records a span: name, start, end, parent span and op id.
Spans live in flat in-memory arrays until the run ends; self time is a
span's duration minus the durations of its direct children.
"""

import functools
import sys
import time
from array import array

import numpy as np

import hsh4

# The public functions whose spans the per-layer metrics read, by layer.
TRACED = {
    "special": ("hyp2f1",),
    "angular": ("cgc3", "wigner9j", "gen_character", "mod_sph_harm"),
    "harmonics": ("hsh_c", "c_components"),
    "coupling": ("bipolar_plan", "bipolar_values"),
    "multipole": ("b_coeff", "expand_translated", "eval_expansion"),
    "verify": ("project_multipole", "c_harmonics_at_vectors", "gram_matrix"),
    "cli": ("main",),
}


class Tracer:
    """In-memory span recorder; spans are only taken while an op is open."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self.plan_terms = 0
        self._stack = []
        self._op = None
        self._patched = []

    def wrap(self, name, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self._op)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
        return traced

    def install(self):
        """Patch every binding of each traced function in the hsh4 modules."""
        modules = [m for name, m in sys.modules.items()
                   if name == "hsh4" or name.startswith("hsh4.")]
        for layer, funcs in TRACED.items():
            home = getattr(hsh4, layer)
            for func in funcs:
                orig = getattr(home, func)
                wrapped = self.wrap(f"{layer}.{func}", orig)
                if func == "bipolar_plan":
                    wrapped = self._count_plan_terms(wrapped)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is orig:
                            setattr(module, attr, wrapped)
                            self._patched.append((module, attr, orig))

    def _count_plan_terms(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            plan = fn(*args, **kwargs)
            if self._op is not None:
                self.plan_terms += len(plan[3])
            return plan
        return counted

    def uninstall(self):
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def begin(self, op_id):
        self._op = op_id

    def finish(self):
        self._op = None

    def arrays(self):
        """Copies of the span columns as numpy arrays."""
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start).copy(),
                "end": np.frombuffer(self.end).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
                "op": np.frombuffer(self.op, dtype=np.int64).copy()}

    def summary(self):
        """{span name: (calls, self seconds)} over all recorded spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=dur - child, minlength=k)
        return {name: (int(calls[i]), float(self_s[i]))
                for i, name in enumerate(self.names)}

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())
