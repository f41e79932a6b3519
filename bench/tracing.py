"""Spans and call counts around the package's public functions.

A Tracer rebinds each wrapped function in every loaded `markoff` module
that holds it (the defining module and each importer), so calls between
modules and inside one module both go through the wrapper.  The program's
own files are not edited.  Each span records its layer name, start, end,
parent span and op id in flat arrays kept in memory; `write` dumps them
when the run ends.  The hottest functions get count-only wrappers.
"""

from __future__ import annotations

import array
import gzip
import sys
import time
from collections import Counter

_CLI_TRACE_ALGEBRA = (
    "commutator_trace", "f3_relations", "fricke_coords", "lift_twist_04",
    "lift_twist_11", "make_pair", "quad_to_04_point", "random_quad",
    "random_sl2", "trace_product_identity",
)


def _steps(stats, layer, args, result):
    stats[layer + ".steps"] += result.steps


def _enumerated(stats, layer, args, result):
    B = args[1]
    stats[layer + ".points"] += len(result)
    stats[layer + ".cells"] += (2 * B + 1) ** 2


# (module, function, layer, stat hook or None).  One layer may cover
# several functions; its self time is summed over them.
SPANNED = (
    ("markoff.orbits", "enumerate_points", "orbits.enumerate_points", _enumerated),
    ("markoff.orbits", "class_number", "orbits.class_number",
     lambda s, n, a, r: s.update({n + ".caps_hit_rows": int(r.caps_hit)})),
    ("markoff.orbits", "equivalent", "orbits.equivalent",
     lambda s, n, a, r: s.update({n + ".hits": int(r.equivalent)})),
    ("markoff.orbits", "orbit_bfs", "orbits.orbit_bfs",
     lambda s, n, a, r: s.update({n + ".nodes": len(r)})),
    ("markoff.orbits", "is_exceptional", "orbits.is_exceptional", None),
    ("markoff.descent", "reduce_compact", "descent.reduce_compact", _steps),
    ("markoff.descent", "reduce_min_complex_11", "descent.reduce_min_complex", _steps),
    ("markoff.descent", "reduce_min_complex_04", "descent.reduce_min_complex", _steps),
    ("markoff.surfaces", "residual", "surfaces", None),
    ("markoff.surfaces", "on_surface", "surfaces", None),
    ("markoff.cli", "main", "cli", None),
) + tuple(("markoff.trace_algebra", f, "trace_algebra", None) for f in _CLI_TRACE_ALGEBRA)

COUNTED = (
    ("markoff.moves", "apply_move", "moves.apply_move"),
    ("markoff.moves", "apply_word", "moves.apply_word"),
    ("markoff.moves", "normalize_11", "moves.normalize_11"),
)


class Tracer:
    """Records spans and counts while installed; `install` and
    `uninstall` bracket the traced part of a run."""

    def __init__(self):
        self.layers = []
        self._layer_ids = {}
        self.span_layer = array.array("i")
        self.span_parent = array.array("i")
        self.span_op = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stats = Counter()
        self._stack = [-1]
        self._op = -1
        self._ops = 0
        self._counts = {}
        self._restore = []

    def _layer_id(self, name):
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def _span_wrapper(self, fn, layer, hook):
        lid = self._layer_id(layer)
        stack = self._stack
        starts, ends = self.span_start, self.span_end
        stats = self.stats
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = self._open(lid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[sid] = t0
                ends[sid] = t1
            if hook is not None:
                hook(stats, layer, args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, layer):
        cell = self._counts.setdefault(layer, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _open(self, lid):
        sid = len(self.span_start)
        self.span_layer.append(lid)
        self.span_parent.append(self._stack[-1])
        self.span_op.append(self._op)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(sid)
        return sid

    def install(self):
        wrappers = {}
        for module, name, layer, hook in SPANNED:
            fn = getattr(sys.modules[module], name)
            wrappers[id(fn)] = (fn, self._span_wrapper(fn, layer, hook))
        for module, name, layer in COUNTED:
            fn = getattr(sys.modules[module], name)
            wrappers[id(fn)] = (fn, self._count_wrapper(fn, layer))
        for modname, module in list(sys.modules.items()):
            if modname != "markoff" and not modname.startswith("markoff."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))

    def uninstall(self):
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def op(self, fn):
        """Run fn() as the next op, under a root span named 'op'."""
        self._op = self._ops
        self._ops += 1
        sid = self._open(self._layer_id("op"))
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.span_end[sid] = time.perf_counter()
            self.span_start[sid] = t0
            self._stack.pop()
            self._op = -1

    def summary(self):
        """Per layer: calls and self seconds, plus the hook and count stats."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur[i]
        out = Counter(self.stats)
        for i in range(n):
            layer = self.layers[self.span_layer[i]]
            out[layer + ".calls"] += 1
            out[layer + ".self_s"] += dur[i] - child[i]
        for layer, cell in self._counts.items():
            out[layer + ".calls"] += cell[0]
        return out

    def write(self, path):
        """Write the spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tparent\top\tlayer\tstart\tend\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.span_op[i]}\t"
                    f"{self.layers[self.span_layer[i]]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )
