"""Spans around calls into cstr's public functions, recorded from outside.

The package is not edited. ``Tracer`` replaces each public function of the
traced modules at every name a module binds it under: ``from .attention
import cross_attention`` binds the function inside both ``cstr.pipeline`` and
``cstr.context``, and those module globals are what the calls go through, so
patching ``cstr.attention`` alone would record nothing. The binding also tells
which path called an attention entry point: the one in ``cstr.pipeline`` is
the matching path (``mmp``), the one in ``cstr.context`` the context path
(``cep``).

Spans live in memory (name, start, end, parent, operation id) and are written
out once, at the end of a run. Self time is derived from the spans: a span's
duration minus the durations of its direct children.

Counts are computed from argument shapes, never measured, so they repeat
exactly for the same inputs.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from contextlib import contextmanager

LAYERS = (
    "pipeline",
    "attention",
    "context",
    "matching",
    "ndarray",
    "formats",
    "losses",
    "metrics",
)
# Classes whose construction is a span of its own.
TRACED_CLASSES = (("pipeline", "ModelDescription"),)
PATH_OF_BINDING = {"cstr.pipeline": "mmp", "cstr.context": "cep"}
PATH_TAGGED = {
    "attention.axial_attention_width",
    "attention.axial_attention_height",
    "attention.cross_attention",
    "attention.pixel_norm",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_axial_width(counts, args, kwargs):
    _, h, w = _arg(args, kwargs, 0, "f").shape
    heads = _arg(args, kwargs, 2, "heads")
    counts["attention.logit_cells"] += h * w * w * heads


def _count_axial_height(counts, args, kwargs):
    _, h, w = _arg(args, kwargs, 0, "f").shape
    heads = _arg(args, kwargs, 2, "heads")
    counts["attention.logit_cells"] += w * h * h * heads


def _count_cross(counts, args, kwargs):
    # left queries over right keys, then right queries over left keys
    _, h, w = _arg(args, kwargs, 0, "left").shape
    heads = _arg(args, kwargs, 3, "heads")
    counts["attention.logit_cells"] += 2 * h * w * w * heads


def _count_conv2d(counts, args, kwargs):
    c_in, h, w = _arg(args, kwargs, 0, "x").shape
    c_out, _, kh, kw = _arg(args, kwargs, 1, "kernel").shape
    counts["ndarray.conv2d.flop"] += 2 * c_out * c_in * kh * kw * h * w
    counts["ndarray.conv2d.im2col_bytes"] += 4 * c_in * kh * kw * h * w


def _count_sinkhorn(counts, args, kwargs):
    n, m = _arg(args, kwargs, 0, "cost").shape
    counts["matching.sinkhorn.cells"] += (n + 1) * (m + 1)


COUNTERS = {
    "attention.axial_attention_width": _count_axial_width,
    "attention.axial_attention_height": _count_axial_height,
    "attention.cross_attention": _count_cross,
    "ndarray.conv2d": _count_conv2d,
    "matching.sinkhorn": _count_sinkhorn,
}
COUNT_NAMES = (
    "attention.logit_cells",
    "ndarray.conv2d.flop",
    "ndarray.conv2d.im2col_bytes",
    "matching.sinkhorn.cells",
)


class Tracer:
    """Records spans for the operations run inside ``active(op_id)``.

    Outside ``active`` every binding holds the original function, so an
    untraced operation runs exactly the package's code.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_counts: dict[int, dict[str, int]] = {}
        self._stack: list[int] = []
        self._op_id = -1
        self._counts: dict[str, int] = {}
        self._patches = self._build_patches()

    def _build_patches(self):
        modules = {layer: sys.modules[f"cstr.{layer}"] for layer in LAYERS}
        targets = {}
        for layer, module in modules.items():
            for attr in module.__all__:
                obj = getattr(module, attr)
                if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
                    targets[id(obj)] = f"{layer}.{attr}"
        patches = []
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                base = targets.get(id(obj))
                if base is None:
                    continue
                name = base
                if base in PATH_TAGGED and module.__name__ in PATH_OF_BINDING:
                    name = f"{base}.{PATH_OF_BINDING[module.__name__]}"
                wrapped = self._wrap(obj, name, COUNTERS.get(base))
                patches.append((module, attr, obj, wrapped))
        for layer, cls_name in TRACED_CLASSES:
            cls = getattr(modules[layer], cls_name)
            init = cls.__init__
            patches.append(
                (cls, "__init__", init, self._wrap(init, f"{layer}.{cls_name}", None))
            )
        return patches

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name, counter):
        nid = self._intern(name)
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(self._counts, args, kwargs)
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self._op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(index)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[index] = t0
                self.end[index] = t1

        return traced

    @contextmanager
    def active(self, op_id: int):
        """Trace the calls made inside the block as operation ``op_id``."""
        self._op_id = op_id
        self._counts = dict.fromkeys(COUNT_NAMES, 0)
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self.op_counts[op_id] = self._counts
            self._op_id = -1

    def summary(self, op_ids) -> dict[str, dict[str, float]]:
        """Totals over the given operations: inclusive seconds ``s``, self
        seconds ``self_s`` and ``calls``, keyed by span name."""
        wanted = set(op_ids)
        durations = [e - s for s, e in zip(self.start, self.end)]
        child_time = [0.0] * len(durations)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                child_time[parent] += durations[index]
        totals: dict[str, dict[str, float]] = {}
        for index, nid in enumerate(self.name_id):
            if self.op[index] not in wanted:
                continue
            entry = totals.setdefault(
                self.names[nid], {"s": 0.0, "self_s": 0.0, "calls": 0}
            )
            entry["s"] += durations[index]
            entry["self_s"] += durations[index] - child_time[index]
            entry["calls"] += 1
        return totals

    def write(self, path) -> None:
        """Write every span as CSV: op, name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("index,op,name,start,end,parent\n")
            for index in range(len(self.start)):
                f.write(
                    f"{index},{self.op[index]},{self.names[self.name_id[index]]},"
                    f"{self.start[index]!r},{self.end[index]!r},{self.parent[index]}\n"
                )
