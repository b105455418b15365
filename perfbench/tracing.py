"""Spans around the library's public calls, recorded from outside the library.

``Tracer.install`` wraps each traced function and rebinds every
attribute of every loaded ``elusivecodes`` module that is bound to it:
``search.generate_group`` and ``elusive.generate_group`` are separate
bindings of one function and both get the wrapper, while calls through
``_kernels.is_canonical`` look the attribute up at call time.  Nothing
in the library is edited.

A span is (name, start, end, parent, job).  Spans stay in memory and are
written out by the caller when the pass ends.  Counters recorded at the
same boundary (group elements, table bytes, accepted canonicity tests,
mover hits, gathered table cells) are added to the span's function.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Any, Callable

from elusivecodes import _kernels, autgroup, codes, constructions, elusive, search


def _group_counts(args, result) -> dict[str, int]:
    n = 0 if result.elements is None else len(result.elements)
    return {"elements": n, "capped": int(result.elements is None)}


def _table_counts(args, result) -> dict[str, int]:
    # rows * q^m * 4 bytes of int32
    return {"bytes": result.shape[0] * result.shape[1] * 4}


def _canonical_counts(args, result) -> dict[str, int]:
    table, code = args[0], args[1]
    # the numpy kernel gathers table[:, code]: |G| * |C| cells
    return {"accepted": int(bool(result)), "cells": table.shape[0] * len(code)}


def _mover_counts(args, result) -> dict[str, int]:
    table = args[0]
    # the numpy kernel gathers nb_mask[table] and code_mask[table]
    return {"hits": int(result >= 0), "cells": 2 * table.shape[0] * table.shape[1]}


def _search_counts(args, result) -> dict[str, int]:
    return {"codes_examined": result.canonical_codes_examined}


# (layer, module, function name, counter hook or None)
TRACED: list[tuple[str, Any, str, Callable | None]] = [
    ("autgroup", autgroup, "generate_group", _group_counts),
    ("autgroup", autgroup, "vertex_action_table", _table_counts),
    ("autgroup", autgroup, "orbit", None),
    ("kernels", _kernels, "is_canonical", _canonical_counts),
    ("kernels", _kernels, "first_mover", _mover_counts),
    ("kernels", _kernels, "stabiliser_rows", None),
    ("search", search, "search_elusive", _search_counts),
    ("search", search, "enumerate_codes", None),
    ("codes", codes, "setwise_stabiliser", None),
    ("codes", codes, "are_equivalent", None),
    ("codes", codes, "neighbour_set", None),
    ("elusive", elusive, "verify_elusive", None),
    ("elusive", elusive, "code_stabiliser_analysis", None),
] + [
    ("constructions", constructions, name, None)
    for name in constructions.__all__
    if inspect.isfunction(getattr(constructions, name))
]

class Tracer:
    """In-memory span recorder for one process; install, run, uninstall."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str | None]] = []
        self.counters: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.job: str | None = None
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent, self.job))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        name, start, _, parent, job = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent, job)

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # The span covers the whole iteration; the benchmark's consumers
            # do no work of their own between items.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                idx = tracer._open(name)
                items = 0
                try:
                    for item in fn(*args, **kwargs):
                        items += 1
                        yield item
                finally:
                    tracer._close(idx)
                    tracer.counters[name]["codes"] += items

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                for key, value in count(args, result).items():
                    tracer.counters[name][key] += value
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        modules = [
            mod for key, mod in sys.modules.items()
            if mod is not None and (key == "elusivecodes" or key.startswith("elusivecodes."))
        ]
        for layer, module, fname, count in TRACED:
            original = getattr(module, fname)
            wrapper = self._wrap(f"{layer}.{fname}", original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "job": j}
            for n, s, e, p, j in self.spans
        ]

    def per_layer(self) -> dict[str, float]:
        """Totals per traced function and self time per function and layer.

        ``<fn>.s`` sums a function's spans that are not nested in a span of
        the same function; ``<fn>.self_s`` and ``<layer>.self_s`` subtract
        the time covered by direct child spans.  ``constructions.s`` is the
        time inside the outermost constructions call of each nest.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(int)
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            layer = name.split(".", 1)[0]
            parent_name = self.spans[parent][0] if parent >= 0 else ""
            self_time = end - start - child_time[idx]
            out[f"{layer}.self_s"] += self_time
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_time
            if parent_name != name:
                out[f"{name}.s"] += end - start
            if layer == "constructions" and not parent_name.startswith("constructions."):
                out["constructions.s"] += end - start
        for name, counts in self.counters.items():
            for key, value in counts.items():
                out[f"{name}.{key}"] += value
        return dict(out)
