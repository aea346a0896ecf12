"""Outside-in tracer for the skewdyck benchmark.

The tracer wraps public functions of the ``skewdyck`` modules from outside
the package: each target is replaced in every loaded ``skewdyck`` module
namespace that binds it (``genfunc`` imports ``sqrt_one`` by name, so the
``genfunc`` binding is wrapped too).  Every call records one span::

    (span_id, parent_id, job_id, name, start, end, self_s, outermost)

``self_s`` is the span's duration minus the durations of its direct child
spans; ``outermost`` is false for a span nested inside another span of the
same name, so summing durations over outermost spans never counts a
recursive call twice.  Spans stay in memory until :meth:`Tracer.dump`
writes them, together with a few counters, as one JSON file.

Counters recorded next to the spans:

* the distinct ``kernel_bundle`` orders requested per job;
* the entries of every table ``dp.dp_table`` returns;
* the ``CountTable.entries`` items visited inside ``count``/``wpoly``
  (a full pass counts every entry, a keyed access counts one);
* ``formulas._trinomial_row.cache_info()`` at dump time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

# (module, attribute, span name)
FUNCTIONS = (
    ("cli", "cmd_table", "cli.table"),
    ("cli", "cmd_verify", "cli.verify"),
    ("genfunc", "kernel_bundle", "genfunc.kernel_bundle"),
    ("genfunc", "primal_level_series", "genfunc.primal_level_series"),
    ("genfunc", "dual_level_series", "genfunc.dual_level_series"),
    ("genfunc", "negative_level_series", "genfunc.negative_level_series"),
    ("genfunc", "negative_boundary_series", "genfunc.negative_boundary_series"),
    ("genfunc", "red_level_series", "genfunc.red_level_series"),
    ("genfunc", "substitution_identity_check", "genfunc.substitution_identity_check"),
    ("paths", "count_table", "paths.count_table"),
    ("paths", "enumerate_paths", "paths.enumerate_paths"),
    ("dp", "dp_table", "dp.dp_table"),
    ("formulas", "primal_coeff_explicit", "formulas.primal_coeff_explicit"),
    ("formulas", "dual_coeff_explicit", "formulas.dual_coeff_explicit"),
    ("formulas", "red_coeff_explicit", "formulas.red_coeff_explicit"),
    ("formulas", "trinomial", "formulas.trinomial"),
)
# series functions are split by the coefficient ring of their first operand
SERIES_FUNCTIONS = ("sqrt_one", "inv", "div", "compose", "extract_u")
RINGS = ("rational", "wpoly")
# (module, class, method)
METHODS = (("paths", "CountTable", "count"), ("paths", "CountTable", "wpoly"))

SPAN_NAMES = (
    [name for _, _, name in FUNCTIONS]
    + [f"series.{fn}.{ring}" for fn in SERIES_FUNCTIONS for ring in RINGS]
    + [f"{mod}.{cls}.{meth}" for mod, cls, meth in METHODS]
)


class _CountingEntries(dict):
    """``CountTable.entries`` stand-in that counts the items visited."""

    __slots__ = ("tracer",)

    def _visit(self, n):
        self.tracer.visited += n

    def items(self):
        self._visit(len(self))
        return dict.items(self)

    def keys(self):
        self._visit(len(self))
        return dict.keys(self)

    def values(self):
        self._visit(len(self))
        return dict.values(self)

    def __iter__(self):
        self._visit(len(self))
        return dict.__iter__(self)

    def get(self, key, default=None):
        self._visit(1)
        return dict.get(self, key, default)

    def __getitem__(self, key):
        self._visit(1)
        return dict.__getitem__(self, key)

    def __contains__(self, key):
        self._visit(1)
        return dict.__contains__(self, key)


def _ring(args):
    """Coefficient ring of a series operand (``extract_u`` takes a
    ``ULinearRational``, whose ring is that of its denominator)."""
    first = args[0] if args else None
    ring = getattr(first, "ring", None) or getattr(getattr(first, "den0", None), "ring", None)
    return ring if ring in RINGS else "other"


class Tracer:
    """Span recorder for one process; ``job`` tags every span it records."""

    def __init__(self, job=0):
        self.job = job
        self.spans = []
        self.missing = []
        self.visited = 0
        self.scanned = 0
        self.kernel_orders = {}
        self.dp_entries = []
        self._stack = []
        self._depth = {}
        self._next_id = 0

    # -- recording ------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        self._next_id += 1
        span_id = self._next_id
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, 0.0]  # id, time covered by child spans
        self._stack.append(frame)
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self._depth[name] = depth
            duration = end - start
            if parent is not None:
                parent[1] += duration
            self.spans.append(
                (span_id, parent[0] if parent else 0, self.job, name, start, end,
                 duration - frame[1], depth == 0)
            )

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every target in every loaded ``skewdyck`` namespace."""
        import skewdyck.cli  # noqa: F401  (loads every module the CLI uses)

        mods = {m: sys.modules.get(f"skewdyck.{m}") for m in ("cli", "genfunc", "series", "paths", "dp", "formulas")}
        for mod, attr, name in FUNCTIONS:
            fn = getattr(mods[mod], attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            self._rebind(fn, self._wrapper(name, fn))
        for attr in SERIES_FUNCTIONS:
            fn = getattr(mods["series"], attr, None)
            if fn is None:
                self.missing.append(f"series.{attr}")
                continue
            self._rebind(fn, self._series_wrapper(f"series.{attr}", fn))
        for mod, cls_name, meth in METHODS:
            cls = getattr(mods[mod], cls_name, None)
            fn = getattr(cls, meth, None)
            if fn is None:
                self.missing.append(f"{mod}.{cls_name}.{meth}")
                continue
            setattr(cls, meth, self._lookup_wrapper(f"{mod}.{cls_name}.{meth}", fn))
        return self

    @staticmethod
    def _rebind(fn, wrapper):
        for module in list(sys.modules.values()):
            name = getattr(module, "__name__", "")
            if name != "skewdyck" and not name.startswith("skewdyck."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)

    def _wrapper(self, name, fn):
        if name == "genfunc.kernel_bundle":
            return self._kernel_wrapper(name, fn)
        if name in ("dp.dp_table", "paths.count_table"):
            return self._table_wrapper(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapper

    def _series_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(f"{name}.{_ring(args)}", fn, args, kwargs)

        return wrapper

    def _kernel_wrapper(self, name, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self.kernel_orders.setdefault(self.job, set()).add(bound.arguments.get("order"))
            return self.call(name, fn, args, kwargs)

        return wrapper

    def _table_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            table = self.call(name, fn, args, kwargs)
            entries = getattr(table, "entries", None)
            if type(entries) is dict:
                if name == "dp.dp_table":
                    self.dp_entries.append(len(entries))
                counting = _CountingEntries(entries)
                counting.tracer = self
                table.entries = counting
            return table

        return wrapper

    def _lookup_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self.visited
            try:
                return self.call(name, fn, args, kwargs)
            finally:
                self.scanned += self.visited - before

        return wrapper

    # -- output ---------------------------------------------------------

    def dump(self, path):
        cache = None
        formulas = sys.modules.get("skewdyck.formulas")
        row = getattr(formulas, "_trinomial_row", None)
        if hasattr(row, "cache_info"):
            info = row.cache_info()
            cache = {"hits": info.hits, "misses": info.misses, "rows": info.currsize}
        record = {
            "spans": self.spans,
            "missing": self.missing,
            "scanned": self.scanned,
            "kernel_orders": {str(job): sorted(o for o in orders if o is not None)
                              for job, orders in self.kernel_orders.items()},
            "dp_entries": self.dp_entries,
            "trinomial_cache": cache,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
