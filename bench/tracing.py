"""Spans around latfree's layer functions, recorded from outside.

The tracer replaces each traced function object in every `latfree.*`
namespace that holds it (cli, norm and free import functions by name), so
a call is recorded whichever module makes it.  Each span records its name,
start, end, parent span and thread; there is one span stack per thread,
because norm_bounds runs ascent restarts in a thread pool.  Spans stay in
memory until `write`.

Self time is a span's duration minus the durations of its child spans.
A function that does not exist is reported as absent: its metrics are 0.
Recursive walkers (a function that calls itself by its global name) are
refused and reported as absent too, because a wrapper doubles the Python
frames of every recursion level and turns a deep input that works
untraced into a RecursionError.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import sys
import threading
import time

# (module, function) pairs: the layer boundaries named in the README
TRACED = (
    ("cli", "main"),
    ("expr", "parse"),
    ("expr", "eval_expr"),
    ("pwl", "linear_pieces"),
    ("pwl", "equivalent"),
    ("pwl", "build_arrangement"),
    ("pwl", "active_piece"),
    ("pwl", "sup_abs_over"),
    ("lp", "solve_lp"),
    ("lp", "simplex_standard"),
    ("qmath", "solve_square_system"),
    ("norm", "norm_exact_polyhedral"),
    ("norm", "_subdivision_vertices"),
    ("norm", "norm_bounds"),
    ("norm", "strong_unit_factor"),
    ("norm", "_sweep_candidates"),
    ("norm", "_ascent_restart"),
    ("norm", "constraint_norm"),
    ("norm", "tuple_seminorm_value"),
    ("free", "make_element"),
    ("free", "extend_hom"),
)


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "thread", "child_s", "info")

    def __init__(self, index, name, parent, thread):
        self.index = index
        self.name = name
        self.parent = parent
        self.thread = thread
        self.child_s = 0.0
        self.info = None
        self.start = time.perf_counter()
        self.end = None


def _observe(name, span, args, result):
    """Work counts read from a call's arguments and result."""
    if name == "pwl.linear_pieces":
        span.info = {"pieces": len(result)}
    elif name == "pwl.build_arrangement":
        span.info = {"cells": len(result.cells), "hyperplanes": len(result.hyperplanes)}
    elif name == "lp.solve_lp":
        span.info = {"infeasible": int(result.status == "infeasible")}
    elif name == "qmath.solve_square_system":
        span.info = {"singular": int(result is None)}
    elif name == "lp.simplex_standard":
        span.info = {"columns": len(args[0])}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self.pivots = 0
        self._pivot_lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        code = getattr(fn, "__code__", None)
        if code is not None and fn.__name__ in code.co_names:
            raise ValueError(f"{name} calls itself; tracing it would double its recursion depth")
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(next(tracer._ids), name, parent, threading.get_ident())
            tracer.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
            _observe(name, span, args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "latfree" or n.startswith("latfree."))
        ]
        for mod_name, fn_name in TRACED:
            home = sys.modules.get(f"latfree.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                self.absent.append(f"{mod_name}.{fn_name}")
                continue
            try:
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            except ValueError:
                self.absent.append(f"{mod_name}.{fn_name} (recursive, not traced)")
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, original))
        tableau = getattr(sys.modules.get("latfree.lp"), "_Tableau", None)
        pivot = getattr(tableau, "pivot", None)
        if pivot is None:
            self.absent.append("lp._Tableau.pivot")
            return
        tracer = self

        @functools.wraps(pivot)
        def counted_pivot(*args, **kwargs):
            with tracer._pivot_lock:
                tracer.pivots += 1
            return pivot(*args, **kwargs)

        tableau.pivot = counted_pivot
        self._restore.append((tableau, "pivot", pivot))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-function calls, self_s and busy_s, plus the observed counts."""
        out: dict[str, float] = {}

        def bump(key, amount):
            out[key] = out.get(key, 0) + amount

        for span in self.spans:
            if span.end is None:
                continue
            duration = span.end - span.start
            bump(f"{span.name}.calls", 1)
            bump(f"{span.name}.self_s", duration - span.child_s)
            bump(f"{span.name}.busy_s", duration)
            for key, amount in (span.info or {}).items():
                bump(f"{span.name}.{key}", amount)
            parent = span.parent
            if span.name == "pwl.build_arrangement" and parent is not None \
                    and parent.name == "pwl.equivalent":
                bump("pwl.equivalent.full_checks", 1)
            if span.name == "lp.simplex_standard" and parent is not None \
                    and parent.name == "norm.norm_exact_polyhedral":
                bump("norm.vertex_lp.columns", span.info["columns"])
        out["lp.pivots"] = self.pivots
        return out

    def write(self, path) -> None:
        """Every span as one JSON list per line: index, name, start, end,
        parent index (-1 for a root) and thread id."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                parent = -1 if s.parent is None else s.parent.index
                fh.write(json.dumps([s.index, s.name, s.start, s.end, parent, s.thread]) + "\n")
