"""Outside-in tracer: wraps `sfcomp` layer entry points without editing the package.

Each wrapped call is a span (name, start, end, parent, operation id). Spans
nest because the package is single-threaded, so a span's self time is its
duration minus the durations of its direct children, accumulated as the
spans close. Statistics are kept for every span; the span records themselves
are kept in memory up to a cap and written out when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

from layers import HOOKS, OBJECTIVE

# `_coordinate_descent` accepts a candidate when it beats the best value by
# more than this; the tracer replays that rule to count accepted moves.
ACCEPT_EPS = 1e-15
SPAN_CAP = 50_000

CALLS, SELF_S, TOTAL_S, CELLS, ACCEPTS = range(5)


def _cells_self(args, out):
    return args[0].table.size


def _cells_axes(args, out):
    joint, axes = args[0], args[1]
    names = (axes,) if isinstance(axes, str) else tuple(axes)
    n = 1
    for a in joint.axes:
        if a.name in names:
            n *= a.size
    return n


def _cells_out(args, out):
    return out.table.size


CELL_COUNTERS = {
    "probability.marginal": _cells_self,
    "probability.entropy": _cells_axes,
    "multifunction.build_multi_joint": _cells_out,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}
        self.missing: list[str] = []
        self.op = -1
        self.spans: list[tuple] = []
        self.dropped = 0
        self._next_id = 0
        self._stack: list[list] = []  # [child seconds, span id] per open span
        self._undo: list[tuple] = []
        self._origin = time.perf_counter()

    # -- statistics -------------------------------------------------------
    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])

    def reset_stats(self) -> None:
        self.stats = {}

    # -- wrappers ---------------------------------------------------------
    def _span(self, name: str, fn, cells=None):
        tracer, stack, clock = self, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            nonlocal cells
            st = tracer.stats.get(name) or tracer._stat(name)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                st[CALLS] += 1
                st[SELF_S] += dur - frame[0]
                st[TOTAL_S] += dur
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append((sid, name, t0, t1, parent, tracer.op))
                else:
                    tracer.dropped += 1
            if cells is not None:
                try:
                    st[CELLS] += cells(args, out)
                except (AttributeError, TypeError, IndexError):
                    # The table layout changed under a refactor: drop the
                    # count, keep the run.
                    cells = None
                    tracer._missing(f"{name}.cells")
            return out

        return wrapper

    def _counter(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._stat(name)[CALLS] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _descent(self, fn):
        """One restart span; the objective it is handed becomes its own span."""
        tracer = self

        def descent(*args, **kwargs):
            if not args or not callable(args[0]):
                return fn(*args, **kwargs)
            objective = args[0]
            best = [None]

            def counted(blocks):
                val = objective(blocks)
                if best[0] is None:
                    best[0] = val
                elif val < best[0] - ACCEPT_EPS:
                    best[0] = val
                    tracer._stat(OBJECTIVE)[ACCEPTS] += 1
                return val

            return fn(tracer._span(OBJECTIVE, counted), *args[1:], **kwargs)

        return self._span("regions.restart", descent)

    # -- installation -----------------------------------------------------
    def _rebind(self, original, wrapper) -> None:
        """Point every `sfcomp` module-level name bound to `original` at `wrapper`."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "sfcomp" or modname.startswith("sfcomp.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))

    def _missing(self, name: str) -> None:
        if name not in self.missing:
            self.missing.append(name)

    def install(self) -> None:
        for name, modname, attr, kind in HOOKS:
            try:
                owner = importlib.import_module(f"sfcomp.{modname}")
            except ImportError:
                self._missing(name)
                continue
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if isinstance(owner, type):
                original = vars(owner).get(leaf)
            else:
                original = getattr(owner, leaf, None)
            if not callable(original):
                self._missing(name)
                continue
            if kind == "count":
                wrapper = self._counter(name, original)
            elif kind == "restart":
                wrapper = self._descent(original)
            else:
                wrapper = self._span(name, original, CELL_COUNTERS.get(name))
            if isinstance(owner, type):
                setattr(owner, leaf, wrapper)
                self._undo.append((owner, leaf, original))
            else:
                self._rebind(original, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------
    def dump(self, path, meta: dict) -> None:
        names = sorted({s[1] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[sid, index[n], round(t0 - self._origin, 9), round(t1 - self._origin, 9), parent, op]
                for sid, n, t0, t1, parent, op in self.spans]
        doc = dict(meta, names=names, fields=["id", "name", "start_s", "end_s", "parent", "op"],
                   spans=rows, dropped=self.dropped, missing=self.missing)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
