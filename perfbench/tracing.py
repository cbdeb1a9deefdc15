"""Span tracing of rankone's layers, installed from outside the library.

`Tracer.install()` wraps the public functions of each layer module and the
public `BlockDag` methods.  It rebinds every name bound to a wrapped function
in any `rankone` module, so `cli.correlation` and
`correlations.cocycle_distribution` are traced as well.  Each call becomes a span
(name, start, end, parent, op id) held in memory until `write()`.

The first FOLD_AFTER calls of a name under one parent span are recorded as
spans.  Later ones (the per-sample `BlockDag.extract` calls of a sampled
correlation, say) are folded into per-parent counts and busy time, so memory
stays bounded.  A span's self time is its duration minus the time of its
child spans, folded ones included.

`BlockDag.height` is not wrapped: it is a range-checked accessor called on
every step of every descent, and wrapping it would cost more than the descent.
Only `run_argv` is wrapped in `cli`, so argument parsing, CSV writing, digests
and the manifest are the cli layer's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

FOLD_AFTER = 32

LAYER_MODULES = ("construction", "blocks", "odometer", "limits", "correlations", "sarnak")
DAG_METHODS = ("materialize", "extract", "symbol_at", "count_occurrences", "frequency")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class _Frame:
    __slots__ = ("id", "child", "seen", "folded")

    def __init__(self, frame_id):
        self.id = frame_id
        self.child = 0.0
        self.seen = None
        self.folded = None


def _merge(into, label, calls, busy, self_s, work):
    agg = into.get(label)
    if agg is None:
        into[label] = [calls, busy, self_s, work]
    else:
        agg[0] += calls
        agg[1] += busy
        agg[2] += self_s
        agg[3] += work


class Tracer:
    """Spans and folded counts of one traced run, grouped by op id."""

    def __init__(self):
        self.spans = []  # (label, start, end, id, parent id, op, self_s, work, flag)
        self.folds = []  # (parent id, op, label, calls, busy_s, self_s, work)
        self.stack = []
        self.op = None
        self.scanned = set()
        self._next_id = 0

    def begin_op(self, op):
        self.op = op
        self.scanned = set()

    # -- describing a call: (label, work count, flag) ----------------------

    def _describe_correlation(self, args, kwargs):
        dag, w1, w2, lag, stage = args[:5]
        method = _arg(args, kwargs, 5, "method", "exact")
        if method == "sampled":
            budget = _arg(args, kwargs, 6, "sample_budget") or 0
            cap = "in_cap" if dag.height(stage) <= dag.cap else "beyond_cap"
            return "correlations.correlation.sampled", budget, cap
        valid = dag.height(stage) - max(len(w1), lag + len(w2)) + 1
        key = (stage, w1)
        rescan = key in self.scanned
        self.scanned.add(key)
        return "correlations.correlation.exact", valid, rescan

    def _describers(self):
        """Label -> describe(label, args, kwargs) for the calls that carry work
        counts or a label suffix."""

        def steps(pos, name):
            return lambda label, a, k: (label, _arg(a, k, pos, name) or 0, None)

        def method(pos, default):
            return lambda label, a, k: (f"{label}.{_arg(a, k, pos, 'method', default)}", 0,
                                        None)

        return {
            "correlations.correlation": lambda label, a, k: self._describe_correlation(a, k),
            "odometer.cocycle_distribution": method(4, "convolution"),
            "blocks.extract": steps(3, "length"),
            "blocks.materialize": lambda label, a, k: (label, a[0].height(a[1]), None),
            "sarnak.mobius_sieve": steps(0, "limit"),
            "sarnak.orbit_word": steps(2, "length"),
            "sarnak.cylinder_sarnak_averages": steps(4, "horizon"),
            "sarnak.prime_power_averages": steps(5, "horizon"),
            "sarnak.suspension_values": steps(3, "horizon"),
            "sarnak.partial_averages": steps(2, "horizon"),
        }

    # -- wrapping ------------------------------------------------------------

    def wrap(self, label, fn, describe=None):
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name, work, flag = label, 0, None
            if describe is not None:
                try:
                    name, work, flag = describe(label, args, kwargs)
                except (IndexError, KeyError, TypeError, ValueError, AttributeError):
                    pass  # malformed call: the library reports it below
            self._next_id += 1
            frame = _Frame(self._next_id)
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._close(frame, name, start, end, work, flag)

        return traced

    def _close(self, frame, name, start, end, work, flag):
        busy = end - start
        self_s = busy - frame.child
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent.child += busy
            if parent.seen is None:
                parent.seen = {}
            n = parent.seen.get(name, 0) + 1
            parent.seen[name] = n
            if n > FOLD_AFTER:
                if parent.folded is None:
                    parent.folded = {}
                _merge(parent.folded, name, 1, busy, self_s, work)
                for label, agg in (frame.folded or {}).items():
                    _merge(parent.folded, label, *agg)
                return
        pid = parent.id if parent is not None else None
        self.spans.append((name, start, end, frame.id, pid, self.op, self_s, work, flag))
        for label, agg in (frame.folded or {}).items():
            self.folds.append((frame.id, self.op, label, *agg))

    def install(self):
        """Wrap every layer's public functions and BlockDag's public methods."""
        import rankone.blocks
        import rankone.cli

        describers = self._describers()
        wrapped = {}
        for short in LAYER_MODULES:
            module = sys.modules[f"rankone.{short}"]
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    label = f"{short}.{name}"
                    wrapped[obj] = self.wrap(label, obj, describers.get(label))
        run_argv = rankone.cli.run_argv
        wrapped[run_argv] = self.wrap("cli.run_argv", run_argv)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "rankone" or mod_name.startswith("rankone."):
                for name, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(module, name, wrapped[obj])
        dag = rankone.blocks.BlockDag
        for name in DAG_METHODS:
            label = f"blocks.{name}"
            setattr(dag, name, self.wrap(label, getattr(dag, name), describers.get(label)))

    # -- output ----------------------------------------------------------------

    def layer_totals(self, ops):
        """Per-label [calls, busy_s, self_s, work] summed over spans of `ops`,
        plus exact-correlation rescans and sampled in/beyond-cap splits."""
        totals = {}
        extra = {"rescans": 0, "in_cap": [0.0, 0], "beyond_cap": [0.0, 0]}
        for name, start, end, _, _, op, self_s, work, flag in self.spans:
            if op not in ops:
                continue
            _merge(totals, name, 1, end - start, self_s, work)
            if flag is True:
                extra["rescans"] += 1
            elif flag in ("in_cap", "beyond_cap"):
                extra[flag][0] += end - start
                extra[flag][1] += work
        for _, op, label, calls, busy, self_s, work in self.folds:
            if op in ops:
                _merge(totals, label, calls, busy, self_s, work)
        return totals, extra

    def write(self, path):
        """All spans and folded records as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, sid, pid, op, self_s, work, flag in self.spans:
                fh.write(json.dumps({"span": name, "start": start, "end": end, "id": sid,
                                     "parent": pid, "op": op, "self_s": self_s,
                                     "work": work, "flag": flag}) + "\n")
            for pid, op, label, calls, busy, self_s, work in self.folds:
                fh.write(json.dumps({"folded": label, "parent": pid, "op": op, "calls": calls,
                                     "busy_s": busy, "self_s": self_s, "work": work}) + "\n")
