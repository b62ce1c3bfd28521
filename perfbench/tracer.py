"""Spans and counters at funcseries' layer boundaries, installed from outside.

`install` replaces public functions in the namespace of the module that
calls them (for example `approx.eval_g`, which `evaluate` looks up there)
with wrappers that record a span, and puts counting wrappers on the
arithmetic operators of `ExactScalar`.  Nothing in the program changes on
disk; `uninstall` puts every original back.

A span is (id, name, start, end, parent id, op id).  Spans are kept in
memory, up to MAX_SPANS of them, and written out by `write_spans`; the
per-name totals and self times are aggregated for every span, kept or not.
MAX_SPANS holds every span of the traced runs (the largest is eval_grid's:
two spans for each of 60,000 points); the summary counts any dropped.
"""

from __future__ import annotations

import time

MAX_SPANS = 150_000

_perf = time.perf_counter

_SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__", "__neg__", "__abs__",
)


class Tracer:
    def __init__(self):
        self.op = 0  # id of the benchmark operation in flight
        self.agg = {}  # span name -> [calls, total_s, self_s]
        self.counts = {"exact.scalar_ops": 0, "bell.cells": 0, "catalog.lambert_w0_calls": 0}
        self.errors = {}  # (span name, "domain" | "convergence" | "raw") -> count
        self.max_coef_bits = 0
        self.spans = []
        self.dropped = 0
        self._stack = []  # [name, start, child_s, span id]
        self._next_id = 0
        self._scalar_ops = [0]
        self._patches = []
        self._gate_start = 0

    # -- spans -----------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([name, _perf(), 0.0, self._next_id])
        self._next_id += 1

    def exit(self) -> None:
        end = _perf()
        name, start, child, sid = self._stack.pop()
        dur = end - start
        entry = self.agg.get(name)
        if entry is None:
            entry = self.agg[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += dur - child
        parent = -1
        if self._stack:
            top = self._stack[-1]
            top[2] += dur
            parent = top[3]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, name, start, end, parent, self.op))
        else:
            self.dropped += 1

    def wrap(self, name: str, fn, on_result=None):
        """`fn` inside a span; exceptions escaping it are counted by class."""
        from funcseries.catalog import ConvergenceError, DomainError

        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except DomainError:
                self._error(name, "domain")
                raise
            except ConvergenceError:
                self._error(name, "convergence")
                raise
            except Exception:
                self._error(name, "raw")
                raise
            finally:
                self.exit()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _error(self, name: str, kind: str) -> None:
        self.errors[(name, kind)] = self.errors.get((name, kind), 0) + 1

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, with_cli: bool = False) -> None:
        from funcseries import approx, bell, catalog, exact

        def count_cells(rows):
            self.counts["bell.cells"] += sum(len(row) for row in rows)

        def record_bits(model):
            for c in model.coefficients:
                if c.is_exact:
                    f = c.as_fraction()
                    bits = max(f.numerator.bit_length(), f.denominator.bit_length())
                    if bits > self.max_coef_bits:
                        self.max_coef_bits = bits

        def lambert_counter(fn):
            counts = self.counts

            def counted(x):
                counts["catalog.lambert_w0_calls"] += 1
                return fn(x)

            return counted

        originals = {
            "approx.assemble": (approx.assemble, record_bits),
            "approx.taylor_baseline": (approx.taylor_baseline, record_bits),
            "approx.evaluate": (approx.evaluate, None),
            "approx.error_report": (approx.error_report, None),
            "catalog.get_expansion": (catalog.get_expansion, None),
            "catalog.eval_g": (catalog.eval_g, None),
            "bell.bell_values": (bell.bell_values, count_cells),
            "bell.derivative_sequence": (bell.derivative_sequence, None),
            "pseries.family_series": (bell.family_series, None),
        }
        traced = {
            name: self.wrap(name, fn, hook) for name, (fn, hook) in originals.items()
        }
        # (module whose namespace the caller looks the name up in, attribute, span)
        sites = [
            (approx, "assemble", "approx.assemble"),
            (approx, "taylor_baseline", "approx.taylor_baseline"),
            (approx, "evaluate", "approx.evaluate"),
            (approx, "get_expansion", "catalog.get_expansion"),
            (approx, "eval_g", "catalog.eval_g"),
            (catalog, "get_expansion", "catalog.get_expansion"),
            (catalog, "family_series", "pseries.family_series"),
            (bell, "bell_values", "bell.bell_values"),
            (bell, "derivative_sequence", "bell.derivative_sequence"),
            (bell, "family_series", "pseries.family_series"),
        ]
        if with_cli:
            from funcseries import cli

            sites += [
                (cli, "assemble", "approx.assemble"),
                (cli, "taylor_baseline", "approx.taylor_baseline"),
                (cli, "evaluate", "approx.evaluate"),
                (cli, "error_report", "approx.error_report"),
                (cli, "get_expansion", "catalog.get_expansion"),
            ]
        for owner, attr, name in sites:
            self._patch(owner, attr, traced[name])
        self._patch(catalog, "lambert_w0", lambert_counter(catalog.lambert_w0))

        counter = self._scalar_ops
        for op in _SCALAR_OPS:
            self._patch(exact.ExactScalar, op, _counting(exact.ExactScalar.__dict__[op], counter))
        self._gate_start = len(bell.gate_report())

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- output ----------------------------------------------------------------

    def summary(self) -> dict:
        from funcseries import bell

        counts = dict(self.counts)
        counts["exact.scalar_ops"] = self._scalar_ops[0]
        counts["bell.gate_checks"] = len(bell.gate_report()) - self._gate_start
        return {
            "agg": self.agg,
            "counts": counts,
            "errors": [[name, kind, n] for (name, kind), n in sorted(self.errors.items())],
            "max_coef_bits": self.max_coef_bits,
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,op\n")
            for sid, name, start, end, parent, op in self.spans:
                fh.write(f"{sid},{name},{start!r},{end!r},{parent},{op}\n")


def _counting(method, counter):
    def counted(self, *args):
        counter[0] += 1
        return method(self, *args)

    return counted


def merge(summaries) -> dict:
    """Sum several processes' summaries (max for the coefficient bits)."""
    agg, counts, errors = {}, {}, {}
    bits = kept = dropped = 0
    for s in summaries:
        for name, (calls, total, own) in s["agg"].items():
            entry = agg.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for name, n in s["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, kind, n in s["errors"]:
            errors[(name, kind)] = errors.get((name, kind), 0) + n
        bits = max(bits, s["max_coef_bits"])
        kept += s["spans_kept"]
        dropped += s["spans_dropped"]
    return {"agg": agg, "counts": counts, "errors": errors, "max_coef_bits": bits,
            "spans_kept": kept, "spans_dropped": dropped}


def self_time_check(spans) -> list:
    """For each root span, (root duration, sum of self times in its tree)."""
    children, by_id = {}, {}
    for sid, name, start, end, parent, op in spans:
        by_id[sid] = (start, end)
        children.setdefault(parent, []).append(sid)
    out = []
    for root in children.get(-1, []):
        total, todo = 0.0, [root]
        while todo:
            sid = todo.pop()
            start, end = by_id[sid]
            kids = children.get(sid, [])
            total += (end - start) - sum(by_id[k][1] - by_id[k][0] for k in kids)
            todo.extend(kids)
        start, end = by_id[root]
        out.append((end - start, total))
    return out
