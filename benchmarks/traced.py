"""Run the qpartid CLI in this process with its public functions traced.

    python benchmarks/traced.py TRACE_OUT CLI_ARG...

Every public, non-generator function defined in bigpoly, qbinom,
partitions, identities and cli is wrapped, and the wrapper is installed in
every module namespace that binds the original object (identities, for
instance, binds binom and poly_mul with `from ... import`).  The CLI then
runs through the wrapped ``cli.main``, and TRACE_OUT receives a JSON
document with:

- ``functions``: one aggregate per (function, parent layer), where the parent
  layer is the layer of the innermost traced call on the stack ("top" at the
  root).  Each holds calls, total and self seconds, and the function's extra
  counters.  Self time is total time minus the time of traced child calls.
- ``distinct``: for the functions in DISTINCT_ARGS, how many distinct
  argument tuples they were called with.
- ``spans``: one record per call of a cli function or of
  ``identities.run_identity``, with its parent span.  The hot leaves get no
  spans, only the aggregate counters above.

Counters are kept in this process only.  A process pool forked by the CLI
inherits the wrappers, but its workers' counters are never collected.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import types

LAYERS = ("bigpoly", "qbinom", "partitions", "identities", "cli")
SPAN_FUNCS = {"identities.run_identity"}
DISTINCT_ARGS = {
    "qbinom.binom",
    "qbinom.bracket_base",
    "partitions.count_P",
    "partitions.count_Q",
}


def _poly_mul_counters(extra, args, result):
    a, b = len(args[0].coeffs), len(args[1].coeffs)
    extra["coef_mults"] = extra.get("coef_mults", 0) + a * b
    extra["max_terms"] = max(extra.get("max_terms", 0), a, b)


def _enumerate_counters(extra, args, result):
    extra["partitions_out"] = extra.get("partitions_out", 0) + len(result)


EXTRA_COUNTERS = {
    "bigpoly.poly_mul": _poly_mul_counters,
    "partitions.enumerate_partitions": _enumerate_counters,
}


class Tracer:
    """Aggregate counters plus a span list, filled by the installed wrappers."""

    def __init__(self):
        # frame: [layer, time spent in traced children, id of the enclosing span]
        self.stack: list[list] = [["top", 0.0, None]]
        self.by_function: dict[str, dict[str, list]] = {}
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT_ARGS}
        self.spans: list[dict] = []

    def _records(self, name: str) -> dict[str, list]:
        """The per-parent-layer records of one function: [calls, total, self, extra]."""
        records: dict[str, list] = {}
        self.by_function[name] = records
        return records

    def wrap(self, fn, name: str, layer: str):
        # Two closures, so that the hot leaves (binom alone makes millions of
        # calls) never pay for building span records.
        if layer == "cli" or name in SPAN_FUNCS:
            return self._wrap_span(fn, name, layer)
        stack = self.stack
        clock = time.perf_counter
        records = self._records(name)
        seen = self.distinct.get(name)
        extra_counters = EXTRA_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0.0, parent[2]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                rec = records.get(parent[0])
                if rec is None:
                    rec = records[parent[0]] = [0, 0.0, 0.0, {}]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if seen is not None:
                seen.add((args, tuple(sorted(kwargs.items()))) if kwargs else args)
            if extra_counters is not None:
                extra_counters(rec[3], args, result)
            return result

        return traced

    def _wrap_span(self, fn, name: str, layer: str):
        """Like wrap, and also record one span per call."""
        stack = self.stack
        clock = time.perf_counter
        records = self._records(name)
        spans = self.spans
        extra_counters = EXTRA_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            span = {"id": len(spans), "parent": parent[2], "name": name}
            if args and isinstance(args[0], str):
                span["arg0"] = args[0]
            spans.append(span)
            frame = [layer, 0.0, span["id"]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                rec = records.setdefault(parent[0], [0, 0.0, 0.0, {}])
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                span.update(start=t0, end=t0 + dt, self_s=dt - frame[1])
            if isinstance(result, (list, str)):
                span["result_len"] = len(result)
            if extra_counters is not None:
                extra_counters(rec[3], args, result)
            return result

        return traced

    def dump(self) -> dict:
        functions = [
            {
                "name": name,
                "parent": parent,
                "calls": rec[0],
                "total_s": rec[1],
                "self_s": rec[2],
                **rec[3],
            }
            for name, records in sorted(self.by_function.items())
            for parent, rec in sorted(records.items())
        ]
        return {
            "functions": functions,
            "distinct": {name: len(seen) for name, seen in sorted(self.distinct.items())},
            "spans": self.spans,
        }


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer, in every namespace binding them."""
    modules = {layer: importlib.import_module(f"qpartid.{layer}") for layer in LAYERS}
    namespaces = [importlib.import_module("qpartid"), *modules.values()]
    wrapped: dict[int, object] = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (
                attr.startswith("_")
                or not isinstance(obj, types.FunctionType)
                or obj.__module__ != module.__name__
                or inspect.isgeneratorfunction(obj)
            ):
                continue
            wrapped[id(obj)] = tracer.wrap(obj, f"{layer}.{attr}", layer)
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            replacement = wrapped.get(id(obj))
            if replacement is not None:
                setattr(ns, attr, replacement)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced.py TRACE_OUT CLI_ARG...", file=sys.stderr)
        return 2
    trace_out, cli_args = argv[0], argv[1:]
    from qpartid import cli, identities

    # read before tracing starts, so labelling the families adds no traced calls
    kinds = {d.id: d.kind for d in identities.registry()}
    tracer = Tracer()
    install(tracer)

    code = cli.main(cli_args)
    with open(trace_out, "w") as fh:
        json.dump({"exit_code": code, "kinds": kinds, **tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
