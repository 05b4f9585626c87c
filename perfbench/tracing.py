"""Spans and counters recorded around calls into scopetrack's modules.

The tracer replaces a module attribute with a timing wrapper. Calls made
inside the program resolve the attribute at call time, so the wrapper goes
on the module the caller looks the name up in (for example
``scopetrack.tracker.validate_stream`` for the tracker's call into
``model.validate_stream``). Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter, defaultdict

CALLERS = ("tracker", "metrics", "losses")
# Inputs the brute-force oracle may check: min dimension <= 8 and at most
# this many permutations to enumerate.
ORACLE_MAX_PERMS = 50_000
ORACLE_SAMPLE = 20


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, root]
        self.counters: Counter = Counter()
        self.solve_inputs: dict[str, set] = defaultdict(set)
        self.oracle_inputs: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        root = self.spans[parent][4] if parent is not None else len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, root])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()

    def caller(self) -> str:
        """Module of the innermost open span that is one of CALLERS."""
        for index in reversed(self._stack):
            module = self.spans[index][0].split(".", 1)[0]
            if module in CALLERS:
                return module
        return "other"

    # -- wrappers --------------------------------------------------------
    def _patch(self, module, attr: str, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Record a span named ``name`` around every call of module.attr.

        ``after(args, result)`` runs once the span has closed.
        """
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(args, result)
            return result

        self._patch(module, attr, traced)

    def count(self, module, attr: str, name: str) -> None:
        """Count calls of module.attr without a span (hot leaf functions)."""
        fn = getattr(module, attr)
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        self._patch(module, attr, counted)

    def wrap_solve(self, assignment) -> None:
        """Span around assignment.solve, with per-caller input statistics."""
        fn = assignment.solve

        def traced(m):
            caller = self.caller()
            index = self.begin(f"assignment.solve.{caller}")
            try:
                result = fn(m)
            finally:
                self.end(index)
            span = self.spans[index]
            c = self.counters
            c[f"assignment.solve_calls.{caller}"] += 1
            c[f"assignment.solve_ns.{caller}"] += span[2] - span[1]
            c[f"assignment.solve_cells.{caller}"] += m.rows * m.cols
            c[f"assignment.tied.{caller}"] += _has_tie(m.values)
            self.solve_inputs[caller].add(m.values)
            if _oracle_sized(m.rows, m.cols):
                self.oracle_inputs[caller].append(m)
            return result

        self._patch(assignment, "solve", traced)

    def absorb(self, other: "Tracer") -> None:
        """Append another tracer's spans, counters and captured inputs."""
        offset = len(self.spans)
        for name, start, end, parent, root in other.spans:
            self.spans.append([name, start, end,
                               None if parent is None else parent + offset, root + offset])
        self.counters.update(other.counters)
        for caller, inputs in other.solve_inputs.items():
            self.solve_inputs[caller] |= inputs
        for caller, inputs in other.oracle_inputs.items():
            self.oracle_inputs[caller] += inputs

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- results ---------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name] += (end - start - covered) / 1e9
        return out

    def total_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += (end - start) / 1e9
        return out

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            for index, (name, start, end, parent, root) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": index, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "trace": root,
                }) + "\n")


def _has_tie(values) -> bool:
    """True when some row or column of the cost matrix repeats a value.

    That is where the solver's lexicographic refiner has a choice to make.
    """
    if any(len(set(row)) < len(row) for row in values):
        return True
    return any(len(set(col)) < len(col) for col in zip(*values))


def _oracle_sized(rows: int, cols: int) -> bool:
    k, n = min(rows, cols), max(rows, cols)
    if k > 8:
        return False
    perms = 1
    for i in range(k):
        perms *= n - i
    return perms <= ORACLE_MAX_PERMS
