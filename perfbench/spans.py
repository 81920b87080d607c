"""Benchmark-side spans around the healthval calls an op makes.

The tracer replaces module attributes of the package with wrappers for
the length of one traced op, so calls made from inside the package (for
example ``be_report`` calling ``simulate_portfolio``) are seen as well
as the benchmark's own calls.  Spans (name, start, end, parent) are kept
in memory; counts are recorded at the same call boundaries.  Nothing in
the package itself is changed, and untraced ops run the original
functions.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _simulate_name(args, kwargs) -> str:
    """``simulate_portfolio(portfolio, s, spread=None, cap=None)``: capped calls get their own span."""
    cap = kwargs.get("cap", args[3] if len(args) > 3 else None)
    return "policy_engine.simulate_portfolio" + ("" if cap is None else "_capped")


def _path_years(tracer, args, kwargs, result):
    portfolio = args[0]
    s = args[1] if len(args) > 1 else kwargs["s"]
    tracer.counts["policy_engine.policy_path_years"] += s.n_paths * sum(
        p.run_off + 1 for p in portfolio
    )


def _esg_path_years(tracer, args, kwargs, result):
    tracer.counts["esg.path_years"] += result.n_paths * result.horizon


def _triangle_entries(tracer, args, kwargs, result):
    tracer.counts["decomposition.triangle_entries"] += len(result.coeffs)


def _bytes_written(n_paths):
    def record(tracer, args, kwargs, result):
        for path in args[:n_paths]:
            tracer.counts["io_files.bytes_written"] += os.path.getsize(path)

    return record


#: (span name, or a function of the call's arguments giving it, or None to
#: count only; targets as (module, attribute); hook run on the result)
INSTRUMENTS = (
    ("cli.main", (("cli", "main"),), None),
    ("io_files.load_curve", (("io_files", "load_curve"), ("cli", "load_curve")), None),
    ("io_files.load_portfolio", (("io_files", "load_portfolio"), ("cli", "load_portfolio")), None),
    ("esg.mc_model", (("esg", "mc_model"), ("io_files", "mc_model")), _esg_path_years),
    ("esg.calibration_check", (("esg", "calibration_check"), ("cli", "calibration_check")), None),
    ("term_structures.scenario_set", (("esg", "ScenarioSet"),), None),
    ("pricing.building_blocks", (("pricing", "building_blocks"), ("cli", "building_blocks")), None),
    ("pricing.be_report", (("pricing", "be_report"), ("cli", "be_report")), None),
    (
        "decomposition.aggregate",
        (("decomposition", "aggregate"), ("pricing", "aggregate"), ("cli", "aggregate")),
        None,
    ),
    (None, (("decomposition", "gross_coefficients"),), _triangle_entries),
    (
        "decomposition.be_from_blocks",
        (("decomposition", "be_from_blocks"), ("pricing", "be_from_blocks"), ("cli", "be_from_blocks")),
        None,
    ),
    (
        _simulate_name,
        (("policy_engine", "simulate_portfolio"), ("pricing", "simulate_portfolio"), ("cli", "simulate_portfolio")),
        _path_years,
    ),
    ("io_files.write_scenarios", (("io_files", "write_scenarios"), ("cli", "write_scenarios")), _bytes_written(1)),
    ("io_files.write_triangle", (("io_files", "write_triangle"), ("cli", "write_triangle")), _bytes_written(2)),
    ("io_files.write_blocks", (("io_files", "write_blocks"), ("cli", "write_blocks")), _bytes_written(1)),
    (
        "reporting.render",
        (
            ("reporting", "dumps"),
            ("reporting", "table"),
            ("reporting", "svg_bar_chart"),
            ("reporting", "svg_line_chart"),
        ),
        None,
    ),
)


class Tracer:
    """In-memory span and count recorder for one process, one op at a time."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op index]
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches = []
        for name, targets, hook in INSTRUMENTS:
            for module_name, attr in targets:
                module = importlib.import_module(f"healthval.{module_name}")
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._patches.append((module, attr, original, self._wrap(name, original, hook)))

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            if span_name is None:
                result = fn(*args, **kwargs)
            else:
                with tracer.span(span_name):
                    result = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def op(self):
        """Record one op: patch the package, open the root span, restore on exit."""
        self._op += 1
        self.counts = Counter()
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            with self.span("op"):
                yield
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    def op_summary(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self time per span name and the counts of the op just recorded."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == self._op]
        child_time: defaultdict[int, float] = defaultdict(float)
        for _, (_, start, end, parent, _) in spans:
            if parent is not None:
                child_time[parent] += end - start
        self_time: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in spans:
            self_time[name] += (end - start) - child_time[i]
        return dict(self_time), dict(self.counts)
