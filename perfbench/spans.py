"""In-memory spans around the package's layer boundaries.

The benchmark does not edit the package. It replaces, for the length of one
traced repetition, the names that ``sim``, ``verify`` and ``cli`` imported
from the lower layers with wrappers that record a span per call: its name,
start, end, parent span and the amount of work (draws or evaluations) it was
given. A name the package no longer has is skipped, so its metrics read 0.

Spans recorded in forked pool workers would be lost, so traced repetitions
always run with one worker.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

import numpy as np

from workloads import cli, sim, verify


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, work]
        self._stack = []

    def wrap(self, fn, name, work=None):
        """Wrap fn so each call records a span. `name` may be a function of
        the positional arguments; `work(args, kwargs, result)` gives the
        span's amount of work."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name(args) if callable(name) else name, 0.0, 0.0,
                    stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def span(self, name):
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds, work.

        Self time is a span's duration minus the durations of its direct
        children; children of one span never overlap (one thread)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        for i, (name, start, end, _, work) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
            row["work"] += work
        return out

    def children_of(self, parent_name, child_name):
        """For each span named parent_name, how many direct children are named child_name."""
        counts = {i: 0 for i, s in enumerate(self.spans) if s[0] == parent_name}
        for s in self.spans:
            if s[0] == child_name and s[3] in counts:
                counts[s[3]] += 1
        return list(counts.values())

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "work"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _policy_span(args):
    kind = type(args[0]).__name__.lower()
    if "full" in kind:
        return "policy.full_csi"
    if "partial" in kind:
        return "policy.partial_csi"
    return "policy.fixed"


def _n_arg(index, factor=1):
    return lambda args, kwargs, result: factor * int(args[index])


def _size(args, kwargs, result):
    return int(np.size(result))


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _count(args, kwargs, result):
    """A battery's instance count; run_all passes it by keyword."""
    return int(kwargs.get("count", args[0] if args else 0))


# module -> {attribute: (span name, work function or None)}
def _targets():
    return {
        sim: {
            "substream": ("channel.substream", None),
            "sample_channels": ("channel.sample_channels", _n_arg(2, 2)),
            "sample_gains": ("channel.sample_gains", _n_arg(2)),
            "decide_rho": (_policy_span, None),
            "snr": ("link.snr", _size),
            "conditional_outage": ("link.conditional_outage", _size),
            "outage_point": ("sim.outage_point", None),
            "outage_semi_analytic": ("sim.outage_semi_analytic", None),
        },
        verify: {
            "battery_full_csi": ("verify.full_csi", _count),
            "battery_partial_csi": ("verify.partial_csi", _count),
            "battery_snr_identity": ("verify.snr_identity", _count),
            "battery_estimator_cross_check": ("verify.cross_check", None),
            "full_csi_rho": ("policy.scalar", None),
            "partial_csi_rho": ("policy.scalar", None),
            "oracle_grid_full": ("policy.oracle", None),
            "oracle_grid_partial": ("policy.oracle", None),
            "snr": ("link.snr", _size),
            "outage_mc": ("sim.outage_mc", None),
            "outage_semi_analytic": ("sim.outage_semi_analytic", None),
        },
        cli: {
            "run_sweep": ("sim.run_sweep", None),
            "_load_config": ("cli.parse", None),
            "_sweep_spec": ("cli.parse", None),
            "_write_csv": ("cli.csv_write", _csv_bytes),
        },
    }


@contextlib.contextmanager
def installed(wrappers):
    """Set module attributes for the duration of the block, then restore them."""
    saved = []
    try:
        for module, attrs in wrappers.items():
            for attr, value in attrs.items():
                if hasattr(module, attr):
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def traced(tracer):
    """Every layer wrapper of _targets, recording into tracer."""
    return installed({
        module: {attr: tracer.wrap(getattr(module, attr), name, work)
                 for attr, (name, work) in attrs.items() if hasattr(module, attr)}
        for module, attrs in _targets().items()
    })


class PoolProbe:
    """Untraced counters for the pool: how many executors sim starts, and the
    wall time of each outage_point call (one wrapper per sweep point)."""

    def __init__(self):
        self.pool_starts = 0
        self.point_s = []

    def installed(self):
        probe = self
        base = sim.ProcessPoolExecutor

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                probe.pool_starts += 1
                super().__init__(*args, **kwargs)

        point = sim.outage_point

        def timed_point(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return point(*args, **kwargs)
            finally:
                probe.point_s.append(time.perf_counter() - t0)

        return installed({sim: {"ProcessPoolExecutor": CountingPool, "outage_point": timed_point}})
