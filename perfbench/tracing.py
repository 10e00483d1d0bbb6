"""Spans, the operation ledger, and the instrumented oracles of the traced run.

Every public call the benchmark makes into the package is timed as a span:
name, tag, start, end and parent, all under one run id.  An untraced run
records only these coarse spans.  A traced run also hands the optimizers the
oracle subclasses below, which add one span per oracle construction and per
query, so per-layer time can be derived from outside the package.
"""

from __future__ import annotations

import time
import uuid
from contextlib import contextmanager

from infmax import ExactOracle, MonteCarloOracle

from calibrate import Speed


class Tracer:
    """In-memory span recorder; spans nest by call order."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        # Each span is [name, tag, start, end, parent index or -1].
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, tag: str = ""):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, tag, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(idx)
        try:
            yield idx
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def duration(self, idx: int) -> float:
        return self.spans[idx][3] - self.spans[idx][2]

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "fields": ["name", "tag", "start", "end", "parent"],
            "spans": self.spans,
        }


class Ledger:
    """Operations attempted and failed.  A failed check is recorded, not raised."""

    def __init__(self):
        self.attempted = 0
        self._failures: dict[int, list[str]] = {}
        self._labels: dict[int, str] = {}

    def begin(self, label: str) -> int:
        self.attempted += 1
        self._labels[self.attempted] = label
        return self.attempted

    def check(self, op: int, ok: bool, message: str) -> None:
        if not ok:
            self._failures.setdefault(op, []).append(message)

    @property
    def failed(self) -> int:
        return len(self._failures)

    def problems(self) -> list[str]:
        return [f"{self._labels[op]}: {'; '.join(msgs)}" for op, msgs in sorted(self._failures.items())]


class Run:
    """One benchmark run: its spans, its ledger, its speed samples, and
    whether oracles are traced."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.tracer = Tracer()
        self.ledger = Ledger()
        self.speed = Speed()

    def call(self, name: str, fn, *args, tag: str = ""):
        """Time fn(*args) as one operation; returns (result or None, op, span index).

        An exception is the operation's failure: it is recorded and the
        result is None, so the rest of the pass still runs and is checked.
        """
        op = self.ledger.begin(name)
        with self.tracer.span(name, tag) as idx:
            try:
                result = fn(*args)
            except Exception as exc:  # counted toward error_rate, never hidden
                self.ledger.check(op, False, f"raised {type(exc).__name__}: {exc}")
                result = None
        return result, op, idx

    def mc_oracle(self, graph, model, cfg):
        if self.traced:
            return TracedMonteCarloOracle(self.tracer, graph, model, cfg)
        return MonteCarloOracle(graph, model, cfg)

    def exact_oracle(self, graph, model):
        if self.traced:
            return TracedExactOracle(self.tracer, graph, model)
        return ExactOracle(graph, model)


def _query_tag(seen: set, seeds) -> str:
    key = frozenset(int(v) for v in seeds)
    tag = "hit" if key in seen else ("first" if not seen else "miss")
    seen.add(key)
    return tag


class TracedMonteCarloOracle(MonteCarloOracle):
    """MonteCarloOracle with a span per construction and per sigma query."""

    def __init__(self, tracer: Tracer, graph, model, cfg):
        self._tracer = tracer
        self.seen: set[frozenset] = set()
        with tracer.span("cascade.init"):
            super().__init__(graph, model, cfg)

    def sigma(self, seeds):
        with self._tracer.span("cascade.sigma", _query_tag(self.seen, seeds)):
            return super().sigma(seeds)


class TracedExactOracle(ExactOracle):
    """ExactOracle with a span per construction and per value query.

    sigma() goes through value(), and so does the optimizers' final exact
    estimate, so every query is seen once.
    """

    def __init__(self, tracer: Tracer, graph, model):
        self._tracer = tracer
        self.seen: set[frozenset] = set()
        with tracer.span("cascade.init"):
            super().__init__(graph, model)

    def value(self, seeds):
        with self._tracer.span("cascade.sigma", _query_tag(self.seen, seeds)):
            return super().value(seeds)
