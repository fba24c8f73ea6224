"""Spans and call counters recorded from outside the program.

The benchmark wraps its own calls into rarecast's public functions in spans;
nothing inside the package is instrumented. Spans stay in memory until the
run ends and are then written out with the result.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field
from types import ModuleType
from typing import Iterator

from clock import Calibrator


@dataclass(eq=False)
class Span:
    trace: str
    span_id: int
    parent: int | None
    name: str
    phase: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    paused: float = 0.0  # calibration time that ran inside the span, see clock.py
    factor: float = 1.0  # reference-speed factor of the span's root
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start - self.paused

    @property
    def self_s(self) -> float:
        """Duration minus the time covered by child spans (children never overlap)."""
        return self.seconds - self.child_s


class Tracer:
    """Nested spans in one thread. A root span opens a trace that its children share.

    Calibration time is taken out of every span. Each root span is timed by
    the calibrator, and every span under it takes the root's reference-speed
    factor.
    """

    def __init__(self, clock: Calibrator) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str, trace: str | None = None, phase: str = "run") -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if parent is None and trace is None:
            raise ValueError(f"span {name!r}: a root span needs a trace id")
        with self._clock.timed() if parent is None else nullcontext() as timed:
            s = Span(
                trace=parent.trace if parent else trace,
                span_id=len(self.spans),
                parent=parent.span_id if parent else None,
                name=name,
                phase=parent.phase if parent else phase,
                start=time.perf_counter(),
            )
            self.spans.append(s)
            self._stack.append(s)
            try:
                yield s
            finally:
                s.end = time.perf_counter()
                s.paused = self._clock.kernel_time(s.start, s.end)
                self._stack.pop()
                if parent is not None:
                    parent.child_s += s.seconds
        if timed is not None:
            for child in self.spans[s.span_id :]:
                child.factor = timed.factor

    def named(self, name: str) -> list[Span]:
        """Spans called name in the timed phase, or in set-up when the timed phase has none."""
        run = [s for s in self.spans if s.name == name and s.phase == "run"]
        return run or [s for s in self.spans if s.name == name]

    def self_seconds(self, name: str) -> float:
        """Self time of the spans called name, in reference seconds."""
        return sum(s.self_s * s.factor for s in self.named(name))

    def attr_sum(self, name: str, key: str) -> int:
        return sum(int(s.attrs.get(key, 0)) for s in self.named(name))

    def self_time_table(self) -> dict[str, dict[str, float]]:
        """Self time (reference seconds) and call count by (phase, span name)."""
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(f"{s.phase}:{s.name}", {"self_s": 0.0, "calls": 0})
            row["self_s"] += s.self_s * s.factor
            row["calls"] += 1
        return out

    def to_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


@contextmanager
def count_calls(module: ModuleType, names: tuple[str, ...]) -> Iterator[dict[str, int]]:
    """Count calls to module.<name> made through the module attribute.

    The originals are put back on exit. Callers that bound the function
    directly (from module import name) are not counted.
    """
    counts = dict.fromkeys(names, 0)
    originals = {n: getattr(module, n) for n in names}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for n, fn in originals.items():
        setattr(module, n, counted(n, fn))
    try:
        yield counts
    finally:
        for n, fn in originals.items():
            setattr(module, n, fn)
