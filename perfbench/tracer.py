"""Self-time tracing of named library callables, installed from outside.

A :class:`Probe` names one callable by the dotted path its *caller* looks it
up under (``repro.fleet.scheduler.score_windows_batch``, not the defining
module, when the scheduler imported the name).  :class:`Tracer` replaces each
resolvable path with a timing wrapper for the duration of a ``with`` block and
puts the original objects back afterwards.  Each wrapper records a span:
its duration minus the time of wrapped spans it encloses is its *self* time,
summed per metric.

Two rules keep the wrappers from changing what the library does:

* a method is wrapped only at the class that defines it; a path naming an
  inherited method is reported as missing instead of shadowed in a subclass,
  because the library compares methods across classes (for instance
  ``repro.core.detector.shares_sanitized_view``);
* a path that no longer resolves is recorded in :attr:`Tracer.missing` and
  skipped, so renaming a library function lowers attribution but never
  breaks a run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

#: ``count(arguments, enclosing)`` returns ``(counter, amount)`` pairs for one
#: call, given the call's bound arguments by parameter name and the metrics of
#: the wrapped spans enclosing it, innermost last.
Counter = Callable[[Mapping[str, Any], tuple[str, ...]], Iterable[tuple[str, float]]]


@dataclass(frozen=True)
class Probe:
    """One traced callable: the span metric it feeds and where to patch it."""

    metric: str
    path: str
    count: Counter | None = None


def resolve(path: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, raw object)`` for a dotted path.

    The longest importable prefix is the module; the remaining names are
    looked up as attributes.  For a class owner the raw object comes from the
    class ``__dict__``, so an inherited method does not resolve.  Raises
    ``LookupError`` when the path does not name a callable defined there.
    """
    parts = path.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        break
    else:
        raise LookupError(f"{path}: no importable module prefix")
    for name in parts[split:-1]:
        try:
            owner = getattr(owner, name)
        except AttributeError:
            raise LookupError(f"{path}: {name!r} not found") from None
    attribute = parts[-1]
    if inspect.isclass(owner):
        raw = vars(owner).get(attribute)
        if raw is None:
            raise LookupError(f"{path}: not defined at {owner.__qualname__}")
    else:
        raw = getattr(owner, attribute, None)
    function = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
    if not callable(function):
        raise LookupError(f"{path}: not a callable")
    return owner, attribute, raw


class Tracer:
    """Install timing wrappers for *probes*; accumulate self time and counts.

    Use as a context manager; the wrappers exist only inside the block.
    Totals accumulate across blocks until :meth:`reset`.

    Attributes
    ----------
    self_s:
        Seconds per probe metric, excluding enclosed wrapped spans.
    counts:
        Counter totals: ``<metric>.calls`` for every probe plus whatever the
        probes' count functions report.
    missing:
        Probe paths that did not resolve at the last install, and paths
        whose count function failed, with the reason.
    """

    def __init__(
        self, probes: Sequence[Probe], *, clock: Callable[[], float] = time.perf_counter
    ) -> None:
        self.probes = tuple(probes)
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._stack: list[list[Any]] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        """Forget accumulated totals (installed wrappers stay)."""
        self.self_s.clear()
        self.counts.clear()

    @property
    def total_self_s(self) -> float:
        """Sum of every probe's self time."""
        return sum(self.self_s.values())

    # ------------------------------------------------------------------ #
    # install / restore
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "Tracer":
        if self._installed:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        try:
            for probe in self.probes:
                try:
                    owner, attribute, raw = resolve(probe.path)
                except LookupError as exc:
                    self.missing.append(str(exc))
                    continue
                setattr(owner, attribute, self._wrap(probe, raw))
                self._installed.append((owner, attribute, raw))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._installed:
            owner, attribute, raw = self._installed.pop()
            setattr(owner, attribute, raw)

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #
    def _wrap(self, probe: Probe, raw: Any) -> Any:
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        function = raw.__func__ if kind is not None else raw
        count = probe.count
        signature = inspect.signature(function) if count is not None else None
        metric = probe.metric
        calls_key = f"{metric}.calls"
        stack = self._stack
        clock = self.clock
        self_s = self.self_s
        counts = self.counts

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[calls_key] += 1
            if count is not None:
                self._count(probe.path, count, signature, args, kwargs)
            frame = [metric, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[metric] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return kind(wrapper) if kind is not None else wrapper

    def _count(
        self,
        path: str,
        count: Counter,
        signature: inspect.Signature,
        args: tuple[Any, ...],
        kwargs: dict[str, Any],
    ) -> None:
        enclosing = tuple(frame[0] for frame in self._stack)
        try:
            arguments = signature.bind(*args, **kwargs).arguments
            increments = list(count(arguments, enclosing))
        except (TypeError, KeyError) as exc:
            reason = f"{path}: count failed ({exc})"
            if reason not in self.missing:
                self.missing.append(reason)
            return
        for key, amount in increments:
            self.counts[key] += amount
