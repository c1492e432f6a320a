"""Span tracing around the calls into zetacycles, installed from outside.

The package is not modified: `Tracer.install` rebinds module attributes
(every name in every loaded `zetacycles.*` module that refers to a target
function) to timing wrappers, and `uninstall` restores the originals.

Two kinds of target:

- span targets (layer calls such as `cycles.scan`) record one `Span` per
  call, with its parent, so a layer's self time is its duration minus what
  its child spans and leaf calls cover;
- leaf targets (`specfun.zeta_critical`, `schwartz.mellin_psi`, ...) run
  hundreds of thousands of times, so they only add a count and busy time
  to the innermost open span.

A leaf re-entered while already active (zeta_critical recursing for t < 0,
gamma_complex reflecting) is passed through uncounted, so counts are calls
made from outside that function; so is a leaf called while no span is
open. `specfun.zeta_critical` also counts the calls its dispatch sends to
the Riemann-Siegel branch (|t| >= rs_threshold). Everything stays in
memory until `spans` is read at the end of a pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

PACKAGE = "zetacycles"
RS_LEAF = "specfun.zeta_critical"


@dataclass
class LeafStats:
    calls: int = 0
    busy_s: float = 0.0
    rs_calls: int = 0  # RS_LEAF only


@dataclass
class Span:
    name: str
    request: int
    parent: int | None
    start: float
    end: float = 0.0
    covered: float = 0.0  # time covered by child spans and outermost leaf calls
    leaves: dict[str, LeafStats] = field(default_factory=dict)
    attrs: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def leaf(self, name: str) -> LeafStats:
        return self.leaves.setdefault(name, LeafStats())

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "request": self.request,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
            "self_s": self.duration - self.covered,
            "leaves": {
                k: {"calls": v.calls, "busy_s": v.busy_s, "rs_calls": v.rs_calls}
                for k, v in self.leaves.items()
            },
            "attrs": self.attrs,
        }


# A hook sees (span, bound arguments, result) after a span target returns.
SpanHook = Callable[[Span, inspect.BoundArguments, object], None]


class Tracer:
    def __init__(self, rs_threshold: float | None = None) -> None:
        """`rs_threshold` is the default EvalConfig's; None when the
        package has none, and then RS_LEAF counts no rs_calls."""
        self.rs_threshold = rs_threshold
        self.spans: list[Span] = []
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._active_leaves: set[str] = set()
        self._request = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self._request, parent, perf_counter()))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, inside_leaf: bool) -> Span:
        span = self.spans[index]
        span.end = perf_counter()
        self._stack.pop()
        if span.parent is not None and not inside_leaf:
            self.spans[span.parent].covered += span.duration
        return span

    def request(self, name: str, fn: Callable[[], object]) -> object:
        """Run fn as one request under a root span called `name`."""
        self._request += 1
        index = self._open(name)
        try:
            return fn()
        finally:
            self._close(index, inside_leaf=False)

    def reset(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name: str, fn: Callable, hook: SpanHook | None) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inside_leaf = bool(self._active_leaves)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(index, inside_leaf)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                try:
                    hook(span, bound, result)
                except (AttributeError, KeyError, TypeError):
                    self.missing.add(f"{name}:result")  # result no longer has that shape
            return result

        return wrapper

    def _on_rs_branch(self, args: tuple, kwargs: dict) -> bool:
        t = args[0] if args else kwargs["t"]
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
        threshold = self.rs_threshold if cfg is None else cfg.rs_threshold
        return abs(float(t)) >= threshold

    def _leaf_wrapper(self, name: str, fn: Callable) -> Callable:
        count_rs = name == RS_LEAF and self.rs_threshold is not None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in self._active_leaves or not self._stack:
                return fn(*args, **kwargs)
            outermost = not self._active_leaves
            self._active_leaves.add(name)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._active_leaves.discard(name)
                span = self.spans[self._stack[-1]]
                stats = span.leaf(name)
                stats.calls += 1
                stats.busy_s += elapsed
                if outermost:
                    span.covered += elapsed
                if count_rs and self._on_rs_branch(args, kwargs):
                    stats.rs_calls += 1

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self, spans: dict[str, SpanHook | None], leaves: tuple[str, ...]) -> None:
        """Wrap every binding of each `module.function` target.

        A target whose module or attribute no longer exists is recorded in
        `missing` instead of raising, so a later refactor degrades the
        report rather than the run.
        """
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        targets = [(t, functools.partial(self._span_wrapper, hook=h)) for t, h in spans.items()]
        targets += [(t, self._leaf_wrapper) for t in leaves]
        for target, make in targets:
            module_name, _, attr = target.rpartition(".")
            try:
                original = getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), attr)
            except (ImportError, AttributeError):
                self.missing.add(target)
                continue
            wrapper = make(target, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._saved):
            setattr(module, key, original)
        self._saved.clear()
