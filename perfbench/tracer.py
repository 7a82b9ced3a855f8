"""Span tracer that wraps exkit's module functions from the outside.

``Tracer.install`` replaces every traced function in every ``exkit`` module
namespace that binds it (so ``from .x import f`` copies are caught too) and
``Tracer.restore`` puts the originals back.  Nothing under ``src/`` changes.

Each call is one span; a wrapped generator gets one span per resume, so its
span covers the iteration and not the consumer's work between resumes.  A
span's self time is its duration minus the time covered by its child spans.
The wrapper's own bookkeeping is charged to the caller as child time, so the
caller's self time does not absorb the tracing overhead.  Spans are folded
into per-function totals as they close; only those totals are kept.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

# The modules whose functions are traced ("mp" is on no certifier path).
LAYERS = ("relations", "graphs", "reduction", "intervals", "core",
          "conditional", "games", "serialize", "cli")

# Private functions that are layer boundaries a metric needs.
PRIVATE = {"graphs._bareiss_det"}

# Public functions left unwrapped.  ``compositions`` is a recursive generator
# resumed once per enumeration candidate at every recursion level, so a span
# per resume would multiply the enumeration time; its time stays in
# ``relations.enumerate_s`` and its work is counted by ``relations.candidates``.
SKIP = {"relations.compositions"}

WRAPPED_MARK = "__perfbench_traced__"


def exkit_namespaces() -> list:
    """Every loaded exkit module, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "exkit" or name.startswith("exkit."))]


def traced_functions() -> dict:
    """Map "layer.name" to the original function object."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"exkit.{layer}"]
        for attr, obj in vars(module).items():
            key = f"{layer}.{attr}"
            if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            if key in SKIP or (attr.startswith("_") and key not in PRIVATE):
                continue
            found[key] = obj
    return found


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Records per-function call counts, total and self time.

    ``observers`` maps a "layer.name" key to ``fn(tracer, args, kwargs,
    result)``, called after the span closes to derive counts from the
    arguments and results (not called for generator functions).
    """

    def __init__(self, observers: dict | None = None) -> None:
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self.observers = observers or {}
        # One entry per open span: [key, time covered by children].
        self.stack: list[list] = []
        self._replaced: list[tuple[object, str, object]] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def parent(self) -> str | None:
        return self.stack[-1][0] if self.stack else None

    # -- wrapping -------------------------------------------------------------

    def _wrap_function(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        stack = self.stack
        observe = self.observers.get(key)
        tracer = self

        def traced(*args, **kwargs):
            start = perf_counter()
            frame = [key, 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:  # also when fn raises, so the caller's self time stays right
                stop = perf_counter()
                stack.pop()
                stat.calls += 1
                stat.total += stop - start
                stat.self_time += stop - start - frame[1]
                if stack:
                    stack[-1][1] += perf_counter() - start
            if observe is not None:
                observed = perf_counter()
                observe(tracer, args, kwargs, result)
                if stack:
                    stack[-1][1] += perf_counter() - observed
            return result

        return traced

    def _wrap_generator(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        stack = self.stack

        def resume(gen):
            while True:
                start = perf_counter()
                frame = [key, 0.0]
                stack.append(frame)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    stop = perf_counter()
                    stack.pop()
                    stat.total += stop - start
                    stat.self_time += stop - start - frame[1]
                    if stack:
                        stack[-1][1] += perf_counter() - start
                yield item

        def traced(*args, **kwargs):
            stat.calls += 1
            return resume(fn(*args, **kwargs))

        return traced

    def install(self) -> list[str]:
        """Wrap every traced function in every exkit namespace; returns the
        keys wrapped."""
        originals = traced_functions()
        wrappers = {}
        for key, fn in originals.items():
            make = self._wrap_generator if inspect.isgeneratorfunction(fn) else self._wrap_function
            wrapper = make(key, fn)
            setattr(wrapper, WRAPPED_MARK, key)
            wrapper.__wrapped__ = fn
            wrappers[id(fn)] = wrapper
        for module in exkit_namespaces():
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._replaced.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        return sorted(originals)

    def restore(self) -> None:
        while self._replaced:
            module, attr, original = self._replaced.pop()
            setattr(module, attr, original)

    @property
    def replaced_names(self) -> list[str]:
        return sorted(f"{m.__name__}.{attr}" for m, attr, _ in self._replaced)


def snapshot() -> dict:
    """Identity of every attribute of every loaded exkit module."""
    return {(m.__name__, attr): id(obj)
            for m in exkit_namespaces() for attr, obj in vars(m).items()}


def traced_leftovers() -> list[str]:
    """Names in exkit namespaces that are still tracer wrappers."""
    return sorted(f"{m.__name__}.{attr}" for m in exkit_namespaces()
                  for attr, obj in vars(m).items() if hasattr(obj, WRAPPED_MARK))
