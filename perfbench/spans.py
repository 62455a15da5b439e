"""Spans around calls into cavlab's public functions.

:class:`Tracer` replaces every function named in a module's ``__all__`` (plus
``cli.main``) with a wrapper that records one :class:`Span` per call, kept in
memory.  Names other cavlab modules bound with ``from .x import f`` are
rebound too, so those calls are seen.  Not seen: private helpers (their time
is self time of the public caller), references taken before
:meth:`Tracer.install`, and work in other processes.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from dataclasses import dataclass
from types import ModuleType

LAYERS = ("model", "analytic", "moments", "liouville", "validation", "cli")


# What a span records besides its time, per function: a Hilbert dimension,
# a generator's nonzero count, a grid size or the CLI command.
DETAILS = {
    "liouville.steady_state": lambda args, result: math.prod(args["dims"]),
    "liouville.build_liouvillian": lambda args, result: int(result.nnz),
    "liouville.probe_spectrum": lambda args, result: len(args["grid"]),
    "cli.main": lambda args, result: args["argv"][0],
}


@dataclass(slots=True)
class Span:
    name: str            # "<layer>.<function>"
    parent: int | None   # index of the enclosing span, None at the top
    run_id: str          # the operation that caused it
    start: float
    end: float = math.nan
    error: bool = False
    detail: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def row(self) -> list:
        """The span as one JSON-ready row, in :data:`SPAN_FIELDS` order."""
        return [self.name, self.parent, self.run_id, self.start, self.end,
                self.error, self.detail]


SPAN_FIELDS = ("name", "parent", "run_id", "start", "end", "error", "detail")


class Tracer:
    """Records a span per call into the wrapped functions while installed.

    Spans are recorded only while :attr:`run_id` is set, so the harness's own
    calls (input generation, output checks) stay out of the trace.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id: str | None = None
        self._open: list[int] = []
        self._patches: list[tuple[dict, str, object]] = []

    def wrap(self, name: str, fn):
        """A wrapper around ``fn`` that records spans named ``name``."""
        detail = DETAILS.get(name)
        signature = inspect.signature(fn) if detail else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.run_id is None:
                return fn(*args, **kwargs)
            span = Span(name, self._open[-1] if self._open else None,
                        self.run_id, time.perf_counter())
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if detail is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.detail = detail(bound.arguments, result)
            return result

        return traced

    def install(self, package: ModuleType) -> None:
        """Wrap the public functions of each cavlab layer module."""
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, module in modules.items():
            names = ["main"] if layer == "cli" else module.__all__
            for attr in names:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrapped[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        # rebind every module-level name that refers to a wrapped function,
        # including aliases made by ``from .model import derive``
        for namespace in [vars(package)] + [vars(m) for m in modules.values()]:
            for attr, value in list(namespace.items()):
                if id(value) in wrapped:
                    self._patches.append((namespace, attr, value))
                    namespace[attr] = wrapped[id(value)]

    def remove(self) -> None:
        """Restore every name :meth:`install` rebound."""
        for namespace, attr, original in reversed(self._patches):
            namespace[attr] = original
        self._patches.clear()


def self_seconds(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.seconds - covered)
    return out
