"""In-memory span tracer that wraps a package's public functions from outside.

A target such as "omp.omp" or "omp.VectorizedProblem.correlate" names a
function or method of a submodule. Installing the tracer replaces that object
wherever the package has bound it: the defining module, every module that
imported it with `from ... import`, and module-level dicts that hold it (such
as a name -> function registry). Methods are replaced on their class.
`uninstall` puts every original back.

Each call records a span: name, start, end, parent span, the summed time of
its direct children (so self time = duration - child time), and attributes
that an optional hook derives from the arguments and the result.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self, package: str, targets: dict):
        """targets maps "module.attr[.attr]" to a hook or None.

        A hook is called as hook(arguments, result) with the bound call
        arguments as a dict and returns attributes to store on the span.
        """
        self.package = package
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # ------------------------------------------------------------ patching

    def _resolve(self, target: str):
        mod_name, *path = target.split(".")
        owner = importlib.import_module(f"{self.package}.{mod_name}")
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        return owner, path[-1]

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        replacements = {}
        for target, hook in self.targets.items():
            owner, attr = self._resolve(target)
            original = owner.__dict__[attr]
            wrapper = self._wrap(target, original, hook)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
                self._restore.append(("attr", owner, attr, original))
            else:
                replacements[id(original)] = (original, wrapper)
        prefix = self.package + "."
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package or name.startswith(prefix))]
        seen_dicts = set()
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append(("attr", module, attr, value))
                elif isinstance(value, dict) and id(value) not in seen_dicts:
                    seen_dicts.add(id(value))
                    for key, item in list(value.items()):
                        hit = replacements.get(id(item))
                        if hit is not None and hit[0] is item:
                            value[key] = hit[1]
                            self._restore.append(("item", value, key, item))

    def uninstall(self) -> None:
        for kind, owner, key, original in reversed(self._restore):
            if kind == "attr":
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._restore.clear()

    def _wrap(self, name: str, fn, hook):
        tracer = self
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span = Span(name, parent)
            tracer.spans.append(span)
            stack.append(len(tracer.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    tracer.spans[parent].child_s += span.end - span.start
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs.update(hook(bound.arguments, result))
            return result

        return traced

    # ------------------------------------------------------------- queries

    def ancestor(self, span: Span, names) -> str | None:
        """Name of the nearest enclosing span whose name is in names."""
        idx = span.parent
        while idx is not None:
            up = self.spans[idx]
            if up.name in names:
                return up.name
            idx = up.parent
        return None

    def select(self, name: str, under: str | None = None, **attrs) -> list[Span]:
        """Spans called name, optionally inside an `under` span and with
        matching attribute values."""
        out = []
        for span in self.spans:
            if span.name != name:
                continue
            if under is not None and self.ancestor(span, (under,)) is None:
                continue
            if any(span.attrs.get(k) != v for k, v in attrs.items()):
                continue
            out.append(span)
        return out
