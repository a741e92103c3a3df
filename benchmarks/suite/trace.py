"""Span tracer installed from outside the program.

The suite may not edit ``src/``, so layer boundaries are instrumented
from here: :meth:`Tracer.install` resolves each :class:`Target` by
dotted name and swaps a timing wrapper in — class attributes directly,
free functions by replacing every alias across the loaded ``repro.*``
modules, generators timed per ``next()`` so the consumer's time between
items is not charged to the producer. A target that no longer resolves
is recorded in :attr:`Tracer.missing` and warned about, never raised:
later refactors cannot edit this directory, so a renamed entry point
must cost one per-layer metric, not the whole benchmark.

Spans and work counts live in per-thread columnar buffers (one
``array`` per field — a served run records ~10^5 spans, a scan-heavy
embedded run ~10^6) and are merged by :meth:`Tracer.collect` into a
:class:`Spans` table that computes self time and is written out when
the run ends. Times are ``time.perf_counter`` readings, which on Linux
is the system-wide monotonic clock, so a harness process can cut a
server process's table at an instant of its own (:meth:`Spans.window`).
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
import warnings
import weakref
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

#: Span-name callback: ``(args, kwargs, result) -> name``, evaluated when
#: the call returns (fitters are named after the model they fit).
SpanName = Callable[[tuple, dict, Any], str]
#: Count callback: ``(add, args, kwargs, result)`` records work counts
#: with ``add(name, amount)`` at the boundary the time is taken at. A
#: generator's ``result`` is the number of items it yielded.
CountHook = Callable[[Callable[[str, float], None], tuple, dict, Any], None]

_ERROR_SUFFIX = "!error"


@dataclass(frozen=True)
class Target:
    """One entry point to wrap.

    ``path`` is ``"package.module:attr"`` for a free function or
    ``"package.module:Class.attr"`` for a method. ``kind`` is ``"call"``
    (time the call), ``"generator"`` (time each ``next()``, one span per
    iteration run) or ``"instances"`` (wrap ``__init__`` and remember
    the objects, for reading their ``stats()`` when the run ends).
    ``subclasses`` also wraps every loaded subclass that overrides the
    method, which is how abstract entry points are covered.
    """

    path: str
    span: str | SpanName
    kind: str = "call"
    count: CountHook | None = None
    subclasses: bool = False


class _Buffer:
    """One thread's spans and counts, stored column-wise."""

    def __init__(self, name_id: Callable[[str], int]) -> None:
        self._name_id = name_id
        self.names = array("i")
        self.starts = array("d")
        self.durations = array("d")
        self.parents = array("i")
        self.operations = array("i")
        self.count_names = array("i")
        self.count_values = array("d")
        self.count_times = array("d")
        self.current = -1
        self.operation = -1

    def open(self, started: float) -> int:
        index = len(self.starts)
        self.names.append(-1)
        self.starts.append(started)
        self.durations.append(0.0)
        self.parents.append(self.current)
        self.operations.append(self.operation)
        self.current = index
        return index

    def add(self, name: str, amount: float) -> None:
        self.count_names.append(self._name_id(name))
        self.count_values.append(amount)
        self.count_times.append(perf_counter())


_SPAN_FIELDS = ("name", "start", "duration", "parent", "operation")
_COUNT_FIELDS = ("count_name", "count_value", "count_time")


class Spans:
    """The merged span table of one run, plus its log of work counts.

    ``duration`` is end minus start for calls; for generator spans it is
    the time spent inside ``next()`` only. ``parent`` indexes this table
    (``-1`` for a root); spans of one operation share ``operation``.
    """

    def __init__(self, names: list[str], columns: dict[str, np.ndarray]) -> None:
        self.names = names
        self.columns = columns
        self.name = columns["name"]
        self.start = columns["start"]
        self.duration = columns["duration"]
        self.parent = columns["parent"]
        self.operation = columns["operation"]

    def __len__(self) -> int:
        return len(self.name)

    def window(self, since: float) -> "Spans":
        """The spans and counts that began at or after ``since``.

        Cuts set-up and warm-up off a table; a kept span whose parent
        began earlier becomes a root.
        """
        keep = self.start >= since
        position = np.cumsum(keep) - 1
        parent = self.parent[keep]
        inside = parent >= 0
        inside[inside] = keep[parent[inside]]
        parent = np.where(inside, position[np.where(inside, parent, 0)], -1)
        columns = {key: self.columns[key][keep] for key in _SPAN_FIELDS}
        columns["parent"] = parent
        counted = self.columns["count_time"] >= since
        for key in _COUNT_FIELDS:
            columns[key] = self.columns[key][counted]
        return Spans(self.names, columns)

    @functools.cached_property
    def self_time(self) -> np.ndarray:
        """Each span's duration minus what its child spans cover."""
        covered = np.zeros(len(self))
        has_parent = self.parent >= 0
        np.add.at(
            covered, self.parent[has_parent], self.duration[has_parent]
        )
        return self.duration - covered

    def _id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -2

    @functools.cached_property
    def _outermost(self) -> np.ndarray:
        """False for a span nested directly in one of its own name: a
        wrapped override calling its wrapped base is counted once."""
        has_parent = self.parent >= 0
        outermost = np.ones(len(self), dtype=bool)
        outermost[has_parent] = (
            self.name[self.parent[has_parent]] != self.name[has_parent]
        )
        return outermost

    def _select(self, name: str) -> np.ndarray:
        return (self.name == self._id(name)) & self._outermost

    def total(self, name: str) -> float:
        """Seconds inside spans of this name (children included)."""
        return float(self.duration[self._select(name)].sum())

    def self_total(self, name: str) -> float:
        """Seconds inside spans of this name and in no child span."""
        return float(self.self_time[self.name == self._id(name)].sum())

    def count(self, name: str) -> int:
        """How many spans of this name were recorded."""
        return int(self._select(name).sum())

    def start_sum(self, name: str) -> float:
        return float(self.start[self._select(name)].sum())

    def end_sum(self, name: str) -> float:
        mask = self._select(name)
        return float((self.start[mask] + self.duration[mask]).sum())

    def counted(self, name: str) -> float:
        """Sum of the work counts recorded under this name."""
        mask = self.columns["count_name"] == self._id(name)
        return float(self.columns["count_value"][mask].sum())

    def save(self, path: str | Path) -> None:
        """Write the table as one ``.npz`` file."""
        np.savez(path, names=np.array(self.names, dtype=str), **self.columns)

    @classmethod
    def load(cls, path: str | Path) -> "Spans":
        with np.load(path) as data:
            columns = {
                key: data[key] for key in _SPAN_FIELDS + _COUNT_FIELDS
            }
            return cls(data["names"].tolist(), columns)


class Tracer:
    """Installs wrappers and records what they time."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._names: dict[str, int] = {}
        self._originals: list[tuple[Any, str, Any]] = []
        #: Objects remembered by ``kind="instances"`` targets, by span name.
        self.instances: dict[str, list[weakref.ref]] = {}
        #: Paths of targets that did not resolve (metric goes missing).
        self.missing: list[str] = []

    # -- recording -------------------------------------------------------
    def _buffer(self) -> _Buffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            with self._lock:
                buffer = _Buffer(self._name_id)
                self._buffers.append(buffer)
            self._local.buffer = buffer
        return buffer

    def _name_id(self, name: str) -> int:
        index = self._names.get(name)
        if index is None:
            with self._lock:
                index = self._names.setdefault(name, len(self._names))
        return index

    @contextmanager
    def span(self, name: str, operation: int | None = None) -> Iterator[None]:
        """A span around the caller's own code (the harness's operations).

        ``operation`` numbers the request: every span opened on this
        thread until the block ends carries it.
        """
        buffer = self._buffer()
        previous_operation = buffer.operation
        if operation is not None:
            buffer.operation = operation
        parent = buffer.current
        started = perf_counter()
        index = buffer.open(started)
        try:
            yield
        finally:
            buffer.durations[index] = perf_counter() - started
            buffer.names[index] = self._name_id(name)
            buffer.current = parent
            buffer.operation = previous_operation

    def _wrap_call(
        self, function: Callable, span: str | SpanName, count: CountHook | None
    ) -> Callable:
        fixed = self._name_id(span) if isinstance(span, str) else None
        label = span if isinstance(span, str) else function.__qualname__
        failed = self._name_id(label + _ERROR_SUFFIX)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            buffer = self._buffer()
            parent = buffer.current
            started = perf_counter()
            index = buffer.open(started)
            try:
                result = function(*args, **kwargs)
            except BaseException:  # broad-ok: re-raised once the span is closed
                buffer.durations[index] = perf_counter() - started
                buffer.names[index] = failed
                buffer.current = parent
                raise
            buffer.durations[index] = perf_counter() - started
            buffer.current = parent
            buffer.names[index] = (
                fixed
                if fixed is not None
                else self._name_id(span(args, kwargs, result))
            )
            if count is not None:
                count(buffer.add, args, kwargs, result)
            return result

        return wrapper

    def _wrap_generator(
        self, function: Callable, span: str, count: CountHook | None
    ) -> Callable:
        name = self._name_id(span)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            buffer = self._buffer()
            index = -1
            iterator = None
            items = 0
            try:
                while True:
                    # The consumer may sit in another span by now.
                    parent = buffer.current
                    started = perf_counter()
                    if index < 0:
                        index = buffer.open(started)
                        buffer.names[index] = name
                    else:
                        buffer.current = index
                    try:
                        if iterator is None:
                            iterator = iter(function(*args, **kwargs))
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        buffer.durations[index] += perf_counter() - started
                        buffer.current = parent
                    items += 1
                    yield item
            finally:
                if count is not None:
                    count(buffer.add, args, kwargs, items)

        return wrapper

    def _wrap_instances(self, init: Callable, span: str) -> Callable:
        remembered = self.instances.setdefault(span, [])

        @functools.wraps(init)
        def wrapper(instance, *args, **kwargs):
            init(instance, *args, **kwargs)
            remembered.append(weakref.ref(instance))

        return wrapper

    def live_instances(self, span: str) -> list[Any]:
        found = (reference() for reference in self.instances.get(span, ()))
        return [instance for instance in found if instance is not None]

    # -- installation ----------------------------------------------------
    def install(self, targets: list[Target], package: str = "repro") -> None:
        """Wrap every target that resolves; warn about the rest."""
        _import_submodules(package)
        for target in targets:
            try:
                self._install_one(target, package)
            except (ImportError, AttributeError) as error:
                self.missing.append(target.path)
                warnings.warn(
                    f"trace target {target.path} did not resolve "
                    f"({error}); its per-layer metrics will be missing",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def _make(self, target: Target, function: Callable) -> Callable:
        if target.kind == "generator":
            return self._wrap_generator(function, target.span, target.count)
        if target.kind == "instances":
            return self._wrap_instances(function, target.span)
        return self._wrap_call(function, target.span, target.count)

    def _install_one(self, target: Target, package: str) -> None:
        module_name, _, attribute_path = target.path.partition(":")
        owner: Any = importlib.import_module(module_name)
        *parents, attribute = attribute_path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        if isinstance(owner, type):
            classes = _with_subclasses(owner) if target.subclasses else [owner]
            wrapped = 0
            for cls in classes:
                function = cls.__dict__.get(attribute)
                if function is None or getattr(
                    function, "__isabstractmethod__", False
                ):
                    continue
                self._replace(cls, attribute, self._make(target, function))
                wrapped += 1
            if not wrapped:
                raise AttributeError(
                    f"no class defines {attribute_path} concretely"
                )
            return
        function = getattr(owner, attribute)
        wrapper = self._make(target, function)
        prefix = package + "."
        for name, module in list(sys.modules.items()):
            if module is None or not (name == package or name.startswith(prefix)):
                continue
            for alias, value in list(vars(module).items()):
                if value is function:
                    self._replace(module, alias, wrapper)

    def _replace(self, owner: Any, attribute: str, wrapper: Any) -> None:
        self._originals.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Put every replaced attribute back."""
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    # -- results -----------------------------------------------------------
    def collect(self) -> Spans:
        """Merge the per-thread buffers into one table."""
        with self._lock:
            buffers = list(self._buffers)
            names = sorted(self._names, key=self._names.__getitem__)
        parts: dict[str, list[np.ndarray]] = {
            key: [] for key in _SPAN_FIELDS + _COUNT_FIELDS
        }
        offset = 0
        for buffer in buffers:
            size = len(buffer.starts)
            parent = np.array(buffer.parents, dtype=np.int64)
            parent[parent >= 0] += offset
            parts["name"].append(np.array(buffer.names, dtype=np.int64))
            parts["start"].append(np.array(buffer.starts, dtype=float))
            parts["duration"].append(np.array(buffer.durations, dtype=float))
            parts["parent"].append(parent)
            parts["operation"].append(
                np.array(buffer.operations, dtype=np.int64)
            )
            parts["count_name"].append(
                np.array(buffer.count_names, dtype=np.int64)
            )
            parts["count_value"].append(
                np.array(buffer.count_values, dtype=float)
            )
            parts["count_time"].append(np.array(buffer.count_times, dtype=float))
            offset += size
        integer = ("name", "parent", "operation", "count_name")
        columns = {
            key: (
                np.concatenate(chunks)
                if chunks
                else np.zeros(0, dtype=np.int64 if key in integer else float)
            )
            for key, chunks in parts.items()
        }
        # Spans nobody numbered share their root span's operation, so a
        # server request's spans still carry one identifier.
        parent = columns["parent"]
        root = np.where(parent >= 0, parent, np.arange(len(parent)))
        while True:
            above = root[root]
            if np.array_equal(above, root):
                break
            root = above
        columns["operation"] = np.where(
            columns["operation"] >= 0, columns["operation"], -2 - root
        )
        return Spans(names, columns)


def _with_subclasses(cls: type) -> list[type]:
    found = [cls]
    for subclass in cls.__subclasses__():
        found.extend(_with_subclasses(subclass))
    return found


def _import_submodules(package: str) -> None:
    """Load every module of the package so aliases can all be replaced."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        if info.name.endswith("__main__"):
            continue
        try:
            importlib.import_module(info.name)
        except ImportError as error:
            warnings.warn(
                f"could not import {info.name} while tracing: {error}",
                RuntimeWarning,
                stacklevel=2,
            )
