"""Per-layer host-time attribution, recorded from outside ``repro``.

:func:`install` walks the ``repro.<layer>`` packages and replaces every
function and method with a wrapper that opens a span on entry and closes
it on exit.  A *layer* is the second component of the function's
``__module__`` (``repro.dstm.proxy`` -> ``dstm``).  Nothing inside
``src/`` knows about this file; spans inside the program are a later
change (choosing-metrics guide, section 4).

* Plain callables are timed per call.
* Generator functions return a proxy that times every ``send``/``throw``
  resume, so a ``yield from`` chain nests as one span per level per
  resume — a suspended transaction accrues no host time.
* Self time of a span is its duration minus the durations of the spans
  opened directly under it; self times therefore sum to the duration of
  the outermost span, whatever the nesting.
* Aggregates live in memory as ``(layer, function) -> [count, total_ns,
  self_ns]``; the raw spans of the first ``keep_roots`` committed root
  transactions are kept too, tagged with the root txid.

What is wrapped: everything but dunder methods and properties, with one
exception — in ``sim`` only the public API is wrapped.  The kernel's
private helpers (``Process._resume``, ``CalendarQueue._advance``, ...)
run only underneath a ``sim`` span, so wrapping them would add host
time to the busiest loop without changing any layer's total.  Outside
``sim`` the private functions matter: message handlers, process bodies
(``Node._serve``, executor workers, arrival/dispatcher processes) and
nested transaction bodies (``bank._transfer_leg``) are all private and
all entered from another layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time
import types
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["LAYERS", "ROOT_FN", "Tracer", "install", "layers_table"]

#: the packages whose work a committed transaction pays for; obs/check/
#: prof are opt-in tools (measured as ``tax.*``), util/par/analysis are
#: not on the transaction path, and no workload enables faults yet
LAYERS = ("sim", "net", "rpc", "dstm", "scheduler", "core", "workloads", "traffic")

#: the generator whose normal return means "a root transaction committed"
ROOT_FN = "repro.core.api.run_root"

Key = Tuple[str, str]


class Tracer:
    """Span stack + in-memory aggregates."""

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        keep_roots: int = 20,
    ) -> None:
        self.clock = clock
        self.keep_roots = keep_roots
        #: open spans, innermost last: ``[start_ns, child_ns]``
        self.stack: List[List[int]] = []
        #: (layer, function) -> [count, total_ns, self_ns]
        self.agg: Dict[Key, List[int]] = {}
        #: raw spans of the first committed roots
        self.roots: List[Dict[str, Any]] = []
        #: raw-span buffer of the root being resumed (None: not kept)
        self.capture: Optional[List[Tuple[str, str, int, int, int]]] = None

    # -- span bookkeeping ------------------------------------------------

    def _close(self, key: Key, frame: List[int], end: int) -> None:
        """Account a span that was just popped off the stack."""
        duration = end - frame[0]
        row = self.agg.get(key)
        if row is None:
            row = self.agg[key] = [0, 0, 0]
        row[0] += 1
        row[1] += duration
        row[2] += duration - frame[1]
        stack = self.stack
        if stack:
            stack[-1][1] += duration
        if self.capture is not None:
            self.capture.append((key[0], key[1], frame[0], duration, len(stack)))

    # -- wrappers --------------------------------------------------------

    def wrap(self, fn: Callable[..., Any], layer: str, name: str) -> Callable[..., Any]:
        """The span wrapper for ``fn`` (call-timed or resume-timed)."""
        key = (layer, name)
        if inspect.isgeneratorfunction(fn):
            if f"{fn.__module__}.{fn.__qualname__}" == ROOT_FN:
                return self._wrap_root(fn, key)
            return self._wrap_generator(fn, key)
        stack, clock, close = self.stack, self.clock, self._close

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            frame = [clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                close(key, frame, end)

        return span

    def _wrap_generator(self, fn: Callable[..., Any], key: Key) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> "_GenSpan":
            return _GenSpan(fn(*args, **kwargs), tracer, key)

        return span

    def _wrap_root(self, fn: Callable[..., Any], key: Key) -> Callable[..., Any]:
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> "_GenSpan":
            if len(tracer.roots) >= tracer.keep_roots:
                return _GenSpan(fn(*args, **kwargs), tracer, key)
            # run_root writes the committed txid into ``info`` when the
            # caller passes one; passing one changes nothing else.
            bound = signature.bind(*args, **kwargs)
            info = bound.arguments.get("info")
            if info is None:
                info = bound.arguments["info"] = {}
            return _RootSpan(fn(*bound.args, **bound.kwargs), tracer, key, info)

        return span

    # -- results ---------------------------------------------------------

    def by_layer(self) -> Dict[str, Dict[str, int]]:
        """``layer -> {spans, total_ns, self_ns}`` summed over functions."""
        out: Dict[str, Dict[str, int]] = {}
        for (layer, _name), (count, total, self_ns) in self.agg.items():
            row = out.setdefault(layer, {"spans": 0, "total_ns": 0, "self_ns": 0})
            row["spans"] += count
            row["total_ns"] += total
            row["self_ns"] += self_ns
        return out

    def functions(self) -> List[Dict[str, Any]]:
        """Per-function rows, largest self time first."""
        rows = [
            {"layer": layer, "function": name, "count": count,
             "total_ns": total, "self_ns": self_ns}
            for (layer, name), (count, total, self_ns) in self.agg.items()
        ]
        rows.sort(key=lambda r: (-r["self_ns"], r["layer"], r["function"]))
        return rows


class _GenSpan:
    """Generator proxy: one span per resume of the wrapped generator."""

    __slots__ = ("_gen", "_tracer", "_key", "__name__")

    def __init__(self, gen: Any, tracer: Tracer, key: Key) -> None:
        self._gen = gen
        self._tracer = tracer
        self._key = key
        self.__name__ = key[1]

    def __iter__(self) -> Iterator[Any]:
        return self

    def __next__(self) -> Any:
        return self._resume(self._gen.send, None)

    def send(self, value: Any) -> Any:
        return self._resume(self._gen.send, value)

    def throw(self, *exc: Any) -> Any:
        return self._resume(self._gen.throw, *exc)

    def close(self) -> None:
        self._gen.close()

    def _resume(self, step: Callable[..., Any], *args: Any) -> Any:
        tracer = self._tracer
        frame = [tracer.clock(), 0]
        tracer.stack.append(frame)
        try:
            return step(*args)
        finally:
            end = tracer.clock()
            tracer.stack.pop()
            tracer._close(self._key, frame, end)


class _RootSpan(_GenSpan):
    """A root transaction's retry loop: also keeps the raw spans of every
    resume, and files them under the txid if the root commits."""

    __slots__ = ("_info", "_spans")

    def __init__(self, gen: Any, tracer: Tracer, key: Key, info: dict) -> None:
        super().__init__(gen, tracer, key)
        self._info = info
        self._spans: List[Tuple[str, str, int, int, int]] = []

    def _resume(self, step: Callable[..., Any], *args: Any) -> Any:
        tracer = self._tracer
        outer, tracer.capture = tracer.capture, self._spans
        try:
            return super()._resume(step, *args)
        except StopIteration:
            if len(tracer.roots) < tracer.keep_roots:
                tracer.roots.append({
                    "txid": self._info.get("txid"),
                    "attempts": self._info.get("attempts"),
                    "spans": [
                        {"layer": layer, "function": name, "start_ns": start,
                         "dur_ns": dur, "depth": depth}
                        for layer, name, start, dur, depth in self._spans
                    ],
                })
            raise
        finally:
            tracer.capture = outer


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------


def _wanted(layer: str, name: str) -> bool:
    if name.startswith("__"):
        return False
    return layer != "sim" or not name.startswith("_")


def _layer_modules() -> List[types.ModuleType]:
    modules = []
    for layer in LAYERS:
        package = importlib.import_module(f"repro.{layer}")
        modules.append(package)
        for info in pkgutil.walk_packages(package.__path__, f"repro.{layer}."):
            modules.append(importlib.import_module(info.name))
    return modules


def install(tracer: Tracer) -> int:
    """Wrap the ``repro.<layer>`` packages in place; returns the number
    of functions wrapped.  There is no uninstall: the traced repetition
    is the last thing its process does."""
    wrapped: Dict[Callable[..., Any], Callable[..., Any]] = {}

    def wrapper_for(fn: types.FunctionType, qualname: str) -> Callable[..., Any]:
        span = wrapped.get(fn)
        if span is None:
            module = fn.__module__
            layer = module.split(".")[1]
            name = f"{module.partition('.')[2]}.{qualname}"
            span = wrapped[fn] = tracer.wrap(fn, layer, name)
        return span

    for module in _layer_modules():
        layer = module.__name__.split(".")[1]
        for name, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere: wrapped where defined
            if isinstance(obj, types.FunctionType):
                if _wanted(layer, name):
                    setattr(module, name, wrapper_for(obj, obj.__qualname__))
            elif isinstance(obj, type):
                for attr, member in list(vars(obj).items()):
                    if not _wanted(layer, attr):
                        continue
                    qualname = f"{obj.__qualname__}.{attr}"
                    inner = getattr(member, "__func__", member)
                    if not isinstance(inner, types.FunctionType):
                        continue  # property, slot descriptor, constant
                    if inner.__module__ != module.__name__:
                        continue  # generated (dataclass/enum) or borrowed
                    if isinstance(member, (staticmethod, classmethod)):
                        setattr(obj, attr, type(member)(wrapper_for(inner, qualname)))
                    else:
                        setattr(obj, attr, wrapper_for(inner, qualname))

    # ``from repro.core.api import run_root`` bound the original function
    # in the importing module's globals: rebind those aliases too.
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "repro" or modname.startswith("repro.")):
            continue
        for name, obj in list(vars(module).items()):
            if isinstance(obj, types.FunctionType) and obj in wrapped:
                setattr(module, name, wrapped[obj])
    return len(wrapped)


def layers_table(
    layers: Dict[str, Dict[str, int]], traced_ns: float, us_per_commit: float
) -> str:
    """The ``## layers`` table from :meth:`Tracer.by_layer`: each layer's
    self time in the traced run, its share of ``traced_ns``, and that
    share of ``us_per_commit`` (what a commit costs untraced)."""
    lines = [
        "## layers",
        f"{'layer':<10} {'spans':>10} {'traced_ms':>10} {'share':>7} {'self_us/commit':>15}",
    ]
    for layer in sorted(layers, key=lambda name: -layers[name]["self_ns"]):
        row = layers[layer]
        share = row["self_ns"] / traced_ns
        lines.append(
            f"{layer:<10} {row['spans']:>10} {row['self_ns'] / 1e6:>10.1f} "
            f"{share:>7.1%} {share * us_per_commit:>15.1f}"
        )
    closed = sum(row["self_ns"] for row in layers.values())
    lines.append(
        f"{'(closure)':<10} {'':>10} {closed / 1e6:>10.1f} {closed / traced_ns:>7.1%} "
        f"{closed / traced_ns * us_per_commit:>15.1f}"
    )
    return "\n".join(lines)
