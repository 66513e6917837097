"""Span tracing of the program's layers, done from the benchmark's side.

``Tracer.install`` wraps the public functions of each layer module and the
public and operator methods of the classes they define, then rebinds every
reference to them inside the ``fermion5d`` package (names copied by
``from .x import y`` included).  Each call records a span ``(name, start,
end, parent, request id)``; a span's self time is its duration minus that of
its direct children, and a layer's self time is the sum over its spans.

Spans are kept in memory for the request in flight and folded into per-layer
totals when it ends, so memory stays flat over a long run.  Calls made
outside a request are passed straight through.
"""
from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter
from contextlib import contextmanager

#: Layer name -> module, in call-graph order.  The leading underscore of
#: ``_kernels`` is dropped because metric names start with a letter.
LAYER_MODULES = {
    "kernels": "fermion5d._kernels",
    "algebra": "fermion5d.algebra",
    "fields": "fermion5d.fields",
    "spinor": "fermion5d.spinor",
    "wave": "fermion5d.wave",
    "coulomb": "fermion5d.coulomb",
    "beyond": "fermion5d.beyond",
    "report": "fermion5d.report",
    "cli": "fermion5d.cli",
}

#: The benchmark's own code between the request boundary and the program.
HARNESS = "harness"

_OPERATORS = frozenset(
    "__init__ __call__ __add__ __radd__ __sub__ __rsub__ __neg__ __mul__ "
    "__rmul__ __truediv__ __xor__ __invert__".split()
)

#: Span names whose call counts are reported: name -> metric.
COUNTED = {
    "algebra.product": "algebra.products",
    "fields.evals": "fields.evals",
    "coulomb.even_operator_matrix": "coulomb.operator_builds",
    "coulomb.solve_radial": "coulomb.radial_solves",
}


def _product_name(args) -> str:
    """Multivector x Multivector is a product; Multivector x number a scaling."""
    return "algebra.product" if type(args[1]) is type(args[0]) else "algebra.scale"


def _is_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")


def _is_plain_class(obj) -> bool:
    return (
        isinstance(obj, type)
        and not issubclass(obj, (BaseException, tuple))
        and not getattr(obj, "_is_protocol", False)
    )


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.request_id = -1
        self.self_time: list[dict[str, float]] = []  # per request, by layer
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        products = ("algebra.Multivector.__mul__", "algebra.Multivector.__xor__")
        name_of = _product_name if name in products else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (
                    name_of(args) if name_of else name, start, end, parent, self.request_id
                )

        return traced

    def _set(self, owner, attr, value):
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            type.__setattr__(owner, attr, value)
        else:
            original = getattr(owner, attr)
            setattr(owner, attr, value)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every layer's public callables and rebind package references."""
        wrappers: dict[int, object] = {}
        for layer, modname in LAYER_MODULES.items():
            module = sys.modules[modname]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if _is_function(obj) and id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif _is_plain_class(obj):
                    self._wrap_class(layer, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "fermion5d" and not modname.startswith("fermion5d."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._set(module, attr, wrappers[id(obj)])

    def _wrap_class(self, layer, cls) -> None:
        done: dict[int, object] = {}
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _OPERATORS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if layer == "fields" and attr in ("value", "partial"):
                name = "fields.evals"
            if isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self._wrap(member.__func__, name))
            elif isinstance(member, types.FunctionType):
                wrapped = done.get(id(member)) or self._wrap(member, name)
                done[id(member)] = wrapped
            else:
                continue
            self._set(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, type):
                type.__setattr__(owner, attr, original)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- requests ----------------------------------------------------------

    @contextmanager
    def request(self, request_id: int):
        """Root span of one request; folds its spans into the totals on exit."""
        self.request_id = request_id
        self.spans.append(None)
        self.stack.append(0)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[0] = (HARNESS, start, end, -1, request_id)
            self._fold()

    def _fold(self) -> None:
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = dict.fromkeys([*LAYER_MODULES, HARNESS], 0.0)
        for (name, start, end, _, _), inner in zip(spans, child):
            self_time[name.split(".", 1)[0]] += (end - start) - inner
            self.counts[name] += 1
        self.self_time.append(self_time)
        spans.clear()

    def reset(self) -> None:
        self.self_time.clear()
        self.counts.clear()

    def counted(self) -> dict[str, float]:
        """The named call counts, per request."""
        n = len(self.self_time)
        return {metric: self.counts[name] / n for name, metric in COUNTED.items()}

    def layer_self(self, factors: list[float]) -> dict[str, float]:
        """Mean self time per request of each layer (and the harness), each
        request's times scaled by its speed factor."""
        n = len(self.self_time)
        return {
            layer: sum(t[layer] * f for t, f in zip(self.self_time, factors)) / n
            for layer in [*LAYER_MODULES, HARNESS]
        }
