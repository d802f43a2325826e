"""Run one glhom CLI invocation with a span at every module boundary.

Usage: python tracer.py SPANS_FILE ARG...   (ARG... as for ``glhom``)

After ``import glhom.cli`` every callable that one glhom module imported
from another glhom module is replaced, in the importing module's
namespace, by a wrapper that records a span named after the module that
defines it.  Public methods (and arithmetic operators) of glhom classes
are wrapped the same way.  Both are found at run time by ``__module__``,
so nothing depends on the names of private helpers and no file under
``src/`` is edited.  A call that returns a generator is timed per
``next()``, because that is when its work happens.

Spans are kept in memory and written to SPANS_FILE when the run ends: one
JSON header line (layer names, span count, counters) followed by the raw
arrays layer id (``b``), parent index (``q``), start (``d``) and end
(``d``).  The exit code and stdout are those of the CLI.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from array import array
from types import FunctionType, GeneratorType

_OPERATORS = {"__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__floordiv__", "__call__"}

perf_counter = time.perf_counter


def _size(x) -> int:
    if isinstance(x, (list, tuple)):
        return len(x)
    coeffs = getattr(x, "coefficients", None)
    return len(coeffs) if isinstance(coeffs, tuple) else 0


def _max_bits(x) -> int:
    coeffs = x if isinstance(x, (list, tuple)) else getattr(x, "coefficients", None)
    if not isinstance(coeffs, (list, tuple)) or not coeffs or not isinstance(coeffs[0], int):
        return 0
    return max(max(coeffs), -min(coeffs)).bit_length()


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.layer_ids = array("b")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.minimize_depth = 0
        self.counters = {
            "minimize.optima": 0,
            "minimize.peak_alloc_mb": 0.0,
            "intpoly.operand_coeffs": 0,
            "intpoly.result_max_bits": 0,
        }

    def _layer(self, name: str) -> int:
        if name not in self.layers:
            self.layers.append(name)
        return self.layers.index(name)

    def _open(self, lid: int) -> int:
        idx = len(self.starts)
        self.layer_ids.append(lid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self.stack.pop()

    def _timed_gen(self, gen, lid: int):
        while True:
            idx = self._open(lid)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(idx)
            yield item

    def _count_intpoly(self, args, result) -> None:
        self.counters["intpoly.operand_coeffs"] += sum(map(_size, args))
        bits = _max_bits(result)
        if bits > self.counters["intpoly.result_max_bits"]:
            self.counters["intpoly.result_max_bits"] = bits

    def _count_minimize(self, args, result) -> None:
        self.counters["minimize.optima"] += getattr(result, "m_r", 0)

    def _rss_open(self):
        """Peak RSS (KiB) when the outermost minimize call starts, else None."""
        self.minimize_depth += 1
        if self.minimize_depth == 1:
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return None

    def _rss_close(self, before) -> None:
        self.minimize_depth -= 1
        if before is not None:
            grown = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024.0
            if grown > self.counters["minimize.peak_alloc_mb"]:
                self.counters["minimize.peak_alloc_mb"] = grown

    def wrap(self, fn, layer: str):
        lid = self._layer(layer)
        count = {"intpoly": self._count_intpoly, "minimize": self._count_minimize}.get(layer)
        track_rss = layer == "minimize"

        def wrapper(*args, **kwargs):
            before = self._rss_open() if track_rss else None
            idx = self._open(lid)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(args, result)
            finally:
                self._close(idx)
                if track_rss:
                    self._rss_close(before)
            if isinstance(result, GeneratorType):
                return self._timed_gen(result, lid)
            return result

        return wrapper

    def install(self) -> None:
        mods = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "glhom" or name.startswith("glhom."))
        }
        for name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                owner = getattr(obj, "__module__", None)
                if isinstance(obj, type):
                    if owner == name and not issubclass(obj, BaseException):
                        self._wrap_methods(obj, owner.rpartition(".")[2])
                elif callable(obj) and owner in mods and owner != name:
                    setattr(mod, attr, self.wrap(obj, owner.rpartition(".")[2]))

    def _wrap_methods(self, cls: type, layer: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _OPERATORS:
                continue
            if isinstance(member, FunctionType):
                setattr(cls, attr, self.wrap(member, layer))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self.wrap(member.__func__, layer)))

    def dump(self, path: str) -> None:
        header = {"layers": self.layers, "spans": len(self.starts), "counters": self.counters}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.layer_ids, self.parents, self.starts, self.ends):
                arr.tofile(f)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import glhom.cli

    tracer = Tracer()
    tracer.install()
    main_fn = tracer.wrap(glhom.cli.main, "cli")  # the root span
    try:
        return main_fn(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
