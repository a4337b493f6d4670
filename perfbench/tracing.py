"""Per-layer tracing of parcoh from outside the program.

Tracer.install wraps every public function and public method defined in
each parcoh module, plus the arithmetic operators of its classes, and
puts the wrapper under every module-level name that held the original,
so that a call from one module into another (cli -> duality via
``from .duality import gram_on_W``) goes through the wrapper too.  Each
wrapper counts calls and accumulates self time, its span's duration
minus the time covered by the traced spans it caused, and inclusive
time, the span's whole duration.  Spans are summed per function in
memory rather than kept one by one, which bounds memory on the millions
of field operations a run makes.

Counting happens only while Tracer.active is true, so the benchmark's
own checks, which also call parcoh, stay out of the figures.
"""

import inspect
import sys
import time

# arithmetic operators are traced; comparisons, hashing and indexing are
# not, and their time stays in the caller's self time
_OPERATORS = frozenset(("__add__", "__radd__", "__sub__", "__rsub__",
                        "__neg__", "__mul__", "__rmul__", "__truediv__",
                        "__rtruediv__", "__pow__"))


class Tracer:
    def __init__(self):
        # "layer.qualname" -> [calls, self seconds, inclusive seconds]
        self.stats = {}
        self.active = False
        self._stack = [0.0]   # traced child time of each open span
        self._undo = []       # (owner, name, original) to restore

    def _wrap(self, fn, key):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                stat[2] += dt
                stack[-1] += dt

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self, package="parcoh"):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and
                   (name == package or name.startswith(package + "."))]
        wrapped = {}          # id(original function) -> wrapper

        def wrapper_for(fn, layer):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = (fn, self._wrap(
                    fn, "%s.%s" % (layer, fn.__qualname__)))
            return wrapped[id(fn)][1]

        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__ \
                        or name.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    wrapper_for(obj, layer)
                elif inspect.isclass(obj):
                    self._install_class(obj, layer, wrapper_for)
        # every module-level name bound to a wrapped function, in any module
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, name, hit[1])

    def _install_class(self, cls, layer, wrapper_for):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in _OPERATORS:
                continue
            if isinstance(attr, classmethod):
                self._set(cls, name, classmethod(
                    wrapper_for(attr.__func__, layer)))
            elif isinstance(attr, staticmethod):
                self._set(cls, name, staticmethod(
                    wrapper_for(attr.__func__, layer)))
            elif inspect.isfunction(attr):
                self._set(cls, name, wrapper_for(attr, layer))

    def _set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
