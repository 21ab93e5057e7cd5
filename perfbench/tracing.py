"""Span tracing from outside the program: wrap public entry points.

A :class:`Tracer` replaces attributes (class methods, module
functions) with wrappers that time every call and keep a stack of open
spans, so each span's *self* time is its duration minus the time its
nested child spans covered.  Nothing under ``src/`` knows it is being
traced; :meth:`Tracer.install` puts the originals back on exit.

Generator functions (simulation processes such as ``GridFtpClient.get``)
are traced per resumption: each ``send``/``throw`` into the generator is
one timed segment, so the simulated time a process spends parked on an
event is never charged to it, and a child generator reached through
``yield from`` is subtracted from its parent like any nested call.
"""

import functools
import inspect
import time

__all__ = ["Tracer"]


class Tracer:
    """Per-span call counts, inclusive time and self time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: span name -> [calls, inclusive_s, self_s]
        self.stats = {}
        #: Open spans, innermost last: [name, started_at, child_s].
        self._stack = []

    def _enter(self, name):
        self._stack.append([name, self.clock(), 0.0])

    def _exit(self):
        name, started_at, child_s = self._stack.pop()
        elapsed = self.clock() - started_at
        stat = self.stats[name]
        stat[1] += elapsed
        stat[2] += elapsed - child_s
        if self._stack:
            self._stack[-1][2] += elapsed

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name, fn):
        """A traced stand-in for ``fn`` recording into span ``name``."""
        stat = self._stat(name)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                stat[0] += 1
                return self._drive(name, fn(*args, **kwargs))
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat[0] += 1
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return traced

    def _drive(self, name, generator):
        """Re-yield everything ``generator`` yields, timing each segment."""
        value, error = None, None
        while True:
            self._enter(name)
            try:
                if error is None:
                    yielded = generator.send(value)
                else:
                    yielded = generator.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self._exit()
            value, error = None, None
            try:
                value = yield yielded
            except GeneratorExit:
                generator.close()
                raise
            except BaseException as exc:  # forwarded into the generator
                error = exc

    def install(self, targets):
        """Context manager wrapping ``(span, owner, attribute)`` targets.

        ``owner`` is a class or a module; the wrapper is set on it, so
        every later lookup (including bound methods captured after
        installation) goes through the span.
        """
        return _Installed(self, targets)

    def totals(self):
        """``{span: (calls, inclusive_s, self_s)}`` for every span."""
        return {name: tuple(stat) for name, stat in self.stats.items()}


class _Installed:
    def __init__(self, tracer, targets):
        self.tracer = tracer
        self.targets = list(targets)
        self._saved = []

    def __enter__(self):
        for name, owner, attribute in self.targets:
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self.tracer.wrap(name, original))
        return self.tracer

    def __exit__(self, exc_type, exc_value, traceback):
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()
        return False
