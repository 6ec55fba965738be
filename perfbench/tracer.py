"""Per-layer spans recorded from outside the package.

`install` wraps every public function of the traced palinscan modules, plus
the named methods, and rebinds each wrapper at every palinscan module
attribute that holds the original function object. Calls the package makes
internally therefore pass through the wrappers too, e.g. solve_tilt ->
log_mgf_prime -> derivative -> score_mgf -> mat_inv.

Spans are aggregated in memory as they close: per name, the call count,
inclusive wall time (outermost activation only, so recursion is not counted
twice) and self time (duration minus the time covered by child spans).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("seqio", "markov", "palindrome", "mgf", "numeric", "scan", "sim", "cli")
METHODS = (("sim", "TiltedScoreSampler", "__init__"),
           ("sim", "TiltedScoreSampler", "draw"))


FIELDS = ("calls", "s", "self_s", "events", "bases")


@dataclass
class Span:
    """Totals of one wrapped function; events and bases are kept for
    find_palindromes only (events returned, bases searched)."""

    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    events: int = 0
    bases: int = 0
    active: int = 0


@dataclass
class Tracer:
    """Aggregates spans of wrapped functions; not thread-safe."""

    spans: dict[str, Span] = field(default_factory=dict)
    _stack: list[list] = field(default_factory=list)

    def wrap(self, name: str, fn):
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        counts_events = name == "palindrome.find_palindromes"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            span.active += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                span.active -= 1
                span.calls += 1
                span.self_s += dur - frame[0]
                if not span.active:
                    span.s += dur
                if stack:
                    stack[-1][0] += dur
            if counts_events:
                span.events += len(result)
                seq = args[0] if args else next(iter(kwargs.values()), None)
                span.bases += getattr(seq, "length", 0)
            return result

        return traced

    def take(self) -> dict[str, dict]:
        """Totals of the functions called since the last take, then zero them."""
        taken = {}
        for name, span in self.spans.items():
            if span.calls:
                taken[name] = {f: getattr(span, f) for f in FIELDS}
                for f in FIELDS:
                    setattr(span, f, 0)
        return taken


def _palinscan_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "palinscan" or name.startswith("palinscan."))]


def public_functions() -> tuple[dict[str, object], list[str]]:
    """Public functions defined in the traced modules, by '<module>.<name>',
    and the traced modules that cannot be imported."""
    found, missing = {}, []
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"palinscan.{layer}")
        except ModuleNotFoundError:
            missing.append(layer)
            continue
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                found[f"{layer}.{attr}"] = obj
    return found, missing


def install(tracer: Tracer):
    """Wrap the traced functions and methods in place.

    Returns:
        (restore, absent): a callable that puts every original back, and
        the modules and METHODS entries that no longer exist (reported,
        not fatal).
    """
    originals, absent = public_functions()
    by_id = {id(fn): (fn, tracer.wrap(name, fn)) for name, fn in originals.items()}
    undo = []
    for module in _palinscan_modules():
        for attr, obj in list(vars(module).items()):
            hit = by_id.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
                undo.append((module, attr, obj))
    for layer, cls_name, meth in METHODS:
        cls = getattr(sys.modules.get(f"palinscan.{layer}"), cls_name, None)
        fn = None if cls is None else cls.__dict__.get(meth)
        if not inspect.isfunction(fn):
            absent.append(f"{layer}.{cls_name}.{meth}")
            continue
        setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", fn))
        undo.append((cls, meth, fn))

    def restore():
        for owner, attr, obj in reversed(undo):
            setattr(owner, attr, obj)

    return restore, absent
