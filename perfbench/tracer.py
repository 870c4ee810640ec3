"""Outside-in span tracer for the heiswhit package.

The tracer never edits the package.  It swaps wrappers onto the module
attributes that bind public functions (so ``heiswhit.av.real_roots``, bound
by ``from .poly import real_roots``, is wrapped as well as
``heiswhit.poly.real_roots``) and onto a few methods and properties of
the package's classes, and puts the originals back on ``uninstall``.

Every wrapped call records a span ``[name, start, end, parent, invocation]``
in memory; ``parent`` is the index of the enclosing span (-1 for a top-level
call) and ``invocation`` numbers the top-level calls.  A call to a function
that is already running (the recursion in ``real_roots``) records no span
of its own, so only outermost calls are counted and their time includes
the recursion.  Spans are written out by ``write_spans`` and reduced to
per-name call counts, total and self time by ``span_stats``.
"""

import collections
import functools
import importlib
import inspect
from time import perf_counter

MODULES = ("cli", "horizontal", "divdiff", "av", "poly", "profiles", "whitney", "heis")

# (module, class, attribute, span name).  Only the methods the per-layer
# metrics name are wrapped: Poly arithmetic runs millions of times per call
# and a span on each would swamp the run being measured.
METHODS = (
    ("divdiff", "SampledCurve", "fs", "divdiff.SampledCurve.fs"),
    ("divdiff", "SampledCurve", "gs", "divdiff.SampledCurve.gs"),
    ("divdiff", "SampledCurve", "hs", "divdiff.SampledCurve.hs"),
    ("profiles", "ThresholdPolicy", "classify", "profiles.classify"),
    ("whitney", "PiecewiseCm", "__call__", "whitney.PiecewiseCm.eval"),
    ("heis", "CurveJets", "from_polys", "heis.CurveJets.from_polys"),
)

# Constructors that are counted, without a span.
COUNTED = (("poly", "Poly", "__init__", "poly.Poly.constructed"),)


def _counting(items, counts, keys):
    """Yield items unchanged; add how many were taken to counts[key] for each key."""
    taken = 0
    try:
        for item in items:
            taken += 1
            yield item
    finally:
        for key in keys:
            counts[key] += taken


def _banded_sup_before(tracer, parent, args, kwargs):
    # validate_field passes an iterator over O(n^2) pairs, so count items as
    # banded_sup consumes them rather than copying them first.
    keys = ["profiles.banded_sup.items"]
    if parent >= 0 and tracer.spans[parent][0].startswith("av."):
        keys.append("av.pairs")
    args = list(args)
    if args:
        args[0] = _counting(args[0], tracer.counts, keys)
    else:
        kwargs["items"] = _counting(kwargs["items"], tracer.counts, keys)
    return args, kwargs


def _banded_sup_after(tracer, result, args, kwargs):
    tracer.counts["profiles.bands"] += len(result.points)


def _dd_windows_after(tracer, result, args, kwargs):
    tracer.counts["divdiff.subsets"] += len(result[0])


def _real_roots_after(tracer, result, args, kwargs):
    if result:
        tracer.counts["poly.real_roots.hits"] += 1


def _validate_field_after(tracer, result, args, kwargs):
    tracer.counts["whitney.validate_field.pairs"] += result.pair_count


def _eval_after(tracer, result, args, kwargs):
    tracer.counts["whitney.PiecewiseCm.eval.points"] += getattr(args[1], "size", 1)


HOOKS = {
    "profiles.banded_sup": (_banded_sup_before, _banded_sup_after),
    "divdiff.dd_windows": (None, _dd_windows_after),
    "poly.real_roots": (None, _real_roots_after),
    "whitney.validate_field": (None, _validate_field_after),
    "whitney.PiecewiseCm.eval": (None, _eval_after),
}


class Tracer:
    """Span recorder that wraps the package from outside."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._active = collections.Counter()
        self._invocation = 0
        self._undo = []

    def reset(self):
        """Drop recorded spans and counts; wrappers stay installed."""
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._invocation = 0

    def _wrap(self, fn, name):
        tracer = self
        before, after = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._active[name]:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            if parent < 0:
                tracer._invocation += 1
            if before is not None:
                args, kwargs = before(tracer, parent, args, kwargs)
            span = [name, 0.0, 0.0, parent, tracer._invocation]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer._active[name] += 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._active[name] -= 1
                stack.pop()
            if after is not None:
                after(tracer, result, args, kwargs)
            return result

        return traced

    def _count(self, fn, name):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function binding and the listed methods."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        mods = {name: importlib.import_module(f"heiswhit.{name}") for name in MODULES}
        wrappers = {}
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or not value.__module__.startswith("heiswhit.")
                ):
                    continue
                if value not in wrappers:
                    layer = value.__module__.rsplit(".", 1)[1]
                    wrappers[value] = self._wrap(value, f"{layer}.{value.__name__}")
                self._set(mod, attr, wrappers[value])
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, property):
                new = property(self._wrap(raw.fget, name))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name))
            else:
                new = self._wrap(raw, name)
            self._set(cls, attr, new)
        for mod_name, cls_name, attr, name in COUNTED:
            cls = getattr(mods[mod_name], cls_name)
            self._set(cls, attr, self._count(cls.__dict__[attr], name))

    def uninstall(self):
        """Put every original binding back."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def write_spans(spans, path, pass_no=0):
    """Write one pass's spans as CSV rows pass,index,invocation,parent,name,start,end.

    Pass 0 starts the file; later passes append to it.
    """
    with open(path, "a" if pass_no else "w", encoding="utf-8") as fh:
        if not pass_no:
            fh.write("pass,index,invocation,parent,name,start,end\n")
        for i, (name, start, end, parent, inv) in enumerate(spans):
            fh.write(f"{pass_no},{i},{inv},{parent},{name},{start!r},{end!r}\n")


def span_stats(spans):
    """Per-name {calls, total_s, self_s}; self time excludes child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = collections.defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, _, _) in enumerate(spans):
        s = stats[name]
        s["calls"] += 1
        s["total_s"] += end - start
        s["self_s"] += end - start - child[i]
    return stats
