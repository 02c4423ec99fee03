"""Spans around the public functions of each discatlas layer.

The tracer is installed from the benchmark's own files; nothing in the
package changes.  The modules bind names with ``from .exactpoly import
sturm_count``, so wrapping one module attribute would miss the calls
made through the others: every ``discatlas.*`` module attribute that
*is* an original public function gets the wrapper.  ``MultiPoly.eval``
is wrapped on the class and ``mpmath.polyroots`` on the mpmath module,
because ``atlas`` imports it at call time.

Each span records its name, the span that caused it, the id of the CLI
call it belongs to, and its start and end.  Spans are kept in memory
until the CLI call ends, then folded into per-layer call counts and
self times (``flush``), which bounds memory on long runs.  Work counts
are taken at the same boundaries by small observers.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

LAYER_MODULES = ("cli", "atlas", "classify", "models", "exactpoly", "render")


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Calls and self time per span name.

    ``spans`` are ``(name, parent_index, call_id, start, end)``; a
    span's self time is its duration minus the durations of its direct
    children, which nest inside it and do not overlap in one thread.
    """
    child = [0.0] * len(spans)
    for name, parent, _, start, end in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, tuple[int, float]] = {}
    for i, (name, _, _, start, end) in enumerate(spans):
        calls, self_s = out.get(name, (0, 0.0))
        out[name] = (calls + 1, self_s + (end - start) - child[i])
    return out


def _coeff_bits(poly) -> int:
    return sum(c.numerator.bit_length() + c.denominator.bit_length()
               for c in poly.coeffs)


def _observe_sturm(tr, args, result, exc):
    tr.counts["exactpoly.sturm_count.input_bits"] += _coeff_bits(args[0])


def _observe_membership(tr, args, result, exc):
    if result is not None and result.value == "NonSingular":
        tr.counts["models.discriminant_membership.nonsingular"] += 1


def _observe_classify(tr, args, result, exc):
    if type(exc).__name__ == "NonGenericConfiguration":
        tr.counts["classify.classify.nongeneric"] += 1


def _observe_certify_path(tr, args, result, exc):
    if result is not None:
        tr.counts["atlas.certify_path.certified"] += 1
        tr.counts["atlas.certify_path.segments"] += len(result.segments)


def _observe_certify_segment(tr, args, result, exc):
    if type(result).__name__ == "SegmentFailure":
        tr.counts["atlas.certify_segment.refused"] += 1
    if tr.active["atlas.certify_path"]:
        tr.counts["atlas.certify_segment.under_path"] += 1


def _observe_census(tr, args, result, exc):
    if result is not None:
        tr.counts["atlas.enumerate_components.samples"] += \
            result.total_samples


OBSERVERS = {
    "exactpoly.sturm_count": _observe_sturm,
    "models.discriminant_membership": _observe_membership,
    "classify.classify": _observe_classify,
    "atlas.certify_path": _observe_certify_path,
    "atlas.certify_segment": _observe_certify_segment,
    "atlas.enumerate_components": _observe_census,
}


class Tracer:
    """Records spans while installed; ``restore`` puts originals back."""

    def __init__(self):
        self.spans: list[list] = []
        self.call_id = 0
        self.totals: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.active: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.wrapped: set[str] = set()

    # -- recording --------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        idx = len(self.spans)
        rec = [name, self._stack[-1] if self._stack else None,
               self.call_id, 0.0, 0.0]
        self.spans.append(rec)
        self._stack.append(idx)
        self.active[name] += 1
        result = exc = None
        rec[3] = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as e:
            exc = e
            raise
        finally:
            rec[4] = perf_counter()
            self._stack.pop()
            self.active[name] -= 1
            observer = OBSERVERS.get(name)
            if observer is not None:
                observer(self, args, result, exc)

    def _wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)
        traced.span_name = name
        return traced

    def flush(self) -> None:
        """Fold the finished CLI call's spans into the per-layer totals."""
        for name, (calls, self_s) in self_times(self.spans).items():
            acc = self.totals.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        self.spans.clear()

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)
        self.wrapped.add(new.span_name)

    def install(self) -> None:
        import mpmath

        layers = {short: importlib.import_module(f"discatlas.{short}")
                  for short in LAYER_MODULES}
        wrappers: dict[int, tuple[object, object]] = {}
        for short, mod in layers.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and callable(obj)
                        and not isinstance(obj, type)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    wrappers[id(obj)] = (obj,
                                         self._wrapper(f"{short}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "discatlas" and not modname.startswith("discatlas."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        multi = layers["exactpoly"].MultiPoly
        self._patch(multi, "eval",
                    self._wrapper("exactpoly.MultiPoly.eval", multi.eval))
        self._patch(mpmath, "polyroots",
                    self._wrapper("mpmath.polyroots", mpmath.polyroots))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        self.wrapped.clear()
