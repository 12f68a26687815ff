"""Per-layer timings of eqcrit, taken from outside the package.

``installed(recorder)`` wraps the public functions listed in ``LAYERS`` in
every eqcrit module namespace that holds them, so a function imported by name
(``family`` and ``moduli`` import ``cvpoly`` that way) is timed wherever its
caller looks it up.  Nothing under ``src/`` changes.

Spans are aggregated in memory per layer while the run goes on and read out
when it ends: calls, self time (the span minus its child spans) and inclusive
time (outermost span of a layer only, so recursion is not counted twice),
plus the counters the hooks below add.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from collections import Counter
from time import perf_counter_ns
from typing import Callable, Iterator, Optional

Hook = Callable[["Recorder", tuple, object], None]


def _cvpoly_arguments(rec: "Recorder", args: tuple, result) -> None:
    if args[0] not in rec.op_cvpoly_args:
        rec.op_cvpoly_args.add(args[0])
        rec.counters["critical.cvpoly.distinct"] += 1


def _rational_roots_bits(rec: "Recorder", args: tuple, result) -> None:
    bits = max(max(abs(q.numerator).bit_length(), q.denominator.bit_length())
               for c in args[0].coeffs for q in c.coords)
    rec.counters["poly.rational_roots.input_bits"] += bits


def _lifts(rec: "Recorder", args: tuple, result) -> None:
    rec.counters["moduli.lifts_from_cvpoly.lifts"] += len(result)


# int64 x and acc plus complex128 phases: the three arrays of p^2 entries
# that weyl_direct materialises, counted from their sizes, not measured.
WEYL_DIRECT_BYTES_PER_TERM = 8 + 8 + 16


def _weyl_terms(rec: "Recorder", args: tuple, result) -> None:
    p = args[2]
    rec.counters["weyl.weyl_direct.terms"] += p * p
    rec.counters["weyl.weyl_direct.bytes_computed"] += p * p * WEYL_DIRECT_BYTES_PER_TERM


# (layer, module, attribute, hook).  ``cli.main`` is the root span of an op.
LAYERS: tuple[tuple[str, str, str, Optional[Hook]], ...] = (
    ("cli.main", "eqcrit.cli", "main", None),
    ("family.pair", "eqcrit.family", "pair", None),
    ("family.g_t", "eqcrit.family", "g_t", None),
    ("critical.cvpoly", "eqcrit.critical", "cvpoly", _cvpoly_arguments),
    ("critical.affine_equivalent", "eqcrit.critical", "affine_equivalent", None),
    ("poly.resultant_bivariate", "eqcrit.poly", "resultant_bivariate", None),
    ("poly.interpolate", "eqcrit.poly", "interpolate", None),
    ("poly.poly_gcd", "eqcrit.poly", "poly_gcd", None),
    ("poly.rational_roots", "eqcrit.poly", "rational_roots", _rational_roots_bits),
    ("fields.mul", "eqcrit.fields", "AlgElem.__mul__", None),
    ("fields.mul", "eqcrit.fields", "AlgElem.__rmul__", None),
    ("fields.inverse", "eqcrit.fields", "AlgElem.inverse", None),
    ("moduli.classify_critical_values", "eqcrit.moduli", "classify_critical_values", None),
    ("moduli.fiber_beta4", "eqcrit.moduli", "fiber_beta4", None),
    ("moduli.lifts_from_cvpoly", "eqcrit.moduli", "lifts_from_cvpoly", _lifts),
    ("weyl.weyl_direct", "eqcrit.weyl", "weyl_direct", _weyl_terms),
    ("weyl.weyl_reduced", "eqcrit.weyl", "weyl_reduced", None),
    ("weyl.crit_values_mod_p", "eqcrit.weyl", "crit_values_mod_p", None),
    ("jsonio.dumps_canonical", "eqcrit.jsonio", "dumps_canonical", None),
    ("jsonio.poly_to_json", "eqcrit.jsonio", "poly_to_json", None),
)
LAYER_NAMES = tuple(dict.fromkeys(name for name, *_ in LAYERS))


class Recorder:
    """In-memory span and counter aggregates for one traced phase."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.counters: Counter = Counter()
        self.ops = 0
        self.op_cvpoly_args: set = set()
        self._children: list[int] = []   # child time of each open span
        self._open: Counter = Counter()  # open spans per layer

    def begin_op(self) -> None:
        self.ops += 1
        self.op_cvpoly_args.clear()

    def wrap(self, name: str, fn: Callable, hook: Optional[Hook]) -> Callable:
        children, open_spans = self._children, self._open
        calls, self_ns, incl_ns = self.calls, self.self_ns, self.incl_ns

        def span(*args, **kwargs):
            children.append(0)
            open_spans[name] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                open_spans[name] -= 1
                calls[name] += 1
                self_ns[name] += duration - children.pop()
                if not open_spans[name]:
                    incl_ns[name] += duration
                if children:
                    children[-1] += duration
            if hook is not None:
                hook(self, args, result)
            return result

        span.__wrapped__ = fn
        return span

    def summary(self) -> dict:
        return {"ops": self.ops, "calls": dict(self.calls),
                "self_ns": dict(self.self_ns), "incl_ns": dict(self.incl_ns),
                "counters": dict(self.counters)}


@contextlib.contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every layer for the duration of the block, then restore."""
    modules = [m for n, m in list(sys.modules.items())
               if (n == "eqcrit" or n.startswith("eqcrit.")) and m is not None]
    undo: list[tuple[object, str, object]] = []
    try:
        for name, module, attr, hook in LAYERS:
            mod = importlib.import_module(module)
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                cls = getattr(mod, cls_name)
                original = vars(cls)[method]
                sites = [(cls, method)]
            else:
                original = vars(mod)[attr]
                sites = [(m, key) for m in modules
                         for key, value in vars(m).items() if value is original]
            wrapper = recorder.wrap(name, original, hook)
            for target, key in sites:
                undo.append((target, key, original))
                setattr(target, key, wrapper)
        yield recorder
    finally:
        for target, key, original in reversed(undo):
            setattr(target, key, original)
