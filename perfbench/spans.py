"""Spans and call counters placed around calls into localarc's layers.

Nothing here edits localarc: the tracer rebinds the names that the
calling modules use (``localarc.cli.verify_local_arc`` and so on) to
wrappers that record a span per call.  Spans are kept in memory and
written out by the caller when the run ends.

Field and plane calls are far too frequent and short for spans; they are
counted instead, by wrapping the ``mul``/``inv`` closures of every Field
and the ``join`` closure of every Plane as they are built.  Indexing into
a lazy family is likewise counted and timed in aggregate, not spanned.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module, bound name, layer) of every call the tracer spans, besides
# cli.run, which the worker wraps itself.
SPANNED = (
    ("cli", "case1_lift", "construct"),
    ("cli", "case2_lift", "construct"),
    ("cli", "case3_lift", "construct"),
    ("cli", "lift_prime", "construct"),
    ("cli", "conic_partition_seed", "construct"),
    ("cli", "generic_k_arc", "construct"),
    ("cli", "verify_local_arc", "arcs"),
    ("cli", "sample_verify", "arcs"),
    ("construct", "verify_local_arc", "arcs"),
    ("construct", "sample_verify", "arcs"),
    ("search", "verify_local_arc", "arcs"),
    ("cli", "exact_max", "search"),
)


def _attrs(result) -> dict:
    """Work counters carried by a layer call's result."""
    out = {}
    for key, attr in (("pairs", "pairs_checked"), ("ok", "ok"),
                      ("nodes", "nodes"), ("optimal", "optimal")):
        if hasattr(result, attr):
            out[key] = getattr(result, attr)
    return out


class Tracer:
    """In-memory span recorder for one run of a workload.

    A span is a dict with ``id``, ``name``, ``layer``, ``start``, ``end``
    (seconds since the tracer was made), ``parent`` (a span id or None),
    ``run`` (the run id) and ``attrs`` (work counters of the result).
    With ``spans=False`` only the verifications the CLI asks for are
    wrapped, and only their reports are kept, so an untraced run still
    sees ``pairs_checked`` at the cost of one extra call per verification.
    ``count_calls`` counts field mul/inv and plane join calls; it slows
    those calls several-fold, so it runs in a pass of its own.
    """

    def __init__(self, run_id: str, spans: bool, count_calls: bool = False):
        self.run_id = run_id
        self.spans_on = spans
        self.count_calls = count_calls
        self.spans: list[dict] = []
        self.reports: list[dict] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.lazy_gets = 0
        self.lazy_seconds = 0.0
        self._t0 = time.perf_counter()
        self._stack: list[list] = []  # [span id, seconds covered by children]

    def wrap(self, name: str, layer: str, fn, after=None):
        """fn with a span around each call; after(result) may adjust it."""
        clock = time.perf_counter

        if not self.spans_on:
            def light(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.reports.append({"name": name, **_attrs(result)})
                return result
            return light

        def spanned(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            sid = len(self.spans)
            span = {"id": sid, "name": name, "layer": layer, "start": 0.0,
                    "end": 0.0, "parent": parent, "run": self.run_id,
                    "attrs": {}, "self": 0.0}
            self.spans.append(span)
            frame = [sid, 0.0]
            self._stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    result = after(result)
                return result
            finally:
                end = clock()
                self._stack.pop()
                span["start"] = start - self._t0
                span["end"] = end - self._t0
                span["self"] = (end - start) - frame[1]
                if self._stack:
                    self._stack[-1][1] += end - start
                if result is not None:
                    span["attrs"] = _attrs(result)
                    self.reports.append({"name": name, **span["attrs"]})
        return spanned

    def install(self, localarc) -> None:
        """Rebind the spanned names; count field, plane and lazy calls."""
        from localarc import cli, construct, search
        modules = {"cli": cli, "construct": construct, "search": search}
        for mod, name, layer in SPANNED:
            if not self.spans_on and (mod, layer) != ("cli", "arcs"):
                continue
            target = modules[mod]
            after = self._count_lazy if name == "lift_prime" else None
            setattr(target, name,
                    self.wrap(f"{layer}.{name}[{mod}]", layer,
                              getattr(target, name), after))
        if self.count_calls:
            self._count_field_calls(localarc.gf.Field, ("mul", "inv"), "gf")
            self._count_field_calls(localarc.plane.Plane, ("join",), "plane")

    def _count_field_calls(self, cls, names, layer) -> None:
        # every instance gets counting closures in place of its own, so
        # the kernels built from it afterwards count too
        calls = self.calls
        original = cls.__init__

        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            for name in names:
                key = f"{layer}.{name}"

                def counted(*a, _fn=getattr(obj, name), _key=key):
                    calls[_key] += 1
                    return _fn(*a)
                setattr(obj, name, counted)
        cls.__init__ = init

    def _count_lazy(self, family):
        if not isinstance(family.sets, (list, tuple)):
            family.sets = _CountingSets(family.sets, self)
        return family

    def layer_self_seconds(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span["layer"]] += span["self"]
        out["construct"] += self.lazy_seconds
        return out


class _CountingSets:
    """Sequence proxy that counts and times indexing into a lazy family."""

    __slots__ = ("_inner", "_tracer")

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __len__(self):
        return len(self._inner)

    def __getitem__(self, i):
        tracer = self._tracer
        start = time.perf_counter()
        result = self._inner[i]
        elapsed = time.perf_counter() - start
        tracer.lazy_gets += 1
        tracer.lazy_seconds += elapsed
        if tracer._stack:
            tracer._stack[-1][1] += elapsed
        return result
