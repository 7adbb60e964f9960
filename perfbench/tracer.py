"""Span tracing of the sketchbounds layers, installed from outside the package.

``Tracer.install`` replaces every public function of the traced layer modules
with a wrapper, at every module attribute through which callers reach it
(``substream`` is patched as ``sketchbounds.rng.substream`` and also as
``sketchbounds.constructions.substream``, ``sketchbounds.measures.substream``,
``sketchbounds.cli.substream`` and ``sketchbounds.substream``).  Validating
classes get their ``__init__`` wrapped.  ``uninstall`` puts the originals
back, so nothing under ``src/`` is edited and an untraced run patches nothing.

Each call records one span ``(name_id, start, end, parent, job)`` in memory.
A span's self time is its duration minus the durations of its direct
children.  A few functions also feed exact work counters (columns sampled,
JSON bytes, RIP supports, ...) computed from their arguments or result.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "sketchbounds"

# The package's modules, in call order.  `bounds` (closed-form, microseconds
# per call) and `errors` (no work) are deliberately left out.
LAYERS = ("cli", "witnesses", "measures", "constructions", "matrices", "rng")

SEARCHES = (
    "witnesses.ttype_collision_certify",
    "witnesses.sign_pattern_certify",
    "witnesses.rip_pattern_witness",
    "witnesses.row_mass_violation_search",
    "witnesses.ose_collision_witness",
)


def _columns_sampled(c, a, result):
    c["constructions.columns_sampled"] += result.n


def _json_in(c, a, result):
    c["matrices.json_bytes_in"] += len(a["text"])


def _json_out(c, a, result):
    c["matrices.json_bytes_out"] += len(result)


def _gram_flops(c, a, result):
    # Computed from the shape, not measured: one multiply-add per row for
    # every distinct column pair.
    A = a["A"]
    c["measures.coherence.gram_flops"] += A.m * A.n * (A.n - 1)


def _rip_exact(c, a, result):
    c["measures.rip.supports"] += math.comb(a["A"].n, a["k"])


def _rip_sampled(c, a, result):
    c["measures.rip.supports"] += a["trials"]


def _search(c, a, result):
    c["witnesses.searches"] += 1
    c["witnesses.certificates"] += result.kind != "none"


COUNTERS = {
    "constructions.sample_sparse_sign_jl": _columns_sampled,
    "constructions.sample_osnap_block": _columns_sampled,
    "matrices.matrix_from_json": _json_in,
    "matrices.one_sparse_map_from_json": _json_in,
    "matrices.matrix_to_json": _json_out,
    "matrices.one_sparse_map_to_json": _json_out,
    "measures.coherence": _gram_flops,
    "measures.rip_constant_exact": _rip_exact,
    "measures.rip_constant_lower_estimate": _rip_sampled,
    **{name: _search for name in SEARCHES},
}


def _traced_callables(module):
    """(qualified name, function, owner class or None) for one layer module."""
    layer = module.__name__.rsplit(".", 1)[1]
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{attr}", obj, None
        elif inspect.isclass(obj) and "__init__" in vars(obj) and not dataclasses.is_dataclass(obj):
            yield f"{layer}.{attr}", obj.__init__, obj


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.counters: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        hook = COUNTERS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.job)
            if hook is not None:
                hook(self.counters, sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS]
        targets = {}
        for module in modules:
            for name, fn, owner in _traced_callables(module):
                wrapper = self._wrap(name, fn)
                if owner is None:
                    targets[id(fn)] = wrapper
                else:
                    self._undo.append((owner, "__init__", fn))
                    owner.__init__ = wrapper
        importers = [m for key, m in list(sys.modules.items())
                     if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module in importers:
            for attr, obj in list(vars(module).items()):
                wrapper = targets.get(id(obj))
                if wrapper is not None:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def take_counters(self) -> Counter:
        """Return the counters gathered since the last call and reset them."""
        counters, self.counters = self.counters, Counter()
        return counters


def self_times(spans, lo: int, hi: int) -> list[float]:
    """Self time of each span in spans[lo:hi], which must hold whole trees."""
    own = [end - start for _, start, end, _, _ in spans[lo:hi]]
    for _, start, end, parent, _ in spans[lo:hi]:
        if parent >= 0:
            own[parent - lo] -= end - start
    return own


def misnested(spans, lo: int, hi: int, own: list[float]) -> int:
    """Number of spans in spans[lo:hi] outside their parent's interval or job,
    or with negative self time `own` (children that outlast them)."""
    bad = 0
    for (_, start, end, parent, job), self_s in zip(spans[lo:hi], own):
        if self_s < -1e-9:
            bad += 1
        elif parent >= 0:
            _, p_start, p_end, _, p_job = spans[parent]
            bad += not (p_start <= start and end <= p_end and job == p_job)
    return bad
