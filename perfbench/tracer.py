"""In-memory span tracer for clonesim's public callables.

:meth:`Tracer.install` replaces each traced function at every binding site,
that is in every ``clonesim`` module whose namespace holds it, because
``experiments`` and ``emission`` import ``clone``, ``clebsch_gordan`` and
``transition_amplitude`` by name. Classes are traced through their
``__post_init__``, so every construction is seen whoever calls the class.
Wrappers return what the wrapped callable returns; :meth:`uninstall` puts
the originals back.

A span is ``[name, start, end, parent, op_id]``; a span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
from collections import Counter, defaultdict
from collections.abc import Mapping
from time import perf_counter

import numpy as np

#: (module, function) pairs traced at every binding site.
FUNCTIONS = (
    ("cli", "build_parser"),
    ("cli", "main"),
    ("experiments", "load_atomic_system"),
    ("experiments", "render_report"),
    ("experiments", "run"),
    ("copying", "build_copy_unitary"),
    ("copying", "clone"),
    ("copying", "clone_with_fixed_ancilla"),
    ("angular", "clebsch_gordan"),
    ("emission", "transition_amplitude"),
    ("emission", "stimulated_clone"),
    ("emission", "clonable_domain"),
    ("emission", "build_interaction_hamiltonian"),
)

#: (module, class) pairs traced through ``__post_init__``.
CLASSES = (
    ("copying", "CopyBasis"),
    ("hilbert", "OperatorMatrix"),
    ("hilbert", "DensityMatrix"),
)

#: Spans whose distinct argument tuples are counted, for ``unique_ratio``.
KEYED = ("angular.clebsch_gordan", "emission.transition_amplitude")


def value_key(obj):
    """A hashable key equal for equal values, as a value-keyed cache would see them."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (type(obj).__name__,) + tuple(value_key(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, Mapping):
        return tuple(sorted((key, value_key(value)) for key, value in obj.items()))
    if isinstance(obj, (tuple, list)):
        return tuple(value_key(item) for item in obj)
    if isinstance(obj, np.ndarray):
        return obj.tobytes()
    return obj


@dataclasses.dataclass
class CycleStats:
    """Per-cycle totals: calls and self seconds per span name, plus counters."""

    calls: Counter
    self_s: Counter
    unique: dict[str, int]
    counters: Counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._cycle_start = 0
        self._keys: dict[str, set] = defaultdict(set)
        self._counters: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, after=None):
        keys = self._keys[name] if name in KEYED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if keys is not None:
                keys.add(value_key((args, kwargs)))
            if after is not None:
                after(args, result)
            return result

        return traced

    def _count_operator(self, args, result) -> None:
        self._counters["hilbert.operator_bytes"] += args[0].entries.nbytes

    def _count_hamiltonian(self, args, result) -> None:
        entries = result.entries
        self._counters["emission.hamiltonian_bytes"] += entries.shape[0] * entries.shape[1] * 16
        self._counters["emission.hamiltonian_entries"] += entries.size
        self._counters["emission.hamiltonian_nnz"] += int(np.count_nonzero(entries))

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [module for name, module in list(sys.modules.items()) if name.split(".")[0] == "clonesim"]
        for module_name, attr in FUNCTIONS:
            original = getattr(sys.modules[f"clonesim.{module_name}"], attr)
            after = self._count_hamiltonian if attr == "build_interaction_hamiltonian" else None
            wrapper = self._wrap(f"{module_name}.{attr}", original, after)
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, bound, wrapper)
        for module_name, attr in CLASSES:
            cls = getattr(sys.modules[f"clonesim.{module_name}"], attr)
            after = self._count_operator if attr == "OperatorMatrix" else None
            self._patch(cls, "__post_init__", self._wrap(f"{module_name}.{attr}", cls.__post_init__, after))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def end_cycle(self) -> CycleStats:
        """Totals of the spans and counters recorded since the previous call."""
        spans = self.spans[self._cycle_start:]
        child_s: Counter = Counter()
        for name, start, end, parent, _ in spans:
            child_s[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for index, (name, start, end, parent, _) in enumerate(spans, self._cycle_start):
            calls[name] += 1
            self_s[name] += end - start - child_s[index]
        stats = CycleStats(calls, self_s, {name: len(keys) for name, keys in self._keys.items()}, self._counters.copy())
        self._cycle_start = len(self.spans)
        for keys in self._keys.values():
            keys.clear()
        self._counters.clear()
        return stats
