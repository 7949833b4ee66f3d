"""Spans and call counts around the library's entry points, taken from outside.

Each entry point is patched where its caller looks it up: a module attribute
(``toeppencil.criteria.is_singular`` is the name ``evaluate_instance``
calls) or a class method (``Mat.det``), so the library itself is unchanged.
A span records its name, start, end, parent span and the label of the
benchmark operation that caused it; spans stay in memory until the run ends.
Entry points that are too fine-grained to time without distorting them are
only counted, which also keeps their time inside their caller's self time.
An entry point the library no longer has is reported as absent.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from typing import Dict, List, Tuple

# (module, attribute or Class.method, layer name)
SPANS = [
    ("toeppencil", "evaluate_instance", "criteria.evaluate_instance"),
    ("toeppencil.hunt", "evaluate_instance", "criteria.evaluate_instance"),
    ("toeppencil.cli", "evaluate_instance", "criteria.evaluate_instance"),
    ("toeppencil.criteria", "is_singular", "pencil.is_singular"),
    ("toeppencil.criteria", "check_S", "criteria.check_S"),
    ("toeppencil.criteria", "check_SM", "criteria.check_SM"),
    ("toeppencil.criteria", "principal_minors", "minors.principal_minors"),
    ("toeppencil.criteria", "sm_condition_values", "criteria.sm_condition_values"),
    ("toeppencil.hunt", "sm_condition_values", "criteria.sm_condition_values"),
    ("toeppencil.hunt", "recover_c_from_minors", "minors.recover_c_from_minors"),
    ("toeppencil", "exhaustive_scan", "hunt.exhaustive_scan"),
    ("toeppencil.kronecker", "analyze", "kronecker.analyze"),
    ("toeppencil.kronecker", "kernel_poly", "kronecker.kernel_poly"),
    ("toeppencil.kronecker", "minimal_index", "kronecker.minimal_index"),
    ("toeppencil.linalg", "Mat.kernel_basis", "linalg.Mat.kernel_basis"),
    ("toeppencil.cli", "main", "cli.main"),
]
COUNTS = [
    ("toeppencil.linalg", "Mat.det", "linalg.Mat.det"),
    ("toeppencil.linalg", "Mat.inv", "linalg.Mat.inv"),
    ("toeppencil.linalg", "Mat.rank", "linalg.Mat.rank"),
    ("toeppencil.linalg", "PolyMat.det", "linalg.PolyMat.det"),
    ("toeppencil.kronecker", "build_C", "kronecker.build_C"),
]


def _owner(module: str, attr: str):
    """The object holding the attribute and the attribute's last name."""
    obj = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        obj = getattr(obj, part)
    if not hasattr(obj, name):
        raise AttributeError(f"{module}.{attr}")
    return obj, name


class Tracer:
    """Installs the wrappers on ``__enter__`` and restores the originals on exit."""

    def __init__(self):
        self.label = None  # set by the workload around each operation
        self.spans: List[Tuple] = []  # (name, label, start_ns, end_ns, parent index)
        self.counts: Dict[Tuple[str, str], int] = defaultdict(int)
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, self.label, t0, t1, parent)

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(name, self.label)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self):
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for module, attr, name in table:
                try:
                    owner, leaf = _owner(module, attr)
                except (ImportError, AttributeError):
                    self.absent.append(f"{module}.{attr}")
                    continue
                original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
                self._patched.append((owner, leaf, original))
                setattr(owner, leaf, make(name, original))
        return self

    def __exit__(self, *exc):
        for owner, leaf, original in reversed(self._patched):
            setattr(owner, leaf, original)
        self._patched.clear()
        return False

    def durations(self) -> Tuple[Dict, Dict]:
        """Total and self durations in ns, keyed by (layer name, label). Self
        time is the span minus the time its child spans cover."""
        child_ns = [0] * len(self.spans)
        for name, label, t0, t1, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        total, own = defaultdict(list), defaultdict(list)
        for i, (name, label, t0, t1, _) in enumerate(self.spans):
            total[(name, label)].append(t1 - t0)
            own[(name, label)].append(t1 - t0 - child_ns[i])
        return total, own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, label, t0, t1, parent in self.spans:
                fh.write(json.dumps({"name": name, "label": label, "start_ns": t0,
                                     "end_ns": t1, "parent": parent}) + "\n")
