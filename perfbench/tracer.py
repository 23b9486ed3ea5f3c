"""Spans around the package's public functions, recorded from outside.

The tracer replaces each target function at every name it is looked up
under: ``lrdkendall.inference.s_extended`` as well as
``lrdkendall.core.s_extended`` and ``lrdkendall.s_extended``. A call
then records one span: its id, the id of the span open when it started
(its parent), the operation it belongs to, the function name, start and
end (``time.perf_counter``), an optional work count, and whether it
raised. Spans stay in memory until the run ends.

All layers run on one thread at the library's default worker count, so
spans nest strictly and no layer waits on another.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import time


def _pairs(args, kwargs, result):
    n = len(args[0])
    return n * (n - 1) // 2


def _draws(args, kwargs, result):
    return result.draws


def _replicates(args, kwargs, result):
    return result.replicates_used


# (module, function, work count taken from the call)
TARGETS = (
    ("lrdkendall.core", "s_extended", _pairs),
    ("lrdkendall.core", "uv_counts", _pairs),
    ("lrdkendall.core", "tie_proportion", _pairs),
    ("lrdkendall.variance", "var_extended_hat", None),
    ("lrdkendall.variance", "var_classical", None),
    ("lrdkendall.variance", "tie_groups", None),
    ("lrdkendall.inference", "run_test", None),
    ("lrdkendall.regional", "regional_test", None),
    ("lrdkendall.permutation", "permutation_test", _draws),
    ("lrdkendall.permutation", "regional_permutation_test", _draws),
    ("lrdkendall.seeds", "generator_for", None),
    ("lrdkendall.simulation", "run_grid", None),
    ("lrdkendall.simulation", "run_cell", _replicates),
    ("lrdkendall.power", "power_curve", None),
    ("lrdkendall.power", "moments", None),
    ("lrdkendall.power", "diff_density", None),
    ("lrdkendall.datasets", "read_input_file", None),
    ("lrdkendall.report", "render_json", None),
)

LAYERS = tuple(dict.fromkeys(m.rsplit(".", 1)[1] for m, _, _ in TARGETS))

# span record fields, in order
FIELDS = ("id", "parent", "op", "name", "start", "end", "count", "error")


class Tracer:
    """Collects spans while installed; ``op`` tags the current operation."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = None
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = next(tracer._ids)
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span, parent, tracer.op, name, start, end, None, True))
                raise
            end = time.perf_counter()
            tracer._stack.pop()
            work = count(args, kwargs, result) if count else None
            tracer.spans.append((span, parent, tracer.op, name, start, end, work, False))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at each lrdkendall module attribute bound to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "lrdkendall" or key.startswith("lrdkendall."))
        ]
        for module_name, attr, count in TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            layer = module_name.rsplit(".", 1)[1]
            wrapper = self._wrap(f"{layer}.{attr}", original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def add(self, spans, op) -> None:
        """Adopt spans recorded by another process, renumbered and tagged ``op``."""
        base = next(self._ids)
        top = base
        for span, parent, _, name, start, end, work, error in spans:
            top = max(top, base + span)
            self.spans.append((
                base + span, None if parent is None else base + parent,
                op, name, start, end, work, error,
            ))
        # skip the ids just adopted so later spans stay unique
        self._ids = itertools.count(top + 1)


def dump(spans, path) -> None:
    """Write spans as JSON lines, one object per span."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in spans:
            fh.write(json.dumps(dict(zip(FIELDS, record))) + "\n")


def load(path) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)[f] for f in FIELDS) for line in fh if line.strip()]
