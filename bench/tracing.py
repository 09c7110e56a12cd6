"""Per-layer tracing from outside the program.

:class:`Tracer` replaces public qcarnot functions (and two methods) by
wrappers that count calls and accumulate wall time and self time, the
latter being a span's duration minus the time spent in traced spans it
caused.  Functions are swapped in every qcarnot module that holds them, so
calls through ``from .x import f`` copies are traced too.  ``uninstall``
puts the originals back.  The program itself is not modified.
"""

from __future__ import annotations

import os
from collections import defaultdict
from time import perf_counter


def _count_rows(stats, name, args, kwargs, result):
    stats[f"{name}.rows"] += len(result)


def _count_bytes(stats, name, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    stats[f"{name}.bytes"] += os.path.getsize(path)


def _count_identity_terms(stats, name, args, kwargs, result):
    stats[f"{name}.terms"] += result.terms_used


def _count_expansion(stats, name, args, kwargs, result):
    state, report = result
    stats[f"{name}.terms"] += report.terms_used
    stats[f"{name}.support_levels"] += state.support_size


def _count_state_levels(stats, name, args, kwargs, result):
    stats[f"{name}.levels"] += args[0].levels.size


# (module, attribute path, result hook); the span is named "<module>.<path>",
# less a trailing ".__init__".
TRACED = (
    ("quadrature", "integrate", None),
    ("processes", "Stroke.force_at", None),
    ("processes", "isothermal_state_at", None),
    ("boxmodel", "MixedState.__init__", _count_state_levels),
    ("processes", "sample_stroke", _count_rows),
    ("processes", "stroke_work_quadrature", None),
    ("cycle", "sample_cycle", None),
    ("cycle", "evaluate_cycle", None),
    ("cycle", "build_carnot_cycle", None),
    ("cli", "write_samples_csv", _count_bytes),
    ("cli", "main", None),
    ("sudden", "verify_energy_identity", _count_identity_terms),
    ("sudden", "post_expansion_distribution", _count_expansion),
    ("sudden", "level_overlap_squares", None),
)

_MODULES = ("boxmodel", "processes", "quadrature", "cycle", "sudden", "cli")


class Tracer:
    """Call counts, wall time and self time per traced span, kept in memory."""

    def __init__(self, package):
        self.package = package
        self.stats: defaultdict[str, float] = defaultdict(float)
        self._children: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        stats = self.stats
        children = self._children
        calls, total, own = f"{name}.calls", f"{name}.s", f"{name}.self_s"
        if name == "quadrature.integrate":
            evals = f"{name}.f_evals"

            def counted(f):
                def g(x):
                    stats[evals] += 1
                    return f(x)
                return g
        else:
            counted = None

        def wrapper(*args, **kwargs):
            if counted is not None:
                args = (counted(args[0]),) + args[1:]
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = children.pop()
                stats[calls] += 1
                stats[total] += elapsed
                stats[own] += elapsed - inner
                if children:
                    children[-1] += elapsed
            if hook is not None:
                hook(stats, name, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [getattr(self.package, m) for m in _MODULES] + [self.package]
        for module_name, attr, hook in TRACED:
            name = f"{module_name}.{attr.removesuffix('.__init__')}"
            owner = getattr(self.package, module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self._wrap(original, name, hook)
            if isinstance(owner, type):
                self._swap(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._swap(module, key, wrapper)

    def _swap(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)
