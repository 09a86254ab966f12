"""Span recorder that times calls into dilshape's modules from outside.

Installing the tracer replaces chosen module attributes with timing
wrappers.  dilshape's own modules look those functions up through the
module (``corr.validate_spd``, ``io.load_curve``, ...) or through their
own globals at call time, so calls made by the benchmark and calls made
inside the package both pass through a wrapper.  No file of the package
changes; :meth:`Tracer.restore` puts the originals back.

Spans stay in memory, each with a name, start, end, parent span and the
benchmark operation that was running, and are written out once at the
end.  A layer's self time is its span's duration minus the time of the
wrapped calls nested directly inside it.
"""

from __future__ import annotations

import functools
import json
import time

# The public functions timed per layer, as (module, function).  Each gives
# the per-layer metrics ``<module>.<function>.calls`` and ``.busy_s``.
TRACED = (
    ("corr", "gen_pc_process"),
    ("corr", "estimate_ensemble_correlation"),
    ("corr", "validate_spd"),
    ("dilation", "extract_schur_params"),
    ("dilation", "reconstruct_matrix"),
    ("dilation", "build_dilation_sequence"),
    ("curves", "from_dilation"),
    ("shape", "shape_distance"),
    ("shape", "karcher_mean"),
    ("io", "save_realizations"),
    ("io", "save_matrix"),
    ("io", "load_matrix"),
    ("io", "save_params"),
    ("io", "load_params"),
    ("io", "save_curve"),
    ("io", "load_curve"),
    ("io", "save_distance_matrix"),
    ("cli", "main"),
    ("cli", "cmd_gen"),
    ("cli", "cmd_parcors"),
    ("cli", "cmd_dilate"),
    ("cli", "cmd_dist"),
    ("cli", "cmd_mean"),
)

# Health counts read off return values, after the span has closed.
HEALTH = ("corr.repaired", "dilation.degenerate_params", "dilation.boundary_params")


def _observe_estimate(result, health):
    health["corr.repaired"] += int(result.repaired)


def _observe_params(result, health):
    health["dilation.degenerate_params"] += int(result.degenerate.sum())
    health["dilation.boundary_params"] += int(result.boundary.sum())


OBSERVERS = {
    "corr.estimate_ensemble_correlation": _observe_estimate,
    "dilation.extract_schur_params": _observe_params,
}


class Tracer:
    """Wraps the functions in :data:`TRACED` and records one span per call."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.op = None  # index of the benchmark operation now running
        self.spans: list = []
        self.calls = {f"{m}.{f}": 0 for m, f in TRACED}
        self.busy = {f"{m}.{f}": 0.0 for m, f in TRACED}
        self.health = dict.fromkeys(HEALTH, 0)
        self._open: list = []  # [span index, time of nested wrapped calls]
        self._saved: list = []
        self._origin = time.perf_counter()

    def install(self) -> None:
        for module_name, attr in TRACED:
            module = self.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, original):
        observe = OBSERVERS.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = self._open[-1][0] if self._open else None
            frame = [len(self.spans), 0.0]
            self.spans.append(None)
            self._open.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                total = end - start
                self.spans[frame[0]] = (name, start - self._origin,
                                        end - self._origin, parent, self.op)
                self.calls[name] += 1
                self.busy[name] += total - frame[1]
                if self._open:
                    self._open[-1][1] += total
            if observe is not None:
                observe(result, self.health)
            return result

        return wrapper

    def write_spans(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "op": op}) + "\n")
