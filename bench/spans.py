"""In-memory spans around calls into podsim's public functions.

A `Tracer` wraps every name a layer module lists in `__all__` (plus the
public methods named in `METHODS`) wherever podsim's modules hold a reference
to it, records one span per call, and restores the originals on exit. Spans
stay in memory as [name, start, end, parent, run_id] lists until the caller
writes them out. Nothing is wrapped unless a tracer is entered, so untraced
runs execute podsim unmodified.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

LAYERS = ("channel", "codebook", "feedback", "trainer", "stbc", "pep", "link", "cli")

# Public methods that do per-call work; classes themselves are not wrapped.
METHODS = (
    ("feedback", "FeedbackChannel", "transmit_batch"),
    ("stbc", "InnerDesign", "coefficient_tensors"),
)


def _shape_size(shape) -> int:
    return int(np.prod(shape))


def _index_counts(args, kwargs, result):
    sent = np.asarray(args[1])
    return {"indices": sent.size, "index_errors": int(np.count_nonzero(result != sent))}


# Work counted at the boundary, keyed by span name; each hook returns
# {counter: amount} from the call's arguments and result.
COUNTERS = {
    "trainer.encode_batch": lambda a, kw, r: {"rows": len(a[0])},
    "channel.complex_gaussian": lambda a, kw, r: {"samples": _shape_size(a[0])},
    "feedback.transmit_batch": _index_counts,
}


class Tracer:
    """Records spans while entered; `run_id` tags the spans of one op."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.run_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.run_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if count is not None:
                for key, amount in count(args, kwargs, result).items():
                    counters[f"{name}.{key}"] += amount
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span that is not a podsim call, such as one benchmark op."""
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1, self.run_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        modules = [importlib.import_module("podsim")]
        modules += [importlib.import_module(f"podsim.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"podsim.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn):
                    wrappers[fn] = self.wrap(f"{layer}.{attr}", fn)
        # Modules bind imported functions at import time, so every namespace
        # holding a reference gets the wrapper, not only the defining one.
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"podsim.{layer}"), cls_name)
            self._patch(cls, method, self.wrap(f"{layer}.{method}", getattr(cls, method)))
        return self

    def __exit__(self, *exc) -> bool:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")


def self_times(spans) -> list[float]:
    """Per-span duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted((spans[c][1], spans[c][2]) for c in children[idx]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_table(spans) -> dict[str, dict[str, float]]:
    """calls, total_s and self_s per span name."""
    table: dict[str, dict[str, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span[2] - span[1]
        row["self_s"] += self_s
    return table
