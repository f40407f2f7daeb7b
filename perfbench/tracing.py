"""In-memory spans recorded by the benchmark around its calls into each layer.

A span is [name, part, start, end, parent, attrs]: ``parent`` is the index
of the enclosing span (-1 for a root) and ``attrs`` holds the counts taken
at the same boundary (clauses sampled, reduction steps, key returned,
witness extracted).  Spans stay in memory and are written out once, at
the end of the traced run, one JSON array per line after a header line
that names the fields.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.part: str | None = None

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.part, perf_counter(), 0.0, parent, None])
        self._open.append(index)
        return index

    def end(self, index: int, **attrs) -> None:
        span = self.spans[index]
        span[3] = perf_counter()
        self._open.pop()
        if attrs:
            span[5] = attrs

    def write(self, path) -> None:
        with open(path, "w") as out:
            out.write(json.dumps(["name", "part", "start", "end", "parent", "attrs"]) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class NullTracer:
    """Same interface, records nothing: the untraced side of the overhead."""

    part = None

    def begin(self, name: str) -> int:
        return 0

    def end(self, index: int, **attrs) -> None:
        pass


UNITS = {
    "us_per_trial": "us", "items_per_trial": "count", "draws_per_item": "count",
    "steps_per_trial": "count", "ms_per_key": "ms", "keys": "count", "classes": "count",
    "us_per_call": "us", "witness_extractions": "count", "unattributed_us_per_trial": "us",
    "enumerate_s": "s", "expansion_s": "s", "overhead_pct": "%",
}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


def per_layer(spans, part_names, draws: dict) -> dict:
    """Per-layer metrics of the set-up and of each part, from the spans.

    ``draws`` maps a part name to (random draws, items kept) counted on the
    same seeds outside the timed replay.
    """
    time_in = defaultdict(float)  # (part, layer) -> seconds
    calls = defaultdict(int)
    items = defaultdict(int)
    steps = defaultdict(int)
    witnesses = defaultdict(int)
    keys = defaultdict(set)
    classes = 0
    child_time = defaultdict(float)  # root index -> seconds in child spans
    for name, part, start, end, parent, attrs in spans:
        if parent >= 0:
            child_time[parent] += end - start
        time_in[part, name] += end - start
        calls[part, name] += 1
        if name == "sampling":
            items[part] += attrs["items"]
        elif name == "reduction":
            steps[part] += attrs["steps"]
        elif name == "isomorph":
            keys[part].add(attrs["key"])
        elif name == "solver":
            witnesses[part] += attrs["witness"]
        elif name == "catalog":
            classes = attrs["classes"]
    unattributed = defaultdict(float)
    for index, span in enumerate(spans):
        if span[0] == "experiments":
            unattributed[span[1]] += span[3] - span[2] - child_time[index]

    def per(total, count, scale=1.0):
        return total / count * scale if count else 0.0

    out = {"catalog.enumerate_s": time_in[None, "catalog"], "catalog.classes": classes,
           "predictor.expansion_s": time_in[None, "predictor"]}
    for p in part_names:
        t = calls[p, "experiments"]
        d, kept = draws.get(p, (0, 0))
        out.update({
            f"{p}.sampling.us_per_trial": per(time_in[p, "sampling"], t, 1e6),
            f"{p}.sampling.items_per_trial": per(items[p], t),
            f"{p}.sampling.draws_per_item": per(d, kept),
            f"{p}.reduction.us_per_trial": per(time_in[p, "reduction"], t, 1e6),
            f"{p}.reduction.steps_per_trial": per(steps[p], t),
            f"{p}.isomorph.ms_per_key": per(time_in[p, "isomorph"], calls[p, "isomorph"], 1e3),
            f"{p}.isomorph.keys": calls[p, "isomorph"],
            f"{p}.isomorph.classes": len(keys[p]),
            f"{p}.solver.us_per_call": per(time_in[p, "solver"], calls[p, "solver"], 1e6),
            f"{p}.solver.witness_extractions": witnesses[p],
            f"{p}.experiments.unattributed_us_per_trial": per(unattributed[p], t, 1e6),
        })
    return out
