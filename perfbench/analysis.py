"""Statistics over latency samples and self time over recorded spans."""

from __future__ import annotations

import json
import math
from array import array
from fractions import Fraction

# Percentiles offered for the tail, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of the p-th percentile among n samples (exact)."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def nearest_rank(samples: list[float], p: float) -> float:
    """The p-th percentile by the nearest-rank rule (p in (0, 100])."""
    return sorted(samples)[_rank(p, len(samples)) - 1]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile that still has at least 10 of n samples beyond it.

    With fewer than 20 samples no ladder entry qualifies and the median
    is used.
    """
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= 10:
            best = p
    return best


def read_spans(path: str):
    """Header and the four span arrays written by tracer.py."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        count = header["spans"]
        arrays = []
        for code in ("b", "q", "d", "d"):
            arr = array(code)
            arr.fromfile(f, count)
            arrays.append(arr)
    return header, *arrays


def self_times(layers, layer_ids, parents, starts, ends) -> tuple[dict[str, float], dict[str, int], float]:
    """Per-layer self time, per-layer span count, and the root spans' total.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread never overlap except by nesting, so
    that is the part of its interval no child covers.  Summed over all
    spans the self times equal the total of the root spans.
    """
    durations = [e - s for s, e in zip(starts, ends)]
    child_time = [0.0] * len(durations)
    root = 0.0
    for i, p in enumerate(parents):
        if p >= 0:
            child_time[p] += durations[i]
        else:
            root += durations[i]
    self_s = {name: 0.0 for name in layers}
    calls = {name: 0 for name in layers}
    for i, lid in enumerate(layer_ids):
        name = layers[lid]
        self_s[name] += durations[i] - child_time[i]
        calls[name] += 1
    return self_s, calls, root
