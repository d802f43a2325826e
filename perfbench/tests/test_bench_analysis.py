"""Tail-percentile rule and self-time subtraction."""

from array import array

import pytest

import analysis
import tracer


@pytest.mark.parametrize(
    "n, expected",
    [(1, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
     (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert analysis.tail_percentile(n) == expected


def _beyond(p: float, n: int) -> int:
    """Samples above the nearest-rank p-th percentile: floor(n (100 - p) / 100)."""
    return n * (1000 - round(p * 10)) // 1000


def test_tail_percentile_is_the_highest_that_qualifies():
    for n in range(20, 3000):
        p = analysis.tail_percentile(n)
        assert _beyond(p, n) >= 10
        higher = [q for q in analysis.TAIL_LADDER if q > p]
        if higher:
            assert _beyond(higher[0], n) < 10


def test_nearest_rank():
    samples = [float(x) for x in range(1, 41)]  # 1..40
    assert analysis.nearest_rank(samples, 50) == 20.0
    assert analysis.nearest_rank(samples, 75) == 30.0
    assert analysis.nearest_rank(list(reversed(samples)), 100) == 40.0


def _self_times(spans):
    """spans: (layer, parent, start, end) rows."""
    layers = sorted({row[0] for row in spans})
    ids = array("b", [layers.index(row[0]) for row in spans])
    parents = array("q", [row[1] for row in spans])
    starts = array("d", [row[2] for row in spans])
    ends = array("d", [row[3] for row in spans])
    return analysis.self_times(layers, ids, parents, starts, ends)


def test_self_time_subtracts_nested_children():
    self_s, calls, root = _self_times([
        ("cli", -1, 0.0, 10.0),
        ("intpoly", 0, 1.0, 4.0),
        ("counting", 1, 2.0, 3.0),
        ("intpoly", 0, 5.0, 6.0),
    ])
    assert self_s == {"cli": 6.0, "counting": 1.0, "intpoly": 3.0}
    assert calls == {"cli": 1, "counting": 1, "intpoly": 2}
    assert root == 10.0 == sum(self_s.values())


def test_self_time_counts_same_layer_nesting_once():
    self_s, calls, root = _self_times([
        ("cli", -1, 0.0, 8.0),
        ("intpoly", 0, 1.0, 6.0),
        ("intpoly", 1, 2.0, 5.0),
        ("intpoly", 2, 3.0, 4.0),
    ])
    assert self_s == {"cli": 3.0, "intpoly": 5.0}
    assert calls["intpoly"] == 3
    assert sum(self_s.values()) == root


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_generator_time_is_charged_per_next(monkeypatch, tmp_path):
    clock = _Clock()
    monkeypatch.setattr(tracer, "perf_counter", clock)
    t = tracer.Tracer()

    def produce():  # returns at once; the work happens in next()
        for item in range(3):
            clock.now += 1.0
            yield item

    def consume():
        clock.now += 0.5
        return sum(produce_wrapped())

    produce_wrapped = t.wrap(produce, "minimize")
    assert t.wrap(consume, "counting")() == 3
    path = str(tmp_path / "spans")
    t.dump(path)
    header, ids, parents, starts, ends = analysis.read_spans(path)
    self_s, calls, root = analysis.self_times(header["layers"], ids, parents, starts, ends)
    assert self_s == {"minimize": 3.0, "counting": 0.5}
    assert calls["minimize"] == 1 + 4  # the call, three items and the final StopIteration
    assert all(parents[i] == 0 for i in range(1, len(parents)))
    assert root == 3.5
