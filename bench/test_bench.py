"""Tests of the benchmark's own arithmetic and instrumentation.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, union_length  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def span(tracer, clock, key, layer, start, body=None, stop=None):
    """Open `key` at `start`, run `body`, close it at `stop`."""
    st = tracer.state()
    clock.now = start
    frame = tracer.begin(st, key, layer)
    if body:
        body()
    clock.now = stop
    tracer.end(st, frame)


def test_union_length():
    assert union_length([]) == 0
    assert union_length([(0, 10), (5, 20), (30, 40)]) == 30
    assert union_length([(5, 6), (0, 10)]) == 10


def test_self_times_of_nested_tree():
    clock = FakeClock()
    tracer = Tracer(clock)
    A, B, C, D = ("cli.main", "montecarlo.sigma_p", "fields.gauge_parts",
                  "capacity.minimize_radial")

    def a_body():
        span(tracer, clock, B, "montecarlo", 10,
             lambda: span(tracer, clock, C, "fields", 20, stop=30), stop=40)
        span(tracer, clock, D, "capacity", 50, stop=60)

    span(tracer, clock, A, "cli", 0, a_body, stop=100)
    snap = tracer.snapshot()
    assert dict(snap["self"]) == {A: 60, B: 20, C: 10, D: 10}
    assert snap["incl"][A] == 100 and snap["incl"][B] == 30
    assert sum(snap["self"].values()) == snap["incl"][A]
    m = layers.layer_metrics(snap, 125)
    assert [m[f"{layer}.self_s"] * 1e9 for layer in ("cli", "montecarlo", "fields", "capacity")] \
        == pytest.approx([60, 20, 10, 10])
    assert m["trace.unattributed_frac"] == pytest.approx(25 / 125)
    assert m["trace.spans"] == 4


def test_self_times_with_worker_threads():
    """Worker spans share the union of their intervals with the client span."""
    clock = FakeClock()
    tracer = Tracer(clock)

    def worker(body):
        t = threading.Thread(target=body)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    def a_body():
        # W1: X [10, 50] containing Y [20, 30]; W2: Z [30, 70].
        worker(lambda: span(tracer, clock, "X", "w", 10,
                            lambda: span(tracer, clock, "Y", "v", 20, stop=30), stop=50))
        worker(lambda: span(tracer, clock, "Z", "w", 30, stop=70))

    span(tracer, clock, "A", "client", 0, a_body, stop=100)
    snap = tracer.snapshot()
    scale = 60 / 80  # union [10, 70] over summed remote durations 40 + 40
    assert snap["self"]["A"] == pytest.approx(40)
    assert snap["self"]["X"] == pytest.approx(30 * scale)
    assert snap["self"]["Y"] == pytest.approx(10 * scale)
    assert snap["self"]["Z"] == pytest.approx(40 * scale)
    assert sum(snap["self"].values()) == pytest.approx(100)
    assert snap["calls"]["Y"] == 1 and snap["incl"]["Z"] == 40


def test_sigma_closed_form_pi_case():
    assert checks.sigma_p_exact(1, 1.0, 1.0, 2.0) == pytest.approx(math.pi, rel=1e-14)


def test_sigma_closed_form_scales_with_c():
    # sigma_p carries |c|^((p - 2n) / (2k)).
    base = checks.sigma_p_exact(2, 1.5, 1.0, 3.0)
    assert checks.sigma_p_exact(2, 1.5, -2.0, 3.0) == pytest.approx(
        base * 2.0 ** ((3.0 - 4) / 3.0), rel=1e-14)


def test_short_checks_repeat_spread_over_the_pass():
    for workload in workloads.WORKLOADS:
        plan = workloads.build(workload, 1, 2)
        assert {check.kind for check in plan} == set(workloads.CHECK_KINDS)
        positions = {}
        for i, check in enumerate(plan):
            positions.setdefault(check, []).append(i)
        assert {len(p) for p in positions.values()} == {1, workloads.REPEATS[workload]}
        # Other checks run between the repeats of one check.
        for p in positions.values():
            assert all(b - a > 1 for a, b in zip(p, p[1:]))


SMALL_PLAN = [
    ["sigma", "--samples", "200000", "--threads", "2", "--seed", "3"],
    ["density", "--samples", "20000", "--threads", "2", "--seed", "3"],
    ["dirac", "--samples", "20000", "--threads", "1", "--seed", "3"],
    ["capacity", "--samples", "20000", "--seed", "3"],
    ["verify-fundamental", "--points", "20", "--seed", "3"],
    ["verify-infinity", "--points", "20", "--seed", "3"],
]


def traced_pass():
    import sublap.cli as cli

    tracer = Tracer()
    outputs = []
    with layers.Instrumentation(tracer):
        for argv in SMALL_PLAN:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                cli.main(argv)
            outputs.append(buf.getvalue())
    snap = tracer.snapshot()
    return snap, layers.layer_metrics(snap, snap["incl"]["cli.main"]), outputs


def test_counts_repeat_across_traced_runs():
    snap1, m1, out1 = traced_pass()
    snap2, m2, out2 = traced_pass()
    counts = ("montecarlo.samples", "fields.gauge_points_per_sample",
              "fields.jet_calls_per_point", "jets.jet2_per_point")
    for name in counts:
        assert m1[name] == m2[name], name
    assert m1["montecarlo.samples"] > 0
    assert m1["fields.gauge_points_per_sample"] > 1  # shell integrands recompute h
    # n = 1: two field jets and 50 Jet2 objects per p_laplacian or
    # infinity_laplacian point.
    assert m1["fields.jet_calls_per_point"] == 2
    assert m1["jets.jet2_per_point"] == (50 + 46) / 2
    # Reports stripped of timing repeat exactly.
    strip = [checks.canonical(json.loads(o)) for o in out1]
    assert strip == [checks.canonical(json.loads(o)) for o in out2]
    # Self times of all layers add up to the time inside cli.main.
    assert sum(snap1["self"].values()) == pytest.approx(snap1["incl"]["cli.main"], rel=1e-9)


def test_uninstall_restores_originals():
    import sublap.cli as cli
    import sublap.montecarlo as mc
    from sublap.jets import Jet2

    before = (cli.main, mc.gauge_parts, Jet2.__mul__, Jet2.__init__, Jet2.__dict__["constant"])
    with layers.Instrumentation(Tracer()):
        assert mc.gauge_parts is not before[1]
        assert Jet2.__mul__ is Jet2.__rmul__
    after = (cli.main, mc.gauge_parts, Jet2.__mul__, Jet2.__init__, Jet2.__dict__["constant"])
    assert after == before
