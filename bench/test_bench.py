"""Tests of the benchmark's own machinery: inputs, mutants, span arithmetic."""

from __future__ import annotations

import random
import time

import pytest

import aq
import inputs
import run
import spans
import speed


def _case(n, labels):
    return inputs.case_of(n, labels)


def test_same_seed_same_triples_and_certificates():
    strata = inputs.CASE2_STRATA + (inputs.CASE1,)
    assert inputs.stratified_triples(7, 9, strata, 2) == inputs.stratified_triples(7, 9, strata, 2)
    assert inputs.stratified_triples(7, 9, strata, 2) != inputs.stratified_triples(8, 9, strata, 2)
    plan = [(6, "Case2_2_2c", 1), (6, inputs.CASE1_DEEP, 1), (7, "Case2_1_3", 1)]
    assert inputs.certificate_items(3, plan) == inputs.certificate_items(3, plan)
    assert inputs.certificate_items(3, plan) != inputs.certificate_items(4, plan)


@pytest.mark.parametrize("seed", [1, 2])
def test_every_stratum_fills_at_n11(seed):
    strata = inputs.CASE2_STRATA + (inputs.CASE1,)
    items = inputs.stratified_triples(seed, 11, strata, 3)
    assert [s for s, _ in items[: len(strata)]] == list(strata)
    assert len(set(t for _, t in items)) == len(items)
    full = (1 << 11) - 1
    for stratum, labels in items:
        assert _case(11, labels) == stratum
        if stratum == inputs.CASE1:
            lower = [a ^ full if a >> 10 else a for a in labels]
            assert _case(10, lower).startswith("Case2")
    for labels in inputs.stratum_triples(seed, 12, inputs.CASE1_DEEP, 3):
        assert max(labels) < 16 and _case(12, labels) == inputs.CASE1


def test_unfillable_stratum_fails_loudly(monkeypatch):
    # AQ_5 has only 32 cross-twin triples with z on a cross-partner
    monkeypatch.setattr(inputs, "MAX_ATTEMPTS", 50)
    with pytest.raises(inputs.InputError, match="Case2_1_1"):
        inputs.stratum_triples(1, 5, "Case2_1_1", 40)


@pytest.mark.parametrize("kind", sorted(inputs.MUTANT_KINDS))
def test_every_mutant_rejected_with_its_kind(kind):
    g = aq.topology.AugmentedCube(7)
    rng = random.Random(kind)
    placed = 0
    for stratum in ("Case2_1_2", "Case2_2_1b", "Case2_2_3c", inputs.CASE1, inputs.CASE1_DEEP):
        doc = inputs.certificate_doc(7, inputs.stratum_triples(5, 7, stratum, 1)[0])
        assert aq.verify.verify_family(g, aq.cli.parse_certificate(doc)).accepted
        bad = inputs.mutate(doc, kind, rng)
        if bad is None:
            continue
        placed += 1
        report = aq.verify.verify_family(g, aq.cli.parse_certificate(bad))
        assert not report.accepted
        assert {v.kind for v in report.violations} == {inputs.MUTANT_KINDS[kind]}
    assert placed >= 3


def test_certificate_items_interleave_verdicts():
    items = inputs.certificate_items(2, [(6, "Case2_2_2b", 2), (6, inputs.CASE1_DEEP, 2)])
    assert [accepted for _, _, accepted, _ in items] == [True, False, False] * 4
    assert {kind for _, _, accepted, kind in items if not accepted} == set(inputs.MUTANT_KINDS.values())
    workload = run.VerifyCerts()
    for item in items:
        assert workload.check(item, workload.op(item, spans.Tracer())) == 0


def test_self_time_of_nested_spans():
    # parent [0, 10] with children [1, 4] and [3, 6] (overlapping), grandchild [2, 3]
    s = [
        ["construct.construct", 0.0, 10.0, -1, None],
        ["construct.construct", 1.0, 4.0, 0, None],
        ["paths.disjoint_paths", 2.0, 3.0, 1, None],
        ["verify.verify_family", 3.0, 6.0, 0, None],
    ]
    assert spans.self_times(s) == [5.0, 2.0, 1.0, 3.0]
    assert spans.covered(0.0, 10.0, [(8.0, 12.0), (-1.0, 1.0)]) == 3.0


def test_traced_case1_recursion_splits_into_self_times():
    n = 7
    labels = inputs.stratum_triples(1, n, inputs.CASE1_DEEP, 1)[0]
    g = aq.topology.AugmentedCube(n)
    tracer = spans.Tracer()
    tracer.install()
    try:
        aq.cli.build_family(g, [aq.topology.Vertex(a, n) for a in labels])
    finally:
        tracer.uninstall()
    assert aq.construct.construct is aq.cli.build_family
    assert not hasattr(aq.construct.construct, "__wrapped__")
    names = [s[spans.NAME] for s in tracer.spans]
    # one construct per level from n down to the base search at n = 4
    assert names.count("construct.construct") == n - 3
    assert names.count("construct.base_case_search") == 1
    own = spans.self_times(tracer.spans)
    top = tracer.spans[0]
    assert sum(own) == pytest.approx(top[spans.END] - top[spans.START], rel=1e-9, abs=1e-12)
    metrics = spans.layer_metrics(tracer, 1, run.CASES)
    assert metrics["construct.construct.calls"][0] == n - 3
    assert metrics["construct.case.Case1.ms_p50"][0] > 0
    assert metrics["paths.disjoint_paths.calls"][0] == 0
    assert metrics["construct.self_s"][0] < metrics["construct.s"][0]


def test_tail_has_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_raising_operation_fails_its_triples_and_the_run_goes_on():
    class Flaky(run.Workload):
        name = "flaky"

        @staticmethod
        def size(item):
            return item

        def op(self, item, tracer):
            if item == 3:
                raise ValueError("no family")
            return item

        def check(self, item, out):
            return 0

    latencies = [[], [], []]
    assert run.timed_pass(Flaky(), [1, 3, 2], spans.Tracer(), latencies) == 3
    assert [len(v) for v in latencies] == [1, 1, 1]


def test_latencies_are_scaled_by_the_bracketing_probes(monkeypatch):
    assert speed.scaled(1.0, speed.REF_S, 3 * speed.REF_S) == 0.5

    class Sleepy(run.Workload):
        name = "sleepy"

        def op(self, item, tracer):
            time.sleep(0.01)

        def check(self, item, out):
            return 0

    # a host twice as slow as the reference: every time is halved
    monkeypatch.setattr(speed, "probe", lambda: 2 * speed.REF_S)
    latencies = [[], []]
    assert run.timed_pass(Sleepy(), [1, 2], spans.Tracer(), latencies) == 0
    for (seconds,) in latencies:
        assert 0.005 <= seconds < 0.01
